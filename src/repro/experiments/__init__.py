"""Reproduction drivers for every figure and in-text result of the paper.

* :mod:`repro.experiments.fig3` — Fig. 3: physical qubits and runtime of
  the three multipliers vs input size (32..16384 bits) on
  ``qubit_maj_ns_e4`` with the floquet code at budget 1e-4.
* :mod:`repro.experiments.fig4` — Fig. 4: physical qubits and runtime of
  the three multipliers at 2048 bits across all six hardware profiles.
* :mod:`repro.experiments.claims` — the Sec. V in-text numbers: logical
  operations / logical qubits of 2048-bit windowed multiplication, the
  runtime span, the rQOPS span, and the qualitative findings.

``python -m repro.experiments [fig3|fig4|claims|all]`` prints the tables.
"""

from .._exports import lazy_exports

#: Public names by defining submodule, imported on first access (PEP 562):
#: a figure pass loads neither the other figure nor the claims module.
_EXPORTS = {
    "claims": ("evaluate_claims",),
    "fig3": ("FIG3_BIT_SIZES", "run_fig3"),
    "fig4": ("FIG4_PROFILES", "run_fig4"),
    "runner": ("EstimateRow", "run_estimate_row", "run_estimate_rows"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
