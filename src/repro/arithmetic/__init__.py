"""Quantum arithmetic library — the paper's case-study workload (Sec. V).

Everything is built from the Clifford + temporary-AND gate set (1 CCiX per
AND compute, one measurement per uncompute), the construction style of
Gidney's adder/multiplier papers (arXiv:1709.06648, 1904.07356,
1905.07682). Each building block ships in two mirrored forms:

* an **emitter** producing a real IR circuit, verified bit-exactly by the
  reversible simulator; and
* a **count function** giving the identical gate tallies in closed form,
  used for the largest experiment sizes where tracing a multi-hundred-
  million-gate stream would be wasteful. Tests assert ``counts == trace``
  across a range of sizes, so the closed forms are validated, not assumed.

Multiplication algorithms (``repro.arithmetic.multipliers``): schoolbook,
Karatsuba, and windowed, multiplying an n-bit quantum integer by an n-bit
classical constant (the modular-arithmetic setting of Gidney's papers); a
quantum-by-quantum schoolbook variant is also provided.
"""

from .._exports import lazy_exports

#: Public names by defining submodule, imported on first access (PEP 562):
#: a multiplier count pass loads no modular-exponentiation code.
_EXPORTS = {
    "adders": (
        "add_constant_controlled",
        "add_constant_controlled_counts",
        "add_into",
        "add_into_counts",
        "subtract_into",
        "subtract_into_counts",
    ),
    "comparator": (
        "add_constant",
        "compare_greater_equal_constant",
        "compare_less_than",
        "compare_less_than_constant",
        "increment",
        "subtract_constant",
    ),
    "lookahead": ("add_lookahead", "add_lookahead_counts"),
    "lookup": ("lookup", "lookup_counts", "unlookup_adjoint"),
    "modexp": (
        "emit_modexp",
        "mod_mul_inplace",
        "modexp_circuit",
        "modexp_counting_counts",
        "modexp_logical_counts",
    ),
    "modular": (
        "ModularMultiplier",
        "mod_add",
        "mod_add_constant_controlled",
        "mod_add_counts",
    ),
    "multipliers": (
        "COUNT_BACKENDS",
        "MULTIPLIER_ALGORITHMS",
        "KaratsubaMultiplier",
        "Multiplier",
        "SchoolbookMultiplier",
        "WindowedMultiplier",
        "default_window_size",
        "multiplier_by_name",
        "schoolbook_multiply_qq",
    ),
    "registers": ("copy_register", "write_constant", "xor_constant"),
    "tally": ("GateTally",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

# ``lookup`` names both a submodule and its function. Importing the
# submodule rebinds the package attribute to the module, so a lazily
# resolved ``lookup`` would turn into the module once any sibling imported
# ``.lookup`` first; bind the function eagerly (every multiplier loads the
# submodule anyway).
from .lookup import lookup  # noqa: E402
