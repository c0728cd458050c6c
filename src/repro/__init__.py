"""repro — a reproduction of the Azure Quantum Resource Estimator (SC'23).

This library estimates the logical and physical resources required to run
quantum algorithms on fault-tolerant quantum computers, following
"Using Azure Quantum Resource Estimator for Assessing Performance of Fault
Tolerant Quantum Computation" (van Dam, Mykhailova, Soeken; SC 2023) and
its companion technical paper (Beverland et al., arXiv:2211.07629).

Quickstart
----------
>>> from repro import LogicalCounts, estimate, qubit_params
>>> counts = LogicalCounts(num_qubits=100, t_count=10**6, measurement_count=10**5)
>>> result = estimate(counts, qubit_params("qubit_gate_ns_e3"), budget=1e-3)
>>> print(result.summary())

Sweeps over many (program, qubit, scheme, budget, constraints) points go
through :func:`estimate_batch` (see :mod:`repro.estimator.batch`), which
memoizes cross-point work and optionally fans out over processes;
:func:`estimate_frontier` trades qubits against runtime on top of it.
Declarative, resumable sweeps with per-group Pareto frontiers are
:class:`SweepSpec` / :func:`run_sweep` (see :mod:`repro.estimator.sweep`
and the ``repro sweep`` CLI subcommand).

The case-study quantum arithmetic (schoolbook / Karatsuba / windowed
multiplication) lives in :mod:`repro.arithmetic`; figure reproduction
drivers live in :mod:`repro.experiments`.
"""

from ._exports import lazy_exports

__version__ = "0.1.0"

#: Public names by defining submodule. A name's submodule is imported on
#: first access (PEP 562), so ``import repro`` imports none of them and a
#: pass pays only for the modules it uses.
_EXPORTS = {
    "advantage": ("AdvantageAssessment", "ImplementationLevel", "assess"),
    "budget": ("ErrorBudget", "ErrorBudgetPartition"),
    "counts": ("LogicalCounts",),
    "distillation.factory": ("DistillationRound", "TFactory"),
    "distillation.search": ("TFactoryDesigner", "design_t_factory"),
    "distillation.units": ("DistillationUnit",),
    "estimator.batch": (
        "BatchOutcome",
        "EstimateCache",
        "EstimateRequest",
        "estimate_batch",
    ),
    "estimator.constraints": ("Constraints",),
    "estimator.frontier": ("Frontier", "FrontierPoint", "estimate_frontier"),
    "estimator.pipeline": ("estimate",),
    "estimator.queue": ("SweepQueue", "run_worker"),
    "estimator.result": ("PhysicalResourceEstimates",),
    "estimator.spec": ("EstimateSpec", "ProgramRef", "SpecOutcome", "run_specs"),
    "estimator.stages": ("EstimationError",),
    "estimator.store": ("ResultStore",),
    "estimator.sweep": (
        "FrontierGroup",
        "FrontierSpec",
        "SweepAxis",
        "SweepPointOutcome",
        "SweepResult",
        "SweepSpec",
        "run_sweep",
    ),
    "formulas.formula": ("Formula",),
    "layout": ("layout_resources", "logical_qubits_after_layout"),
    "programs": ("Program", "program_from_dict"),
    "qec.logical_qubit": ("LogicalQubit",),
    "qec.predefined": (
        "FLOQUET_CODE",
        "SURFACE_CODE_GATE_BASED",
        "SURFACE_CODE_MAJORANA",
        "default_scheme_for",
        "qec_scheme",
    ),
    "qec.scheme": ("QECScheme",),
    "qir.emitter": ("emit_qir",),
    "qir.parser": ("parse_qir",),
    "qubits.params": ("InstructionSet", "PhysicalQubitParams"),
    "qubits.profiles": ("PREDEFINED_PROFILES", "qubit_params"),
    "registry": ("Registry", "default_registry"),
    "report": ("render_report",),
    "synthesis": ("RotationSynthesis",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
