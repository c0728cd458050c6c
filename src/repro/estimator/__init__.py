"""The resource estimation pipeline (paper Sec. III and IV-D).

:func:`estimate` is the single-point entry point: it takes a program (as
pre-layout :class:`~repro.counts.LogicalCounts`, or anything with a
``logical_counts()`` method such as a traced circuit), a hardware profile,
and optional QEC scheme / error budget / constraints, and returns
:class:`PhysicalResourceEstimates` with all eight output groups of the
tool. It composes the explicit stages of :mod:`repro.estimator.stages`.

Sweeps go through :func:`estimate_batch` (:mod:`repro.estimator.batch`):
one engine with cross-point memoization (traced counts, T-factory
designs, code-distance lookups) and optional process fan-out that serves
:func:`estimate_frontier`, the figure runners, and the CLI alike.
Declarative, resumable sweeps — axes over registry names, numeric
ranges, or inline spec fragments, executed in store-backed chunks with
per-group Pareto frontiers — live in :mod:`repro.estimator.sweep`
(:class:`SweepSpec` / :func:`run_sweep`).
"""

from .._exports import lazy_exports

#: Public names by defining submodule, imported on first access.
_EXPORTS = {
    "batch": (
        "BACKEND_CHOICES",
        "BatchOutcome",
        "EstimateCache",
        "EstimateRequest",
        "estimate_batch",
    ),
    "constraints": ("Constraints",),
    "frontier": ("Frontier", "FrontierPoint", "estimate_frontier"),
    "optimize": (
        "OptimizeConstraints",
        "OptimizeProbe",
        "OptimizeProgress",
        "OptimizeResult",
        "OptimizeSpec",
        "reduce_answer",
        "run_optimize",
    ),
    "pipeline": ("estimate",),
    "queue": ("Lease", "QueueJob", "SweepQueue", "WorkerReport", "run_worker"),
    "result": (
        "PhysicalCounts",
        "PhysicalResourceEstimates",
        "ResourceBreakdown",
        "TFactoryUsage",
    ),
    "spec": ("EstimateSpec", "ProgramRef", "SpecOutcome", "run_specs"),
    "stages": (
        "EstimationContext",
        "EstimationError",
        "FixedPointSolution",
        "solve_code_distance_fixed_point",
    ),
    "store": ("ResultStore",),
    "sweep": (
        "FrontierGroup",
        "FrontierSpec",
        "SweepAxis",
        "SweepPointOutcome",
        "SweepProgress",
        "SweepResult",
        "SweepSpec",
        "run_sweep",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
