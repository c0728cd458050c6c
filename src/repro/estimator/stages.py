"""The estimation pipeline as explicit, individually testable stages.

The paper's algorithm (Sec. III-A through III-E) decomposes into stages
that :func:`repro.estimator.estimate` composes:

A. *Input resolution* — :func:`build_context` resolves the program into
   :class:`~repro.counts.LogicalCounts`, fills in the default QEC scheme /
   budget / constraints, and checks scheme/technology compatibility.
B. *Budget partition and layout* — :func:`stage_budget_and_layout` splits
   the error budget and applies the planar-ISA layout model.
C+D. *Code distance and T factories* — :func:`stage_design_factory` picks
   the cheapest factory for the distillation budget, and
   :func:`solve_code_distance_fixed_point` iterates the depth-stretch /
   code-distance fixed point (slowing the program to fit factories changes
   the cycle count, which changes the required per-cycle error rate and
   possibly the distance).
E. *Assembly* — :func:`stage_assemble` combines everything into
   :class:`~repro.estimator.result.PhysicalResourceEstimates` and enforces
   the duration/footprint constraints.

Every stage is a pure function of its inputs, so cross-point work can be
memoized: the batch engine (:mod:`repro.estimator.batch`) passes an
:class:`~repro.estimator.batch.EstimateCache` whose exact-key memos make
sweeps reuse traced counts, factory designs, and code-distance lookups
without changing any single result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..budget import ErrorBudget, ErrorBudgetPartition
from ..counts import LogicalCounts
from ..distillation import TFactory, TFactoryDesigner, TFactoryError
from ..distillation.search import DEFAULT_DESIGNER
from ..layout import AlgorithmicLogicalResources, layout_resources
from ..qec import LogicalQubit, QECScheme, default_scheme_for
from ..qubits import PhysicalQubitParams
from ..synthesis import RotationSynthesis
from .constraints import Constraints
from .result import (
    PhysicalCounts,
    PhysicalResourceEstimates,
    ResourceBreakdown,
    TFactoryUsage,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .batch import EstimateCache

ASSUMPTIONS: tuple[str, ...] = (
    "Logical qubits are laid out on a 2D nearest-neighbor grid with "
    "interleaved auxiliary rows for multi-qubit Pauli measurements "
    "(Q_alg = 2Q + ceil(sqrt(8Q)) + 1); program connectivity is not analyzed.",
    "Logical error rate per qubit per cycle follows "
    "a * (p / p_threshold)^((d+1)/2).",
    "Arbitrary rotations are synthesized into Clifford+T with "
    "ceil(0.53 log2(R/eps) + 5.3) T states per rotation.",
    "Each CCZ/CCiX gate takes 3 logical cycles and consumes 4 T states.",
    "T factories run in parallel with the algorithm and are "
    "over-provisioned per round to absorb distillation failures.",
    "Uniform physical error rates; no correlated noise, leakage, or "
    "qubit loss are modeled.",
)

#: Fixed-point iteration cap; far above what any real input needs (the
#: depth stretch is monotone, so 64 doublings exceed any feasible range).
MAX_FIXED_POINT_ITERATIONS = 64


class EstimationError(RuntimeError):
    """Raised when no feasible estimate exists for the given inputs."""


def resolve_counts(program: object) -> LogicalCounts:
    """Resolve a program into its pre-layout logical counts.

    Accepts, in resolution order:

    * :class:`LogicalCounts` directly (the known-estimates input path);
    * anything exposing ``logical_counts()`` — a traced
      :class:`~repro.ir.Circuit`, a :class:`~repro.ir.CountedCircuit`
      from the streaming backend, a live
      :class:`~repro.ir.CountingBuilder`, a multiplier object;
    * a zero-argument *counts provider* returning either of the above
      (e.g. ``functools.partial(modexp_counting_counts, ...)``), so batch
      sweeps and workers can defer circuit construction entirely.
    """
    if isinstance(program, LogicalCounts):
        return program
    counts_method = getattr(program, "logical_counts", None)
    if callable(counts_method):
        counts = counts_method()
        if isinstance(counts, LogicalCounts):
            return counts
    elif callable(program):
        produced = program()
        if isinstance(produced, LogicalCounts):
            return produced
        counts_method = getattr(produced, "logical_counts", None)
        if callable(counts_method):
            counts = counts_method()
            if isinstance(counts, LogicalCounts):
                return counts
    raise TypeError(
        "program must be LogicalCounts, provide a logical_counts() method, "
        "or be a zero-argument callable returning either; got "
        f"{type(program).__name__}"
    )


@dataclass(frozen=True, eq=False)
class EstimationContext:
    """Fully resolved inputs of one estimation run (stage A output)."""

    counts: LogicalCounts
    qubit: PhysicalQubitParams
    scheme: QECScheme
    budget: ErrorBudget
    constraints: Constraints
    synthesis: RotationSynthesis | None
    factory_designer: TFactoryDesigner


def build_context(
    program: object,
    qubit: PhysicalQubitParams,
    *,
    scheme: QECScheme | None = None,
    budget: ErrorBudget | float = 1e-3,
    constraints: Constraints | None = None,
    synthesis: RotationSynthesis | None = None,
    factory_designer: TFactoryDesigner | None = None,
    counts: LogicalCounts | None = None,
) -> EstimationContext:
    """Stage A: resolve inputs and defaults into an :class:`EstimationContext`.

    ``counts`` short-circuits program resolution when the caller (e.g. the
    batch engine) has already traced the program.
    """
    if counts is None:
        counts = resolve_counts(program)
    scheme = scheme or default_scheme_for(qubit)
    if isinstance(budget, (int, float)):
        budget = ErrorBudget(total=float(budget))
    constraints = constraints or Constraints()
    factory_designer = factory_designer or DEFAULT_DESIGNER

    try:
        scheme.check_compatible(qubit)
    except Exception as exc:  # re-tag for a single caller-facing error type
        raise EstimationError(str(exc)) from exc

    return EstimationContext(
        counts=counts,
        qubit=qubit,
        scheme=scheme,
        budget=budget,
        constraints=constraints,
        synthesis=synthesis,
        factory_designer=factory_designer,
    )


def stage_budget_and_layout(
    ctx: EstimationContext,
) -> tuple[ErrorBudgetPartition, AlgorithmicLogicalResources]:
    """Stage B: partition the error budget and apply the layout model."""
    partition = ctx.budget.partition(
        has_rotations=ctx.counts.rotation_count > 0,
        has_t_states=ctx.counts.non_clifford_count > 0,
    )
    alg = layout_resources(ctx.counts, partition.rotations, ctx.synthesis)
    return partition, alg


def stage_design_factory(
    ctx: EstimationContext,
    partition: ErrorBudgetPartition,
    num_t_states: int,
    cache: "EstimateCache | None" = None,
) -> TFactory | None:
    """Stage D (design): the cheapest factory meeting the T-state budget.

    Factory design is independent of the code distance choice, so it runs
    once before the C<->D fixed point. Returns ``None`` for programs that
    consume no T states.
    """
    if num_t_states <= 0:
        return None
    required_t_error = partition.t_states / num_t_states
    try:
        if cache is not None:
            return cache.design_factory(
                ctx.factory_designer, ctx.qubit, ctx.scheme, required_t_error
            )
        return ctx.factory_designer.design(ctx.qubit, ctx.scheme, required_t_error)
    except TFactoryError as exc:
        raise EstimationError(str(exc)) from exc


@dataclass(frozen=True)
class FixedPointSolution:
    """Converged output of the code-distance / depth-stretch fixed point."""

    logical_qubit: LogicalQubit
    depth: int
    runtime_ns: float
    copies: int
    runs_per_copy: int
    total_runs: int
    iterations: int


def solve_code_distance_fixed_point(
    *,
    logical_budget: float,
    logical_qubits: int,
    base_depth: int,
    num_t_states: int,
    factory: TFactory | None,
    max_t_factories: int | None,
    logical_qubit_for_error: Callable[[float], LogicalQubit],
    max_iterations: int = MAX_FIXED_POINT_ITERATIONS,
) -> FixedPointSolution:
    """Stages C+D fixed point: depth stretch <-> code distance.

    Starting from ``base_depth`` (the laid-out depth times any explicit
    slowdown factor), each iteration derives the required per-qubit
    per-cycle logical error rate, looks up the matching code distance via
    ``logical_qubit_for_error``, and checks whether the T factories fit:

    * if the algorithm finishes before one distillation run completes, the
      program is stretched so at least one run fits;
    * if ``max_t_factories`` caps the parallel copies below what the
      current depth needs, the program is stretched so the capped copies
      still deliver every T state in time.

    Both stretches lengthen the runtime, which loosens the per-cycle error
    requirement, which may lower the distance — hence the iteration. The
    depth only ever grows, so the process converges; ``max_iterations``
    guards against pathological inputs and raises
    :class:`EstimationError` when exhausted.

    The routine is independent of the rest of the pipeline: tests drive it
    directly with synthetic factories and lookup functions.
    """
    depth = base_depth
    for iteration in range(max_iterations):
        required_logical_error = logical_budget / (logical_qubits * depth)
        try:
            logical_qubit = logical_qubit_for_error(required_logical_error)
        except Exception as exc:
            raise EstimationError(str(exc)) from exc
        cycle_ns = logical_qubit.cycle_time_ns
        runtime_ns = depth * cycle_ns

        if factory is None:
            return FixedPointSolution(
                logical_qubit=logical_qubit,
                depth=depth,
                runtime_ns=runtime_ns,
                copies=0,
                runs_per_copy=0,
                total_runs=0,
                iterations=iteration + 1,
            )

        total_runs = factory.runs_required(num_t_states)
        runs_per_copy = int(runtime_ns // factory.duration_ns)
        if runs_per_copy == 0:
            # Algorithm finishes before one distillation completes: stretch
            # the program so at least one factory run fits.
            depth = math.ceil(factory.duration_ns / cycle_ns)
            continue
        copies = math.ceil(total_runs / runs_per_copy)
        if max_t_factories is not None and copies > max_t_factories:
            copies = max_t_factories
            needed_runs_per_copy = math.ceil(total_runs / copies)
            needed_depth = math.ceil(
                needed_runs_per_copy * factory.duration_ns / cycle_ns
            )
            if needed_depth > depth:
                depth = needed_depth
                continue
        return FixedPointSolution(
            logical_qubit=logical_qubit,
            depth=depth,
            runtime_ns=runtime_ns,
            copies=copies,
            runs_per_copy=runs_per_copy,
            total_runs=total_runs,
            iterations=iteration + 1,
        )
    raise EstimationError(
        "estimation did not converge: T-factory constraints and code "
        "distance selection kept invalidating each other"
    )


def stage_fixed_point(
    ctx: EstimationContext,
    partition: ErrorBudgetPartition,
    alg: AlgorithmicLogicalResources,
    factory: TFactory | None,
    cache: "EstimateCache | None" = None,
) -> FixedPointSolution:
    """Run the C+D fixed point over the context's scheme/qubit pair."""
    if cache is not None:
        scheme, qubit = ctx.scheme, ctx.qubit

        def lookup(required_error: float) -> LogicalQubit:
            return cache.logical_qubit(scheme, qubit, required_error)

    else:

        def lookup(required_error: float) -> LogicalQubit:
            return LogicalQubit.for_target_error_rate(
                ctx.scheme, ctx.qubit, required_error
            )

    base_depth = math.ceil(alg.logical_depth * ctx.constraints.logical_depth_factor)
    return solve_code_distance_fixed_point(
        logical_budget=partition.logical,
        logical_qubits=alg.logical_qubits,
        base_depth=base_depth,
        num_t_states=alg.t_states,
        factory=factory,
        max_t_factories=ctx.constraints.max_t_factories,
        logical_qubit_for_error=lookup,
    )


def stage_assemble(
    ctx: EstimationContext,
    partition: ErrorBudgetPartition,
    alg: AlgorithmicLogicalResources,
    factory: TFactory | None,
    solution: FixedPointSolution,
) -> PhysicalResourceEstimates:
    """Stage E: combine stage outputs, enforce resource constraints."""
    logical_qubit = solution.logical_qubit
    depth = solution.depth
    runtime_ns = solution.runtime_ns
    num_t_states = alg.t_states

    physical_per_logical = logical_qubit.physical_qubits
    qubits_algorithm = alg.logical_qubits * physical_per_logical
    qubits_factories = solution.copies * factory.physical_qubits if factory else 0
    total_qubits = qubits_algorithm + qubits_factories
    rqops = alg.logical_qubits * logical_qubit.logical_cycles_per_second

    constraints = ctx.constraints
    if constraints.max_duration_ns is not None and runtime_ns > constraints.max_duration_ns:
        raise EstimationError(
            f"estimated runtime {runtime_ns:.3g} ns exceeds the constraint "
            f"{constraints.max_duration_ns:.3g} ns"
        )
    if (
        constraints.max_physical_qubits is not None
        and total_qubits > constraints.max_physical_qubits
    ):
        raise EstimationError(
            f"estimated {total_qubits} physical qubits exceed the constraint "
            f"{constraints.max_physical_qubits}"
        )

    t_factory_usage = None
    if factory is not None:
        t_factory_usage = TFactoryUsage(
            factory=factory,
            copies=solution.copies,
            total_runs=solution.total_runs,
            runs_per_copy=solution.runs_per_copy,
            physical_qubits=qubits_factories,
            required_output_error_rate=partition.t_states / num_t_states,
        )

    return PhysicalResourceEstimates(
        physical_counts=PhysicalCounts(
            physical_qubits=total_qubits, runtime_ns=runtime_ns, rqops=rqops
        ),
        breakdown=ResourceBreakdown(
            algorithmic_logical_qubits=alg.logical_qubits,
            algorithmic_logical_depth=alg.logical_depth,
            logical_depth=depth,
            num_t_states=num_t_states,
            clock_frequency_hz=logical_qubit.logical_cycles_per_second,
            physical_qubits_for_algorithm=qubits_algorithm,
            physical_qubits_for_t_factories=qubits_factories,
            required_logical_error_rate=partition.logical
            / (alg.logical_qubits * depth),
        ),
        logical_qubit=logical_qubit,
        t_factory=t_factory_usage,
        algorithmic_resources=alg,
        error_budget=partition,
        qubit_params=ctx.qubit,
        assumptions=ASSUMPTIONS,
    )


def run_pipeline(
    ctx: EstimationContext, cache: "EstimateCache | None" = None
) -> PhysicalResourceEstimates:
    """Run stages B through E over a resolved context."""
    partition, alg = stage_budget_and_layout(ctx)
    factory = stage_design_factory(ctx, partition, alg.t_states, cache)
    solution = stage_fixed_point(ctx, partition, alg, factory, cache)
    return stage_assemble(ctx, partition, alg, factory, solution)
