"""Vectorized struct-of-arrays batch kernel for dense sweeps.

The staged pipeline (:mod:`repro.estimator.stages`) walks one point at a
time through scalar Python arithmetic. Dense sweeps — thousands of
near-identical points over (profile x scheme x budget x size) grids —
spend almost all of that time on work that is either identical across
points or expressible as one array operation:

* **Code-distance selection** (stage C): the logical error rate
  ``a (p/p*)^((d+1)/2)`` is monotone decreasing in the distance, so the
  required-error -> distance lookup collapses into one
  :func:`numpy.searchsorted` against a per-(scheme, qubit) table of
  scalar-computed rates (:meth:`QECScheme.distance_table`). Derived
  per-distance attributes (cycle time, footprint) are tabulated once per
  batch instead of re-evaluating the scheme formulas per point.
* **T-factory design** (stage D): the designer's per-(qubit, scheme)
  catalog carries a staircase — the entries, in the scalar preference
  order ``(physical_qubits, duration_ns, enumeration index)``, whose
  output error undercuts every earlier one — so "first feasible
  candidate in preference order", the factory
  :meth:`TFactoryDesigner.design` returns, is one ``searchsorted`` over
  the same table the scalar bisection reads.
* **The C<->D fixed point** (the genuinely iterative part): each sweep of
  the loop runs as array ops over the *not-yet-converged* subset (masked
  convergence). The depth only ever grows, so points leave the active set
  monotonically; most converge within one or two iterations.

Bit-for-bit equality with the scalar path is the invariant, not a
best-effort goal. Everything here sticks to IEEE-754 basic operations
(add, subtract, multiply, divide, compare, ``sqrt``, ``fmod``, ``floor``,
``ceil``), which NumPy and CPython evaluate identically; transcendental
steps (``log2`` in rotation synthesis, ``pow`` in the error model, the
formula-driven cycle times) are computed by the *scalar* code once per
unique input and broadcast. Python's exact big-int semantics are
preserved by magnitude guards: any point whose intermediate quantities
could leave the 2**53 exact-float range is routed to the scalar path.
The same per-point fallback covers every input the kernel does not model
(physical error rates at/above threshold, infeasible distances or
factories — whose error messages come from the scalar code and must
match verbatim), so a batch evaluated through this kernel can never fail
where the scalar engine succeeded.

This is the only module in the package that imports :mod:`numpy`;
callers reach it only through ``estimate_batch(...,
backend="vectorized")``, which raises when numpy is unavailable. The
default ``backend="auto"`` never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..budget import ErrorBudgetPartition
from ..counts import LogicalCounts
from ..layout import AlgorithmicLogicalResources, logical_qubits_after_layout
from ..qec import LogicalQubit, QECScheme
from ..qubits import PhysicalQubitParams
from ..synthesis import RotationSynthesis
from .batch import BatchOutcome, EstimateCache, EstimateRequest, _run_request
from .result import (
    PhysicalCounts,
    PhysicalResourceEstimates,
    ResourceBreakdown,
    TFactoryUsage,
)
from .stages import (
    ASSUMPTIONS,
    MAX_FIXED_POINT_ITERATIONS,
    EstimationContext,
    EstimationError,
    build_context,
)

__all__ = ["run_batch_vectorized"]

#: Smallest integer magnitude at which int -> float64 conversion can
#: round. Points whose integer quantities could reach this leave
#: IEEE-exact territory and take the scalar path, which computes them
#: with Python's arbitrary-precision ints.
_EXACT_INT_LIMIT = 2**53

#: The scalar fixed point's non-convergence message, verbatim (it is a
#: constant in stages.py, so no scalar replay is needed to reproduce it).
_NON_CONVERGED = (
    "estimation did not converge: T-factory constraints and code "
    "distance selection kept invalidating each other"
)


@dataclass(eq=False)
class _Point:
    """Scalar per-point state carried from prep into assembly."""

    index: int  # position in the original request list
    ctx: EstimationContext
    partition: ErrorBudgetPartition
    counts: LogicalCounts
    logical_qubits: int
    logical_depth: int  # laid-out depth, before any stretching
    t_states: int
    t_rot: int
    base_depth: int


@dataclass(eq=False)
class _Group:
    """All prepped points sharing one (scheme, qubit) value pair."""

    scheme: QECScheme
    qubit: PhysicalQubitParams
    points: list[_Point]


def run_batch_vectorized(
    requests: "list[EstimateRequest]", cache: EstimateCache
) -> list[BatchOutcome]:
    """Evaluate a batch through the struct-of-arrays kernel.

    Outcomes are bit-for-bit identical to ``[_run_request(r, cache) for r
    in requests]`` — including the error messages of infeasible points,
    which (like every kernel-unsupported point) come from running the
    scalar path on exactly those points, and including the request-order
    propagation of input-validation errors (``ValueError``/``TypeError``),
    which the prep loop below raises at the same request the serial scalar
    walk would have reached first.
    """
    outcomes: list[BatchOutcome | None] = [None] * len(requests)
    fallback: list[int] = []
    groups: dict[tuple[QECScheme, PhysicalQubitParams], _Group] = {}

    # -- prep: scalar per-point stages A+B (cheap, exact) -----------------
    # Rotation-synthesis T counts involve log2, so they are computed by
    # the scalar model once per unique (model, rotations, budget) input
    # and broadcast.
    t_rot_memo: dict[tuple, int] = {}
    for index, request in enumerate(requests):
        counts = cache.resolve_counts(request.program, key=request.program_key)
        try:
            ctx = build_context(
                request.program,
                request.qubit,
                scheme=request.scheme,
                budget=request.budget,
                constraints=request.constraints,
                synthesis=request.synthesis,
                factory_designer=cache.designer,
                counts=counts,
            )
        except EstimationError as exc:
            outcomes[index] = BatchOutcome(
                request=request, result=None, error=str(exc)
            )
            continue
        partition = ctx.budget.partition(
            has_rotations=counts.rotation_count > 0,
            has_t_states=counts.non_clifford_count > 0,
        )
        synthesis = ctx.synthesis or RotationSynthesis()
        memo_key = (synthesis, counts.rotation_count, partition.rotations)
        t_rot = t_rot_memo.get(memo_key)
        if t_rot is None:
            # A ValueError (rotations without a rotations budget) raises
            # out of the batch here, exactly like the scalar engine.
            t_rot = synthesis.t_states_per_rotation(
                counts.rotation_count, partition.rotations
            )
            t_rot_memo[memo_key] = t_rot
        # layout_resources validates the qubit count after the synthesis
        # model runs; preserve that error order.
        logical_qubits = logical_qubits_after_layout(counts.num_qubits)

        # Depth/T-state sums stay Python ints: the scalar path computes
        # them with arbitrary precision, which float64 (or int64) columns
        # cannot match past 2**53. They are per-point O(1) either way.
        depth = (
            counts.measurement_count
            + counts.rotation_count
            + counts.t_count
            + 3 * (counts.ccz_count + counts.ccix_count)
            + t_rot * counts.rotation_depth
        )
        t_states = (
            counts.t_count
            + 4 * (counts.ccz_count + counts.ccix_count)
            + t_rot * counts.rotation_count
        )
        if depth == 0:
            depth = 1
        base_depth = math.ceil(depth * ctx.constraints.logical_depth_factor)
        if (
            base_depth >= _EXACT_INT_LIMIT
            or t_states >= _EXACT_INT_LIMIT
            or logical_qubits * base_depth >= _EXACT_INT_LIMIT
        ):
            fallback.append(index)
            continue
        point = _Point(
            index=index,
            ctx=ctx,
            partition=partition,
            counts=counts,
            logical_qubits=logical_qubits,
            logical_depth=depth,
            t_states=t_states,
            t_rot=t_rot,
            base_depth=base_depth,
        )
        key = (ctx.scheme, ctx.qubit)
        group = groups.get(key)
        if group is None:
            group = groups[key] = _Group(
                scheme=ctx.scheme, qubit=ctx.qubit, points=[]
            )
        group.points.append(point)

    # -- per-(scheme, qubit) array stages ---------------------------------
    for group in groups.values():
        fallback.extend(_run_group(group, requests, outcomes))

    # -- scalar fallback, in request order --------------------------------
    for index in sorted(fallback):
        outcomes[index] = _run_request(requests[index], cache)
    cache.record_kernel_points(
        vectorized=len(requests) - len(fallback), fallback=len(fallback)
    )
    return outcomes  # type: ignore[return-value]


def _run_group(
    group: _Group,
    requests: "list[EstimateRequest]",
    outcomes: "list[BatchOutcome | None]",
) -> list[int]:
    """Run one (scheme, qubit) group; returns request indices that need
    the scalar fallback instead of a kernel outcome."""
    scheme, qubit, points = group.scheme, group.qubit, group.points
    n = len(points)

    # Distance table: scalar-computed logical error rates per supported
    # odd distance. The searchsorted selection below needs the rates to be
    # monotone non-increasing — mathematically guaranteed below threshold
    # (the ratio is < 1), and verified here so any pathological formula
    # degrades to the scalar path instead of to a wrong distance.
    if qubit.clifford_error_rate >= scheme.error_correction_threshold:
        return [p.index for p in points]  # scalar raises per point
    table = scheme.distance_table(qubit)
    distances = [d for d, _ in table]
    rates = [rate for _, rate in table]
    if any(a < b for a, b in zip(rates, rates[1:])):
        return [p.index for p in points]
    neg_rates = np.array([-rate for rate in rates])  # non-decreasing
    cycle_tab = np.array([scheme.cycle_time_ns(qubit, d) for d in distances])
    ppl_tab = [scheme.physical_qubits(qubit, d) for d in distances]

    # Factory selection reads the designer's staircase: catalog entries
    # in preference order (physical_qubits, duration_ns, enumeration
    # index) whose output error undercuts every earlier one. "First
    # feasible candidate in preference order" is then one searchsorted
    # over the increasing negated errors, the same bisection
    # TFactoryDesigner.design performs. The scanned durations and output
    # T states build no factory: only the entries points select are
    # built, at assembly.
    catalog = group.points[0].ctx.factory_designer._catalog(qubit, scheme)
    staircase = catalog.staircase
    neg_errors = np.array(catalog.neg_errors, dtype=float)
    scanned = staircase.scanned()
    dur_sorted = np.array([float(duration) for _, duration, _ in scanned])
    out_sorted = np.array([float(out_ts) for _, _, out_ts in scanned])

    # Struct-of-arrays columns over the group's points (stage B). All
    # integer-valued columns are exact: prep guarded their magnitudes.
    nq = np.array([float(p.counts.num_qubits) for p in points])
    # Layout formula 2Q + ceil(sqrt(8Q)) + 1: sqrt is correctly rounded in
    # both numpy and math, so this matches the scalar integers exactly.
    q_col = 2.0 * nq + np.ceil(np.sqrt(8.0 * nq)) + 1.0
    logical_budget = np.array([p.partition.logical for p in points])
    t_budget = np.array([p.partition.t_states for p in points])
    nts = np.array([float(p.t_states) for p in points])
    depth = np.array([float(p.base_depth) for p in points])
    cap = np.array(
        [
            float(p.ctx.constraints.max_t_factories)
            if p.ctx.constraints.max_t_factories is not None
            else math.inf
            for p in points
        ]
    )

    alive = np.ones(n, dtype=bool)  # still owned by the kernel
    active = np.ones(n, dtype=bool)  # alive and not yet converged
    deferred: list[int] = []

    def defer(indices: np.ndarray) -> None:
        """Send the given group-local points to the scalar path."""
        for i in indices:
            deferred.append(points[i].index)
        alive[indices] = False
        active[indices] = False

    # Stage D (design): one factory per T-consuming point, chosen before
    # the fixed point (the design is independent of the code distance).
    has_factory = nts > 0.0
    req_t_err = np.zeros(n)
    np.divide(t_budget, nts, out=req_t_err, where=has_factory)
    fac_pos = np.zeros(n, dtype=np.intp)
    total_runs = np.zeros(n)
    fidx = np.nonzero(has_factory)[0]
    if fidx.size:
        # The scalar designer raises for a non-positive requirement (an
        # explicit partition can starve T states); replay those there.
        bad = req_t_err[fidx] <= 0.0
        defer(fidx[bad])
        fidx = fidx[~bad]
    if fidx.size:
        pos = np.searchsorted(neg_errors, -req_t_err[fidx], side="left")
        infeasible = pos >= len(staircase)  # scalar raises the exact message
        defer(fidx[infeasible])
        fidx, pos = fidx[~infeasible], pos[~infeasible]
        fac_pos[fidx] = pos
        # runs_required: a ceil of an exact division (every operand is an
        # exact integer-valued float under the 2**53 prep guard).
        total_runs[fidx] = np.ceil(nts[fidx] / out_sorted[pos])

    # Stages C+D fixed point with masked convergence. One pass of this
    # loop performs exactly one scalar iteration for every active point.
    out_didx = np.zeros(n, dtype=np.intp)
    out_runtime = np.zeros(n)
    out_rpc = np.zeros(n)
    out_copies = np.zeros(n)
    for _ in range(MAX_FIXED_POINT_ITERATIONS):
        act = np.nonzero(active)[0]
        if not act.size:
            break
        qd = q_col[act] * depth[act]
        # Stretched depths are exact floats (they come from float ceils),
        # but route anything at 2**53 to the scalar big-int path anyway.
        big = qd >= float(_EXACT_INT_LIMIT)
        if big.any():
            defer(act[big])
            act, qd = act[~big], qd[~big]
            if not act.size:
                break
        required_error = logical_budget[act] / qd
        didx = np.searchsorted(neg_rates, -required_error, side="left")
        over = didx >= len(distances)
        if over.any():
            defer(act[over])  # scalar raises the exact distance message
            act, didx = act[~over], didx[~over]
            if not act.size:
                break
        cyc = cycle_tab[didx]
        runtime = depth[act] * cyc

        fmask = has_factory[act]
        # Points without a factory converge on their first pass.
        nof = act[~fmask]
        out_didx[nof] = didx[~fmask]
        out_runtime[nof] = runtime[~fmask]
        active[nof] = False

        fa = act[fmask]  # group-local indices of active factory points
        if not fa.size:
            continue
        cyc_f = cyc[fmask]
        runtime_f = runtime[fmask]
        didx_f = didx[fmask]
        dur = dur_sorted[fac_pos[fa]]
        # CPython's float floor-division, replicated op for op (operands
        # are positive): fmod, exact subtraction, divide, floor, and the
        # half-ulp correction float_divmod applies.
        mod = np.fmod(runtime_f, dur)
        div = (runtime_f - mod) / dur
        rpc = np.floor(div)
        rpc += (div - rpc) > 0.5
        # Stretch 1: algorithm finishes before one distillation run does.
        zero = rpc == 0.0
        depth[fa[zero]] = np.ceil(dur[zero] / cyc_f[zero])
        fit = ~zero
        fg = fa[fit]
        if not fg.size:
            continue
        rpc_fit = rpc[fit]
        copies = np.ceil(total_runs[fg] / rpc_fit)
        capped = copies > cap[fg]
        grow = np.zeros(fg.size, dtype=bool)
        if capped.any():
            cg = fg[capped]
            needed_rpc = np.ceil(total_runs[cg] / cap[cg])
            needed_depth = np.ceil(
                needed_rpc * dur_sorted[fac_pos[cg]] / cyc_f[fit][capped]
            )
            # Stretch 2: the capped copies need a longer runtime. A capped
            # point that already fits converges with copies == cap but
            # keeps this iteration's (uncapped) runs_per_copy, exactly as
            # the scalar solver returns it.
            g = needed_depth > depth[cg]
            depth[cg[g]] = needed_depth[g]
            grow[capped] = g
            copies[capped] = cap[fg][capped]
        done = ~grow
        dg = fg[done]
        out_didx[dg] = didx_f[fit][done]
        out_runtime[dg] = runtime_f[fit][done]
        out_rpc[dg] = rpc_fit[done]
        out_copies[dg] = copies[done]
        active[dg] = False
    else:
        # Iteration cap exhausted with points still active: the scalar
        # solver raises a constant message, captured per point.
        for i in np.nonzero(active)[0]:
            outcomes[points[i].index] = BatchOutcome(
                request=requests[points[i].index],
                result=None,
                error=_NON_CONVERGED,
            )
            alive[i] = False
            active[i] = False

    # -- stage E: assembly (plain Python, one object graph per point) -----
    lq_memo: dict[int, LogicalQubit] = {}
    for i in np.nonzero(alive & ~active)[0]:
        point = points[i]
        outcomes[point.index] = _assemble(
            point,
            requests[point.index],
            scheme,
            qubit,
            distance=distances[out_didx[i]],
            cycle_ns=float(cycle_tab[out_didx[i]]),
            physical_per_logical=ppl_tab[out_didx[i]],
            depth=int(depth[i]),
            runtime_ns=float(out_runtime[i]),
            factory=staircase[fac_pos[i]] if has_factory[i] else None,
            copies=int(out_copies[i]),
            runs_per_copy=int(out_rpc[i]),
            total_runs=int(total_runs[i]),
            required_t_error=float(req_t_err[i]),
            lq_memo=lq_memo,
        )
    return deferred


def _assemble(
    point: _Point,
    request: EstimateRequest,
    scheme: QECScheme,
    qubit: PhysicalQubitParams,
    *,
    distance: int,
    cycle_ns: float,
    physical_per_logical: int,
    depth: int,
    runtime_ns: float,
    factory,
    copies: int,
    runs_per_copy: int,
    total_runs: int,
    required_t_error: float,
    lq_memo: dict[int, LogicalQubit],
) -> BatchOutcome:
    """Stage E for one point — the same object graph stage_assemble builds.

    Every numpy scalar is converted back to a Python int/float before it
    reaches a result object (np.int64 is not an ``int`` subclass, which
    would break JSON serialization and equality with scalar results).
    """
    partition = point.partition
    alg = AlgorithmicLogicalResources(
        logical_qubits=point.logical_qubits,
        logical_depth=point.logical_depth,
        t_states=point.t_states,
        t_states_per_rotation=point.t_rot,
        pre_layout=point.counts,
    )
    logical_qubit = lq_memo.get(distance)
    if logical_qubit is None:
        logical_qubit = lq_memo[distance] = LogicalQubit(
            scheme=scheme, qubit=qubit, code_distance=distance
        )

    qubits_algorithm = alg.logical_qubits * physical_per_logical
    qubits_factories = copies * factory.physical_qubits if factory else 0
    total_qubits = qubits_algorithm + qubits_factories
    cycles_per_second = 1e9 / cycle_ns
    rqops = alg.logical_qubits * cycles_per_second

    constraints = point.ctx.constraints
    if (
        constraints.max_duration_ns is not None
        and runtime_ns > constraints.max_duration_ns
    ):
        return BatchOutcome(
            request=request,
            result=None,
            error=(
                f"estimated runtime {runtime_ns:.3g} ns exceeds the constraint "
                f"{constraints.max_duration_ns:.3g} ns"
            ),
        )
    if (
        constraints.max_physical_qubits is not None
        and total_qubits > constraints.max_physical_qubits
    ):
        return BatchOutcome(
            request=request,
            result=None,
            error=(
                f"estimated {total_qubits} physical qubits exceed the constraint "
                f"{constraints.max_physical_qubits}"
            ),
        )

    t_factory_usage = None
    if factory is not None:
        t_factory_usage = TFactoryUsage(
            factory=factory,
            copies=copies,
            total_runs=total_runs,
            runs_per_copy=runs_per_copy,
            physical_qubits=qubits_factories,
            required_output_error_rate=required_t_error,
        )

    result = PhysicalResourceEstimates(
        physical_counts=PhysicalCounts(
            physical_qubits=total_qubits, runtime_ns=runtime_ns, rqops=rqops
        ),
        breakdown=ResourceBreakdown(
            algorithmic_logical_qubits=alg.logical_qubits,
            algorithmic_logical_depth=alg.logical_depth,
            logical_depth=depth,
            num_t_states=alg.t_states,
            clock_frequency_hz=cycles_per_second,
            physical_qubits_for_algorithm=qubits_algorithm,
            physical_qubits_for_t_factories=qubits_factories,
            # Exact big-int product, as in the scalar stage (guarded to
            # stay below 2**53, so the float division matches too).
            required_logical_error_rate=partition.logical
            / (alg.logical_qubits * depth),
        ),
        logical_qubit=logical_qubit,
        t_factory=t_factory_usage,
        algorithmic_resources=alg,
        error_budget=partition,
        qubit_params=qubit,
        assumptions=ASSUMPTIONS,
    )
    return BatchOutcome(request=request, result=result, error=None)
