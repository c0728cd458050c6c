"""Shared machinery for the experiment drivers.

All figure sweeps funnel through :func:`run_estimate_rows`, which frames
the (algorithm, bits, profile) points as a zip-mode
:class:`~repro.estimator.sweep.SweepSpec` and evaluates it with
:func:`~repro.estimator.sweep.run_sweep` — the same declarative path as
the ``repro sweep`` CLI and the estimation service's async sweep jobs.
Program references resolve through the open program layer
(:mod:`repro.programs`), so figure multipliers share the registry
dispatch — and, with a ``store``, the persistent counts cache — with
every other workload kind.
Cross-point work is memoized by the batch engine's
:class:`~repro.estimator.batch.EstimateCache` (traced counts, T-factory
designs, code-distance lookups), ``max_workers`` fans points out over
worker processes (programs travel as picklable factories, so circuit
construction and tracing parallelize too), and an optional persistent
``store`` makes figure runs resumable: every completed chunk is
persisted, so a killed reproduction picks up where it stopped and a warm
fig3/fig4 re-run takes milliseconds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from ..estimator import EstimationError, PhysicalResourceEstimates
from ..estimator.batch import EstimateRequest
from ..estimator.engine import ExecutionPolicy
from ..estimator.spec import EstimateSpec, ProgramRef
from ..estimator.sweep import SweepAxis, SweepSpec, run_sweep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..estimator.store import ResultStore
    from ..registry import Registry

#: The three algorithms compared by the paper, in its plotting order.
ALGORITHMS = ("schoolbook", "karatsuba", "windowed")

#: Total error budget used throughout the paper's evaluation (Sec. V).
PAPER_ERROR_BUDGET = 1e-4


@dataclass(frozen=True)
class EstimateRow:
    """One point of a figure: an algorithm/size/profile combination."""

    algorithm: str
    bits: int
    profile: str
    physical_qubits: int
    runtime_seconds: float
    code_distance: int
    logical_qubits: int
    logical_depth: int
    num_t_states: int
    t_factory_copies: int
    rqops: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "bits": self.bits,
            "profile": self.profile,
            "physicalQubits": self.physical_qubits,
            "runtime_s": self.runtime_seconds,
            "codeDistance": self.code_distance,
            "logicalQubits": self.logical_qubits,
            "logicalDepth": self.logical_depth,
            "numTStates": self.num_t_states,
            "tFactoryCopies": self.t_factory_copies,
            "rqops": self.rqops,
        }


def multiplier_spec(
    algorithm: str,
    bits: int,
    profile: str,
    *,
    budget: float,
    backend: str = "formula",
) -> EstimateSpec:
    """The declarative spec for one (algorithm, bits, profile) figure point.

    ``backend`` picks how counts resolve: closed-form tallies
    (``formula``, the default), a materialized trace (``materialize``),
    or the streaming counting builder (``counting``); all three agree
    bit-for-bit, so they share one content hash in the result store.
    """
    return EstimateSpec(
        program=ProgramRef(kind="multiplier", algorithm=algorithm, bits=bits),
        qubit=profile,
        budget=budget,
        backend=backend,
        label=f"{algorithm}/{bits}/{profile}",
    )


def multiplier_request(
    algorithm: str,
    bits: int,
    profile: str,
    *,
    budget: float,
    backend: str = "formula",
) -> EstimateRequest:
    """The resolved batch request for one figure point.

    Kept for callers driving :func:`estimate_batch` directly; the figure
    runners go through :func:`multiplier_spec` + :func:`run_specs`.
    """
    return multiplier_spec(
        algorithm, bits, profile, budget=budget, backend=backend
    ).to_request()


def row_from_result(
    algorithm: str, bits: int, profile: str, result: PhysicalResourceEstimates
) -> EstimateRow:
    return EstimateRow(
        algorithm=algorithm,
        bits=bits,
        profile=profile,
        physical_qubits=result.physical_qubits,
        runtime_seconds=result.runtime_seconds,
        code_distance=result.code_distance,
        logical_qubits=result.logical_qubits,
        logical_depth=result.breakdown.logical_depth,
        num_t_states=result.breakdown.num_t_states,
        t_factory_copies=result.t_factory.copies if result.t_factory else 0,
        rqops=result.rqops,
    )


def run_estimate_rows(
    points: Sequence[tuple[str, int, str]],
    *,
    budget: float = PAPER_ERROR_BUDGET,
    max_workers: int | None = 1,
    backend: str = "formula",
    store: "ResultStore | None" = None,
    registry: "Registry | None" = None,
) -> list[EstimateRow]:
    """Estimate ``(algorithm, bits, profile)`` points via the spec layer.

    Matches the paper's setup: surface code for gate-based profiles,
    floquet code for Majorana profiles, default T-factory search. Rows
    come back in input order; an infeasible point raises
    :class:`EstimationError` (figure grids are expected to be feasible).

    ``max_workers=1`` runs serially (with shared sweep caches); ``None``
    or ``> 1`` fans out over a process pool with serial fallback.
    ``backend`` picks how pre-layout counts are resolved (``formula`` /
    ``materialize`` / ``counting``); results are identical, cost is not.
    ``store`` layers the persistent result store under the run: points
    whose spec hash is already stored answer from disk (a warm full
    figure reproduces in milliseconds), fresh results are persisted chunk
    by chunk, and an interrupted figure run resumes from its completed
    chunks.
    """
    if not points:
        return []
    sweep = SweepSpec(
        base={"budget": budget, "backend": backend},
        axes=(
            SweepAxis(
                "program.multiplier.algorithm",
                tuple(algorithm for algorithm, _, _ in points),
            ),
            SweepAxis(
                "program.multiplier.bits", tuple(int(bits) for _, bits, _ in points)
            ),
            SweepAxis("qubit", tuple(profile for _, _, profile in points)),
        ),
        mode="zip",
    )
    workers = max_workers if max_workers is not None else os.cpu_count() or 1
    result = run_sweep(
        sweep,
        registry=registry,
        store=store,
        policy=ExecutionPolicy(workers=workers),
    )
    rows = []
    for (algorithm, bits, profile), outcome in zip(points, result.points):
        if not outcome.ok:
            raise EstimationError(
                f"figure point ({algorithm}, {bits}, {profile}) failed: "
                f"{outcome.error}"
            )
        rows.append(row_from_result(algorithm, bits, profile, outcome.result))
    return rows


def run_estimate_row(
    algorithm: str,
    bits: int,
    profile: str,
    *,
    budget: float = PAPER_ERROR_BUDGET,
) -> EstimateRow:
    """Estimate one figure point (single-point :func:`run_estimate_rows`)."""
    return run_estimate_rows([(algorithm, bits, profile)], budget=budget)[0]


def format_table(rows: list[EstimateRow]) -> str:
    """Fixed-width table of estimate rows for terminal output."""
    header = (
        f"{'algorithm':<11} {'bits':>6} {'profile':<17} {'phys qubits':>12} "
        f"{'runtime[s]':>11} {'d':>3} {'log qubits':>10} {'rQOPS':>10}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.algorithm:<11} {r.bits:>6} {r.profile:<17} "
            f"{r.physical_qubits:>12,} {r.runtime_seconds:>11.3g} "
            f"{r.code_distance:>3} {r.logical_qubits:>10,} {r.rqops:>10.3g}"
        )
    return "\n".join(lines)
