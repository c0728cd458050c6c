"""Tests for the batch/sweep engine and the surfaces wired on top of it.

Covers the determinism guarantee (serial == parallel == legacy per-point
``estimate()``), cache behavior, per-point failure reporting, and the
frontier's single-pass Pareto filter with skipped-factor diagnostics.
"""

from __future__ import annotations

import pytest

from repro import (
    Constraints,
    LogicalCounts,
    estimate,
    estimate_frontier,
    qubit_params,
)
from repro.arithmetic import multiplier_by_name
from repro.estimator.batch import (
    EstimateCache,
    EstimateRequest,
    estimate_batch,
    request_grid,
)
from repro.estimator.frontier import Frontier, FrontierPoint, pareto_frontier
from repro.experiments.runner import multiplier_request
from repro.qec import FLOQUET_CODE, default_scheme_for

MAJ = qubit_params("qubit_maj_ns_e4")
GATE = qubit_params("qubit_gate_ns_e3")

WORKLOAD = LogicalCounts(
    num_qubits=100, t_count=10**5, ccz_count=10**5, measurement_count=10**4
)

#: A small Fig. 3 grid: 3 algorithms x 2 sizes on the paper's profile.
FIG3_GRID = [
    (algorithm, bits, "qubit_maj_ns_e4")
    for algorithm in ("schoolbook", "karatsuba", "windowed")
    for bits in (32, 64)
]


class TestDeterminism:
    """estimate_batch serial vs parallel vs legacy estimate() agree."""

    @pytest.fixture(scope="class")
    def requests(self):
        return [
            multiplier_request(algorithm, bits, profile, budget=1e-4)
            for algorithm, bits, profile in FIG3_GRID
        ]

    def test_serial_parallel_and_legacy_identical(self, requests):
        serial = estimate_batch(requests, max_workers=1, cache=EstimateCache())
        parallel = estimate_batch(requests, max_workers=2)
        legacy = []
        for algorithm, bits, profile in FIG3_GRID:
            qubit = qubit_params(profile)
            legacy.append(
                estimate(
                    multiplier_by_name(algorithm, bits).logical_counts(),
                    qubit,
                    scheme=default_scheme_for(qubit),
                    budget=1e-4,
                )
            )
        for s, p, l in zip(serial, parallel, legacy):
            assert s.ok and p.ok
            assert s.result.to_dict() == p.result.to_dict() == l.to_dict()

    def test_order_preserved(self, requests):
        outcomes = estimate_batch(requests, max_workers=2)
        assert [o.request.label for o in outcomes] == [
            f"{a}/{b}/{p}" for a, b, p in FIG3_GRID
        ]

    def test_custom_designer_survives_parallel_fanout(self):
        # Regression: a custom designer used to be dropped by the worker
        # processes (they fell back to the shared default), making
        # parallel results diverge from serial ones.
        from repro import TFactoryDesigner

        requests = [
            EstimateRequest(program=WORKLOAD, qubit=MAJ, budget=b)
            for b in (1e-3, 1e-4)
        ]
        restricted = lambda: EstimateCache(designer=TFactoryDesigner(max_rounds=1))
        serial = estimate_batch(requests, max_workers=1, cache=restricted())
        parallel = estimate_batch(requests, max_workers=2, cache=restricted())
        assert [(o.ok, o.error) for o in serial] == [
            (o.ok, o.error) for o in parallel
        ]
        # This workload is infeasible with a single-round designer, so the
        # regression (workers using the default designer) would show up as
        # parallel succeeding where serial fails.
        assert not serial[0].ok


class TestBatchEngine:
    def test_empty_batch(self):
        assert estimate_batch([]) == []

    def test_single_point_matches_estimate(self):
        outcome = estimate_batch(
            [EstimateRequest(program=WORKLOAD, qubit=MAJ, budget=1e-3)]
        )[0]
        assert outcome.ok
        assert outcome.error is None
        assert (
            outcome.result.to_dict() == estimate(WORKLOAD, MAJ, budget=1e-3).to_dict()
        )

    def test_infeasible_point_reported_not_raised(self):
        requests = [
            EstimateRequest(program=WORKLOAD, qubit=MAJ, budget=1e-3),
            EstimateRequest(
                program=WORKLOAD,
                qubit=MAJ,
                budget=1e-3,
                constraints=Constraints(max_physical_qubits=100),
            ),
        ]
        ok, bad = estimate_batch(requests)
        assert ok.ok
        assert not bad.ok
        assert "physical qubits" in bad.error
        with pytest.raises(Exception, match="physical qubits"):
            bad.unwrap()

    def test_bad_program_type_raises_immediately(self):
        with pytest.raises(TypeError, match="logical_counts"):
            estimate_batch(
                [EstimateRequest(program="not a program", qubit=MAJ)]
            )

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            estimate_batch(
                [EstimateRequest(program=WORKLOAD, qubit=MAJ)], max_workers=0
            )

    def test_program_factory_is_evaluated_lazily(self):
        calls = []

        def factory():
            calls.append(1)
            return WORKLOAD

        requests = [
            EstimateRequest(program=factory, qubit=MAJ, program_key="shared"),
            EstimateRequest(program=factory, qubit=GATE, program_key="shared"),
        ]
        outcomes = estimate_batch(requests, max_workers=1, cache=EstimateCache())
        assert all(o.ok for o in outcomes)
        assert len(calls) == 1  # traced once despite two points


class TestEstimateCache:
    def test_counts_memoized_by_program_key(self):
        cache = EstimateCache()
        circuit_counts = multiplier_by_name("windowed", 32)
        cache.resolve_counts(circuit_counts, key=("w", 32))
        cache.resolve_counts(circuit_counts, key=("w", 32))
        assert cache.stats()["counts"] == {"hits": 1, "misses": 1}

    def test_logical_counts_bypass_cache(self):
        cache = EstimateCache()
        assert cache.resolve_counts(WORKLOAD) is WORKLOAD
        assert cache.stats()["counts"]["misses"] == 0

    def test_factory_and_distance_memos_hit_on_identical_points(self):
        cache = EstimateCache()
        requests = [
            EstimateRequest(program=WORKLOAD, qubit=MAJ, budget=1e-3)
            for _ in range(3)
        ]
        estimate_batch(requests, max_workers=1, cache=cache)
        stats = cache.stats()
        assert stats["factories"] == {"hits": 2, "misses": 1}
        assert stats["distances"]["misses"] >= 1
        assert stats["distances"]["hits"] >= 2

    def test_clear_resets_memos(self):
        cache = EstimateCache()
        estimate_batch(
            [EstimateRequest(program=WORKLOAD, qubit=MAJ)], cache=cache
        )
        cache.clear()
        estimate_batch(
            [EstimateRequest(program=WORKLOAD, qubit=MAJ)], cache=cache
        )
        assert cache.stats()["factories"]["misses"] == 2

    def test_caching_never_changes_results(self):
        cache = EstimateCache()
        requests = [
            EstimateRequest(program=WORKLOAD, qubit=MAJ, budget=1e-3)
            for _ in range(2)
        ]
        first, second = estimate_batch(requests, max_workers=1, cache=cache)
        assert first.result.to_dict() == second.result.to_dict()


class TestRequestGrid:
    def test_cartesian_order_and_size(self):
        grid = request_grid(
            [(WORKLOAD, "w", "workload")],
            [MAJ, GATE],
            budgets=(1e-3, 1e-4),
        )
        assert len(grid) == 4
        assert grid[0].qubit is MAJ and grid[0].budget == 1e-3
        assert grid[1].qubit is MAJ and grid[1].budget == 1e-4
        assert grid[2].qubit is GATE
        assert all(r.label == "workload" for r in grid)

    def test_scheme_for_hook(self):
        grid = request_grid(
            [(WORKLOAD, None, None)], [MAJ], scheme_for=default_scheme_for
        )
        assert grid[0].scheme.name == "floquet_code"


class TestFrontierThroughBatch:
    def test_all_points_failing_reports_skipped_factors(self):
        # Floquet code cannot run on gate-based qubits: every ladder point
        # fails, and the frontier reports them instead of dropping them.
        frontier = estimate_frontier(
            WORKLOAD, GATE, scheme=FLOQUET_CODE, depth_factors=[1.0, 2.0, 4.0]
        )
        assert isinstance(frontier, Frontier)
        assert list(frontier) == []
        assert frontier.num_skipped == 3
        assert frontier.skipped_factors == (1.0, 2.0, 4.0)
        assert all("majorana" in message for _, message in frontier.skipped)

    def test_feasible_frontier_has_no_skips(self):
        frontier = estimate_frontier(WORKLOAD, MAJ, budget=1e-3)
        assert frontier
        assert frontier.num_skipped == 0

    def test_frontier_matches_per_point_estimates(self):
        frontier = estimate_frontier(
            WORKLOAD, MAJ, budget=1e-3, depth_factors=[1.0, 8.0]
        )
        for point in frontier:
            direct = estimate(
                WORKLOAD,
                MAJ,
                budget=1e-3,
                constraints=Constraints(
                    logical_depth_factor=point.logical_depth_factor
                ),
            )
            assert point.estimates.to_dict() == direct.to_dict()


class TestParetoSinglePass:
    def _points(self, pairs):
        """Fake frontier points from (runtime, qubits) pairs."""

        class FakeEstimates:
            def __init__(self, runtime, qubits):
                self.runtime_seconds = runtime
                self.physical_qubits = qubits

        return [
            FrontierPoint(logical_depth_factor=float(i), estimates=FakeEstimates(r, q))
            for i, (r, q) in enumerate(pairs)
        ]

    def _brute_force(self, points):
        ordered = sorted(
            points, key=lambda pt: (pt.runtime_seconds, pt.physical_qubits)
        )
        frontier = []
        for pt in ordered:
            if all(pt.physical_qubits < kept.physical_qubits for kept in frontier):
                frontier.append(pt)
        return frontier

    @pytest.mark.parametrize(
        "pairs",
        [
            [],
            [(1.0, 100)],
            [(1.0, 100), (2.0, 50), (3.0, 25)],
            [(1.0, 100), (2.0, 100), (3.0, 100)],  # ties dominated
            [(3.0, 25), (1.0, 100), (2.0, 50), (2.5, 60)],  # unsorted + dominated
            [(1.0, 50), (1.0, 40), (2.0, 45)],  # equal runtimes
        ],
    )
    def test_matches_quadratic_filter(self, pairs):
        points = self._points(pairs)
        fast = pareto_frontier(points)
        slow = self._brute_force(points)
        assert [(p.runtime_seconds, p.physical_qubits) for p in fast] == [
            (p.runtime_seconds, p.physical_qubits) for p in slow
        ]

    def test_kept_qubits_strictly_decreasing(self):
        points = self._points([(1.0, 100), (2.0, 80), (2.5, 90), (3.0, 60)])
        frontier = pareto_frontier(points)
        qubits = [p.physical_qubits for p in frontier]
        assert qubits == sorted(qubits, reverse=True)
        assert len(set(qubits)) == len(qubits)


class TestExecutorFallbackObservability:
    """Serial degradations are recorded, never silent (PR 10 bugfix)."""

    def test_unpicklable_batch_records_reason_and_logs(self):
        import io
        import json as jsonlib

        from repro.estimator.batch import set_executor_log
        from repro.jsonlog import StructuredLogger

        stream = io.StringIO()
        set_executor_log(StructuredLogger(stream))
        try:
            cache = EstimateCache()
            requests = [
                EstimateRequest(
                    program=(lambda: WORKLOAD),  # lambdas cannot pickle
                    qubit=GATE,
                    budget=budget,
                )
                for budget in (1e-3, 1e-4)
            ]
            outcomes = estimate_batch(requests, cache=cache, max_workers=2)
        finally:
            set_executor_log(None)
        assert all(outcome.result is not None for outcome in outcomes)
        executor = cache.stats()["executor"]
        assert executor == {
            "serialFallbacks": 1,
            "lastFallbackReason": "unpicklable",
        }
        # The batch's engine may log its own lifecycle; exactly one
        # fallback must be recorded.
        events = [
            record
            for record in map(jsonlib.loads, stream.getvalue().splitlines())
            if record["event"] == "executor.fallback"
        ]
        assert len(events) == 1
        assert events[0]["reason"] == "unpicklable"

    def test_fresh_cache_reports_zero_fallbacks(self):
        executor = EstimateCache().stats()["executor"]
        assert executor == {"serialFallbacks": 0, "lastFallbackReason": None}
