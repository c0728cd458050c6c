"""Tests for the vectorized struct-of-arrays estimation kernel.

The kernel's contract is bit-for-bit equality with the scalar pipeline
(results *and* error messages), so most coverage here is about the
dispatch machinery around it: backend validation, ``auto`` running the
scalar walk at every batch size (the kernel is opt-in), the per-batch
kernel counters, the error when numpy is missing, and the
``distance_table`` the kernel tabulates from.
The property-based equality sweep lives in ``test_invariants.py``.
"""

from __future__ import annotations

import math
import sys

import pytest

from repro import Constraints, ErrorBudget, LogicalCounts, qubit_params
from repro.estimator.batch import (
    BACKEND_CHOICES,
    EstimateCache,
    EstimateRequest,
    estimate_batch,
)
from repro.estimator.stages import DEFAULT_DESIGNER
from repro.qec import PREDEFINED_SCHEMES, default_scheme_for

WORKLOAD = LogicalCounts(
    num_qubits=50, t_count=50_000, ccz_count=10_000, measurement_count=2_000
)
MAJ = qubit_params("qubit_maj_ns_e4")
GATE = qubit_params("qubit_gate_ns_e3")


def request_ladder(n: int) -> list[EstimateRequest]:
    """``n`` distinct feasible points (budget ladder over two profiles)."""
    return [
        EstimateRequest(
            program=WORKLOAD,
            qubit=MAJ if i % 2 else GATE,
            budget=10.0 ** (-3 - (i % 7)),
            label=f"point-{i}",
        )
        for i in range(n)
    ]


def kernel_stats(cache: EstimateCache) -> dict[str, int]:
    return cache.stats()["kernel"]


class TestBackendDispatch:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            estimate_batch(request_ladder(1), backend="turbo")

    def test_backend_choices_exported(self):
        assert BACKEND_CHOICES == ("auto", "scalar", "vectorized")

    def test_auto_small_batch_runs_scalar(self):
        cache = EstimateCache()
        n = 31
        outcomes = estimate_batch(request_ladder(n), cache=cache, backend="auto")
        assert all(o.ok for o in outcomes)
        assert kernel_stats(cache) == {
            "vectorized": 0,
            "scalarFallback": 0,
            "scalar": n,
        }

    @pytest.mark.parametrize("n", [32, 64])
    def test_auto_large_batch_runs_scalar(self, n):
        cache = EstimateCache()
        requests = request_ladder(n)
        outcomes = estimate_batch(requests, cache=cache, backend="auto")
        assert kernel_stats(cache) == {
            "vectorized": 0,
            "scalarFallback": 0,
            "scalar": n,
        }
        vectorized = estimate_batch(requests, backend="vectorized")
        assert [o.result for o in outcomes] == [o.result for o in vectorized]
        assert all(o.ok for o in outcomes)

    def test_explicit_vectorized_runs_the_kernel_at_any_size(self):
        cache = EstimateCache()
        outcomes = estimate_batch(
            request_ladder(2), cache=cache, backend="vectorized"
        )
        assert all(o.ok for o in outcomes)
        assert kernel_stats(cache)["vectorized"] == 2

    def test_explicit_scalar_runs_scalar(self):
        cache = EstimateCache()
        n = 40
        estimate_batch(request_ladder(n), cache=cache, backend="scalar")
        assert kernel_stats(cache) == {
            "vectorized": 0,
            "scalarFallback": 0,
            "scalar": n,
        }

    def test_counter_accumulates_across_batches(self):
        cache = EstimateCache()
        estimate_batch(request_ladder(3), cache=cache, backend="vectorized")
        estimate_batch(request_ladder(2), cache=cache, backend="scalar")
        stats = kernel_stats(cache)
        assert stats["vectorized"] == 3
        assert stats["scalar"] == 2


class TestMissingNumpy:
    """`from . import kernel` failing matters only to an explicit request."""

    @pytest.fixture(autouse=True)
    def hide_kernel_module(self, monkeypatch):
        # A previously-imported kernel would satisfy `from . import
        # kernel` via the package attribute; drop both lookup paths.
        import repro.estimator as estimator_pkg

        monkeypatch.delattr(estimator_pkg, "kernel", raising=False)
        monkeypatch.setitem(sys.modules, "repro.estimator.kernel", None)

    def test_auto_never_needs_the_kernel(self):
        cache = EstimateCache()
        n = 64
        outcomes = estimate_batch(request_ladder(n), cache=cache, backend="auto")
        assert all(o.ok for o in outcomes)
        assert kernel_stats(cache)["scalar"] == n

    def test_explicit_vectorized_raises(self):
        with pytest.raises(RuntimeError, match="requires numpy"):
            estimate_batch(request_ladder(1), backend="vectorized")


class TestDistanceTable:
    @pytest.mark.parametrize("name", sorted(PREDEFINED_SCHEMES))
    def test_matches_point_queries_and_decreases(self, name):
        scheme = PREDEFINED_SCHEMES[name]
        for qubit in (MAJ, GATE):
            table = scheme.distance_table(qubit)
            distances = [d for d, _ in table]
            assert distances == list(
                range(1, scheme.max_code_distance + 1, 2)
            )
            for d, rate in table:
                assert rate == scheme.logical_error_rate(qubit, d)
            rates = [rate for _, rate in table]
            assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestBitForBitSpotChecks:
    """Fixed mixed batches: results, errors, and order match the scalar path.

    (The randomized version of this invariant is the hypothesis suite in
    ``test_invariants.py``; these are the deliberate corner points.)
    """

    def mixed_requests(self) -> list[EstimateRequest]:
        return [
            # Plain feasible point.
            EstimateRequest(program=WORKLOAD, qubit=MAJ, budget=1e-4),
            # Budget so tight no factory reaches it -> EstimationError.
            EstimateRequest(program=WORKLOAD, qubit=GATE, budget=1e-25),
            # Capped factory copies (exercises the capped-copies branch).
            EstimateRequest(
                program=WORKLOAD,
                qubit=MAJ,
                budget=1e-4,
                constraints=Constraints(max_t_factories=1),
            ),
            # Constraint violations -> exact error strings must match.
            EstimateRequest(
                program=WORKLOAD,
                qubit=GATE,
                budget=1e-4,
                constraints=Constraints(max_physical_qubits=10),
            ),
            EstimateRequest(
                program=WORKLOAD,
                qubit=GATE,
                budget=1e-4,
                constraints=Constraints(max_duration_ns=1.0),
            ),
            # Depth stretch via the slowdown factor.
            EstimateRequest(
                program=WORKLOAD,
                qubit=MAJ,
                budget=1e-3,
                constraints=Constraints(logical_depth_factor=64.0),
            ),
        ]

    def test_scalar_and_vectorized_agree(self):
        scalar = estimate_batch(
            self.mixed_requests(), cache=EstimateCache(), backend="scalar"
        )
        vectorized = estimate_batch(
            self.mixed_requests(), cache=EstimateCache(), backend="vectorized"
        )
        assert len(scalar) == len(vectorized)
        for s, v in zip(scalar, vectorized):
            assert s.ok == v.ok
            assert s.error == v.error
            if s.ok:
                assert s.result.to_dict() == v.result.to_dict()

    def test_fallback_points_are_counted(self):
        cache = EstimateCache()
        estimate_batch(
            self.mixed_requests(), cache=cache, backend="vectorized"
        )
        stats = kernel_stats(cache)
        assert stats["vectorized"] + stats["scalarFallback"] == 6
        # The infeasible-factory point at least is replayed scalar-side.
        assert stats["scalarFallback"] >= 1


class TestFactoryStaircaseBoundaries:
    """T-state requirements exactly on the designer's staircase errors.

    With a single T state the requirement is the pinned T-state budget
    itself, so each point asks for exactly a staircase error or one of
    its floating-point neighbours — where the kernel's searchsorted and
    the scalar bisection could first disagree.
    """

    def boundary_requests(self, qubit) -> list[EstimateRequest]:
        catalog = DEFAULT_DESIGNER._catalog(qubit, default_scheme_for(qubit))
        errors = [f.output_error_rate for f in catalog.staircase]
        targets = [errors[-1] / 2]  # below the best: no factory
        for error in errors:
            targets += [math.nextafter(error, 0.0), error, math.nextafter(error, 1.0)]
        counts = LogicalCounts(num_qubits=50, t_count=1, measurement_count=100)
        return [
            EstimateRequest(
                program=counts,
                qubit=qubit,
                budget=ErrorBudget.explicit(
                    logical=1e-4, t_states=required, rotations=0.0
                ),
            )
            for required in targets
        ]

    @pytest.mark.parametrize("qubit", [MAJ, GATE], ids=lambda q: q.name)
    def test_vectorized_equals_scalar_on_staircase(self, qubit):
        requests = self.boundary_requests(qubit)
        scalar = estimate_batch(requests, cache=EstimateCache(), backend="scalar")
        cache = EstimateCache()
        vectorized = estimate_batch(requests, cache=cache, backend="vectorized")
        assert [s.error for s in scalar] == [v.error for v in vectorized]
        for s, v in zip(scalar, vectorized):
            if s.ok:
                assert s.result.to_dict() == v.result.to_dict()
        # Only the points below the best staircase error find no factory;
        # the kernel hands exactly those to the scalar path.
        ok = sum(s.ok for s in scalar)
        assert ok == len(requests) - 2
        assert kernel_stats(cache)["vectorized"] == ok
