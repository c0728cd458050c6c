"""Benchmark: the vectorized struct-of-arrays kernel on a dense sweep.

The acceptance check for the kernel: evaluating a dense 10k-point grid
(budget ladder x profiles x workloads) through
``estimate_batch(backend="vectorized")`` must give results bit-for-bit
identical to the scalar per-point walk on every point, and process
points at least **1.5x** faster than it — the CI floor; a local run on
a 2-core VM clears ~2-2.5x. Each side is timed over the whole grid,
best of three.

The floor was 10x (~50x locally) while the scalar walk's factory design
scanned all ~10k catalog factories per point. ``design()`` is now one
bisection over the catalog staircase the kernel reads too, so the
scalar walk runs at ~60 us a point and the kernel's lead comes only
from the array fixed point and shared per-point preparation.
"""

from __future__ import annotations

import time

from repro import Constraints, LogicalCounts, estimate, qubit_params
from repro.estimator.batch import EstimateCache, EstimateRequest, estimate_batch

#: Geometric budget ladder, 1e-2 down to 1e-7 (dense but feasible
#: everywhere, so the benchmark times the solver, not error replays).
N_BUDGETS = 1250
BUDGETS = tuple(
    10.0 ** (-2.0 - 5.0 * i / (N_BUDGETS - 1)) for i in range(N_BUDGETS)
)
PROFILES = ("qubit_maj_ns_e4", "qubit_gate_ns_e3")
DEPTH_FACTORS = (1.0, 4.0)
WORKLOADS = (
    LogicalCounts(
        num_qubits=40,
        t_count=20_000,
        ccz_count=5_000,
        rotation_count=100,
        rotation_depth=50,
        measurement_count=500,
    ),
    LogicalCounts(
        num_qubits=1_000, t_count=10**7, ccz_count=10**6, measurement_count=10**5
    ),
)

#: Timings per side; the best one counts, which filters out host noise.
REPEATS = 3

#: Required vectorized / scalar points-per-second ratio.
FLOOR = 1.5


def _grid_requests() -> list[EstimateRequest]:
    return [
        EstimateRequest(
            program=workload,
            qubit=qubit_params(profile),
            budget=budget,
            constraints=Constraints(logical_depth_factor=factor),
        )
        for workload in WORKLOADS
        for profile in PROFILES
        for factor in DEPTH_FACTORS
        for budget in BUDGETS
    ]


def _best_of(requests, backend):
    """(best seconds, outcomes) of REPEATS fresh-cache batch runs."""
    best = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        outcomes = estimate_batch(requests, cache=EstimateCache(), backend=backend)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, outcomes


def test_vectorized_kernel_points_per_sec_floor():
    requests = _grid_requests()
    assert len(requests) == 10_000

    # Warm the shared T-factory designer catalogs so neither timing pays
    # the one-off search-space construction (same idiom as the batch
    # engine benchmark), and the numpy import so the vectorized timing
    # measures the kernel, not the interpreter's module loader.
    for profile in PROFILES:
        estimate(WORKLOADS[0], qubit_params(profile), budget=1e-4)
    estimate_batch(requests[:2], cache=EstimateCache(), backend="vectorized")

    scalar_s, scalar_outcomes = _best_of(requests, "scalar")
    vector_s, vector_outcomes = _best_of(requests, "vectorized")

    # Bit-for-bit equality on every point.
    for s, v in zip(scalar_outcomes, vector_outcomes):
        assert s.ok and v.ok, (s.error, v.error)
        assert s.result.to_dict() == v.result.to_dict()

    scalar_rate = len(requests) / scalar_s
    vector_rate = len(requests) / vector_s
    speedup = vector_rate / scalar_rate
    print(
        f"\nscalar: {scalar_rate:,.0f} points/sec ({scalar_s:.2f}s); "
        f"vectorized: {vector_rate:,.0f} points/sec ({vector_s:.2f}s); "
        f"speedup: {speedup:.1f}x"
    )
    assert speedup >= FLOOR, (
        f"vectorized kernel at {vector_rate:,.0f} points/sec is only "
        f"{speedup:.1f}x the scalar {scalar_rate:,.0f} points/sec "
        f"(floor: {FLOOR}x)"
    )
