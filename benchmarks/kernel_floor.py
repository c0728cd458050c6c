"""Throughput floor of the vectorized struct-of-arrays kernel.

Evaluates a dense 10k-point grid (budget ladder x profiles x depth
factors x workloads) through ``estimate_batch`` with the scalar
per-point walk and with ``backend="vectorized"``, each over the whole
grid, best of three, in this process. Exits 1 unless the results are
bit-for-bit identical on every point and the kernel processes points at
least ``FLOOR`` times faster than the scalar walk (measured 1.4-2.2x on
a 2-vCPU VM; both paths share the factory staircase, so the kernel's
lead comes only from the array fixed point and shared per-point
preparation).

Run with the repository's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python benchmarks/kernel_floor.py

The file name keeps the timing out of the tier-1 pytest collection,
where a 2-core host's noise made the ratio flaky;
``benchmarks/test_vectorized_kernel.py`` checks the same equality on the
same grid there, through this module's ``grid_requests`` and
``mismatches``. No CI step runs the timing: the kernel runs only on an
explicit ``backend="vectorized"``, so its lead over the scalar walk
guards no default path (``benchmarks/scalar_default_floor.py`` times
the default path instead).
"""

from __future__ import annotations

import sys
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


def grid_requests() -> list[EstimateRequest]:
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


def mismatches(scalar_outcomes, vector_outcomes) -> list[str]:
    """Points where either side failed or the result dicts differ."""
    found = []
    for index, (s, v) in enumerate(zip(scalar_outcomes, vector_outcomes, strict=True)):
        if not (s.ok and v.ok):
            found.append(f"point {index}: {s.error!r} / {v.error!r}")
        elif s.result.to_dict() != v.result.to_dict():
            found.append(f"point {index}: results differ")
    return found


def _best_of(requests, backend):
    """(best seconds, outcomes) of REPEATS fresh-cache batch runs."""
    best = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        outcomes = estimate_batch(requests, cache=EstimateCache(), backend=backend)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, outcomes


def main() -> int:
    requests = grid_requests()
    # Warm the shared T-factory designer catalogs so neither timing pays
    # the one-off search-space construction, and the numpy import so the
    # vectorized timing measures the kernel, not the module loader.
    for profile in PROFILES:
        estimate(WORKLOADS[0], qubit_params(profile), budget=1e-4)
    estimate_batch(requests[:2], cache=EstimateCache(), backend="vectorized")

    scalar_s, scalar_outcomes = _best_of(requests, "scalar")
    vector_s, vector_outcomes = _best_of(requests, "vectorized")
    speedup = scalar_s / vector_s
    print(
        f"{len(requests)} points: scalar {len(requests) / scalar_s:,.0f} points/s "
        f"({scalar_s:.2f} s), vectorized {len(requests) / vector_s:,.0f} points/s "
        f"({vector_s:.2f} s): {speedup:.2f}x (floor {FLOOR}x)"
    )
    differ = mismatches(scalar_outcomes, vector_outcomes)
    if differ:
        print(f"{len(differ)} points differ, first: {differ[0]}")
        return 1
    return 0 if speedup >= FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
