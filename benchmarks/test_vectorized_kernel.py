"""Benchmark grid: the vectorized struct-of-arrays kernel equals the scalar walk.

Evaluates the dense 10k-point grid of ``benchmarks/kernel_floor.py``
(budget ladder x profiles x depth factors x workloads) through
``estimate_batch`` with both backends and requires bit-for-bit identical
results on every point. The kernel's throughput floor (>= 1.5x the
scalar walk, best of three) runs in ``kernel_floor.py`` as a CI bench
step, because a timing ratio on a shared 2-core host is not a
deterministic test.
"""

from __future__ import annotations

from kernel_floor import grid_requests, mismatches

from repro.estimator.batch import EstimateCache, estimate_batch


def test_vectorized_kernel_equals_scalar_on_10k_points():
    requests = grid_requests()
    assert len(requests) == 10_000
    scalar = estimate_batch(requests, cache=EstimateCache(), backend="scalar")
    vector = estimate_batch(requests, cache=EstimateCache(), backend="vectorized")
    assert mismatches(scalar, vector) == []
