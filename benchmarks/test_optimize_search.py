"""Benchmark of the adaptive inverse-design search (``repro optimize``).

The acceptance floor for the optimize layer, on the reference two-axis
RSA-2048 problem (2 qubit profiles x 128-budget geometric ladder,
``min-qubits`` under ``maxTFactories == 1`` with a physical-qubit cap):

* the adaptive search returns **exactly** the answer a dense sweep of
  the grid plus :func:`reduce_answer` produces,
* using **>= 10x fewer** estimator evaluations than the dense grid
  (cold store; a local run measures ~16x), and
* a warm re-run against the same store answers from the persisted
  ``repro-optimize-v1`` probe trace with **zero** evaluations.
"""

from __future__ import annotations

import json
import time

from repro import ResultStore
from repro.distillation import TFactoryDesigner
from repro.estimator.batch import EstimateCache
from repro.estimator.optimize import OptimizeSpec, reduce_answer, run_optimize
from repro.estimator.sweep import run_sweep

#: The reference inverse-design question: the smallest machine (by
#: physical qubits, capped at 60M) that factors RSA-2048 with one
#: T factory, searched over hardware profile x error budget.
REFERENCE_DOC = {
    "base": {
        "program": {"name": "rsa_2048"},
        "constraints": {"maxTFactories": 1},
    },
    "axes": [
        {"field": "qubit", "values": ["qubit_gate_ns_e3", "qubit_maj_ns_e4"]},
        {"field": "budget", "geom": {"start": 1e-12, "factor": 1.2, "count": 128}},
    ],
    "objective": "min-qubits",
    "constraints": {"maxPhysicalQubits": 60_000_000},
}


def _fresh_cache() -> EstimateCache:
    # A private designer: the shared default's factory catalogs may be
    # warm from other benchmarks, which would skew the timings.
    return EstimateCache(designer=TFactoryDesigner())


def test_optimize_reaches_dense_answer_10x_cheaper(tmp_path):
    spec = OptimizeSpec.from_dict(json.loads(json.dumps(REFERENCE_DOC)))
    grid = spec.num_points()
    store = ResultStore(tmp_path)

    start = time.perf_counter()
    cold = run_optimize(spec, store=store, cache=_fresh_cache())
    cold_s = time.perf_counter() - start
    assert cold.from_trace is False

    start = time.perf_counter()
    dense = run_sweep(spec.sweep_spec(), cache=_fresh_cache())
    dense_s = time.perf_counter() - start
    reference = reduce_answer(
        spec.objective,
        spec.constraints,
        [(point.index, point.result) for point in dense.points],
    )

    # Exact answer equality with the dense grid...
    assert cold.answer == reference
    assert cold.answer, "the reference problem must have a feasible answer"
    # ... at >= 10x fewer estimator evaluations.
    ratio = grid / max(1, cold.num_evaluations)
    assert ratio >= 10.0, (
        f"adaptive search used {cold.num_evaluations} evaluations for a "
        f"{grid}-point grid ({ratio:.1f}x); floor is 10x"
    )

    # Warm re-run: the stored probe trace answers with zero evaluations.
    start = time.perf_counter()
    warm = run_optimize(spec, store=store, cache=_fresh_cache())
    warm_s = time.perf_counter() - start
    assert warm.from_trace is True
    assert warm.num_evaluations == 0
    assert warm.to_dict() == cold.to_dict()

    print(
        f"\noptimize: {cold.num_evaluations}/{grid} evaluations "
        f"({ratio:.1f}x fewer), cold {cold_s:.2f}s "
        f"(dense sweep {dense_s:.2f}s), warm {warm_s:.4f}s (0 evaluations)"
    )
    print(
        json.dumps(
            {
                "gridPoints": grid,
                "evaluations": cold.num_evaluations,
                "probes": len(cold.probes),
                "evaluationRatio": round(ratio, 2),
                "answer": list(cold.answer),
                "coldSeconds": round(cold_s, 3),
                "denseSweepSeconds": round(dense_s, 3),
                "warmSeconds": round(warm_s, 4),
                "warmEvaluations": warm.num_evaluations,
            }
        )
    )
