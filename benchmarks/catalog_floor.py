"""Throughput floor for the T-factory catalog build.

Builds the ``qubit_maj_ns_e4`` / floquet-code catalog with a fresh
designer and times it against evaluating every candidate pipeline with
``evaluate_pipeline``, the cost the catalog avoids. Both run in this
process, best of several repeats each, so machine speed cancels out.
Exits 1 unless the catalog is at least ``FLOOR`` times faster.

Run with the repository's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python benchmarks/catalog_floor.py

The file name keeps it out of the tier-1 pytest collection.
"""

from __future__ import annotations

import sys
import time

from repro.distillation import TFactoryDesigner, evaluate_pipeline
from repro.qec import FLOQUET_CODE
from repro.qubits import QUBIT_MAJ_NS_E4

FLOOR = 3.0
REPEATS = 3


def best_of(func) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    qubit, scheme = QUBIT_MAJ_NS_E4, FLOQUET_CODE

    def full() -> None:
        designer = TFactoryDesigner()
        [
            evaluate_pipeline(pipeline, qubit, scheme)
            for pipeline in designer.candidate_pipelines(qubit, scheme)
        ]

    def catalog() -> None:
        TFactoryDesigner()._catalog(qubit, scheme)

    full_s = best_of(full)
    catalog_s = best_of(catalog)
    ratio = full_s / catalog_s
    print(
        f"catalog build {catalog_s:.3f} s, full evaluation {full_s:.3f} s: "
        f"{ratio:.1f}x (floor {FLOOR:.0f}x)"
    )
    return 0 if ratio >= FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
