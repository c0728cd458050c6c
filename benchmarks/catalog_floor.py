"""Throughput floors for the T-factory catalog build.

Builds the ``qubit_maj_ns_e4`` / floquet-code catalog with a fresh
designer and checks two ratios, all in this process so machine speed
cancels out:

* the catalog against evaluating every candidate pipeline with
  ``evaluate_pipeline``, the cost the catalog avoids: best of
  ``REPEATS``, at least ``FLOOR`` times faster;
* the catalog plus ``DESIGNS`` ``design`` calls against the catalog with
  every one of its 370 Pareto entries built, the cost of building the
  entries eagerly: best of ``LAZY_REPEATS`` alternating runs, at least
  ``LAZY_FLOOR`` times faster, because a catalog builds only the
  factories it hands out.

Exits 1 unless both floors hold. Run with the repository's ``src`` on
``PYTHONPATH``::

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
LAZY_FLOOR = 1.3
LAZY_REPEATS = 15
#: One requirement per Fig. 3/4 point, log-spaced over 1e-3 to 1e-15
#: (all reachable on this profile).
DESIGNS = [10.0 ** -(3 + 12 * k / 47) for k in range(48)]


def elapsed(func) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


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

    def designs() -> None:
        designer = TFactoryDesigner()
        for required in DESIGNS:
            designer.design(qubit, scheme, required)

    def every_entry() -> None:
        list(TFactoryDesigner()._catalog(qubit, scheme).factories)

    full_s = min(elapsed(full) for _ in range(REPEATS))
    catalog_s = min(elapsed(catalog) for _ in range(REPEATS))
    ratio = full_s / catalog_s
    print(
        f"catalog build {catalog_s:.3f} s, full evaluation {full_s:.3f} s: "
        f"{ratio:.1f}x (floor {FLOOR:.0f}x)"
    )

    designs_s = every_s = float("inf")
    for _ in range(LAZY_REPEATS):
        designs_s = min(designs_s, elapsed(designs))
        every_s = min(every_s, elapsed(every_entry))
    lazy_ratio = every_s / designs_s
    print(
        f"catalog + {len(DESIGNS)} designs {designs_s:.3f} s, catalog with "
        f"every entry built {every_s:.3f} s: {lazy_ratio:.2f}x "
        f"(floor {LAZY_FLOOR}x)"
    )
    return 0 if ratio >= FLOOR and lazy_ratio >= LAZY_FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
