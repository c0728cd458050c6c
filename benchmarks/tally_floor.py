"""Throughput floor for the multiplier count tallies (formula backend).

Times the closed-form ``logical_counts()`` of the paper's Fig. 3 grid
(3 algorithms x 10 sizes, 32 to 16384 bits, fresh instances) against
one fresh ``qubit_maj_ns_e4`` / floquet-code T-factory catalog with
every one of its Pareto entries built (``evaluate_pipeline`` on each of
the 370), a yardstick that lazy catalog entries do not shorten. Both
run in this process, best of several repeats each, so machine speed
cancels out. Exits 1 unless the 30 tallies take at most ``CEILING``
times that build: per-row or per-node tallies put them at ~20-25x, the
closed forms at ~0.5-1.0x.

Run with the repository's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python benchmarks/tally_floor.py

The file name keeps it out of the tier-1 pytest collection.
"""

from __future__ import annotations

import sys
import time

from repro.arithmetic import multiplier_by_name
from repro.distillation import TFactoryDesigner
from repro.experiments import FIG3_BIT_SIZES
from repro.experiments.runner import ALGORITHMS
from repro.qec import FLOQUET_CODE
from repro.qubits import QUBIT_MAJ_NS_E4

CEILING = 2.0
REPEATS = 3


def best_of(func) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    def tallies() -> None:
        for algorithm in ALGORITHMS:
            for bits in FIG3_BIT_SIZES:
                multiplier_by_name(algorithm, bits).logical_counts()

    def catalog() -> None:
        list(TFactoryDesigner()._catalog(QUBIT_MAJ_NS_E4, FLOQUET_CODE).factories)

    tallies_s = best_of(tallies)
    catalog_s = best_of(catalog)
    ratio = tallies_s / catalog_s
    print(
        f"{len(ALGORITHMS) * len(FIG3_BIT_SIZES)} Fig. 3 tallies "
        f"{tallies_s:.3f} s, one catalog with every entry built {catalog_s:.3f} s: "
        f"{ratio:.2f}x (ceiling {CEILING:.0f}x)"
    )
    return 0 if ratio <= CEILING else 1


if __name__ == "__main__":
    sys.exit(main())
