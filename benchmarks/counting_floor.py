"""Time and memory floors of the counting backend at n=512.

Counts one n=512 modular-exponentiation block (one exponent bit, a
single controlled modular multiplication of ~10M instructions) twice:
through the streaming counting backend and by materializing the circuit
and tracing it. Both run in this process, so machine speed cancels out.
Exits 1 unless the counts are equal, the counting backend is at least
``TIME_FLOOR`` times faster and its ``tracemalloc`` peak at least
``MEMORY_FLOOR`` times smaller (measured 155-270x and 1900-2950x; see
``benchmarks/test_counting_backend.py``). The materialized count takes
about 100 s.

Run with the repository's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python benchmarks/counting_floor.py

The file name keeps it out of the tier-1 pytest collection, which checks
the same equality at n=64.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

from repro.arithmetic import modexp_circuit, modexp_counting_counts

N = 512
TIME_FLOOR = 10.0
MEMORY_FLOOR = 100.0


def measure(func):
    """(result, seconds, tracemalloc peak bytes) of one call."""
    tracemalloc.start()
    start = time.perf_counter()
    result = func()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def main() -> int:
    modulus = (1 << N) - 1
    counted, counting_s, counting_peak = measure(
        lambda: modexp_counting_counts(2, modulus, 1)
    )
    materialized, materialize_s, materialize_peak = measure(
        lambda: modexp_circuit(2, modulus, 1).logical_counts()
    )
    time_ratio = materialize_s / counting_s
    memory_ratio = materialize_peak / counting_peak
    print(
        f"n={N}: counting {counting_s:.2f} s / {counting_peak / 1e3:.0f} kB, "
        f"materialized {materialize_s:.2f} s / {materialize_peak / 1e6:.0f} MB: "
        f"{time_ratio:.0f}x time (floor {TIME_FLOOR:.0f}x), "
        f"{memory_ratio:.0f}x memory (floor {MEMORY_FLOOR:.0f}x)"
    )
    if counted != materialized:
        print("counting and materialized counts differ")
        return 1
    return 0 if time_ratio >= TIME_FLOOR and memory_ratio >= MEMORY_FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
