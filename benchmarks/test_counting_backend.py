"""Counting-backend benchmarks: the RSA-scale acceptance numbers.

Two perf changes land together and are pinned here:

* **Materialized ``trace()`` micro-optimization** — binding opcodes as
  plain ints (the old loop compared stream ints against ``Op`` enum
  members) and replacing the per-qubit dict layer counters with a flat
  list indexed by qubit id. Recorded before/after (best of 3, same
  machine, identical counts):

  ========================  ============  =========  ========  ========
  stream                    instructions  old trace  new trace  speedup
  ========================  ============  =========  ========  ========
  schoolbook multiplier 192      406,272     1.27 s    0.089 s    14.2x
  modexp n=128, 1 exp. bit       654,339     2.03 s    0.157 s    13.0x
  ========================  ============  =========  ========  ========

* **Streaming counting backend** — ``CountingBuilder`` plus subcircuit
  memoization never materializes the stream at all. Measured against the
  (already optimized) materialized path, modexp with one exponent bit,
  time and peak traced memory (``tracemalloc``):

  ======  ============  ===========  ==========  =========
  n       materialized  counting     time ratio  mem ratio
  ======  ============  ===========  ==========  =========
  128     4.3 s/58 MB   0.07 s/97 kB      ~60x      ~590x
  256     18 s/225 MB   0.17 s/226 kB    ~110x      ~990x
  512     99 s/866 MB   0.37 s/293 kB    ~270x     ~2950x
  ======  ============  ===========  ==========  =========

  Full modular exponentiations (2n exponent bits) through the counting
  backend alone — the materialized path would need the above times a
  further ~2n: n=512 in 0.4 s, n=2048 (RSA) in ~2 s, n=4096 in ~6 s.

The n=512 floors (>= 10x time, >= 100x memory) are asserted by
``benchmarks/counting_floor.py``, a CI bench step under a hard
wall-clock ceiling, because the materialized count alone takes ~100 s;
here the two paths must agree at n=64. The n=2048 test is the CI smoke
assertion (these tests, minus the materialized comparison, run in CI
under a hard wall-clock ceiling — see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import time

from repro.arithmetic import (
    modexp_circuit,
    modexp_counting_counts,
    modexp_logical_counts,
)


def test_counting_equals_materialized_n64():
    """The streaming count equals the materialized trace on an n=64
    modexp block (one exponent bit: a single controlled modular
    multiplication)."""
    modulus = (1 << 64) - 1
    counted = modexp_counting_counts(2, modulus, 1)
    assert counted == modexp_circuit(2, modulus, 1).logical_counts()


def test_counting_scale_n2048_rsa():
    """A full RSA-2048 modexp, counted *and estimated* in seconds.

    The materialized path cannot finish this point within any benchmark
    budget (~30 billion instructions, ~3 TB of tuples); the counting
    backend folds it in O(live qubits) memory. The exact-count assertion
    doubles as the CI smoke check: the streaming fold agrees with the
    independently derived closed form at a width it was never hand-tuned
    for.
    """
    from repro import ErrorBudget, estimate, qubit_params

    n = 2048
    start = time.perf_counter()
    counts = modexp_counting_counts(2, (1 << n) - 1, 2 * n)
    elapsed = time.perf_counter() - start

    assert counts == modexp_logical_counts(n)
    assert counts.num_qubits == 16_388
    assert counts.ccz_count == 8_388_608
    assert counts.ccix_count == 30_097_145_856
    assert elapsed < 60, f"n=2048 counting took {elapsed:.1f}s"

    result = estimate(
        counts, qubit_params("qubit_gate_ns_e3"), budget=ErrorBudget(total=1e-3)
    )
    assert result.physical_qubits > 1_000_000
    assert result.runtime_seconds > 0


def test_bench_counting_modexp_n512(benchmark):
    """Steady-state rate of a full n=512, 1024-exponent-bit count."""
    modulus = (1 << 512) - 1
    counts = benchmark(lambda: modexp_counting_counts(2, modulus, 1024))
    assert counts == modexp_logical_counts(512)
