"""Speed floor of the default batch path: the scalar walk, without numpy.

``estimate_batch`` runs the scalar walk for ``backend="auto"`` (the
default, which the service, sweeps and figures use) at every batch size;
the struct-of-arrays kernel runs only when a caller passes
``backend="vectorized"``. This script answers the service-shaped batch
(``rsa_2048`` on four profiles, 16 seeded budgets each: 64 specs, as one
``POST /v1/estimate`` warms a server) in fresh interpreters, alternating
``auto`` and ``vectorized``. Each run is timed from the batch call
through encoding its outcomes, which includes importing numpy on the
path that needs it. Exits 1 unless

* both paths encode the same outcomes on every run,
* no ``auto`` run loads numpy or the kernel module, and
* the best ``auto`` run is at least ``FLOOR`` times faster than the best
  ``vectorized`` run, best of ``REPEATS`` each (measured 1.5-1.9x on a
  2-vCPU VM under CPython 3.11).

Run with the repository's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python benchmarks/scalar_default_floor.py

The file name keeps it out of the tier-1 pytest collection.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

FLOOR = 1.2
REPEATS = 5
SRC = Path(__file__).resolve().parents[1] / "src"

#: One fresh interpreter: resolve the 64 specs, then time the batch.
CHILD = """
import hashlib, json, math, random, sys, time

from repro import EstimateSpec, default_registry, estimate_batch

profiles = ("qubit_gate_ns_e3", "qubit_gate_ns_e4", "qubit_maj_ns_e4", "qubit_maj_ns_e6")
rng = random.Random("hits-0")
low, high = math.log10(3e-4), math.log10(1.5e-2)
specs = [
    {"program": {"name": "rsa_2048"}, "qubit": {"profile": profile},
     "budget": 10 ** rng.uniform(low, high)}
    for _ in range(16) for profile in profiles
]
registry = default_registry()
requests = [EstimateSpec.from_dict(spec).to_request(registry) for spec in specs]
start = time.perf_counter()
outcomes = estimate_batch(requests, backend=sys.argv[1])
text = json.dumps(
    [o.result.to_dict() if o.ok else o.error for o in outcomes], sort_keys=True
)
seconds = time.perf_counter() - start
print(json.dumps({
    "seconds": seconds,
    "ok": sum(o.ok for o in outcomes),
    "digest": hashlib.sha256(text.encode()).hexdigest(),
    "loaded": sorted({"numpy", "repro.estimator.kernel"}.intersection(sys.modules)),
}))
"""


def run(backend: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", CHILD, backend],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
        check=True,
    )
    return json.loads(done.stdout)


def main() -> int:
    runs: dict[str, list[dict]] = {"auto": [], "vectorized": []}
    for repeat in range(REPEATS):
        order = ("auto", "vectorized") if repeat % 2 == 0 else ("vectorized", "auto")
        for backend in order:
            runs[backend].append(run(backend))
    failures = []
    digests = {r["digest"] for side in runs.values() for r in side}
    if len(digests) != 1:
        failures.append(f"outcomes differ between runs: {sorted(digests)}")
    if any(r["ok"] != 64 for side in runs.values() for r in side):
        failures.append("not every point of the batch was feasible")
    numpy_runs = [r["loaded"] for r in runs["auto"] if r["loaded"]]
    if numpy_runs:
        failures.append(f"auto runs loaded {numpy_runs[0]}")
    best = {side: min(r["seconds"] for r in found) for side, found in runs.items()}
    ratio = best["vectorized"] / best["auto"]
    print(
        f"64-spec batch, best of {REPEATS}: auto {best['auto'] * 1e3:.1f} ms, "
        f"vectorized {best['vectorized'] * 1e3:.1f} ms -> {ratio:.2f}x (floor {FLOOR}x)"
    )
    if ratio < FLOOR:
        failures.append(f"auto is {ratio:.2f}x vectorized, below the {FLOOR}x floor")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
