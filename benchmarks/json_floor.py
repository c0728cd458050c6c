"""Speed floor for the CLI's indented JSON output.

Builds the reference sweep's result document once (``rsa_2048`` x 4
profiles x 250 budgets, 684 estimates and 316 infeasible points, 4.4 MB
as ``repro sweep --json`` prints it), checks that
``repro.jsonlog.dumps_indented`` writes exactly the text of
``json.dumps(document, indent=2)``, then times both in the same
process, alternating, best of several repeats, so machine speed cancels
out. Exits 1 unless the helper is at least ``FLOOR`` times faster
(measured 2.6-2.8x on a 2-vCPU VM under CPython 3.11).

Run with the repository's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python benchmarks/json_floor.py

The file name keeps it out of the tier-1 pytest collection.
"""

from __future__ import annotations

import json
import sys
import time

from repro.estimator.sweep import SweepSpec, run_sweep
from repro.jsonlog import dumps_indented

FLOOR = 2.0
REPEATS = 9

SWEEP = {
    "base": {"program": {"name": "rsa_2048"}},
    "axes": [
        {
            "field": "qubit",
            "values": [
                "qubit_gate_ns_e3",
                "qubit_gate_ns_e4",
                "qubit_maj_ns_e4",
                "qubit_maj_ns_e6",
            ],
        },
        {"field": "budget", "geom": {"start": 1e-12, "factor": 1.1, "count": 250}},
    ],
}


def best_of(*funcs) -> list[float]:
    """Each function's fastest run; runs alternate, so drift hits both."""
    best = [float("inf")] * len(funcs)
    for _ in range(REPEATS):
        for index, func in enumerate(funcs):
            start = time.perf_counter()
            func()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def main() -> int:
    document = run_sweep(SweepSpec.from_dict(SWEEP)).to_dict()
    expected = json.dumps(document, indent=2)
    if dumps_indented(document) != expected:
        print("dumps_indented differs from json.dumps on the reference sweep")
        return 1
    stdlib_s, helper_s = best_of(
        lambda: json.dumps(document, indent=2), lambda: dumps_indented(document)
    )
    speedup = stdlib_s / helper_s
    print(
        f"reference sweep document ({len(expected) / 1e6:.1f} MB): "
        f"json.dumps {stdlib_s:.3f} s, dumps_indented {helper_s:.3f} s: "
        f"{speedup:.2f}x (floor {FLOOR:.0f}x)"
    )
    return 0 if speedup >= FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
