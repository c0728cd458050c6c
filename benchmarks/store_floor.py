"""Write-cost floor for the result store.

Evaluates the reference sweep (``rsa_2048`` x 4 profiles x 250 budgets,
684 estimates and 316 infeasible points) once without a store, then
times ``ResultStore.put_many`` of its 1,000 result and error documents
into a fresh store, in 16-point chunks as a sweep writes them, against
compact-encoding the same documents in the same process. Both run best
of several repeats, so machine speed cancels out. Exits 1 unless the
writes take at most ``CEILING`` times the encoding: a file per document
(temporary file, rename, fan-out directory) measured 6-13x, one SQLite
transaction per chunk ~1.7x.

Run with the repository's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python benchmarks/store_floor.py

The file name keeps it out of the tier-1 pytest collection.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time

from repro import ResultStore
from repro.estimator.spec import run_specs
from repro.estimator.store import RESULT_SCHEMA, StoredOutcome
from repro.estimator.sweep import SweepSpec

CEILING = 4.0
REPEATS = 3
CHUNK = 16

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


def reference_entries() -> list[tuple[str, StoredOutcome, dict]]:
    """The reference sweep's documents as ``put_many`` entries."""
    specs = [point.spec for point in SweepSpec.from_dict(SWEEP).expand()]
    entries = []
    for spec, outcome in zip(specs, run_specs(specs)):
        if outcome.ok:
            stored = StoredOutcome(outcome.result, outcome.result.to_dict(), None)
        else:
            stored = StoredOutcome(None, None, outcome.error)
        entries.append((outcome.spec_hash, stored, spec.to_dict()))
    return entries


def best_of(func) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    entries = reference_entries()

    def encode() -> None:
        for spec_hash, outcome, spec in entries:
            document = {
                "schema": RESULT_SCHEMA,
                "specHash": spec_hash,
                "spec": spec,
                "result": outcome.result_dict,
            }
            if outcome.error is not None:
                document["error"] = outcome.error
            json.dumps(document, separators=(",", ":")).encode()

    def write() -> None:
        with tempfile.TemporaryDirectory() as root:
            store = ResultStore(root)
            for start in range(0, len(entries), CHUNK):
                chunk = entries[start : start + CHUNK]
                if store.put_many(chunk) != len(chunk):
                    raise SystemExit(f"store at {root} rejected a write")
            store.close()

    encode_s = best_of(encode)
    write_s = best_of(write)
    ratio = write_s / encode_s
    print(
        f"put_many of {len(entries)} reference documents {write_s:.3f} s, "
        f"compact encoding {encode_s:.3f} s: {ratio:.2f}x (ceiling {CEILING:.0f}x)"
    )
    return 0 if ratio <= CEILING else 1


if __name__ == "__main__":
    sys.exit(main())
