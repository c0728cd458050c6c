"""Speed floor for store hits: the warm sweep's read path.

Builds the reference sweep (``rsa_2048`` x 4 profiles x 250 budgets,
684 estimates and 316 infeasible points) into a fresh store, then
answers all 1,000 points from it two ways:

* **chunked** — :func:`repro.estimator.spec.run_specs` over 16-point
  chunks with the sweep's point hashes, as a warm ``repro sweep`` does:
  one ``ResultStore.lookup_many`` query per chunk, and no estimation
  request for a hit;
* **per key** — the per-point shape it replaced: resolve each point into
  its request (with the counts-store wrapper) and read it with one
  ``ResultStore.lookup`` query.

It checks that both give the same ``serialized_result()`` and error for
every point, then times them in the same process, alternating, best of
several repeats, each repeat on a fresh store handle (an empty memory
cache), so machine speed cancels out. Both share the decode of repeated
sub-documents, so the ratio is the query and request work per hit.
Exits 1 unless the chunked path is at least ``FLOOR`` times faster
(measured 1.4-1.5x on a 2-vCPU VM under CPython 3.11).

Run with the repository's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python benchmarks/warm_floor.py

The file name keeps it out of the tier-1 pytest collection.
"""

from __future__ import annotations

import sys
import tempfile
import time

from repro import ResultStore
from repro.registry import default_registry
from repro.estimator.spec import SpecOutcome, _SpecTable, run_specs
from repro.estimator.sweep import SweepSpec, run_sweep

FLOOR = 1.25
REPEATS = 9
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
    registry = default_registry()
    sweep = SweepSpec.from_dict(SWEEP)
    specs = [point.spec for point in sweep.expand()]
    hashes = sweep.point_hashes(registry)
    with tempfile.TemporaryDirectory() as root:
        run_sweep(sweep, registry=registry, store=ResultStore(root))

        def chunked() -> list[SpecOutcome]:
            store = ResultStore(root)
            outcomes = []
            for start in range(0, len(specs), CHUNK):
                outcomes += run_specs(
                    specs[start : start + CHUNK],
                    registry=registry,
                    store=store,
                    spec_hashes=hashes[start : start + CHUNK],
                )
            store.close()
            return outcomes

        def per_key() -> list[SpecOutcome]:
            store = ResultStore(root)
            outcomes = []
            for spec, spec_hash in zip(specs, hashes):
                _SpecTable(registry).request(spec, store)  # resolved afresh
                entry = store.lookup(spec_hash)
                outcomes.append(
                    SpecOutcome(
                        spec=spec,
                        spec_hash=spec_hash,
                        result=entry.result,
                        error=entry.error,
                        from_store=True,
                        result_dict=entry.result_dict,
                    )
                )
            store.close()
            return outcomes

        fast, slow = chunked(), per_key()
        if not all(outcome.from_store for outcome in fast):
            print("the chunked path missed the store")
            return 1
        if [(o.serialized_result(), o.error) for o in fast] != [
            (o.serialized_result(), o.error) for o in slow
        ]:
            print("the chunked and per-key paths answer differently")
            return 1
        per_key_s, chunked_s = best_of(per_key, chunked)
    speedup = per_key_s / chunked_s
    print(
        f"{len(specs)} store hits of the reference sweep: per key "
        f"{per_key_s:.3f} s, chunked {chunked_s:.3f} s: {speedup:.2f}x "
        f"(floor {FLOOR:.2f}x)"
    )
    return 0 if speedup >= FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
