"""Speed floor for resolving a sweep's points: one pass per distinct part.

On the reference sweep (``rsa_2048`` x 4 profiles x 250 budgets) this
times two ways of getting every point's spec and resolved content hash:

* **per part** — ``SweepSpec.expand()`` plus ``point_hashes(registry)``:
  each distinct spec part is parsed once and each distinct (program,
  qubit, scheme, constraints, synthesis) part is resolved and encoded
  once, with each point's budget spliced in;
* **per point** — each point's document built on its own (``base`` plus
  its axis values), parsed with ``EstimateSpec.from_dict`` and hashed
  with ``content_hash(registry)``, as every point was before parts were
  shared.

Both start from the parsed sweep document. It checks that the two give
equal specs and equal hashes, then times them alternating, best of
``REPEATS``, so machine speed cancels out. Exits 1 unless the per-part
path is at least ``FLOOR`` times faster (measured 3.2-4.1x on a 2-vCPU VM
under CPython 3.11).

Run with the repository's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python benchmarks/spec_resolution_floor.py

The file name keeps it out of the tier-1 pytest collection.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

from repro.estimator.spec import EstimateSpec
from repro.estimator.sweep import SweepSpec, _apply_axis, _coord_label
from repro.registry import Registry

FLOOR = 2.0
REPEATS = 7

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


def per_part(registry: Registry) -> tuple[list[EstimateSpec], list[str]]:
    sweep = SweepSpec.from_dict(SWEEP)
    specs = [point.spec for point in sweep.expand()]
    return specs, sweep.point_hashes(registry)


def per_point(registry: Registry) -> tuple[list[EstimateSpec], list[str]]:
    sweep = SweepSpec.from_dict(SWEEP)
    fields = [axis.field for axis in sweep.axes]
    specs, hashes = [], []
    for combo in itertools.product(*(axis.values for axis in sweep.axes)):
        document = json.loads(json.dumps(sweep.base))
        for field_path, value in zip(fields, combo):
            _apply_axis(document, field_path, value)
        document["label"] = ", ".join(
            f"{f}={_coord_label(v)}" for f, v in zip(fields, combo)
        )
        spec = EstimateSpec.from_dict(document)
        specs.append(spec)
        hashes.append(spec.content_hash(registry))
    return specs, hashes


def timed(run, registry: Registry) -> float:
    start = time.perf_counter()
    run(registry)
    return time.perf_counter() - start


def main() -> int:
    registry = Registry()
    shared_specs, shared_hashes = per_part(registry)
    alone_specs, alone_hashes = per_point(registry)
    if shared_hashes != alone_hashes or shared_specs != alone_specs:
        print("per-part specs or hashes differ from per-point ones")
        return 1
    if any(a.to_dict() != b.to_dict() for a, b in zip(shared_specs, alone_specs)):
        print("per-part spec documents differ from per-point ones")
        return 1
    shared, alone = [], []
    for _ in range(REPEATS):
        alone.append(timed(per_point, registry))
        shared.append(timed(per_part, registry))
    ratio = min(alone) / min(shared)
    print(
        f"{len(shared_hashes)} points: per point {min(alone) * 1e3:.1f} ms, "
        f"per part {min(shared) * 1e3:.1f} ms (best of {REPEATS}): "
        f"{ratio:.1f}x (floor {FLOOR}x)"
    )
    return 0 if ratio >= FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
