"""Speed floor for a finished sweep's rerun: one stored row.

Builds the reference sweep (``rsa_2048`` x 4 profiles x 250 budgets,
684 estimates and 316 infeasible points) into a fresh store, then runs
``repro sweep FILE --store DIR --json --quiet`` in this process
(``repro.cli.main``) two ways:

* **row** — the store as the sweep left it: the finished sweep's row
  answers the rerun with one row read, and its stored ``--json`` text is
  printed as is;
* **point by point** — a copy of that store with the row deleted before
  every run: 1,000 stored points are read, decoded, assembled and
  encoded again (and the row rewritten), as before the row existed.

It checks that every run prints the pinned reference output (sha256
``REFERENCE_SHA256``), then times the two alternating, best of
``REPEATS``, so machine speed cancels out. Exits 1 unless the row is at
least ``FLOOR`` times faster (measured 2.4-2.9x on a 2-vCPU VM under
CPython 3.11).

Run with the repository's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python benchmarks/sweep_row_floor.py

The file name keeps it out of the tier-1 pytest collection.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sqlite3
import sys
import tempfile
import time
from pathlib import Path

from repro.cli import main as cli_main
from repro.estimator.store import DATABASE_NAME, SWEEP_DOC_SCHEMA

FLOOR = 2.0
REPEATS = 7
REFERENCE_SHA256 = "d93114f4894b6b4212df7ea0c1b5ff603ff170da23b6b4f9634f67d2f8b0a14b"

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


def sweep_output(sweep_file: Path, store: Path) -> str:
    """stdout of ``repro sweep --json --quiet`` against ``store``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(
            ["sweep", str(sweep_file), "--store", str(store), "--json", "--quiet"]
        )
    if code != 1:  # 316 infeasible points exit 1
        raise SystemExit(f"repro sweep exited {code}")
    return out.getvalue()


def delete_row(store: Path) -> None:
    with contextlib.closing(sqlite3.connect(store / DATABASE_NAME)) as db, db:
        db.execute(f'DELETE FROM "{SWEEP_DOC_SCHEMA}"')


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        sweep_file = root / "sweep.json"
        sweep_file.write_text(json.dumps(SWEEP))
        row_store, point_store = root / "row", root / "points"
        sweep_output(sweep_file, row_store)  # the cold pass stores the row
        shutil.copytree(row_store, point_store)

        def from_row() -> str:
            return sweep_output(sweep_file, row_store)

        def point_by_point() -> str:
            return sweep_output(sweep_file, point_store)

        best = {from_row: float("inf"), point_by_point: float("inf")}
        for _ in range(REPEATS):
            for run in best:
                if run is point_by_point:
                    delete_row(point_store)
                start = time.perf_counter()
                text = run()
                best[run] = min(best[run], time.perf_counter() - start)
                digest = hashlib.sha256(text.encode()).hexdigest()
                if digest != REFERENCE_SHA256:
                    print(f"{run.__name__} printed sha256 {digest}, not the reference")
                    return 1
    speedup = best[point_by_point] / best[from_row]
    print(
        f"rerun of the reference sweep: point by point "
        f"{best[point_by_point]:.3f} s, from the row {best[from_row]:.3f} s: "
        f"{speedup:.2f}x (floor {FLOOR:.2f}x)"
    )
    return 0 if speedup >= FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
