"""Import-footprint floor: a pass imports only the modules it executes.

``repro``, ``repro.arithmetic``, ``repro.estimator`` and
``repro.experiments`` export their public names lazily and the CLI
defers its optimize, QIR, advantage, service and process-pool imports
to the paths that use them. This script checks, each in fresh
interpreters:

* module ceilings: ``import repro.cli`` loads at most ``CLI_CEILING``
  repro modules, ``import repro.experiments`` (the lazy package alone)
  at most ``EXPERIMENTS_CEILING`` and ``import repro.experiments.fig3``
  (what a Fig. 3 pass imports before it runs) at most ``FIGURE_CEILING``
  (deterministic);
* timing: the fastest of ``RUNS`` imports of ``repro.experiments.fig3``
  takes at most ``TIME_FLOOR`` times the fastest of the same import
  followed by the deferred modules (``DEFERRED``), runs alternating so
  host drift hits both sides alike.

Exits 1 if any check fails. Run with the repository's ``src`` on
``PYTHONPATH``::

    PYTHONPATH=src python benchmarks/import_floor.py

The file name keeps it out of the tier-1 pytest collection;
``tests/test_imports.py`` checks which modules a pass loads.
"""

from __future__ import annotations

import json
import subprocess
import sys

CLI_CEILING = 26
EXPERIMENTS_CEILING = 4
FIGURE_CEILING = 36
FIGURE_MODULE = "repro.experiments.fig3"
RUNS = 5
TIME_FLOOR = 0.85
#: Modules a figure or sweep pass never executes.
DEFERRED = (
    "repro.service",
    "repro.estimator.optimize",
    "repro.estimator.queue",
    "repro.qir",
    "repro.advantage",
    "repro.report",
)

_CHILD = """
import json, sys, time
start = time.perf_counter()
for name in sys.argv[1:]:
    __import__(name)
elapsed = time.perf_counter() - start
repro = [m for m in sys.modules if m == "repro" or m.startswith("repro.")]
print(json.dumps({"seconds": elapsed, "repro_modules": len(repro)}))
"""


def fresh_import(*modules: str) -> dict:
    """Seconds and repro-module count of importing ``modules`` in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, *modules],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def main() -> int:
    ok = True
    for module, ceiling in (
        ("repro.cli", CLI_CEILING),
        ("repro.experiments", EXPERIMENTS_CEILING),
        (FIGURE_MODULE, FIGURE_CEILING),
    ):
        count = fresh_import(module)["repro_modules"]
        print(f"import {module}: {count} repro modules (ceiling {ceiling})")
        ok &= count <= ceiling

    alone, with_deferred = [], []
    for _ in range(RUNS):
        alone.append(fresh_import(FIGURE_MODULE)["seconds"])
        with_deferred.append(fresh_import(FIGURE_MODULE, *DEFERRED)["seconds"])
    ratio = min(alone) / min(with_deferred)
    print(
        f"import {FIGURE_MODULE}: {min(alone):.3f} s, plus the deferred set: "
        f"{min(with_deferred):.3f} s (best of {RUNS}): {ratio:.2f}x "
        f"(ceiling {TIME_FLOOR}x)"
    )
    return 0 if ok and ratio <= TIME_FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
