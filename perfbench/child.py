"""Child-process entry for the benchmark: run one program entry point.

Usage (with the repository's ``src`` on ``PYTHONPATH``)::

    python child.py [--trace-out FILE] cli ARG...   # repro.cli.main(ARGS)
    python child.py [--trace-out FILE] figures      # run_fig3() + run_fig4()

``figures`` prints the Fig. 3 and Fig. 4 rows as one JSON list on
stdout. With ``--trace-out`` the child first replaces the layer
functions named in :data:`LAYERS` with timing wrappers, at every module
or class attribute that refers to them, then calls the same entry point.
On exit it writes per-name totals (calls, inclusive and self seconds)
plus the program's own ``stats()`` counters to FILE as JSON. A server
started through ``cli serve`` writes its totals when SIGINT stops it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import types

#: (module, attribute path, trace name). Every module or class
#: attribute in ``repro.*`` that refers to the same function object is
#: replaced by one shared wrapper, so each call is counted once whichever
#: name the caller looks up.
LAYERS = (
    ("repro.distillation.factory", "evaluate_pipeline", "distillation.evaluate_pipeline"),
    ("repro.distillation.search", "TFactoryDesigner._catalog", "distillation.catalog"),
    ("repro.distillation.search", "TFactoryDesigner.design", "distillation.design"),
    ("repro.estimator.stages", "resolve_counts", "programs.resolve_counts"),
    ("repro.estimator.stages", "run_pipeline", "stages.run_pipeline"),
    ("repro.estimator.stages", "solve_code_distance_fixed_point", "stages.fixed_point"),
    ("repro.estimator.spec", "EstimateSpec.content_hash", "spec.content_hash"),
    ("repro.estimator.spec", "EstimateSpec.to_request", "spec.to_request"),
    ("repro.estimator.spec", "run_specs", "spec.run_specs"),
    ("repro.estimator.store", "ResultStore.get", "store.get"),
    ("repro.estimator.store", "ResultStore.put_many", "store.put_many"),
    ("repro.estimator.result", "PhysicalResourceEstimates.from_dict", "result.from_dict"),
    ("repro.estimator.result", "PhysicalResourceEstimates.to_dict", "result.to_dict"),
    ("repro.estimator.engine", "ExecutionEngine.run", "engine.run"),
    ("repro.estimator.sweep", "run_sweep", "sweep.run_sweep"),
    ("repro.estimator.sweep", "SweepResult.to_dict", "sweep.to_dict"),
)

#: Calls that frame a unit of work rather than belong to a layer: their
#: time is the denominator of coverage, never part of its numerator.
ENVELOPES = (
    ("repro.service", "EstimationService.submit", "service.submit"),
)

#: Modules imported before patching so their references get replaced.
MODULES = (
    "repro.cli",
    "repro.service",
    "repro.experiments",
    "repro.estimator.kernel",
    "repro.estimator.queue",
    "repro.estimator.optimize",
)


class Tracer:
    """Per-thread call stacks feeding per-name (calls, inclusive, self) totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[str, list[float]]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            table: dict[str, list[float]] = {}
            # A stack of [name, seconds spent in wrapped children].
            state = self._local.state = ([], table)
            with self._lock:
                self._tables.append(table)
        return state

    def wrap(self, func, name: str, *, envelope: bool = False, count_values: bool = False):
        tracer = self

        @functools.wraps(func)
        def timed(*args, **kwargs):
            stack, table = tracer._state()
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                value = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                row = table.setdefault(name, [0, 0.0, 0.0, 0])
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                # Coverage: time in the outermost layer call below any
                # envelope (or at the top of the stack).
                if not envelope and all(f[0] in ENVELOPE_NAMES for f in stack):
                    top = table.setdefault("trace.top", [0, 0.0, 0.0, 0])
                    top[0] += 1
                    top[1] += elapsed
            if count_values and value is not None:
                row[3] += 1
            return value

        return timed

    def totals(self) -> dict[str, list[float]]:
        merged: dict[str, list[float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, row in list(table.items()):
                into = merged.setdefault(name, [0, 0.0, 0.0, 0])
                for i, value in enumerate(row):
                    into[i] += value
        return merged


ENVELOPE_NAMES = frozenset(name for _, _, name in ENVELOPES)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> tuple[list, list]:
    """Patch every reference to the traced functions.

    Returns the memo tables and engines the process creates from then on
    (plus the shared memo table), for their ``stats()`` at exit.
    """
    for name in MODULES:
        importlib.import_module(name)
    for entries, envelope in ((LAYERS, False), (ENVELOPES, True)):
        for module_name, path, name in entries:
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(raw.__func__, name, envelope=envelope))
                setattr(owner, attr, wrapped)
                continue
            wrapped = tracer.wrap(
                raw,
                name,
                envelope=envelope,
                count_values=name == "distillation.evaluate_pipeline",
            )
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and (
                    module.__dict__.get(attr) is raw
                ):
                    setattr(module, attr, wrapped)

    # The CLI's --json output encoding: patch only the json module the
    # CLI looks up, so the program's other json calls stay unwrapped.
    import repro.cli

    cli_json = types.ModuleType("json")
    cli_json.__dict__.update(json.__dict__)
    cli_json.dumps = tracer.wrap(json.dumps, "cli.encode")
    repro.cli.json = cli_json

    # Register every memo table and engine so their stats() can be read
    # at exit; the shared cache predates the patch.
    from repro.estimator import batch, engine

    caches = [batch._SHARED_CACHE]
    engines: list = []
    post_init = batch.EstimateCache.__post_init__
    engine_init = engine.ExecutionEngine.__init__

    def cache_post_init(self, *args, **kwargs):
        post_init(self, *args, **kwargs)
        caches.append(self)

    def engine_post_init(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        engines.append(self)

    batch.EstimateCache.__post_init__ = cache_post_init
    engine.ExecutionEngine.__init__ = engine_post_init
    return caches, engines


def _sum_into(total: dict, part: dict) -> None:
    for key, value in part.items():
        if isinstance(value, bool) or value is None:
            continue
        if isinstance(value, dict):
            _sum_into(total.setdefault(key, {}), value)
        elif isinstance(value, (int, float)):
            total[key] = total.get(key, 0) + value


def _figures() -> int:
    from repro.experiments import run_fig3, run_fig4

    rows = [row.to_dict() for row in run_fig3()] + [row.to_dict() for row in run_fig4()]
    print(json.dumps(rows, sort_keys=True))
    return 0


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if not argv or argv[0] not in ("cli", "figures"):
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    registered = install(tracer) if trace_out else None
    start = time.perf_counter()
    try:
        if argv[0] == "figures":
            return _figures()
        from repro.cli import main as cli_main

        return cli_main(argv[1:])
    finally:
        window = time.perf_counter() - start
        if trace_out:
            caches, engines = registered
            cache_stats: dict = {}
            engine_stats: dict = {}
            for cache in caches:
                _sum_into(cache_stats, cache.stats())
            for eng in engines:
                _sum_into(engine_stats, eng.stats())
            with open(trace_out, "w") as handle:
                json.dump(
                    {
                        "window_s": window,
                        "calls": tracer.totals(),
                        "cache": cache_stats,
                        "engine": engine_stats,
                    },
                    handle,
                )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
