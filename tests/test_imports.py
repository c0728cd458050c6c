"""Import footprint: a pass imports only the modules it executes.

``repro``, ``repro.arithmetic``, ``repro.estimator`` and
``repro.experiments`` export their public names lazily (PEP 562), so a
Fig. 3/4 pass loads only the arithmetic it runs, and the CLI imports
optimize, QIR, advantage assessment, the service and the process pool
only on the paths that use them. Every check runs in a fresh
interpreter, so what it sees does not depend on what other tests
imported first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules no figure or sweep pass executes.
DEFERRED = (
    "repro.service",
    "repro.estimator.optimize",
    "repro.estimator.queue",
    "repro.estimator.frontier",
    "repro.estimator.kernel",
    "repro.qir",
    "repro.advantage",
    "repro.report",
    "concurrent.futures.process",
    "multiprocessing",
    "uuid",
    "numpy",
    "sqlite3",
)


def run_fresh(code: str, *args: str, cwd: Path | None = None) -> str:
    """Run ``code`` in a new interpreter on ``src``; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(statement: str) -> set[str]:
    return set(
        json.loads(
            run_fresh(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))")
        )
    )


@pytest.mark.parametrize(
    "module",
    ["repro.cli", "repro.experiments", "repro.experiments.fig3", "repro.experiments.fig4"],
)
def test_pass_entry_points_load_no_deferred_module(module):
    loaded = loaded_after(f"import {module}")
    assert module in loaded
    assert sorted(loaded.intersection(DEFERRED)) == []


#: Arithmetic and claims modules a Fig. 3/4 pass never executes.
FIGURE_DEFERRED = (
    "repro.arithmetic.modexp",
    "repro.arithmetic.modular",
    "repro.arithmetic.comparator",
    "repro.arithmetic.lookahead",
    "repro.experiments.claims",
)


def test_figure_pass_loads_only_the_arithmetic_it_runs():
    loaded = loaded_after(
        "from repro.experiments import run_fig3, run_fig4\nrun_fig3()\nrun_fig4()"
    )
    assert "repro.arithmetic.multipliers" in loaded
    assert sorted(loaded.intersection(FIGURE_DEFERRED)) == []
    assert sorted(loaded.intersection(DEFERRED)) == []


def test_import_repro_loads_no_submodule():
    loaded = loaded_after("import repro")
    assert sorted(name for name in loaded if name.startswith("repro.")) == [
        "repro._exports"
    ]


def test_sqlite3_loads_when_a_store_first_touches_its_database(tmp_path):
    loaded = json.loads(
        run_fresh(
            """
            import json, sys
            from repro import ResultStore

            store = ResultStore(sys.argv[1])
            store.get("ab" * 32)  # no database yet: nothing to open
            before = "sqlite3" in sys.modules
            store.put_sweep("ab" * 32, "{}")
            print(json.dumps([before, "sqlite3" in sys.modules]))
            """,
            str(tmp_path / "store"),
        )
    )
    assert loaded == [False, True]



def test_queue_service_start_on_a_fresh_root_opens_no_database(tmp_path):
    # `repro serve --store` resumes journaled jobs on every start; a root
    # with no database has none, and finding that out costs no file and
    # no sqlite3 import.
    result = json.loads(
        run_fresh(
            """
            import json, sys
            from pathlib import Path
            from repro import Registry, ResultStore
            from repro.estimator.engine import ExecutionPolicy
            from repro.service import EstimationService

            store = ResultStore(sys.argv[1])
            service = EstimationService(
                registry=Registry(),
                store=store,
                policy=ExecutionPolicy(executor="queue"),
            )
            requeued = service.recover_jobs()
            service.close(wait=True)
            print(json.dumps([
                requeued,
                Path(sys.argv[1]).exists(),
                "sqlite3" in sys.modules,
                "repro.estimator.queue" in sys.modules,
            ]))
            """,
            str(tmp_path / "store"),
        )
    )
    assert result == [0, False, False, False]

#: A service-shaped batch: rsa_2048 on four profiles, 16 budgets each.
SERVICE_BATCH = """
    import json, sys
    specs = [
        {"program": {"name": "rsa_2048"}, "qubit": {"profile": profile},
         "budget": budget}
        for budget in (3e-4, 5e-4, 8e-4, 1e-3, 2e-3, 3e-3, 5e-3, 8e-3,
                       1e-2, 1.2e-2, 1.4e-2, 4e-4, 6e-4, 7e-4, 9e-4, 1.5e-2)
        for profile in ("qubit_gate_ns_e3", "qubit_gate_ns_e4",
                        "qubit_maj_ns_e4", "qubit_maj_ns_e6")
    ]
    assert len(specs) == 64
"""

KERNEL_MODULES = ("numpy", "repro.estimator.kernel")


def test_service_batch_loads_no_numpy():
    loaded = json.loads(
        run_fresh(
            SERVICE_BATCH
            + """
    from repro.service import EstimationService

    records = EstimationService().submit({"specs": specs})["results"]
    assert len(records) == 64 and all(r["ok"] for r in records)
    print(json.dumps(sorted(sys.modules)))
    """
        )
    )
    assert sorted(set(loaded).intersection(KERNEL_MODULES)) == []


def test_default_estimate_batch_of_64_loads_no_numpy():
    loaded = json.loads(
        run_fresh(
            SERVICE_BATCH
            + """
    from repro import EstimateSpec, estimate_batch, default_registry

    registry = default_registry()
    requests = [EstimateSpec.from_dict(s).to_request(registry) for s in specs]
    assert all(o.ok for o in estimate_batch(requests))
    print(json.dumps(sorted(sys.modules)))
    """
        )
    )
    assert sorted(set(loaded).intersection(KERNEL_MODULES)) == []


def test_warm_sweep_never_imports_the_arithmetic_layer(tmp_path):
    sweep = {
        "base": {"program": {"name": "rsa_2048"}},
        "axes": [
            {"field": "qubit", "values": ["qubit_gate_ns_e3"]},
            # 1e-12 is infeasible: a stored error document must hit too.
            {"field": "budget", "values": [1e-3, 1e-4, 1e-12]},
        ],
    }
    (tmp_path / "sweep.json").write_text(json.dumps(sweep))
    code = """
        import contextlib, io, json, sys
        from repro.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["sweep", "sweep.json", "--store", "store", "--json"])
        layers = sorted(
            name for name in sys.modules
            if name.split(".")[:2] in (["repro", "arithmetic"], ["repro", "ir"])
        )
        print(json.dumps({"code": code, "layers": layers, "out": out.getvalue()}))
    """
    cold = json.loads(run_fresh(code, cwd=tmp_path))
    warm = json.loads(run_fresh(code, cwd=tmp_path))
    assert cold["code"] == warm["code"] == 1  # one infeasible point
    assert "repro.arithmetic" in cold["layers"]  # the cold pass resolves counts
    assert warm["layers"] == []
    assert warm["out"] == cold["out"]


#: Modules a sweep answered from its stored row never runs: the
#: evaluation engine, the T-factory code, the result model and layout.
ROW_DEFERRED = (
    "repro.estimator.batch",
    "repro.estimator.stages",
    "repro.distillation",
    "repro.estimator.result",
    "repro.layout",
)


def test_sweep_answered_from_its_row_imports_no_evaluation_engine(tmp_path):
    sweep = {
        "base": {
            "program": {"counts": {"num_qubits": 40, "t_count": 20000}},
            "qubit": {"profile": "qubit_gate_ns_e3"},
        },
        "axes": [{"field": "budget", "values": [1e-3, 1e-4]}],
    }
    (tmp_path / "sweep.json").write_text(json.dumps(sweep))
    code = """
        import contextlib, io, json, sys
        from repro.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["sweep", "sweep.json", "--store", "store", "--json"])
        print(json.dumps({"code": code, "out": out.getvalue(), "loaded": sorted(
            name for name in sys.modules if name.startswith("repro.")
        )}))
    """
    cold = json.loads(run_fresh(code, cwd=tmp_path))
    warm = json.loads(run_fresh(code, cwd=tmp_path))
    assert cold["code"] == warm["code"] == 0 and warm["out"] == cold["out"]
    assert set(ROW_DEFERRED) <= set(cold["loaded"])
    assert sorted(set(warm["loaded"]).intersection(ROW_DEFERRED)) == []
    assert not any(name.startswith("repro.distillation.") for name in warm["loaded"])


def test_exports_are_the_defining_objects():
    run_fresh(
        """
        import importlib, inspect
        import repro, repro.arithmetic, repro.estimator, repro.experiments

        for package in (
            repro, repro.arithmetic, repro.estimator, repro.experiments
        ):
            table = package._EXPORTS
            assert package.__all__ == sorted(n for names in table.values() for n in names)
            for module, names in table.items():
                defining = importlib.import_module(f"{package.__name__}.{module}")
                for name in names:
                    value = getattr(package, name)
                    assert value is getattr(defining, name), (package, name)
                    assert package.__dict__[name] is value  # cached once resolved
                    if inspect.isclass(value) or inspect.isfunction(value):
                        owner = importlib.import_module(value.__module__)
                        assert getattr(owner, name) is value, (package, name)
        """
    )


def test_dir_star_import_and_unknown_names():
    run_fresh(
        """
        import repro, repro.arithmetic, repro.estimator, repro.experiments

        for package in (
            repro, repro.arithmetic, repro.estimator, repro.experiments
        ):
            assert set(package.__all__) <= set(dir(package))
            namespace = {}
            exec(f"from {package.__name__} import *", namespace)
            assert set(package.__all__) <= set(namespace)
            for name in package.__all__:
                assert namespace[name] is getattr(package, name)
            try:
                package.no_such_name
            except AttributeError as exc:
                expected = f"module {package.__name__!r} has no attribute 'no_such_name'"
                assert str(exc) == expected, str(exc)
            else:
                raise AssertionError("unknown attribute resolved")
            try:
                exec(f"from {package.__name__} import no_such_name", {})
            except ImportError:
                pass
            else:
                raise AssertionError("unknown name imported")
        """
    )


def test_default_registry_same_after_lazy_and_full_import():
    describe = (
        "import json\nimport repro\n{imports}\n"
        "print(json.dumps(repro.default_registry().describe(), sort_keys=True))"
    )
    every_module = """
import pkgutil, importlib
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
"""
    lazy = run_fresh(describe.format(imports=""))
    full = run_fresh(describe.format(imports=every_module))
    assert json.loads(lazy) and lazy == full


def test_every_subcommand_help_exits_zero():
    run_fresh(
        """
        import contextlib, io
        from repro.cli import SUBCOMMANDS, main

        for argv in [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                try:
                    main(argv)
                except SystemExit as exc:
                    assert exc.code == 0, (argv, exc.code)
                else:
                    raise AssertionError(f"{argv} did not exit")
            assert "usage:" in out.getvalue(), argv
        """
    )
