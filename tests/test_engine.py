"""Tests for the persistent execution engine (``estimator/engine.py``).

The load-bearing assertions extend the PR 4/7 equality properties to
pool reuse and mid-run worker death: a chunked sweep driven through one
persistent pool — including a pool whose worker dies mid-chunk — produces
results and stored documents bit-for-bit equal to a serial run. The
engine changes *where processes are spawned*, never *what is computed*.

Worker death is deterministic: the one-shot ``engine-chunk`` kill-point
(armed through ``REPRO_QUEUE_FAULT``) makes the first pool worker to
start a chunk exit, instead of racing ``os.kill`` against pool internals.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import pytest
import store_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LogicalCounts, Registry, ResultStore
from repro.estimator.batch import EstimateCache
from repro.estimator.engine import (
    DEFAULT_MAX_REBUILDS,
    ExecutionEngine,
    ExecutionPolicy,
)
from repro.estimator.queue import ENGINE_FAULT_STAGE, FAULT_ENV
from repro.estimator.spec import EstimateSpec, run_specs
from repro.estimator.sweep import SweepSpec, run_sweep

COUNTS = LogicalCounts(
    num_qubits=40, t_count=20_000, ccz_count=5_000, measurement_count=500
)

SWEEP_DOC = {
    "base": {"program": {"counts": COUNTS.to_dict()}},
    "axes": [
        {"field": "budget", "values": [1e-4, 1e-3, 1e-2]},
        {"field": "qubit", "values": ["qubit_gate_ns_e3", "qubit_maj_ns_e4"]},
    ],
    "frontier": {"objective": "qubits-runtime", "groupBy": ["qubit"]},
}


def small_sweep() -> SweepSpec:
    return SweepSpec.from_dict(json.loads(json.dumps(SWEEP_DOC)))


def some_specs(budgets=(1e-4, 1e-3, 1e-2, 1e-5)) -> list[EstimateSpec]:
    return [
        EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3", budget=budget)
        for budget in budgets
    ]


def portable(outcomes) -> list:
    return [
        outcome.result.to_dict() if outcome.result is not None else outcome.error
        for outcome in outcomes
    ]


@contextlib.contextmanager
def worker_dies_once(marker_dir: Path):
    """Arm the one-shot kill-point: the first pool worker to start a chunk
    exits, and every later chunk (the replay included) runs. Engines must
    spawn their pool inside the block — workers inherit the environment
    when they fork. Yields the marker file the dying worker creates."""
    marker = marker_dir / "worker-died"
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(FAULT_ENV, f"{ENGINE_FAULT_STAGE}:{marker}")
        yield marker


class TestEngineLifecycle:
    def test_pool_spawned_once_across_runs(self):
        registry = Registry()
        serial = portable(
            run_specs(some_specs(), registry=registry, cache=EstimateCache())
        )
        with ExecutionEngine(max_workers=2) as engine:
            first = run_specs(
                some_specs(),
                registry=registry,
                cache=EstimateCache(),
                max_workers=2,
                engine=engine,
            )
            second = run_specs(
                some_specs(),
                registry=registry,
                cache=EstimateCache(),
                max_workers=2,
                engine=engine,
            )
            stats = engine.stats()
        assert portable(first) == serial
        assert portable(second) == serial
        assert stats["poolSpawns"] == 1
        assert stats["runs"] == 2
        assert stats["chunksDispatched"] >= 2
        assert stats["rebuilds"] == 0

    def test_single_worker_engine_never_spawns_a_pool(self):
        registry = Registry()
        serial = portable(
            run_specs(some_specs(), registry=registry, cache=EstimateCache())
        )
        with ExecutionEngine(max_workers=1) as engine:
            outcomes = run_specs(
                some_specs(),
                registry=registry,
                cache=EstimateCache(),
                engine=engine,
            )
            assert engine.stats()["poolSpawns"] == 0
        assert portable(outcomes) == serial

    def test_close_is_idempotent_and_stats_survive(self):
        engine = ExecutionEngine(max_workers=2)
        engine.close()
        engine.close()
        stats = engine.stats()
        assert stats["workersAlive"] == 0
        assert stats["maxWorkers"] == 2

    def test_closed_engine_refuses_parallel_work(self):
        engine = ExecutionEngine(max_workers=2)
        engine.close()
        registry = Registry()
        with pytest.raises(RuntimeError, match="closed"):
            run_specs(
                some_specs(),
                registry=registry,
                cache=EstimateCache(),
                engine=engine,
            )

    def test_rejects_bad_max_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            ExecutionEngine(max_workers=0)

    def test_stats_shape(self):
        with ExecutionEngine(max_workers=2) as engine:
            engine.note_chunk_size(7)
            stats = engine.stats()
        assert set(stats) == {
            "maxWorkers",
            "workersAlive",
            "poolSpawns",
            "rebuilds",
            "chunksDispatched",
            "chunksReplayed",
            "points",
            "runs",
            "lastChunkSize",
        }
        assert stats["lastChunkSize"] == 7


class TestExecutionPolicy:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("workers", 0),
            ("workers", True),
            ("executor", "cloud"),
            ("executor", "auto"),
            ("chunk_size", 0),
            ("lease_ttl", 0.0),
            ("lease_ttl", -1.0),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExecutionPolicy(**{field: value})

    def test_defaults_are_serial_and_local(self):
        policy = ExecutionPolicy()
        assert (policy.workers, policy.executor, policy.chunk_size) == (
            1,
            "local",
            None,
        )
        assert policy.lease_ttl > 0


class TestWorkerDeathChaos:
    def test_sigkill_mid_run_rebuilds_and_matches_serial(self, tmp_path):
        registry = Registry()
        specs = some_specs((1e-4, 1e-3, 1e-2, 1e-5, 1e-6, 3e-4))
        serial = portable(
            run_specs(list(specs), registry=registry, cache=EstimateCache())
        )
        with worker_dies_once(tmp_path) as marker:
            with ExecutionEngine(max_workers=2) as engine:
                outcomes = run_specs(
                    list(specs),
                    registry=registry,
                    cache=EstimateCache(),
                    engine=engine,
                )
                stats = engine.stats()
        assert marker.exists()
        assert portable(outcomes) == serial
        assert stats["rebuilds"] == 1
        assert stats["chunksReplayed"] >= 1

    def test_sigkill_mid_sweep_store_bytes_equal_serial(self, tmp_path):
        registry = Registry()
        serial_store = ResultStore(tmp_path / "serial")
        baseline = run_sweep(
            small_sweep(),
            registry=registry,
            store=serial_store,
            cache=EstimateCache(),
            policy=ExecutionPolicy(chunk_size=2),
        )
        chaos_store = ResultStore(tmp_path / "chaos")
        with worker_dies_once(tmp_path) as marker:
            with ExecutionEngine(max_workers=2) as engine:
                survivor = run_sweep(
                    small_sweep(),
                    registry=registry,
                    store=chaos_store,
                    cache=EstimateCache(),
                    policy=ExecutionPolicy(chunk_size=2),
                    engine=engine,
                )
                stats = engine.stats()
        assert marker.exists()
        assert stats["rebuilds"] == 1
        assert survivor.to_dict() == baseline.to_dict()
        assert store_rows.documents(chaos_store) == store_rows.documents(serial_store)

    def test_rebuild_budget_degrades_to_serial_not_forever(self, tmp_path):
        # Once the rebuild budget is spent the engine must not keep
        # respawning: it finishes serially with correct results and
        # records an executor fallback.
        registry = Registry()
        specs = some_specs()
        serial = portable(
            run_specs(list(specs), registry=registry, cache=EstimateCache())
        )
        cache = EstimateCache()
        with worker_dies_once(tmp_path):
            with ExecutionEngine(max_workers=2, max_rebuilds=1) as engine:
                outcomes = run_specs(
                    list(specs), registry=registry, cache=cache, engine=engine
                )
                stats = engine.stats()
        assert portable(outcomes) == serial
        assert stats["rebuilds"] == 1
        executor = cache.stats()["executor"]
        assert executor["serialFallbacks"] == 1
        assert executor["lastFallbackReason"] == "pool-broken"
        assert DEFAULT_MAX_REBUILDS >= 1


class TestExecutionEquivalenceProperty:
    @settings(deadline=None, max_examples=3)
    @given(
        budgets=st.lists(
            st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5, 1e-6]),
            min_size=3,
            max_size=6,
            unique=True,
        )
    )
    def test_serial_persistent_killed_store_identical(
        self, tmp_path_factory, budgets
    ):
        registry = Registry()
        doc = {
            "base": {
                "program": {"counts": COUNTS.to_dict()},
                "qubit": {"profile": "qubit_gate_ns_e3"},
            },
            "axes": [{"field": "budget", "values": list(budgets)}],
        }
        stores: dict[str, ResultStore] = {}

        def sweep_into(name: str, **kwargs) -> dict:
            store = ResultStore(tmp_path_factory.mktemp(name))
            stores[name] = store
            result = run_sweep(
                SweepSpec.from_dict(json.loads(json.dumps(doc))),
                registry=registry,
                store=store,
                cache=EstimateCache(),
                policy=ExecutionPolicy(chunk_size=2),
                **kwargs,
            )
            return result.to_dict()

        serial = sweep_into("serial")
        with ExecutionEngine(max_workers=2) as engine:
            persistent = sweep_into("persistent", engine=engine)
        with worker_dies_once(tmp_path_factory.mktemp("marker")) as marker:
            with ExecutionEngine(max_workers=2) as engine:
                after_kill = sweep_into("killed", engine=engine)
        assert marker.exists()
        assert persistent == serial
        assert after_kill == serial
        baseline_docs = store_rows.documents(stores["serial"])
        for name in ("persistent", "killed"):
            assert store_rows.documents(stores[name]) == baseline_docs, name
