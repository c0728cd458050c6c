"""Tests for the content-addressed persistent result store."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
import store_rows

from repro import (
    Constraints,
    EstimateCache,
    LogicalCounts,
    Registry,
    ResultStore,
    estimate,
    qubit_params,
)
from repro.estimator.queue import collect_garbage
from repro.jsonlog import dumps_indented
from repro.estimator.spec import EstimateSpec, run_specs
from repro.estimator.store import (
    CHUNKS_TABLE,
    DATABASE_NAME,
    EVICTION_HEADROOM,
    JOBS_TABLE,
    StoredOutcome,
    RESULT_SCHEMA,
    STORE_ENV_VAR,
    default_store_root,
)

COUNTS = LogicalCounts(num_qubits=40, t_count=50_000, measurement_count=500)
HASH_A = "ab" + "0" * 62
HASH_B = "cd" + "1" * 62


@pytest.fixture()
def result():
    return estimate(COUNTS, qubit_params("qubit_gate_ns_e3"))


class TestPutGet:
    def test_round_trip(self, tmp_path, result):
        store = ResultStore(tmp_path)
        assert store.put(HASH_A, result, spec={"label": "x"})
        assert store.get(HASH_A) == result
        assert HASH_A in store
        assert list(store.keys()) == [HASH_A]
        assert len(store) == 1

    def test_missing_is_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(HASH_A) is None
        assert HASH_A not in store

    def test_document_embeds_spec_and_schema(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result, spec={"label": "x"})
        document = store.get_raw(HASH_A)
        assert document["schema"] == RESULT_SCHEMA
        assert document["specHash"] == HASH_A
        assert document["spec"] == {"label": "x"}
        assert document["result"] == result.to_dict()

    def test_rewrite_is_idempotent(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        store.put(HASH_A, result)
        assert len(store) == 1
        assert store.get(HASH_A) == result

    def test_database_layout(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        assert store.database == tmp_path / DATABASE_NAME
        assert store.database.is_file()
        row = store_rows.row(store, HASH_A)
        assert set(row) == {"key", "digest", "size", "written_at", "body"}
        assert row["size"] == len(row["body"])

    def test_malformed_hash_rejected(self, tmp_path, result):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="malformed"):
            store.read("results", "../../etc/passwd")
        with pytest.raises(ValueError, match="malformed"):
            store.get("")
        with pytest.raises(ValueError, match="malformed"):
            store.put("../evil", result)

    def test_no_temp_files_left_behind(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        store.put(HASH_B, result)
        names = {path.name for path in tmp_path.rglob("*")}
        assert names <= {DATABASE_NAME, f"{DATABASE_NAME}-wal", f"{DATABASE_NAME}-shm"}


class TestRobustness:
    def test_corrupt_file_reads_as_miss(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        store_rows.update(store, HASH_A, body=b"{not json")
        assert store.get(HASH_A) is None
        # Unparseable even with a matching digest.
        digest = hashlib.sha256(b"{not json").hexdigest()
        store_rows.update(store, HASH_A, digest=digest)
        assert ResultStore(tmp_path).get(HASH_A) is None

    def test_wrong_schema_tag_is_invisible(self, tmp_path, result):
        old = ResultStore(tmp_path, schema="repro-result-v0")
        old.put(HASH_A, result)
        current = ResultStore(tmp_path)
        assert current.get(HASH_A) is None
        assert len(current) == 0
        # And vice versa: the old namespace still reads its own entry.
        assert old.get(HASH_A) == result

    def test_mismatched_hash_inside_document_is_a_miss(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        document = json.loads(store_rows.body(store, HASH_A))
        document["specHash"] = HASH_B
        store_rows.plant(store, HASH_A, document)
        assert store.get(HASH_A) is None

    def test_unwritable_root_degrades_to_noop(self, tmp_path, result):
        # A root whose parent is a regular file can never be created
        # (works even when the suite runs as root, unlike chmod tricks).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        store = ResultStore(blocker / "store")
        assert store.put(HASH_A, result) is False
        assert store.get(HASH_A) is None

    def test_clear(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        store.put(HASH_B, result)
        assert store.clear() == 2
        assert len(store) == 0


class TestIntegrityDigest:
    def test_documents_carry_a_verified_digest(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        row = store_rows.row(store, HASH_A)
        assert row["digest"] == hashlib.sha256(row["body"]).hexdigest()
        assert store.get_raw(HASH_A)["digest"] == row["digest"]

    def test_written_bytes_are_the_compact_encoding(self, tmp_path, result):
        # The body is exactly the compact json.dumps of the document: the
        # format corruption checks rely on.
        store = ResultStore(tmp_path)
        store.put(HASH_A, result, spec={"label": "x"})
        document = {
            "schema": RESULT_SCHEMA,
            "specHash": HASH_A,
            "spec": {"label": "x"},
            "result": result.to_dict(),
        }
        expected = json.dumps(document, separators=(",", ":"))
        assert store_rows.body(store, HASH_A) == expected.encode()

    def test_pre_digest_document_reads_as_miss(self, tmp_path, result):
        # A row without a valid digest must never be served.
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        store_rows.update(store, HASH_A, digest="")
        assert store.get(HASH_A) is None

    def test_sweep_namespace_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        document = {"counts": {"total": 2, "ok": 2, "failed": 0}, "points": []}
        assert store.put_sweep(HASH_A, dumps_indented(document))
        assert store.get_sweep(HASH_A) == document
        assert store.get_sweep(HASH_B) is None
        # Sweep documents are invisible to the result namespace.
        assert store.get(HASH_A) is None
        assert len(store) == 0

    def test_sweep_namespace_rejects_malformed_hash(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="malformed"):
            store.get_sweep("../evil")


class TestCorruptionFuzz:
    """Seeded fuzz: any damaged store file is a miss, then recomputed.

    Truncations and byte flips must either break the JSON parse or fail
    the integrity digest — a corrupted result is *never* served. The
    end-to-end half asserts :func:`run_specs` treats the corruption as a
    miss, recomputes the point, and heals the store.
    """

    SPEC = EstimateSpec(
        program=LogicalCounts(num_qubits=30, t_count=10_000, measurement_count=200),
        qubit="qubit_gate_ns_e3",
    )

    @pytest.fixture()
    def warmed(self, tmp_path):
        store = ResultStore(tmp_path)
        registry = Registry()
        outcome = run_specs([self.SPEC], registry=registry, store=store)[0]
        assert outcome.ok and not outcome.from_store
        return store, registry, outcome, store_rows.body(store, outcome.spec_hash)

    @staticmethod
    def _corrupt(pristine: bytes, rng: random.Random) -> bytes:
        if rng.random() < 0.5:
            cut = rng.randrange(0, len(pristine))  # truncate (maybe to empty)
            return pristine[:cut]
        index = rng.randrange(0, len(pristine))
        old = pristine[index]
        new = rng.choice([b for b in range(256) if b != old])
        return pristine[:index] + bytes([new]) + pristine[index + 1 :]

    @pytest.mark.parametrize("seed", range(25))
    def test_every_corruption_reads_as_a_miss(self, warmed, seed):
        store, _, outcome, pristine = warmed
        rng = random.Random(seed)
        store_rows.update(store, outcome.spec_hash, body=self._corrupt(pristine, rng))
        assert store.get(outcome.spec_hash) is None, (
            f"seed {seed}: corrupted document was served"
        )
        assert store.get_raw(outcome.spec_hash) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_corrupted_points_are_recomputed_and_healed(self, warmed, seed):
        store, registry, outcome, pristine = warmed
        rng = random.Random(1000 + seed)
        store_rows.update(store, outcome.spec_hash, body=self._corrupt(pristine, rng))
        again = run_specs([self.SPEC], registry=registry, store=store)[0]
        assert again.ok
        assert again.from_store is False, "a corrupt entry must not be served"
        assert again.result.to_dict() == outcome.result.to_dict()
        # The store healed: the recomputed document verifies again.
        assert store.get(outcome.spec_hash) is not None

    def test_byte_flip_in_embedded_spec_metadata_is_detected(self, warmed):
        # The digest covers the whole document, not just the result: a
        # flip inside the debug 'spec' section also reads as a miss.
        store, _, outcome, pristine = warmed
        index = pristine.index(b'"spec"') + len(b'"spec"') + 4
        flipped = pristine[:index] + bytes([pristine[index] ^ 0x01]) + pristine[index + 1 :]
        store_rows.update(store, outcome.spec_hash, body=flipped)
        assert store.get_raw(outcome.spec_hash) is None


class TestStatsAndGc:
    """Operator visibility (`stats`) and queue-row reclamation (`gc`)."""

    @pytest.fixture()
    def store(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        return store

    def test_stats_counts_every_namespace(self, store):
        stats = store.stats()
        assert stats["namespaces"]["results"]["documents"] == 1
        assert stats["namespaces"]["results"]["bytes"] > 0
        for name in ("sweeps", "counts", "optimize", "queue", "jobs"):
            assert stats["namespaces"][name]["documents"] == 0
        assert stats["namespaces"]["jobs"]["schema"] == "repro-jobs-v2"
        assert stats["namespaces"]["queue"]["schema"] == "repro-queue-v2"
        assert "orphans" not in stats  # the store writes no file to orphan

    def test_stats_reads_every_namespace_with_one_query(self, store):
        class Spy:
            def __init__(self, db):
                self.db = db
                self.statements = []

            def execute(self, statement, *args):
                self.statements.append(statement)
                return self.db.execute(statement, *args)

            def __getattr__(self, name):
                return getattr(self.db, name)

        with store._database() as db:
            spy = Spy(db)
        store._db = spy
        try:
            namespaces = store.stats()["namespaces"]
        finally:
            store._db = spy.db
        assert len(spy.statements) == 1
        assert set(namespaces) == {
            "results", "sweeps", "counts", "optimize", "queue", "jobs"
        }

    def test_stats_reads_the_disk_on_every_call(self, store, result):
        assert store.stats()["namespaces"]["results"]["documents"] == 1
        store.put(HASH_B, result)
        ResultStore(store.root).put("ef" + "2" * 62, result)  # "another process"
        assert store.stats()["namespaces"]["results"]["documents"] == 3

    def test_gc_on_a_fresh_root_creates_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "fresh")
        assert collect_garbage(store) == {"removedChunks": 0}
        assert not store.root.exists()


class TestGcQueueRecords:
    """gc deletes a finished queue job's chunk rows, in one statement."""

    SWEEP = {
        "base": {
            "program": {"counts": COUNTS.to_dict()},
            "qubit": {"profile": "qubit_gate_ns_e3"},
        },
        "axes": [
            {"field": "budget", "geom": {"start": 1e-6, "factor": 3, "count": 8}}
        ],
        "chunkSize": 2,
    }

    def _queue_sweep(self, store):
        from repro.estimator.engine import ExecutionPolicy
        from repro.estimator.sweep import SweepSpec, run_sweep

        return run_sweep(
            SweepSpec.from_dict(self.SWEEP),
            registry=Registry(),
            store=store,
            policy=ExecutionPolicy(executor="queue"),
        )

    def test_finished_job_records_collected_and_rerun_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        first = self._queue_sweep(store)
        assert len(first.points) == 8
        assert store.stats()["namespaces"]["queue"]["documents"] == 4
        sweep_bytes = store_rows.body(store, first.sweep_hash, "sweeps")

        assert collect_garbage(store) == {"removedChunks": 4}
        assert collect_garbage(store) == {"removedChunks": 0}
        assert store.stats()["namespaces"]["queue"]["documents"] == 0
        # The journal and the sweep row answer the re-run.
        assert store.stats()["namespaces"]["jobs"]["documents"] == 1
        again = self._queue_sweep(store)
        assert store_rows.body(store, first.sweep_hash, "sweeps") == sweep_bytes
        assert json.dumps(again.to_dict()) == json.dumps(first.to_dict())
        # A rerun answered by its row enqueues nothing.
        assert store.stats()["namespaces"]["queue"]["documents"] == 0

    def test_unfinished_job_keeps_its_records(self, tmp_path):
        from repro.estimator.queue import SweepQueue
        from repro.estimator.sweep import SweepSpec

        store = ResultStore(tmp_path)
        SweepQueue(store).enqueue(SweepSpec.from_dict(self.SWEEP), registry=Registry())
        assert collect_garbage(store) == {"removedChunks": 0}
        assert store.stats()["namespaces"]["queue"]["documents"] == 4

    def test_job_without_its_sweep_row_keeps_its_records(self, tmp_path):
        store = ResultStore(tmp_path)
        first = self._queue_sweep(store)
        store_rows.delete(store, first.sweep_hash, "sweeps")
        assert collect_garbage(store) == {"removedChunks": 0}
        assert store.stats()["namespaces"]["queue"]["documents"] == 4
        assert self._queue_sweep(store).to_dict() == first.to_dict()


class TestEviction:
    """Oldest-written-first eviction bounds the store's disk use."""

    def _put_aged(self, store, result, hashes, *, step_s=100.0):
        """Documents with strictly increasing write times (oldest first)."""
        import time

        base = time.time() - step_s * (len(hashes) + 1)
        for index, spec_hash in enumerate(hashes):
            store.put(spec_hash, result)
            store_rows.update(store, spec_hash, written_at=base + index * step_s)

    def _document_bytes(self, store):
        namespaces = store.stats()["namespaces"]
        return sum(
            namespaces[name]["bytes"] for name in store.EVICTABLE_NAMESPACES
        )

    def test_evicts_oldest_first_down_to_the_budget(self, tmp_path, result):
        store = ResultStore(tmp_path)
        # Written newest key first, so key order alone would pick wrong.
        hashes = [f"{i:02x}" + "0" * 62 for i in reversed(range(4))]
        self._put_aged(store, result, hashes)
        size = store_rows.row(store, hashes[0])["size"]
        report = store.evict(max_bytes=2 * size)
        assert report["evictedDocuments"] == 2
        assert report["remainingBytes"] <= 2 * size
        assert store.get(hashes[0]) is None  # oldest two gone
        assert store.get(hashes[1]) is None
        assert store.get(hashes[2]) == result  # newest two kept
        assert store.get(hashes[3]) == result
        assert store.stats()["evictions"]["documents"] == 2

    def test_under_budget_is_a_no_op(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        report = store.evict(max_bytes=10**9)
        assert report["evictedDocuments"] == 0
        assert store.get(HASH_A) == result

    def test_never_touches_queue_leases_or_journal(self, tmp_path, result):
        from repro.estimator.queue import SweepQueue
        from repro.estimator.sweep import SweepSpec

        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        queue = SweepQueue(store, owner="w1")
        job = queue.enqueue(
            SweepSpec.from_dict(TestGcQueueRecords.SWEEP), registry=Registry()
        )
        lease = queue.claim(job.job_id, 0)
        report = store.evict(max_bytes=0)
        assert store.get(HASH_A) is None  # documents evicted...
        # ...the crash-safety rows are untouched.
        assert queue.load_job(job.job_id).spec.to_dict() == job.spec.to_dict()
        assert queue.lease_holder(job.job_id, 0)["deadline"] == lease.deadline
        assert store.stats()["namespaces"]["queue"]["documents"] == 4
        assert report["remainingBytes"] == 0

    def test_memory_cache_entries_die_with_their_documents(
        self, tmp_path, result
    ):
        # Regression: the PR 8 read-through LRU must not serve a
        # document eviction removed from disk.
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        assert store.get(HASH_A) == result  # populates the memory cache
        assert store.get(HASH_A) == result  # cache hit
        assert store.memory_cache_stats()["results"]["hits"] >= 1
        store.evict(max_bytes=0)
        assert store.get(HASH_A) is None  # miss, never a stale cache hit

    def test_counts_memory_cache_invalidated_too(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ee" + "2" * 62
        store.put_counts(key, COUNTS)
        assert store.get_counts(key) == COUNTS
        store.evict(max_bytes=0)
        assert store.get_counts(key) is None

    def test_max_bytes_store_stays_bounded_across_writes(
        self, tmp_path, result
    ):
        probe = ResultStore(tmp_path / "probe")
        probe.put(HASH_A, result)
        size = store_rows.row(probe, HASH_A)["size"]
        budget = 3 * size + size // 2
        store = ResultStore(tmp_path / "bounded", max_bytes=budget)
        hashes = [f"{i:02x}" + "3" * 62 for i in range(8)]
        for spec_hash in hashes:
            store.put(spec_hash, result)
            assert self._document_bytes(store) <= budget
        # The newest document always survives its own write.
        assert store.get(hashes[-1]) == result

    def test_fill_evict_cycles_reuse_the_files(self, tmp_path, result):
        # Each cycle writes four budgets' worth of new documents in sweep
        # sized chunks, evicting as it goes, then evicts explicitly: the
        # first cycle already runs the store at its budget, so no later
        # cycle may need more disk than the first one's high-water mark.
        probe = ResultStore(tmp_path / "probe")
        probe.put(HASH_A, result)
        budget = 40 * store_rows.row(probe, HASH_A)["size"]
        store = ResultStore(tmp_path / "bounded", max_bytes=budget)
        files = [store.database, store.database.with_name(DATABASE_NAME + "-wal")]

        def disk() -> int:
            return sum(path.stat().st_size for path in files if path.exists())

        marks = []
        for cycle in range(10):
            mark = 0
            for start in range(0, 160, 16):
                store.put_many(
                    (hashlib.sha256(f"{cycle}/{i}".encode()).hexdigest(), result, {"i": i})
                    for i in range(start, start + 16)
                )
                mark = max(mark, disk())
            store.evict(max_bytes=budget)
            marks.append(max(mark, disk()))
            assert self._document_bytes(store) <= budget
        assert max(marks[1:]) <= marks[0], marks

    def test_bounded_writes_scan_once_per_headroom(self, tmp_path, result):
        # Past its budget a store prunes to EVICTION_HEADROOM below it, so
        # the eviction scan and WAL checkpoint run once per that many
        # bytes written, not on every chunk that lands at the budget.
        probe = ResultStore(tmp_path / "probe")
        probe.put(HASH_A, result)
        size = store_rows.row(probe, HASH_A)["size"]
        budget = 400 * size
        store = ResultStore(tmp_path / "bounded", max_bytes=budget)
        store.put(HASH_A, result)  # opens the connection to trace
        statements: list[str] = []
        store._connection(create=True).set_trace_callback(statements.append)
        for start in range(0, 2000, 16):
            store.put_many(
                (hashlib.sha256(str(i).encode()).hexdigest(), result, None)
                for i in range(start, start + 16)
            )
            assert self._document_bytes(store) <= budget
        scans = sum("ORDER BY written_at" in sql for sql in statements)
        checkpoints = sum("wal_checkpoint" in sql for sql in statements)
        # Pruning to exactly the budget scanned on each of the ~100
        # chunks written after the store first filled.
        assert 1 <= checkpoints <= scans <= 2001 / (EVICTION_HEADROOM * 400) + 1
        assert store.eviction_stats()["documents"] == 2001 - len(store)
        assert store.get(hashlib.sha256(b"1999").hexdigest()) == result

    def test_evict_without_budget_is_an_error(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="budget"):
            store.evict()
        with pytest.raises(ValueError, match=">= 0"):
            store.evict(max_bytes=-1)


class TestDefaultRoot:
    def test_env_var_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "custom"))
        assert default_store_root() == tmp_path / "custom"
        assert ResultStore().root == tmp_path / "custom"

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        root = default_store_root()
        assert root.name == "store"
        assert "repro" in str(root)


class TestMemoryCache:
    """The bounded in-process read-through LRU in front of get()."""

    def test_put_never_populates_the_cache(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        assert store.memory_cache_stats()["results"]["entries"] == 0

    def test_second_read_is_a_memory_hit(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        assert store.get(HASH_A) == result  # disk read, then cached
        assert store.get(HASH_A) == result  # served from memory
        assert store.memory_cache_stats()["results"] == {
            "hits": 1,
            "misses": 1,
            "entries": 1,
        }

    def test_cached_entry_outlives_disk_corruption(self, tmp_path, result):
        # Documents are immutable (same hash, same bytes), so a value
        # that passed the integrity digest once may be served from
        # memory even after the file is damaged behind our back.
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        assert store.get(HASH_A) == result
        store_rows.update(store, HASH_A, body=b"{not json")
        assert store.get(HASH_A) == result
        # A fresh store (fresh cache) sees the corruption as a miss.
        assert ResultStore(tmp_path).get(HASH_A) is None

    def test_eviction_respects_capacity(self, tmp_path, result):
        store = ResultStore(tmp_path, cache_size=1)
        store.put(HASH_A, result)
        store.put(HASH_B, result)
        assert store.get(HASH_A) is not None
        assert store.get(HASH_B) is not None  # evicts HASH_A
        stats = store.memory_cache_stats()
        assert stats["capacity"] == 1
        assert stats["results"]["entries"] == 1
        assert store.get(HASH_A) is not None  # re-read from disk
        assert store.memory_cache_stats()["results"]["hits"] == 0

    def test_zero_capacity_disables_memory_caching(self, tmp_path, result):
        store = ResultStore(tmp_path, cache_size=0)
        store.put(HASH_A, result)
        assert store.get(HASH_A) == result
        assert store.get(HASH_A) == result
        assert store.memory_cache_stats()["results"]["entries"] == 0
        assert store.memory_cache_stats()["results"]["hits"] == 0

    def test_clear_drops_the_memory_cache_too(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        assert store.get(HASH_A) == result
        assert store.clear() == 1
        assert store.get(HASH_A) is None

    def test_counts_namespace_is_cached_independently(self, tmp_path):
        store = ResultStore(tmp_path)
        counts = LogicalCounts(num_qubits=3, t_count=10)
        store.put_counts(HASH_A, counts, backend="counting")
        assert store.get_counts(HASH_A) == counts
        assert store.get_counts(HASH_A) == counts
        stats = store.memory_cache_stats()
        assert stats["counts"] == {"hits": 1, "misses": 1, "entries": 1}
        assert stats["results"]["entries"] == 0

    def test_store_stats_embeds_memory_cache_block(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        store.get(HASH_A)
        block = store.stats()["memoryCache"]
        assert set(block) == {"capacity", "results", "counts"}
        assert block["results"]["entries"] == 1


def _key(index: int) -> str:
    return hashlib.sha256(str(index).encode()).hexdigest()


def _same_outcome(one: StoredOutcome | None, other: StoredOutcome | None) -> bool:
    if one is None or other is None:
        return one is other
    return (one.result, one.result_dict, one.error) == (
        other.result,
        other.result_dict,
        other.error,
    )


class TestLookupMany:
    """The batched read answers exactly as one-key lookups do."""

    @pytest.fixture()
    def rows(self, tmp_path, result):
        """A store holding one row of every kind a read can meet."""
        store = ResultStore(tmp_path)
        envelope = {"schema": RESULT_SCHEMA, "spec": None}
        keys = {name: _key(index) for index, name in enumerate(
            [
                "result",
                "error",
                "missing",
                "bad digest",
                "not json",
                "foreign schema",
                "wrong id",
                "neither",
                "undecodable",
            ]
        )}
        store.put(keys["result"], result)
        failed = StoredOutcome(None, None, "no T factory meets the budget")
        store.put_many([(keys["error"], failed, None)])
        store.put(keys["bad digest"], result)
        store_rows.update(store, keys["bad digest"], digest="0" * 64)
        garbage = b"{not json"
        store.put(keys["not json"], result)
        store_rows.update(
            store,
            keys["not json"],
            body=garbage,
            digest=hashlib.sha256(garbage).hexdigest(),
        )
        planted = {
            "foreign schema": {
                **envelope,
                "schema": "repro-result-v2",
                "result": result.to_dict(),
            },
            "wrong id": {**envelope, "specHash": HASH_A, "result": result.to_dict()},
            "neither": {**envelope, "result": None},
            "undecodable": {**envelope, "result": {"physicalCounts": {}}},
        }
        for name, document in planted.items():
            document.setdefault("specHash", keys[name])
            store_rows.plant(store, keys[name], document)
        return store, keys

    def test_every_outcome_matches_one_key_lookup(self, rows, result):
        store, keys = rows
        single = ResultStore(store.root)
        batched = ResultStore(store.root).lookup_many(list(keys.values()))
        for (name, key), entry in zip(keys.items(), batched):
            assert _same_outcome(entry, single.lookup(key)), name
        found = {name for name, entry in zip(keys, batched) if entry is not None}
        assert found == {"result", "error"}
        assert batched[0].result == result
        assert batched[0].result_dict == result.to_dict()
        assert batched[1].error == "no T factory meets the budget"

    def test_read_and_get_raw_share_the_row_check(self, rows):
        store, keys = rows
        for name, key in keys.items():
            document = store.read("results", key)
            assert (document is not None) == (
                name in {"result", "error", "undecodable"}
            ), name
            assert store.get_raw(key) == document

    def test_duplicates_are_looked_up_once(self, rows):
        store, keys = rows
        fresh = ResultStore(store.root)
        hit, missing = keys["result"], keys["missing"]
        entries = fresh.lookup_many([hit, missing, hit, missing, hit])
        assert entries[0] is entries[2] is entries[4] is not None
        assert entries[1] is None and entries[3] is None
        assert fresh.memory_cache_stats()["results"] == {
            "hits": 0,
            "misses": 2,
            "entries": 1,
        }
        assert fresh.lookup_many([]) == []

    def test_memory_hits_first_and_admission_from_verified_rows_only(self, rows):
        store, keys = rows
        fresh = ResultStore(store.root)
        first = fresh.lookup(keys["result"])
        entries = fresh.lookup_many(list(keys.values()))
        assert entries[0] is first  # answered from memory
        # One memory hit; nine misses, then eight more (all but the hit).
        assert fresh.memory_cache_stats()["results"] == {
            "hits": 1,
            "misses": 9,
            "entries": 2,  # the result and the error document
        }
        again = fresh.lookup_many(list(keys.values()))
        assert [entry is not None for entry in again] == [
            entry is not None for entry in entries
        ]
        assert fresh.memory_cache_stats()["results"]["hits"] == 3

    def test_batches_past_the_parameter_limit(self, tmp_path, result):
        store = ResultStore(tmp_path)
        stored = StoredOutcome(result, result.to_dict(), None)
        keys = [_key(index) for index in range(2500)]
        assert store.put_many((key, stored, None) for key in keys[:1200]) == 1200
        fresh = ResultStore(tmp_path, cache_size=0)
        fresh.lookup(keys[0])  # opens the connection to trace
        statements: list[str] = []
        fresh._connection(create=False).set_trace_callback(statements.append)
        entries = fresh.lookup_many(keys)
        assert [entry is not None for entry in entries] == [True] * 1200 + [False] * 1300
        assert all(entry.result == result for entry in entries[:1200])
        selects = [sql for sql in statements if sql.startswith("SELECT")]
        assert len(selects) == 3  # 2,500 keys, at most 900 a query
        assert max(sql.count("'") // 2 for sql in selects) <= 900

    def test_malformed_hash_raises_before_any_read(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="malformed"):
            store.lookup_many([HASH_A, "../../etc/passwd"])
        assert store.memory_cache_stats()["results"]["misses"] == 0

    def test_run_specs_counts_one_store_lookup_per_distinct_hash(self, tmp_path):
        cache = EstimateCache()
        store = ResultStore(tmp_path)
        specs = [
            EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3", budget=1e-3),
            EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3", budget=1e-3, label="dup"),
            EstimateSpec(program=COUNTS, qubit="no_such_profile"),
            EstimateSpec(
                program=COUNTS,
                qubit="qubit_gate_ns_e3",
                constraints=Constraints(max_physical_qubits=100),
            ),
        ]
        cold = run_specs(specs, store=store, cache=cache)
        assert [outcome.from_store for outcome in cold] == [False] * 4
        assert "no_such_profile" in cold[2].error
        assert cache.stats()["store"] == {"hits": 0, "misses": 2}
        warm = run_specs(specs, store=store, cache=cache)
        assert [outcome.from_store for outcome in warm] == [True, True, False, True]
        # A cold then a warm pass over the same points: a hit ratio of 0.5.
        assert cache.stats()["store"] == {"hits": 2, "misses": 2}
        assert warm[2].spec_hash == cold[2].spec_hash == specs[2].content_hash()
        mixed = [EstimateSpec(program=COUNTS, qubit="qubit_maj_ns_e4"), *specs]
        outcomes = run_specs(mixed, store=store, cache=cache)
        assert [outcome.from_store for outcome in outcomes] == [False, True, True, False, True]
        assert cache.stats()["store"] == {"hits": 4, "misses": 3}


class TestOptimizeNamespace:
    TRACE = {"status": "running", "rounds": [], "probes": [], "result": None}

    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.put_optimize(HASH_A, self.TRACE)
        assert store.get_optimize(HASH_A) == self.TRACE
        assert store.get_optimize(HASH_B) is None
        # Invisible to the result namespace.
        assert store.get(HASH_A) is None
        assert len(store) == 0

    def test_overwrite_updates_the_trace(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_optimize(HASH_A, self.TRACE)
        done = {**self.TRACE, "status": "done", "result": {"answer": {}}}
        assert store.put_optimize(HASH_A, done)
        assert store.get_optimize(HASH_A)["status"] == "done"

    def test_malformed_hash_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="malformed"):
            store.get_optimize("../evil")

    def test_corrupt_trace_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_optimize(HASH_A, self.TRACE)
        store_rows.update(store, HASH_A, "optimize", body=b"{not json")
        assert store.get_optimize(HASH_A) is None

    def test_stats_counts_the_namespace(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_optimize(HASH_A, self.TRACE)
        stats = store.stats()
        assert stats["namespaces"]["optimize"]["documents"] == 1
        assert stats["namespaces"]["optimize"]["bytes"] > 0


class TestPutMany:
    """Batched persistence writes documents identical to per-point put."""

    def test_documents_byte_identical_to_put(self, tmp_path, result):
        one = ResultStore(tmp_path / "one")
        many = ResultStore(tmp_path / "many")
        entries = [
            (HASH_A, result, {"label": "a"}),
            (HASH_B, result, {"label": "b"}),
        ]
        for spec_hash, res, spec in entries:
            one.put(spec_hash, res, spec=spec)
        assert many.put_many(entries) == 2
        for spec_hash, _, _ in entries:
            row = store_rows.row(many, spec_hash)
            assert row.pop("written_at") > 0
            assert store_rows.row(one, spec_hash) | {"written_at": 0} == row | {
                "written_at": 0
            }

    def test_written_entries_are_retrievable_and_counted(self, tmp_path, result):
        store = ResultStore(tmp_path)
        assert store.put_many([(HASH_A, result, None), (HASH_B, result, None)]) == 2
        assert store.get(HASH_A) == result
        assert store.get(HASH_B) == result
        assert len(store) == 2

    def test_empty_batch_is_a_noop(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.put_many([]) == 0
        assert len(store) == 0

    def test_batch_respects_byte_budget_eviction(self, tmp_path, result):
        # A budget roughly one document wide: after a two-document batch
        # the store must have evicted back under (or near) the cap via
        # the single batched bookkeeping pass.
        probe = ResultStore(tmp_path / "probe")
        probe.put(HASH_A, result)
        document_bytes = store_rows.row(probe, HASH_A)["size"]
        store = ResultStore(tmp_path / "capped", max_bytes=document_bytes + 8)
        store.put_many([(HASH_A, result, None), (HASH_B, result, None)])
        assert len(store) == 1


class TestErrorDocuments:
    """Infeasible points persist as digest-verified error documents."""

    SPEC = EstimateSpec(
        program=COUNTS,
        qubit="qubit_gate_ns_e3",
        constraints=Constraints(max_physical_qubits=100),
    )

    @pytest.fixture()
    def failed(self, tmp_path):
        store = ResultStore(tmp_path)
        registry = Registry()
        outcome = run_specs([self.SPEC], registry=registry, store=store)[0]
        assert not outcome.ok and not outcome.from_store
        return store, registry, outcome, store_rows.body(store, outcome.spec_hash)

    def test_written_bytes_are_the_compact_encoding(self, failed):
        store, _, outcome, pristine = failed
        document = {
            "schema": RESULT_SCHEMA,
            "specHash": outcome.spec_hash,
            "spec": self.SPEC.to_dict(),
            "result": None,
            "error": outcome.error,
        }
        assert pristine == json.dumps(document, separators=(",", ":")).encode()

    def test_lookup_tells_errors_from_results(self, failed, result):
        store, _, outcome, _ = failed
        entry = store.lookup(outcome.spec_hash)
        assert isinstance(entry, StoredOutcome)
        assert entry.result is None and entry.result_dict is None
        assert entry.error == outcome.error
        assert store.get(outcome.spec_hash) is None
        assert outcome.spec_hash in store
        store.put(HASH_A, result)
        hit = store.lookup(HASH_A)
        assert hit.error is None
        assert hit.result == result
        assert hit.result_dict == result.to_dict()

    def test_memory_cache_keeps_the_result_and_its_dict(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        first = store.lookup(HASH_A)
        again = store.lookup(HASH_A)
        assert again is first  # one decode, one dict, shared
        assert store.memory_cache_stats()["results"]["hits"] == 1

    @pytest.mark.parametrize("damage", ["tamper", "truncate", "flip"])
    def test_damaged_error_document_is_a_miss_and_recomputed(self, failed, damage):
        store, registry, outcome, pristine = failed
        if damage == "tamper":
            # Rewrite the error without updating the digest.
            document = json.loads(pristine)
            document["error"] = "served from a tampered store"
            damaged = json.dumps(document, separators=(",", ":")).encode()
        elif damage == "truncate":
            damaged = pristine[: len(pristine) // 2]
        else:
            index = pristine.index(b'"error"') + len(b'"error"') + 3
            damaged = (
                pristine[:index] + bytes([pristine[index] ^ 0x01]) + pristine[index + 1 :]
            )
        store_rows.update(store, outcome.spec_hash, body=damaged)
        fresh = ResultStore(store.root)  # no memory-cache entry to hide behind
        assert fresh.lookup(outcome.spec_hash) is None
        assert fresh.get_raw(outcome.spec_hash) is None
        again = run_specs([self.SPEC], registry=registry, store=fresh)[0]
        assert not again.ok and not again.from_store
        assert again.error == outcome.error
        # The store healed: the recomputed error document is byte-identical.
        assert store_rows.body(store, outcome.spec_hash) == pristine

    @pytest.mark.parametrize(
        "fields",
        [
            {"result": None},  # neither a result nor an error
            {"result": None, "error": ""},
            {"result": None, "error": 42},
            {"result": {"physicalCounts": {}}, "error": "both at once"},
        ],
    )
    def test_malformed_envelopes_are_misses(self, tmp_path, fields):
        store = ResultStore(tmp_path)
        document = {"schema": RESULT_SCHEMA, "specHash": HASH_A, "spec": None}
        document.update(fields)
        store_rows.plant(store, HASH_A, document)
        assert store.get_raw(HASH_A) is None
        assert store.lookup(HASH_A) is None
        assert HASH_A not in store

    def test_v2_documents_are_invisible_under_v3(self, tmp_path, result):
        assert RESULT_SCHEMA == "repro-result-v3"
        old = ResultStore(tmp_path, schema="repro-result-v2")
        old.put(HASH_A, result)
        current = ResultStore(tmp_path)
        assert current.lookup(HASH_A) is None
        assert len(current) == 0
        # Even copied into the v3 table, a v2-tagged document is a miss.
        store_rows.plant(current, HASH_A, json.loads(store_rows.body(old, HASH_A)))
        assert current.get_raw(HASH_A) is None
        assert current.lookup(HASH_A) is None

    def test_put_many_writes_errors_and_passed_dicts(self, tmp_path, result):
        store = ResultStore(tmp_path)
        stored = StoredOutcome(result, result.to_dict(), None)
        failed = StoredOutcome(None, None, "no T factory meets the budget")
        assert store.put_many([(HASH_A, stored, None), (HASH_B, failed, None)]) == 2
        assert store.get(HASH_A) == result
        assert store.lookup(HASH_B).error == "no T factory meets the budget"
        with pytest.raises(ValueError, match="exactly one"):
            store.put_many([(HASH_A, StoredOutcome(None, None, None), None)])

    def test_write_after_clear_lands_again(self, tmp_path, result):
        store = ResultStore(tmp_path)
        assert store.put(HASH_A, result)
        assert store.clear() == 1
        assert store_rows.row(store, HASH_A) is None
        assert store.put(HASH_A, result)
        assert store.get(HASH_A) == result


class TestPinnedDocumentBytes:
    """The exact stored bytes of every document kind the store writes.

    Rows (body and digest), key order and compact separators are
    spelled out literally, so a change to any write path that would make
    an existing store unreadable (or rewrite it differently) fails here.
    """

    HASH_C = "cd" + "1" * 62
    JOB_ID = "7743fa46232d0811a1084252adb525ed219593e40edcca699f91edbd0492c7c8"

    ROWS = {
        ("results", HASH_A): (
            "16550e385d2729f6364d46d8b51767727f5c8c18f66b2103cedf66b52d20e19e",
            '{"schema":"repro-result-v3","specHash":"' + HASH_A + '",'
            '"spec":{"label":"x"},"result":null,"error":"no T factory"}',
        ),
        ("results", HASH_C): (
            "6466b13d70a7eee76f6277f8efd3fdb31106f5fd023deba4d57d6f0119f36f1d",
            '{"schema":"repro-result-v3","specHash":"' + HASH_C + '",'
            '"spec":null,"result":{"physicalCounts":{"physicalQubits":7}}}',
        ),
        ("sweeps", HASH_A): (
            "d4e439c7247ed7ae81fbbe969b560a8635e763e0b8471c9ee3edd6dcbb24e728",
            '{"schema":"repro-sweep-result-v1","sweepHash":"' + HASH_A + '",'
            '"result":{\n  "counts": {\n    "total": 0\n  },\n  "points": []\n}}',
        ),
        ("counts", HASH_A): (
            "10ec457c5d0063368f7bab29da1358a552934e85957f979cd12aa090756675aa",
            '{"schema":"repro-counts-v1","countsKey":"' + HASH_A + '",'
            '"backend":"formula","counts":{"num_qubits":2,"t_count":3,'
            '"rotation_count":0,"rotation_depth":0,"ccz_count":0,'
            '"ccix_count":0,"measurement_count":0}}',
        ),
        ("optimize", HASH_A): (
            "7b0231b7c390151c57a3f69378b724542beb05e23c75d67c2362bc1672eb3ac9",
            '{"schema":"repro-optimize-v1","optimizeHash":"' + HASH_A + '",'
            '"trace":{"status":"done","probes":[["ab",true]]}}',
        ),
    }

    #: The job journal row: (digest, size, chunking, status, body).
    JOURNAL = (
        "4598517920af6dc24bc2b5d41cb9b48ce5fc556b1b49df38fe4436155aa8e6e2",
        235,
        16,
        1,
        1,
        "submitted",
        '{"schema":"repro-sweep-v1","base":{"program":{"counts":'
        '{"num_qubits":2,"t_count":3}},"qubit":{"profile":"qubit_gate_ns_e3"}},'
        '"axes":[{"field":"budget","values":[0.001]}],"mode":"cartesian",'
        '"frontier":null,"chunkSize":null,"label":null}',
    )

    def _journal(self, store):
        (row,) = store_rows.execute(
            store,
            "SELECT digest, size, chunk_size, num_chunks, total_points, status, "
            f"body FROM {JOBS_TABLE} WHERE key = ?",
            self.JOB_ID,
        )
        return (*row[:-1], row[-1].decode())

    def _chunks(self, store):
        return store_rows.execute(
            store,
            f"SELECT job, chunk, owner, deadline, done, ok, failed FROM {CHUNKS_TABLE}",
        )

    def _populate(self, root):
        from repro.estimator.queue import SweepQueue
        from repro.estimator.sweep import SweepSpec

        store = ResultStore(root)
        assert store.put_many(
            [
                (HASH_A, StoredOutcome(None, None, "no T factory"), {"label": "x"}),
                (
                    self.HASH_C,
                    StoredOutcome(None, {"physicalCounts": {"physicalQubits": 7}}, None),
                    None,
                ),
            ]
        ) == 2
        assert store.put_sweep(
            HASH_A, dumps_indented({"counts": {"total": 0}, "points": []})
        )
        assert store.put_counts(
            HASH_A, LogicalCounts(num_qubits=2, t_count=3), backend="formula"
        )
        assert store.put_optimize(HASH_A, {"status": "done", "probes": [["ab", True]]})
        sweep = SweepSpec.from_dict(
            {
                "base": {
                    "program": {"counts": {"num_qubits": 2, "t_count": 3}},
                    "qubit": {"profile": "qubit_gate_ns_e3"},
                },
                "axes": [{"field": "budget", "values": [1e-3]}],
            }
        )
        queue = SweepQueue(store, owner="w1", ttl=30.0, clock=lambda: 100.0)
        job = queue.enqueue(sweep, registry=Registry())
        assert job.job_id == self.JOB_ID
        return store, queue, job

    def test_every_namespace_writes_the_pinned_bytes(self, tmp_path):
        store, _, _ = self._populate(tmp_path)
        for (namespace, key), (digest, body) in self.ROWS.items():
            row = store_rows.row(store, key, namespace)
            assert (row["digest"], row["body"], row["size"]) == (
                digest,
                body.encode(),
                len(body),
            )
        assert store.stats()["namespaces"]["results"]["documents"] == 2
        assert self._journal(store) == self.JOURNAL
        assert self._chunks(store) == [(self.JOB_ID, 0, None, None, 0, 0, 0)]
        assert {path.name for path in tmp_path.iterdir()} <= {
            DATABASE_NAME,
            f"{DATABASE_NAME}-wal",
            f"{DATABASE_NAME}-shm",
        }

    def test_pinned_documents_read_back(self, tmp_path):
        store = ResultStore(tmp_path)
        for (namespace, key), (digest, body) in self.ROWS.items():
            store_rows.plant_body(store, key, body.encode(), namespace)
            assert store_rows.row(store, key, namespace)["digest"] == digest
        digest, size, chunk_size, num_chunks, total, status, body = self.JOURNAL
        store_rows.execute(
            store,
            f"INSERT INTO {JOBS_TABLE} (key, digest, size, chunk_size, num_chunks, "
            "total_points, status, body) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            self.JOB_ID, digest, size, chunk_size, num_chunks, total, status,
            body.encode(),
        )
        store = ResultStore(tmp_path)
        assert store.lookup(HASH_A).error == "no T factory"
        assert store.get_raw(self.HASH_C)["result"] == {
            "physicalCounts": {"physicalQubits": 7}
        }
        assert store.get_sweep(HASH_A) == {"counts": {"total": 0}, "points": []}
        assert store.get_counts(HASH_A) == LogicalCounts(num_qubits=2, t_count=3)
        assert store.get_optimize(HASH_A) == {"status": "done", "probes": [["ab", True]]}
        from repro.estimator.queue import SweepQueue

        assert SweepQueue(store).load_job(self.JOB_ID).total_points == 1

    def test_journal_close_and_lease_columns(self, tmp_path):
        store, queue, job = self._populate(tmp_path)
        assert queue.mark_finished(job)
        assert self._journal(store) == (*self.JOURNAL[:5], "finished", self.JOURNAL[6])
        lease = queue.claim(self.JOB_ID, 0)
        assert self._chunks(store) == [(self.JOB_ID, 0, "w1", 130.0, 0, 0, 0)]
        queue.clock = lambda: 110.0
        assert queue.renew(lease)
        assert queue.mark_done(lease, 1, 0)
        assert self._chunks(store) == [(self.JOB_ID, 0, "w1", 140.0, 1, 1, 0)]
        queue.release(lease)
        assert self._chunks(store) == [(self.JOB_ID, 0, None, None, 1, 1, 0)]


#: A store inherited by forked pool workers (set before the pool forks).
_FORKED_STORE: ResultStore | None = None


def _use_inherited_store(key: str) -> tuple[bool, bool, bool, bool]:
    """In a forked worker: read the parent's row, write one, read it back."""
    store = _FORKED_STORE
    seen = store.get(HASH_A) is not None
    counts = LogicalCounts(num_qubits=2, t_count=3)
    wrote = store.put_counts(key, counts)
    # The parent's connection was set aside, never used here.
    fresh = store._inherited is not None and store._db is not store._inherited
    return seen, wrote, store.get_counts(key) == counts, fresh


class TestDatabaseFailureModes:
    """Fork, foreign files: the database must never crash or change a run."""

    def test_handle_opened_in_parent_works_in_forked_workers(self, tmp_path, result):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        global _FORKED_STORE
        store = ResultStore(tmp_path)
        assert store.put(HASH_A, result)  # the parent's connection is open
        _FORKED_STORE = store
        keys = [f"{i:02x}" + "e" * 62 for i in range(4)]
        try:
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(2, mp_context=context) as pool:
                answers = list(pool.map(_use_inherited_store, keys))
        finally:
            _FORKED_STORE = None
        assert answers == [(True, True, True, True)] * len(keys)
        # The parent's connection still reads and writes, and sees the
        # children's rows.
        assert all(store.get_counts(key) is not None for key in keys)
        assert store.put(HASH_B, result)
        assert ResultStore(tmp_path).get(HASH_B) == result
        assert store.stats()["namespaces"]["counts"]["documents"] == len(keys)

    def test_threads_share_one_connection_without_lost_writes(self, tmp_path, result):
        import sys
        import threading

        store = ResultStore(tmp_path, cache_size=0)
        errors = []

        def writer(thread: int) -> None:
            try:
                for batch in range(10):
                    keys = [f"{thread:02x}{batch:02x}{i:02x}" + "0" * 58 for i in range(4)]
                    assert store.put_many((key, result, None) for key in keys) == 4
                    assert all(store.get(key) == result for key in keys)
                    store.stats()
            except Exception as exc:  # reported below, from the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(store) == 8 * 10 * 4
        assert len(store_rows.documents(store)) == 8 * 10 * 4

    def test_non_database_file_reads_as_misses(self, tmp_path, result):
        tmp_path.joinpath(DATABASE_NAME).write_bytes(b"not a database\n" * 512)
        store = ResultStore(tmp_path)
        assert store.put(HASH_A, result) is False
        assert store.get(HASH_A) is None
        assert store.put_sweep(HASH_A, dumps_indented({"points": []})) is False
        assert store.get_sweep(HASH_A) is None
        assert list(store.keys()) == [] and store.clear() == 0
        assert store.stats()["namespaces"]["results"]["documents"] == 0
        assert store.evict(max_bytes=0)["evictedDocuments"] == 0
        assert collect_garbage(store) == {"removedChunks": 0}

    def test_non_database_file_leaves_sweep_output_unchanged(self, tmp_path, capsys):
        from repro.cli import main

        sweep = tmp_path / "sweep.json"
        sweep.write_text(
            json.dumps(
                {
                    "base": {
                        "program": {"counts": COUNTS.to_dict()},
                        "qubit": {"profile": "qubit_gate_ns_e3"},
                    },
                    "axes": [
                        {"field": "budget", "values": [1e-4, 1e-3]},
                        {"field": "constraints.maxPhysicalQubits", "values": [100, None]},
                    ],
                }
            )
        )
        root = tmp_path / "store"
        root.mkdir()
        root.joinpath(DATABASE_NAME).write_bytes(b"\x00garbage" * 1000)
        outputs = []
        for extra in ([], ["--store", str(root)], ["--store", str(root)]):
            code = main(["sweep", str(sweep), "--json", "--quiet", *extra])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0][0] == 1  # the 100-qubit points are infeasible
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
