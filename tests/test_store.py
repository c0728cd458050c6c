"""Tests for the content-addressed persistent result store."""

from __future__ import annotations

import json
import random

import pytest

from repro import (
    Constraints,
    LogicalCounts,
    Registry,
    ResultStore,
    estimate,
    qubit_params,
)
from repro.estimator.spec import EstimateSpec, run_specs
from repro.estimator.store import (
    StoredOutcome,
    RESULT_SCHEMA,
    STORE_ENV_VAR,
    _digest,
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

    def test_fanout_layout(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        expected = tmp_path / RESULT_SCHEMA / HASH_A[:2] / f"{HASH_A}.json"
        assert expected.is_file()
        assert store.path_for(HASH_A) == expected

    def test_malformed_hash_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="malformed"):
            store.path_for("../../etc/passwd")
        with pytest.raises(ValueError, match="malformed"):
            store.get("")

    def test_no_temp_files_left_behind(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        store.put(HASH_B, result)
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []


class TestRobustness:
    def test_corrupt_file_reads_as_miss(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        store.path_for(HASH_A).write_text("{not json")
        assert store.get(HASH_A) is None

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
        document = json.loads(store.path_for(HASH_A).read_text())
        document["specHash"] = HASH_B
        store.path_for(HASH_A).write_text(json.dumps(document))
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
        document = json.loads(store.path_for(HASH_A).read_text())
        assert isinstance(document.get("digest"), str)
        assert len(document["digest"]) == 64

    def test_written_bytes_are_the_compact_encoding(self, tmp_path, result):
        # The file is exactly the compact json.dumps of the document with
        # its digest appended: the format corruption checks rely on.
        store = ResultStore(tmp_path)
        store.put(HASH_A, result, spec={"label": "x"})
        document = {
            "schema": RESULT_SCHEMA,
            "specHash": HASH_A,
            "spec": {"label": "x"},
            "result": result.to_dict(),
        }
        document["digest"] = _digest(document)
        expected = json.dumps(document, separators=(",", ":"))
        assert store.path_for(HASH_A).read_bytes() == expected.encode()

    def test_pre_digest_document_reads_as_miss(self, tmp_path, result):
        # A v1-style document (no digest) must never be served.
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        document = json.loads(store.path_for(HASH_A).read_text())
        del document["digest"]
        store.path_for(HASH_A).write_text(json.dumps(document))
        assert store.get(HASH_A) is None

    def test_sweep_namespace_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        document = {"counts": {"total": 2, "ok": 2, "failed": 0}, "points": []}
        assert store.put_sweep(HASH_A, document)
        assert store.get_sweep(HASH_A) == document
        assert store.get_sweep(HASH_B) is None
        # Sweep documents are invisible to the result namespace.
        assert store.get(HASH_A) is None
        assert len(store) == 0

    def test_sweep_namespace_rejects_malformed_hash(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="malformed"):
            store.path_for("../evil", "sweeps")


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
        path = store.path_for(outcome.spec_hash)
        return store, registry, outcome, path, path.read_bytes()

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
        store, _, outcome, path, pristine = warmed
        rng = random.Random(seed)
        path.write_bytes(self._corrupt(pristine, rng))
        assert store.get(outcome.spec_hash) is None, (
            f"seed {seed}: corrupted document was served"
        )
        assert store.get_raw(outcome.spec_hash) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_corrupted_points_are_recomputed_and_healed(self, warmed, seed):
        store, registry, outcome, path, pristine = warmed
        rng = random.Random(1000 + seed)
        path.write_bytes(self._corrupt(pristine, rng))
        again = run_specs([self.SPEC], registry=registry, store=store)[0]
        assert again.ok
        assert again.from_store is False, "a corrupt entry must not be served"
        assert again.result.to_dict() == outcome.result.to_dict()
        # The store healed: the recomputed document verifies again.
        assert store.get(outcome.spec_hash) is not None

    def test_byte_flip_in_embedded_spec_metadata_is_detected(self, warmed):
        # The digest covers the whole document, not just the result: a
        # flip inside the debug 'spec' section also reads as a miss.
        store, _, outcome, path, pristine = warmed
        index = pristine.index(b'"spec"') + len(b'"spec"') + 4
        flipped = pristine[:index] + bytes([pristine[index] ^ 0x01]) + pristine[index + 1 :]
        path.write_bytes(flipped)
        assert store.get_raw(outcome.spec_hash) is None


class TestStatsAndGc:
    """Operator visibility (`stats`) and litter reclamation (`gc`)."""

    @pytest.fixture()
    def store(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        return store

    def _plant_orphans(self, store, *, age_s=0.0):
        """Strand a writer tmp file, a lease, and a takeover tombstone."""
        from repro.estimator.store import QUEUE_SCHEMA

        lease_dir = store.root / QUEUE_SCHEMA / HASH_A / "leases"
        lease_dir.mkdir(parents=True, exist_ok=True)
        orphans = [
            store.root / RESULT_SCHEMA / ".deadbeef-crashed.tmp",
            lease_dir / "000000.lease",
            lease_dir / ".000000.lease.stale-pid1-feedf00d",
        ]
        for path in orphans:
            path.write_text('{"owner":"dead","deadline":0.0}')
        if age_s:
            import os
            import time

            stale = time.time() - age_s
            for path in orphans:
                os.utime(path, (stale, stale))
        return orphans

    def test_stats_counts_namespaces_and_orphans(self, store):
        orphans = self._plant_orphans(store)
        stats = store.stats()
        assert stats["namespaces"]["results"]["documents"] == 1
        assert stats["namespaces"]["results"]["bytes"] > 0
        for name in ("sweeps", "counts", "queue", "jobs"):
            assert stats["namespaces"][name]["documents"] == 0
        assert stats["orphans"]["files"] == len(orphans)
        assert stats["orphans"]["bytes"] == sum(
            path.stat().st_size for path in orphans
        )

    def test_gc_spares_fresh_files(self, store):
        self._plant_orphans(store)  # mtime = now: could be live
        report = store.gc(older_than_s=3600.0)
        assert report["removedFiles"] == 0
        assert report["reclaimedBytes"] == 0
        assert store.stats()["orphans"]["files"] == 3

    def test_gc_reclaims_expired_litter_and_reports_bytes(self, store, result):
        orphans = self._plant_orphans(store, age_s=7200.0)
        expected = sum(path.stat().st_size for path in orphans)
        report = store.gc(older_than_s=3600.0)
        assert report["removedFiles"] == len(orphans)
        assert report["reclaimedBytes"] == expected
        assert not any(path.exists() for path in orphans)
        # Documents are never gc candidates.
        assert store.get(HASH_A) == result
        assert store.stats()["orphans"]["files"] == 0

    def test_stats_reads_the_disk_on_every_call(self, store, result):
        assert store.stats()["namespaces"]["results"]["documents"] == 1
        store.put(HASH_B, result)
        ResultStore(store.root).put("ef" + "2" * 62, result)  # "another process"
        assert store.stats()["namespaces"]["results"]["documents"] == 3

    def test_gc_zero_cutoff_takes_everything_orphaned(self, store):
        self._plant_orphans(store)
        report = store.gc(older_than_s=0.0)
        assert report["removedFiles"] == 3
        assert store.stats()["orphans"]["files"] == 0


class TestGcClockSkew:
    """gc compares ages, not raw wall-clock cutoffs (shared-store skew)."""

    @pytest.fixture()
    def store(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        return store

    def _plant_orphan(self, store, *, mtime_offset_s=0.0):
        """One stranded writer tmp file with its mtime shifted by offset."""
        import os
        import time

        path = store.root / RESULT_SCHEMA / ".deadbeef-crashed.tmp"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"torn":')
        when = time.time() + mtime_offset_s
        os.utime(path, (when, when))
        return path

    def test_far_future_mtime_is_collected_not_immortal(self, store):
        # Regression: a cutoff of now - older_than never reaches a file
        # stamped by a badly skewed clock, leaving it immortal litter.
        orphan = self._plant_orphan(store, mtime_offset_s=86_400.0)
        report = store.gc(older_than_s=3600.0)
        assert report["removedFiles"] == 1
        assert not orphan.exists()

    def test_slightly_future_mtime_is_spared_as_fresh(self, store):
        # A writer whose clock runs a little ahead (or our clock stepped
        # back) must keep its in-flight files — PR 7's "fresh files
        # spared" guarantee, now skew-tolerant.
        orphan = self._plant_orphan(store, mtime_offset_s=120.0)
        report = store.gc(older_than_s=3600.0)
        assert report["removedFiles"] == 0
        assert orphan.exists()

    def test_future_skew_tolerance_is_configurable(self, store):
        orphan = self._plant_orphan(store, mtime_offset_s=120.0)
        report = store.gc(older_than_s=3600.0, future_skew_s=60.0)
        assert report["removedFiles"] == 1
        assert not orphan.exists()

    def test_stats_after_gc_show_the_litter_gone(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        self._plant_orphan(store, mtime_offset_s=-7200.0)
        assert store.stats()["orphans"]["files"] == 1
        store.gc(older_than_s=3600.0)
        assert store.stats()["orphans"]["files"] == 0


class TestEviction:
    """LRU-by-mtime document eviction bounds the store's disk use."""

    def _put_aged(self, store, result, hashes, *, step_s=100.0):
        """Documents with strictly increasing mtimes (oldest first)."""
        import os
        import time

        base = time.time() - step_s * (len(hashes) + 1)
        for index, spec_hash in enumerate(hashes):
            store.put(spec_hash, result)
            when = base + index * step_s
            os.utime(store.path_for(spec_hash), (when, when))

    def _document_bytes(self, store):
        namespaces = store.stats()["namespaces"]
        return sum(
            namespaces[name]["bytes"] for name in store.EVICTABLE_NAMESPACES
        )

    def test_evicts_oldest_first_down_to_the_budget(self, tmp_path, result):
        store = ResultStore(tmp_path)
        hashes = [f"{i:02x}" + "0" * 62 for i in range(4)]
        self._put_aged(store, result, hashes)
        size = store.path_for(hashes[0]).stat().st_size
        report = store.evict(max_bytes=2 * size)
        assert report["evictedFiles"] == 2
        assert report["remainingBytes"] <= 2 * size
        assert store.get(hashes[0]) is None  # oldest two gone
        assert store.get(hashes[1]) is None
        assert store.get(hashes[2]) == result  # newest two kept
        assert store.get(hashes[3]) == result
        assert store.stats()["evictions"]["files"] == 2

    def test_under_budget_is_a_no_op(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        report = store.evict(max_bytes=10**9)
        assert report["evictedFiles"] == 0
        assert store.get(HASH_A) == result

    def test_never_touches_queue_leases_or_journal(self, tmp_path, result):
        from repro.estimator.store import JOBS_SCHEMA, QUEUE_SCHEMA

        store = ResultStore(tmp_path)
        store.put(HASH_A, result)
        chunk = store.root / QUEUE_SCHEMA / HASH_A / "chunks" / "000000.json"
        chunk.parent.mkdir(parents=True)
        chunk.write_text('{"chunk": 0}')
        lease = store.root / QUEUE_SCHEMA / HASH_A / "leases" / "000000.lease"
        lease.parent.mkdir(parents=True)
        lease.write_text('{"owner": "w1"}')
        journal = store.root / JOBS_SCHEMA / HASH_A[:2] / f"{HASH_A}.json"
        journal.parent.mkdir(parents=True)
        journal.write_text('{"status": "running"}')
        report = store.evict(max_bytes=0)
        assert store.get(HASH_A) is None  # documents evicted...
        assert chunk.exists()  # ...crash-safety substrate untouched
        assert lease.exists()
        assert journal.exists()
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
        size = probe.path_for(HASH_A).stat().st_size
        budget = 3 * size + size // 2
        store = ResultStore(tmp_path / "bounded", max_bytes=budget)
        hashes = [f"{i:02x}" + "3" * 62 for i in range(8)]
        for spec_hash in hashes:
            store.put(spec_hash, result)
            assert self._document_bytes(store) <= budget
        # The newest document always survives its own write.
        assert store.get(hashes[-1]) == result

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
        store.path_for(HASH_A).write_text("{not json")
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
            store.path_for("../evil", "optimize")

    def test_corrupt_trace_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_optimize(HASH_A, self.TRACE)
        store.path_for(HASH_A, "optimize").write_text("{not json")
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
            assert (
                many.path_for(spec_hash).read_bytes()
                == one.path_for(spec_hash).read_bytes()
            )

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
        document_bytes = probe.path_for(HASH_A).stat().st_size
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
        path = store.path_for(outcome.spec_hash)
        return store, registry, outcome, path, path.read_bytes()

    def test_written_bytes_are_the_compact_encoding(self, failed):
        store, _, outcome, path, pristine = failed
        document = {
            "schema": RESULT_SCHEMA,
            "specHash": outcome.spec_hash,
            "spec": self.SPEC.to_dict(),
            "result": None,
            "error": outcome.error,
        }
        document["digest"] = _digest(document)
        assert pristine == json.dumps(document, separators=(",", ":")).encode()

    def test_lookup_tells_errors_from_results(self, failed, result):
        store, _, outcome, _, _ = failed
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
        store, registry, outcome, path, pristine = failed
        if damage == "tamper":
            # Rewrite the error without updating the digest.
            document = json.loads(pristine)
            document["error"] = "served from a tampered store"
            path.write_text(json.dumps(document, separators=(",", ":")))
        elif damage == "truncate":
            path.write_bytes(pristine[: len(pristine) // 2])
        else:
            index = pristine.index(b'"error"') + len(b'"error"') + 3
            path.write_bytes(
                pristine[:index] + bytes([pristine[index] ^ 0x01]) + pristine[index + 1 :]
            )
        fresh = ResultStore(store.root)  # no memory-cache entry to hide behind
        assert fresh.lookup(outcome.spec_hash) is None
        assert fresh.get_raw(outcome.spec_hash) is None
        again = run_specs([self.SPEC], registry=registry, store=fresh)[0]
        assert not again.ok and not again.from_store
        assert again.error == outcome.error
        # The store healed: the recomputed error document is byte-identical.
        assert path.read_bytes() == pristine

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
        from repro.estimator.store import write_document

        store = ResultStore(tmp_path)
        document = {"schema": RESULT_SCHEMA, "specHash": HASH_A, "spec": None}
        document.update(fields)
        assert write_document(store.path_for(HASH_A), document)
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
        # Even copied into the v3 path, a v2-tagged document is a miss.
        target = current.path_for(HASH_A)
        target.parent.mkdir(parents=True)
        target.write_bytes(old.path_for(HASH_A).read_bytes())
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

    def test_write_after_clear_recreates_the_fanout_directory(self, tmp_path, result):
        store = ResultStore(tmp_path)
        assert store.put(HASH_A, result)
        fanout = store.path_for(HASH_A).parent
        assert store.clear() == 1
        assert not fanout.exists()
        assert store.put(HASH_A, result)
        assert fanout.is_dir()
        assert store.get(HASH_A) == result


class TestPinnedDocumentBytes:
    """The exact on-disk bytes of every document kind the store writes.

    Paths, key order, compact separators and digests are spelled out
    literally, so a change to any write path that would make an
    existing store unreadable (or rewrite it differently) fails here.
    """

    HASH_C = "cd" + "1" * 62
    JOB_ID = "7743fa46232d0811a1084252adb525ed219593e40edcca699f91edbd0492c7c8"

    EXPECTED = {
        f"repro-result-v3/ab/{HASH_A}.json": (
            '{"schema":"repro-result-v3","specHash":"' + HASH_A + '",'
            '"spec":{"label":"x"},"result":null,"error":"no T factory",'
            '"digest":"e482d8ae633c3d882bda21e4c57e540623066e9bbe4af99e5c470b9e02f9a794"}'
        ),
        f"repro-result-v3/cd/{HASH_C}.json": (
            '{"schema":"repro-result-v3","specHash":"' + HASH_C + '",'
            '"spec":null,"result":{"physicalCounts":{"physicalQubits":7}},'
            '"digest":"4c422c41e85b5246c858c77118aa8a7b1d077bb60bc48384f88840dbf5ee51ea"}'
        ),
        f"repro-sweep-result-v1/ab/{HASH_A}.json": (
            '{"schema":"repro-sweep-result-v1","sweepHash":"' + HASH_A + '",'
            '"result":{"counts":{"total":0},"points":[]},'
            '"digest":"8992b038ef285de0b7c962d75b675aaa4a667fe250c0232cdb258459fe940423"}'
        ),
        f"repro-counts-v1/ab/{HASH_A}.json": (
            '{"schema":"repro-counts-v1","countsKey":"' + HASH_A + '",'
            '"backend":"formula","counts":{"num_qubits":2,"t_count":3,'
            '"rotation_count":0,"rotation_depth":0,"ccz_count":0,'
            '"ccix_count":0,"measurement_count":0},'
            '"digest":"7c483d8e2ef95307fd53cc3eec8b6e967e857a41ccbec811657fcb05da9f6756"}'
        ),
        f"repro-optimize-v1/ab/{HASH_A}.json": (
            '{"schema":"repro-optimize-v1","optimizeHash":"' + HASH_A + '",'
            '"trace":{"status":"done","probes":[["ab",true]]},'
            '"digest":"7f686f4685ec933f423591a571a762e959dd9ab4874f0adfe17662b0b7456062"}'
        ),
        f"repro-jobs-v1/77/{JOB_ID}.json": (
            '{"schema":"repro-jobs-v1","jobId":"' + JOB_ID + '",'
            '"sweep":{"schema":"repro-sweep-v1","base":{"program":{"counts":'
            '{"num_qubits":2,"t_count":3}},"qubit":{"profile":"qubit_gate_ns_e3"}},'
            '"axes":[{"field":"budget","values":[0.001]}],"mode":"cartesian",'
            '"frontier":null,"chunkSize":null,"label":null},"chunkSize":16,'
            '"numChunks":1,"totalPoints":1,"status":"submitted",'
            '"digest":"0c8abd6f2fdb8ea1d1cd2695d4bffd5efb1d5df52f671b1427595583d61da96c"}'
        ),
        f"repro-queue-v1/{JOB_ID}/chunks/000000.json": (
            '{"schema":"repro-queue-v1","kind":"chunk","jobId":"' + JOB_ID + '",'
            '"chunk":0,"start":0,"stop":1,'
            '"digest":"6348536274319a92d9f73686990f031172ee6e74d84c4da63e6ce79361703851"}'
        ),
    }

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
        assert store.put_sweep(HASH_A, {"counts": {"total": 0}, "points": []})
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
        self._populate(tmp_path)
        written = {
            path.relative_to(tmp_path).as_posix(): path.read_text()
            for path in tmp_path.rglob("*.json")
        }
        assert written == self.EXPECTED

    def test_pinned_documents_read_back(self, tmp_path):
        for relative, text in self.EXPECTED.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
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

    def test_journal_close_and_lease_bytes(self, tmp_path):
        store, queue, job = self._populate(tmp_path)
        assert queue.mark_finished(job)
        journal = tmp_path / f"repro-jobs-v1/77/{self.JOB_ID}.json"
        assert journal.read_text() == (
            self.EXPECTED[f"repro-jobs-v1/77/{self.JOB_ID}.json"]
            .replace('"status":"submitted"', '"status":"finished"')
            .replace(
                "0c8abd6f2fdb8ea1d1cd2695d4bffd5efb1d5df52f671b1427595583d61da96c",
                "86e8b3cfbe3abbddbf3548f601683593f1e5926435cbbdc16861bf6a3f56875d",
            )
        )
        lease = queue.claim(self.JOB_ID, 0)
        lease_path = tmp_path / f"repro-queue-v1/{self.JOB_ID}/leases/000000.lease"
        assert lease_path.read_text() == '{"owner":"w1","deadline":130.0}'
        queue.clock = lambda: 110.0
        assert queue.renew(lease)
        assert lease_path.read_text() == '{"owner":"w1","deadline":140.0}'
