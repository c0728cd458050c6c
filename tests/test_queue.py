"""Tests for the store-backed sweep work queue (leases, journal, chaos).

The load-bearing assertions extend the sweep subsystem's resume
invariant across *processes*: a sweep drained by workers that are
killed at arbitrary points between claim, evaluate, and persist — real
subprocesses dying via ``os._exit``, driven by the fault harness in
``tests/faults.py`` — finishes bit-for-bit equal to an uninterrupted
serial run, and a restarted service resumes a mid-flight journaled
sweep to the identical result.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time

import pytest

import faults
import store_rows
from repro import LogicalCounts, Registry, ResultStore
from repro.estimator.engine import ExecutionPolicy
from repro.estimator.queue import FAULT_STAGES, SweepQueue, run_worker
from repro.estimator.store import JOBS_TABLE
from repro.estimator.sweep import SweepSpec, run_sweep
from repro.service import EstimationService

COUNTS = LogicalCounts(
    num_qubits=40, t_count=20_000, ccz_count=5_000, measurement_count=500
)

#: Six points in three 2-point chunks: enough structure for partial
#: completion, small enough that every chaos round stays fast.
SWEEP_DOC = {
    "base": {"program": {"counts": COUNTS.to_dict()}},
    "axes": [
        {"field": "budget", "values": [1e-4, 1e-3, 1e-2]},
        {"field": "qubit", "values": ["qubit_gate_ns_e3", "qubit_maj_ns_e4"]},
    ],
    "frontier": {"objective": "qubits-runtime", "groupBy": ["qubit"]},
    "chunkSize": 2,
}


def small_sweep() -> SweepSpec:
    return SweepSpec.from_dict(json.loads(json.dumps(SWEEP_DOC)))


def serial_result_bytes(tmp_path) -> tuple[str, bytes]:
    """(job id, stored sweep row bytes) from an uninterrupted run.

    The local executor stores its finished sweep through the same
    ``put_sweep`` path the queue finalizer uses — making the comparison
    byte-for-byte on disk.
    """
    store = ResultStore(tmp_path / "serial")
    result = run_sweep(small_sweep(), registry=Registry(), store=store)
    assert result.stored
    return result.sweep_hash, store_rows.body(store, result.sweep_hash, "sweeps")


def assert_no_torn_documents(store: ResultStore) -> None:
    """Every database row, journal rows included, digest-verifies, and
    the store wrote no file but its database."""
    for namespace, key in store_rows.documents(store):
        assert store.read(namespace, key) is not None, f"torn row: {namespace} {key}"
    queue = SweepQueue(store)
    for (job_id,) in store_rows.execute(store, f"SELECT key FROM {JOBS_TABLE}"):
        assert queue.load_job(job_id) is not None, f"torn journal row: {job_id}"
    assert {path.name for path in store.root.iterdir()} <= {
        store.database.name,
        f"{store.database.name}-wal",
        f"{store.database.name}-shm",
    }


class FakeClock:
    """A controllable monotonic clock shared by cooperating queues."""

    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


@pytest.fixture()
def job(store):
    return SweepQueue(store).enqueue(small_sweep(), registry=Registry())


class TestLeaseSemantics:
    """The lease protocol on a scripted clock: claim, renew, expire, steal."""

    TTL = 10.0

    @pytest.fixture()
    def clock(self):
        return FakeClock()

    @pytest.fixture()
    def alice(self, store, clock):
        return SweepQueue(store, owner="alice", ttl=self.TTL, clock=clock)

    @pytest.fixture()
    def bob(self, store, clock):
        return SweepQueue(store, owner="bob", ttl=self.TTL, clock=clock)

    def test_double_claim_is_refused(self, job, alice, bob):
        lease = alice.claim(job.job_id, 0)
        assert lease is not None and lease.owner == "alice"
        assert bob.claim(job.job_id, 0) is None
        assert alice.claim(job.job_id, 0) is None  # even by the same owner

    def test_release_allows_reclaim(self, job, alice, bob):
        lease = alice.claim(job.job_id, 0)
        alice.release(lease)
        assert bob.claim(job.job_id, 0) is not None

    def test_expired_lease_is_reclaimed(self, job, alice, bob, clock):
        lease = alice.claim(job.job_id, 0)
        clock.advance(self.TTL + 1)
        stolen = bob.claim(job.job_id, 0)
        assert stolen is not None and stolen.owner == "bob"
        # The dead worker's handle is no longer renewable or releasable.
        assert alice.renew(lease) is False
        alice.release(lease)
        assert bob.lease_holder(job.job_id, 0)["owner"] == "bob"

    def test_heartbeat_renewal_keeps_lease_alive(self, job, alice, bob, clock):
        lease = alice.claim(job.job_id, 0)
        clock.advance(self.TTL * 0.6)
        assert alice.renew(lease) is True
        # Past the original deadline but within the renewed one.
        clock.advance(self.TTL * 0.6)
        assert bob.claim(job.job_id, 0) is None
        # Past the renewed deadline: reclaimable.
        clock.advance(self.TTL)
        assert bob.claim(job.job_id, 0) is not None

    def test_renewal_refused_once_deadline_passed(self, job, alice, clock):
        lease = alice.claim(job.job_id, 0)
        clock.advance(self.TTL + 0.1)
        # Refused even though nobody stole it — renewing past the deadline
        # could clobber a concurrent reclaimer's fresh lease.
        assert alice.renew(lease) is False

    def test_stale_handle_released_after_takeover_keeps_the_new_holder(
        self, job, alice, bob, clock
    ):
        stale = alice.claim(job.job_id, 0)
        clock.advance(self.TTL + 1)
        held = bob.claim(job.job_id, 0)
        alice.release(stale)
        assert bob.lease_holder(job.job_id, 0) == {
            "owner": "bob",
            "deadline": held.deadline,
        }
        assert bob.renew(held) is True
        # A handle is its lease, not its owner id: the same owner's
        # expired handle cannot release the lease it took again later.
        clock.advance(self.TTL + 1)
        again = bob.claim(job.job_id, 0)
        bob.release(held)
        assert bob.lease_holder(job.job_id, 0)["deadline"] == again.deadline
        assert alice.claim(job.job_id, 0) is None

    def test_eight_threads_race_for_one_expired_chunk_one_wins(
        self, store, job, alice, clock
    ):
        assert alice.claim(job.job_id, 0) is not None
        clock.advance(self.TTL + 1)
        # One store handle (one connection) per thread, as separate
        # processes would have.
        queues = [
            SweepQueue(ResultStore(store.root), owner=f"t{i}", ttl=self.TTL, clock=clock)
            for i in range(8)
        ]
        barrier = threading.Barrier(len(queues))
        leases = [None] * len(queues)

        def race(slot: int) -> None:
            barrier.wait()
            leases[slot] = queues[slot].claim(job.job_id, 0)

        threads = [threading.Thread(target=race, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        winners = [lease for lease in leases if lease is not None]
        assert len(winners) == 1
        assert alice.lease_holder(job.job_id, 0)["owner"] == winners[0].owner

    def test_a_done_chunk_is_never_claimed(self, job, alice, bob):
        lease = alice.claim(job.job_id, 0)
        assert alice.mark_done(lease, 2, 0)
        alice.release(lease)
        assert bob.claim(job.job_id, 0) is None
        assert bob.done_chunks(job) == {0: (2, 0)}

    def test_leases_are_per_chunk(self, job, alice, bob):
        assert alice.claim(job.job_id, 0) is not None
        assert bob.claim(job.job_id, 1) is not None


class TestEnqueue:
    def test_enqueue_is_idempotent_and_first_chunking_wins(self, store):
        queue = SweepQueue(store)
        first = queue.enqueue(small_sweep(), registry=Registry())
        again = queue.enqueue(small_sweep(), registry=Registry(), chunk_size=1)
        assert again.job_id == first.job_id
        assert again.chunk_size == first.chunk_size == 2
        assert again.num_chunks == first.num_chunks == 3
        assert first.total_points == 6

    def test_journal_round_trips_the_spec(self, store, job):
        loaded = SweepQueue(store).load_job(job.job_id)
        assert loaded is not None
        assert loaded.spec.to_dict() == small_sweep().to_dict()
        assert loaded.status == "submitted"
        assert [loaded.chunk_range(i) for i in range(3)] == [(0, 2), (2, 4), (4, 6)]

    def test_pending_jobs_and_mark_finished(self, store, job):
        queue = SweepQueue(store)
        assert [pending.job_id for pending in queue.pending_jobs()] == [job.job_id]
        assert queue.depth() == 1
        assert queue.mark_finished(job) is True
        assert queue.pending_jobs() == []
        assert queue.depth() == 0
        assert queue.load_job(job.job_id).status == "finished"

    def test_a_damaged_journal_row_reads_as_no_job_until_resubmitted(
        self, store, job
    ):
        store_rows.execute(
            store,
            f"UPDATE {JOBS_TABLE} SET body = CAST(REPLACE(CAST(body AS TEXT), "
            "'0.01', '0.02') AS BLOB) WHERE key = ?",
            job.job_id,
        )
        queue = SweepQueue(store)
        assert queue.load_job(job.job_id) is None
        assert queue.pending_jobs() == []
        again = queue.enqueue(small_sweep(), registry=Registry(), chunk_size=3)
        assert (again.job_id, again.num_chunks) == (job.job_id, 2)
        loaded = queue.load_job(job.job_id)
        assert (loaded.chunk_size, loaded.num_chunks) == (3, 2)
        assert loaded.spec.to_dict() == small_sweep().to_dict()

    def test_jobs_and_chunks_are_rows_of_the_store_database(self, store, job):
        namespaces = store.stats()["namespaces"]
        assert namespaces["jobs"]["documents"] == 1
        assert namespaces["queue"]["documents"] == job.num_chunks
        assert_no_torn_documents(store)


class TestWorkerExecution:
    def test_queue_executor_matches_local_bit_for_bit(self, tmp_path):
        job_id, serial_bytes = serial_result_bytes(tmp_path)
        store = ResultStore(tmp_path / "queued")
        result = run_sweep(
            small_sweep(),
            registry=Registry(),
            store=store,
            policy=ExecutionPolicy(executor="queue"),
        )
        assert result.sweep_hash == job_id
        assert store_rows.body(store, job_id, "sweeps") == serial_bytes
        assert SweepQueue(store).load_job(job_id).status == "finished"
        assert_no_torn_documents(store)

    def test_progress_events_are_cumulative(self, store, job):
        events = []
        run_worker(store, job_id=job.job_id, progress=events.append)
        assert [event.chunk for event in events] == [1, 2, 3]
        assert events[-1].completed == events[-1].total == 6
        assert events[-1].failed == 0

    def test_aborted_worker_resumes_to_identical_result(self, tmp_path):
        """In-process abort (progress raise) — the service shutdown path."""
        job_id, serial_bytes = serial_result_bytes(tmp_path)
        store = ResultStore(tmp_path / "queued")
        queue = SweepQueue(store)
        job = queue.enqueue(small_sweep(), registry=Registry())

        class Abort(Exception):
            pass

        def abort_after_first_chunk(event) -> None:
            if event.chunk >= 1:
                raise Abort()

        with pytest.raises(Abort):
            run_worker(store, job_id=job.job_id, progress=abort_after_first_chunk)
        # Mid-flight: some chunks done, journal open, no leases left behind.
        assert queue.load_job(job.job_id).status == "submitted"
        assert 0 in queue.done_chunks(job)
        assert all(queue.lease_holder(job.job_id, index) is None for index in range(3))
        report = run_worker(store, job_id=job.job_id)
        assert report.jobs_finalized == 1
        assert store_rows.body(store, job_id, "sweeps") == serial_bytes

    def test_unknown_job_raises(self, store):
        with pytest.raises(ValueError, match="unknown sweep job"):
            run_worker(store, job_id="0" * 64)

    def test_jobless_worker_drains_all_pending_jobs(self, store, job):
        report = run_worker(store)
        assert report.jobs_seen == 1
        assert report.jobs_finalized == 1
        assert report.incomplete_jobs == []
        assert store.get_sweep(job.job_id) is not None


class TestAssembly:
    """The finalizer assembles as a local run does: stored points are
    hits, a point with no stored row is evaluated again."""

    def test_results_evicted_before_finalize_are_evaluated_again(
        self, tmp_path, monkeypatch
    ):
        local = run_sweep(small_sweep(), registry=Registry())
        probe = ResultStore(tmp_path / "probe")
        run_sweep(small_sweep(), registry=Registry(), store=probe)
        size = max(store_rows.row(probe, p.spec_hash)["size"] for p in local.points)
        # Room for two and a half result rows: every chunk written evicts
        # the one before it, and the sweep row itself never fits.
        store = ResultStore(tmp_path / "bounded", max_bytes=2 * size + size // 2)
        hashes = [point.spec_hash for point in local.points]
        missing_at_finalize = []
        finalize = SweepQueue.finalize

        def spy(queue, job, point_hashes, **kwargs):
            missing_at_finalize.append(
                sum(entry is None for entry in store.lookup_many(hashes[:2]))
            )
            return finalize(queue, job, point_hashes, **kwargs)

        monkeypatch.setattr(SweepQueue, "finalize", spy)
        queued = run_sweep(
            small_sweep(),
            registry=Registry(),
            store=store,
            policy=ExecutionPolicy(executor="queue"),
        )
        assert missing_at_finalize == [2]  # chunk 0 is done, its rows gone
        # Nor does the sweep row stay: the answer is assembled again.
        assert store.get_sweep(queued.sweep_hash) is None
        assert queued.to_json() == local.to_json()

    def test_a_raising_formula_point_prints_the_local_bytes(self, tmp_path, capsys):
        from repro.cli import main
        from repro.qec import QECScheme

        # Negative cycle time at distance 11, which a 1e-2 budget reaches:
        # that point fails and is never stored.
        raising = QECScheme(
            name="raising_cycle",
            crossing_prefactor=0.03,
            error_correction_threshold=0.01,
            logical_cycle_time="codeDistance - 12",
            physical_qubits_per_logical_qubit="2 * codeDistance^2",
        )
        sweep = tmp_path / "sweep.json"
        sweep.write_text(
            json.dumps(
                {
                    "base": {
                        "program": {
                            "counts": LogicalCounts(
                                num_qubits=50, measurement_count=1_000
                            ).to_dict()
                        },
                        "qubit": {"profile": "qubit_gate_ns_e3"},
                        "scheme": {"params": raising.to_dict()},
                    },
                    "axes": [{"field": "budget", "values": [1e-2, 1e-3, 1e-4, 1e-5]}],
                    "chunkSize": 2,
                }
            )
        )

        def printed(*flags: str) -> str:
            assert main(["sweep", str(sweep), "--json", "--quiet", *flags]) == 1
            return capsys.readouterr().out

        local = printed()
        assert "codeDistance - 12" in local
        store = str(tmp_path / "store")
        assert printed("--store", store, "--executor", "queue") == local
        assert printed("--store", store, "--executor", "queue") == local  # warm

    def test_a_collected_and_evicted_job_is_reopened_and_rebuilt(self, tmp_path):
        from repro.estimator.queue import collect_garbage

        job_id, serial_bytes = serial_result_bytes(tmp_path)
        store = ResultStore(tmp_path / "queued")
        policy = ExecutionPolicy(executor="queue")
        run_sweep(small_sweep(), registry=Registry(), store=store, policy=policy)
        assert collect_garbage(store) == {"removedChunks": 3}
        store_rows.delete(store, job_id, "sweeps")
        queue = SweepQueue(store)
        assert queue.load_job(job_id).status == "finished"
        report = run_worker(store, job_id=job_id)
        assert report.jobs_finalized == 1
        assert report.chunks_evaluated == 3
        assert store_rows.body(store, job_id, "sweeps") == serial_bytes
        assert queue.load_job(job_id).status == "finished"


class TestFaultInjection:
    """Real worker subprocesses killed via os._exit at armed kill-points."""

    TTL = 0.3

    def _enqueue(self, tmp_path):
        store = ResultStore(tmp_path / "queued")
        job = SweepQueue(store).enqueue(small_sweep(), registry=Registry())
        return store, job

    @pytest.mark.parametrize("stage", FAULT_STAGES)
    def test_kill_at_stage_then_survivor_finishes(self, tmp_path, stage):
        job_id, serial_bytes = serial_result_bytes(tmp_path)
        store, job = self._enqueue(tmp_path)
        killed = faults.run_worker_process(
            store.root, job_id=job.job_id, fault=f"{stage}:1", ttl=self.TTL
        )
        assert faults.was_fault_kill(killed), killed.stderr
        # The sweep is mid-flight, never torn.
        assert store.get_sweep(job.job_id) is None
        assert_no_torn_documents(store)
        survivor = faults.run_worker_process(
            store.root, job_id=job.job_id, ttl=self.TTL
        )
        assert survivor.returncode == 0, survivor.stderr
        assert store_rows.body(store, job_id, "sweeps") == serial_bytes
        assert SweepQueue(store).load_job(job.job_id).status == "finished"
        assert_no_torn_documents(store)

    def test_chaos_random_kills_converge_to_serial_result(self, tmp_path):
        """The chaos property: any kill schedule yields the serial bytes."""
        job_id, serial_bytes = serial_result_bytes(tmp_path)
        store, job = self._enqueue(tmp_path)
        rng = random.Random(0xC4A05)
        kills = 0
        for _ in range(12):  # bounded: every round makes or observes progress
            if store.get_sweep(job.job_id) is not None:
                break
            process = faults.run_worker_process(
                store.root,
                job_id=job.job_id,
                fault=faults.random_fault(rng, job.num_chunks),
                ttl=self.TTL,
            )
            kills += 1 if faults.was_fault_kill(process) else 0
            assert_no_torn_documents(store)
        if store.get_sweep(job.job_id) is None:
            survivor = faults.run_worker_process(
                store.root, job_id=job.job_id, ttl=self.TTL
            )
            assert survivor.returncode == 0, survivor.stderr
        assert kills > 0, "chaos schedule never killed a worker"
        assert store_rows.body(store, job_id, "sweeps") == serial_bytes
        assert SweepQueue(store).load_job(job.job_id).status == "finished"
        assert_no_torn_documents(store)

    def test_two_live_workers_split_chunks_without_duplicates(self, tmp_path):
        """No chunk is evaluated by two *live* leaseholders: with nobody
        killed, the per-worker evaluated counts sum exactly to the chunk
        count."""
        job_id, serial_bytes = serial_result_bytes(tmp_path)
        store = ResultStore(tmp_path / "queued")
        job = SweepQueue(store).enqueue(
            small_sweep(), registry=Registry(), chunk_size=1
        )
        workers = [
            faults.spawn_worker_process(
                store.root, job_id=job.job_id, ttl=5.0, json_report=True
            )
            for _ in range(2)
        ]
        reports = []
        for worker in workers:
            stdout, stderr = worker.communicate(timeout=120)
            assert worker.returncode == 0, stderr
            reports.append(json.loads(stdout))
        assert sum(report["chunksEvaluated"] for report in reports) == job.num_chunks
        assert store_rows.body(store, job_id, "sweeps") == serial_bytes


class TestSharedDatabase:
    def test_two_workers_and_a_pooled_sweep_write_one_database(self, tmp_path):
        """Two ``repro work`` processes drain a queued sweep while a pooled
        local sweep writes other points into the same database: both
        results equal their serial runs bit for bit, and no row is torn."""
        job_id, serial_bytes = serial_result_bytes(tmp_path)
        store = ResultStore(tmp_path / "shared")
        job = SweepQueue(store).enqueue(
            small_sweep(), registry=Registry(), chunk_size=1
        )
        workers = [
            faults.spawn_worker_process(store.root, job_id=job.job_id, ttl=5.0)
            for _ in range(2)
        ]
        other_doc = json.loads(json.dumps(SWEEP_DOC))
        other_doc["axes"][0]["values"] = [3e-4, 3e-3, 3e-2, 1e-1]
        other = SweepSpec.from_dict(other_doc)
        pooled = run_sweep(
            other, registry=Registry(), store=store, policy=ExecutionPolicy(workers=2)
        )
        for worker in workers:
            _, stderr = worker.communicate(timeout=120)
            assert worker.returncode == 0, stderr
        serial = run_sweep(other, registry=Registry())
        assert json.dumps(pooled.to_dict()) == json.dumps(serial.to_dict())
        assert store_rows.body(store, job_id, "sweeps") == serial_bytes
        assert store.stats()["namespaces"]["results"]["documents"] == 6 + 8
        assert_no_torn_documents(store)


class TestServiceRecovery:
    def _submit_doc(self):
        return json.loads(json.dumps(SWEEP_DOC))

    def _wait_done(self, service, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            record = service.job_record(job_id)
            if record is not None and record["status"] in ("done", "failed"):
                return record
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} did not settle within {timeout}s")

    def test_restarted_service_resumes_mid_flight_journaled_job(self, tmp_path):
        """A journaled, partially-evaluated sweep (its worker process died)
        is picked up by a *new* service over the same store and finished
        to the serial result."""
        job_id, serial_bytes = serial_result_bytes(tmp_path)
        store = ResultStore(tmp_path / "queued")
        job = SweepQueue(store).enqueue(small_sweep(), registry=Registry())
        killed = faults.run_worker_process(
            store.root, job_id=job.job_id, fault="persisted:0", ttl=0.3
        )
        assert faults.was_fault_kill(killed), killed.stderr
        assert store.get_sweep(job.job_id) is None

        service = EstimationService(
            registry=Registry(),
            store=store,
            policy=ExecutionPolicy(executor="queue", lease_ttl=0.3),
        )
        try:
            assert service.policy.executor == "queue"
            record = self._wait_done(service, job.job_id)
            assert record["status"] == "done", record
            assert store_rows.body(store, job_id, "sweeps") == serial_bytes
        finally:
            service.close(wait=True)

    def test_service_close_then_new_service_resumes(self, tmp_path):
        """A real restart: service 1 aborts the job at a chunk boundary on
        close(); service 2 over the same store resumes it from the journal
        and finishes to the identical stored bytes."""
        job_id, serial_bytes = serial_result_bytes(tmp_path)
        store = ResultStore(tmp_path / "queued")
        queue = SweepQueue(store)
        first = EstimationService(
            registry=Registry(),
            store=store,
            policy=ExecutionPolicy(executor="queue", lease_ttl=0.5),
        )
        try:
            # Hold the engine lock so the job blocks before its first chunk,
            # then stop the service — the job aborts at the chunk boundary.
            with first._engine.lock:
                record = first.submit_job("sweep", self._submit_doc())
                assert record["jobId"] == job_id
                deadline = time.monotonic() + 30
                while queue.load_job(job_id) is None:
                    assert time.monotonic() < deadline, "job never journaled"
                    time.sleep(0.01)
                first.close(wait=False)
            first._sweep_pool.shutdown(wait=True)
        finally:
            first.close(wait=True)
        assert store.get_sweep(job_id) is None  # genuinely mid-flight
        assert queue.load_job(job_id).status == "submitted"

        second = EstimationService(
            registry=Registry(),
            store=store,
            policy=ExecutionPolicy(executor="queue", lease_ttl=0.5),
        )
        try:
            record = self._wait_done(second, job_id)
            assert record["status"] == "done", record
            assert store_rows.body(store, job_id, "sweeps") == serial_bytes
        finally:
            second.close(wait=True)

    def test_recovery_closes_journal_when_result_already_stored(self, tmp_path):
        """Crash between put_sweep and mark_finished: recovery just closes
        the journal instead of requeueing anything."""
        store = ResultStore(tmp_path / "queued")
        run_sweep(
            small_sweep(),
            registry=Registry(),
            store=store,
            policy=ExecutionPolicy(executor="queue"),
        )
        queue = SweepQueue(store)
        (job,) = [queue.load_job(key) for key, in store_rows.execute(
            store, f"SELECT key FROM {JOBS_TABLE}"
        )]
        # Reopen the journal as if the finalizer died mid-way.
        store_rows.execute(store, f"UPDATE {JOBS_TABLE} SET status = 'submitted'")
        assert queue.depth() == 1

        service = EstimationService(registry=Registry(), store=store, recover=False)
        try:
            assert service.recover_jobs() == 0
            assert queue.load_job(job.job_id).status == "finished"
        finally:
            service.close(wait=True)

    def test_local_executor_still_available(self, tmp_path):
        store = ResultStore(tmp_path / "queued")
        service = EstimationService(
            registry=Registry(), store=store, policy=ExecutionPolicy()
        )
        try:
            assert service.policy.executor == "local"
            record = service.submit_job("sweep", self._submit_doc())
            done = self._wait_done(service, record["jobId"])
            assert done["status"] == "done"
            # The local executor does not journal.
            assert SweepQueue(store).pending_jobs() == []
        finally:
            service.close(wait=True)

    def test_queue_executor_requires_store(self):
        with pytest.raises(ValueError, match="requires a result store"):
            EstimationService(
                registry=Registry(),
                store=None,
                policy=ExecutionPolicy(executor="queue"),
            )
