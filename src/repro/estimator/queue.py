"""Store-backed work queue with leases: crash-safe multi-process sweeps.

``run_sweep`` executes chunks in one process; this module turns the
:class:`~repro.estimator.store.ResultStore` into a coordination
substrate so N worker *processes* — ``repro work DIR`` workers, or N
``repro serve`` replicas pointed at one store directory — drain a sweep
cooperatively, and a worker crash loses nothing: its lease expires and
another worker reclaims the chunk. Estimation is deterministic and
every persisted artifact is content-addressed, so the reclaimed sweep
is **bit-for-bit equal** to an uninterrupted single-process run — the
sweep subsystem's resume invariant, extended across processes.

Tables
------
The queue is two tables of the store's database, beside its cache
namespaces (see :mod:`repro.estimator.store`):

* the job journal (:data:`~repro.estimator.store.JOBS_SCHEMA`), one row
  per submitted sweep: its hash, its sweep document, the chunking
  (chunk size, chunk count, total points) and its status. ``digest`` is
  the SHA-256 of the document, checked on every read; a damaged row
  reads as no job, and the next ``enqueue`` of that sweep replaces it.
* the chunks (:data:`~repro.estimator.store.QUEUE_SCHEMA`), one row per
  (job, chunk index): the lease owner and deadline, ``done``, and the
  ok/failed point counts that progress reports. A chunk's point range
  is computed from the job's chunking (:meth:`QueueJob.chunk_range`).

Each operation is one transaction. ``enqueue`` inserts the job row and
its chunk rows with ``INSERT OR IGNORE``, so of N concurrent submitters
of an equivalent sweep the first defines the chunking and the rest adopt
it. A restarted ``repro serve`` resumes every job not yet ``finished``.
The ``repro-queue-v1/`` and ``repro-jobs-v1/`` directories of a root
written by earlier builds, which kept the queue in files, are ignored:
a job journaled there is not resumed, but a rerun of its sweep answers
from its stored points.

Lease lifecycle
---------------
A claim is one conditional ``UPDATE`` of the chunk row: it sets the
owner id and a deadline ``now + ttl`` on the shared monotonic clock
where the chunk is not done and has no owner or an expired deadline,
and it succeeds iff it changed one row. SQLite serializes writers, so
of any number of concurrent claimers exactly one wins. While
evaluating, a heartbeat pushes the deadline out; renewal and release
change the row only while it still holds this lease (owner and
deadline), and renewal refuses to run once the deadline has passed. A
dead worker simply stops heartbeating: after the deadline, any other
worker's claim takes the chunk over. Because renewal stops at the
deadline and takeover starts after it, two live leaseholders on one
chunk would require a process pause straddling the exact expiry
instant — and even then the failure mode is duplicate work, never
corruption: chunk outcomes are deterministic and every write is
idempotent.

A claimed chunk runs through :func:`~repro.estimator.spec.run_specs`,
which stores its points' results; then the chunk is marked done and its
lease released. A crash at any point leaves the chunk either not done
(reclaimed; its stored points answer from the store) or done. When
every chunk is done, a worker assembles the sweep exactly as a local
run does, against the store: every stored point is a hit, and a point
without a stored row — an invalid spec, a raising custom formula, a row
evicted from a bounded store — is evaluated again, deterministically.
It stores the sweep's row and marks the job finished.

Fault injection
---------------
The module exposes deterministic kill-points for the crash-safety
tests: with ``REPRO_QUEUE_FAULT=<stage>[:<chunk>],...`` in the
environment, a worker calls :func:`os._exit` at the named stage —
``claimed`` (after acquiring a lease), ``evaluated`` (after computing
and storing the chunk's points, before marking it done), or
``persisted`` (after marking it done, before releasing the lease).
``tests/faults.py`` drives real worker subprocesses through these, and
the chaos property test asserts the survivors' result equals the
serial run bit for bit. The same variable arms one kill-point inside
the execution engine's pool workers: ``engine-chunk:<marker path>``
makes the first worker to start a chunk exit, once — it atomically
creates the marker file, and every later chunk (including the engine's
replay of the lost one) sees it and runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import uuid
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .engine import (
    DEFAULT_LEASE_TTL,
    ExecutionEngine,
    ExecutionPolicy,
    chunk_size_for,
    engine_scope,
)
from .store import CHUNKS_TABLE, JOBS_TABLE, ResultStore, _compact_json
from .sweep import SweepProgress, SweepSpec, _run_local, stored_sweep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..jsonlog import StructuredLogger
    from ..registry import Registry
    from .batch import EstimateCache

__all__ = [
    "DEFAULT_LEASE_TTL",
    "FAULT_ENV",
    "FAULT_EXIT_CODE",
    "Lease",
    "QueueJob",
    "SweepQueue",
    "WorkerReport",
    "collect_garbage",
    "run_worker",
]

#: Default idle poll while waiting on chunks leased to other workers.
DEFAULT_POLL_INTERVAL = 0.05

#: Environment variable naming fault-injection kill-points (see the
#: module docstring); used only by the crash-safety test harness.
FAULT_ENV = "REPRO_QUEUE_FAULT"

#: Exit status of a worker killed at an injected fault point —
#: distinguishable from ordinary crashes in test assertions.
FAULT_EXIT_CODE = 70

#: Ordered kill-point stages a worker passes through per chunk.
FAULT_STAGES = ("claimed", "evaluated", "persisted")

#: One-shot kill-point inside an execution-engine pool worker, armed as
#: ``engine-chunk:<marker path>`` (see the module docstring).
ENGINE_FAULT_STAGE = "engine-chunk"

#: Journal lifecycle states. There is deliberately no ``running`` state:
#: liveness is conveyed by leases, so a crashed worker cannot wedge a
#: job in a stale status — anything not ``finished`` is resumable.
JOB_STATUSES = ("submitted", "finished")

#: The journal columns a job is read from, in :func:`_job_from_row` order.
_JOB_COLUMNS = "key, digest, chunk_size, num_chunks, total_points, status, body"


def _fault_point(stage: str, chunk_index: int | None = None) -> None:
    """Die here iff the environment names this (stage, chunk) kill-point.

    ``os._exit`` specifically: no atexit handlers, no finally blocks —
    the closest stdlib approximation of SIGKILL, so the test harness
    exercises the same recovery paths a power loss would.
    """
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    for clause in spec.split(","):
        name, _, target = clause.strip().partition(":")
        if name != stage:
            continue
        if stage == ENGINE_FAULT_STAGE:
            try:
                os.close(os.open(target, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                continue  # already fired once
        elif target and target != str(chunk_index):
            continue
        os._exit(FAULT_EXIT_CODE)


def _default_owner() -> str:
    """A process-unique lease owner id (stable within the process)."""
    return f"pid{os.getpid()}-{uuid.uuid4().hex[:8]}"


@dataclass
class Lease:
    """A held claim on one chunk: owner id plus heartbeat deadline."""

    job_id: str
    chunk: int
    owner: str
    deadline: float


@dataclass(frozen=True)
class QueueJob:
    """One journaled sweep job: its spec, chunking, and lifecycle status."""

    job_id: str
    spec: SweepSpec
    chunk_size: int
    num_chunks: int
    total_points: int
    status: str

    def chunk_range(self, index: int) -> tuple[int, int]:
        """Point index half-open range ``[start, stop)`` of one chunk."""
        if not 0 <= index < self.num_chunks:
            raise ValueError(f"chunk {index} out of range 0..{self.num_chunks - 1}")
        start = index * self.chunk_size
        return start, min(start + self.chunk_size, self.total_points)


def _job_from_row(row: tuple[Any, ...] | None) -> QueueJob | None:
    """The job a journal row holds, or ``None`` for a missing or damaged
    row: its document must hash to its digest and parse as a sweep, and
    its chunking must cover its points."""
    if row is None:
        return None
    job_id, digest, chunk_size, num_chunks, total, status, body = row
    if (
        not isinstance(body, bytes)
        or hashlib.sha256(body).hexdigest() != digest
        or status not in JOB_STATUSES
        or not all(isinstance(value, int) for value in (chunk_size, num_chunks, total))
        or min(chunk_size, total) < 1
        or num_chunks != -(-total // chunk_size)
    ):
        return None
    try:
        spec = SweepSpec.from_dict(json.loads(body))
    except (TypeError, ValueError):  # JSON errors too: written by another build
        return None
    return QueueJob(job_id, spec, chunk_size, num_chunks, total, status)


class SweepQueue:
    """Lease-based chunk coordination over one shared store database.

    Parameters
    ----------
    store:
        The shared :class:`ResultStore`; the queue is two tables of its
        database, so every cooperating worker (or service replica)
        pointed at that root sees the same queue.
    owner:
        Lease owner id; defaults to a process-unique token.
    ttl:
        Lease time-to-live in clock seconds (an
        :class:`~repro.estimator.engine.ExecutionPolicy` ``lease_ttl``,
        checked there).
    clock:
        The deadline clock; defaults to :func:`time.monotonic`, which on
        the supported platforms is boot-relative and therefore
        comparable across processes on one machine. Tests inject a
        controllable clock to script expiry deterministically.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        owner: str | None = None,
        ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.store = store
        self.owner = owner if owner is not None else _default_owner()
        self.ttl = ttl
        self.clock = clock

    # -- statements --------------------------------------------------------

    def _query(self, statement: str, *parameters: Any) -> list[tuple[Any, ...]]:
        """The rows of one read; none without a database."""
        with self.store._database() as db:
            if db is not None:
                return db.execute(statement, parameters).fetchall()
        return []

    def _update(self, statement: str, *parameters: Any) -> bool:
        """Run one write as its own transaction; whether it changed
        exactly one row (``False`` too without a database, or when the
        write fails)."""
        with self.store._database() as db:
            if db is not None:
                with db:
                    return db.execute(statement, parameters).rowcount == 1
        return False

    # -- journal -----------------------------------------------------------

    def enqueue(
        self,
        spec: SweepSpec,
        *,
        registry: "Registry | None" = None,
        chunk_size: int | None = None,
    ) -> QueueJob:
        """Journal a sweep as a job row plus its chunk rows.

        One transaction, idempotent and race-free: the job row is
        inserted only if absent, so of N concurrent submitters exactly
        one defines the chunking and the rest adopt it, and the chunk
        rows follow the chunking that won. A finished job keeps its
        status (its stored row answers it); its chunk rows come back if
        ``gc`` took them.
        """
        from ..registry import default_registry

        resolved = registry if registry is not None else default_registry()
        job_id = spec.content_hash(resolved)
        total = len(spec.expand())
        size = chunk_size_for(chunk_size, spec.chunk_size, total, store=True)
        num_chunks = -(-total // size)
        body = _compact_json(spec.to_dict())
        digest = hashlib.sha256(body).hexdigest()
        values = (job_id, digest, len(body), size, num_chunks, total, body)
        insert = (
            f"INTO {JOBS_TABLE} (key, digest, size, chunk_size, num_chunks, "
            "total_points, status, body) VALUES (?, ?, ?, ?, ?, ?, 'submitted', ?)"
        )
        job = None
        with self.store._database(create=True) as db:
            if db is not None:
                with db:
                    db.execute(f"INSERT OR IGNORE {insert}", values)
                    job = _job_from_row(
                        db.execute(
                            f"SELECT {_JOB_COLUMNS} FROM {JOBS_TABLE} WHERE key = ?",
                            (job_id,),
                        ).fetchone()
                    )
                    if job is None:  # a damaged row: this submission replaces it
                        db.execute(f"REPLACE {insert}", values)
                        db.execute(f"DELETE FROM {CHUNKS_TABLE} WHERE job = ?", (job_id,))
                        job = QueueJob(job_id, spec, size, num_chunks, total, "submitted")
                    self._add_chunks(db, job)
        if job is None:
            raise RuntimeError(
                f"store {self.store.root} is not writable: cannot journal "
                f"sweep job {job_id}"
            )
        return job

    @staticmethod
    def _add_chunks(db: Any, job: QueueJob) -> None:
        """Insert the chunk rows of a job that are missing."""
        db.executemany(
            f"INSERT OR IGNORE INTO {CHUNKS_TABLE} (job, chunk) VALUES (?, ?)",
            ((job.job_id, index) for index in range(job.num_chunks)),
        )

    def reopen(self, job: QueueJob) -> QueueJob:
        """Mark a job submitted again, with all its chunk rows present.

        For a finished job whose stored row no longer answers it (stale
        or evicted): it is in flight again, so ``gc`` leaves its chunk
        rows alone and a restarted service resumes it.
        """
        with self.store._database() as db:
            if db is not None:
                with db:
                    db.execute(
                        f"UPDATE {JOBS_TABLE} SET status = 'submitted' WHERE key = ?",
                        (job.job_id,),
                    )
                    self._add_chunks(db, job)
        return replace(job, status="submitted")

    def load_job(self, job_id: str) -> QueueJob | None:
        """The journaled job for an id, or ``None`` (missing/damaged)."""
        ResultStore._check_hash(job_id)
        rows = self._query(
            f"SELECT {_JOB_COLUMNS} FROM {JOBS_TABLE} WHERE key = ?", job_id
        )
        return _job_from_row(rows[0] if rows else None)

    def pending_jobs(self) -> list[QueueJob]:
        """Journaled jobs not yet finished, by id (restart recovery)."""
        rows = self._query(
            f"SELECT {_JOB_COLUMNS} FROM {JOBS_TABLE} "
            "WHERE status != 'finished' ORDER BY key"
        )
        return [job for job in map(_job_from_row, rows) if job is not None]

    def depth(self) -> int:
        """How many journaled jobs are not finished: one ``COUNT(*)``."""
        rows = self._query(
            f"SELECT COUNT(*) FROM {JOBS_TABLE} WHERE status != 'finished'"
        )
        return rows[0][0] if rows else 0

    def mark_finished(self, job: QueueJob) -> bool:
        """Set the job's status to ``finished`` (idempotent)."""
        return self._update(
            f"UPDATE {JOBS_TABLE} SET status = 'finished' WHERE key = ?", job.job_id
        )

    # -- leases ------------------------------------------------------------

    def claim(self, job_id: str, index: int) -> Lease | None:
        """Try to acquire the lease on one chunk; ``None`` if held or done.

        One conditional ``UPDATE``: a chunk with no owner, or whose
        owner's deadline has passed, is taken; a live lease is never
        touched.
        """
        now = self.clock()
        deadline = now + self.ttl
        if self._update(
            f"UPDATE {CHUNKS_TABLE} SET owner = ?, deadline = ? "
            "WHERE job = ? AND chunk = ? AND done = 0 "
            "AND (owner IS NULL OR deadline <= ?)",
            self.owner,
            deadline,
            job_id,
            index,
            now,
        ):
            return Lease(job_id=job_id, chunk=index, owner=self.owner, deadline=deadline)
        return None

    def renew(self, lease: Lease) -> bool:
        """Heartbeat: push the lease deadline out; ``False`` if lost.

        Refuses to renew once the old deadline has passed — past it the
        chunk is fair game for takeover — and changes the row only while
        it still holds this lease. A worker whose renewal fails must
        treat the lease as lost (its work is still safe to finish:
        outcomes are idempotent, the worst case is duplicate effort).
        """
        now = self.clock()
        if now >= lease.deadline:
            return False
        deadline = now + self.ttl
        if not self._update(
            f"UPDATE {CHUNKS_TABLE} SET deadline = ? "
            "WHERE job = ? AND chunk = ? AND owner = ? AND deadline = ?",
            deadline,
            lease.job_id,
            lease.chunk,
            lease.owner,
            lease.deadline,
        ):
            return False
        lease.deadline = deadline
        return True

    def release(self, lease: Lease) -> None:
        """Drop a held lease (only while the row still holds it; losing
        it is benign)."""
        self._update(
            f"UPDATE {CHUNKS_TABLE} SET owner = NULL, deadline = NULL "
            "WHERE job = ? AND chunk = ? AND owner = ? AND deadline = ?",
            lease.job_id,
            lease.chunk,
            lease.owner,
            lease.deadline,
        )

    def lease_holder(self, job_id: str, index: int) -> dict[str, Any] | None:
        """The current lease on a chunk as ``{"owner", "deadline"}``, or
        ``None``."""
        rows = self._query(
            f"SELECT owner, deadline FROM {CHUNKS_TABLE} "
            "WHERE job = ? AND chunk = ? AND owner IS NOT NULL",
            job_id,
            index,
        )
        return {"owner": rows[0][0], "deadline": rows[0][1]} if rows else None

    # -- chunk outcomes ----------------------------------------------------

    def mark_done(self, lease: Lease, ok: int, failed: int) -> bool:
        """Record a leased chunk as done, with its point counts.

        Run after :func:`~repro.estimator.spec.run_specs` stored the
        chunk's points. Not guarded by the lease: a worker whose lease
        was taken over computed the same points and counts.
        """
        return self._update(
            f"UPDATE {CHUNKS_TABLE} SET done = 1, ok = ?, failed = ? "
            "WHERE job = ? AND chunk = ?",
            ok,
            failed,
            lease.job_id,
            lease.chunk,
        )

    def done_chunks(self, job: QueueJob) -> dict[int, tuple[int, int]]:
        """``index -> (ok, failed)`` of every chunk of a job marked done."""
        return {
            index: (ok, failed)
            for index, ok, failed in self._query(
                f"SELECT chunk, ok, failed FROM {CHUNKS_TABLE} "
                "WHERE job = ? AND done = 1",
                job.job_id,
            )
            if 0 <= index < job.num_chunks
        }

    # -- assembly ----------------------------------------------------------

    def finalize(
        self,
        job: QueueJob,
        point_hashes: Sequence[str],
        *,
        registry: "Registry",
        cache: "EstimateCache | None" = None,
        engine: ExecutionEngine | None = None,
    ) -> bool:
        """Assemble the sweep, persist its row, and close the journal.

        A row that already answers the job (:func:`stored_sweep`, given
        the job's ``point_hashes``) is kept. Otherwise the sweep runs as
        a local run does, against the store: every stored point is a
        hit, a point without a row is evaluated again. Its result is
        encoded once (:meth:`SweepResult.to_json`) and stored with
        :meth:`ResultStore.put_sweep`. Idempotent across racing
        finalizers, which write the same bytes. Returns whether the row
        landed.
        """
        if stored_sweep(job.spec, self.store, point_hashes=point_hashes) is None:
            result = _run_local(
                job.spec,
                self.store,
                job.job_id,
                point_hashes,
                job.chunk_size,
                registry=registry,
                cache=cache,
                policy=ExecutionPolicy(),
                progress=None,
                engine=engine,
            )
            if not self.store.put_sweep(job.job_id, result.to_json(), point_hashes):
                return False
        self.mark_finished(job)
        return True


def collect_garbage(store: ResultStore) -> dict[str, int]:
    """Delete the chunk rows of finished jobs whose sweep row is stored
    (``repro store gc``); returns ``{"removedChunks"}``.

    One statement. A finished job is not in flight — a job being rebuilt
    is reopened first (:meth:`SweepQueue.reopen`) — and its stored sweep
    row answers every rerun, so its chunk rows are litter. The job rows
    stay: they are the journal. Safe at any time, from any process.
    """
    removed = 0
    with store._database() as db:
        if db is not None:
            with db:
                removed = db.execute(
                    f"DELETE FROM {CHUNKS_TABLE} WHERE job IN ("
                    f"SELECT jobs.key FROM {JOBS_TABLE} AS jobs "
                    f"JOIN {store._tables['sweeps']} AS sweeps USING (key) "
                    "WHERE jobs.status = 'finished')"
                ).rowcount
    return {"removedChunks": removed}


class _Heartbeat:
    """Background lease renewal while a chunk evaluates.

    Renews at a fraction of the ttl so a healthy worker's lease never
    approaches its deadline; if a renewal is refused (deadline passed,
    lease reclaimed) the thread stops and flags the loss — the worker
    still finishes its idempotent writes, it just stops claiming more.
    """

    def __init__(self, queue: SweepQueue, lease: Lease) -> None:
        self.queue = queue
        self.lease = lease
        self.lost = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        interval = max(self.queue.ttl / 4.0, 0.01)
        while not self._stop.wait(interval):
            if not self.queue.renew(self.lease):
                self.lost = True
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


@dataclass
class WorkerReport:
    """What one :func:`run_worker` call did (observability, test hooks)."""

    owner: str
    chunks_evaluated: int = 0
    chunks_observed: int = 0
    jobs_finalized: int = 0
    jobs_seen: int = 0
    points_evaluated: int = 0
    incomplete_jobs: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "owner": self.owner,
            "chunksEvaluated": self.chunks_evaluated,
            "chunksObserved": self.chunks_observed,
            "jobsFinalized": self.jobs_finalized,
            "jobsSeen": self.jobs_seen,
            "pointsEvaluated": self.points_evaluated,
            "incompleteJobs": list(self.incomplete_jobs),
        }


def run_worker(
    store: ResultStore,
    *,
    job_id: str | None = None,
    registry: "Registry | None" = None,
    cache: "EstimateCache | None" = None,
    policy: ExecutionPolicy | None = None,
    poll: float = DEFAULT_POLL_INTERVAL,
    clock: Callable[[], float] = time.monotonic,
    owner: str | None = None,
    progress: Callable[[SweepProgress], None] | None = None,
    wait: bool | None = None,
    deadline_s: float | None = None,
    heartbeat: bool = True,
    log: "StructuredLogger | None" = None,
    engine: ExecutionEngine | None = None,
) -> WorkerReport:
    """Drain queued sweep chunks from a shared store; one worker process.

    With ``job_id``, works that job until its stored row answers it
    (waiting out other workers' leases by default); without, makes one
    pass over every pending journaled job and returns when nothing more
    is claimable. Each claimed chunk runs through
    :func:`~repro.estimator.spec.run_specs` against the shared store —
    so per-point results persist for resume and cross-worker reuse —
    then the chunk is marked done and the lease released.

    ``progress`` receives cumulative :class:`SweepProgress` events as
    chunks complete (evaluated here or observed done from another
    worker; observed points count as ``from_store``). ``wait=False``
    returns instead of sleeping on chunks leased elsewhere;
    ``deadline_s`` bounds the whole call.

    Raising from ``progress`` aborts cleanly between chunks (leases
    released, completed work persisted) — the estimation service uses
    this for shutdown, and a later worker resumes from the done chunks.

    ``log`` (a :class:`~repro.jsonlog.StructuredLogger`) emits one JSON
    record per lifecycle step — ``worker.start``, ``worker.chunk`` (per
    chunk evaluated, with the job id), ``worker.done`` —
    so ``repro work`` output joins the service's request/job records on
    ``jobId``. Defaults to disabled.

    ``policy`` supplies the lease time-to-live and the worker count.
    Every claimed chunk runs through one
    :class:`~repro.estimator.engine.ExecutionEngine`, exactly as in
    :func:`~repro.estimator.sweep.run_sweep`: a caller-supplied
    ``engine`` is shared and left open (chunks take turns with its
    other users through its lock); otherwise one with
    ``policy.workers`` workers serves this worker's whole drain (one
    persistent pool when that enables process fan-out) and is closed on
    return.
    """
    from ..jsonlog import StructuredLogger
    from ..registry import default_registry

    resolved_registry = registry if registry is not None else default_registry()
    policy = policy if policy is not None else ExecutionPolicy()
    queue = SweepQueue(store, owner=owner, ttl=policy.lease_ttl, clock=clock)
    report = WorkerReport(owner=queue.owner)
    logger = log if log is not None else StructuredLogger.disabled()
    started = time.monotonic()

    def out_of_time() -> bool:
        return deadline_s is not None and time.monotonic() - started >= deadline_s

    if job_id is not None:
        job = queue.load_job(job_id)
        if job is None:
            raise ValueError(f"unknown sweep job {job_id!r} in {store.root}")
        jobs = [job]
        wait_for_others = True if wait is None else wait
    else:
        jobs = queue.pending_jobs()
        wait_for_others = False if wait is None else wait

    logger.event(
        "worker.start",
        owner=queue.owner,
        store=str(store.root),
        jobs=len(jobs),
        jobId=job_id,
    )
    with engine_scope(
        engine, max_workers=policy.workers, store_root=store.root, log=logger
    ) as runner:
        for job in jobs:
            report.jobs_seen += 1
            done = _drain_job(
                queue,
                job,
                report,
                registry=resolved_registry,
                cache=cache,
                progress=progress,
                wait=wait_for_others,
                poll=poll,
                out_of_time=out_of_time,
                heartbeat=heartbeat,
                log=logger,
                engine=runner,
            )
            if not done:
                report.incomplete_jobs.append(job.job_id)
    logger.event(
        "worker.done",
        owner=queue.owner,
        duration_s=round(time.monotonic() - started, 6),
        **{
            key: value
            for key, value in report.to_dict().items()
            if key != "owner"
        },
    )
    return report


def _drain_job(
    queue: SweepQueue,
    job: QueueJob,
    report: WorkerReport,
    *,
    registry: "Registry",
    cache: "EstimateCache | None",
    progress: Callable[[SweepProgress], None] | None,
    wait: bool,
    poll: float,
    out_of_time: Callable[[], bool],
    heartbeat: bool,
    engine: ExecutionEngine,
    log: "StructuredLogger | None" = None,
) -> bool:
    """Work one job to completion (or until blocked); True when finished.

    The job is finished when its stored row answers it by the same rule
    :func:`~repro.estimator.sweep.run_sweep` applies
    (:func:`stored_sweep`); a stale or foreign row is rebuilt instead,
    even for a job the journal already calls finished (it is reopened).
    """
    point_hashes = job.spec.point_hashes(registry)
    if stored_sweep(job.spec, queue.store, point_hashes=point_hashes) is not None:
        queue.mark_finished(job)
        return True
    if job.status == "finished":
        job = queue.reopen(job)
    points = job.spec.expand()
    # Cumulative accounting per chunk: (points, ok, failed, from_store).
    accounted: dict[int, tuple[int, int, int, int]] = {}

    def emit() -> None:
        if progress is None:
            return
        totals = [sum(stat[i] for stat in accounted.values()) for i in range(4)]
        progress(
            SweepProgress(
                chunk=len(accounted),
                num_chunks=job.num_chunks,
                completed=totals[0],
                total=job.total_points,
                ok=totals[1],
                failed=totals[2],
                from_store=totals[3],
            )
        )

    while True:
        made_progress = False
        # Chunks another worker finished count as read from the store.
        for index, (ok, failed) in sorted(queue.done_chunks(job).items()):
            if index not in accounted:
                accounted[index] = (ok + failed, ok, failed, ok + failed)
                report.chunks_observed += 1
                made_progress = True
                emit()
        for index in range(job.num_chunks):
            if index in accounted:
                continue
            lease = queue.claim(job.job_id, index)
            if lease is None:
                continue  # leased elsewhere, or done since the read above
            try:
                _fault_point("claimed", index)
                start, stop = job.chunk_range(index)
                beat = _Heartbeat(queue, lease) if heartbeat else nullcontext()
                with beat:
                    from .spec import run_specs

                    outcomes = run_specs(
                        [point.spec for point in points[start:stop]],
                        registry=registry,
                        store=queue.store,
                        cache=cache,
                        engine=engine,
                        spec_hashes=point_hashes[start:stop],
                    )
                _fault_point("evaluated", index)
                ok = sum(1 for outcome in outcomes if outcome.ok)
                failed = len(outcomes) - ok
                queue.mark_done(lease, ok, failed)
                _fault_point("persisted", index)
                from_store = sum(1 for outcome in outcomes if outcome.from_store)
                accounted[index] = (len(outcomes), ok, failed, from_store)
                report.chunks_evaluated += 1
                report.points_evaluated += len(outcomes)
                engine.note_chunk_size(job.chunk_size)
                if log is not None:
                    log.event(
                        "worker.chunk",
                        jobId=job.job_id,
                        chunk=index,
                        points=len(outcomes),
                        ok=ok,
                        mode="evaluated",
                    )
            finally:
                queue.release(lease)
            made_progress = True
            emit()
        if len(accounted) == job.num_chunks:
            if queue.finalize(
                job, point_hashes, registry=registry, cache=cache, engine=engine
            ):
                report.jobs_finalized += 1
                return True
            return False
        if not made_progress:
            if not wait or out_of_time():
                return False
            time.sleep(poll)
        elif out_of_time():
            return False
