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

Queue layout
------------
Everything lives under two store namespaces::

    <root>/repro-queue-v1/<sweep-hash>/
        chunks/<index>.json    chunk records (point index ranges)
        leases/<index>.lease   claim files: owner id + heartbeat deadline
        done/<index>.json      per-chunk outcome documents
    <root>/repro-jobs-v1/<hh>/<sweep-hash>.json
        the job journal: sweep document, chunking, lifecycle status

Every file is digest-enveloped (:func:`write_document`: SHA-256 over
its canonical JSON, checked by :func:`read_document`) and published
through a temporary file and :func:`os.replace`. These files are the
store's only files besides its database; :func:`collect_garbage` (the
``repro store gc`` CLI) reclaims their litter.

The journal is the durable submission record: ``enqueue`` creates it
with an *exclusive* atomic write (tmp file + :func:`os.link`), so
concurrent submitters of an equivalent sweep agree on one chunking —
losers adopt the winner's journal. A restarted ``repro serve`` scans
the journal namespace and resumes every job not yet ``finished``
(finished sweeps are already re-served from the sweep-result
namespace).

Lease lifecycle
---------------
A worker claims a chunk by atomically creating its lease file (full
content first, then :func:`os.link` — a torn lease can never be
observed), embedding its owner id and a deadline ``now + ttl`` on the
shared monotonic clock. While evaluating, a heartbeat rewrites the
lease (atomic replace) to push the deadline out; renewal refuses to
run once the deadline has passed. A dead worker simply stops
heartbeating: after the deadline, any other worker *takes over* by
renaming the stale lease to a unique tombstone (exactly one concurrent
reclaimer wins the rename) and claiming fresh. Because renewal stops
at the deadline and takeover starts after it, two live leaseholders on
one chunk would require a process pause straddling the exact expiry
instant — and even then the failure mode is duplicate work, never
corruption: chunk outcomes are deterministic and all writes are
idempotent (same path, same bytes).

Completion is a ``done/`` outcome document written *before* the lease
is released; a crash at any point between claim and release leaves
either no marker (chunk reclaimed and re-evaluated) or a whole,
digest-verified marker (chunk observed as done). When every chunk has
a marker, any worker assembles the :class:`SweepResult`, persists it
under the sweep-result namespace, and marks the journal ``finished``.

Fault injection
---------------
The module exposes deterministic kill-points for the crash-safety
tests: with ``REPRO_QUEUE_FAULT=<stage>[:<chunk>],...`` in the
environment, a worker calls :func:`os._exit` at the named stage —
``claimed`` (after acquiring a lease), ``evaluated`` (after computing
the chunk, before persisting it), or ``persisted`` (after persisting,
before releasing the lease). ``tests/faults.py`` drives real worker
subprocesses through these, and the chaos property test asserts the
survivors' result equals the serial run bit for bit. The same variable
arms one kill-point inside the execution engine's pool workers:
``engine-chunk:<marker path>`` makes the first worker to start a chunk
exit, once — it atomically creates the marker file, and every later
chunk (including the engine's replay of the lost one) sees it and runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import uuid
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from .engine import (
    DEFAULT_LEASE_TTL,
    ExecutionEngine,
    ExecutionPolicy,
    chunk_size_for,
    engine_scope,
)
from .store import JOBS_SCHEMA, QUEUE_SCHEMA, ResultStore, _compact_json
from .sweep import (
    SweepPointOutcome,
    SweepProgress,
    SweepResult,
    SweepSpec,
    _outcome_from_dict,
    _reduce_frontiers,
    stored_sweep,
)

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
    "read_document",
    "run_worker",
    "write_document",
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

#: Default tolerance for file mtimes in the *future* during ``gc``: up
#: to this far ahead of the local clock a file is treated as fresh
#: (tolerable writer/collector clock skew on a shared store); beyond it
#: no live writer can plausibly have produced the timestamp, so the
#: file is clock-skew litter and is collected rather than left immortal.
DEFAULT_GC_FUTURE_SKEW = 3600.0


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
    path: Path


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


class SweepQueue:
    """Lease-based chunk coordination over one shared store directory.

    Parameters
    ----------
    store:
        The shared :class:`ResultStore`; the queue lives in sibling
        namespaces under the same root, so every cooperating worker (or
        service replica) pointed at that root sees the same queue.
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

    # -- paths -------------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        ResultStore._check_hash(job_id)
        return self.store.root / QUEUE_SCHEMA / job_id

    def chunk_path(self, job_id: str, index: int) -> Path:
        return self.job_dir(job_id) / "chunks" / f"{index:06d}.json"

    def lease_path(self, job_id: str, index: int) -> Path:
        return self.job_dir(job_id) / "leases" / f"{index:06d}.lease"

    def done_path(self, job_id: str, index: int) -> Path:
        return self.job_dir(job_id) / "done" / f"{index:06d}.json"

    def journal_path(self, job_id: str) -> Path:
        ResultStore._check_hash(job_id)
        return self.store.root.joinpath(JOBS_SCHEMA, job_id[:2], f"{job_id}.json")

    def _read_journal(self, job_id: str) -> dict[str, Any] | None:
        """The verified journal document of a job, or ``None``."""
        document = read_document(self.journal_path(job_id))
        if (
            document is None
            or document.get("schema") != JOBS_SCHEMA
            or document.get("jobId") != job_id
        ):
            return None
        return document

    # -- journal -----------------------------------------------------------

    def enqueue(
        self,
        spec: SweepSpec,
        *,
        registry: "Registry | None" = None,
        chunk_size: int | None = None,
    ) -> QueueJob:
        """Persist a sweep as a journaled job plus chunk records.

        Idempotent and race-free: the journal is created with an
        exclusive atomic write, so of N concurrent submitters exactly
        one defines the chunking and the rest adopt it — mixed-size
        chunk markers for one job cannot exist. Re-enqueueing a
        finished job returns it as-is (the stored sweep result already
        answers it).
        """
        from ..registry import default_registry

        resolved = registry if registry is not None else default_registry()
        job_id = spec.content_hash(resolved)
        existing = self.load_job(job_id)
        if existing is None:
            total = len(spec.expand())
            size = chunk_size_for(chunk_size, spec.chunk_size, total, store=True)
            num_chunks = max(1, -(-total // size))
            document = {
                "schema": JOBS_SCHEMA,
                "jobId": job_id,
                "sweep": spec.to_dict(),
                "chunkSize": size,
                "numChunks": num_chunks,
                "totalPoints": total,
                "status": "submitted",
            }
            path = self.journal_path(job_id)
            write_document(path, document, exclusive=True)
            # Whether we won or raced, the journal on disk is now the
            # single source of truth for this job's chunking.
            existing = self.load_job(job_id)
            if existing is None:
                raise RuntimeError(
                    f"store {self.store.root} is not writable: cannot journal "
                    f"sweep job {job_id}"
                )
        if existing.status == "finished":
            return existing  # answered by its stored sweep, not by chunks
        for index in range(existing.num_chunks):
            start, stop = existing.chunk_range(index)
            write_document(
                self.chunk_path(job_id, index),
                {
                    "schema": QUEUE_SCHEMA,
                    "kind": "chunk",
                    "jobId": job_id,
                    "chunk": index,
                    "start": start,
                    "stop": stop,
                },
            )
        return existing

    def load_job(self, job_id: str) -> QueueJob | None:
        """The journaled job for an id, or ``None`` (missing/corrupt)."""
        document = self._read_journal(job_id)
        if document is None or document.get("status") not in JOB_STATUSES:
            return None
        try:
            spec = SweepSpec.from_dict(document["sweep"])
            chunk_size = int(document["chunkSize"])
            num_chunks = int(document["numChunks"])
            total = int(document["totalPoints"])
        except (KeyError, TypeError, ValueError):
            return None  # written by an incompatible (future) build
        if chunk_size < 1 or num_chunks < 1 or total < 1:
            return None
        return QueueJob(
            job_id=job_id,
            spec=spec,
            chunk_size=chunk_size,
            num_chunks=num_chunks,
            total_points=total,
            status=str(document["status"]),
        )

    def job_ids(self) -> Iterator[str]:
        """Ids of every journaled job under this store, sorted."""
        base = self.store.root / JOBS_SCHEMA
        if not base.is_dir():
            return
        for path in sorted(base.glob("*/*.json")):
            yield path.stem

    def pending_jobs(self) -> list[QueueJob]:
        """Journaled jobs not yet marked finished (restart recovery)."""
        pending = []
        for job_id in self.job_ids():
            job = self.load_job(job_id)
            if job is not None and job.status != "finished":
                pending.append(job)
        return pending

    def mark_finished(self, job: QueueJob) -> bool:
        """Rewrite the journal with ``status: finished`` (idempotent)."""
        document = self._read_journal(job.job_id)
        if document is None:
            return False
        document["status"] = "finished"
        return write_document(self.journal_path(job.job_id), document)

    # -- leases ------------------------------------------------------------

    def claim(self, job_id: str, index: int) -> Lease | None:
        """Try to acquire the lease on one chunk; ``None`` if held.

        An expired (or unreadable) lease is taken over: the stale file
        is renamed to a unique tombstone — of any number of concurrent
        reclaimers exactly one wins the rename — and the winner claims
        fresh. A live lease is never touched.
        """
        now = self.clock()
        path = self.lease_path(job_id, index)
        payload = {"owner": self.owner, "deadline": now + self.ttl}
        if _write_atomic(path, _compact_json(payload), exclusive=True):
            return Lease(
                job_id=job_id,
                chunk=index,
                owner=self.owner,
                deadline=payload["deadline"],
                path=path,
            )
        current = _read_lease(path)
        if current is not None and current.get("deadline", 0.0) > now:
            return None  # live holder
        tombstone = path.parent / f".{path.name}.stale-{self.owner}-{uuid.uuid4().hex[:8]}"
        try:
            os.replace(path, tombstone)
        except OSError:
            return None  # another reclaimer won (or the holder released)
        try:
            tombstone.unlink()
        except OSError:
            pass
        if _write_atomic(path, _compact_json(payload), exclusive=True):
            return Lease(
                job_id=job_id,
                chunk=index,
                owner=self.owner,
                deadline=payload["deadline"],
                path=path,
            )
        return None

    def renew(self, lease: Lease) -> bool:
        """Heartbeat: push the lease deadline out; ``False`` if lost.

        Refuses to renew once the old deadline has passed — past it the
        chunk is fair game for takeover, and rewriting then could
        clobber a reclaimer's fresh lease. A worker whose renewal fails
        must treat the lease as lost (its work is still safe to finish:
        outcomes are idempotent, the worst case is duplicate effort).
        """
        now = self.clock()
        if now >= lease.deadline:
            return False
        current = _read_lease(lease.path)
        if current is None or current.get("owner") != self.owner:
            return False
        deadline = now + self.ttl
        payload = {"owner": self.owner, "deadline": deadline}
        if not _write_atomic(lease.path, _compact_json(payload)):
            return False
        lease.deadline = deadline
        return True

    def release(self, lease: Lease) -> None:
        """Drop a held lease (only if still ours; losing it is benign)."""
        current = _read_lease(lease.path)
        if current is not None and current.get("owner") == self.owner:
            try:
                lease.path.unlink()
            except OSError:
                pass

    def lease_holder(self, job_id: str, index: int) -> dict[str, Any] | None:
        """The current lease document for a chunk, or ``None``."""
        return _read_lease(self.lease_path(job_id, index))

    # -- chunk outcomes ----------------------------------------------------

    def read_done(self, job: QueueJob, index: int) -> dict[str, Any] | None:
        """A chunk's persisted outcome document, or ``None``.

        Validates the marker against the *journal's* chunking (schema,
        job id, point range): a marker from a lost chunking race is
        invisible, so the chunk simply re-evaluates under the winning
        decomposition.
        """
        document = read_document(self.done_path(job.job_id, index))
        if document is None:
            return None
        start, stop = job.chunk_range(index)
        if (
            document.get("schema") != QUEUE_SCHEMA
            or document.get("kind") != "outcomes"
            or document.get("jobId") != job.job_id
            or document.get("chunk") != index
            or document.get("start") != start
            or document.get("stop") != stop
            or not isinstance(document.get("outcomes"), list)
            or len(document["outcomes"]) != stop - start
        ):
            return None
        return document

    def chunk_done(self, job: QueueJob, index: int) -> bool:
        return self.read_done(job, index) is not None

    def write_done(
        self, job: QueueJob, index: int, outcomes: list[dict[str, Any]]
    ) -> bool:
        """Persist one evaluated chunk's outcomes (atomic, idempotent).

        Outcome entries are :meth:`SweepPointOutcome.to_dict` documents
        — execution provenance excluded — so every worker that evaluates
        this chunk writes byte-identical content.
        """
        start, stop = job.chunk_range(index)
        return write_document(
            self.done_path(job.job_id, index),
            {
                "schema": QUEUE_SCHEMA,
                "kind": "outcomes",
                "jobId": job.job_id,
                "chunk": index,
                "start": start,
                "stop": stop,
                "outcomes": outcomes,
            },
        )

    # -- assembly ----------------------------------------------------------

    def assemble(self, job: QueueJob) -> SweepResult | None:
        """The full :class:`SweepResult` from the done markers, or ``None``.

        Requires every chunk's marker; outcomes concatenate in chunk
        order (= expansion order) and frontiers reduce exactly as the
        single-process path does, so the assembled result serializes
        bit-for-bit equal to an uninterrupted ``run_sweep``.
        """
        fields = [axis.field for axis in job.spec.axes]
        outcomes: list[SweepPointOutcome] = []
        for index in range(job.num_chunks):
            document = self.read_done(job, index)
            if document is None:
                return None
            try:
                outcomes.extend(
                    _outcome_from_dict(entry, fields)
                    for entry in document["outcomes"]
                )
            except (KeyError, TypeError, ValueError):
                return None  # torn-proof, but future-build markers parse here
        frontiers = (
            _reduce_frontiers(job.spec.frontier, outcomes)
            if job.spec.frontier is not None
            else None
        )
        return SweepResult(
            sweep_hash=job.job_id,
            spec=job.spec,
            points=outcomes,
            frontiers=frontiers,
        )

    def finalize(self, job: QueueJob, point_hashes: Sequence[str]) -> bool:
        """Assemble, persist the sweep's row, and close the journal.

        A row that already answers the job (:func:`stored_sweep`, given
        the job's ``point_hashes``) is kept; a missing, stale or foreign
        one is replaced. Idempotent across racing finalizers — the
        assembled result is deterministic, so concurrent
        :meth:`ResultStore.put_sweep` calls write the same bytes, encoded
        once per finalizer (:meth:`SweepResult.to_json`). Returns
        ``False`` while chunks are still missing.
        """
        if stored_sweep(job.spec, self.store, point_hashes=point_hashes) is None:
            result = self.assemble(job)
            if result is None:
                return False
            self.store.put_sweep(job.job_id, result.to_json(), point_hashes)
        self.mark_finished(job)
        return True


# -- low-level file plumbing ----------------------------------------------


def _digest(document: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a document, sans its digest."""
    body = {key: value for key, value in document.items() if key != "digest"}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def read_document(path: Path) -> dict[str, Any] | None:
    """Parse and integrity-check one queue or journal file (miss on failure)."""
    try:
        document = json.loads(path.read_bytes())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(document, dict):
        return None
    digest = document.get("digest")
    if not isinstance(digest, str) or digest != _digest(document):
        return None  # corrupt, tampered, or pre-digest document
    return document


def write_document(
    path: Path, document: dict[str, Any], *, exclusive: bool = False
) -> bool:
    """Atomically persist a queue or journal file with its digest.

    See :func:`_write_atomic`: concurrent writers and crashes can never
    leave a torn document, and rewriting identical content is
    idempotent. ``exclusive`` creates the file only if it is absent.
    """
    document = dict(document)
    document["digest"] = _digest(document)
    return _write_atomic(path, _compact_json(document), exclusive=exclusive)


def _write_atomic(path: Path, data: bytes, *, exclusive: bool = False) -> bool:
    """Publish ``data`` at ``path`` whole or not at all; returns success.

    Writes a temporary file in the destination directory, then publishes
    it with :func:`os.replace` — or, with ``exclusive``, with
    :func:`os.link`, which fails if the path exists — so observers see
    either the old file (or none) or the whole new one, never a partial
    write. ``False`` when the path is unwritable, or exists under
    ``exclusive``.
    """
    view = memoryview(data)
    prefix = f".{path.stem[:8]}-"
    try:
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=prefix, suffix=".tmp"
            )
        except FileNotFoundError:
            # First write into this directory (or the first since gc
            # emptied it): create it and retry. Asking the filesystem on
            # failure, instead of calling mkdir per write or remembering
            # known directories, costs nothing on the common path and
            # never goes stale.
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=prefix, suffix=".tmp"
            )
        try:
            try:
                while view:
                    view = view[os.write(fd, view) :]
            finally:
                os.close(fd)
            if exclusive:
                os.link(tmp_name, path)
            else:
                os.replace(tmp_name, path)
        except BaseException:
            _unlink_quietly(tmp_name)
            raise
        if exclusive:
            _unlink_quietly(tmp_name)
    except OSError:
        return False
    return True


def _unlink_quietly(name: str) -> None:
    try:
        os.unlink(name)
    except OSError:
        pass



def _finished_job_dirs(store: ResultStore) -> Iterator[Path]:
    """Queue directories of jobs that are over.

    A job is over when its journal says ``finished`` and its sweep
    document is stored: the document answers every re-run, so the
    per-chunk records (which repeat its outcomes) are litter. A job
    whose sweep document was evicted keeps its records — its done
    chunks still rebuild the document without re-evaluating.
    """
    queue_base = store.root / QUEUE_SCHEMA
    if not queue_base.is_dir():
        return
    queue = SweepQueue(store)
    for job_dir in sorted(queue_base.iterdir()):
        try:
            job = queue.load_job(job_dir.name)
        except ValueError:
            continue  # not a job directory
        if (
            job is not None
            and job.status == "finished"
            and store.read("sweeps", job.job_id) is not None
        ):
            yield job_dir


def collect_garbage(
    store: ResultStore,
    *,
    older_than_s: float = 3600.0,
    future_skew_s: float = DEFAULT_GC_FUTURE_SKEW,
) -> dict[str, Any]:
    """Remove a store's orphaned queue ``.tmp``, expired lease and
    tombstone files, plus the chunk and done records of finished queue
    jobs; report bytes (``repro store gc``).

    Only queue and journal files are candidates: the database leaves no
    litter (a transaction commits whole or not at all), and
    :meth:`ResultStore.evict` bounds it. Only files aged at least
    ``older_than_s`` seconds are touched, so in-flight writes and live
    leases (rewritten on every heartbeat, keeping their mtime fresh) are
    never collected. Queue records are collected only for a job whose
    journal is ``finished`` and whose sweep document is stored; their
    emptied directories go too.

    Clock contract: age is the local wall clock minus the file's mtime,
    which on a shared store may have been stamped by a machine whose
    clock disagrees with ours. A file whose mtime is *ahead* of our
    clock by up to ``future_skew_s`` is treated as fresh — a writer
    running slightly ahead (or our clock stepping back) must not get
    its live files reaped — while one ahead by *more* cannot be live
    work and is collected like any expired orphan instead of being
    immortal. Files whose mtime appears *old* are indistinguishable
    from genuinely old ones, so keep ``older_than_s`` larger than the
    worst clock disagreement between writers (the 3600 s default dwarfs
    realistic NTP drift). Returns ``{"removedFiles", "reclaimedBytes",
    "olderThanSeconds"}``; an unremovable file is skipped, never an
    error — gc on a shared store is safe at any time, from any process.
    """
    now = time.time()
    older = max(older_than_s, 0.0)
    skew = max(future_skew_s, 0.0)
    removed = 0
    reclaimed = 0
    finished = list(_finished_job_dirs(store))
    candidates = list(store.orphan_files())
    for job_dir in finished:
        candidates += [*job_dir.glob("chunks/*.json"), *job_dir.glob("done/*.json")]
    for path in candidates:
        try:
            stat = path.stat()
            age = now - stat.st_mtime
            if -skew <= age < older:
                continue  # fresh (within tolerated skew): possibly live
            path.unlink()
        except OSError:
            continue  # vanished or unremovable; skip
        removed += 1
        reclaimed += stat.st_size
    for job_dir in finished:
        for name in ("chunks", "done", "leases", ""):
            try:
                (job_dir / name).rmdir()  # only succeeds once emptied
            except OSError:
                pass
    return {
        "removedFiles": removed,
        "reclaimedBytes": reclaimed,
        "olderThanSeconds": older_than_s,
    }


def _read_lease(path: Path) -> dict[str, Any] | None:
    """Parse a lease file; ``None`` for missing/corrupt (= reclaimable)."""
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(document, dict) or not isinstance(
        document.get("deadline"), (int, float)
    ):
        return None
    return document


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
    then its outcome document is written and the lease released.

    ``progress`` receives cumulative :class:`SweepProgress` events as
    chunks complete (evaluated here or observed done from another
    worker; observed points count as ``from_store``). ``wait=False``
    returns instead of sleeping on chunks leased elsewhere;
    ``deadline_s`` bounds the whole call.

    Raising from ``progress`` aborts cleanly between chunks (leases
    released, completed work persisted) — the estimation service uses
    this for shutdown, and a later worker resumes from the markers.

    ``log`` (a :class:`~repro.jsonlog.StructuredLogger`) emits one JSON
    record per lifecycle step — ``worker.start``, ``worker.chunk`` (per
    chunk evaluated or observed, with the job id), ``worker.done`` —
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
    (:func:`stored_sweep`); a stale or foreign row is rebuilt from the
    chunks instead, even for a job the journal already calls finished.
    """
    point_hashes = job.spec.point_hashes(registry)
    if stored_sweep(job.spec, queue.store, point_hashes=point_hashes) is not None:
        queue.mark_finished(job)
        return True
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
        for index in range(job.num_chunks):
            if index in accounted:
                continue
            marker = queue.read_done(job, index)
            if marker is not None:
                entries = marker["outcomes"]
                ok = sum(1 for entry in entries if entry.get("ok"))
                accounted[index] = (len(entries), ok, len(entries) - ok, len(entries))
                report.chunks_observed += 1
                made_progress = True
                emit()
                continue
            lease = queue.claim(job.job_id, index)
            if lease is None:
                continue
            try:
                # Re-check under the lease: a worker that crashed between
                # persisting the marker and releasing the lease leaves
                # both behind; the chunk is done, not re-evaluable work.
                marker = queue.read_done(job, index)
                if marker is None:
                    _fault_point("claimed", index)
                    start, stop = job.chunk_range(index)
                    chunk_points = points[start:stop]
                    beat = _Heartbeat(queue, lease) if heartbeat else nullcontext()
                    with beat:
                        from .spec import run_specs

                        chunk_outcomes = run_specs(
                            [point.spec for point in chunk_points],
                            registry=registry,
                            store=queue.store,
                            cache=cache,
                            engine=engine,
                            spec_hashes=point_hashes[start:stop],
                        )
                    _fault_point("evaluated", index)
                    outcome_objs = [
                        SweepPointOutcome(
                            index=point.index,
                            coords=point.coords,
                            label=point.spec.label,
                            spec_hash=outcome.spec_hash,
                            result=outcome.result,
                            error=outcome.error,
                            from_store=outcome.from_store,
                            result_dict=outcome.result_dict,
                        )
                        for point, outcome in zip(chunk_points, chunk_outcomes)
                    ]
                    queue.write_done(
                        job, index, [outcome.to_dict() for outcome in outcome_objs]
                    )
                    _fault_point("persisted", index)
                    ok = sum(1 for outcome in outcome_objs if outcome.ok)
                    from_store = sum(
                        1 for outcome in outcome_objs if outcome.from_store
                    )
                    accounted[index] = (
                        len(outcome_objs),
                        ok,
                        len(outcome_objs) - ok,
                        from_store,
                    )
                    report.chunks_evaluated += 1
                    report.points_evaluated += len(outcome_objs)
                    engine.note_chunk_size(job.chunk_size)
                    if log is not None:
                        log.event(
                            "worker.chunk",
                            jobId=job.job_id,
                            chunk=index,
                            points=len(outcome_objs),
                            ok=ok,
                            mode="evaluated",
                        )
                else:
                    entries = marker["outcomes"]
                    ok = sum(1 for entry in entries if entry.get("ok"))
                    accounted[index] = (
                        len(entries),
                        ok,
                        len(entries) - ok,
                        len(entries),
                    )
                    report.chunks_observed += 1
            finally:
                queue.release(lease)
            made_progress = True
            emit()
        if len(accounted) == job.num_chunks:
            if queue.finalize(job, point_hashes):
                report.jobs_finalized += 1
                return True
            return False
        if not made_progress:
            if not wait or out_of_time():
                return False
            time.sleep(poll)
        elif out_of_time():
            return False
