"""Persistent warm-worker execution engine for chunked estimation.

:class:`ExecutionEngine` is the only code that fans estimation out over
worker processes. It owns one pool for a whole batch / sweep / optimize
run / service lifetime: workers are initialized once (pre-creating
their process-global :class:`~repro.estimator.batch.EstimateCache` and,
when a store root is known, the per-process
:class:`~repro.estimator.store.ResultStore` handle) and keep those memo
tables warm across every chunk they evaluate. An engine built with one
worker never spawns a pool and runs every batch serially in-process.

Crash safety: a worker dying mid-chunk marks the pool broken. The
engine harvests every chunk that already completed, rebuilds the pool,
and replays only the chunks that were lost — estimation is pure and
deterministic, so replayed results are bit-for-bit identical to an
uninterrupted (or serial) run. After ``max_rebuilds`` consecutive
failures within one batch the engine degrades to serial execution for
the remaining chunks, recording the reason as an executor fallback.

The engine never changes *results*, only where and how often processes
are spawned; chunking never participates in content hashes.

How a job runs is one frozen :class:`ExecutionPolicy`, built once by
the CLI or the service settings. The engine owns the evaluation lock
(:attr:`ExecutionEngine.lock`), which every
:func:`~repro.estimator.spec.run_specs` call on a shared engine holds.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from ..jsonlog import StructuredLogger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

    from .batch import BatchOutcome, EstimateCache, EstimateRequest

#: Bound on pool rebuilds within a single run() before degrading to
#: serial execution — guards against a chunk that deterministically
#: kills its worker from rebuilding forever.
DEFAULT_MAX_REBUILDS = 3

#: Points evaluated (and persisted) per chunk with a store when neither
#: the policy nor the sweep picks a size.
DEFAULT_CHUNK_SIZE = 16

#: Default lease time-to-live: a queue worker that misses heartbeats for
#: this long is presumed dead and its chunk becomes reclaimable.
DEFAULT_LEASE_TTL = 30.0

#: How a sweep's chunks run: in this call, or through the store's lease
#: queue (:mod:`repro.estimator.queue`).
EXECUTORS = ("local", "queue")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a job runs — never what it computes.

    ``workers`` sizes the engine's process pool (``1`` runs serially);
    ``executor`` is ``"local"`` (chunks run in the calling process) or
    ``"queue"`` (chunks are journaled and leased through the store's
    work queue, so other ``repro work`` processes can help and a crash
    resumes); ``chunk_size`` overrides the sweep's chunking (see
    :func:`chunk_size_for`); ``lease_ttl`` is the queue's
    crash-detection latency. Every executor and chunking gives
    bit-for-bit identical results, so none of this enters a content
    hash.
    """

    workers: int = 1
    executor: str = "local"
    chunk_size: int | None = None
    lease_ttl: float = DEFAULT_LEASE_TTL

    def __post_init__(self) -> None:
        if not _is_int(self.workers) or self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.chunk_size is not None and (
            not _is_int(self.chunk_size) or self.chunk_size < 1
        ):
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size!r}")
        ttl = self.lease_ttl
        if isinstance(ttl, bool) or not isinstance(ttl, (int, float)) or not ttl > 0:
            raise ValueError(f"lease_ttl must be > 0, got {ttl!r}")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def chunk_size_for(
    chunk_size: int | None, hint: int | None, num_points: int, *, store: bool
) -> int:
    """The one chunk-size rule of both executors.

    The policy's ``chunk_size``, else the sweep's ``chunkSize`` hint,
    else :data:`DEFAULT_CHUNK_SIZE` with a store — chunking exists to
    bound the work a kill loses between persisted chunks — and a single
    chunk (one batch call, one process pool) without one.
    """
    size = chunk_size or hint
    if size is None:
        size = DEFAULT_CHUNK_SIZE if store else max(num_points, 1)
    return size


class ExecutionEngine:
    """A reusable process pool with warm worker caches and crash replay.

    Parameters
    ----------
    max_workers:
        Worker-process count; ``None`` uses ``os.cpu_count()``. An engine
        built with ``max_workers=1`` never spawns a pool — every run
        executes serially in-process (still a valid engine, so callers
        can thread one object through unconditionally).
    store_root:
        Optional result-store root passed to the worker initializer so
        workers pre-create their per-process store handle (warm counts
        cache across chunks).
    log:
        Structured logger for pool lifecycle events (spawn, rebuild,
        fallback); disabled by default.
    max_rebuilds:
        Consecutive pool rebuilds tolerated within one :meth:`run`
        before degrading the remainder of the batch to serial execution.
    """

    def __init__(
        self,
        *,
        max_workers: int | None = None,
        store_root: str | os.PathLike[str] | None = None,
        log: StructuredLogger | None = None,
        max_rebuilds: int = DEFAULT_MAX_REBUILDS,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1 or None, got {max_workers}"
            )
        self.max_workers = (
            max_workers if max_workers is not None else os.cpu_count() or 1
        )
        self.store_root = str(store_root) if store_root is not None else None
        self.log = log if log is not None else StructuredLogger.disabled()
        self.max_rebuilds = max_rebuilds
        self._pool: ProcessPoolExecutor | None = None
        #: Held by :func:`~repro.estimator.spec.run_specs` for each
        #: evaluation on this engine, so its users take turns on one
        #: warm cache (``_lock`` below only guards the pool and counters).
        self.lock = threading.Lock()
        self._lock = threading.Lock()
        self._closed = False
        # Counters (guarded by _lock; plain ints, read for stats/metrics).
        self._spawns = 0
        self._rebuilds = 0
        self._chunks_dispatched = 0
        self._chunks_replayed = 0
        self._points = 0
        self._runs = 0
        self._last_chunk_size = 0

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Return the live pool, spawning it on first use."""
        with self._lock:
            if self._closed:
                raise RuntimeError("ExecutionEngine is closed")
            if self._pool is None:
                from concurrent.futures import ProcessPoolExecutor

                from .batch import _init_worker

                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_init_worker,
                    initargs=(self.store_root,),
                )
                self._spawns += 1
                self.log.event(
                    "engine.pool_spawned",
                    workers=self.max_workers,
                    spawns=self._spawns,
                )
            return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken pool so the next dispatch spawns a fresh one."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def workers_alive(self) -> int:
        """Live worker processes in the current pool (0 when idle)."""
        with self._lock:
            pool = self._pool
        if pool is None:
            return 0
        processes = getattr(pool, "_processes", None) or {}
        return sum(1 for proc in list(processes.values()) if proc.is_alive())

    def close(self, *, wait: bool = True, timeout: float = 30.0) -> None:
        """Shut the pool down; the engine cannot be reused afterwards.

        A waited close is bounded by ``timeout``: a worker wedged by a
        fork-inherited lock must not hang the whole process on exit, so
        after the deadline any surviving workers are killed outright —
        their chunks were either already harvested or will be replayed
        by whoever resubmits, never silently lost.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            already_closed = self._closed
            self._closed = True
        if pool is not None:
            if wait:
                waiter = threading.Thread(
                    target=lambda: pool.shutdown(wait=True, cancel_futures=True),
                    daemon=True,
                )
                waiter.start()
                waiter.join(timeout)
                if waiter.is_alive():
                    for proc in list(
                        (getattr(pool, "_processes", None) or {}).values()
                    ):
                        if proc.is_alive():
                            proc.kill()
                    waiter.join(timeout)
                    self.log.event("engine.close_forced", timeout_s=timeout)
            else:
                pool.shutdown(wait=False, cancel_futures=True)
        if not already_closed and self._spawns:
            self.log.event("engine.closed", rebuilds=self._rebuilds)

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- observability -------------------------------------------------

    def note_chunk_size(self, size: int) -> None:
        """Record the sweep layer's current chunk size."""
        self._last_chunk_size = int(size)

    def stats(self) -> dict[str, object]:
        """Counters for ``cacheStats['executor']`` and ``/v1/metrics``."""
        alive = self.workers_alive()
        with self._lock:
            return {
                "maxWorkers": self.max_workers,
                "workersAlive": alive,
                "poolSpawns": self._spawns,
                "rebuilds": self._rebuilds,
                "chunksDispatched": self._chunks_dispatched,
                "chunksReplayed": self._chunks_replayed,
                "points": self._points,
                "runs": self._runs,
                "lastChunkSize": self._last_chunk_size,
            }

    # -- execution -----------------------------------------------------

    def run(
        self,
        requests: Sequence["EstimateRequest"],
        *,
        cache: "EstimateCache | None" = None,
        backend: str = "auto",
    ) -> list["BatchOutcome"]:
        """Evaluate a batch through the persistent pool.

        One chunk per worker, so in-chunk pickling preserves shared
        program objects (identity deduplication inside each worker).
        Single-worker engines and one-point batches run serially; an
        unpicklable batch or an unavailable pool falls back to serial
        execution — results are bit-for-bit identical either way.
        """
        from .batch import (
            _SHARED_CACHE,
            BACKEND_CHOICES,
            DEFAULT_DESIGNER,
            BatchOutcome,
            _chunks,
            _note_fallback,
            _run_chunk,
            _run_serial,
        )

        if backend not in BACKEND_CHOICES:
            raise ValueError(
                f"backend must be one of {BACKEND_CHOICES}, got {backend!r}"
            )
        requests = list(requests)
        shared = cache is None
        cache = cache if cache is not None else _SHARED_CACHE
        with self._lock:
            self._runs += 1
        try:
            if self.max_workers == 1 or len(requests) <= 1:
                return _run_serial(requests, cache, backend=backend)

            # The pool path alone needs these; serial runs never import
            # them (concurrent.futures.process pulls in multiprocessing).
            import pickle
            from concurrent.futures import FIRST_COMPLETED, wait
            from concurrent.futures.process import BrokenProcessPool

            # A non-default designer must travel with the chunks — workers'
            # process-global caches only know the shared default.
            designer = (
                cache.designer if cache.designer is not DEFAULT_DESIGNER else None
            )
            pieces = [
                (start, chunk, designer, backend)
                for start, chunk in _chunks(requests, self.max_workers)
            ]
            try:
                # Probe up front: unpicklable programs (lambdas, open
                # handles) run serially instead of dying in the pool.
                pickle.dumps(pieces)
            except Exception as exc:
                _note_fallback(cache, "unpicklable", exc, log=self.log)
                return _run_serial(requests, cache, backend=backend)

            results: list[tuple[object, str | None] | None] = [None] * len(requests)
            pending: dict[int, tuple] = dict(enumerate(pieces))
            rebuilds_this_run = 0
            while pending:
                try:
                    pool = self._ensure_pool()
                except (OSError, PermissionError) as exc:
                    _note_fallback(
                        cache,
                        f"pool-unavailable:{type(exc).__name__}",
                        exc,
                        log=self.log,
                    )
                    break
                # Submission itself can raise BrokenProcessPool when a
                # worker died between runs, so it shares the rebuild
                # handler with the harvest loop.
                futures: dict[int, object] = {}
                try:
                    for key, piece in pending.items():
                        futures[key] = pool.submit(_run_chunk, piece)
                    with self._lock:
                        self._chunks_dispatched += len(futures)
                    outstanding = set(futures.values())
                    while outstanding:
                        done, outstanding = wait(
                            outstanding, return_when=FIRST_COMPLETED
                        )
                        for future in done:
                            start, payloads = future.result()
                            for offset, payload in enumerate(payloads):
                                results[start + offset] = payload
                    pending.clear()
                except (BrokenProcessPool, OSError, PermissionError) as exc:
                    # Harvest everything that finished before the break,
                    # then rebuild and replay only the lost chunks.
                    for key, future in futures.items():
                        if key not in pending:
                            continue
                        if (
                            future.done()
                            and not future.cancelled()
                            and future.exception() is None
                        ):
                            start, payloads = future.result()
                            for offset, payload in enumerate(payloads):
                                results[start + offset] = payload
                            del pending[key]
                    self._discard_pool()
                    rebuilds_this_run += 1
                    with self._lock:
                        self._rebuilds += 1
                        self._chunks_replayed += len(pending)
                    self.log.event(
                        "engine.pool_rebuilt",
                        error=f"{type(exc).__name__}: {exc}",
                        replaying=len(pending),
                        rebuilds=self._rebuilds,
                    )
                    if rebuilds_this_run >= self.max_rebuilds:
                        _note_fallback(cache, "pool-broken", exc, log=self.log)
                        break

            if pending:
                # Degraded path: run whatever the pool never finished
                # serially in this process — identical results, recorded
                # above as an executor fallback.
                for key in sorted(pending):
                    start, chunk, _, chunk_backend = pending[key]
                    outcomes = _run_serial(chunk, cache, backend=chunk_backend)
                    for offset, outcome in enumerate(outcomes):
                        results[start + offset] = (outcome.result, outcome.error)
            with self._lock:
                self._points += len(requests)
            return [
                BatchOutcome(request=request, result=result, error=error)
                for request, (result, error) in zip(requests, results)
            ]
        finally:
            if shared:
                cache.prune_unkeyed_counts()


@contextmanager
def engine_scope(
    engine: ExecutionEngine | None,
    *,
    max_workers: int | None,
    store_root: str | os.PathLike[str] | None = None,
    log: StructuredLogger | None = None,
) -> Iterator[ExecutionEngine]:
    """Yield the caller's ``engine``, or one owned for the block.

    A caller-supplied engine is shared (the service's lifetime engine)
    and left open; otherwise a fresh engine is created with the given
    settings and closed on exit. Engines spawn their pool only on the
    first parallel run, so an owned engine that never fans out costs
    nothing.
    """
    if engine is not None:
        yield engine
        return
    with ExecutionEngine(
        max_workers=max_workers, store_root=store_root, log=log
    ) as owned:
        yield owned
