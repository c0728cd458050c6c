"""The estimation service: submit specs over HTTP, get reports back.

The source paper frames resource estimation as a cloud service — users
submit an algorithm plus hardware profile and receive a report (Sec.
IV-A). This module is that shape for the reproduction: a stdlib-only
JSON API over the shared batch engine with the persistent
:class:`~repro.estimator.store.ResultStore` behind it, so repeated
submissions (and anything already computed by a CLI sweep sharing the
store) answer from disk.

Endpoints
---------
``POST /v1/estimate``
    Body: one spec document (see
    :meth:`repro.estimator.spec.EstimateSpec.to_dict`) or
    ``{"specs": [...]}`` for a batch. Responds with one record per spec::

        {"specHash": "...", "label": ..., "ok": true, "fromStore": false,
         "result": {...eight-group report...}, "error": null}

    (single-spec submissions get the bare record, batches
    ``{"results": [...]}``). Results are bit-for-bit identical to an
    in-process :func:`repro.estimate` call — asserted by the tests and
    the CI ``service-smoke`` job.
``GET /v1/results/<specHash>``
    The stored document for a hash (404 until someone computes it):
    ``{"schema", "specHash", "spec", "result", "digest"}``. An infeasible
    spec's document is served the same way, with 200: ``"result":
    null`` plus the ``"error"`` string an estimate of it reports — the
    point was computed, and its answer is that it does not fit.
``POST /v1/sweeps``
    Body: a sweep document (see
    :meth:`repro.estimator.sweep.SweepSpec.to_dict`). Responds **202**
    with a job record ``{"jobId": ..., "status": ..., "total": ...}``.
    The job id is the sweep's content hash, so resubmitting an
    equivalent sweep returns the same job — running, or already done
    (including sweeps finished before a server restart, re-served from
    the store). Jobs execute on a worker thread pool in store-backed
    chunks; each chunk interleaves with interactive submissions.
``GET /v1/jobs/<jobId>``
    Job status: ``queued`` / ``running`` / ``done`` / ``failed`` plus
    cumulative partial-completion counts (``completed``, ``ok``,
    ``failed``, ``fromStore``) and the engine's counters under
    ``cacheStats`` (memo hit rates and evaluation-path tallies — see
    :meth:`~repro.estimator.batch.EstimateCache.stats`).
``GET /v1/sweeps/<jobId>/result``
    The finished sweep's full result document (409 while the job is
    still queued/running, 404 for unknown jobs and for an optimize job's
    id).
``POST /v1/optimize``
    Body: an optimize document (see
    :meth:`repro.estimator.optimize.OptimizeSpec.to_dict`). Responds
    **202** with a job record (``kind`` is ``"optimize"``;
    ``evaluations`` counts actual engine evaluations — the number the
    adaptive search minimizes). The job id is the question's content
    hash: equivalent resubmissions join the running job, and a question
    whose probe trace is already stored answers immediately with zero
    evaluations. Sweep and optimize jobs share one lifecycle (submit,
    run, result lookup, :meth:`ServiceClient.wait_for_job`); only the
    entries of the job-kind table differ.
``GET /v1/optimize/<jobId>/result``
    The finished optimize's answer document (409 / 404 like sweeps; a
    sweep job's id is a 404).
``GET /v1/registry``
    Names of the available qubit profiles, QEC schemes, distillation
    units, factory designers, and programs (including scenario-file
    entries). Specs may reference any listed program by name —
    ``{"program": {"name": "rsa_2048"}, ...}`` — and the server resolves
    it through the same registry, so clients never ship workload
    definitions they can address.
``GET /v1/healthz``
    Liveness plus the store location, schema tags, the resolved sweep
    executor, and the full ``cacheStats`` block — engine memo counters,
    optimizer
    probe/evaluation totals, the store's in-process read-through LRU
    hit counts, and the sweep queue depth.
``GET /v1/metrics``
    Operator metrics: per-route request counts and latency histograms,
    per-namespace store document/byte gauges and cache hit counters,
    queue depth, jobs by state, kernel path counters, and store
    eviction tallies. Prometheus text exposition by default;
    ``?format=json`` (or ``Accept: application/json``) returns the same
    snapshot as JSON. Expensive gauges (anything walking the store on
    disk) refresh on a TTL (``metrics_ttl``), never per scrape — see
    :mod:`repro.metrics`.

Requests and job transitions emit structured JSON log records (one
object per line, with request/job ids — see :mod:`repro.jsonlog`) when
the service is given an enabled :class:`~repro.jsonlog.StructuredLogger`;
``repro serve`` wires one up, tests get the silent default.

Run it with ``python -m repro serve`` (see the README section "Running
as a service") and talk to it with :class:`ServiceClient`, the thin
urllib wrapper the tests use::

    client = ServiceClient("http://127.0.0.1:8000")
    record = client.submit(EstimateSpec(program=counts, qubit="qubit_gate_ns_e3"))

Malformed specs in a batch fail per record; malformed requests (bad
JSON, unknown routes) get JSON error bodies with 4xx status codes. The
server is a ``ThreadingHTTPServer`` whose handler threads are reused
across connections; every evaluation — submissions,
sweep chunks, optimize probes — runs on one
:class:`~repro.estimator.engine.ExecutionEngine` and holds that
engine's lock, so concurrent requests and jobs take turns on one warm
:class:`~repro.estimator.batch.EstimateCache`. How jobs run is one
:class:`~repro.estimator.engine.ExecutionPolicy`.
"""

from __future__ import annotations

import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from queue import SimpleQueue
from typing import Any, Callable
from urllib import error as urllib_error
from urllib import request as urllib_request

from .estimator.batch import EstimateCache
from .estimator.engine import ExecutionEngine, ExecutionPolicy
from .estimator.optimize import (
    OptimizeProgress,
    OptimizeSpec,
    run_optimize,
    stored_answer,
)
from .estimator.spec import EstimateSpec, run_specs
from .estimator.store import ResultStore
from .estimator.sweep import SweepProgress, SweepSpec, run_sweep, stored_sweep
from .jsonlog import StructuredLogger, new_request_id
from .metrics import MetricsRegistry, normalize_route
from .programs import forbid_file_programs
from .registry import Registry, default_registry
from .settings import DEFAULT_MAX_BODY_BYTES, ServerSettings

__all__ = [
    "EstimationService",
    "ServiceClient",
    "ServiceError",
    "SweepJob",
    "make_server",
]

#: Default cap on request body size; configurable per server via
#: ``make_server(max_body_bytes=)`` or :class:`ServerSettings`.
#: Oversized bodies are rejected with ``413 Payload Too Large`` before
#: a single body byte is read. (Kept as an alias of the settings-module
#: default for back compatibility.)
MAX_BODY_BYTES = DEFAULT_MAX_BODY_BYTES


class ServiceError(RuntimeError):
    """A client-side service failure (non-2xx response, bad payload)."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class _ServiceStopping(Exception):
    """Raised inside a sweep job to abort at a chunk boundary on close()."""


@dataclass(eq=False)
class SweepJob:
    """In-memory state of one async job (id = the spec's content hash).

    Shared by sweep jobs (``kind="sweep"``: total/completed count grid
    points) and optimize jobs (``kind="optimize"``: ``total`` is the
    search grid size, ``completed`` probes evaluated so far, ``ok``
    feasible probes, and ``evaluations`` actual engine evaluations —
    the number the adaptive search exists to minimize).
    """

    job_id: str
    status: str  # "queued" | "running" | "done" | "failed"
    total: int
    completed: int = 0
    ok: int = 0
    failed: int = 0
    from_store: int = 0
    error: str | None = None
    result_doc: dict[str, Any] | None = None
    kind: str = "sweep"
    evaluations: int | None = None

    def to_record(
        self, cache_stats: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        record: dict[str, Any] = {
            "jobId": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "total": self.total,
            "completed": self.completed,
            "ok": self.ok,
            "failed": self.failed,
            "fromStore": self.from_store,
            "error": self.error,
        }
        if self.evaluations is not None:
            record["evaluations"] = self.evaluations
        if cache_stats is not None:
            # Engine-wide counters (the cache is shared across jobs and
            # interactive submissions): memo hit rates and evaluation
            # paths.
            record["cacheStats"] = cache_stats
        if self.status == "done":
            prefix = _JOB_KINDS[self.kind].prefix
            record["resultUrl"] = f"/v1/{prefix}/{self.job_id}/result"
        return record


def _sweep_progress(
    service: "EstimationService", job: SweepJob, event: SweepProgress
) -> None:
    job.completed = event.completed
    job.ok = event.ok
    job.failed = event.failed
    job.from_store = event.from_store


def _optimize_progress(
    service: "EstimationService", job: SweepJob, event: OptimizeProgress
) -> None:
    # The job still holds the previous event's totals; the service-wide
    # counters advance by the difference.
    counters = service._optimize_counters
    counters["probes"] += event.probes - job.completed
    counters["evaluations"] += event.evaluations - (job.evaluations or 0)
    job.completed = event.probes
    job.ok = event.feasible
    job.from_store = event.from_store
    job.evaluations = event.evaluations


def _settle_optimize(job: SweepJob, result: Any) -> None:
    job.completed = len(result.probes)
    job.ok = result.num_feasible
    job.evaluations = result.num_evaluations


def _sweep_counts(counts: dict[str, Any]) -> dict[str, Any]:
    total = int(counts.get("total", 0))
    return {
        "total": total,
        "completed": total,
        "ok": int(counts.get("ok", 0)),
        "failed": int(counts.get("failed", 0)),
        "from_store": total,  # every point answered by the stored row
    }


def _optimize_counts(counts: dict[str, Any]) -> dict[str, Any]:
    return {
        "total": int(counts.get("grid", 0)),
        "completed": int(counts.get("probes", 0)),
        "ok": int(counts.get("feasible", 0)),
        "evaluations": 0,  # answered from the stored trace
    }


@dataclass(frozen=True)
class _JobKind:
    """What differs between the async job kinds; everything else (submit,
    run, result lookup, the client wait loop) is one shared lifecycle.

    ``run(spec, **engine_options)`` returns a result with
    ``to_dict()`` and ``stored`` (whether the store took the finished
    document); ``progress`` and ``settle`` copy a progress event and
    the finished result onto the job (under the jobs lock), and
    ``stored_counts`` maps a stored document's ``counts`` to the done
    job's count fields.
    """

    prefix: str  # URL segment: /v1/<prefix> and /v1/<prefix>/<id>/result
    spec: type  # from_dict, num_points, content_hash
    run: Callable[..., Any]
    progress: Callable[["EstimationService", SweepJob, Any], None]
    stored: Callable[[ResultStore, str], "dict[str, Any] | None"]
    stored_counts: Callable[[dict[str, Any]], dict[str, Any]]
    done_fields: tuple[str, ...]  # job-record fields of the job.done event
    settle: Callable[[SweepJob, Any], None] = lambda job, result: None


_JOB_KINDS: dict[str, _JobKind] = {
    "sweep": _JobKind(
        prefix="sweeps",
        spec=SweepSpec,
        run=lambda spec, **options: run_sweep(spec, **options),
        progress=_sweep_progress,
        stored=lambda store, job_id: store.get_sweep(job_id),
        stored_counts=_sweep_counts,
        done_fields=("completed", "ok", "failed", "fromStore"),
    ),
    "optimize": _JobKind(
        prefix="optimize",
        spec=OptimizeSpec,
        run=lambda spec, **options: run_optimize(spec, **options),
        progress=_optimize_progress,
        stored=stored_answer,
        stored_counts=_optimize_counts,
        done_fields=("completed", "ok", "evaluations"),
        settle=_settle_optimize,
    ),
}
#: ``POST`` route -> job kind.
_JOB_ROUTES = {f"/v1/{entry.prefix}": kind for kind, entry in _JOB_KINDS.items()}


class EstimationService:
    """Request handling, independent of the HTTP transport.

    Parameters
    ----------
    registry:
        Name resolution for profiles/schemes (defaults to the process
        registry, including any loaded scenario files).
    store:
        Persistent result store; ``None`` disables persistence (every
        submission recomputes, ``GET /v1/results`` always misses, and
        finished sweep jobs survive only in memory).
    cache:
        In-memory cross-point memo cache shared by all submissions.
    policy:
        The :class:`~repro.estimator.engine.ExecutionPolicy` of every
        job. ``workers`` sizes the one
        :class:`~repro.estimator.engine.ExecutionEngine` that evaluates
        every submission, sweep chunk and optimize probe for the
        service's lifetime (``1`` runs serially and never spawns a
        pool). A ``"queue"`` executor routes sweep jobs through the
        store-backed lease queue (:mod:`repro.estimator.queue`): jobs
        are journaled (so a restarted server resumes in-flight sweeps,
        not just finished ones) and chunks are leased, so N ``repro
        serve`` replicas — or external ``repro work`` processes —
        sharing one store directory drain each sweep cooperatively;
        ``"local"`` keeps the in-process chunk loop. Both give
        bit-for-bit identical results. Omitted, it is the default
        :meth:`ServerSettings.execution_policy`: the queue iff a store
        is configured.
    sweep_workers:
        Size of the async job thread pool. Job chunks take the same
        engine lock as interactive submissions, so jobs make progress
        without starving ``POST /v1/estimate``.
    recover:
        Replay unfinished journaled jobs at startup (queue executor
        only). On by default; tests disable it to script recovery.
    metrics:
        The :class:`~repro.metrics.MetricsRegistry` behind
        ``GET /v1/metrics`` (one is created when omitted). Request
        counters are recorded by the HTTP layer; this service registers
        gauge providers for everything else (jobs by state, cache and
        engine counters, store namespaces, queue depth).
    metrics_ttl:
        Refresh interval for the *expensive* metric gauges — the ones
        that walk the store on disk. A scrape inside the TTL does zero
        filesystem work.
    log:
        Structured JSON logger for job lifecycle records; defaults to
        the silent :meth:`StructuredLogger.disabled`.
    """

    def __init__(
        self,
        registry: Registry | None = None,
        store: ResultStore | None = None,
        cache: EstimateCache | None = None,
        policy: ExecutionPolicy | None = None,
        sweep_workers: int = 2,
        recover: bool = True,
        metrics: MetricsRegistry | None = None,
        metrics_ttl: float = 10.0,
        log: StructuredLogger | None = None,
    ) -> None:
        if policy is None:
            policy = ServerSettings().execution_policy(store=store is not None)
        if policy.executor == "queue" and store is None:
            raise ValueError("executor='queue' requires a result store")
        self.registry = registry if registry is not None else default_registry()
        self.store = store
        self.cache = cache if cache is not None else EstimateCache()
        self.policy = policy
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = log if log is not None else StructuredLogger.disabled()
        # One engine shared by every request and job for the service's
        # lifetime (closed in close()); it spawns its process pool on the
        # first parallel batch, never with a single worker.
        self._engine = ExecutionEngine(
            max_workers=policy.workers,
            store_root=store.root if store is not None else None,
            log=self.log,
        )
        self._jobs: dict[str, SweepJob] = {}
        self._jobs_lock = threading.Lock()
        # Service-lifetime optimizer counters (probes requested, engine
        # evaluations actually performed), surfaced in cacheStats.
        self._optimize_counters = {"probes": 0, "evaluations": 0}
        self._stopping = threading.Event()
        self._sweep_pool = ThreadPoolExecutor(
            max_workers=max(1, sweep_workers), thread_name_prefix="repro-sweep"
        )
        self._register_metrics(metrics_ttl)
        if recover and policy.executor == "queue":
            self.recover_jobs()

    @classmethod
    def from_settings(
        cls,
        settings: ServerSettings,
        *,
        registry: Registry | None = None,
        store: ResultStore | None = None,
        cache: EstimateCache | None = None,
        recover: bool = True,
        metrics: MetricsRegistry | None = None,
        log: StructuredLogger | None = None,
    ) -> "EstimationService":
        """A service configured by a :class:`ServerSettings` (see
        :mod:`repro.settings` for the CLI > scenario > default layering
        that produces one)."""
        return cls(
            registry=registry,
            store=store,
            cache=cache,
            policy=settings.execution_policy(store=store is not None),
            sweep_workers=settings.sweep_workers,
            recover=recover,
            metrics=metrics,
            metrics_ttl=settings.metrics_ttl,
            log=log,
        )

    # -- metrics providers --------------------------------------------------

    def _register_metrics(self, metrics_ttl: float) -> None:
        metrics = self.metrics
        metrics.describe(
            "repro_requests_total",
            "counter",
            "HTTP requests handled, by method, route template, and status.",
        )
        metrics.describe(
            "repro_request_seconds",
            "histogram",
            "HTTP request latency in seconds, by method and route template.",
        )
        metrics.describe(
            "repro_jobs", "gauge", "In-memory async jobs by kind and state."
        )
        metrics.describe(
            "repro_cache_events_total",
            "counter",
            "Engine memo and store lookups by cache layer and outcome.",
        )
        metrics.describe(
            "repro_kernel_points_total",
            "counter",
            "Points evaluated, by kernel path (vectorized/scalarFallback/scalar).",
        )
        metrics.describe(
            "repro_optimize_probes_total",
            "counter",
            "Optimizer probes requested across all optimize jobs.",
        )
        metrics.describe(
            "repro_optimize_evaluations_total",
            "counter",
            "Engine evaluations actually performed for optimize jobs.",
        )
        metrics.describe(
            "repro_store_memory_events_total",
            "counter",
            "Store read-through memory-cache lookups by namespace and outcome.",
        )
        metrics.describe(
            "repro_store_evicted_total",
            "counter",
            "Documents evicted from the bounded store, by unit (documents/bytes).",
        )
        metrics.describe(
            "repro_store_documents",
            "gauge",
            "Documents on disk per store namespace (TTL-cached walk).",
        )
        metrics.describe(
            "repro_store_bytes",
            "gauge",
            "Bytes on disk per store namespace (TTL-cached walk).",
        )
        metrics.describe(
            "repro_store_orphans",
            "gauge",
            "Orphaned tmp/lease files awaiting gc, by unit (TTL-cached walk).",
        )
        metrics.describe(
            "repro_queue_depth",
            "gauge",
            "Journaled sweep/optimize jobs not yet finished (TTL-cached).",
        )
        metrics.describe(
            "repro_pool_workers",
            "gauge",
            "Worker processes alive in the persistent execution-engine pool.",
        )
        metrics.describe(
            "repro_pool_rebuilds_total",
            "counter",
            "Times the execution-engine pool was rebuilt after a worker crash.",
        )
        metrics.describe(
            "repro_pool_chunks_total",
            "counter",
            "Chunks dispatched to the engine pool, by kind (dispatched/replayed).",
        )
        metrics.describe(
            "repro_pool_chunk_size",
            "gauge",
            "Current sweep chunk size routed through the engine.",
        )
        metrics.describe(
            "repro_executor_fallbacks_total",
            "counter",
            "Parallel-executor degradations to serial execution.",
        )
        # Cheap in-memory counters refresh on every scrape; anything
        # that touches the disk sits behind the TTL so a scrape never
        # pays a directory walk.
        metrics.register_provider(self._cheap_metric_samples, ttl=0.0)
        metrics.register_provider(self._disk_metric_samples, ttl=metrics_ttl)

    def _cheap_metric_samples(self) -> list[tuple[str, dict[str, str] | None, float]]:
        samples: list[tuple[str, dict[str, str] | None, float]] = []
        stats = self.cache.stats()
        for layer in ("counts", "factories", "distances", "store"):
            for outcome in ("hits", "misses"):
                samples.append(
                    (
                        "repro_cache_events_total",
                        {"cache": layer, "outcome": outcome},
                        stats[layer][outcome],
                    )
                )
        for path_name, value in stats["kernel"].items():
            samples.append(
                ("repro_kernel_points_total", {"path": path_name}, value)
            )
        with self._jobs_lock:
            job_counts: dict[tuple[str, str], int] = {}
            for job in self._jobs.values():
                key = (job.kind, job.status)
                job_counts[key] = job_counts.get(key, 0) + 1
            probes = self._optimize_counters["probes"]
            evaluations = self._optimize_counters["evaluations"]
        for kind in _JOB_KINDS:
            for state in ("queued", "running", "done", "failed"):
                samples.append(
                    (
                        "repro_jobs",
                        {"kind": kind, "state": state},
                        job_counts.get((kind, state), 0),
                    )
                )
        samples.append(("repro_optimize_probes_total", None, probes))
        samples.append(("repro_optimize_evaluations_total", None, evaluations))
        engine_stats = self._engine.stats()
        samples += [
            ("repro_pool_workers", None, engine_stats["workersAlive"]),
            ("repro_pool_rebuilds_total", None, engine_stats["rebuilds"]),
            (
                "repro_pool_chunks_total",
                {"kind": "dispatched"},
                engine_stats["chunksDispatched"],
            ),
            (
                "repro_pool_chunks_total",
                {"kind": "replayed"},
                engine_stats["chunksReplayed"],
            ),
            ("repro_pool_chunk_size", None, engine_stats["lastChunkSize"]),
        ]
        samples.append(
            (
                "repro_executor_fallbacks_total",
                None,
                stats["executor"]["serialFallbacks"],
            )
        )
        if self.store is not None:
            memory = self.store.memory_cache_stats()
            for namespace in ("results", "counts"):
                for outcome in ("hits", "misses"):
                    samples.append(
                        (
                            "repro_store_memory_events_total",
                            {"namespace": namespace, "outcome": outcome},
                            memory[namespace][outcome],
                        )
                    )
            evictions = self.store.eviction_stats()
            for unit in ("documents", "bytes"):
                samples.append(
                    ("repro_store_evicted_total", {"unit": unit}, evictions[unit])
                )
        return samples

    def _disk_metric_samples(self) -> list[tuple[str, dict[str, str] | None, float]]:
        samples: list[tuple[str, dict[str, str] | None, float]] = []
        if self.store is not None:
            stats = self.store.stats()
            for namespace, info in stats["namespaces"].items():
                samples.append(
                    (
                        "repro_store_documents",
                        {"namespace": namespace},
                        info["documents"],
                    )
                )
                samples.append(
                    ("repro_store_bytes", {"namespace": namespace}, info["bytes"])
                )
            for unit in ("files", "bytes"):
                samples.append(
                    ("repro_store_orphans", {"unit": unit}, stats["orphans"][unit])
                )
        samples.append(("repro_queue_depth", None, self._queue_depth()))
        return samples

    def recover_jobs(self) -> int:
        """Resume journaled sweeps that were in flight at the last shutdown.

        Scans the job journal for entries not marked finished and
        requeues them on the sweep pool, so a restarted (or replacement)
        server picks up exactly where the dead one stopped — completed
        chunks are served from their persisted outcome documents, only
        the remainder recomputes. A journaled job its stored row already
        answers (:func:`~repro.estimator.sweep.stored_sweep`, the rule
        every executor applies) is just marked finished. Returns the
        number of jobs requeued.
        """
        if self.store is None:
            return 0
        from .estimator.queue import SweepQueue

        queue = SweepQueue(self.store)
        requeued = 0
        for queued_job in queue.pending_jobs():
            point_hashes = queued_job.spec.point_hashes(self.registry)
            if stored_sweep(
                queued_job.spec, self.store, point_hashes=point_hashes
            ) is not None:
                queue.mark_finished(queued_job)
                continue
            with self._jobs_lock:
                if queued_job.job_id in self._jobs:
                    continue
                job = SweepJob(
                    job_id=queued_job.job_id,
                    status="queued",
                    total=queued_job.total_points,
                )
                self._jobs[queued_job.job_id] = job
            self._sweep_pool.submit(self._run_job, job, queued_job.spec)
            requeued += 1
        return requeued

    def close(self, *, wait: bool = False) -> None:
        """Shut the sweep workers down.

        Pending jobs are cancelled and *running* jobs abort at their next
        chunk boundary (their completed chunks are already persisted, so
        a resubmission after restart resumes from the store) — a Ctrl-C'd
        server must not hang until an hours-long sweep finishes.
        """
        self._stopping.set()
        self._sweep_pool.shutdown(wait=wait, cancel_futures=True)
        self._engine.close(wait=wait)

    # -- request handling --------------------------------------------------

    def submit(self, payload: Any) -> dict[str, Any]:
        """Handle a ``POST /v1/estimate`` body (single spec or batch).

        Raises :class:`ValueError` only for an unusable envelope; bad
        individual specs become failed records so one typo cannot sink a
        batch.
        """
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        if "specs" in payload:
            extra = set(payload) - {"specs"}
            if extra:
                raise ValueError(f"unknown batch fields: {sorted(extra)}")
            raw_specs = payload["specs"]
            if not isinstance(raw_specs, list) or not raw_specs:
                raise ValueError("'specs' must be a non-empty list of spec objects")
            return {"results": self._run(raw_specs)}
        return self._run([payload])[0]

    def _run(self, raw_specs: list[Any]) -> list[dict[str, Any]]:
        parsed: list[tuple[int, EstimateSpec]] = []
        records: list[dict[str, Any] | None] = [None] * len(raw_specs)
        for index, raw in enumerate(raw_specs):
            try:
                # Untrusted payload: programs naming server-local files
                # are rejected at parse time (see forbid_file_programs) —
                # the server must never read a client-chosen path.
                with forbid_file_programs():
                    parsed.append((index, EstimateSpec.from_dict(raw)))
            except (KeyError, ValueError, TypeError) as exc:
                # KeyError included as defense in depth: a missing field
                # in one spec must fail that record, never 500 the batch.
                message = str(exc.args[0]) if isinstance(exc, KeyError) else str(exc)
                records[index] = {
                    "specHash": None,
                    "label": raw.get("label") if isinstance(raw, dict) else None,
                    "ok": False,
                    "fromStore": False,
                    "result": None,
                    "error": f"invalid spec: {message}",
                }
        if parsed:
            outcomes = run_specs(
                [spec for _, spec in parsed],
                registry=self.registry,
                store=self.store,
                cache=self.cache,
                engine=self._engine,
            )
            for (index, spec), outcome in zip(parsed, outcomes):
                records[index] = {
                    "specHash": outcome.spec_hash,
                    "label": spec.label,
                    "ok": outcome.ok,
                    "fromStore": outcome.from_store,
                    # A store hit carries its verified stored dict, a miss
                    # the one to_dict() written to the store: no re-encode.
                    "result": outcome.serialized_result(),
                    "error": outcome.error,
                }
        return records  # type: ignore[return-value]

    def result_document(self, spec_hash: str) -> dict[str, Any] | None:
        """The stored document for ``GET /v1/results/<hash>`` (or None).

        Error documents (infeasible specs) are returned like results:
        ``result`` is ``None`` and ``error`` holds the message.
        """
        if self.store is None:
            return None
        try:
            return self.store.get_raw(spec_hash)
        except ValueError:
            return None  # malformed hash in the URL

    # -- async jobs (sweep, optimize) ---------------------------------------

    def submit_job(self, kind: str, payload: Any) -> dict[str, Any]:
        """Handle a ``POST /v1/sweeps`` (``kind="sweep"``) or ``POST
        /v1/optimize`` (``kind="optimize"``) body; returns the job record.

        The document is parsed and expanded eagerly — a malformed one is
        a :class:`ValueError` (400), never a failed job. The job id is the
        spec's resolved content hash: an equivalent resubmission joins
        the existing job, and a job whose result document is already
        stored (by a previous run or a previous server process) is
        immediately ``done`` without recomputing anything — an optimize
        question then reports zero evaluations.
        """
        with forbid_file_programs():
            # Hashing expands the grid (cached on the frozen spec) inside
            # the guard: axis fragments assembling a qir 'file' reference
            # are rejected exactly like a literal one in the base document.
            spec = _JOB_KINDS[kind].spec.from_dict(payload)
            total = spec.num_points()
            job_id = spec.content_hash(self.registry)
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is not None and (
            job.status in ("queued", "running") or job.result_doc is not None
        ):
            return job.to_record()
        stored = self._stored(kind, job_id)  # disk I/O outside the lock
        if job is not None and job.status == "done" and stored is not None:
            return job.to_record()
        # Failed jobs (worker exception, resource pressure) and done jobs
        # whose result is no longer readable (stored document corrupted
        # or deleted) are retried: they heal by recomputation instead of
        # answering 409 forever.
        with self._jobs_lock:
            current = self._jobs.get(job_id)
            if current is not None and current is not job:
                return current.to_record()  # raced with another submitter
            if stored is not None:
                fresh = self._job_from_document(kind, job_id, stored)
                self._jobs[job_id] = fresh
                return fresh.to_record()
            fresh = SweepJob(job_id=job_id, status="queued", total=total, kind=kind)
            self._jobs[job_id] = fresh
        self.log.event("job.queued", jobId=job_id, kind=kind, total=total)
        self._sweep_pool.submit(self._run_job, fresh, spec)
        return fresh.to_record()

    @staticmethod
    def _job_from_document(kind: str, job_id: str, document: dict) -> SweepJob:
        """A ``done`` job reconstructed from its stored result document.

        ``result_doc`` stays ``None`` — the document lives in the store,
        and result reads fall back to it instead of pinning a copy.
        """
        counts = _JOB_KINDS[kind].stored_counts(document.get("counts", {}))
        return SweepJob(job_id=job_id, status="done", kind=kind, **counts)

    def _run_job(self, job: SweepJob, spec: Any) -> None:
        started = time.monotonic()
        kind = _JOB_KINDS[job.kind]

        def on_progress(event: Any) -> None:
            if self._stopping.is_set():
                raise _ServiceStopping()
            with self._jobs_lock:
                kind.progress(self, job, event)

        try:
            with self._jobs_lock:
                job.status = "running"
            self.log.event("job.running", jobId=job.job_id, kind=job.kind)
            result = kind.run(
                spec,
                registry=self.registry,
                store=self.store,
                cache=self.cache,
                policy=self.policy,
                progress=on_progress,
                engine=self._engine,
            )
            # Keep the document in memory only when the store did not take
            # it — a long-lived server serving many jobs must not pin every
            # finished result; reads fall back to the store's copy.
            document = None if result.stored else result.to_dict()
            with self._jobs_lock:
                job.result_doc = document
                kind.settle(job, result)
                job.status = "done"
            record = job.to_record()
            self.log.event(
                "job.done",
                jobId=job.job_id,
                kind=job.kind,
                **{field: record[field] for field in kind.done_fields},
                duration_s=round(time.monotonic() - started, 6),
            )
            return
        except _ServiceStopping:
            error = "aborted: service shutting down"
        except Exception as exc:  # a failed job must be reportable, not lost
            error = str(exc)
        with self._jobs_lock:
            job.status = "failed"
            job.error = error
        self.log.event("job.failed", jobId=job.job_id, kind=job.kind, error=error)

    def job_result_document(
        self, kind: str, job_id: str
    ) -> tuple[dict[str, Any] | None, str | None]:
        """(result document, status) for ``GET /v1/sweeps/<id>/result``
        (``kind="sweep"``) or ``GET /v1/optimize/<id>/result``.

        The document is ``None`` until the job is done; ``status`` is
        ``None`` only for ids that name no job of this kind (a job of the
        other kind included).
        """
        with self._jobs_lock:
            job = self._jobs.get(job_id)
            if job is not None and job.kind != kind:
                job = None
            if job is not None and job.result_doc is not None:
                return job.result_doc, "done"
            status = job.status if job is not None else None
        stored = self._stored(kind, job_id)
        if stored is not None:
            return stored, "done"
        return None, status

    def _stored(self, kind: str, job_id: str) -> dict[str, Any] | None:
        """A finished job's stored result document, or ``None``."""
        if self.store is None:
            return None
        try:
            return _JOB_KINDS[kind].stored(self.store, job_id)
        except ValueError:
            return None  # malformed hash in the URL

    # -- job status and observability --------------------------------------

    def cache_stats(self) -> dict[str, Any]:
        """Engine + store + queue counters for job records and healthz.

        Extends :meth:`EstimateCache.stats` with the optimizer's
        probe/evaluation totals, the store's in-process read-through LRU
        counters, and the sweep work queue's current depth (journaled
        jobs not yet finished, as of the last ``metrics_ttl`` refresh) —
        the numbers an operator watches to see whether adaptive searches
        are warm and whether workers keep up.
        """
        stats: dict[str, Any] = self.cache.stats()
        # The cache-level executor record (serial fallbacks) merged with
        # the shared engine's pool counters.
        stats["executor"] = {**stats["executor"], **self._engine.stats()}
        with self._jobs_lock:
            stats["optimize"] = dict(self._optimize_counters)
        stats["storeMemory"] = (
            self.store.memory_cache_stats() if self.store is not None else None
        )
        # The TTL-cached gauge, not a fresh journal listing: a job poller
        # calls this on every GET /v1/jobs/<id>.
        depth = self.metrics.gauge_value("repro_queue_depth")
        stats["queueDepth"] = int(depth) if depth is not None else 0
        return stats

    def _queue_depth(self) -> int:
        """Journaled jobs not yet finished (0 without a store)."""
        if self.store is None:
            return 0
        from .estimator.queue import SweepQueue

        return len(SweepQueue(self.store).pending_jobs())

    def job_record(self, job_id: str) -> dict[str, Any] | None:
        """Status for ``GET /v1/jobs/<id>`` (or ``None`` if unknown)."""
        stats = self.cache_stats()
        with self._jobs_lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job.to_record(cache_stats=stats)
        for kind in _JOB_KINDS:
            stored = self._stored(kind, job_id)
            if stored is not None:
                return self._job_from_document(kind, job_id, stored).to_record(
                    cache_stats=stats
                )
        return None

    def health(self) -> dict[str, Any]:
        from .estimator.spec import SPEC_SCHEMA
        from .estimator.store import RESULT_SCHEMA

        return {
            "status": "ok",
            "specSchema": SPEC_SCHEMA,
            "resultSchema": RESULT_SCHEMA,
            "store": str(self.store.root) if self.store is not None else None,
            "executor": self.policy.executor,
            "cacheStats": self.cache_stats(),
        }


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the server's :class:`EstimationService`."""

    server: "_Server"
    protocol_version = "HTTP/1.1"
    # Each response goes out in two writes (headers, body); with Nagle on,
    # the body waits for the client's delayed ACK (~40 ms per keep-alive
    # request).
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # The structured `request` record (see _instrumented) replaces
        # the default access-log line; --verbose adds it back for quick
        # local debugging.
        if self.server.verbose:
            super().log_message(format, *args)

    # Only requests routed through _instrumented record metrics; the
    # class-level default keeps send_response safe for http.server's own
    # early error paths (malformed request line, unsupported method).
    _recorded = True
    _request_method = "?"
    _request_started = 0.0

    def send_response(self, code: int, message: str | None = None) -> None:
        # Record *before* any response byte can reach the socket: a
        # client that has read its response (and immediately scrapes
        # /v1/metrics on another connection) must already see this
        # request counted — the books balance at every instant.
        self._record_request(code)
        super().send_response(code, message)

    def _record_request(self, status: int) -> None:
        if self._recorded:
            return
        self._recorded = True
        service = self.server.service
        duration = time.monotonic() - self._request_started
        route = normalize_route(self.path)
        method = self._request_method
        service.metrics.inc(
            "repro_requests_total",
            {"method": method, "route": route, "status": str(status)},
        )
        service.metrics.observe(
            "repro_request_seconds",
            duration,
            {"method": method, "route": route},
        )
        if not service.log.enabled:
            return  # no id to mint and no record to build for a disabled log
        service.log.event(
            "request",
            requestId=new_request_id(),
            method=method,
            route=route,
            status=status,
            duration_s=round(duration, 6),
        )

    def _instrumented(self, method: str, handler: "Callable[[], None]") -> None:
        """Run a route handler; record metrics and one request log line.

        Counts and timings key on the *normalized* route (bounded label
        cardinality) and the status actually sent (recorded at
        ``send_response`` time); a handler that dies before sending
        anything records a 500.
        """
        self._recorded = False
        self._request_method = method
        self._request_started = time.monotonic()
        try:
            handler()
        finally:
            self._record_request(500)  # no-op unless nothing was sent

    def _send_json(self, payload: Any, status: int = 200) -> None:
        self._send_body(json.dumps(payload).encode(), "application/json", status)

    def _send_body(self, body: bytes, content_type: str, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, message: str, status: int, *, close: bool = False
    ) -> None:
        # ``close`` is required when the request body was not fully read
        # (rejected Content-Length): on a keep-alive connection the
        # leftover bytes would otherwise be parsed as the next request.
        if close:
            self.close_connection = True
        self._send_json({"error": message}, status=status)

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._instrumented("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._instrumented("POST", self._handle_post)

    def _send_metrics(self) -> None:
        registry = self.server.service.metrics
        query = self.path.partition("?")[2]
        accept = self.headers.get("Accept", "")
        if "format=json" in query or "application/json" in accept:
            self._send_json(registry.render_json())
            return
        self._send_body(
            registry.render_prometheus().encode(),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _handle_get(self) -> None:
        service = self.server.service
        path = self.path.partition("?")[0].rstrip("/")
        if path == "/v1/metrics":
            self._send_metrics()
        elif path == "/v1/healthz":
            self._send_json(service.health())
        elif path == "/v1/registry":
            self._send_json(service.registry.describe())
        elif path.startswith("/v1/results/"):
            spec_hash = path[len("/v1/results/") :]
            document = service.result_document(spec_hash)
            if document is None:
                self._send_error_json(
                    f"no stored result for spec hash {spec_hash!r}", 404
                )
            else:
                self._send_json(document)
        elif path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/") :]
            record = service.job_record(job_id)
            if record is None:
                self._send_error_json(f"unknown job {job_id!r}", 404)
            else:
                self._send_json(record)
        else:
            for kind, entry in _JOB_KINDS.items():
                prefix = f"/v1/{entry.prefix}/"
                if path.startswith(prefix) and path.endswith("/result"):
                    job_id = path[len(prefix) : -len("/result")]
                    self._send_job_result(kind, job_id)
                    return
            self._send_error_json(f"unknown route {self.path!r}", 404)

    def _send_job_result(self, kind: str, job_id: str) -> None:
        document, status = self.server.service.job_result_document(kind, job_id)
        if document is not None:
            self._send_json(document)
        elif status is not None:
            self._send_error_json(f"{kind} job {job_id!r} is {status}, not done", 409)
        else:
            self._send_error_json(f"unknown {kind} job {job_id!r}", 404)

    def _handle_post(self) -> None:
        route = self.path.partition("?")[0].rstrip("/")
        job_kind = _JOB_ROUTES.get(route)
        if route != "/v1/estimate" and job_kind is None:
            self._send_error_json(f"unknown route {self.path!r}", 404)
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_error_json("invalid Content-Length", 400, close=True)
            return
        limit = self.server.max_body_bytes
        if length > limit:
            # 413 before reading a byte: the limit exists to bound memory,
            # so the body must never be buffered just to reject it.
            self._send_error_json(
                f"request body of {length} bytes exceeds the {limit} byte limit",
                413,
                close=True,
            )
            return
        if length <= 0:
            self._send_error_json(
                "request body must be a non-empty JSON document",
                400,
                close=True,
            )
            return
        try:
            payload = json.loads(self.rfile.read(length))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._send_error_json(f"invalid JSON body: {exc}", 400)
            return
        try:
            if job_kind is not None:
                response = self.server.service.submit_job(job_kind, payload)
                self._send_json(response, status=202)
                return
            response = self.server.service.submit(payload)
        except ValueError as exc:
            self._send_error_json(str(exc), 400)
            return
        except Exception as exc:  # never leak a traceback as a hung socket
            self._send_error_json(f"internal error: {exc}", 500)
            return
        self._send_json(response)


#: Idle handler threads a server keeps parked for the next connection;
#: a thread that finishes a connection while this many are parked exits.
_PARKED_HANDLERS = 4


class _Server(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that reuses its handler threads.

    Starting and reaping a thread per connection, as the stdlib mix-in
    does, costs every request of a fresh-connection client
    (``ServiceClient``) ~0.2-0.3 ms of CPU. Instead an accepted
    connection goes to a parked idle thread, and a new thread starts
    only when none is idle. A thread runs ``process_request_thread`` (the mix-in's own
    per-connection body), then parks again; at most
    :data:`_PARKED_HANDLERS` stay parked and ``server_close()`` ends them.
    A keep-alive connection holds its thread for its lifetime, so
    concurrency stays unbounded. Handler threads are daemons: an open
    connection never keeps the interpreter from exiting.
    """

    def __init__(
        self,
        address: tuple[str, int],
        service: EstimationService,
        verbose: bool = False,
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        self.service = service
        self.verbose = verbose
        self.max_body_bytes = max_body_bytes
        # Parked threads with their inboxes; the last one parked is reused first.
        self._parked: list[tuple[threading.Thread, SimpleQueue]] = []
        self._parked_lock = threading.Lock()
        self._closing = False
        super().__init__(address, _Handler)

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._parked_lock:
            parked = self._parked.pop() if self._parked else None
        if parked is None:
            inbox: SimpleQueue = SimpleQueue()
            thread = threading.Thread(
                target=self._handler_loop, args=(inbox,), daemon=True
            )
            parked = (thread, inbox)
            thread.start()
        parked[1].put((request, client_address))

    def _handler_loop(self, inbox: SimpleQueue) -> None:
        me = (threading.current_thread(), inbox)
        while (connection := inbox.get()) is not None:
            self.process_request_thread(*connection)
            with self._parked_lock:
                if self._closing or len(self._parked) >= _PARKED_HANDLERS:
                    return
                self._parked.append(me)

    def server_close(self) -> None:
        super().server_close()
        with self._parked_lock:
            self._closing = True
            parked, self._parked = self._parked, []
        for _, inbox in parked:
            inbox.put(None)
        for thread, _ in parked:
            thread.join()


def make_server(
    host: str | None = None,
    port: int | None = None,
    *,
    service: EstimationService | None = None,
    verbose: bool | None = None,
    max_body_bytes: int | None = None,
    settings: ServerSettings | None = None,
) -> _Server:
    """Bind the service to a socket (``port=0`` picks a free port).

    Returns the server; callers drive it with ``serve_forever()`` (or
    ``handle_request()``) and read the bound port from
    ``server.server_address[1]``. The tests run it on a daemon thread.
    ``max_body_bytes`` caps request bodies (413 beyond it).

    Transport configuration layers like everything else: an explicit
    keyword beats ``settings``, which beats the
    :class:`ServerSettings` defaults (host 127.0.0.1, port 8000,
    16 MiB bodies, quiet).
    """
    settings = settings if settings is not None else ServerSettings()
    service = (
        service
        if service is not None
        else EstimationService.from_settings(settings)
    )
    return _Server(
        (
            host if host is not None else settings.host,
            port if port is not None else settings.port,
        ),
        service,
        verbose=verbose if verbose is not None else settings.verbose,
        max_body_bytes=(
            max_body_bytes
            if max_body_bytes is not None
            else settings.max_body_bytes
        ),
    )


class ServiceClient:
    """Thin stdlib HTTP client for the estimation service.

    >>> client = ServiceClient("http://127.0.0.1:8000")
    >>> record = client.submit(spec)          # EstimateSpec or spec dict
    >>> records = client.submit_batch(specs)  # one record per spec
    >>> client.result(record["specHash"])     # stored document or None

    Transient failures — connection errors and 5xx responses — are
    retried up to ``retries`` times with exponential backoff plus
    jitter (``backoff * 2^attempt`` seconds, capped at ``max_backoff``,
    each delay scaled by a random factor in [0.5, 1.0) so a fleet of
    recovering clients does not stampede the server). ``retries=0``
    opts out. Retrying submissions is safe because the service is
    idempotent by construction: results are content-addressed and sweep
    resubmissions join the existing job by content hash, so a retry of
    a request whose first attempt actually landed returns the same
    record instead of duplicating work. 4xx responses are never
    retried — the request itself is wrong.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 300.0,
        retries: int = 2,
        backoff: float = 0.1,
        max_backoff: float = 2.0,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff

    def _open(self, request: urllib_request.Request) -> Any:
        """One HTTP attempt (separated so tests can count/fail attempts)."""
        with urllib_request.urlopen(request, timeout=self.timeout) as response:
            return json.loads(response.read())

    def _retry_delay(self, attempt: int) -> float:
        base = min(self.backoff * (2.0**attempt), self.max_backoff)
        return base * (0.5 + random.random() / 2.0)

    def _request(self, path: str, payload: Any | None = None) -> Any:
        url = f"{self.base_url}{path}"
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib_request.Request(
            url,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data is not None else "GET",
        )
        for attempt in range(self.retries + 1):
            try:
                return self._open(request)
            except urllib_error.HTTPError as exc:
                try:
                    message = json.loads(exc.read()).get("error", str(exc))
                except Exception:
                    message = str(exc)
                # 5xx may be transient (worker crash mid-request, replica
                # restarting behind a balancer); 4xx never is.
                if exc.code < 500 or attempt >= self.retries:
                    raise ServiceError(message, status=exc.code) from exc
                error: ServiceError = ServiceError(message, status=exc.code)
            except urllib_error.URLError as exc:
                if attempt >= self.retries:
                    raise ServiceError(f"cannot reach {url}: {exc.reason}") from exc
                error = ServiceError(f"cannot reach {url}: {exc.reason}")
            time.sleep(self._retry_delay(attempt))
        raise error  # unreachable: the last attempt raised above

    @staticmethod
    def _spec_dict(spec: Any) -> dict[str, Any]:
        """A spec object's document; a dict passes through unchanged."""
        return spec if isinstance(spec, dict) else spec.to_dict()

    def submit(self, spec: EstimateSpec | dict[str, Any]) -> dict[str, Any]:
        """Submit one spec; returns its result record."""
        return self._request("/v1/estimate", self._spec_dict(spec))

    def submit_batch(
        self, specs: "list[EstimateSpec | dict[str, Any]]"
    ) -> list[dict[str, Any]]:
        """Submit a batch; returns one record per spec, in order."""
        payload = {"specs": [self._spec_dict(spec) for spec in specs]}
        return self._request("/v1/estimate", payload)["results"]

    def _get_or_none(self, path: str) -> Any | None:
        """GET ``path``; ``None`` on 404, any other error raises."""
        try:
            return self._request(path)
        except ServiceError as exc:
            if exc.status == 404:
                return None
            raise

    def result(self, spec_hash: str) -> dict[str, Any] | None:
        """The stored document for a hash, or ``None`` if not stored.

        For an infeasible spec that is its error document: ``result`` is
        ``None`` and ``error`` is set.
        """
        return self._get_or_none(f"/v1/results/{spec_hash}")

    # -- async jobs (sweep, optimize) ---------------------------------------

    def submit_sweep(self, sweep: "SweepSpec | dict[str, Any]") -> dict[str, Any]:
        """POST a sweep; returns the job record (``jobId``, ``status``)."""
        return self._request("/v1/sweeps", self._spec_dict(sweep))

    def submit_optimize(
        self, optimize: "OptimizeSpec | dict[str, Any]"
    ) -> dict[str, Any]:
        """POST an optimize question; returns the job record."""
        return self._request("/v1/optimize", self._spec_dict(optimize))

    def job(self, job_id: str) -> dict[str, Any] | None:
        """Poll one job's status record, or ``None`` for unknown ids."""
        return self._get_or_none(f"/v1/jobs/{job_id}")

    def sweep_result(self, job_id: str) -> dict[str, Any] | None:
        """A finished sweep's result document.

        ``None`` for unknown sweep jobs; raises :class:`ServiceError`
        (409) while the job is still queued or running.
        """
        return self._get_or_none(f"/v1/sweeps/{job_id}/result")

    def optimize_result(self, job_id: str) -> dict[str, Any] | None:
        """A finished optimize's answer document (like :meth:`sweep_result`)."""
        return self._get_or_none(f"/v1/optimize/{job_id}/result")

    def wait_for_job(
        self, job_id: str, *, timeout: float = 300.0, poll: float = 0.05
    ) -> dict[str, Any]:
        """Poll a sweep or optimize job until done; return its result
        document, fetched from the record's own ``resultUrl``.

        Raises :class:`ServiceError` if the job fails, disappears, or
        does not finish within ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record is None:
                raise ServiceError(f"job {job_id!r} is unknown")
            name = f"{record['kind']} job {job_id!r}"
            if record["status"] == "done":
                document = self._get_or_none(record["resultUrl"])
                if document is None:
                    raise ServiceError(f"{name} finished but has no result")
                return document
            if record["status"] == "failed":
                raise ServiceError(f"{name} failed: {record.get('error')}")
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"{name} still {record['status']} after {timeout:g} s"
                )
            time.sleep(poll)

    def registry(self) -> dict[str, Any]:
        return self._request("/v1/registry")

    def health(self) -> dict[str, Any]:
        return self._request("/v1/healthz")
