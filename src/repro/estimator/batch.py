"""Shared batch/sweep engine: evaluate many estimation points at once.

Every sweep surface of the library — :func:`~repro.estimator.frontier.
estimate_frontier`, the Fig. 3/4 experiment runners, and the CLI ``batch``
subcommand — routes through :func:`estimate_batch`, so cross-point work is
paid once per sweep instead of once per point:

* **Traced logical counts** are memoized per program. Tracing a 16384-bit
  multiplier circuit costs ~1 s of pure Python; a grid that revisits the
  same circuit across profiles/budgets traces it exactly once. Requests
  may carry a hashable ``program_key`` so deduplication survives process
  boundaries (object identity is used otherwise).
* **T-factory designs** are memoized per (designer, qubit, scheme,
  required output error), on top of the designer's own per-(qubit, scheme)
  catalog cache.
* **Code-distance lookups** (:meth:`LogicalQubit.for_target_error_rate`)
  are memoized per (scheme, qubit, required error) — the inner loop of the
  C<->D fixed point.

Parallelism
-----------
``max_workers=1`` (the default) runs serially with one shared
:class:`EstimateCache`. ``max_workers=None`` or ``> 1`` hands the batch to
an :class:`~repro.estimator.engine.ExecutionEngine` — the caller's, or a
short-lived one for this call — which fans contiguous request chunks out
over worker processes; each worker keeps a process-global cache, and
chunk pickling preserves shared program objects so in-chunk deduplication
still applies. Pool start-up failures (sandboxes without process
spawning) and unpicklable requests fall back to serial execution with
identical results — determinism is asserted by the tests.

Programs may be :class:`~repro.counts.LogicalCounts`, any object with a
``logical_counts()`` method, or a zero-argument callable returning either
(a *program factory*, e.g. ``functools.partial``) — factories let workers
build and trace circuits in parallel instead of serializing the traced
artifact through the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from ..budget import ErrorBudget
from ..counts import LogicalCounts
from ..distillation import TFactory, TFactoryDesigner
from ..jsonlog import StructuredLogger
from ..qec import LogicalQubit, QECScheme
from ..qubits import PhysicalQubitParams
from ..synthesis import RotationSynthesis
from .constraints import Constraints
from .engine import ExecutionEngine, engine_scope
from .result import PhysicalResourceEstimates
from .stages import (
    DEFAULT_DESIGNER,
    EstimationError,
    build_context,
    resolve_counts,
    run_pipeline,
)

__all__ = [
    "BACKEND_CHOICES",
    "BatchOutcome",
    "EstimateCache",
    "EstimateRequest",
    "estimate_batch",
]

#: Valid values of ``estimate_batch``'s ``backend`` parameter. ``auto``
#: and ``scalar`` run the scalar walk; only ``vectorized`` loads numpy.
BACKEND_CHOICES = ("auto", "scalar", "vectorized")


@dataclass(frozen=True, eq=False)
class EstimateRequest:
    """One point of a sweep: a program plus its estimation parameters.

    ``program`` may be :class:`LogicalCounts`, an object exposing
    ``logical_counts()``, or a zero-argument callable returning either
    (evaluated lazily, inside the worker for parallel runs).

    ``program_key``, when given, is the memoization key for the program's
    traced counts; requests sharing a key trace once. Without it, object
    identity deduplicates (identical only within one process / chunk).

    ``label`` is free-form caller metadata echoed on the outcome.
    """

    program: object
    qubit: PhysicalQubitParams
    scheme: QECScheme | None = None
    budget: ErrorBudget | float = 1e-3
    constraints: Constraints | None = None
    synthesis: RotationSynthesis | None = None
    program_key: Hashable | None = None
    label: str | None = None


@dataclass(frozen=True, eq=False)
class BatchOutcome:
    """Result of one request: an estimate, or the estimation error hit."""

    request: EstimateRequest
    result: PhysicalResourceEstimates | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.result is not None

    def unwrap(self) -> PhysicalResourceEstimates:
        """The estimate, raising :class:`EstimationError` on failure."""
        if self.result is None:
            raise EstimationError(self.error or "estimation failed")
        return self.result


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`EstimateCache` (observability)."""

    counts_hits: int = 0
    counts_misses: int = 0
    factory_hits: int = 0
    factory_misses: int = 0
    distance_hits: int = 0
    distance_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    kernel_vectorized_points: int = 0
    kernel_fallback_points: int = 0
    kernel_scalar_points: int = 0
    executor_fallbacks: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass
class EstimateCache:
    """Exact-key memos for the cross-point work of a sweep.

    All cached functions are deterministic and pure, so caching never
    changes a result — only how often the underlying work runs. A cache
    may be shared across :func:`estimate_batch` calls to keep its memos
    warm (the module keeps one such shared instance for default calls);
    :meth:`clear` drops all entries. :meth:`stats` reports hit/miss
    counters per memo table plus persistent-store hits (counted by
    :func:`repro.estimator.spec.run_specs` when a store is layered under
    this cache), surfaced by ``repro bench trace --json``.
    """

    designer: TFactoryDesigner = field(default_factory=lambda: DEFAULT_DESIGNER)

    def __post_init__(self) -> None:
        self._stats = CacheStats()
        self._fallback_reason: str | None = None
        # program key -> (program ref, counts); the ref pins object ids.
        self._counts: dict[Hashable, tuple[object, LogicalCounts]] = {}
        # (designer id, ...) -> (designer ref, factory); the ref pins ids.
        self._factories: dict[tuple, tuple[TFactoryDesigner, TFactory]] = {}
        self._distances: dict[tuple, LogicalQubit] = {}
        # (scheme, qubit, distance) -> the one instance every required
        # error at that distance shares, with its derived quantities.
        self._logical_qubits: dict[tuple, LogicalQubit] = {}

    def stats(self) -> dict[str, dict[str, int]]:
        """Hits/misses per memo table (and the layered result store)."""
        s = self._stats
        return {
            "counts": {"hits": s.counts_hits, "misses": s.counts_misses},
            "factories": {"hits": s.factory_hits, "misses": s.factory_misses},
            "distances": {"hits": s.distance_hits, "misses": s.distance_misses},
            "store": {"hits": s.store_hits, "misses": s.store_misses},
            "kernel": {
                "vectorized": s.kernel_vectorized_points,
                "scalarFallback": s.kernel_fallback_points,
                "scalar": s.kernel_scalar_points,
            },
            "executor": {
                "serialFallbacks": s.executor_fallbacks,
                "lastFallbackReason": self._fallback_reason,
            },
        }

    def record_executor_fallback(self, reason: str) -> None:
        """Count a parallel-executor degradation to serial execution.

        Lets operators distinguish "ran parallel" from "quietly ran
        serial" in ``cacheStats`` — the results are identical either way,
        only the wall clock differs.
        """
        self._stats.executor_fallbacks += 1
        self._fallback_reason = reason

    def record_kernel_points(
        self, *, vectorized: int = 0, fallback: int = 0, scalar: int = 0
    ) -> None:
        """Count points by the evaluation path that produced them.

        ``vectorized`` points went through the struct-of-arrays kernel,
        ``fallback`` points were handed back to the scalar path by the
        kernel (unsupported feature or magnitude guard), and ``scalar``
        points ran on the scalar path by backend choice.
        """
        self._stats.kernel_vectorized_points += vectorized
        self._stats.kernel_fallback_points += fallback
        self._stats.kernel_scalar_points += scalar

    def record_store_lookup(self, hit: bool) -> None:
        """Count a persistent-store lookup made on behalf of this cache."""
        if hit:
            self._stats.store_hits += 1
        else:
            self._stats.store_misses += 1

    def clear(self) -> None:
        self._counts.clear()
        self._factories.clear()
        self._distances.clear()
        self._logical_qubits.clear()

    def prune_unkeyed_counts(self) -> None:
        """Drop counts memoized by object identity (not ``program_key``).

        Identity entries pin their program objects alive; the module-shared
        cache prunes them after each batch so long-lived processes don't
        accumulate every circuit ever estimated. Keyed entries persist —
        their vocabulary is bounded by the caller's grid definitions.
        """
        self._counts = {
            key: value
            for key, value in self._counts.items()
            if not (isinstance(key, tuple) and len(key) == 2 and key[0] == "id")
        }

    def resolve_counts(
        self, program: object, key: Hashable | None = None
    ) -> LogicalCounts:
        """Resolve (and memoize) a program's pre-layout logical counts."""
        if isinstance(program, LogicalCounts):
            return program
        cache_key: Hashable = key if key is not None else ("id", id(program))
        hit = self._counts.get(cache_key)
        if hit is not None:
            self._stats.counts_hits += 1
            return hit[1]
        self._stats.counts_misses += 1
        # resolve_counts handles objects, counts providers (zero-argument
        # callables, e.g. a partial over the streaming counting backend),
        # and plain LogicalCounts alike.
        counts = resolve_counts(program)
        self._counts[cache_key] = (program, counts)
        return counts

    def design_factory(
        self,
        designer: TFactoryDesigner,
        qubit: PhysicalQubitParams,
        scheme: QECScheme,
        required_output_error_rate: float,
    ) -> TFactory:
        """Memoized :meth:`TFactoryDesigner.design`."""
        key = (id(designer), qubit, scheme, required_output_error_rate)
        hit = self._factories.get(key)
        if hit is not None:
            self._stats.factory_hits += 1
            return hit[1]
        self._stats.factory_misses += 1
        factory = designer.design(qubit, scheme, required_output_error_rate)
        # Store the designer alongside the factory: the strong ref pins its
        # id so a garbage-collected designer's address can never be reused
        # by a differently-configured one and hit a stale entry.
        self._factories[key] = (designer, factory)
        return factory

    def logical_qubit(
        self,
        scheme: QECScheme,
        qubit: PhysicalQubitParams,
        required_error_rate: float,
    ) -> LogicalQubit:
        """Memoized :meth:`LogicalQubit.for_target_error_rate`."""
        key = (scheme, qubit, required_error_rate)
        lq = self._distances.get(key)
        if lq is not None:
            self._stats.distance_hits += 1
            return lq
        self._stats.distance_misses += 1
        lq = LogicalQubit.for_target_error_rate(scheme, qubit, required_error_rate)
        lq = self._logical_qubits.setdefault((scheme, qubit, lq.code_distance), lq)
        self._distances[key] = lq
        return lq


#: Cache used by default estimate_batch calls, so back-to-back sweeps
#: (figure drivers, frontier ladders, tests) keep their memos warm. Safe
#: because entries are exact-key memos of pure functions.
_SHARED_CACHE = EstimateCache()

#: Per-worker-process cache for parallel runs (initialized lazily).
_WORKER_CACHE: EstimateCache | None = None

#: Structured logger of the short-lived engines :func:`estimate_batch`
#: creates when no engine is passed (fallback events, pool lifecycle).
#: Disabled by default; the serve/work CLI entry points install theirs so
#: those events land in the operator's JSON log stream.
_EXECUTOR_LOG = StructuredLogger.disabled()


def set_executor_log(log: StructuredLogger | None) -> None:
    """Install the structured logger used for executor fallback events."""
    global _EXECUTOR_LOG
    _EXECUTOR_LOG = log if log is not None else StructuredLogger.disabled()


def _note_fallback(
    cache: EstimateCache, reason: str, exc: BaseException, log: StructuredLogger
) -> None:
    """Record one parallel-to-serial degradation (counter + log event)."""
    cache.record_executor_fallback(reason)
    log.event("executor.fallback", reason=reason, error=str(exc))


def _init_worker(store_root: str | None = None) -> None:
    """Process-pool initializer: pre-warm the worker-resident state.

    Creates the process-global :data:`_WORKER_CACHE` eagerly (instead of
    on first chunk) and, when a store root is known, primes the
    per-process :class:`~repro.estimator.store.ResultStore` handle so the
    counts-cache memory LRU persists across every chunk this worker runs.
    """
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = EstimateCache()
    if store_root:
        from .spec import _store_handle

        try:
            _store_handle(store_root)
        except OSError:
            # An unreadable root only disables handle pre-warming; the
            # chunk itself will surface the error if the store is used.
            pass


def _run_request(
    request: EstimateRequest, cache: EstimateCache
) -> BatchOutcome:
    """Evaluate one request, capturing infeasibility as an outcome."""
    try:
        counts = cache.resolve_counts(request.program, key=request.program_key)
        ctx = build_context(
            request.program,
            request.qubit,
            scheme=request.scheme,
            budget=request.budget,
            constraints=request.constraints,
            synthesis=request.synthesis,
            factory_designer=cache.designer,
            counts=counts,
        )
        result = run_pipeline(ctx, cache=cache)
    except EstimationError as exc:
        return BatchOutcome(request=request, result=None, error=str(exc))
    return BatchOutcome(request=request, result=result, error=None)


def _load_kernel():
    """Import the numpy kernel, which only ``backend="vectorized"`` runs."""
    try:
        from . import kernel
    except ImportError as exc:
        raise RuntimeError(
            "backend='vectorized' requires numpy, which is not "
            "installed; use backend='scalar' or 'auto'"
        ) from exc
    return kernel


def _run_chunk(
    payload: tuple[int, list[EstimateRequest], TFactoryDesigner | None, str],
) -> tuple[int, list[tuple[PhysicalResourceEstimates | None, str | None]]]:
    """Worker entry point: run one contiguous chunk with the process cache.

    ``payload`` carries the parent's custom factory designer (``None`` for
    the shared default) and the requested kernel backend; a custom
    designer gets a chunk-local cache so parallel results match what the
    same cache produces serially.
    """
    global _WORKER_CACHE
    from .queue import ENGINE_FAULT_STAGE, _fault_point

    _fault_point(ENGINE_FAULT_STAGE)  # test-only kill-point; no-op unless armed
    start, requests, designer, backend = payload
    if designer is not None:
        cache = EstimateCache(designer=designer)
    else:
        if _WORKER_CACHE is None:
            _WORKER_CACHE = EstimateCache()
        cache = _WORKER_CACHE
    outcomes = _run_serial(requests, cache, backend=backend)
    # Ship only (result, error) back; the parent re-attaches its own
    # request objects so callers can match outcomes by identity.
    return start, [(o.result, o.error) for o in outcomes]


def _run_serial(
    requests: Sequence[EstimateRequest],
    cache: EstimateCache,
    backend: str = "scalar",
) -> list[BatchOutcome]:
    if backend == "vectorized":
        return _load_kernel().run_batch_vectorized(list(requests), cache)
    cache.record_kernel_points(scalar=len(requests))
    return [_run_request(request, cache) for request in requests]


def _chunks(
    requests: Sequence[EstimateRequest], num_chunks: int
) -> list[tuple[int, list[EstimateRequest]]]:
    """Split into at most ``num_chunks`` contiguous (start, chunk) pieces."""
    n = len(requests)
    num_chunks = max(1, min(num_chunks, n))
    size, extra = divmod(n, num_chunks)
    pieces: list[tuple[int, list[EstimateRequest]]] = []
    start = 0
    for i in range(num_chunks):
        end = start + size + (1 if i < extra else 0)
        pieces.append((start, list(requests[start:end])))
        start = end
    return pieces


def estimate_batch(
    requests: Sequence[EstimateRequest],
    *,
    max_workers: int | None = 1,
    cache: EstimateCache | None = None,
    backend: str = "auto",
    engine: ExecutionEngine | None = None,
) -> list[BatchOutcome]:
    """Evaluate many estimation points, preserving input order.

    Parameters
    ----------
    requests:
        The sweep points. Outcomes are returned in the same order; a point
        whose estimation is infeasible yields a failed
        :class:`BatchOutcome` (``ok`` false, ``error`` set) instead of
        raising, so sweeps can report partial results.
    max_workers:
        ``1`` (default) runs serially with a shared cache. ``None`` or
        ``> 1`` distributes contiguous chunks over a process pool (one
        chunk per worker); unavailable pools and unpicklable requests fall
        back to serial execution with identical results.
    cache:
        Cache to use (and warm) for serial execution; defaults to a
        module-shared instance. Worker processes always use their own
        process-global caches.
    backend:
        ``"auto"`` (default) and ``"scalar"`` run every batch, at any
        size and in every worker, through the scalar walk, which never
        imports numpy. ``"vectorized"`` opts in to the struct-of-arrays
        kernel (and raises when numpy is unavailable). Backends are bit
        for bit interchangeable: the kernel falls back to the scalar path
        per point for anything it does not model, so outcomes (results
        *and* error messages) never depend on this choice.

    Input validation errors (bad program type, malformed budget or
    constraints) raise immediately — only :class:`EstimationError`
    infeasibility is captured per point.

    When ``engine`` (an :class:`~repro.estimator.engine.ExecutionEngine`)
    is given, the batch runs through its persistent process pool, keeping
    worker-resident caches warm across batches; ``max_workers`` is then
    ignored in favor of the engine's worker count. Without one, a
    short-lived engine with ``max_workers`` workers runs this call.
    """
    with engine_scope(engine, max_workers=max_workers, log=_EXECUTOR_LOG) as runner:
        # The engine owns serial/parallel routing, fallback recording,
        # and (shared-cache) pruning for the whole batch.
        return runner.run(requests, cache=cache, backend=backend)


def request_grid(
    programs: Sequence[tuple[object, Hashable | None, str | None]],
    qubits: Sequence[PhysicalQubitParams],
    *,
    budgets: Sequence[ErrorBudget | float] = (1e-3,),
    constraints: Sequence[Constraints | None] = (None,),
    scheme_for: Callable[[PhysicalQubitParams], QECScheme | None] | None = None,
) -> list[EstimateRequest]:
    """Cartesian grid helper: (program x qubit x budget x constraints).

    ``programs`` holds ``(program, program_key, label)`` triples;
    ``scheme_for`` maps each qubit to its QEC scheme (``None`` keeps the
    technology default). Points are ordered program-major, matching the
    nesting order of the arguments.
    """
    grid: list[EstimateRequest] = []
    for program, program_key, label in programs:
        for qubit in qubits:
            scheme = scheme_for(qubit) if scheme_for is not None else None
            for budget in budgets:
                for constraint in constraints:
                    grid.append(
                        EstimateRequest(
                            program=program,
                            qubit=qubit,
                            scheme=scheme,
                            budget=budget,
                            constraints=constraint,
                            program_key=program_key,
                            label=label,
                        )
                    )
    return grid
