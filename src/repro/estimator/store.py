"""Content-addressed persistent result store.

Every estimation result can be addressed by the content hash of the
:class:`~repro.estimator.spec.EstimateSpec` that produced it — estimation
is deterministic, so the spec hash *is* the result identity. That holds
for infeasibility too: a spec whose estimate fails (no T factory meets
the budget, a constraint cannot be met) fails the same way every time.
The store keeps one JSON document per hash on disk — either the result
or, for an infeasible point, an *error document* — which buys three
things the in-memory :class:`~repro.estimator.batch.EstimateCache`
cannot:

* **cross-process reuse** — a second process (or a restarted service)
  re-running the same sweep grid answers from disk in milliseconds
  instead of re-solving every fixed point;
* **warm starts** — the fig3/fig4 reproductions, CLI batch grids, and
  ``repro sweep`` runs skip all previously-computed points, infeasible
  ones included (``benchmarks/test_store_warmrun.py`` asserts a >= 10x
  warm-run speedup floor) — this is also the sweep subsystem's resume
  story: a killed sweep re-run picks up from its persisted chunks. A
  hit hands back the verified stored result dict alongside its decoded
  object, so a warm run copies stored documents to its output instead
  of re-serializing them;
* **serving** — the estimation service's ``GET /v1/results/<hash>``
  endpoint reads stored documents directly, and finished sweep results
  (keyed by the sweep's content hash) survive server restarts in the
  sweep namespace.

Documents
---------
A result document is ``{"schema", "specHash", "spec", "result",
"digest"}``; an error document is ``{"schema", "specHash", "spec",
"result": null, "error", "digest"}``, written only for estimation
failures (:class:`~repro.estimator.stages.EstimationError`). Invalid
specs — unknown names, malformed definitions — never reach the store:
they have no resolved hash to file under. A hit on an error document
answers with the same error the estimator would raise.

Layout and durability
---------------------
Entries live under ``<root>/<schema-tag>/<hh>/<hash>.json`` where ``hh``
is the first two hash hex digits (fan-out keeps directories small). The
schema tag versions the document serialization: bumping
:data:`RESULT_SCHEMA` (on any change to ``to_dict`` output or the
document envelope) makes a new namespace, so stale entries are never
deserialized against new code — that is the cache-invalidation story, no
migration needed. Sweep result documents live under their own
:data:`SWEEP_DOC_SCHEMA` namespace, and traced logical counts — keyed by
resolved program content hash plus backend — under :data:`COUNTS_SCHEMA`
(the cross-run counts cache layered under
:func:`~repro.estimator.spec.run_specs`). :meth:`ResultStore.stats`
reports per-namespace document counts and bytes (the ``repro store
stats`` CLI subcommand), TTL-cached so operators and the service's
``/v1/metrics`` endpoint can poll it without paying a directory walk
per call.

Bounded disk
------------
A store grows without bound by default — every distinct spec hash adds
a document. :meth:`ResultStore.evict` (the ``repro store evict`` CLI)
prunes the *document* namespaces — results, sweep results, counts,
optimize traces — oldest mtime first until they fit a byte budget,
and a store constructed with ``max_bytes=`` enforces that budget
automatically as it writes. Eviction never touches live coordination
state: queue chunk records, leases, and journal entries are not
documents of record, they are the crash-safety substrate — evicting
them could orphan a running sweep. An evicted document is simply a
future cache miss: the store heals by recomputation, exactly like a
corrupt file.

Writes go through a temporary file in the destination directory followed
by :func:`os.replace`, so concurrent writers and crashes can never leave
a torn document; rewriting the same hash is idempotent. Every document
embeds a SHA-256 ``digest`` over its canonical content, verified on
read: corrupt, truncated, bit-flipped, or foreign files all read back as
misses — a damaged store heals by recomputation, it never serves a
mangled result.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..counts import LogicalCounts
from .result import PhysicalResourceEstimates

__all__ = [
    "COUNTS_SCHEMA",
    "DEFAULT_MEMORY_CACHE_SIZE",
    "JOBS_SCHEMA",
    "OPTIMIZE_DOC_SCHEMA",
    "QUEUE_SCHEMA",
    "RESULT_SCHEMA",
    "SWEEP_DOC_SCHEMA",
    "ResultStore",
    "StoredOutcome",
    "default_store_root",
    "read_document",
    "write_document",
]

#: Version tag of the stored result document format. Bump when the
#: ``PhysicalResourceEstimates.to_dict`` schema or the document envelope
#: changes incompatibly; old entries then simply stop being found (no
#: migration required). v2: documents gained the integrity ``digest``.
#: v3: infeasible points are stored too, as error documents
#: (``result: null`` plus the ``error`` string) — a v2 store has no
#: record of them, so its namespace is left behind rather than read as
#: "feasible points only".
RESULT_SCHEMA = "repro-result-v3"

#: Version tag (and namespace) of stored sweep result documents. Bump
#: when the result dicts sweep documents embed change. The v3 result
#: namespace changed only the store envelope (error documents); the
#: embedded ``to_dict`` output is unchanged, so this tag stays.
SWEEP_DOC_SCHEMA = "repro-sweep-result-v1"

#: Version tag (and namespace) of stored logical-counts documents. Keys
#: are SHA-256 over (this tag, resolved program content hash, backend) —
#: see :meth:`repro.estimator.spec.ProgramRef.counts_cache_key` — so a
#: workload referenced by any number of specs, sweeps, or service
#: submissions is traced once ever per store.
COUNTS_SCHEMA = "repro-counts-v1"

#: Version tag (and namespace) of the sweep work queue: per-sweep chunk
#: records, lease files, and per-chunk outcome documents that let N
#: worker processes drain one sweep cooperatively (see
#: :mod:`repro.estimator.queue`).
QUEUE_SCHEMA = "repro-queue-v1"

#: Version tag (and namespace) of the persistent job journal: one
#: document per submitted sweep job, so in-flight sweeps are
#: rediscovered (and resumed) after a worker or service restart.
JOBS_SCHEMA = "repro-jobs-v1"

#: Version tag (and namespace) of optimize probe-trace documents: one
#: per :class:`~repro.estimator.optimize.OptimizeSpec` content hash,
#: recording every probed spec hash and its verdict, so an interrupted
#: adaptive search resumes bit-for-bit and an equivalent re-submission
#: answers from the store with zero evaluations (see
#: :mod:`repro.estimator.optimize`).
OPTIMIZE_DOC_SCHEMA = "repro-optimize-v1"

#: Default capacity of the in-process read-through LRU in front of
#: :meth:`ResultStore.get` and :meth:`ResultStore.get_counts`. Adaptive
#: searches re-probe neighboring points many times within one process;
#: the memory cache stops them re-reading and re-parsing the same JSON
#: documents from disk. Entries are content-addressed and immutable, so
#: a cached document can never go stale; only documents that passed the
#: integrity digest on a real disk read are ever cached.
DEFAULT_MEMORY_CACHE_SIZE = 256

#: Default time-to-live of the cached :meth:`ResultStore.stats` disk
#: scan. Within the TTL, repeated ``stats()`` calls (metrics scrapes,
#: ``repro store stats``) answer from the cached snapshot without
#: walking a single directory; in-process writes invalidate it, so the
#: cache can only hide *other* processes' writes, never this one's.
DEFAULT_STATS_TTL = 5.0

#: Default tolerance for file mtimes in the *future* during ``gc``: up
#: to this far ahead of the local clock a file is treated as fresh
#: (tolerable writer/collector clock skew on a shared or NFS store);
#: beyond it no live writer can plausibly have produced the timestamp,
#: so the file is clock-skew litter and is collected rather than left
#: immortal.
DEFAULT_GC_FUTURE_SKEW = 3600.0

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "REPRO_STORE_DIR"

#: A well-formed store key: lowercase hex, nothing else (no path parts).
_HASH_RE = re.compile(r"[0-9a-f]+")


def default_store_root() -> Path:
    """``$REPRO_STORE_DIR`` or ``~/.cache/repro/store``."""
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "store"


def _digest(document: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a document, sans its digest."""
    body = {key: value for key, value in document.items() if key != "digest"}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def read_document(path: Path) -> dict[str, Any] | None:
    """Parse and integrity-check one store document (miss on failure).

    The store's document envelope — digest-verified, corrupt-reads-as-
    miss — exposed for sibling namespaces (the sweep work queue and the
    job journal) that persist documents under the same root with the
    same durability contract.
    """
    return ResultStore._read_document(path)


def write_document(path: Path, document: dict[str, Any]) -> bool:
    """Atomically persist a document with its digest; returns success.

    Same tmp+\\ :func:`os.replace` discipline as every store write:
    concurrent writers and crashes can never leave a torn document, and
    rewriting identical content is idempotent.
    """
    return ResultStore._write_document(path, document)


@dataclass(frozen=True, eq=False)
class StoredOutcome:
    """One verified result-namespace document, decoded once.

    Either an estimate — ``result`` plus ``result_dict``, the stored
    JSON form it was decoded from — or a persisted infeasibility, with
    ``result`` and ``result_dict`` ``None`` and ``error`` set.
    ``result_dict`` is shared with the store's memory cache: callers
    serialize it as is and must not mutate it.
    """

    result: PhysicalResourceEstimates | None
    result_dict: dict[str, Any] | None
    error: str | None


class _MemoryCache:
    """Bounded thread-safe LRU of parsed documents with hit counters.

    Populated only from *successful disk reads* — never from writes — so
    every cached value passed the integrity digest at least once in this
    process, and the corruption contract (a damaged file reads as a
    miss) is preserved for entries that were never read back. Cached
    values are frozen (:class:`StoredOutcome`, :class:`LogicalCounts`),
    safe to hand out shared.
    """

    __slots__ = ("capacity", "hits", "misses", "_entries", "_lock")

    def __init__(self, capacity: int) -> None:
        self.capacity = max(int(capacity), 0)
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Any | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, value: Any) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def remove(self, key: str) -> None:
        """Drop one entry if resident (eviction coherence; benign miss)."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }


class ResultStore:
    """Spec-hash -> result-JSON mapping persisted on disk.

    Parameters
    ----------
    root:
        Store directory; created lazily on first write. Defaults to
        :func:`default_store_root`. Multiple processes may share a root —
        writes are atomic and entries immutable (same hash, same bytes).
    schema:
        Result-document schema tag; entries written under a different tag
        are invisible. Override only in tests.
    cache_size:
        Capacity of the in-process read-through LRU in front of
        :meth:`get` and :meth:`get_counts` (per namespace). ``0``
        disables memory caching; every read goes to disk.
    max_bytes:
        Disk budget for the evictable document namespaces (results,
        sweeps, counts, optimize traces). When set, every write checks a
        running byte estimate and triggers :meth:`evict` past the
        budget, so the store stays bounded across arbitrarily large
        sweeps. ``None`` (default) disables automatic eviction.
    stats_ttl:
        How long one :meth:`stats` disk scan stays authoritative, in
        seconds. ``0`` re-walks on every call (the pre-PR-9 behavior).
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        schema: str = RESULT_SCHEMA,
        cache_size: int = DEFAULT_MEMORY_CACHE_SIZE,
        max_bytes: int | None = None,
        stats_ttl: float = DEFAULT_STATS_TTL,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if stats_ttl < 0:
            raise ValueError(f"stats_ttl must be >= 0, got {stats_ttl}")
        self.root = Path(root) if root is not None else default_store_root()
        self.schema = schema
        self.max_bytes = max_bytes
        self.stats_ttl = float(stats_ttl)
        self._result_cache = _MemoryCache(cache_size)
        self._counts_cache = _MemoryCache(cache_size)
        #: Directory walks performed by :meth:`stats` — a test/observability
        #: hook asserting the TTL cache really skips the walk.
        self.stats_walks = 0
        self._stats_lock = threading.Lock()
        self._stats_snapshot: dict[str, Any] | None = None
        self._stats_taken = 0.0
        self._evictions = {"files": 0, "bytes": 0}
        # Running byte total of the evictable namespaces; None until the
        # first budget check scans it. Writes add their sizes (an upper
        # bound — idempotent rewrites double-count, which only makes the
        # next evict() run early; evict() recomputes the exact total).
        self._evictable_bytes: int | None = None

    # -- paths -------------------------------------------------------------

    @property
    def _base(self) -> Path:
        return self.root / self.schema

    @staticmethod
    def _check_hash(spec_hash: str) -> str:
        if not isinstance(spec_hash, str) or _HASH_RE.fullmatch(spec_hash) is None:
            raise ValueError(f"malformed spec hash {spec_hash!r}")
        return spec_hash

    def path_for(self, spec_hash: str) -> Path:
        """Where the document for ``spec_hash`` lives (existing or not)."""
        self._check_hash(spec_hash)
        return self._base.joinpath(spec_hash[:2], f"{spec_hash}.json")

    def sweep_path_for(self, sweep_hash: str) -> Path:
        """Where the sweep result document for ``sweep_hash`` lives."""
        self._check_hash(sweep_hash)
        return self.root / SWEEP_DOC_SCHEMA / sweep_hash[:2] / f"{sweep_hash}.json"

    def counts_path_for(self, counts_key: str) -> Path:
        """Where the logical-counts document for ``counts_key`` lives."""
        self._check_hash(counts_key)
        return self.root / COUNTS_SCHEMA / counts_key[:2] / f"{counts_key}.json"

    def optimize_path_for(self, optimize_hash: str) -> Path:
        """Where the probe-trace document for ``optimize_hash`` lives."""
        self._check_hash(optimize_hash)
        return (
            self.root
            / OPTIMIZE_DOC_SCHEMA
            / optimize_hash[:2]
            / f"{optimize_hash}.json"
        )

    # -- document plumbing -------------------------------------------------

    @staticmethod
    def _read_document(path: Path) -> dict[str, Any] | None:
        """Parse and integrity-check one document file (miss on failure)."""
        try:
            document = json.loads(path.read_bytes())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(document, dict):
            return None
        digest = document.get("digest")
        if not isinstance(digest, str) or digest != _digest(document):
            return None  # corrupt, tampered, or pre-digest (v1) document
        return document

    @staticmethod
    def _write_document(path: Path, document: dict[str, Any]) -> bool:
        """Atomically persist a document (digest added); returns success."""
        document = dict(document)
        document["digest"] = _digest(document)
        # Compact separators: every byte of the file is significant, so
        # corruption cannot hide in formatting. json.dumps, not json.dump:
        # only dumps uses the C encoder; the bytes are the same. The text
        # is ASCII and goes out through raw os.write calls.
        data = memoryview(json.dumps(document, separators=(",", ":")).encode())
        prefix = f".{path.stem[:8]}-"
        try:
            try:
                fd, tmp_name = tempfile.mkstemp(
                    dir=path.parent, prefix=prefix, suffix=".tmp"
                )
            except FileNotFoundError:
                # First write into this fan-out directory (or the first
                # since clear/evict/gc emptied it): create it and retry.
                # Asking the filesystem on failure, instead of calling
                # mkdir per write or remembering known directories,
                # costs nothing on the common path and never goes stale.
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp_name = tempfile.mkstemp(
                    dir=path.parent, prefix=prefix, suffix=".tmp"
                )
            try:
                try:
                    while data:
                        data = data[os.write(fd, data) :]
                finally:
                    os.close(fd)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    # -- reads -------------------------------------------------------------

    def get_raw(self, spec_hash: str) -> dict[str, Any] | None:
        """The stored document for a hash, or ``None`` (missing/corrupt).

        Result documents are ``{"schema": ..., "specHash": ..., "spec":
        ..., "result": {...}, "digest": ...}``; error documents carry
        ``"result": null`` and an ``"error"`` string instead. A readable
        file whose digest, schema, hash, or shape does not match is
        treated as a miss, never an error — a shared store directory
        must not be able to crash (or corrupt) an estimation run.
        """
        document = self._read_document(self.path_for(spec_hash))
        if (
            document is None
            or document.get("schema") != self.schema
            or document.get("specHash") != spec_hash
        ):
            return None
        result, error = document.get("result"), document.get("error")
        if isinstance(result, dict) and error is None:
            return document
        if result is None and isinstance(error, str) and error:
            return document
        return None

    def lookup(self, spec_hash: str) -> StoredOutcome | None:
        """The stored outcome for a hash — estimate or error — or ``None``.

        A result document is decoded once with
        :meth:`PhysicalResourceEstimates.from_dict`; one that fails to
        decode (written by an incompatible build) reads as a miss.
        Repeated lookups of one hash within a process answer from the
        bounded in-memory LRU (populated only by verified disk reads —
        see :class:`_MemoryCache`); hit counts appear under
        ``memoryCache`` in :meth:`stats`.
        """
        self._check_hash(spec_hash)
        cached = self._result_cache.get(spec_hash)
        if cached is not None:
            return cached
        document = self.get_raw(spec_hash)
        if document is None:
            return None
        result_dict = document["result"]
        if result_dict is None:
            entry = StoredOutcome(None, None, document["error"])
        else:
            try:
                result = PhysicalResourceEstimates.from_dict(result_dict)
            except (KeyError, TypeError, ValueError):
                return None  # written by an incompatible (future) build
            entry = StoredOutcome(result, result_dict, None)
        self._result_cache.put(spec_hash, entry)
        return entry

    def get(self, spec_hash: str) -> PhysicalResourceEstimates | None:
        """The stored result for a hash, deserialized, or ``None``.

        ``None`` also for a stored error document; :meth:`lookup` tells
        the two apart.
        """
        entry = self.lookup(spec_hash)
        return entry.result if entry is not None else None

    def __contains__(self, spec_hash: str) -> bool:
        """Whether a verified document — result or error — is stored."""
        return self.get_raw(spec_hash) is not None

    def keys(self) -> Iterator[str]:
        """Hashes currently stored under this schema tag."""
        if not self._base.is_dir():
            return
        for path in sorted(self._base.glob("*/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- writes ------------------------------------------------------------

    def _result_document(
        self, spec_hash: str, outcome: StoredOutcome, spec: dict[str, Any] | None
    ) -> dict[str, Any]:
        """The envelope of one result or error document (sans digest)."""
        if (outcome.result_dict is None) == (outcome.error is None):
            raise ValueError("a stored outcome needs exactly one of a result or an error")
        document = {
            "schema": self.schema,
            "specHash": spec_hash,
            "spec": spec,
            "result": outcome.result_dict,
        }
        if outcome.error is not None:
            document["error"] = outcome.error
        return document

    def put(
        self,
        spec_hash: str,
        result: PhysicalResourceEstimates,
        *,
        spec: dict[str, Any] | None = None,
    ) -> bool:
        """Persist a result document atomically; returns success.

        ``spec`` (the producing spec's ``to_dict``) is embedded for
        debuggability and re-queueing; it is not required to read the
        result back. An unwritable store degrades to a no-op (``False``)
        instead of failing the estimation that produced the result.
        """
        path = self.path_for(spec_hash)
        document = self._result_document(
            spec_hash, StoredOutcome(result, result.to_dict(), None), spec
        )
        ok = self._write_document(path, document)
        if ok:
            self._note_document_written(path)
        return ok

    def put_many(
        self,
        entries: Iterable[
            tuple[
                str,
                PhysicalResourceEstimates | StoredOutcome,
                dict[str, Any] | None,
            ]
        ],
    ) -> int:
        """Persist many result or error documents with one bookkeeping pass.

        Each entry is ``(spec_hash, outcome, spec)``. ``outcome`` is a
        result, or a :class:`StoredOutcome` — an error document when its
        ``error`` is set, otherwise its ``result_dict`` written as is (the
        caller already holds the ``to_dict()``). Like calling :meth:`put`
        per entry, but the stats invalidation, byte-estimate growth, and
        eviction check run once for the whole batch instead of once per
        point — the chunk-write path of
        :func:`repro.estimator.spec.run_specs` uses this so persistence
        bookkeeping stays off the per-point hot path. Returns the number
        of documents actually written (unwritable documents are skipped,
        matching :meth:`put`).
        """
        written = 0
        batch_bytes = 0
        for spec_hash, outcome, spec in entries:
            path = self.path_for(spec_hash)
            if not isinstance(outcome, StoredOutcome):
                outcome = StoredOutcome(outcome, outcome.to_dict(), None)
            document = self._result_document(spec_hash, outcome, spec)
            if self._write_document(path, document):
                written += 1
                if self.max_bytes is not None:
                    try:
                        batch_bytes += path.stat().st_size
                    except OSError:
                        pass
        if written:
            self._note_batch_written(batch_bytes)
        return written

    def clear(self) -> int:
        """Remove every entry under this schema tag; returns the count.

        Fan-out directories left empty are removed too; the next write
        into one recreates it.
        """
        removed = 0
        emptied: set[Path] = set()
        for spec_hash in list(self.keys()):
            path = self.path_for(spec_hash)
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
            emptied.add(path.parent)
        for directory in emptied:
            try:
                directory.rmdir()
            except OSError:
                pass  # not empty (a concurrent write, writer litter)
        self._result_cache.clear()
        self._invalidate_stats()
        return removed

    # -- sweep results -----------------------------------------------------

    def put_sweep(self, sweep_hash: str, result: dict[str, Any]) -> bool:
        """Persist a finished sweep's result document under its hash.

        ``result`` is a :meth:`repro.estimator.sweep.SweepResult.to_dict`
        document; the restarted estimation service re-serves finished
        sweeps from this namespace without recomputing anything.
        """
        document = {
            "schema": SWEEP_DOC_SCHEMA,
            "sweepHash": sweep_hash,
            "result": result,
        }
        path = self.sweep_path_for(sweep_hash)
        ok = self._write_document(path, document)
        if ok:
            self._note_document_written(path)
        return ok

    def get_sweep(self, sweep_hash: str) -> dict[str, Any] | None:
        """A stored sweep result document, or ``None`` (missing/corrupt)."""
        document = self._read_document(self.sweep_path_for(sweep_hash))
        if (
            document is None
            or document.get("schema") != SWEEP_DOC_SCHEMA
            or document.get("sweepHash") != sweep_hash
            or not isinstance(document.get("result"), dict)
        ):
            return None
        return document["result"]

    # -- logical counts ----------------------------------------------------

    def put_counts(
        self,
        counts_key: str,
        counts: LogicalCounts,
        *,
        backend: str | None = None,
    ) -> bool:
        """Persist a workload's traced counts under its counts key.

        ``backend`` is embedded for debuggability (the key already covers
        it). Like :meth:`put`, an unwritable store degrades to a no-op.
        """
        document = {
            "schema": COUNTS_SCHEMA,
            "countsKey": counts_key,
            "backend": backend,
            "counts": counts.to_dict(),
        }
        path = self.counts_path_for(counts_key)
        ok = self._write_document(path, document)
        if ok:
            self._note_document_written(path)
        return ok

    def get_counts(self, counts_key: str) -> LogicalCounts | None:
        """Stored counts for a key, or ``None`` (missing/corrupt).

        Read-through cached like :meth:`get`: repeated lookups of one
        workload's counts within a process skip the disk after the
        first verified read.
        """
        self._check_hash(counts_key)
        cached = self._counts_cache.get(counts_key)
        if cached is not None:
            return cached
        document = self._read_document(self.counts_path_for(counts_key))
        if (
            document is None
            or document.get("schema") != COUNTS_SCHEMA
            or document.get("countsKey") != counts_key
            or not isinstance(document.get("counts"), dict)
        ):
            return None
        try:
            counts = LogicalCounts.from_dict(document["counts"])
        except (TypeError, ValueError):
            return None  # written by an incompatible (future) build
        self._counts_cache.put(counts_key, counts)
        return counts

    # -- optimize probe traces ---------------------------------------------

    def put_optimize(self, optimize_hash: str, trace: dict[str, Any]) -> bool:
        """Persist an adaptive search's probe-trace document.

        ``trace`` is the :mod:`repro.estimator.optimize` trace document
        (probed spec hashes + verdicts, and the answer once the search
        finishes), keyed by the
        :meth:`~repro.estimator.optimize.OptimizeSpec.content_hash` — an
        equivalent re-submission answers from this namespace without a
        single engine evaluation.
        """
        document = {
            "schema": OPTIMIZE_DOC_SCHEMA,
            "optimizeHash": optimize_hash,
            "trace": trace,
        }
        path = self.optimize_path_for(optimize_hash)
        ok = self._write_document(path, document)
        if ok:
            self._note_document_written(path)
        return ok

    def get_optimize(self, optimize_hash: str) -> dict[str, Any] | None:
        """A stored probe-trace document, or ``None`` (missing/corrupt)."""
        document = self._read_document(self.optimize_path_for(optimize_hash))
        if (
            document is None
            or document.get("schema") != OPTIMIZE_DOC_SCHEMA
            or document.get("optimizeHash") != optimize_hash
            or not isinstance(document.get("trace"), dict)
        ):
            return None
        return document["trace"]

    # -- observability -----------------------------------------------------

    def _namespace_bases(self) -> tuple[tuple[str, str, Path], ...]:
        """(key, schema tag, base directory) for every store namespace."""
        return (
            ("results", self.schema, self._base),
            ("sweeps", SWEEP_DOC_SCHEMA, self.root / SWEEP_DOC_SCHEMA),
            ("counts", COUNTS_SCHEMA, self.root / COUNTS_SCHEMA),
            ("queue", QUEUE_SCHEMA, self.root / QUEUE_SCHEMA),
            ("jobs", JOBS_SCHEMA, self.root / JOBS_SCHEMA),
            ("optimize", OPTIMIZE_DOC_SCHEMA, self.root / OPTIMIZE_DOC_SCHEMA),
        )

    def _scan_disk(self) -> dict[str, Any]:
        """One full directory walk: per-namespace tallies plus orphans.

        The only place ``stats`` touches the filesystem; callers go
        through the TTL cache. Increments :attr:`stats_walks` so tests
        (and operators) can assert the cache is doing its job.
        """
        self.stats_walks += 1
        namespaces: dict[str, Any] = {}
        for key, schema, base in self._namespace_bases():
            documents = 0
            size = 0
            if base.is_dir():
                for path in base.rglob("*.json"):
                    try:
                        size += path.stat().st_size
                    except OSError:
                        continue  # deleted underneath us; skip
                    documents += 1
            namespaces[key] = {
                "schema": schema,
                "documents": documents,
                "bytes": size,
            }
        orphan_files = 0
        orphan_bytes = 0
        for path in self._orphan_candidates():
            try:
                orphan_bytes += path.stat().st_size
            except OSError:
                continue
            orphan_files += 1
        return {
            "namespaces": namespaces,
            "orphans": {"files": orphan_files, "bytes": orphan_bytes},
        }

    def _invalidate_stats(self) -> None:
        """Drop the cached disk snapshot (this process changed the disk)."""
        with self._stats_lock:
            self._stats_snapshot = None

    def stats(self, *, refresh: bool = False) -> dict[str, Any]:
        """Per-namespace document counts and bytes (operator visibility).

        Covers the six namespaces this store reads and writes — results
        (under the configured schema tag), sweep results, the
        logical-counts cache, the sweep work queue, the job journal, and
        optimize probe traces — plus the orphaned-file tally (leftover
        ``.tmp`` files from crashed writers and ``.lease`` files from
        dead workers, the population ``gc`` reclaims). The underlying
        directory walk is O(files), so the scan is cached for
        ``stats_ttl`` seconds: within the TTL, repeated calls (metrics
        scrapes, health probes) do no filesystem work at all. Writes,
        eviction, and gc from *this* process invalidate the cache, so
        the only staleness the TTL can hide is other processes' writes;
        pass ``refresh=True`` to force a walk. The ``memoryCache`` and
        ``evictions`` sections are this process's in-memory counters,
        always current.
        """
        now = time.monotonic()
        with self._stats_lock:
            disk = self._stats_snapshot
            if (
                refresh
                or disk is None
                or now - self._stats_taken >= self.stats_ttl
            ):
                disk = self._scan_disk()
                self._stats_snapshot = disk
                self._stats_taken = now
            evictions = dict(self._evictions)
        return {
            "root": str(self.root),
            "namespaces": {
                key: dict(value) for key, value in disk["namespaces"].items()
            },
            "orphans": dict(disk["orphans"]),
            "evictions": evictions,
            "memoryCache": self.memory_cache_stats(),
        }

    def memory_cache_stats(self) -> dict[str, Any]:
        """This process's read-through LRU counters (satellite visibility).

        ``hits``/``misses`` count :meth:`get` / :meth:`get_counts` calls
        answered from (respectively, falling through) the in-memory
        cache; ``entries`` is the current resident population. Counters
        are per-``ResultStore`` instance, not persisted.
        """
        return {
            "capacity": self._result_cache.capacity,
            "results": self._result_cache.stats(),
            "counts": self._counts_cache.stats(),
        }

    def eviction_stats(self) -> dict[str, int]:
        """Cumulative eviction tallies (cheap: counters, never a walk)."""
        with self._stats_lock:
            return dict(self._evictions)

    # -- garbage collection ------------------------------------------------

    def _orphan_candidates(self) -> Iterator[Path]:
        """Files eligible for ``gc``: writer leftovers and lease litter.

        ``.tmp`` files are atomic-write staging that a crash stranded
        (a live writer's tmp file exists only for the microseconds
        between ``mkstemp`` and ``os.replace``); ``.lease`` files under
        the queue namespace belong to workers that stopped heartbeating;
        ``.stale-*`` are lease-takeover tombstones. None of them is ever
        read as data, so removing old ones can only reclaim disk.
        """
        if not self.root.is_dir():
            return
        yield from self.root.rglob("*.tmp")
        queue_base = self.root / QUEUE_SCHEMA
        if queue_base.is_dir():
            yield from queue_base.rglob("*.lease")
            yield from queue_base.rglob(".*.stale-*")

    def gc(
        self,
        *,
        older_than_s: float = 3600.0,
        future_skew_s: float = DEFAULT_GC_FUTURE_SKEW,
    ) -> dict[str, Any]:
        """Remove orphaned ``.tmp`` and expired lease files; report bytes.

        Only files aged at least ``older_than_s`` seconds are touched,
        so in-flight writes and live leases (which are rewritten on
        every heartbeat, keeping their mtime fresh) are never collected.

        Clock contract: age is the local wall clock minus the file's
        mtime, which on a shared (or NFS) store may have been stamped by
        a machine whose clock disagrees with ours. Two protections make
        the comparison skew-tolerant rather than trusting raw wall time:

        * a file whose mtime is *ahead* of our clock by up to
          ``future_skew_s`` is treated as fresh and spared — a writer
          running slightly ahead (or our clock stepping backwards
          between its write and this gc) must not get its live files
          reaped;
        * a file whose mtime is ahead by *more* than ``future_skew_s``
          cannot be live work (no writer runs that far in the future) —
          it is clock-skew litter, collected like any expired orphan
          instead of being immortal (the raw ``now - older_than``
          cutoff would never reach it).

        Files whose mtime appears *old* are indistinguishable from
        genuinely old ones, so the residual contract is on the caller:
        keep ``older_than_s`` larger than the worst clock disagreement
        between writers sharing the store (the 3600 s default dwarfs
        realistic NTP drift). Returns ``{"removedFiles",
        "reclaimedBytes"}``; an unremovable file is skipped, never an
        error — gc on a shared store must be safe to run at any time,
        from any process. Documents are never gc candidates, so the
        read-through memory caches stay coherent by construction.
        """
        now = time.time()
        older = max(older_than_s, 0.0)
        skew = max(future_skew_s, 0.0)
        removed = 0
        reclaimed = 0
        for path in list(self._orphan_candidates()):
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
        if removed:
            self._invalidate_stats()
        return {
            "removedFiles": removed,
            "reclaimedBytes": reclaimed,
            "olderThanSeconds": older_than_s,
        }

    # -- eviction (bounded disk) -------------------------------------------

    #: Namespace keys :meth:`evict` may prune. Queue chunk records,
    #: leases, and journal entries are deliberately absent: they are
    #: live coordination state for in-flight sweeps, not re-derivable
    #: cache documents — evicting them would orphan running work rather
    #: than reclaim disk.
    EVICTABLE_NAMESPACES = ("results", "sweeps", "counts", "optimize")

    def _note_document_written(self, path: Path) -> None:
        """Bookkeeping after a successful document write.

        Invalidates the cached stats snapshot and, when a ``max_bytes``
        budget is configured, grows the running byte estimate and
        triggers eviction past the budget. The estimate is an upper
        bound (idempotent rewrites double-count), which only makes
        eviction run early; :meth:`evict` recomputes the exact total.
        """
        size = 0
        if self.max_bytes is not None:
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
        self._note_batch_written(size)

    def _note_batch_written(self, size: int) -> None:
        """Coalesced bookkeeping for one or many document writes.

        One stats invalidation, one byte-estimate update of ``size``
        (the batch's total on-disk growth), and at most one eviction
        check — regardless of how many documents the batch contained.
        """
        self._invalidate_stats()
        if self.max_bytes is None:
            return
        if self._evictable_bytes is None:
            self.evict()  # first write under a budget: measure and prune
            return
        with self._stats_lock:
            self._evictable_bytes += size
            over = self._evictable_bytes > self.max_bytes
        if over:
            self.evict()

    def evict(self, *, max_bytes: int | None = None) -> dict[str, Any]:
        """Prune document namespaces, oldest mtime first, to a byte budget.

        ``max_bytes`` defaults to the store's configured budget. The
        evictable population is every document under
        :data:`EVICTABLE_NAMESPACES`; queue chunks, leases, and journal
        entries are never touched (see ``EVICTABLE_NAMESPACES``). The
        LRU order is mtime — documents are immutable, so mtime is the
        write time: the policy drops the longest-stored documents first.
        Matching read-through memory-cache entries are invalidated, so a
        ``get`` after eviction misses and recomputes instead of serving
        a document the disk no longer has. Safe and idempotent on a
        shared store: an unremovable (or concurrently removed) file is
        skipped, and every removal is an ordinary cache miss to other
        processes. Returns ``{"evictedFiles", "evictedBytes",
        "totalBytes", "remainingBytes", "maxBytes"}``; cumulative
        tallies appear under ``evictions`` in :meth:`stats`.
        """
        limit = max_bytes if max_bytes is not None else self.max_bytes
        if limit is None:
            raise ValueError(
                "evict() needs a byte budget: pass max_bytes or construct "
                "the store with max_bytes="
            )
        if limit < 0:
            raise ValueError(f"max_bytes must be >= 0, got {limit}")
        entries: list[tuple[float, int, Path, str]] = []
        total = 0
        for key, _, base in self._namespace_bases():
            if key not in self.EVICTABLE_NAMESPACES or not base.is_dir():
                continue
            for path in base.rglob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue  # removed underneath us
                entries.append((stat.st_mtime, stat.st_size, path, key))
                total += stat.st_size
        before = total
        evicted_files = 0
        evicted_bytes = 0
        if total > limit:
            # Deterministic order: oldest first, path as the tiebreak so
            # concurrent evictors on one store agree on the victims.
            entries.sort(key=lambda entry: (entry[0], str(entry[2])))
            for _, size, path, key in entries:
                if total <= limit:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue  # vanished or unremovable; skip
                total -= size
                evicted_files += 1
                evicted_bytes += size
                if key == "results":
                    self._result_cache.remove(path.stem)
                elif key == "counts":
                    self._counts_cache.remove(path.stem)
        with self._stats_lock:
            self._evictions["files"] += evicted_files
            self._evictions["bytes"] += evicted_bytes
            self._evictable_bytes = total
            if evicted_files:
                self._stats_snapshot = None
        return {
            "evictedFiles": evicted_files,
            "evictedBytes": evicted_bytes,
            "totalBytes": before,
            "remainingBytes": total,
            "maxBytes": limit,
        }
