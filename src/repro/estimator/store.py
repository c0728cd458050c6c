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
Each document kind lives in its own namespace, one directory per schema
tag under the root, and one table (``_NAMESPACES``) says how each is
filed and checked: its tag, the envelope field naming the document's
key, the field a read hands back, and whether eviction may prune it.
Entries live under ``<root>/<schema-tag>/<hh>/<key>.json`` where ``hh``
is the first two key hex digits (fan-out keeps directories small) —
results, sweep results (:data:`SWEEP_DOC_SCHEMA`), traced logical
counts keyed by resolved program content hash plus backend
(:data:`COUNTS_SCHEMA`, the cross-run counts cache layered under
:func:`~repro.estimator.spec.run_specs`), optimize probe traces, and
the sweep job journal alike. The schema tag versions the document
serialization: bumping :data:`RESULT_SCHEMA` (on any change to
``to_dict`` output or the document envelope) makes a new namespace, so
stale entries are never deserialized against new code — that is the
cache-invalidation story, no migration needed. :meth:`ResultStore.stats`
reports per-namespace document counts and bytes (the ``repro store
stats`` CLI subcommand) from a fresh directory walk on every call.

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


@dataclass(frozen=True)
class _Namespace:
    """How one store namespace files and checks its documents.

    ``id_field`` names the envelope field that must equal the key a
    document is filed under, ``payload_field`` the field a read hands
    back. ``evictable`` namespaces hold re-derivable cache documents;
    the others are live coordination state for in-flight sweeps, which
    eviction must never touch.
    """

    schema: str
    id_field: str | None
    payload_field: str | None
    evictable: bool


#: Every namespace under a store root, keyed as :meth:`ResultStore.stats`
#: reports them. The queue namespace is laid out per sweep job by
#: :mod:`repro.estimator.queue` rather than fanned out by key; it is here
#: for ``stats``, and so eviction knows to leave it alone.
_NAMESPACES: dict[str, _Namespace] = {
    "results": _Namespace(RESULT_SCHEMA, "specHash", "result", True),
    "sweeps": _Namespace(SWEEP_DOC_SCHEMA, "sweepHash", "result", True),
    "counts": _Namespace(COUNTS_SCHEMA, "countsKey", "counts", True),
    "queue": _Namespace(QUEUE_SCHEMA, None, None, False),
    "jobs": _Namespace(JOBS_SCHEMA, "jobId", "sweep", False),
    "optimize": _Namespace(OPTIMIZE_DOC_SCHEMA, "optimizeHash", "trace", True),
}


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


def _compact_json(document: dict[str, Any]) -> bytes:
    """The on-disk encoding of a document: compact separators, ASCII.

    Every byte of the file is significant, so corruption cannot hide in
    formatting. ``json.dumps``, not ``json.dump``: only ``dumps`` uses
    the C encoder; the bytes are the same.
    """
    return json.dumps(document, separators=(",", ":")).encode()


def read_document(path: Path) -> dict[str, Any] | None:
    """Parse and integrity-check one document file (miss on failure).

    The store's document envelope — digest-verified, corrupt-reads-as-
    miss — shared by every namespace under a store root.
    """
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


def write_document(
    path: Path, document: dict[str, Any], *, exclusive: bool = False
) -> bool:
    """Atomically persist a document with its digest; returns success.

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
            # First write into this directory (or the first since
            # clear/evict/gc emptied it): create it and retry. Asking the
            # filesystem on failure, instead of calling mkdir per write or
            # remembering known directories, costs nothing on the common
            # path and never goes stale.
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
    """

    #: Namespace keys :meth:`evict` may prune (see ``_NAMESPACES``).
    EVICTABLE_NAMESPACES = tuple(
        key for key, namespace in _NAMESPACES.items() if namespace.evictable
    )

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        schema: str = RESULT_SCHEMA,
        cache_size: int = DEFAULT_MEMORY_CACHE_SIZE,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(root) if root is not None else default_store_root()
        self.schema = schema
        self.max_bytes = max_bytes
        self._schemas = {key: entry.schema for key, entry in _NAMESPACES.items()}
        self._schemas["results"] = schema
        self._memory = {
            "results": _MemoryCache(cache_size),
            "counts": _MemoryCache(cache_size),
        }
        self._lock = threading.Lock()
        self._evictions = {"files": 0, "bytes": 0}
        # Running byte total of the evictable namespaces; None until the
        # first budget check scans it. Writes add their sizes (an upper
        # bound — idempotent rewrites double-count, which only makes the
        # next evict() run early; evict() recomputes the exact total).
        self._evictable_bytes: int | None = None

    # -- documents ---------------------------------------------------------

    @staticmethod
    def _check_hash(spec_hash: str) -> str:
        if not isinstance(spec_hash, str) or _HASH_RE.fullmatch(spec_hash) is None:
            raise ValueError(f"malformed spec hash {spec_hash!r}")
        return spec_hash

    def path_for(self, key: str, namespace: str = "results") -> Path:
        """Where the document for ``key`` in ``namespace`` lives (or would)."""
        self._check_hash(key)
        return self.root.joinpath(self._schemas[namespace], key[:2], f"{key}.json")

    def read(self, namespace: str, key: str) -> dict[str, Any] | None:
        """The verified document for ``key`` in ``namespace``, or ``None``.

        A missing, corrupt, or foreign file — or one whose schema tag or
        id field does not match — reads as a miss, never an error: a
        shared store directory must not be able to crash (or corrupt) a
        run.
        """
        document = read_document(self.path_for(key, namespace))
        if (
            document is None
            or document.get("schema") != self._schemas[namespace]
            or document.get(_NAMESPACES[namespace].id_field) != key
        ):
            return None
        return document

    def _payload(self, namespace: str, key: str) -> dict[str, Any] | None:
        """A verified document's payload object, or ``None``."""
        document = self.read(namespace, key)
        if document is None:
            return None
        payload = document.get(_NAMESPACES[namespace].payload_field)
        return payload if isinstance(payload, dict) else None

    def _write(
        self, namespace: str, entries: Iterable[tuple[str, dict[str, Any]]]
    ) -> int:
        """Persist ``(key, fields)`` documents; returns how many landed.

        Each document is ``{"schema", <id field>: key, **fields}`` plus
        its digest. An unwritable document is skipped — an unwritable
        store degrades to a no-op instead of failing the run that
        produced the data. The byte estimate and the eviction check run
        once per call, however many documents it writes.
        """
        id_field = _NAMESPACES[namespace].id_field
        written = 0
        batch_bytes = 0
        for key, fields in entries:
            path = self.path_for(key, namespace)
            document = {"schema": self._schemas[namespace], id_field: key, **fields}
            if write_document(path, document):
                written += 1
                if self.max_bytes is not None:
                    try:
                        batch_bytes += path.stat().st_size
                    except OSError:
                        pass
        if written and self.max_bytes is not None:
            if self._evictable_bytes is None:
                self.evict()  # first write under a budget: measure and prune
            else:
                with self._lock:
                    self._evictable_bytes += batch_bytes
                    over = self._evictable_bytes > self.max_bytes
                if over:
                    self.evict()
        return written

    # -- results -----------------------------------------------------------

    def get_raw(self, spec_hash: str) -> dict[str, Any] | None:
        """The stored document for a hash, or ``None`` (missing/corrupt).

        Result documents are ``{"schema": ..., "specHash": ..., "spec":
        ..., "result": {...}, "digest": ...}``; error documents carry
        ``"result": null`` and an ``"error"`` string instead. Anything
        else under the hash reads as a miss (see :meth:`read`).
        """
        document = self.read("results", spec_hash)
        if document is None:
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
        cached = self._memory["results"].get(spec_hash)
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
        self._memory["results"].put(spec_hash, entry)
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
        base = self.root / self.schema
        if not base.is_dir():
            return
        for path in sorted(base.glob("*/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

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
        return self.put_many([(spec_hash, result, spec)]) == 1

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
        caller already holds the ``to_dict()``). The byte-estimate growth
        and eviction check run once for the whole batch instead of once
        per point — the chunk-write path of
        :func:`repro.estimator.spec.run_specs` uses this so persistence
        bookkeeping stays off the per-point hot path. Returns the number
        of documents actually written (unwritable documents are skipped,
        matching :meth:`put`).
        """
        return self._write(
            "results",
            (
                (spec_hash, _result_fields(outcome, spec))
                for spec_hash, outcome, spec in entries
            ),
        )

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
        self._memory["results"].clear()
        return removed

    # -- sweep results, logical counts, optimize probe traces --------------

    def put_sweep(self, sweep_hash: str, result: dict[str, Any]) -> bool:
        """Persist a finished sweep's result document under its hash.

        ``result`` is a :meth:`repro.estimator.sweep.SweepResult.to_dict`
        document; the restarted estimation service re-serves finished
        sweeps from this namespace without recomputing anything.
        """
        return self._write("sweeps", [(sweep_hash, {"result": result})]) == 1

    def get_sweep(self, sweep_hash: str) -> dict[str, Any] | None:
        """A stored sweep result document, or ``None`` (missing/corrupt)."""
        return self._payload("sweeps", sweep_hash)

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
        fields = {"backend": backend, "counts": counts.to_dict()}
        return self._write("counts", [(counts_key, fields)]) == 1

    def get_counts(self, counts_key: str) -> LogicalCounts | None:
        """Stored counts for a key, or ``None`` (missing/corrupt).

        Read-through cached like :meth:`get`: repeated lookups of one
        workload's counts within a process skip the disk after the
        first verified read.
        """
        self._check_hash(counts_key)
        cached = self._memory["counts"].get(counts_key)
        if cached is not None:
            return cached
        payload = self._payload("counts", counts_key)
        if payload is None:
            return None
        try:
            counts = LogicalCounts.from_dict(payload)
        except (TypeError, ValueError):
            return None  # written by an incompatible (future) build
        self._memory["counts"].put(counts_key, counts)
        return counts

    def put_optimize(self, optimize_hash: str, trace: dict[str, Any]) -> bool:
        """Persist an adaptive search's probe-trace document.

        ``trace`` is the :mod:`repro.estimator.optimize` trace document
        (probed spec hashes + verdicts, and the answer once the search
        finishes), keyed by the
        :meth:`~repro.estimator.optimize.OptimizeSpec.content_hash` — an
        equivalent re-submission answers from this namespace without a
        single engine evaluation.
        """
        return self._write("optimize", [(optimize_hash, {"trace": trace})]) == 1

    def get_optimize(self, optimize_hash: str) -> dict[str, Any] | None:
        """A stored probe-trace document, or ``None`` (missing/corrupt)."""
        return self._payload("optimize", optimize_hash)

    # -- observability -----------------------------------------------------

    def _walk(self, keys: Iterable[str]) -> Iterator[tuple[str, Path, os.stat_result]]:
        """``(namespace key, path, stat)`` of every document under ``keys``."""
        for key in keys:
            base = self.root / self._schemas[key]
            if not base.is_dir():
                continue
            for path in base.rglob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue  # deleted underneath us; skip
                yield key, path, stat

    def stats(self) -> dict[str, Any]:
        """Per-namespace document counts and bytes (operator visibility).

        Covers every namespace in ``_NAMESPACES`` — results (under the
        configured schema tag), sweep results, the logical-counts cache,
        the sweep work queue, the job journal, and optimize probe traces
        — plus the orphaned-file tally (leftover ``.tmp`` files from
        crashed writers and ``.lease`` files from dead workers, the
        population ``gc`` reclaims). Each call walks the store, O(files);
        a caller that polls caches the result (the service's metrics
        providers refresh once per ``metrics_ttl``). The ``memoryCache``
        and ``evictions`` sections are this process's in-memory counters.
        """
        namespaces = {
            key: {"schema": self._schemas[key], "documents": 0, "bytes": 0}
            for key in _NAMESPACES
        }
        for key, _, stat in self._walk(_NAMESPACES):
            namespaces[key]["documents"] += 1
            namespaces[key]["bytes"] += stat.st_size
        orphans = {"files": 0, "bytes": 0}
        for path in self._orphan_candidates():
            try:
                orphans["bytes"] += path.stat().st_size
            except OSError:
                continue
            orphans["files"] += 1
        return {
            "root": str(self.root),
            "namespaces": namespaces,
            "orphans": orphans,
            "evictions": self.eviction_stats(),
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
            "capacity": self._memory["results"].capacity,
            "results": self._memory["results"].stats(),
            "counts": self._memory["counts"].stats(),
        }

    def eviction_stats(self) -> dict[str, int]:
        """Cumulative eviction tallies (cheap: counters, never a walk)."""
        with self._lock:
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

    def _finished_queue_jobs(self) -> Iterator[Path]:
        """Queue directories of jobs that are over.

        A job is over when its journal says ``finished`` and its sweep
        document is stored: the document answers every re-run, so the
        per-chunk records (which repeat its outcomes) are litter. A job
        whose sweep document was evicted keeps its records — its done
        chunks still rebuild the document without re-evaluating.
        """
        queue_base = self.root / QUEUE_SCHEMA
        if not queue_base.is_dir():
            return
        for job_dir in sorted(queue_base.iterdir()):
            job_id = job_dir.name
            if not (job_dir.is_dir() and _HASH_RE.fullmatch(job_id)):
                continue
            journal = self.read("jobs", job_id)
            if (
                journal is not None
                and journal.get("status") == "finished"
                and self.read("sweeps", job_id) is not None
            ):
                yield job_dir

    def gc(
        self,
        *,
        older_than_s: float = 3600.0,
        future_skew_s: float = DEFAULT_GC_FUTURE_SKEW,
    ) -> dict[str, Any]:
        """Remove orphaned ``.tmp`` and expired lease files, plus the
        chunk and done records of finished queue jobs; report bytes.

        Only files aged at least ``older_than_s`` seconds are touched,
        so in-flight writes and live leases (which are rewritten on
        every heartbeat, keeping their mtime fresh) are never collected.
        Queue records are collected only for a job whose journal is
        ``finished`` and whose sweep document is stored (see
        ``_finished_queue_jobs``); their emptied directories go too.

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
        from any process. Cache documents are never gc candidates, so
        the read-through memory caches stay coherent by construction.
        """
        now = time.time()
        older = max(older_than_s, 0.0)
        skew = max(future_skew_s, 0.0)
        removed = 0
        reclaimed = 0
        finished = list(self._finished_queue_jobs())
        candidates = list(self._orphan_candidates())
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

    # -- eviction (bounded disk) -------------------------------------------

    def evict(self, *, max_bytes: int | None = None) -> dict[str, Any]:
        """Prune document namespaces, oldest mtime first, to a byte budget.

        ``max_bytes`` defaults to the store's configured budget. The
        evictable population is every document under
        :data:`EVICTABLE_NAMESPACES`; queue chunks, leases, and journal
        entries are live coordination state for in-flight sweeps, not
        re-derivable cache documents, and are never touched. The
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
        entries = [
            (stat.st_mtime, stat.st_size, path, key)
            for key, path, stat in self._walk(self.EVICTABLE_NAMESPACES)
        ]
        total = before = sum(entry[1] for entry in entries)
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
                if key in self._memory:
                    self._memory[key].remove(path.stem)
        with self._lock:
            self._evictions["files"] += evicted_files
            self._evictions["bytes"] += evicted_bytes
            self._evictable_bytes = total
        return {
            "evictedFiles": evicted_files,
            "evictedBytes": evicted_bytes,
            "totalBytes": before,
            "remainingBytes": total,
            "maxBytes": limit,
        }


def _result_fields(
    outcome: PhysicalResourceEstimates | StoredOutcome, spec: dict[str, Any] | None
) -> dict[str, Any]:
    """The fields of one result or error document after its schema and hash."""
    if not isinstance(outcome, StoredOutcome):
        outcome = StoredOutcome(outcome, outcome.to_dict(), None)
    if (outcome.result_dict is None) == (outcome.error is None):
        raise ValueError("a stored outcome needs exactly one of a result or an error")
    fields = {"spec": spec, "result": outcome.result_dict}
    if outcome.error is not None:
        fields["error"] = outcome.error
    return fields
