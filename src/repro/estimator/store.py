"""Content-addressed persistent result store.

Every estimation result can be addressed by the content hash of the
:class:`~repro.estimator.spec.EstimateSpec` that produced it — estimation
is deterministic, so the spec hash *is* the result identity. That holds
for infeasibility too: a spec whose estimate fails (no T factory meets
the budget, a constraint cannot be met) fails the same way every time.
The store keeps one JSON document per hash — either the result or, for
an infeasible point, an *error document* — which buys three things the
in-memory :class:`~repro.estimator.batch.EstimateCache` cannot:

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
A result document is ``{"schema", "specHash", "spec", "result"}``; an
error document is ``{"schema", "specHash", "spec", "result": null,
"error"}``, written only for estimation failures
(:class:`~repro.estimator.stages.EstimationError`). Invalid specs —
unknown names, malformed definitions — never reach the store: they have
no resolved hash to file under. A hit on an error document answers with
the same error the estimator would raise.

Layout
------
One table (``_NAMESPACES``) names every document kind the store caches
— results, sweep results (:data:`SWEEP_DOC_SCHEMA`), traced logical
counts keyed by resolved program content hash plus backend
(:data:`COUNTS_SCHEMA`, the cross-run counts cache layered under
:func:`~repro.estimator.spec.run_specs`) and optimize probe traces —
with the envelope field naming a document's key and the field a read
hands back. Each is one table, named by its schema tag, in one SQLite
database per root, ``<root>/``:data:`DATABASE_NAME`. A row is ``(key,
digest, size, written_at, body)``: ``body`` is the document's compact
JSON, ``digest`` the SHA-256 of those bytes, ``size`` their length.
A finished sweep's row is the same compact envelope with the sweep's
indented ``--json`` text as its ``result`` value
(:meth:`ResultStore.put_sweep`), so a rerun prints the stored text
instead of encoding the document again (:meth:`ResultStore.sweep_row`).
The schema tag versions the document serialization: bumping
:data:`RESULT_SCHEMA` (on any change to ``to_dict`` output or the
document envelope) makes a new table, so stale entries are never
deserialized against new code — no migration needed. The database file
name versions the layout itself: a root written by the earlier
file-per-document layout has no database and reads as empty.

WAL mode lets many processes read while one writes, through a
shared-memory file next to the database, so the root must be on a local
filesystem, not NFS. Each write call commits one transaction: a crash
never leaves a torn row, and rewriting the same hash is idempotent.
Every read passes one row check (:meth:`ResultStore._verify`): the
digest, the JSON, the document's schema tag and key, and for results
the result-or-error shape. A corrupt, truncated, bit-flipped or foreign
row reads as a miss — a damaged store heals by recomputation, it never
serves a mangled result. :meth:`ResultStore.lookup_many` reads a batch
of results with one query per :data:`_QUERY_KEYS` hashes.

The same database holds the sweep work queue's two tables, the job
journal (:data:`JOBS_SCHEMA`) and the chunk leases
(:data:`QUEUE_SCHEMA`). They are live coordination state, not cache:
:mod:`repro.estimator.queue` reads and writes them, and this module
only creates them. :meth:`ResultStore.stats` reports per-namespace row
counts and body bytes, the queue's tables included (the ``repro store
stats`` CLI subcommand), with one query. The store writes no file but
its database.

Bounded disk
------------
A store grows without bound by default — every distinct spec hash adds
a row. :meth:`ResultStore.evict` (the ``repro store evict`` CLI) deletes
rows oldest ``written_at`` first until the stored body bytes fit a
budget, and a store constructed with ``max_bytes=`` enforces that budget
automatically as it writes: a write that takes the store past its
budget prunes it to :data:`EVICTION_HEADROOM` below, so the next
eviction scan waits until that share of the budget has been written
again. Reads never touch ``written_at``, so the order is write time.
Eviction never touches the queue or the journal: evicting them could
orphan a running sweep. An evicted document is simply a future cache
miss: the store heals by recomputation, exactly like a corrupt row.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from ..counts import LogicalCounts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .result import PhysicalResourceEstimates

__all__ = [
    "COUNTS_SCHEMA",
    "DATABASE_NAME",
    "DEFAULT_MEMORY_CACHE_SIZE",
    "JOBS_SCHEMA",
    "OPTIMIZE_DOC_SCHEMA",
    "QUEUE_SCHEMA",
    "RESULT_SCHEMA",
    "SWEEP_DOC_SCHEMA",
    "ResultStore",
    "StoredOutcome",
    "default_store_root",
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

#: Version tag (and table name) of the sweep work queue: one row per
#: (job, chunk) with its lease owner and deadline and whether it is
#: done, so N worker processes drain one sweep cooperatively (see
#: :mod:`repro.estimator.queue`). v1 was a directory of files.
QUEUE_SCHEMA = "repro-queue-v2"

#: Version tag (and table name) of the persistent job journal: one row
#: per submitted sweep job, so in-flight sweeps are rediscovered (and
#: resumed) after a worker or service restart. v1 was a directory of
#: files.
JOBS_SCHEMA = "repro-jobs-v2"

#: Version tag (and namespace) of optimize probe-trace documents: one
#: per :class:`~repro.estimator.optimize.OptimizeSpec` content hash,
#: recording every probed spec hash and its verdict, so an interrupted
#: adaptive search resumes bit-for-bit and an equivalent re-submission
#: answers from the store with zero evaluations (see
#: :mod:`repro.estimator.optimize`).
OPTIMIZE_DOC_SCHEMA = "repro-optimize-v1"

#: File name of the database under a store root. The name versions the
#: storage layout: a root written by another layout reads as empty.
DATABASE_NAME = "repro-store-v1.sqlite3"

#: Connection settings, fixed: commits skip the fsync (WAL keeps every
#: commit atomic; a power cut can lose the last few, which a cache
#: recomputes), a writer waits up to this long for another process's
#: write lock before skipping its write, and the page cache stays at
#: 256 KiB — a read-mostly key lookup gains nothing from SQLite's 2 MiB
#: default, and every connection would pay for it in RSS.
_BUSY_TIMEOUT_S = 10.0
_PRAGMAS = (
    "PRAGMA journal_mode=WAL",
    "PRAGMA synchronous=NORMAL",
    "PRAGMA cache_size=-256",
)

#: Row layout of every namespace table. ``body`` comes last, so queries
#: over the small columns (stats, eviction) never read a body's pages.
_COLUMNS = (
    "key TEXT PRIMARY KEY, digest TEXT NOT NULL, size INTEGER NOT NULL, "
    "written_at REAL NOT NULL, body BLOB NOT NULL"
)

#: The queue's tables (see :mod:`repro.estimator.queue`): the journal's
#: ``digest`` is the SHA-256 of ``body``, the job's sweep document; a
#: chunk's ``ok``/``failed`` count its points once it is ``done``.
_QUEUE_TABLES = {
    "jobs": (
        JOBS_SCHEMA,
        "key TEXT PRIMARY KEY, digest TEXT NOT NULL, size INTEGER NOT NULL, "
        "chunk_size INTEGER NOT NULL, num_chunks INTEGER NOT NULL, "
        "total_points INTEGER NOT NULL, status TEXT NOT NULL, body BLOB NOT NULL",
    ),
    "queue": (
        QUEUE_SCHEMA,
        "job TEXT NOT NULL, chunk INTEGER NOT NULL, owner TEXT, deadline REAL, "
        "done INTEGER NOT NULL DEFAULT 0, ok INTEGER NOT NULL DEFAULT 0, "
        "failed INTEGER NOT NULL DEFAULT 0, PRIMARY KEY (job, chunk)",
    ),
}

#: Default capacity of the in-process read-through LRU in front of
#: :meth:`ResultStore.get` and :meth:`ResultStore.get_counts`. Adaptive
#: searches re-probe neighboring points many times within one process;
#: the memory cache stops them re-reading and re-parsing the same JSON
#: documents. Entries are content-addressed and immutable, so a cached
#: document can never go stale; only documents that passed the
#: integrity digest on a real database read are ever cached.
DEFAULT_MEMORY_CACHE_SIZE = 256

#: The share of ``max_bytes`` an automatic eviction frees below the
#: budget. Pruning to exactly the budget would rerun the full scan, sort
#: and WAL checkpoint on every later write; this headroom runs them once
#: per that many bytes written.
EVICTION_HEADROOM = 0.25

#: Most keys one ``IN (...)`` query binds: under SQLite's host-parameter
#: limit (999 before SQLite 3.32), so a lookup of any size splits into
#: queries every build accepts.
_QUERY_KEYS = 900

#: Characters of sweep text encoded, hashed and written at a time: a
#: sweep row never exists as a second whole copy in memory.
_SLICE_CHARS = 1 << 18

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "REPRO_STORE_DIR"

#: A well-formed store key: lowercase hex, nothing else (no path parts).
_HASH_RE = re.compile(r"[0-9a-f]+")


@dataclass(frozen=True)
class _Namespace:
    """How one cache namespace files and checks its documents.

    ``id_field`` names the envelope field that must equal the key a
    document is filed under, ``payload_field`` the field a read hands
    back.
    """

    schema: str
    id_field: str
    payload_field: str


#: Every database namespace, keyed as :meth:`ResultStore.stats` reports
#: them. All of them are re-derivable cache, so all are evictable.
_NAMESPACES: dict[str, _Namespace] = {
    "results": _Namespace(RESULT_SCHEMA, "specHash", "result"),
    "sweeps": _Namespace(SWEEP_DOC_SCHEMA, "sweepHash", "result"),
    "counts": _Namespace(COUNTS_SCHEMA, "countsKey", "counts"),
    "optimize": _Namespace(OPTIMIZE_DOC_SCHEMA, "optimizeHash", "trace"),
}


def default_store_root() -> Path:
    """``$REPRO_STORE_DIR`` or ``~/.cache/repro/store``."""
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "store"


def _compact_json(document: dict[str, Any]) -> bytes:
    """The stored encoding of a document: compact separators, ASCII.

    Every byte is significant, so corruption cannot hide in formatting.
    ``json.dumps``, not ``json.dump``: only ``dumps`` uses the C
    encoder; the bytes are the same.
    """
    return json.dumps(document, separators=(",", ":")).encode()


def _table(schema: str) -> str:
    """A schema tag as a quoted SQL table name."""
    return '"' + schema.replace('"', '""') + '"'


#: The queue's tables as quoted SQL names.
JOBS_TABLE = _table(JOBS_SCHEMA)
CHUNKS_TABLE = _table(QUEUE_SCHEMA)


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

    Populated only from *successful database reads* — never from
    writes — so every cached value passed the integrity digest at least
    once in this process, and the corruption contract (a damaged row
    reads as a miss) is preserved for entries that were never read
    back. Cached values are frozen (:class:`StoredOutcome`,
    :class:`LogicalCounts`), safe to hand out shared.
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
        :func:`default_store_root`. Multiple processes may share a root
        on a local filesystem — each write is one transaction and
        entries are immutable (same hash, same bytes).
    schema:
        Result-document schema tag; entries written under a different tag
        are invisible. Override only in tests.
    cache_size:
        Capacity of the in-process read-through LRU in front of
        :meth:`get` and :meth:`get_counts` (per namespace). ``0``
        disables memory caching; every read goes to the database.
    max_bytes:
        Budget for the stored body bytes of every namespace. When set,
        every write checks a running byte estimate and, past the budget,
        evicts down to :data:`EVICTION_HEADROOM` below it, so the store
        stays bounded across arbitrarily large sweeps. ``None``
        (default) disables automatic eviction.

    One connection per process serves every thread, under the store's
    lock. It opens on first use, and again in a forked child: a
    connection must never cross a fork.
    """

    #: Namespace keys :meth:`evict` may prune (see ``_NAMESPACES``).
    EVICTABLE_NAMESPACES = tuple(_NAMESPACES)

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
        self.database = self.root / DATABASE_NAME
        self.schema = schema
        self.max_bytes = max_bytes
        self._schemas = {key: entry.schema for key, entry in _NAMESPACES.items()}
        self._schemas["results"] = schema
        self._tables = {key: _table(tag) for key, tag in self._schemas.items()}
        self._memory = {
            "results": _MemoryCache(cache_size),
            "counts": _MemoryCache(cache_size),
        }
        self._lock = threading.Lock()
        self._db: Any = None  # sqlite3.Connection, opened by _connection()
        self._pid = os.getpid()
        self._inherited: Any = None
        self._evictions = {"documents": 0, "bytes": 0}
        # Running byte total of the stored bodies; None until the first
        # budget check measures it. Writes add their sizes (an upper
        # bound — idempotent rewrites double-count, which only makes the
        # next evict() run early; evict() recomputes the exact total).
        self._evictable_bytes: int | None = None

    # -- database ----------------------------------------------------------

    @contextmanager
    def _database(self, *, create: bool = False) -> Iterator[Any]:
        """This process's connection under the store lock, or ``None``.

        ``None`` when there is no database yet (unless ``create``) or it
        cannot be opened. A database error inside the block ends it
        quietly, so a damaged or foreign file reads as misses and an
        unwritable one skips writes: a shared store must not be able to
        crash a run.
        """
        if self._pid != os.getpid():
            # A forked child: the parent's connection is not this
            # process's to use, or even to close — closing would touch
            # the parent's WAL state. Keep it referenced, never used.
            self._inherited, self._db = self._db, None
            self._lock = threading.Lock()
            self._pid = os.getpid()
        with self._lock:
            db = self._connection(create)
            if db is None:
                yield None
                return
            import sqlite3  # loaded by _connection

            try:
                yield db
            except sqlite3.DatabaseError:
                pass

    def _connection(self, create: bool) -> Any:
        """Open (once) and return the connection; ``None`` on failure."""
        if self._db is not None:
            return self._db
        if not create and not self.database.is_file():
            return None
        import sqlite3

        db = None
        try:
            if create:
                self.root.mkdir(parents=True, exist_ok=True)
            db = sqlite3.connect(
                self.database, timeout=_BUSY_TIMEOUT_S, check_same_thread=False
            )
            for statement in _PRAGMAS:
                db.execute(statement)
            for table in self._tables.values():
                db.execute(f"CREATE TABLE IF NOT EXISTS {table} ({_COLUMNS})")
            for schema, columns in _QUEUE_TABLES.values():
                db.execute(f"CREATE TABLE IF NOT EXISTS {_table(schema)} ({columns})")
        except (OSError, sqlite3.DatabaseError):
            if db is not None:
                db.close()
            return None
        self._db = db
        return db

    def close(self) -> None:
        """Close this process's connection; the next use reopens it."""
        with self._lock:
            if self._db is not None and self._pid == os.getpid():
                self._db.close()
            self._db = None

    def _union(self, columns: str) -> str:
        """One query over every namespace table, tagged by namespace."""
        return " UNION ALL ".join(
            f"SELECT '{key}' AS namespace, {columns} FROM {table}"
            for key, table in self._tables.items()
        )

    # -- documents ---------------------------------------------------------

    @staticmethod
    def _check_hash(spec_hash: str) -> str:
        if not isinstance(spec_hash, str) or _HASH_RE.fullmatch(spec_hash) is None:
            raise ValueError(f"malformed spec hash {spec_hash!r}")
        return spec_hash

    def read(self, namespace: str, key: str) -> dict[str, Any] | None:
        """The verified document for ``key`` in ``namespace``, or ``None``.

        The document carries its row's ``digest``. A missing, corrupt,
        or foreign row — or one whose schema tag or id field does not
        match — reads as a miss, never an error: a shared store must not
        be able to crash (or corrupt) a run (see :meth:`_verify`).
        """
        self._check_hash(key)
        return self._verify(namespace, key, self._rows(namespace, [key]).get(key))

    def _rows(self, namespace: str, keys: list[str]) -> dict[str, tuple[Any, Any]]:
        """``key -> (digest, body)`` of the stored rows among ``keys``.

        One ``SELECT ... WHERE key IN (...)`` per :data:`_QUERY_KEYS`
        keys, all under one hold of the connection.
        """
        rows: dict[str, tuple[Any, Any]] = {}
        with self._database() as db:
            if db is not None:
                table = self._tables[namespace]
                for start in range(0, len(keys), _QUERY_KEYS):
                    batch = keys[start : start + _QUERY_KEYS]
                    query = (
                        f"SELECT key, digest, body FROM {table} "
                        f"WHERE key IN ({','.join('?' * len(batch))})"
                    )
                    for key, digest, body in db.execute(query, batch):
                        rows[key] = (digest, body)
        return rows

    def _verify(
        self, namespace: str, key: str, row: tuple[Any, Any] | None
    ) -> dict[str, Any] | None:
        """The one check every database read passes: the verified
        document of a ``(digest, body)`` row, or ``None``.

        The body must hash to the digest and parse as a JSON object
        carrying the namespace's schema tag and ``key`` in its id field.
        A result-namespace document must also hold either a result
        object or, with ``result: null``, a non-empty ``error`` string.
        """
        if row is None:
            return None
        digest, body = row
        if not isinstance(body, bytes) or hashlib.sha256(body).hexdigest() != digest:
            return None
        try:
            document = json.loads(body)
        except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
            return None
        if (
            not isinstance(document, dict)
            or document.get("schema") != self._schemas[namespace]
            or document.get(_NAMESPACES[namespace].id_field) != key
        ):
            return None
        if namespace == "results":
            result, error = document.get("result"), document.get("error")
            if not (
                (isinstance(result, dict) and error is None)
                or (result is None and isinstance(error, str) and error)
            ):
                return None
        document["digest"] = digest
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

        Each document is ``{"schema", <id field>: key, **fields}``, all
        committed in one transaction. A write that fails is skipped — an
        unwritable store degrades to a no-op instead of failing the run
        that produced the data. The byte estimate and the eviction check
        run once per call, however many documents it writes.
        """
        schema = self._schemas[namespace]
        id_field = _NAMESPACES[namespace].id_field
        now = time.time()
        rows = []
        for key, fields in entries:
            self._check_hash(key)
            body = _compact_json({"schema": schema, id_field: key, **fields})
            rows.append((key, hashlib.sha256(body).hexdigest(), len(body), now, body))
        written = 0
        if rows:
            with self._database(create=True) as db:
                if db is not None:
                    with db:  # one transaction: commit, or roll back on error
                        db.executemany(
                            f"INSERT OR REPLACE INTO {self._tables[namespace]} "
                            "(key, digest, size, written_at, body) VALUES (?, ?, ?, ?, ?)",
                            rows,
                        )
                    written = len(rows)
        if written:
            self._account(sum(row[2] for row in rows))
        return written

    def _account(self, size: int) -> None:
        """Add ``size`` written bytes to the running total; past a
        ``max_bytes`` budget, evict to :data:`EVICTION_HEADROOM` below it."""
        if self.max_bytes is None:
            return
        with self._lock:
            if self._evictable_bytes is not None:
                self._evictable_bytes += size
            # The first write under a budget measures the store.
            total = self._evictable_bytes
            over = total is None or total > self.max_bytes
        if over:
            low_water = int(self.max_bytes * (1 - EVICTION_HEADROOM))
            self._evict(self.max_bytes, low_water)

    # -- results -----------------------------------------------------------

    def get_raw(self, spec_hash: str) -> dict[str, Any] | None:
        """The stored document for a hash, or ``None`` (missing/corrupt).

        Result documents are ``{"schema": ..., "specHash": ..., "spec":
        ..., "result": {...}, "digest": ...}``; error documents carry
        ``"result": null`` and an ``"error"`` string instead. Anything
        else under the hash reads as a miss (see :meth:`read`).
        """
        return self.read("results", spec_hash)

    def lookup(self, spec_hash: str) -> StoredOutcome | None:
        """The stored outcome for a hash — estimate or error — or ``None``.

        One key of :meth:`lookup_many`.
        """
        return self.lookup_many([spec_hash])[0]

    def lookup_many(self, spec_hashes: Sequence[str]) -> list[StoredOutcome | None]:
        """The stored outcome of each hash, in order — or ``None`` for a miss.

        Hashes resident in the bounded in-memory LRU answer from it
        (populated only by verified reads — see :class:`_MemoryCache`;
        hit counts appear under ``memoryCache`` in :meth:`stats`); the
        rest are read with one query per :data:`_QUERY_KEYS` hashes and
        pass :meth:`_verify`. A result document is decoded once with
        :meth:`PhysicalResourceEstimates.from_dict`; one that fails to
        decode (written by an incompatible build) reads as a miss. A hash
        repeated in ``spec_hashes`` is looked up (and counted) once and
        answers every position with the same outcome.
        """
        keys = [self._check_hash(spec_hash) for spec_hash in spec_hashes]
        memory = self._memory["results"]
        found = {key: memory.get(key) for key in dict.fromkeys(keys)}
        missing = [key for key, entry in found.items() if entry is None]
        if missing:
            rows = self._rows("results", missing)
            for key in missing:
                found[key] = self._decoded(key, self._verify("results", key, rows.get(key)))
        return [found[key] for key in keys]

    def _decoded(
        self, spec_hash: str, document: dict[str, Any] | None
    ) -> StoredOutcome | None:
        """A verified result or error document as an outcome, admitted to
        the memory cache; ``None`` when it is ``None`` or fails to decode."""
        if document is None:
            return None
        result_dict = document["result"]
        if result_dict is None:
            entry = StoredOutcome(None, None, document["error"])
        else:
            from .result import PhysicalResourceEstimates

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
        """Hashes currently stored under this schema tag, sorted."""
        rows = []
        with self._database() as db:
            if db is not None:
                rows = db.execute(
                    f"SELECT key FROM {self._tables['results']} ORDER BY key"
                ).fetchall()
        return iter([key for key, in rows])

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def put(
        self,
        spec_hash: str,
        result: PhysicalResourceEstimates,
        *,
        spec: dict[str, Any] | None = None,
    ) -> bool:
        """Persist a result document; returns success.

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
        """Persist many result or error documents in one transaction.

        Each entry is ``(spec_hash, outcome, spec)``. ``outcome`` is a
        result, or a :class:`StoredOutcome` — an error document when its
        ``error`` is set, otherwise its ``result_dict`` written as is (the
        caller already holds the ``to_dict()``). The byte-estimate growth
        and eviction check run once for the whole batch instead of once
        per point — the chunk-write path of
        :func:`repro.estimator.spec.run_specs` uses this so persistence
        bookkeeping stays off the per-point hot path. Returns the number
        of documents actually written (0 when the write fails, matching
        :meth:`put`).
        """
        return self._write(
            "results",
            (
                (spec_hash, _result_fields(outcome, spec))
                for spec_hash, outcome, spec in entries
            ),
        )

    def clear(self) -> int:
        """Remove every entry under this schema tag; returns the count."""
        removed = 0
        with self._database() as db:
            if db is not None:
                with db:
                    removed = db.execute(f"DELETE FROM {self._tables['results']}").rowcount
        self._memory["results"].clear()
        return removed

    # -- sweep results, logical counts, optimize probe traces --------------

    def _sweep_prefix(self, sweep_hash: str) -> bytes:
        """The body bytes of a sweep row up to its ``result`` value."""
        envelope = {"schema": self._schemas["sweeps"], "sweepHash": sweep_hash}
        return _compact_json(envelope)[:-1] + b',"result":'

    def _latest_result(self, db: Any, point_hashes: Sequence[str]) -> float | None:
        """The newest ``written_at`` of any of these points' result
        documents (``None`` when none is stored); one query per
        :data:`_QUERY_KEYS` hashes."""
        keys = list(dict.fromkeys(point_hashes))
        latest = None
        for start in range(0, len(keys), _QUERY_KEYS):
            batch = keys[start : start + _QUERY_KEYS]
            (newest,) = db.execute(
                f"SELECT MAX(written_at) FROM {self._tables['results']} "
                f"WHERE key IN ({','.join('?' * len(batch))})",
                batch,
            ).fetchone()
            if newest is not None and (latest is None or newest > latest):
                latest = newest
        return latest

    def put_sweep(
        self, sweep_hash: str, text: str, point_hashes: Sequence[str] = ()
    ) -> bool:
        """Persist a finished sweep under its hash; returns success.

        ``text`` is the sweep's indented ``--json`` text
        (:meth:`repro.estimator.sweep.SweepResult.to_json`), and becomes
        the ``result`` value of the row's compact envelope, byte for byte,
        so :meth:`sweep_row` can hand it back verbatim. The body is
        hashed, then written in slices through SQLite's incremental blob
        I/O, so a sweep of many megabytes never exists as a second whole
        copy in memory. Like :meth:`put`, an unwritable store degrades to
        a no-op (``False``).

        The row's ``written_at`` is never older than the result documents
        of ``point_hashes`` (the points it was assembled from), whatever
        the clocks of the processes that wrote them say, so
        :meth:`sweep_row` never finds it stale against its own points.
        """
        prefix = self._sweep_prefix(self._check_hash(sweep_hash))

        def parts() -> Iterator[bytes]:
            yield prefix
            for start in range(0, len(text), _SLICE_CHARS):
                yield text[start : start + _SLICE_CHARS].encode()
            yield b"}"

        digest = hashlib.sha256()
        size = 0
        for part in parts():
            digest.update(part)
            size += len(part)
        written = False
        with self._database(create=True) as db:
            if db is not None:
                with db:  # one transaction: commit, or roll back on error
                    latest = self._latest_result(db, point_hashes)
                    now = time.time()
                    rowid = db.execute(
                        f"INSERT OR REPLACE INTO {self._tables['sweeps']} "
                        "(key, digest, size, written_at, body) "
                        "VALUES (?, ?, ?, ?, zeroblob(?))",
                        (
                            sweep_hash,
                            digest.hexdigest(),
                            size,
                            now if latest is None else max(now, latest),
                            size,
                        ),
                    ).lastrowid
                    with db.blobopen(self._schemas["sweeps"], "body", rowid) as blob:
                        for part in parts():
                            blob.write(part)
                written = True
        if written:
            self._account(size)
        return written

    def sweep_row(
        self, sweep_hash: str, point_hashes: Sequence[str] = ()
    ) -> tuple[dict[str, Any], str | None] | None:
        """A stored sweep's document and its ``--json`` text, or ``None``.

        One row read and :meth:`_verify`. The per-point result documents
        stay the source of truth and the row their assembled copy: once
        any of ``point_hashes`` has a result document written after the
        row (a point healed, replaced or recomputed since), the row is
        stale and reads as a miss. That check reads only the points'
        ``written_at``, one query per :data:`_QUERY_KEYS` hashes;
        :meth:`put_sweep` stamps a row no older than the points it was
        built from, so clock skew between writers cannot make a fresh
        row stale.

        The text is the row's ``result`` value exactly as
        :meth:`put_sweep` wrote it: the indented object between the
        envelope prefix and the final ``}``, with no other field. It is
        ``None`` for a row in any other layout, such as the compact
        document earlier builds wrote; the caller then encodes the
        document itself.
        """
        key = self._check_hash(sweep_hash)
        row = None
        with self._database() as db:
            if db is not None:
                found = db.execute(
                    f"SELECT digest, body, written_at FROM {self._tables['sweeps']} "
                    "WHERE key = ?",
                    (key,),
                ).fetchone()
                if found is not None:
                    latest = self._latest_result(db, point_hashes)
                    if latest is None or latest <= found[2]:
                        row = found[:2]
        document = self._verify("sweeps", key, row)
        payload = document.get("result") if document is not None else None
        if not isinstance(payload, dict):
            return None
        body = row[1]
        prefix = self._sweep_prefix(key)
        text = None
        if (
            len(document) == 4  # schema, sweepHash, result, digest
            and body.startswith(prefix + b'{\n  "')
            and body.endswith(b"\n}}")
        ):
            try:
                text = str(memoryview(body)[len(prefix) : -1], "ascii")
            except UnicodeDecodeError:
                pass
        return payload, text

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
        workload's counts within a process skip the database after the
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

    def stats(self) -> dict[str, Any]:
        """Per-namespace row counts and bytes (operator visibility).

        One query over every table: the cache namespaces — results
        (under the configured schema tag), sweep results, the
        logical-counts cache, optimize probe traces — whose ``bytes``
        count stored bodies, the job journal (``jobs``, its sweep
        documents' bytes) and the queue's chunk rows (``queue``, no
        body, so 0 bytes). A caller that polls caches the result (the
        service's metrics providers refresh once per ``metrics_ttl``).
        The ``memoryCache`` and ``evictions`` sections are this
        process's in-memory counters.
        """
        schemas = dict(self._schemas)
        schemas.update((key, schema) for key, (schema, _) in _QUEUE_TABLES.items())
        namespaces = {
            key: {"schema": schema, "documents": 0, "bytes": 0}
            for key, schema in schemas.items()
        }
        rows = []
        with self._database() as db:
            if db is not None:
                rows = db.execute(
                    "SELECT namespace, COUNT(*), SUM(size) FROM ("
                    f"{self._union('size')} "
                    f"UNION ALL SELECT 'jobs', size FROM {JOBS_TABLE} "
                    f"UNION ALL SELECT 'queue', 0 FROM {CHUNKS_TABLE}"
                    ") GROUP BY namespace"
                ).fetchall()
        for key, documents, size in rows:
            namespaces[key].update(documents=documents, bytes=size)
        return {
            "root": str(self.root),
            "namespaces": namespaces,
            "evictions": self.eviction_stats(),
            "memoryCache": self.memory_cache_stats(),
        }

    def memory_cache_stats(self) -> dict[str, Any]:
        """This process's read-through LRU counters (satellite visibility).

        ``hits``/``misses`` count the hashes :meth:`lookup_many` (and so
        :meth:`lookup` and :meth:`get`) and the keys :meth:`get_counts`
        answered from (respectively, fell through) the in-memory cache; ``entries`` is the current resident population. Counters
        are per-``ResultStore`` instance, not persisted.
        """
        return {
            "capacity": self._memory["results"].capacity,
            "results": self._memory["results"].stats(),
            "counts": self._memory["counts"].stats(),
        }

    def eviction_stats(self) -> dict[str, int]:
        """Cumulative eviction tallies (cheap: counters, never a query)."""
        with self._lock:
            return dict(self._evictions)

    # -- eviction (bounded disk) -------------------------------------------

    def evict(self, *, max_bytes: int | None = None) -> dict[str, Any]:
        """Delete database rows, oldest first, to a byte budget.

        ``max_bytes`` defaults to the store's configured budget and
        counts stored body bytes over :data:`EVICTABLE_NAMESPACES`;
        the queue's chunk and journal rows are live coordination state
        for in-flight sweeps, not re-derivable cache documents, and are
        never touched. The order is ``written_at`` (reads never
        update it, so the policy drops the longest-stored documents
        first), then key, so concurrent evictors on one store agree on
        the victims. Deleting rows frees database pages for reuse; the
        write-ahead log is then checkpointed into the database and
        truncated, so fill-and-evict cycles do not grow the files.
        Matching read-through memory-cache entries are invalidated, so a
        ``get`` after eviction misses and recomputes.
        Safe and idempotent on a shared store: every deletion is an
        ordinary cache miss to other processes. Returns
        ``{"evictedDocuments", "evictedBytes", "totalBytes",
        "remainingBytes", "maxBytes"}``; cumulative tallies appear under
        ``evictions`` in :meth:`stats`.
        """
        limit = max_bytes if max_bytes is not None else self.max_bytes
        if limit is None:
            raise ValueError(
                "evict() needs a byte budget: pass max_bytes or construct "
                "the store with max_bytes="
            )
        if limit < 0:
            raise ValueError(f"max_bytes must be >= 0, got {limit}")
        return self._evict(limit, limit)

    def _evict(self, limit: int, target: int) -> dict[str, Any]:
        """Delete the oldest rows down to ``target`` bytes if over ``limit``."""
        rows = []
        with self._database() as db:
            if db is not None:
                rows = db.execute(
                    "SELECT namespace, key, size "
                    f"FROM ({self._union('key, size, written_at')}) "
                    "ORDER BY written_at, key, namespace"
                ).fetchall()
        total = sum(size for _, _, size in rows)
        if rows and rows[-1][2] <= limit:
            target = max(target, rows[-1][2])  # the newest row fits: keep it
        victims: dict[str, list[tuple[str]]] = {}
        victim_bytes = 0
        for namespace, key, size in rows if total > limit else ():
            if total - victim_bytes <= target:
                break
            victims.setdefault(namespace, []).append((key,))
            victim_bytes += size
        deleted = False
        if victims:
            with self._database() as db:
                if db is not None:
                    with db:
                        for namespace, keys in victims.items():
                            db.executemany(
                                f"DELETE FROM {self._tables[namespace]} WHERE key = ?",
                                keys,
                            )
                    deleted = True
                    db.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            for namespace in victims.keys() & self._memory.keys():
                for (key,) in victims[namespace]:
                    self._memory[namespace].remove(key)
        evicted_documents = sum(map(len, victims.values())) if deleted else 0
        evicted_bytes = victim_bytes if deleted else 0
        with self._lock:
            self._evictions["documents"] += evicted_documents
            self._evictions["bytes"] += evicted_bytes
            self._evictable_bytes = total - evicted_bytes
        return {
            "evictedDocuments": evicted_documents,
            "evictedBytes": evicted_bytes,
            "totalBytes": total,
            "remainingBytes": total - evicted_bytes,
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
