"""Declarative scenario specs: serializable, hashable estimation requests.

An :class:`EstimateSpec` is the *declarative* form of one estimation
point: instead of live Python objects it holds either inline
:class:`~repro.counts.LogicalCounts` or a :class:`ProgramRef` — naming a
workload by construction through the open program catalog
(:mod:`repro.programs`: multipliers, modular exponentiation, QIR,
formula-defined counts, seeded random circuits) or by *registry name* —
plus the qubit profile, QEC scheme, budget, constraints, and synthesis
model — each either a registry *name* or an inline definition. That makes
a spec:

* **JSON-round-trippable** (:meth:`EstimateSpec.to_dict` /
  :meth:`EstimateSpec.from_dict`) — specs travel over HTTP to the
  estimation service and live in batch grid files;
* **content-addressable** (:meth:`EstimateSpec.content_hash`) — the
  canonical serialization is stable across processes and Python
  versions, so the hash keys the persistent
  :class:`~repro.estimator.store.ResultStore`;
* **resolvable** (:meth:`EstimateSpec.to_request`) — a
  :class:`~repro.registry.Registry` turns names back into model objects,
  producing the :class:`~repro.estimator.batch.EstimateRequest` the
  shared batch engine runs.

:func:`run_specs` is the one evaluation path layered over both caches:
specs are hashed, answered from the persistent store when possible, and
the misses run through :func:`~repro.estimator.batch.estimate_batch`
(with its in-memory cross-point memos) before being written back —
results and infeasibility errors alike, since both are deterministic
functions of the resolved spec. With a
store, referenced programs additionally resolve their traced counts
through the store's *counts namespace* (resolved program hash + backend
-> :class:`LogicalCounts`), so a result-store miss never re-traces a
workload the store has already counted.

The canonical form deliberately excludes two fields from the hash:
``label`` (display metadata) and ``backend`` (all counting backends
produce bit-for-bit identical counts — asserted by the test suite — so a
result computed via one backend answers a spec submitted via another).
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Hashable, Sequence

from ..budget import ErrorBudget
from ..counts import COUNT_BACKENDS, LogicalCounts
from ..programs import (
    Program,
    cached_counts_factory,
    make_program,
    program_kind_listing,
)
from ..qec import QECScheme
from ..qubits import PhysicalQubitParams
from ..synthesis import RotationSynthesis
from .constraints import Constraints
from .result import PhysicalResourceEstimates
from .store import StoredOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..registry import Registry
    from .batch import EstimateCache, EstimateRequest
    from .engine import ExecutionEngine
    from .store import ResultStore

__all__ = [
    "SPEC_SCHEMA",
    "EstimateSpec",
    "ProgramRef",
    "SpecOutcome",
    "run_specs",
]

#: Version tag of the spec canonical form; part of every content hash, so
#: changing the spec schema can never alias old store entries.
SPEC_SCHEMA = "repro-spec-v1"


class ProgramRef:
    """A program named by construction — or by registry name.

    Two flavors:

    * **by construction**: ``ProgramRef(kind="modexp", bits=2048)`` — any
      kind in the open program catalog (see :mod:`repro.programs`), with
      its body fields as keyword arguments (snake_case accepted for the
      camelCase JSON spellings). The body is validated eagerly, so a typo
      fails this one spec instead of crashing a batch worker.
    * **by name**: ``ProgramRef(name="rsa_2048")`` — resolved through the
      :class:`~repro.registry.Registry` ``programs`` section (predefined
      entries plus scenario-file definitions), exactly like profile and
      scheme names.
    """

    __slots__ = ("kind", "name", "program")

    def __init__(self, kind: str | None = None, *, name: str | None = None, **params: Any):
        if (kind is None) == (name is None):
            raise ValueError(
                "a program ref needs exactly one of 'kind' (with body "
                "fields) or 'name' (a registry program)"
            )
        if name is not None:
            if params:
                raise ValueError(
                    f"a named program ref takes no body fields, got "
                    f"{sorted(params)}"
                )
            if not isinstance(name, str) or not name:
                raise ValueError(f"program ref 'name' must be a non-empty string, got {name!r}")
            self.kind = None
            self.name = name
            self.program = None
            return
        body = {_camel(field): value for field, value in params.items()}
        self.kind = kind
        self.name = None
        self.program = make_program(kind, body)

    @classmethod
    def _wrap(cls, program: Program) -> "ProgramRef":
        ref = object.__new__(cls)
        ref.kind = program.kind
        ref.name = None
        ref.program = program
        return ref

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProgramRef):
            return NotImplemented
        return (self.kind, self.name, self.program) == (
            other.kind,
            other.name,
            other.program,
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.name, self.program))

    def __repr__(self) -> str:
        if self.name is not None:
            return f"ProgramRef(name={self.name!r})"
        return f"ProgramRef(kind={self.kind!r}, {self.program.to_body()!r})"

    def to_dict(self) -> dict[str, Any]:
        if self.name is not None:
            return {"name": self.name}
        return {self.kind: self.program.to_body()}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ProgramRef":
        if not isinstance(data, dict) or len(data) != 1:
            raise ValueError(
                "a program ref is an object with exactly one key — 'name' "
                f"or a program kind ({program_kind_listing()}) — got {data!r}"
            )
        ((key, body),) = data.items()
        if key == "name":
            if not isinstance(body, str) or not body:
                raise ValueError(
                    f"a named program ref needs a non-empty string, got {body!r}"
                )
            return cls(name=body)
        return cls._wrap(make_program(key, body))

    def resolved(self, registry: "Registry | None" = None) -> Program:
        """The :class:`Program` behind this ref (named refs via registry).

        Raises :class:`~repro.registry.RegistryError` (a ``KeyError``)
        for unknown names, exactly like profile/scheme resolution.
        """
        if self.program is not None:
            return self.program
        from ..registry import default_registry

        registry = registry if registry is not None else default_registry()
        return registry.program(self.name)

    def canonical_dict(
        self, registry: "Registry | None" = None
    ) -> dict[str, Any]:
        """The program part of a spec's canonical form.

        By-construction refs canonicalize to their program's canonical
        body (e.g. a ``qir`` file reference inlines its text). With a
        ``registry``, *named* refs are inlined the same way — so the
        resolved spec hash covers the actual workload and a scenario file
        redefining a program name changes the address; without one, the
        name stays a name (the syntactic hash).
        """
        if self.name is not None and registry is None:
            return {"name": self.name}
        program = self.resolved(registry)
        return {program.kind: program.canonical_body()}

    def resolve(
        self, backend: str, registry: "Registry | None" = None
    ) -> tuple[object, Hashable]:
        """The (lazy program, memo key) pair for the batch engine.

        The program is a picklable zero-argument counts factory, so batch
        workers construct and count the circuit themselves instead of
        shipping a traced artifact through the parent process; repeated
        resolutions of equal refs share one factory object. The memo key
        is the program's counts identity (content hash with
        trace-irrelevant default spellings normalized) plus the backend —
        the same identity the persistent counts cache uses.
        """
        program = self.resolved(registry)
        factory = cached_counts_factory(program, backend)
        return factory, ("program", program.counts_identity(), backend)

    def counts_cache_key(
        self, registry: "Registry | None", backend: str
    ) -> str:
        """Address of this ref's counts in the store's counts namespace."""
        from .store import COUNTS_SCHEMA

        program_hash = self.resolved(registry).counts_identity()
        payload = f"{COUNTS_SCHEMA}\n{program_hash}\n{backend}".encode()
        return hashlib.sha256(payload).hexdigest()


def _camel(field: str) -> str:
    """snake_case constructor kwargs -> camelCase JSON body fields."""
    head, *rest = field.split("_")
    return head + "".join(part.capitalize() for part in rest)


#: Per-process ResultStore handles keyed by root path. Pool workers (and
#: serial callers) reuse one handle per store so its in-memory counts
#: LRU stays warm across every chunk the process evaluates, instead of
#: re-reading counts documents from disk per chunk.
_STORE_HANDLES: dict[str, "ResultStore"] = {}


def _store_handle(root: str) -> "ResultStore":
    """The process-resident :class:`ResultStore` for ``root`` (memoized)."""
    from .store import ResultStore

    store = _STORE_HANDLES.get(root)
    if store is None:
        store = ResultStore(root)
        _STORE_HANDLES[root] = store
    return store


def _counts_via_store(
    root: str, counts_key: str, program: object, backend: str
) -> LogicalCounts:
    """Store-backed counts factory: answer from the counts namespace or
    trace once and persist (runs inside batch workers; picklable)."""
    from .stages import resolve_counts

    store = _store_handle(root)
    hit = store.get_counts(counts_key)
    if hit is not None:
        return hit
    counts = resolve_counts(program)
    store.put_counts(counts_key, counts, backend=backend)
    return counts


@dataclass(frozen=True)
class EstimateSpec:
    """One declarative estimation point (frozen, hashable, serializable).

    Fields hold either registry names or inline definitions:

    * ``program`` — inline :class:`LogicalCounts` or a :class:`ProgramRef`;
    * ``qubit`` — profile name or inline :class:`PhysicalQubitParams`;
    * ``scheme`` — scheme name, inline :class:`QECScheme`, or ``None``
      for the technology default;
    * ``budget`` — total error budget (number) or :class:`ErrorBudget`;
    * ``constraints`` / ``synthesis`` — ``None`` means the defaults;
    * ``backend`` — how referenced programs resolve counts (``formula`` /
      ``materialize`` / ``counting``; identical results);
    * ``label`` — free-form display metadata, echoed on outcomes.
    """

    program: ProgramRef | LogicalCounts
    qubit: str | PhysicalQubitParams
    scheme: str | QECScheme | None = None
    budget: ErrorBudget | float = 1e-3
    constraints: Constraints | None = None
    synthesis: RotationSynthesis | None = None
    backend: str = "formula"
    label: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.program, (ProgramRef, LogicalCounts)):
            raise TypeError(
                "spec program must be a ProgramRef or inline LogicalCounts, "
                f"got {type(self.program).__name__}"
            )
        # Normalize bare-number budgets so equal specs compare equal.
        if isinstance(self.budget, (int, float)) and not isinstance(self.budget, bool):
            object.__setattr__(self, "budget", ErrorBudget(total=float(self.budget)))
        elif not isinstance(self.budget, ErrorBudget):
            raise TypeError(
                f"spec budget must be a number or ErrorBudget, got "
                f"{type(self.budget).__name__}"
            )
        if self.backend not in COUNT_BACKENDS:
            raise ValueError(
                f"unknown count backend {self.backend!r}; available: "
                f"{COUNT_BACKENDS}"
            )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON form; :meth:`from_dict` is the exact inverse."""
        if isinstance(self.program, LogicalCounts):
            program: dict[str, Any] = {"counts": self.program.to_dict()}
        else:
            program = self.program.to_dict()
        qubit = (
            {"profile": self.qubit}
            if isinstance(self.qubit, str)
            else {"params": self.qubit.to_dict()}
        )
        if self.scheme is None:
            scheme = None
        elif isinstance(self.scheme, str):
            scheme = {"name": self.scheme}
        else:
            scheme = {"params": self.scheme.to_dict()}
        return {
            "program": program,
            "qubit": qubit,
            "scheme": scheme,
            "budget": self.budget.to_dict(),
            "constraints": self.constraints.to_dict() if self.constraints else None,
            "synthesis": self.synthesis.to_dict() if self.synthesis else None,
            "backend": self.backend,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EstimateSpec":
        """Parse a spec document (tolerates omitted optional fields)."""
        if not isinstance(data, dict):
            raise ValueError(f"a spec must be a JSON object, got {type(data).__name__}")
        known = {
            "program",
            "qubit",
            "scheme",
            "budget",
            "constraints",
            "synthesis",
            "backend",
            "label",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown spec fields {sorted(unknown)}; known: {sorted(known)}"
            )

        raw_program = data.get("program")
        if not isinstance(raw_program, dict) or not raw_program:
            raise ValueError(
                "spec needs a 'program': inline {'counts': {...}}, a "
                "registry reference {'name': ...}, or a program kind "
                f"({program_kind_listing()})"
            )
        if "counts" in raw_program:
            if len(raw_program) != 1:
                raise ValueError(f"ambiguous program {raw_program!r}")
            program: ProgramRef | LogicalCounts = LogicalCounts.from_dict(
                raw_program["counts"]
            )
        else:
            program = ProgramRef.from_dict(raw_program)

        raw_qubit = data.get("qubit")
        if isinstance(raw_qubit, dict) and set(raw_qubit) == {"profile"}:
            qubit: str | PhysicalQubitParams = raw_qubit["profile"]
        elif isinstance(raw_qubit, dict) and set(raw_qubit) == {"params"}:
            qubit = PhysicalQubitParams.from_dict(raw_qubit["params"])
        else:
            raise ValueError(
                "spec needs a 'qubit': {'profile': name} or {'params': {...}}"
            )

        raw_scheme = data.get("scheme")
        if raw_scheme is None:
            scheme: str | QECScheme | None = None
        elif isinstance(raw_scheme, dict) and set(raw_scheme) == {"name"}:
            scheme = raw_scheme["name"]
        elif isinstance(raw_scheme, dict) and set(raw_scheme) == {"params"}:
            scheme = QECScheme.from_dict(raw_scheme["params"])
        else:
            raise ValueError(
                "spec 'scheme' must be null, {'name': name}, or {'params': {...}}"
            )

        raw_budget = data.get("budget", 1e-3)
        budget = ErrorBudget.from_dict(raw_budget)

        raw_constraints = data.get("constraints")
        constraints = (
            Constraints.from_dict(raw_constraints) if raw_constraints else None
        )
        raw_synthesis = data.get("synthesis")
        synthesis = (
            RotationSynthesis.from_dict(raw_synthesis) if raw_synthesis else None
        )
        return cls(
            program=program,
            qubit=qubit,
            scheme=scheme,
            budget=budget,
            constraints=constraints,
            synthesis=synthesis,
            backend=data.get("backend", "formula"),
            label=data.get("label"),
        )

    # -- content addressing ------------------------------------------------

    def canonical_dict(self, registry: "Registry | None" = None) -> dict[str, Any]:
        """The normalized form whose JSON keys the content hash.

        Equivalent specs canonicalize identically: a bare-number budget
        equals ``ErrorBudget(total=...)``, omitted constraints/synthesis
        equal their defaults, and ``label``/``backend`` are excluded (see
        the module docstring).

        With a ``registry``, profile/scheme *names* are inlined as their
        resolved definitions, so the canonical form covers the actual
        model parameters. The persistent store is keyed on this resolved
        form — a scenario file redefining a name changes the hash and can
        never be served a stale result computed for the old definition.
        Unknown names raise :class:`KeyError`, exactly as resolution
        would.
        """
        data = self.to_dict()
        del data["label"], data["backend"]
        data["constraints"] = (self.constraints or Constraints()).to_dict()
        data["synthesis"] = (self.synthesis or RotationSynthesis()).to_dict()
        if isinstance(self.program, ProgramRef):
            data["program"] = self.program.canonical_dict(registry)
        if registry is not None:
            if isinstance(self.qubit, str):
                data["qubit"] = {"params": registry.qubit(self.qubit).to_dict()}
            if isinstance(self.scheme, str):
                qubit = (
                    registry.qubit(self.qubit)
                    if isinstance(self.qubit, str)
                    else self.qubit
                )
                data["scheme"] = {
                    "params": registry.scheme(self.scheme, qubit).to_dict()
                }
        return data

    def canonical_json(self, registry: "Registry | None" = None) -> str:
        """Stable, compact serialization of :meth:`canonical_dict`."""
        return json.dumps(
            self.canonical_dict(registry), sort_keys=True, separators=(",", ":")
        )

    def content_hash(self, registry: "Registry | None" = None) -> str:
        """SHA-256 over the schema tag plus the canonical serialization.

        Without a registry this is the *syntactic* hash (names kept as
        names — stable for clients that cannot resolve them). With one,
        the *resolved* hash (names inlined) that keys the result store.
        """
        payload = f"{SPEC_SCHEMA}\n{self.canonical_json(registry)}".encode()
        return hashlib.sha256(payload).hexdigest()

    # -- resolution --------------------------------------------------------

    def to_request(self, registry: "Registry | None" = None) -> "EstimateRequest":
        """Resolve names through a registry into a batch-engine request.

        Raises :class:`KeyError` for unknown profile/scheme names and
        :class:`ValueError`/:class:`TypeError` for invalid inline
        definitions — the same behavior as constructing the model objects
        directly.
        """
        from ..registry import default_registry
        from .batch import EstimateRequest

        registry = registry if registry is not None else default_registry()
        qubit = (
            registry.qubit(self.qubit) if isinstance(self.qubit, str) else self.qubit
        )
        scheme = (
            registry.scheme(self.scheme, qubit)
            if isinstance(self.scheme, str)
            else self.scheme
        )
        if isinstance(self.program, LogicalCounts):
            program: object = self.program
            program_key: Hashable | None = None
        else:
            program, program_key = self.program.resolve(self.backend, registry)
        return EstimateRequest(
            program=program,
            qubit=qubit,
            scheme=scheme,
            budget=self.budget,
            constraints=self.constraints,
            synthesis=self.synthesis,
            program_key=program_key,
            label=self.label,
        )


@dataclass(frozen=True, eq=False)
class SpecOutcome:
    """Result of one spec: an estimate or an error, possibly store-served.

    ``result_dict`` is the result's JSON form when :func:`run_specs` had
    one in hand — the verified stored dict on a store hit, the single
    ``to_dict()`` it also wrote to the store on a miss — so serializing
    paths pass it through instead of re-encoding the result. It is
    shared: treat it as read-only.
    """

    spec: EstimateSpec
    spec_hash: str
    result: PhysicalResourceEstimates | None
    error: str | None
    from_store: bool = False
    result_dict: dict[str, Any] | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.result is not None

    def serialized_result(self) -> dict[str, Any] | None:
        """The result's ``to_dict()`` form (``None`` for a failure)."""
        if self.result_dict is not None:
            return self.result_dict
        return self.result.to_dict() if self.result is not None else None


def run_specs(
    specs: Sequence[EstimateSpec],
    *,
    registry: "Registry | None" = None,
    store: "ResultStore | None" = None,
    cache: EstimateCache | None = None,
    max_workers: int | None = 1,
    engine: "ExecutionEngine | None" = None,
    spec_hashes: Sequence[str] | None = None,
) -> list[SpecOutcome]:
    """Evaluate declarative specs through the store and the batch engine.

    For each spec (order preserved): compute the *resolved* content
    hash (names resolved through the registry), answer from ``store``
    when it holds a valid document — one :meth:`ResultStore.lookup_many`
    for the whole call — otherwise resolve the spec into a request, run
    it through :func:`estimate_batch` (sharing its in-memory cross-point
    memos and process fan-out) and write the outcome back — the result,
    or for an infeasible point an error document, so a warm re-run
    answers infeasibility from disk too (``from_store`` is then set on
    the failed outcome). Keying the store on the resolved hash means a
    scenario file redefining a profile or scheme name changes the
    address — a stale result computed for the old definition can never
    be served. Duplicate hashes within one call are computed once.
    Invalid specs (unknown profile or scheme names, malformed inline
    definitions) become failed outcomes rather than aborting the batch —
    a service must answer per spec — and are never persisted.

    ``spec_hashes`` lets a caller that already computed every spec's
    resolved content hash under ``registry`` (a sweep, whose own content
    hash covers them) pass them in, so each point is hashed once per
    run. They must equal ``spec.content_hash(registry)``; invalid specs
    still report their syntactic hash.

    Store lookups are counted on the cache's :meth:`EstimateCache.stats`
    under ``store``, once per distinct valid hash; passing no cache uses
    the module-shared one.

    ``engine`` runs the misses through a caller-owned
    :class:`~repro.estimator.engine.ExecutionEngine` (one persistent
    pool across calls) instead of a short-lived one sized by
    ``max_workers``; results are identical either way. The whole call
    holds ``engine.lock``, so every user of a shared engine (the
    service's submissions, sweep chunks and optimize probes) evaluates
    in turn. Misses are persisted with one :meth:`ResultStore.put_many`
    batch write per call rather than per-point writes.
    """
    with engine.lock if engine is not None else nullcontext():
        return _run_specs(
            specs, registry, store, cache, max_workers, engine, spec_hashes
        )


def _error_message(exc: Exception) -> str:
    """An invalid spec's error: the message, without ``KeyError`` quotes."""
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def _miss_request(
    spec: EstimateSpec, registry: "Registry", store: "ResultStore | None"
) -> EstimateRequest:
    """The batch-engine request of a spec the store does not hold."""
    request = spec.to_request(registry)
    if store is not None and isinstance(spec.program, ProgramRef):
        # Layer the persistent counts namespace under the program
        # factory: even when this *result* is a store miss (new profile,
        # budget, ...), the workload's traced counts answer from disk —
        # an n-bit modexp is traced once ever per store, not once per
        # process or sweep chunk.
        request = replace(
            request,
            program=partial(
                _counts_via_store,
                str(store.root),
                spec.program.counts_cache_key(registry, spec.backend),
                request.program,
                spec.backend,
            ),
        )
    return request


def _run_specs(
    specs: Sequence[EstimateSpec],
    registry: "Registry | None",
    store: "ResultStore | None",
    cache: EstimateCache | None,
    max_workers: int | None,
    engine: "ExecutionEngine | None",
    spec_hashes: Sequence[str] | None,
) -> list[SpecOutcome]:
    from ..registry import default_registry
    from .batch import _SHARED_CACHE, estimate_batch  # shared cache, as defaults use

    stats_cache = cache if cache is not None else _SHARED_CACHE
    resolved_registry = registry if registry is not None else default_registry()
    if spec_hashes is not None and len(spec_hashes) != len(specs):
        raise ValueError(
            f"got {len(spec_hashes)} spec hashes for {len(specs)} specs"
        )

    hashes: list[str] = []
    invalid: dict[int, str] = {}
    # Spec hash -> indices of its specs, in order: each distinct hash is
    # looked up once and, on a miss, computed once.
    groups: dict[str, list[int]] = {}
    for index, spec in enumerate(specs):
        try:
            spec_hash = (
                spec_hashes[index]
                if spec_hashes is not None
                else spec.content_hash(resolved_registry)
            )
        except (KeyError, ValueError, TypeError) as exc:
            try:  # report the error resolving the spec raises, if any
                spec.to_request(resolved_registry)
            except (KeyError, ValueError, TypeError) as request_exc:
                exc = request_exc
            invalid[index] = _error_message(exc)
            hashes.append(spec.content_hash())  # syntactic; no store I/O
            continue
        hashes.append(spec_hash)
        groups.setdefault(spec_hash, []).append(index)

    # Spec hash -> (outcome, from store): one answer per distinct hash,
    # shared by its duplicates.
    answers: dict[str, tuple[StoredOutcome, bool]] = {}
    to_run: list[tuple[int, str, EstimateRequest]] = []
    # One batched read answers every hit, and only misses are resolved
    # into requests: to_request raises only where resolved hashing does,
    # and an unresolvable point's syntactic hash is never stored, so a
    # hit is always a valid spec.
    stored = store.lookup_many(list(groups)) if store is not None else [None] * len(groups)
    for (spec_hash, indices), entry in zip(groups.items(), stored):
        if entry is not None:
            stats_cache.record_store_lookup(True)
            answers[spec_hash] = (entry, True)
            continue
        for index in indices:
            try:
                request = _miss_request(specs[index], resolved_registry, store)
            except (KeyError, ValueError, TypeError) as exc:
                invalid[index] = _error_message(exc)
                hashes[index] = specs[index].content_hash()
                continue
            if store is not None:
                stats_cache.record_store_lookup(False)
            to_run.append((index, spec_hash, request))
            break  # later duplicates share this one's answer
    to_run.sort(key=lambda item: item[0])  # spec order

    if to_run:
        outcomes = estimate_batch(
            [request for _, _, request in to_run],
            max_workers=max_workers,
            cache=cache,
            engine=engine,
        )
        writes: list[tuple[str, StoredOutcome, dict[str, Any]]] = []
        for (index, spec_hash, _), outcome in zip(to_run, outcomes):
            error = None if outcome.ok else outcome.error or "estimation failed"
            # With a store, one to_dict per miss: written to the store
            # and handed to the caller, which serializes it as is.
            result_dict = (
                outcome.result.to_dict() if store is not None and outcome.ok else None
            )
            entry = StoredOutcome(outcome.result, result_dict, error)
            if store is not None:
                writes.append((spec_hash, entry, specs[index].to_dict()))
            answers[spec_hash] = (entry, False)
        if writes:
            # One batched write per run_specs call: one stats
            # invalidation and one eviction check instead of per-point
            # bookkeeping churn.
            store.put_many(writes)

    final: list[SpecOutcome] = []
    for index, (spec, spec_hash) in enumerate(zip(specs, hashes)):
        if index in invalid:
            final.append(
                SpecOutcome(
                    spec=spec, spec_hash=spec_hash, result=None, error=invalid[index]
                )
            )
            continue
        entry, from_store = answers[spec_hash]
        final.append(
            SpecOutcome(
                spec=spec,
                spec_hash=spec_hash,
                result=entry.result,
                error=entry.error,
                from_store=from_store,
                result_dict=entry.result_dict,
            )
        )
    return final
