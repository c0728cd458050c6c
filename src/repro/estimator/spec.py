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
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Sequence

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
from .store import StoredOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..registry import Registry
    from .batch import EstimateCache, EstimateRequest
    from .engine import ExecutionEngine
    from .result import PhysicalResourceEstimates
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
        _check_spec_fields(data)
        return cls(
            **{name: parse(data) for name, parse in _FIELD_PARSERS.items()},
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
        data = self._canonical_parts(registry)
        data["budget"] = self.budget.to_dict()
        return data

    def _canonical_parts(self, registry: "Registry | None") -> dict[str, Any]:
        """:meth:`canonical_dict` without its budget: the part of a spec
        that a sweep's budget ladder shares (see :class:`_SpecTable`)."""
        data = self.to_dict()
        del data["label"], data["backend"], data["budget"]
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
        return _canonical_text(self.canonical_dict(registry))

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

        registry = registry if registry is not None else default_registry()
        return self._request(*self._resolved_parts(registry))

    def _resolved_parts(
        self, registry: "Registry"
    ) -> tuple[object, Hashable | None, PhysicalQubitParams, QECScheme | None]:
        """(program, program memo key, qubit, scheme) under ``registry``."""
        qubit = (
            registry.qubit(self.qubit) if isinstance(self.qubit, str) else self.qubit
        )
        scheme = (
            registry.scheme(self.scheme, qubit)
            if isinstance(self.scheme, str)
            else self.scheme
        )
        if isinstance(self.program, LogicalCounts):
            return self.program, None, qubit, scheme
        program, program_key = self.program.resolve(self.backend, registry)
        return program, program_key, qubit, scheme

    def _request(
        self,
        program: object,
        program_key: Hashable | None,
        qubit: PhysicalQubitParams,
        scheme: QECScheme | None,
    ) -> "EstimateRequest":
        from .batch import EstimateRequest

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


def _check_spec_fields(data: dict[str, Any]) -> None:
    """Reject fields a spec document does not have (``label`` is read as is)."""
    unknown = set(data) - _FIELD_PARSERS.keys() - {"label"}
    if unknown:
        known = sorted([*_FIELD_PARSERS, "label"])
        raise ValueError(f"unknown spec fields {sorted(unknown)}; known: {known}")


def _parse_program(data: dict[str, Any]) -> ProgramRef | LogicalCounts:
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
        return LogicalCounts.from_dict(raw_program["counts"])
    return ProgramRef.from_dict(raw_program)


def _parse_qubit(data: dict[str, Any]) -> str | PhysicalQubitParams:
    raw_qubit = data.get("qubit")
    if isinstance(raw_qubit, dict) and set(raw_qubit) == {"profile"}:
        return raw_qubit["profile"]
    if isinstance(raw_qubit, dict) and set(raw_qubit) == {"params"}:
        return PhysicalQubitParams.from_dict(raw_qubit["params"])
    raise ValueError("spec needs a 'qubit': {'profile': name} or {'params': {...}}")


def _parse_scheme(data: dict[str, Any]) -> str | QECScheme | None:
    raw_scheme = data.get("scheme")
    if raw_scheme is None:
        return None
    if isinstance(raw_scheme, dict) and set(raw_scheme) == {"name"}:
        return raw_scheme["name"]
    if isinstance(raw_scheme, dict) and set(raw_scheme) == {"params"}:
        return QECScheme.from_dict(raw_scheme["params"])
    raise ValueError("spec 'scheme' must be null, {'name': name}, or {'params': {...}}")


def _parse_constraints(data: dict[str, Any]) -> Constraints | None:
    raw_constraints = data.get("constraints")
    return Constraints.from_dict(raw_constraints) if raw_constraints else None


def _parse_synthesis(data: dict[str, Any]) -> RotationSynthesis | None:
    raw_synthesis = data.get("synthesis")
    return RotationSynthesis.from_dict(raw_synthesis) if raw_synthesis else None


#: Spec document fields and their parsers, in the order
#: :meth:`EstimateSpec.from_dict` applies them. Each reads only its own
#: field, so :meth:`~repro.estimator.sweep.SweepSpec.expand` parses a
#: field once per distinct value and shares the result between points.
_FIELD_PARSERS: dict[str, Callable[[dict[str, Any]], Any]] = {
    "program": _parse_program,
    "qubit": _parse_qubit,
    "scheme": _parse_scheme,
    "budget": lambda data: ErrorBudget.from_dict(data.get("budget", 1e-3)),
    "constraints": _parse_constraints,
    "synthesis": _parse_synthesis,
    "backend": lambda data: data.get("backend", "formula"),
}


def _canonical_text(data: dict[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _part_key(part: object) -> Hashable:
    """A spec part's key in a :class:`_SpecTable`: a name (profile,
    scheme, registry program) by its value, anything else by identity.
    Equal inline definitions can serialize differently (``1`` and
    ``1.0`` compare equal), so only the same object shares an entry."""
    if type(part) is str:
        return part
    if type(part) is ProgramRef and part.name is not None:
        return part.name
    return id(part)


class _SpecTable:
    """One call's resolved spec parts, each encoded and resolved once.

    The points of a sweep, or of one :func:`run_specs` call, mostly
    differ in their budget. The table keys the rest of a spec (program,
    qubit, scheme, constraints and synthesis, by :func:`_part_key`),
    encodes that part's resolved canonical JSON once, and splices each
    point's budget in front of it: ``budget`` sorts first among the
    canonical keys, so the payload is byte for byte the one
    :meth:`EstimateSpec.content_hash` hashes. Miss requests reuse the
    resolved program, qubit, scheme and counts address the same way.

    A table lives for one call: a registry edit or a scenario file
    between two calls changes the addresses. An entry holds its spec, so
    the objects whose identities key it stay alive. A part that fails
    to resolve is not kept; every point naming it raises, as its own
    ``content_hash`` would.
    """

    def __init__(self, registry: "Registry | None") -> None:
        self.registry = registry
        self._encoded: dict[tuple[Hashable, ...], tuple[EstimateSpec, str]] = {}
        self._budgets: dict[int, tuple[ErrorBudget, str]] = {}
        self._resolved: dict[tuple[Hashable, ...], tuple[Any, ...]] = {}

    def content_hash(self, spec: EstimateSpec) -> str:
        """``spec.content_hash(registry)`` from the shared encodings."""
        key = (
            _part_key(spec.program),
            _part_key(spec.qubit),
            _part_key(spec.scheme),
            id(spec.constraints),
            id(spec.synthesis),
        )
        entry = self._encoded.get(key)
        if entry is None:
            text = _canonical_text(spec._canonical_parts(self.registry))
            entry = self._encoded[key] = (spec, text[1:])  # after its "{"
        budget = self._budgets.get(id(spec.budget))
        if budget is None:
            budget = (spec.budget, _canonical_text(spec.budget.to_dict()))
            self._budgets[id(spec.budget)] = budget
        payload = f'{SPEC_SCHEMA}\n{{"budget":{budget[1]},{entry[1]}'
        return hashlib.sha256(payload.encode()).hexdigest()

    def request(
        self, spec: EstimateSpec, store: "ResultStore | None"
    ) -> "EstimateRequest":
        """The batch-engine request of a spec the store does not hold."""
        key = (
            _part_key(spec.program),
            _part_key(spec.qubit),
            _part_key(spec.scheme),
            spec.backend,
        )
        entry = self._resolved.get(key)
        if entry is None:
            parts = spec._resolved_parts(self.registry)
            counts_key = (
                spec.program.counts_cache_key(self.registry, spec.backend)
                if store is not None and isinstance(spec.program, ProgramRef)
                else None
            )
            entry = self._resolved[key] = (spec, parts, counts_key)
        _, (program, program_key, qubit, scheme), counts_key = entry
        if counts_key is not None:
            # Layer the persistent counts namespace under the program
            # factory: even when this *result* is a store miss (new
            # profile, budget, ...), the workload's traced counts answer
            # from disk — an n-bit modexp is traced once ever per store,
            # not once per process or sweep chunk.
            program = partial(
                _counts_via_store, str(store.root), counts_key, program, spec.backend
            )
        return spec._request(program, program_key, qubit, scheme)


def _resolved_hashes(
    specs: Iterable[EstimateSpec], registry: "Registry | None"
) -> list[str]:
    """Each spec's resolved content hash under ``registry``, from one
    :class:`_SpecTable`; a spec naming something the registry cannot
    resolve keeps its syntactic hash (it can never have a stored result)."""
    table = _SpecTable(registry)
    hashes = []
    for spec in specs:
        try:
            hashes.append(table.content_hash(spec))
        except KeyError:
            hashes.append(spec.content_hash())  # unresolvable names
    return hashes


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
    table = _SpecTable(resolved_registry)
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
                else table.content_hash(spec)
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
                request = table.request(specs[index], store)
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
