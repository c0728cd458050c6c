"""Declarative sweeps: resumable grids and per-group Pareto frontiers.

The paper's headline artifacts are parameter sweeps — scaling curves and
per-profile frontiers over (circuit size, qubit profile, QEC scheme,
error budget). A :class:`SweepSpec` is the declarative form of one such
artifact: a ``base`` :class:`~repro.estimator.spec.EstimateSpec` document
plus *axes* (registry names, numeric ranges, or inline spec fragments)
that expand — cartesian or zipped — into the point specs, and an
optional *frontier objective* that reduces the results into per-group
Pareto frontiers.

Execution (:func:`run_sweep`) happens in store-backed chunks through
:func:`~repro.estimator.spec.run_specs`: every completed chunk is
persisted in the content-addressed
:class:`~repro.estimator.store.ResultStore` before the next one starts,
so a killed sweep resumes from its completed points for free — re-running
the same sweep file answers stored points from disk and computes only the
rest. A finished sweep is also stored whole, as one row holding its
``--json`` text (:func:`stored_sweep`): a rerun of it reads that row
instead of its points. The serialized :class:`SweepResult` carries no execution
provenance (store hits, timings), so an interrupted-then-resumed sweep is
bit-for-bit equal to an uninterrupted one.

Sweep documents are JSON (the ``repro sweep`` CLI subcommand and the
service's ``POST /v1/sweeps`` job API both accept them)::

    {
      "base": {"program": {"multiplier": {"algorithm": "schoolbook"}},
               "budget": 1e-4},
      "axes": [
        {"field": "program.multiplier.bits", "geom": {"start": 32, "factor": 2, "count": 4}},
        {"field": "qubit", "values": ["qubit_gate_ns_e3", "qubit_maj_ns_e4"]}
      ],
      "mode": "cartesian",
      "frontier": {"objective": "qubits-runtime", "groupBy": ["qubit"]}
    }

Axis values are applied to the base document by dotted field path
(``program.multiplier.bits``), with sugar for the common cases: a string
value on the ``qubit`` axis means ``{"profile": name}``, and a string on
``scheme`` or ``program`` means ``{"name": name}`` — so an axis can sweep
directly over registry program names
(``{"field": "program", "values": ["rsa_1024", "rsa_2048"]}``). Numeric axes may be spelled as an
explicit ``values`` list, an inclusive linear ``range`` (``start`` /
``stop`` / ``step``), or a geometric ladder ``geom`` (``start`` /
``factor`` / ``count``); all three canonicalize to the expanded values,
so equivalent spellings share one :meth:`SweepSpec.content_hash` — the
identity under which the service stores and re-serves finished sweeps.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from ..jsonlog import dumps_indented
from .engine import (
    DEFAULT_CHUNK_SIZE,
    ExecutionEngine,
    ExecutionPolicy,
    chunk_size_for,
    engine_scope,
)
from .spec import (
    _FIELD_PARSERS,
    SPEC_SCHEMA,
    EstimateSpec,
    _check_spec_fields,
    _resolved_hashes,
    run_specs,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..registry import Registry
    from .batch import EstimateCache
    from .result import PhysicalResourceEstimates
    from .store import ResultStore

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "FRONTIER_OBJECTIVES",
    "FrontierGroup",
    "FrontierSpec",
    "SWEEP_SCHEMA",
    "SweepAxis",
    "SweepPoint",
    "SweepPointOutcome",
    "SweepProgress",
    "SweepResult",
    "SweepSpec",
    "pareto_min_indices",
    "run_sweep",
    "stored_sweep",
]

#: Version tag of the sweep canonical form (hashes, serialized results).
SWEEP_SCHEMA = "repro-sweep-v1"

#: Supported frontier reductions. ``qubits-runtime`` keeps the Pareto
#: non-dominated (runtime, physical qubits) points per group — the
#: paper's frontier; ``min-qubits`` / ``min-runtime`` keep the single
#: best point per group.
FRONTIER_OBJECTIVES = ("qubits-runtime", "min-qubits", "min-runtime")

#: Expansion modes: full cartesian product of the axes, or position-wise
#: ``zip`` of equal-length axes.
SWEEP_MODES = ("cartesian", "zip")


def pareto_min_indices(values: Sequence[tuple[float, float]]) -> list[int]:
    """Indices of the non-dominated points, minimizing both coordinates.

    Sorting by (first, second) makes the kept second coordinates strictly
    decreasing, so a single running minimum replaces the quadratic
    all-pairs dominance check; returned indices are ordered by increasing
    first coordinate. Ties are broken explicitly by input index — among
    duplicate (x, y) points exactly the lowest-index one is kept, so the
    frontier over equal-cost points is deterministic and the kept value
    set is stable under any permutation of the input.
    """
    order = sorted(range(len(values)), key=lambda i: (values[i][0], values[i][1], i))
    keep: list[int] = []
    best: float | None = None
    for i in order:
        second = values[i][1]
        if best is None or second < best:
            keep.append(i)
            best = second
    return keep


def _expand_range(body: Mapping[str, Any]) -> tuple[Any, ...]:
    """Inclusive linear range -> explicit values (ints when exact)."""
    unknown = set(body) - {"start", "stop", "step"}
    if unknown:
        raise ValueError(f"unknown range fields {sorted(unknown)}")
    try:
        start, stop = body["start"], body["stop"]
    except KeyError as exc:
        raise ValueError(f"a range axis needs 'start' and 'stop' ({exc})") from None
    step = body.get("step", 1)
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"range {name!r} must be a number, got {value!r}")
    if step <= 0:
        raise ValueError(f"range step must be > 0, got {step}")
    if stop < start:
        raise ValueError(f"range stop {stop} is below start {start}")
    count = int((stop - start) / step + 1e-9) + 1
    integral = all(isinstance(v, int) for v in (start, stop, step))
    values = [start + i * step for i in range(count)]
    return tuple(int(v) if integral else float(v) for v in values)


def _expand_geom(body: Mapping[str, Any]) -> tuple[Any, ...]:
    """Geometric ladder -> explicit values (ints when exact)."""
    unknown = set(body) - {"start", "factor", "count"}
    if unknown:
        raise ValueError(f"unknown geom fields {sorted(unknown)}")
    try:
        start, factor, count = body["start"], body["factor"], body["count"]
    except KeyError as exc:
        raise ValueError(
            f"a geom axis needs 'start', 'factor', and 'count' ({exc})"
        ) from None
    for name, value in (("start", start), ("factor", factor)):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"geom {name!r} must be a number, got {value!r}")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"geom count must be a positive int, got {count!r}")
    if factor <= 0:
        raise ValueError(f"geom factor must be > 0, got {factor}")
    integral = isinstance(start, int) and isinstance(factor, int)
    values: list[Any] = []
    value: Any = start
    for _ in range(count):
        values.append(value if integral else float(value))
        value = value * factor
    return tuple(values)


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a spec field path and the values it takes.

    ``field`` is a dotted path into the spec document (with the
    ``qubit`` / ``scheme`` string sugar described in the module
    docstring); ``values`` are JSON scalars or spec fragments.
    """

    field: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.field or not isinstance(self.field, str):
            raise ValueError(f"axis field must be a non-empty string, got {self.field!r}")
        if any(not part for part in self.field.split(".")):
            raise ValueError(f"malformed axis field path {self.field!r}")
        object.__setattr__(self, "values", tuple(self.values))

    def to_dict(self) -> dict[str, Any]:
        return {"field": self.field, "values": list(self.values)}

    @classmethod
    def from_dict(cls, data: Any) -> "SweepAxis":
        if not isinstance(data, dict):
            raise ValueError(f"an axis must be a JSON object, got {data!r}")
        unknown = set(data) - {"field", "values", "range", "geom"}
        if unknown:
            raise ValueError(f"unknown axis fields {sorted(unknown)}")
        field_path = data.get("field")
        sources = [key for key in ("values", "range", "geom") if key in data]
        if len(sources) != 1:
            raise ValueError(
                "an axis needs exactly one of 'values', 'range', or 'geom'"
            )
        source = sources[0]
        if source == "values":
            values = data["values"]
            if not isinstance(values, list) or not values:
                raise ValueError(
                    f"axis {field_path!r} 'values' must be a non-empty list"
                )
            values = tuple(values)
        elif source == "range":
            values = _expand_range(data["range"])
        else:
            values = _expand_geom(data["geom"])
        return cls(field=str(field_path or ""), values=values)


@dataclass(frozen=True)
class FrontierSpec:
    """How sweep results reduce to frontiers.

    ``group_by`` names axis fields; points sharing those coordinate
    values form one group, and the ``objective`` is applied per group
    (no ``group_by`` means one global group).
    """

    objective: str = "qubits-runtime"
    group_by: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.objective not in FRONTIER_OBJECTIVES:
            raise ValueError(
                f"unknown frontier objective {self.objective!r}; "
                f"available: {list(FRONTIER_OBJECTIVES)}"
            )
        object.__setattr__(self, "group_by", tuple(self.group_by))

    def to_dict(self) -> dict[str, Any]:
        return {"objective": self.objective, "groupBy": list(self.group_by)}

    @classmethod
    def from_dict(cls, data: Any) -> "FrontierSpec":
        if not isinstance(data, dict):
            raise ValueError(f"'frontier' must be a JSON object, got {data!r}")
        unknown = set(data) - {"objective", "groupBy"}
        if unknown:
            raise ValueError(f"unknown frontier fields {sorted(unknown)}")
        group_by = data.get("groupBy", [])
        if not isinstance(group_by, list) or any(
            not isinstance(name, str) for name in group_by
        ):
            raise ValueError("'groupBy' must be a list of axis field names")
        return cls(
            objective=data.get("objective", "qubits-runtime"),
            group_by=tuple(group_by),
        )


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One expanded point: its axis coordinates and the resulting spec."""

    index: int
    coords: tuple[tuple[str, Any], ...]
    spec: EstimateSpec


def _apply_axis(document: dict[str, Any], field_path: str, value: Any) -> None:
    """Set one axis value into a spec document by dotted path."""
    if field_path == "qubit" and isinstance(value, str):
        value = {"profile": value}
    elif field_path in ("scheme", "program") and isinstance(value, str):
        value = {"name": value}
    parts = field_path.split(".")
    node = document
    for part in parts[:-1]:
        child = node.get(part)
        if child is None:
            child = node[part] = {}
        elif not isinstance(child, dict):
            raise ValueError(
                f"axis field {field_path!r} descends into non-object "
                f"spec field {part!r}"
            )
        node = child
    node[parts[-1]] = value


def _coord_label(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


#: Marks a spec field a sweep has not parsed yet for a point's values.
_UNPARSED = object()


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """A declarative sweep: base spec document, axes, and reductions.

    ``base`` is a partial :class:`EstimateSpec` document; each expanded
    point deep-copies it, applies one value per axis, and parses the
    result. ``chunk_size`` is an execution hint (points persisted per
    chunk) and ``label`` display metadata — neither affects
    :meth:`content_hash`.
    """

    axes: tuple[SweepAxis, ...]
    base: Mapping[str, Any] = field(default_factory=dict)
    mode: str = "cartesian"
    frontier: FrontierSpec | None = None
    chunk_size: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        # Own a normalized deep copy of the base document: the spec is
        # frozen, so expansion (computed once, lazily) can never go stale
        # if the caller mutates the dict it passed in.
        if not isinstance(self.base, Mapping):
            raise ValueError(
                f"sweep base must be a JSON object, got {type(self.base).__name__}"
            )
        try:
            object.__setattr__(self, "base", json.loads(json.dumps(dict(self.base))))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"sweep base must be JSON-serializable: {exc}") from exc
        object.__setattr__(self, "_expanded", None)
        object.__setattr__(self, "_hashed", None)
        if self.mode not in SWEEP_MODES:
            raise ValueError(
                f"unknown sweep mode {self.mode!r}; available: {list(SWEEP_MODES)}"
            )
        fields = [axis.field for axis in self.axes]
        if len(set(fields)) != len(fields):
            raise ValueError(f"duplicate axis fields in {fields}")
        if self.mode == "zip":
            lengths = {len(axis.values) for axis in self.axes}
            if len(lengths) > 1:
                raise ValueError(
                    "zip-mode axes must all have the same length, got "
                    f"{[len(axis.values) for axis in self.axes]}"
                )
        if self.frontier is not None:
            unknown = set(self.frontier.group_by) - set(fields)
            if unknown:
                raise ValueError(
                    f"frontier groupBy names unknown axes {sorted(unknown)}; "
                    f"axes: {fields}"
                )
        if self.chunk_size is not None and (
            not isinstance(self.chunk_size, int) or self.chunk_size < 1
        ):
            raise ValueError(
                f"chunk_size must be a positive int, got {self.chunk_size!r}"
            )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SWEEP_SCHEMA,
            "base": json.loads(json.dumps(dict(self.base))),
            "axes": [axis.to_dict() for axis in self.axes],
            "mode": self.mode,
            "frontier": self.frontier.to_dict() if self.frontier else None,
            "chunkSize": self.chunk_size,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "SweepSpec":
        if not isinstance(data, dict):
            raise ValueError(
                f"a sweep must be a JSON object, got {type(data).__name__}"
            )
        known = {"schema", "base", "axes", "mode", "frontier", "chunkSize", "label"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown sweep fields {sorted(unknown)}; known: {sorted(known)}"
            )
        schema = data.get("schema")
        if schema is not None and schema != SWEEP_SCHEMA:
            raise ValueError(
                f"unsupported sweep schema {schema!r}; expected {SWEEP_SCHEMA!r}"
            )
        raw_axes = data.get("axes")
        if not isinstance(raw_axes, list) or not raw_axes:
            raise ValueError("a sweep needs a non-empty 'axes' list")
        axes = tuple(SweepAxis.from_dict(axis) for axis in raw_axes)
        base = data.get("base", {})
        if not isinstance(base, dict):
            raise ValueError("sweep 'base' must be a JSON object")
        raw_frontier = data.get("frontier")
        frontier = FrontierSpec.from_dict(raw_frontier) if raw_frontier else None
        return cls(
            axes=axes,
            base=base,
            mode=data.get("mode", "cartesian"),
            frontier=frontier,
            chunk_size=data.get("chunkSize"),
            label=data.get("label"),
        )

    # -- expansion ---------------------------------------------------------

    def _positions(self) -> Iterable[tuple[int, ...]]:
        """Each point's value position on every axis, in point order."""
        if self.mode == "zip":
            width = len(self.axes)
            return ((i,) * width for i in range(len(self.axes[0].values)))
        return itertools.product(*(range(len(axis.values)) for axis in self.axes))

    def num_points(self) -> int:
        if self.mode == "zip":
            return len(self.axes[0].values)
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def expand(self) -> list[SweepPoint]:
        """The sweep's points, in deterministic first-axis-major order.

        Each point is ``base`` with its axis values applied, parsed as an
        :class:`EstimateSpec`; a malformed point raises
        :class:`ValueError` naming its coordinates (the error
        ``EstimateSpec.from_dict`` gives for its document) — a typo in a
        sweep file is a spec error, not a pile of failed points.

        A spec field's value depends only on ``base`` and the axes that
        write into that field, so each field is parsed once per distinct
        combination of those axes' values, and points with the same
        combination share the parsed object: a budget ladder over four
        profiles parses four qubit parts and one program, not a thousand
        of each. A point's full document is built only when it has a
        field not yet parsed (or when an axis writes its label).

        The expansion is computed once per spec (safe: the spec is
        frozen and owns its base document) — ``content_hash``, the
        service's submit path, and ``run_sweep`` all share it.
        """
        cached = self._expanded
        if cached is not None:
            return list(cached)
        heads = [axis.field.split(".")[0] for axis in self.axes]
        # Per axis and value: the point coordinate and its part of the
        # label a point gets when its document sets none.
        pairs = [[(axis.field, value) for value in axis.values] for axis in self.axes]
        labels = [
            [f"{axis.field}={_coord_label(value)}" for value in axis.values]
            for axis in self.axes
        ]
        # Per spec field: its parser, the key of a point's value (the
        # value positions of the axes writing into the field) and the
        # values parsed so far by key. A field no axis writes into has
        # one value, parsed at the first point and kept in ``fixed``.
        slots = []
        for name, parse in _FIELD_PARSERS.items():
            where = [i for i, head in enumerate(heads) if head == name]
            slots.append((name, parse, itemgetter(*where) if where else None, {}))
        varying = [slot for slot in slots if slot[2] is not None]
        fixed: dict[str, Any] = {}
        label_axes = "label" in heads
        base_label = self.base.get("label")
        points: list[SweepPoint] = []
        for index, positions in enumerate(self._positions()):
            coords = tuple(map(list.__getitem__, pairs, positions))
            values = dict(fixed)
            unparsed = index == 0 or label_axes
            for name, _, key, parsed in varying:
                value = values[name] = parsed.get(key(positions), _UNPARSED)
                unparsed = unparsed or value is _UNPARSED
            default_label = ", ".join(map(list.__getitem__, labels, positions))
            if unparsed:
                document = json.loads(json.dumps(dict(self.base)))
                for field_path, value in coords:
                    _apply_axis(document, field_path, value)
                if not document.get("label"):
                    document["label"] = default_label
                label = document["label"]
            else:
                label = base_label or default_label
            try:
                if unparsed:
                    _check_spec_fields(document)
                    for name, parse, key, parsed in slots:
                        if key is None:
                            if name not in fixed:
                                fixed[name] = values[name] = parse(document)
                        elif values[name] is _UNPARSED:
                            values[name] = parsed[key(positions)] = parse(document)
                spec = EstimateSpec(**values, label=label)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"sweep point {index} ({label}): {exc}") from exc
            points.append(SweepPoint(index=index, coords=coords, spec=spec))
        object.__setattr__(self, "_expanded", tuple(points))
        return points

    # -- content addressing ------------------------------------------------

    def point_hashes(self, registry: "Registry | None" = None) -> list[str]:
        """Each expanded point's *resolved* spec hash, in point order.

        Names are inlined through ``registry``, exactly like the result
        store's keys; a point naming something the registry cannot
        resolve keeps its syntactic hash (it can never have a stored
        result). Each distinct (program, qubit, scheme, constraints,
        synthesis) part is resolved and encoded once per call and each
        point's budget spliced in (see
        :class:`~repro.estimator.spec._SpecTable`); the hashes equal
        ``point.spec.content_hash(registry)``. Nothing is kept between
        calls, so a registry edit changes the next call's hashes.
        :func:`run_sweep` computes these once per run and shares them
        between :meth:`content_hash` and
        :func:`~repro.estimator.spec.run_specs`.
        """
        return _resolved_hashes((point.spec for point in self.expand()), registry)

    def content_hash(
        self,
        registry: "Registry | None" = None,
        *,
        point_hashes: Sequence[str] | None = None,
    ) -> str:
        """SHA-256 identity of the sweep (the service's job id).

        Covers the expanded points — each point's coordinates plus its
        resolved spec hash (see :meth:`point_hashes`; pass them in when
        already computed under the same ``registry``) — and the
        frontier reduction. Execution hints (``chunk_size``) and display
        metadata (``label``, per-point labels) are excluded, and
        equivalent axis spellings (``range`` vs the explicit list) hash
        identically, so one finished sweep answers every equivalent
        resubmission.

        The spec keeps its last answer with the point hashes it was
        computed from, so asking again for the same hashes (``repro
        sweep`` reads the stored row, then runs the sweep) encodes the
        points once.
        """
        if point_hashes is None:
            point_hashes = self.point_hashes(registry)
        key = tuple(point_hashes)
        if self._hashed is None or self._hashed[0] != key:
            object.__setattr__(self, "_hashed", (key, self._digest(key)))
        return self._hashed[1]

    def _digest(self, point_hashes: tuple[str, ...]) -> str:
        points = [
            {"coords": [[f, v] for f, v in point.coords], "spec": spec_hash}
            for point, spec_hash in zip(self.expand(), point_hashes, strict=True)
        ]
        canonical = {
            "schema": SWEEP_SCHEMA,
            "specSchema": SPEC_SCHEMA,
            "frontier": self.frontier.to_dict() if self.frontier else None,
            "points": points,
        }
        payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(f"{SWEEP_SCHEMA}\n{payload}".encode()).hexdigest()


@dataclass(frozen=True, eq=False)
class SweepPointOutcome:
    """Result of one sweep point.

    ``from_store`` is execution provenance — reported in progress events
    and job status, deliberately excluded from :meth:`to_dict` so a
    resumed sweep serializes bit-for-bit equal to an uninterrupted one.
    ``result_dict`` is the result's JSON form when the run had it in hand
    (see :class:`~repro.estimator.spec.SpecOutcome`); :meth:`to_dict`
    embeds it as is.
    """

    index: int
    coords: tuple[tuple[str, Any], ...]
    label: str | None
    spec_hash: str
    result: PhysicalResourceEstimates | None
    error: str | None
    from_store: bool = False
    result_dict: dict[str, Any] | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.result is not None

    def to_dict(self) -> dict[str, Any]:
        result = self.result_dict
        if result is None and self.result is not None:
            result = self.result.to_dict()
        return {
            "index": self.index,
            "coords": {field_path: value for field_path, value in self.coords},
            "label": self.label,
            "specHash": self.spec_hash,
            "ok": self.ok,
            "result": result,
            "error": self.error,
        }


def _outcome_from_dict(
    entry: dict[str, Any], fields: list[str], *, from_store: bool = False
) -> SweepPointOutcome:
    """Rebuild one point outcome from its serialized form.

    Shared by :meth:`SweepResult.from_dict`, a result answered from a
    stored sweep row, and the work queue's chunk assembly — one parser,
    so every path reconstructs identical objects from identical bytes.
    """
    from .result import PhysicalResourceEstimates

    result_dict = entry.get("result")
    return SweepPointOutcome(
        index=entry["index"],
        coords=tuple(
            (field_path, entry["coords"][field_path]) for field_path in fields
        ),
        label=entry.get("label"),
        spec_hash=entry["specHash"],
        result=(
            PhysicalResourceEstimates.from_dict(result_dict)
            if result_dict is not None
            else None
        ),
        error=entry.get("error"),
        from_store=from_store,
        result_dict=result_dict,
    )


@dataclass(frozen=True, eq=False)
class FrontierGroup:
    """One frontier: the group's coordinates and its point indices.

    ``indices`` point into :attr:`SweepResult.points`, ordered by the
    objective (increasing runtime for ``qubits-runtime``; the single
    best point otherwise).
    """

    key: tuple[tuple[str, Any], ...]
    indices: tuple[int, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": {field_path: value for field_path, value in self.key},
            "points": list(self.indices),
        }


#: Key order of a serialized sweep result and of each of its points
#: (:meth:`SweepResult.to_dict`): a stored row in this layout encodes to
#: the same text a fresh run prints.
_RESULT_KEYS = ["schema", "sweepHash", "sweep", "counts", "points", "frontiers"]
_POINT_KEYS = ["index", "coords", "label", "specHash", "ok", "result", "error"]


def _frontiers_from_dict(
    raw: list[dict[str, Any]] | None, spec: SweepSpec
) -> list[FrontierGroup] | None:
    if raw is None:
        return None
    group_fields = list(spec.frontier.group_by) if spec.frontier else []
    return [
        FrontierGroup(
            key=tuple((field_path, entry["key"][field_path]) for field_path in group_fields),
            indices=tuple(entry["points"]),
        )
        for entry in raw
    ]


class SweepResult:
    """A finished sweep: per-point outcomes plus frontier reductions.

    ``stored`` says whether the result store holds this sweep's row
    (:func:`run_sweep` sets it). A result answered from that row keeps
    the row's document and text instead of outcomes: its counts come
    from the document, :meth:`to_json` is the stored text, and
    :attr:`points` and :attr:`frontiers` decode on first access (every
    point ``from_store``). A finished result is not mutated;
    :meth:`to_json` encodes it once.
    """

    def __init__(
        self,
        sweep_hash: str,
        spec: SweepSpec,
        points: list[SweepPointOutcome] | None,
        frontiers: list[FrontierGroup] | None = None,
    ) -> None:
        self.sweep_hash = sweep_hash
        self.spec = spec
        self._points = points
        self._frontiers = frontiers
        self._document: dict[str, Any] | None = None
        self._json: str | None = None
        self.stored = False

    @classmethod
    def _from_store(
        cls,
        spec: SweepSpec,
        store: "ResultStore",
        sweep_hash: str,
        point_hashes: Sequence[str],
    ) -> "SweepResult | None":
        """The result the stored sweep row answers for ``spec``, or ``None``.

        One row read (:meth:`~repro.estimator.store.ResultStore.sweep_row`,
        stale once any point's document is newer). The row must be this
        sweep's finished result in the layout
        :meth:`to_dict` writes: one entry per expanded point, in order,
        with its index, coordinates and resolved spec hash, and counts
        and frontiers that agree. The display fields the sweep hash
        leaves out (the ``sweep`` block and the point labels) are
        re-stamped from ``spec`` when they differ, which drops the
        stored text: the document is then encoded again.
        """
        row = store.sweep_row(sweep_hash, point_hashes)
        if row is None:
            return None
        document, text = row
        points = spec.expand()
        entries = document.get("points")
        if (
            list(document) != _RESULT_KEYS
            or document["schema"] != SWEEP_SCHEMA
            or document["sweepHash"] != sweep_hash
            or not isinstance(entries, list)
            or len(entries) != len(points)
        ):
            return None
        ok = 0
        labels = True
        for point, spec_hash, entry in zip(points, point_hashes, entries):
            if (
                not isinstance(entry, dict)
                or list(entry) != _POINT_KEYS
                or entry["index"] != point.index
                or entry["specHash"] != spec_hash
                or entry["coords"] != dict(point.coords)
            ):
                return None
            result, error = entry["result"], entry["error"]
            if not (
                (isinstance(result, dict) and error is None and entry["ok"] is True)
                or (result is None and isinstance(error, str) and entry["ok"] is False)
            ):
                return None
            ok += result is not None
            labels = labels and entry["label"] == point.spec.label
        frontiers = document["frontiers"]
        if document["counts"] != {
            "total": len(points),
            "ok": ok,
            "failed": len(points) - ok,
        } or (frontiers is None) != (spec.frontier is None):
            return None
        if frontiers is not None and not (
            isinstance(frontiers, list)
            and all(
                isinstance(group, dict)
                and isinstance(group.get("key"), dict)
                and list(group["key"]) == list(spec.frontier.group_by)
                and isinstance(group.get("points"), list)
                for group in frontiers
            )
        ):
            return None
        block = spec.to_dict()
        if not labels or json.dumps(document["sweep"]) != json.dumps(block):
            document["sweep"] = block
            for point, entry in zip(points, entries):
                entry["label"] = point.spec.label
            text = None
        result = cls(sweep_hash, spec, None)
        result._document = document
        result._json = text
        result.stored = True
        return result

    def _decode(self) -> None:
        document = self._document
        fields = [axis.field for axis in self.spec.axes]
        self._points = [
            _outcome_from_dict(entry, fields, from_store=True)
            for entry in document["points"]
        ]
        self._frontiers = _frontiers_from_dict(document["frontiers"], self.spec)

    @property
    def points(self) -> list[SweepPointOutcome]:
        if self._points is None:
            self._decode()
        return self._points

    @property
    def frontiers(self) -> list[FrontierGroup] | None:
        if self._points is None:
            self._decode()
        return self._frontiers

    @property
    def num_points(self) -> int:
        if self._points is None:
            return self._document["counts"]["total"]
        return len(self._points)

    @property
    def num_ok(self) -> int:
        if self._points is None:
            return self._document["counts"]["ok"]
        return sum(1 for point in self._points if point.ok)

    @property
    def num_failed(self) -> int:
        return self.num_points - self.num_ok

    @property
    def num_from_store(self) -> int:
        if self._points is None:
            return self.num_points
        return sum(1 for point in self._points if point.from_store)

    def frontier_indices(self) -> set[int]:
        if not self.frontiers:
            return set()
        return {index for group in self.frontiers for index in group.indices}

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON form — independent of execution history.

        A result answered from a stored row returns that row's document;
        callers must not mutate it.
        """
        if self._document is not None:
            return self._document
        return {
            "schema": SWEEP_SCHEMA,
            "sweepHash": self.sweep_hash,
            "sweep": self.spec.to_dict(),
            "counts": {
                "total": self.num_points,
                "ok": self.num_ok,
                "failed": self.num_failed,
            },
            "points": [point.to_dict() for point in self.points],
            "frontiers": (
                [group.to_dict() for group in self.frontiers]
                if self.frontiers is not None
                else None
            ),
        }

    def to_json(self) -> str:
        """The ``--json`` text: :meth:`to_dict`, indented, encoded once.

        The stored row holds this same text (:func:`run_sweep`), so a
        sweep that is printed and stored pays one encode.
        """
        if self._json is None:
            self._json = dumps_indented(self.to_dict())
        return self._json

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SweepResult":
        if not isinstance(data, dict) or data.get("schema") != SWEEP_SCHEMA:
            raise ValueError(f"not a {SWEEP_SCHEMA} sweep result document")
        spec = SweepSpec.from_dict(data["sweep"])
        fields = [axis.field for axis in spec.axes]
        points = [_outcome_from_dict(entry, fields) for entry in data["points"]]
        return cls(
            sweep_hash=data["sweepHash"],
            spec=spec,
            points=points,
            frontiers=_frontiers_from_dict(data.get("frontiers"), spec),
        )

    def to_csv(self) -> str:
        """Flat CSV: axis coordinates, key metrics, frontier membership."""
        import csv

        fields = [axis.field for axis in self.spec.axes]
        on_frontier = self.frontier_indices()
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            fields
            + [
                "specHash",
                "ok",
                "physicalQubits",
                "runtime_s",
                "codeDistance",
                "logicalQubits",
                "tFactoryCopies",
                "rqops",
                "onFrontier",
                "error",
            ]
        )
        for point in self.points:
            coords = dict(point.coords)
            row = [_coord_label(coords[field_path]) for field_path in fields]
            row.append(point.spec_hash)
            row.append(point.ok)
            if point.ok:
                result = point.result
                row += [
                    result.physical_qubits,
                    result.runtime_seconds,
                    result.code_distance,
                    result.logical_qubits,
                    result.t_factory.copies if result.t_factory else 0,
                    result.rqops,
                ]
            else:
                row += [""] * 6
            row.append(point.index in on_frontier)
            row.append(point.error or "")
            writer.writerow(row)
        return buffer.getvalue()


@dataclass(frozen=True)
class SweepProgress:
    """One progress event, emitted after each persisted chunk."""

    chunk: int
    num_chunks: int
    completed: int
    total: int
    ok: int
    failed: int
    from_store: int


def _reduce_frontiers(
    spec: FrontierSpec, points: Sequence[SweepPointOutcome]
) -> list[FrontierGroup]:
    """Group points by the frontier key and keep each group's winners."""
    groups: dict[str, tuple[tuple[tuple[str, Any], ...], list[SweepPointOutcome]]] = {}
    for point in points:
        coords = dict(point.coords)
        key = tuple((name, coords[name]) for name in spec.group_by)
        # Values may be unhashable fragments; group on their canonical JSON.
        group_id = json.dumps([[n, v] for n, v in key], sort_keys=True)
        groups.setdefault(group_id, (key, []))[1].append(point)

    reduced: list[FrontierGroup] = []
    for key, members in groups.values():  # insertion = expansion order
        feasible = [point for point in members if point.ok]
        if not feasible:
            reduced.append(FrontierGroup(key=key, indices=()))
            continue
        if spec.objective == "qubits-runtime":
            keep = pareto_min_indices(
                [
                    (point.result.runtime_seconds, point.result.physical_qubits)
                    for point in feasible
                ]
            )
            indices = tuple(feasible[i].index for i in keep)
        elif spec.objective == "min-qubits":
            best = min(
                feasible,
                key=lambda point: (
                    point.result.physical_qubits,
                    point.result.runtime_seconds,
                    point.index,
                ),
            )
            indices = (best.index,)
        else:  # min-runtime
            best = min(
                feasible,
                key=lambda point: (
                    point.result.runtime_seconds,
                    point.result.physical_qubits,
                    point.index,
                ),
            )
            indices = (best.index,)
        reduced.append(FrontierGroup(key=key, indices=indices))
    return reduced


def stored_sweep(
    spec: SweepSpec, store: "ResultStore", *, point_hashes: Sequence[str]
) -> SweepResult | None:
    """The finished result of ``spec`` from its stored row, or ``None``.

    One row read (:meth:`~repro.estimator.store.ResultStore.sweep_row`):
    no point is looked up or decoded. A missing, corrupt, stale or
    foreign row, or one that is not this sweep's finished result, is
    ``None``. ``point_hashes`` are :meth:`SweepSpec.point_hashes` under
    the registry the sweep runs with.

    This is the one rule by which a row counts as the sweep's answer:
    :func:`run_sweep` (both executors), the queue's workers and
    finalizer, and the service's job recovery all ask it, so none of
    them treats as finished a sweep whose row another would reject.
    """
    return SweepResult._from_store(
        spec, store, spec.content_hash(point_hashes=point_hashes), point_hashes
    )


def run_sweep(
    spec: SweepSpec,
    *,
    registry: "Registry | None" = None,
    store: "ResultStore | None" = None,
    cache: "EstimateCache | None" = None,
    policy: ExecutionPolicy | None = None,
    progress: Callable[[SweepProgress], None] | None = None,
    engine: ExecutionEngine | None = None,
    point_hashes: Sequence[str] | None = None,
    stored_result: SweepResult | None = None,
) -> SweepResult:
    """Execute a sweep in store-backed chunks and reduce its frontiers.

    With a ``store``, a sweep that finished before is answered from its
    stored row (:func:`stored_sweep`) before any chunk runs, with one
    progress event for all its points; otherwise it runs, and the
    finished result is stored as that row (``result.stored`` says
    whether the row landed), encoded once with :meth:`SweepResult.to_json`.

    Points run through :func:`run_specs` one chunk at a time, sized by
    :func:`~repro.estimator.engine.chunk_size_for` (the policy's
    ``chunk_size``, then the spec's hint, then
    :data:`DEFAULT_CHUNK_SIZE` with a store and a single chunk without
    one — chunking only buys anything when completed chunks persist).
    With a ``store``, every completed chunk is persisted before the next
    starts, so killing a sweep between chunks loses at most the chunk in
    flight — re-running the same spec resumes from the stored points.
    Infeasible or invalid points become failed outcomes, excluded from
    frontiers. ``progress`` is called after each chunk with cumulative
    counts.

    ``policy`` (an :class:`~repro.estimator.engine.ExecutionPolicy`,
    default serial and local) says how chunks run. The ``"local"``
    executor iterates them in this call, as above. ``"queue"`` requires
    a ``store`` and routes through the crash-safe work queue
    (:mod:`repro.estimator.queue`): the sweep is journaled, chunks are
    leased, and this call drains them as one cooperating worker — other
    worker processes (``repro work DIR``) or service replicas sharing
    the store directory pick up chunks concurrently, and the journal
    survives a crash for a later worker to resume. Both executors
    produce bit-for-bit identical results.

    Every chunk runs through one
    :class:`~repro.estimator.engine.ExecutionEngine`. Without an
    ``engine``, one with ``policy.workers`` workers is created for the
    whole sweep and closed on return; when that enables process fan-out
    its pool is spawned once, and workers keep their memo tables and
    store handles warm across chunks. An explicit ``engine`` is *not*
    closed by this call — the estimation service shares one engine
    across jobs, and chunks take turns with its other users through
    the engine's lock. Results are identical either way.

    Each point's resolved spec hash is computed once per run
    (:meth:`SweepSpec.point_hashes`) and serves both the sweep's
    content hash and the store lookups. A caller that already has them
    under the same registry (``repro sweep --resume`` counts stored
    points first) passes them as ``point_hashes``. A caller that has
    also already read the row (``repro sweep`` does, before it enqueues
    anything) passes the answer :func:`stored_sweep` gave for them as
    ``stored_result``: it is returned, with its one progress event,
    without reading the row again.
    """
    from ..registry import default_registry

    resolved_registry = registry if registry is not None else default_registry()
    policy = policy if policy is not None else ExecutionPolicy()
    if policy.executor == "queue" and store is None:
        raise ValueError("executor='queue' requires a result store")
    points = spec.expand()
    if point_hashes is None:
        point_hashes = spec.point_hashes(resolved_registry)
    sweep_hash = spec.content_hash(point_hashes=point_hashes)
    size = chunk_size_for(
        policy.chunk_size, spec.chunk_size, len(points), store=store is not None
    )
    if store is not None:
        result = stored_result
        if result is None:
            result = SweepResult._from_store(spec, store, sweep_hash, point_hashes)
        if result is not None:
            if progress is not None:
                num_chunks = -(-len(points) // size)
                progress(
                    SweepProgress(
                        chunk=num_chunks,
                        num_chunks=num_chunks,
                        completed=len(points),
                        total=len(points),
                        ok=result.num_ok,
                        failed=result.num_failed,
                        from_store=len(points),
                    )
                )
            return result
    if policy.executor == "queue":
        result = _run_queued(
            spec,
            store,
            sweep_hash,
            point_hashes,
            size,
            registry=resolved_registry,
            cache=cache,
            policy=policy,
            progress=progress,
            engine=engine,
        )
    else:
        result = _run_local(
            spec,
            store,
            sweep_hash,
            point_hashes,
            size,
            registry=resolved_registry,
            cache=cache,
            policy=policy,
            progress=progress,
            engine=engine,
        )
    if store is not None and not result.stored:
        result.stored = store.put_sweep(sweep_hash, result.to_json(), point_hashes)
    return result


def _run_queued(
    spec: SweepSpec,
    store: "ResultStore",
    sweep_hash: str,
    point_hashes: Sequence[str],
    size: int,
    *,
    registry: "Registry",
    cache: "EstimateCache | None",
    policy: ExecutionPolicy,
    progress: Callable[[SweepProgress], None] | None,
    engine: ExecutionEngine | None,
) -> SweepResult:
    """Journal the sweep, drain it as one queue worker, and answer from
    the row the finalizing worker stored, re-stamped for ``spec``.

    Without a row to answer from — a bounded store evicted it, or the
    store has no usable database to journal in — the sweep is assembled
    as the finalizer does: a local run against the store, in which every
    stored point is a hit.
    """
    from .queue import SweepQueue, run_worker

    queue = SweepQueue(store, ttl=policy.lease_ttl)
    try:
        job = queue.enqueue(spec, registry=registry, chunk_size=policy.chunk_size)
    except RuntimeError:  # no database to coordinate through
        job = None
    if job is not None:
        run_worker(
            store,
            job_id=job.job_id,
            registry=registry,
            cache=cache,
            policy=policy,
            progress=progress,
            engine=engine,
        )
        result = SweepResult._from_store(spec, store, sweep_hash, point_hashes)
        if result is not None:
            return result
    return _run_local(
        spec,
        store,
        sweep_hash,
        point_hashes,
        size,
        registry=registry,
        cache=cache,
        policy=policy,
        progress=progress if job is None else None,
        engine=engine,
    )


def _run_local(
    spec: SweepSpec,
    store: "ResultStore | None",
    sweep_hash: str,
    point_hashes: Sequence[str],
    size: int,
    *,
    registry: "Registry",
    cache: "EstimateCache | None",
    policy: ExecutionPolicy,
    progress: Callable[[SweepProgress], None] | None,
    engine: ExecutionEngine | None,
) -> SweepResult:
    """Run the sweep's chunks in this process, point by point."""
    points = spec.expand()
    outcomes: list[SweepPointOutcome] = []
    ok = failed = from_store = 0
    chunk_index = 0
    position = 0
    # One engine for the whole run (one persistent pool when parallel);
    # an engine passed in by the caller (the service) is shared, not owned.
    with engine_scope(
        engine,
        max_workers=policy.workers,
        store_root=store.root if store is not None else None,
    ) as runner:
        while position < len(points):
            chunk = points[position : position + size]
            chunk_outcomes = run_specs(
                [point.spec for point in chunk],
                registry=registry,
                store=store,
                cache=cache,
                engine=runner,
                spec_hashes=point_hashes[position : position + len(chunk)],
            )
            position += len(chunk)
            chunk_index += 1
            for point, outcome in zip(chunk, chunk_outcomes):
                outcomes.append(
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
                )
                if outcome.ok:
                    ok += 1
                else:
                    failed += 1
                if outcome.from_store:
                    from_store += 1
            runner.note_chunk_size(size)
            if progress is not None:
                remaining_chunks = -(-(len(points) - position) // size)
                progress(
                    SweepProgress(
                        chunk=chunk_index,
                        num_chunks=chunk_index + remaining_chunks,
                        completed=len(outcomes),
                        total=len(points),
                        ok=ok,
                        failed=failed,
                        from_store=from_store,
                    )
                )

    frontiers = (
        _reduce_frontiers(spec.frontier, outcomes)
        if spec.frontier is not None
        else None
    )
    return SweepResult(
        sweep_hash=sweep_hash, spec=spec, points=outcomes, frontiers=frontiers
    )
