"""Adaptive inverse design: goal-directed search over spec space.

The sweep layer answers "what does this configuration cost?"; production
users ask the inverse — "cheapest configuration with runtime <= 1 day",
"min qubits for RSA-2048 on this hardware". An :class:`OptimizeSpec` is
the declarative form of one such question (mirroring
:class:`~repro.estimator.sweep.SweepSpec`): a ``base`` spec document, one
or two search *axes* over ``range``/``geom`` ladders or registry names,
an *objective* from the frontier vocabulary
(:data:`~repro.estimator.sweep.FRONTIER_OBJECTIVES`), and declarative
*constraints* (``maxRuntime_s``, ``maxPhysicalQubits``).

:func:`run_optimize` answers it *adaptively* instead of densely gridding:
it exploits the monotonicity invariants hypothesis-asserted in
``tests/test_invariants.py`` — runtime is monotone in the error budget
with free T-factory parallelism, physical qubits are monotone under
``maxTFactories == 1`` — to bisect constrained axes toward the
feasibility boundary and walk objective plateaus to the exact point the
dense grid would pick, falling back to bounded local grid refinement on
axes with no proven monotone structure. The contract is *answer
equality*: on monotone problems the optimizer returns exactly the point
set a dense sweep plus :func:`reduce_answer` would, in O(log) engine
evaluations instead of O(grid).

Every probe batch goes through :func:`~repro.estimator.spec.run_specs`,
so the result store, the counts namespace, and the vectorized kernel make
repeated and resumed searches warm; with ``executor="queue"`` probe
batches dispatch through the crash-safe lease queue instead. The probe
trace (every evaluated spec hash + verdict) persists after every round as
a content-addressed ``repro-optimize-v1`` store document keyed on
:meth:`OptimizeSpec.content_hash` — an interrupted optimize resumes
bit-for-bit (probes re-answer from the result store; the serialized
result carries no execution provenance), and re-submitting an equivalent
spec answers from the store with zero evaluations.

Optimize documents are JSON (the ``repro optimize`` CLI subcommand and
the service's ``POST /v1/optimize`` job API both accept them)::

    {
      "base": {"program": {"name": "rsa_2048"}, "budget": 1e-3,
               "constraints": {"maxTFactories": 1}},
      "axes": [
        {"field": "qubit", "values": ["qubit_gate_ns_e3", "qubit_maj_ns_e4"]},
        {"field": "budget", "geom": {"start": 1e-9, "factor": 1.1, "count": 128}}
      ],
      "objective": "min-qubits",
      "constraints": {"maxRuntime_s": 86400}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Mapping, Sequence

from .engine import ExecutionEngine, engine_scope
from .result import PhysicalResourceEstimates
from .spec import run_specs
from .store import OPTIMIZE_DOC_SCHEMA
from .sweep import (
    FRONTIER_OBJECTIVES,
    SweepAxis,
    SweepSpec,
    pareto_min_indices,
    run_sweep,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..registry import Registry
    from .batch import EstimateCache
    from .store import ResultStore

__all__ = [
    "OPTIMIZE_SCHEMA",
    "OptimizeConstraints",
    "OptimizeProbe",
    "OptimizeProgress",
    "OptimizeResult",
    "OptimizeSpec",
    "reduce_answer",
    "run_optimize",
]

#: Version tag of the optimize canonical form (hashes, serialized
#: results, the store's probe-trace namespace).
OPTIMIZE_SCHEMA = OPTIMIZE_DOC_SCHEMA

#: Columns at or below this length are probed exhaustively — below it
#: adaptive bookkeeping costs more than it saves, and exhaustive columns
#: make the answer exact regardless of monotone structure.
EXHAUSTIVE_LIMIT = 16

#: Metric names the objective/constraint vocabulary draws from.
_METRIC_RUNTIME = "runtime_s"
_METRIC_QUBITS = "physicalQubits"

#: objective -> (primary metric, secondary tie-break metric), matching
#: the dense sweep's ``min-*`` frontier tie-breaking exactly.
_OBJECTIVE_METRICS = {
    "min-qubits": (_METRIC_QUBITS, _METRIC_RUNTIME),
    "min-runtime": (_METRIC_RUNTIME, _METRIC_QUBITS),
}


def _metric(result: PhysicalResourceEstimates, name: str) -> float:
    if name == _METRIC_RUNTIME:
        return result.runtime_seconds
    if name == _METRIC_QUBITS:
        return float(result.physical_qubits)
    raise ValueError(f"unknown metric {name!r}")  # pragma: no cover


@dataclass(frozen=True)
class OptimizeConstraints:
    """Declarative feasibility bounds on the answer's metrics.

    Both are inclusive upper bounds; ``None`` means unconstrained. These
    constrain the *answer* (which probed points count as feasible) — the
    spec-level :class:`~repro.estimator.constraints.Constraints` inside
    ``base`` constrain the *estimator* per point, as everywhere else.
    """

    max_runtime_s: float | None = None
    max_physical_qubits: float | None = None

    def __post_init__(self) -> None:
        for name, value in (
            ("maxRuntime_s", self.max_runtime_s),
            ("maxPhysicalQubits", self.max_physical_qubits),
        ):
            if value is None:
                continue
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or value <= 0
            ):
                raise ValueError(
                    f"constraint {name!r} must be a positive number, got {value!r}"
                )

    def bounds(self) -> list[tuple[str, float]]:
        """The active constraints as (metric name, inclusive bound)."""
        out: list[tuple[str, float]] = []
        if self.max_runtime_s is not None:
            out.append((_METRIC_RUNTIME, float(self.max_runtime_s)))
        if self.max_physical_qubits is not None:
            out.append((_METRIC_QUBITS, float(self.max_physical_qubits)))
        return out

    def satisfied(self, result: PhysicalResourceEstimates) -> bool:
        return all(_metric(result, name) <= bound for name, bound in self.bounds())

    def to_dict(self) -> dict[str, Any]:
        return {
            "maxRuntime_s": self.max_runtime_s,
            "maxPhysicalQubits": self.max_physical_qubits,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "OptimizeConstraints":
        if not isinstance(data, dict):
            raise ValueError(
                f"optimize 'constraints' must be a JSON object, got {data!r}"
            )
        unknown = set(data) - {"maxRuntime_s", "maxPhysicalQubits"}
        if unknown:
            raise ValueError(f"unknown optimize constraints {sorted(unknown)}")
        return cls(
            max_runtime_s=data.get("maxRuntime_s"),
            max_physical_qubits=data.get("maxPhysicalQubits"),
        )


@dataclass(frozen=True, eq=False)
class OptimizeSpec:
    """A declarative inverse-design question over a one- or two-axis grid.

    ``axes``/``base`` have exactly the sweep vocabulary (dotted field
    paths, ``values``/``range``/``geom``, registry-name sugar); the
    implied search space is the cartesian grid
    (:meth:`sweep_spec` is the equivalent dense sweep). ``label`` is
    display metadata, excluded from :meth:`content_hash`.
    """

    axes: tuple[SweepAxis, ...]
    objective: str
    base: Mapping[str, Any] = field(default_factory=dict)
    constraints: OptimizeConstraints = field(default_factory=OptimizeConstraints)
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        if not 1 <= len(self.axes) <= 2:
            raise ValueError(
                f"an optimize takes one or two axes, got {len(self.axes)}"
            )
        if self.objective not in FRONTIER_OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; "
                f"available: {list(FRONTIER_OBJECTIVES)}"
            )
        if not isinstance(self.constraints, OptimizeConstraints):
            raise ValueError(
                "optimize constraints must be an OptimizeConstraints, got "
                f"{type(self.constraints).__name__}"
            )
        # The dense-grid equivalent validates axes and base eagerly and
        # owns the expansion every other method shares.
        sweep = SweepSpec(axes=self.axes, base=self.base, mode="cartesian")
        object.__setattr__(self, "base", sweep.base)
        object.__setattr__(self, "_sweep", sweep)

    def sweep_spec(self) -> SweepSpec:
        """The equivalent dense sweep (the grid this search refines over)."""
        return self._sweep  # type: ignore[attr-defined]

    def num_points(self) -> int:
        return self.sweep_spec().num_points()

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": OPTIMIZE_SCHEMA,
            "base": json.loads(json.dumps(dict(self.base))),
            "axes": [axis.to_dict() for axis in self.axes],
            "objective": self.objective,
            "constraints": self.constraints.to_dict(),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "OptimizeSpec":
        if not isinstance(data, dict):
            raise ValueError(
                f"an optimize must be a JSON object, got {type(data).__name__}"
            )
        known = {"schema", "base", "axes", "objective", "constraints", "label"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown optimize fields {sorted(unknown)}; known: {sorted(known)}"
            )
        schema = data.get("schema")
        if schema is not None and schema != OPTIMIZE_SCHEMA:
            raise ValueError(
                f"unsupported optimize schema {schema!r}; "
                f"expected {OPTIMIZE_SCHEMA!r}"
            )
        raw_axes = data.get("axes")
        if not isinstance(raw_axes, list) or not raw_axes:
            raise ValueError("an optimize needs a non-empty 'axes' list")
        raw_objective = data.get("objective")
        if not isinstance(raw_objective, str):
            raise ValueError(
                "an optimize needs an 'objective' "
                f"(one of {list(FRONTIER_OBJECTIVES)})"
            )
        base = data.get("base", {})
        if not isinstance(base, dict):
            raise ValueError("optimize 'base' must be a JSON object")
        raw_constraints = data.get("constraints")
        constraints = (
            OptimizeConstraints.from_dict(raw_constraints)
            if raw_constraints
            else OptimizeConstraints()
        )
        return cls(
            axes=tuple(SweepAxis.from_dict(axis) for axis in raw_axes),
            objective=raw_objective,
            base=base,
            constraints=constraints,
            label=data.get("label"),
        )

    # -- content addressing ------------------------------------------------

    def content_hash(self, registry: "Registry | None" = None) -> str:
        """SHA-256 identity of the question (the probe-trace store key).

        Covers the expanded grid — each point's coordinates plus its
        *resolved* spec hash, exactly like the sweep hash — the objective,
        and the constraints. ``label`` is excluded and equivalent axis
        spellings hash identically, so one finished optimize answers every
        equivalent resubmission.
        """
        import hashlib

        from .spec import SPEC_SCHEMA

        points = []
        for point in self.sweep_spec().expand():
            try:
                spec_hash = point.spec.content_hash(registry)
            except KeyError:
                spec_hash = point.spec.content_hash()  # unresolvable names
            points.append(
                {"coords": [[f, v] for f, v in point.coords], "spec": spec_hash}
            )
        canonical = {
            "schema": OPTIMIZE_SCHEMA,
            "specSchema": SPEC_SCHEMA,
            "objective": self.objective,
            "constraints": self.constraints.to_dict(),
            "points": points,
        }
        payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(f"{OPTIMIZE_SCHEMA}\n{payload}".encode()).hexdigest()


@dataclass(frozen=True, eq=False)
class OptimizeProbe:
    """One evaluated grid point: spec hash, estimate, and its verdict.

    ``index`` is the point's position in the dense grid
    (:meth:`OptimizeSpec.sweep_spec` expansion order). ``feasible`` is
    the answer-level verdict: estimation succeeded *and* every optimize
    constraint holds. ``from_store`` is execution provenance — excluded
    from :meth:`to_dict` so a resumed optimize serializes bit-for-bit
    equal to an uninterrupted one.
    """

    index: int
    coords: tuple[tuple[str, Any], ...]
    label: str | None
    spec_hash: str
    result: PhysicalResourceEstimates | None
    error: str | None
    feasible: bool
    from_store: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "coords": {field_path: value for field_path, value in self.coords},
            "label": self.label,
            "specHash": self.spec_hash,
            "ok": self.ok,
            "feasible": self.feasible,
            "result": self.result.to_dict() if self.result is not None else None,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, entry: dict[str, Any], fields: Sequence[str]) -> "OptimizeProbe":
        return cls(
            index=entry["index"],
            coords=tuple(
                (field_path, entry["coords"][field_path]) for field_path in fields
            ),
            label=entry.get("label"),
            spec_hash=entry["specHash"],
            result=(
                PhysicalResourceEstimates.from_dict(entry["result"])
                if entry.get("result") is not None
                else None
            ),
            error=entry.get("error"),
            feasible=bool(entry.get("feasible")),
        )


@dataclass(frozen=True)
class OptimizeProgress:
    """One progress event, emitted after each persisted probe round."""

    round: int
    requested: int
    probes: int
    evaluations: int
    from_store: int
    feasible: int


@dataclass(eq=False)
class OptimizeResult:
    """A finished optimize: the probe trace plus the answer points.

    ``answer`` holds dense-grid indices into the question's grid; each
    one is backed by a probe in :attr:`probes` (sorted by index).
    ``num_evaluations`` / ``from_trace`` are execution provenance — how
    many probes actually ran the engine (store hits excluded) and whether
    the whole answer came from a stored trace — excluded from
    :meth:`to_dict`.
    """

    optimize_hash: str
    spec: OptimizeSpec
    probes: list[OptimizeProbe]
    answer: tuple[int, ...]
    num_evaluations: int = 0
    from_trace: bool = False

    @property
    def num_feasible(self) -> int:
        return sum(1 for probe in self.probes if probe.feasible)

    def answer_probes(self) -> list[OptimizeProbe]:
        by_index = {probe.index: probe for probe in self.probes}
        return [by_index[index] for index in self.answer]

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON form — independent of execution history."""
        return {
            "schema": OPTIMIZE_SCHEMA,
            "optimizeHash": self.optimize_hash,
            "optimize": self.spec.to_dict(),
            "counts": {
                "grid": self.spec.num_points(),
                "probes": len(self.probes),
                "feasible": self.num_feasible,
            },
            "probes": [probe.to_dict() for probe in self.probes],
            "answer": {
                "objective": self.spec.objective,
                "points": list(self.answer),
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "OptimizeResult":
        if not isinstance(data, dict) or data.get("schema") != OPTIMIZE_SCHEMA:
            raise ValueError(f"not a {OPTIMIZE_SCHEMA} optimize result document")
        spec = OptimizeSpec.from_dict(data["optimize"])
        fields = [axis.field for axis in spec.axes]
        answer = data.get("answer")
        if not isinstance(answer, dict) or not isinstance(
            answer.get("points"), list
        ):
            raise ValueError("optimize result document has no answer")
        return cls(
            optimize_hash=data["optimizeHash"],
            spec=spec,
            probes=[
                OptimizeProbe.from_dict(entry, fields) for entry in data["probes"]
            ],
            answer=tuple(answer["points"]),
        )


def reduce_answer(
    objective: str,
    constraints: OptimizeConstraints,
    points: Sequence[tuple[int, PhysicalResourceEstimates | None]],
) -> tuple[int, ...]:
    """The reference reduction: answer indices over evaluated points.

    ``points`` are (dense index, result-or-None) pairs in ascending index
    order; infeasible and failed points are dropped, then the objective
    is applied with exactly the dense sweep's tie-breaking — min
    objectives by (primary metric, secondary metric, index), the
    ``qubits-runtime`` frontier by :func:`pareto_min_indices`. Running
    this over a full dense grid defines the answer :func:`run_optimize`
    must reproduce; the optimizer itself uses it to combine per-column
    winners, so both paths share one tie-break.
    """
    feasible = [
        (index, result)
        for index, result in points
        if result is not None and constraints.satisfied(result)
    ]
    if not feasible:
        return ()
    if objective == "qubits-runtime":
        keep = pareto_min_indices(
            [
                (result.runtime_seconds, float(result.physical_qubits))
                for _, result in feasible
            ]
        )
        return tuple(feasible[k][0] for k in keep)
    primary, secondary = _OBJECTIVE_METRICS[objective]
    best = min(
        feasible,
        key=lambda item: (
            _metric(item[1], primary),
            _metric(item[1], secondary),
            item[0],
        ),
    )
    return (best[0],)


def _ascending_numeric(values: Sequence[Any]) -> bool:
    """True when the axis is a strictly ascending numeric ladder."""
    if any(
        not isinstance(v, (int, float)) or isinstance(v, bool) for v in values
    ):
        return False
    return all(a < b for a, b in zip(values, values[1:]))


def _axis_directions(
    axis: SweepAxis, base: Mapping[str, Any], axis_fields: Sequence[str]
) -> dict[str, int]:
    """Known metric monotonicity along one axis: metric -> -1 / +1.

    ``-1`` means the metric is non-increasing as the axis index grows,
    ``+1`` non-decreasing. Only directions backed by the invariant suite
    (``tests/test_invariants.py``) or by model structure are claimed:

    * ``budget`` / ``budget.total`` (ascending = loosening): with *free*
      T-factory parallelism the engine adds factory copies to hold the
      algorithm-bound runtime, which is monotone non-increasing (proven);
      total qubits are not monotone there by design. With
      ``maxTFactories == 1`` pinned the roles flip: physical qubits are
      monotone non-increasing (proven), while the factory-bound runtime
      wiggles locally with the budget split and gets *no* claimed
      direction. The two structures are mutually exclusive — claiming
      both was observably wrong on fine ladders.
    * ``constraints.logicalDepthFactor`` (ascending = slower): runtime is
      non-decreasing — it scales the logical cycle count directly.
      Physical qubits are *not* claimed: stretching the schedule sheds T
      factories, but the extra cycles can push the code distance up a
      step and the algorithm's footprint with it, so the trade is only
      piecewise monotone.

    Everything else — and any non-ascending or non-numeric ladder —
    returns no structure, sending the search to bounded grid refinement.
    """
    if not _ascending_numeric(axis.values) or len(axis.values) < 2:
        return {}
    if axis.field in ("budget", "budget.total"):
        if "constraints.maxTFactories" in axis_fields:
            return {}
        base_constraints = base.get("constraints") or {}
        pinned = (
            base_constraints.get("maxTFactories")
            if isinstance(base_constraints, Mapping)
            else None
        )
        if pinned is None:
            return {_METRIC_RUNTIME: -1}
        if pinned == 1:
            return {_METRIC_QUBITS: -1}
        return {}
    if axis.field == "constraints.logicalDepthFactor":
        return {_METRIC_RUNTIME: 1}
    return {}


#: A column strategy: a generator that yields batches of dense indices to
#: probe and returns its candidate indices (or None) when exhausted.
_Strategy = Generator[list[int], None, Any]


class _Search:
    """The adaptive driver's state: grid geometry, probes, strategies.

    The grid is organized into *columns*: the inner axis (the one with
    the most known monotone structure; the longer one on ties) varies
    within a column, the outer axis — iterated exhaustively — picks the
    column. Each column runs one strategy generator; the driver advances
    all of them in lock-step rounds so their probe requests batch into
    single ``run_specs`` (or queue) dispatches.
    """

    def __init__(self, spec: OptimizeSpec) -> None:
        self.spec = spec
        self.points = spec.sweep_spec().expand()
        self.bounds = spec.constraints.bounds()
        self.probes: dict[int, OptimizeProbe] = {}
        axes = spec.axes
        axis_fields = [axis.field for axis in axes]
        directions = [
            _axis_directions(axis, spec.base, axis_fields) for axis in axes
        ]
        if len(axes) == 1:
            inner = 0
        else:
            inner = max(
                range(2),
                key=lambda k: (len(directions[k]), len(axes[k].values), k),
            )
        self.inner_dirs = directions[inner]
        n_inner = len(axes[inner].values)
        n_outer = 1 if len(axes) == 1 else len(axes[1 - inner].values)
        if len(axes) == 1:
            index_of = lambda o, i: i  # noqa: E731
        elif inner == 1:
            index_of = lambda o, i: o * n_inner + i  # noqa: E731
        else:
            index_of = lambda o, i: i * n_outer + o  # noqa: E731
        self.columns = [
            [index_of(o, i) for i in range(n_inner)] for o in range(n_outer)
        ]

    # -- probe views -------------------------------------------------------

    def _feasible(self, index: int) -> bool:
        return self.probes[index].feasible

    def _value(self, index: int, metric: str) -> float:
        result = self.probes[index].result
        assert result is not None
        return _metric(result, metric)

    def _min_key(self, index: int) -> tuple[float, float, int]:
        primary, secondary = _OBJECTIVE_METRICS[self.spec.objective]
        return (self._value(index, primary), self._value(index, secondary), index)

    # -- generic search steps ----------------------------------------------

    def _bisect_first(
        self, col: list[int], lo: int, hi: int, pred: Callable[[int], bool]
    ) -> _Strategy:
        """First position in [lo, hi] where ``pred`` holds, by bisection.

        Assumes ``pred`` is monotone (False then True along the column)
        and already True at ``hi``; both endpoints must be probed.
        """
        if pred(lo):
            return lo
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if col[mid] not in self.probes:
                yield [col[mid]]
            if pred(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def _probe_all(self, indices: Sequence[int]) -> _Strategy:
        missing = [index for index in indices if index not in self.probes]
        if missing:
            yield missing

    # -- column strategies -------------------------------------------------

    def column_strategy(self, col: list[int]) -> _Strategy:
        if self.spec.objective == "qubits-runtime":
            return self._column_frontier(col)
        return self._column_min(col)

    def _column_min(self, col: list[int]) -> _Strategy:
        """One column of a min objective: the column's winning index.

        With monotone structure for the objective and every active
        constraint, bisects the feasibility window and the objective /
        tie-break plateaus — O(log n) probes for the exact point the
        dense reduction would pick. Any observed violation of the claimed
        structure (a failed probe where monotonicity promises success)
        falls back to :meth:`_refine_min` over the window.
        """
        n = len(col)
        primary, secondary = _OBJECTIVE_METRICS[self.spec.objective]
        dirs = self.inner_dirs
        structured = (
            n > EXHAUSTIVE_LIMIT
            and primary in dirs
            and all(metric in dirs for metric, _ in self.bounds)
        )
        if not structured:
            return (yield from self._refine_min(col))
        yield from self._probe_all((col[0], col[-1]))

        def clear(pos: int, metric: str, bound: float) -> bool:
            probe = self.probes[col[pos]]
            return probe.ok and _metric(probe.result, metric) <= bound

        lo, hi = 0, n - 1
        for metric, bound in self.bounds:
            if dirs[metric] < 0:
                # Metric falls along the column: feasibility is a suffix.
                if not clear(n - 1, metric, bound):
                    return None
                first = yield from self._bisect_first(
                    col, 0, n - 1, lambda pos: clear(pos, metric, bound)
                )
                lo = max(lo, first)
            else:
                # Metric rises: feasibility is a prefix.
                if not clear(0, metric, bound):
                    return None
                if clear(n - 1, metric, bound):
                    continue
                first_bad = yield from self._bisect_first(
                    col, 0, n - 1, lambda pos: not clear(pos, metric, bound)
                )
                hi = min(hi, first_bad - 1)
        if lo > hi:
            return None
        yield from self._probe_all((col[lo], col[hi]))
        window = col[lo : hi + 1]
        direction = dirs[primary]
        end = hi if direction < 0 else lo
        if not self._feasible(col[end]):
            return (yield from self._refine_min(window))
        target = self._value(col[end], primary)

        def on_plateau(pos: int) -> bool:
            probe = self.probes[col[pos]]
            return probe.ok and _metric(probe.result, primary) == target

        sdir = dirs.get(secondary)
        if direction < 0:
            # Optimum at the top; the primary-equality plateau is the
            # suffix [first, hi]. The dense tie-break wants the smallest
            # index with minimal (primary, secondary).
            first = yield from self._bisect_first(col, lo, hi, on_plateau)
            if sdir is not None and sdir < 0:
                starget = self._value(col[hi], secondary)
                winner = yield from self._bisect_first(
                    col,
                    first,
                    hi,
                    lambda pos: on_plateau(pos)
                    and self._value(col[pos], secondary) == starget,
                )
            elif sdir is not None:
                winner = first  # secondary rises: minimal at plateau start
            else:
                yield from self._probe_all(col[first : hi + 1])
                winner = min(
                    (
                        pos
                        for pos in range(first, hi + 1)
                        if on_plateau(pos) and self._feasible(col[pos])
                    ),
                    key=lambda pos: (self._value(col[pos], secondary), pos),
                )
        else:
            # Optimum at the bottom; the plateau is the prefix [lo, last].
            if on_plateau(hi):
                last = hi
            else:
                first_off = yield from self._bisect_first(
                    col, lo, hi, lambda pos: not on_plateau(pos)
                )
                last = first_off - 1
            if sdir is not None and sdir > 0:
                winner = lo  # secondary rises too: plateau start wins both
            elif sdir is not None:
                yield from self._probe_all((col[last],))
                starget = self._value(col[last], secondary)
                winner = yield from self._bisect_first(
                    col,
                    lo,
                    last,
                    lambda pos: on_plateau(pos)
                    and self._value(col[pos], secondary) == starget,
                )
            else:
                yield from self._probe_all(col[lo : last + 1])
                winner = min(
                    (
                        pos
                        for pos in range(lo, last + 1)
                        if on_plateau(pos) and self._feasible(col[pos])
                    ),
                    key=lambda pos: (self._value(col[pos], secondary), pos),
                )
        if not self._feasible(col[winner]):
            return (yield from self._refine_min(window))
        return col[winner]

    def _refine_min(self, col: list[int]) -> _Strategy:
        """Bounded local grid refinement for unstructured columns.

        Short columns are probed exhaustively (exact). Longer ones start
        from a coarse stride lattice and repeatedly probe the +-stride
        neighborhoods of the two best feasible candidates at halving
        strides — exact on unimodal data, best-effort otherwise, and
        always answering with an actually-probed feasible point. A
        lattice with no feasible point at all degrades to the exhaustive
        scan, so "no feasible answer" is never claimed adaptively.
        """
        n = len(col)
        if n <= EXHAUSTIVE_LIMIT:
            yield from self._probe_all(col)
            explored = set(range(n))
        else:
            stride = max(1, n // 8)
            explored = set(range(0, n, stride)) | {n - 1}
            yield from self._probe_all([col[pos] for pos in sorted(explored)])
            while stride > 1:
                stride = max(1, stride // 2)
                seeds = sorted(
                    (pos for pos in explored if self._feasible(col[pos])),
                    key=lambda pos: self._min_key(col[pos]),
                )[:2]
                if not seeds:
                    yield from self._probe_all(col)
                    explored = set(range(n))
                    break
                new = {
                    pos
                    for seed in seeds
                    for pos in range(
                        max(0, seed - stride), min(n, seed + stride + 1)
                    )
                } - explored
                if new:
                    yield from self._probe_all([col[pos] for pos in sorted(new)])
                    explored |= new
        feasible = [pos for pos in sorted(explored) if self._feasible(col[pos])]
        if not feasible:
            return None
        return col[min(feasible, key=lambda pos: self._min_key(col[pos]))]

    def _column_frontier(self, col: list[int]) -> _Strategy:
        """One column of the ``qubits-runtime`` objective: its frontier.

        Successively refines around the Pareto knees: from a coarse
        lattice, probe the +-stride neighborhoods of the current frontier
        members, halving the stride whenever a sweep adds nothing, until
        the stride-1 neighborhoods are exhausted. Returns the column's
        frontier members among all feasible probes.
        """
        n = len(col)
        if n <= EXHAUSTIVE_LIMIT:
            yield from self._probe_all(col)
            explored = set(range(n))
        else:
            stride = max(1, n // 8)
            explored = set(range(0, n, stride)) | {n - 1}
            yield from self._probe_all([col[pos] for pos in sorted(explored)])
            while True:
                members = self._frontier_positions(col, sorted(explored))
                if not members and stride == 1:
                    # No feasible probe anywhere: prove it exhaustively.
                    yield from self._probe_all(col)
                    explored = set(range(n))
                    break
                new = {
                    pos
                    for member in members
                    for pos in range(
                        max(0, member - stride), min(n, member + stride + 1)
                    )
                } - explored
                if not new:
                    if stride == 1:
                        break
                    stride = max(1, stride // 2)
                    continue
                yield from self._probe_all([col[pos] for pos in sorted(new)])
                explored |= new
        return [
            col[pos] for pos in self._frontier_positions(col, sorted(explored))
        ]

    def _frontier_positions(
        self, col: list[int], positions: Sequence[int]
    ) -> list[int]:
        feasible = [pos for pos in positions if self._feasible(col[pos])]
        keep = pareto_min_indices(
            [
                (
                    self._value(col[pos], _METRIC_RUNTIME),
                    self._value(col[pos], _METRIC_QUBITS),
                )
                for pos in feasible
            ]
        )
        return [feasible[k] for k in keep]


def stored_answer(store: "ResultStore", optimize_hash: str) -> dict[str, Any] | None:
    """The answer document of a finished probe trace in ``store``, or ``None``."""
    trace = store.get_optimize(optimize_hash)
    if (
        isinstance(trace, dict)
        and trace.get("status") == "done"
        and isinstance(trace.get("result"), dict)
    ):
        return trace["result"]
    return None


def run_optimize(
    spec: OptimizeSpec,
    *,
    registry: "Registry | None" = None,
    store: "ResultStore | None" = None,
    cache: "EstimateCache | None" = None,
    max_workers: int | None = 1,
    kernel: str = "auto",
    executor: str = "local",
    lease_ttl: float | None = None,
    progress: Callable[[OptimizeProgress], None] | None = None,
    lock: Any | None = None,
    engine: ExecutionEngine | None = None,
) -> OptimizeResult:
    """Answer an inverse-design question adaptively over its grid.

    Column strategies (bisection on monotone axes, knee refinement for
    frontiers, bounded local refinement otherwise — see :class:`_Search`)
    advance in lock-step rounds; each round's probe requests are deduped
    into one batch through :func:`run_specs` (``executor="local"``) or
    one zip-mode sweep through the crash-safe lease queue
    (``executor="queue"``), so the result store, counts namespace, and
    vectorized kernel serve every repeated probe. Both executors produce
    bit-for-bit identical results.

    With a ``store``, the probe trace persists after every round under
    the ``repro-optimize-v1`` namespace keyed on
    :meth:`OptimizeSpec.content_hash`: a killed optimize re-run resumes
    with its previous probes answered from the store (the serialized
    result is bit-for-bit equal to an uninterrupted run's), and re-running
    a *finished* question returns the stored answer with zero
    evaluations (``from_trace=True``).

    ``progress`` is called after each round; ``lock`` (any context
    manager) serializes probe batches with other users of a shared cache,
    exactly like ``run_sweep``. ``engine`` likewise mirrors
    ``run_sweep``: every probe round runs through one engine — with
    parallel workers, one persistent process pool — closed on return
    unless the ``engine`` was supplied by the caller.
    """
    from ..registry import default_registry

    resolved_registry = registry if registry is not None else default_registry()
    if executor not in ("local", "queue"):
        raise ValueError(f"unknown executor {executor!r}: use 'local' or 'queue'")
    if executor == "queue" and store is None:
        raise ValueError("executor='queue' requires a result store")
    optimize_hash = spec.content_hash(resolved_registry)
    if store is not None:
        answer = stored_answer(store, optimize_hash)
        if answer is not None:
            try:
                result = OptimizeResult.from_dict(answer)
            except (KeyError, TypeError, ValueError):
                pass  # corrupt or stale trace: recompute (and overwrite)
            else:
                result.from_trace = True
                return result

    search = _Search(spec)
    spec_document = spec.to_dict()
    rounds: list[dict[str, Any]] = []
    evaluations = from_store_total = 0
    def evaluate(indices: list[int], runner: ExecutionEngine) -> tuple[int, int]:
        """Probe a deduped batch of grid points; returns (evals, hits)."""
        specs = [search.points[index].spec for index in indices]
        if executor == "queue":
            hashes = []
            for point_spec in specs:
                try:
                    hashes.append(point_spec.content_hash(resolved_registry))
                except KeyError:
                    hashes.append(point_spec.content_hash())
            # A stored error document is a hit too, exactly as the local
            # executor's run_specs reports it (from_store on failures).
            already = [store.lookup(point_hash) is not None for point_hash in hashes]
            probe_sweep = SweepSpec(
                axes=tuple(
                    SweepAxis(
                        field=axis.field,
                        values=tuple(
                            dict(search.points[index].coords)[axis.field]
                            for index in indices
                        ),
                    )
                    for axis in spec.axes
                ),
                base=spec.base,
                mode="zip",
            )
            sweep_result = run_sweep(
                probe_sweep,
                registry=resolved_registry,
                store=store,
                cache=cache,
                max_workers=max_workers,
                kernel=kernel,
                executor="queue",
                lease_ttl=lease_ttl,
                lock=lock,
                engine=runner,
            )
            outcomes = [
                (point.spec_hash, point.result, point.error, hit)
                for point, hit in zip(sweep_result.points, already)
            ]
        else:
            outcomes = [
                (out.spec_hash, out.result, out.error, out.from_store)
                for out in run_specs(
                    specs,
                    registry=resolved_registry,
                    store=store,
                    cache=cache,
                    kernel=kernel,
                    engine=runner,
                )
            ]
        hits = 0
        for index, (spec_hash, result, error, hit) in zip(indices, outcomes):
            point = search.points[index]
            search.probes[index] = OptimizeProbe(
                index=index,
                coords=point.coords,
                label=point.spec.label,
                spec_hash=spec_hash,
                result=result,
                error=error,
                feasible=result is not None and spec.constraints.satisfied(result),
                from_store=hit,
            )
            hits += bool(hit)
        return len(indices) - hits, hits

    def persist(status: str, result: OptimizeResult | None = None) -> None:
        if store is None:
            return
        store.put_optimize(
            optimize_hash,
            {
                "status": status,
                "optimize": spec_document,
                "rounds": rounds,
                "probes": [
                    search.probes[index].to_dict()
                    for index in sorted(search.probes)
                ],
                "result": result.to_dict() if result is not None else None,
            },
        )

    strategies = [search.column_strategy(col) for col in search.columns]
    collected: list[Any] = [None] * len(strategies)
    pending: dict[int, list[int]] = {}
    for position, strategy in enumerate(strategies):
        try:
            pending[position] = next(strategy)
        except StopIteration as stop:
            collected[position] = stop.value
    round_number = 0
    # One engine serves every probe round; it spawns a pool only on the
    # first parallel batch, so a warm or all-store-hit run never does.
    with engine_scope(
        engine,
        max_workers=max_workers,
        store_root=store.root if store is not None else None,
    ) as runner:
        while pending:
            round_number += 1
            requested = sorted(
                {
                    index
                    for indices in pending.values()
                    for index in indices
                    if index not in search.probes
                }
            )
            if requested:
                round_evals, round_hits = evaluate(requested, runner)
                evaluations += round_evals
                from_store_total += round_hits
                rounds.append(
                    {
                        "round": round_number,
                        "requested": len(requested),
                        "evaluations": round_evals,
                        "fromStore": round_hits,
                    }
                )
                persist("running")
            if progress is not None:
                progress(
                    OptimizeProgress(
                        round=round_number,
                        requested=len(requested),
                        probes=len(search.probes),
                        evaluations=evaluations,
                        from_store=from_store_total,
                        feasible=sum(
                            1 for probe in search.probes.values() if probe.feasible
                        ),
                    )
                )
            for position in sorted(pending):
                try:
                    pending[position] = next(strategies[position])
                except StopIteration as stop:
                    collected[position] = stop.value
                    del pending[position]

    candidates: set[int] = set()
    for winner in collected:
        if winner is None:
            continue
        if isinstance(winner, list):
            candidates.update(winner)
        else:
            candidates.add(winner)
    answer = reduce_answer(
        spec.objective,
        spec.constraints,
        [(index, search.probes[index].result) for index in sorted(candidates)],
    )
    result = OptimizeResult(
        optimize_hash=optimize_hash,
        spec=spec,
        probes=[search.probes[index] for index in sorted(search.probes)],
        answer=answer,
        num_evaluations=evaluations,
    )
    persist("done", result)
    return result
