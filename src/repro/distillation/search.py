"""T-factory design search (paper Sec. III-D).

Given the required output T-state error rate, the designer enumerates
candidate pipelines — number of rounds, unit choice per round, physical
first round or not, and per-round code distances — and keeps the
feasible factory minimizing physical qubits, breaking ties by duration
and then by enumeration order. This mirrors the tool's exploration of
the "number of qubits versus runtime of the factories" trade-off and
exposes the full frontier for callers that want to pick differently.

The pipeline space does not depend on the required error, so each
(qubit, scheme) pair is searched once into a :class:`FactoryCatalog`:

* every candidate's ``(physical_qubits, duration_ns, output_error_rate)``
  comes from one depth-first walk per unit tuple, without building a
  factory: candidates sharing a round prefix share its forward step and
  footprint (sibling families, whose last units take as many inputs,
  share one footprint), an infeasible prefix skips its subtree, and a
  leaf costs one memoized unit outcome plus one footprint lookup
  (:class:`_CatalogWalk`);
* in preference order ``(physical_qubits, duration_ns, enumeration
  index)`` — two stable sorts on scalar keys — a candidate is kept only
  if no earlier one has both an output error and a duration at most its
  own: the Pareto set, a few hundred of ~10k candidates;
* along that order the strict prefix minima of the output error form a
  staircase, so :meth:`TFactoryDesigner.design` is one bisection, shared
  with the vectorized kernel (:mod:`repro.estimator.kernel`);
* a kept candidate stays a scan tuple until it is read: only the
  entries ``design``, ``frontier`` or the kernel hand out are built with
  :func:`~repro.distillation.factory.evaluate_pipeline` (a Fig. 3/4 pass
  builds 11 of the six catalogs' 905).
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Sequence

from ..formulas import Formula
from ..qec import QECScheme
from ..qubits import PhysicalQubitParams
from .factory import DistillationRound, TFactory, TFactoryError, evaluate_pipeline
from .units import PREDEFINED_UNITS, DistillationUnit

#: A pipeline before evaluation: ``(unit, code distance or None)`` per round.
_Spec = tuple[tuple[DistillationUnit, "int | None"], ...]


#: A scanned candidate: ``(physical_qubits, duration_ns,
#: output_error_rate, (prefix, unit), distance)``, the pipeline
#: ``prefix + ((unit, distance),)``.
_Candidate = tuple[int, float, float, tuple[_Spec, DistillationUnit], "int | None"]


def _odd_distances(limit: int) -> list[int]:
    return list(range(1, limit + 1, 2))


class _CatalogWalk:
    """Candidate pipelines of one (qubit, scheme) pair, walked depth first.

    A node is a round prefix; its children append one round of the next
    unit at each distance not below the prefix's last one. The walk
    follows :func:`evaluate_pipeline` operation for operation, so the
    numbers are the ones a built factory would carry, but shares work
    along the tree:

    * a prefix's forward step (failure and output error) is computed once
      for its whole subtree, and an infeasible prefix skips the subtree;
    * a *family* — a fixed prefix plus its last unit, over all last
      distances — shares the unit multiplicities, the prefix's maximum
      round footprint and its round durations, and sibling families (one
      prefix, last units with equal ``num_input_ts``) share them too:
      they are memoized per prefix, keyed on unit identity and distance;
    * a family's feasible last rounds (distance, footprint, output
      error) are memoized per last unit, input error and first distance,
      so families that differ only in their prefix units share them;
    * unit outcomes are memoized per pair of formula trees (the
      predefined units share the 15-to-1 formulas), scheme values per
      distance and physical durations per formula.

    Every memo entry is filled where the per-candidate evaluation would
    first compute it — a leaf runs its forward step and, if feasible, its
    footprint before the next leaf, and a prefix's footprint needs no new
    value because the prefix itself is an earlier feasible candidate — so
    a custom formula that raises does so on the same candidate as a full
    evaluation would.
    """

    def __init__(self, qubit: PhysicalQubitParams, scheme: QECScheme) -> None:
        self.qubit = qubit
        self.scheme = scheme
        self.physical_env = qubit.formula_environment(1)
        self.logical_rates: dict[int, float] = {}
        self.qubits_per_logical: dict[int, int] = {}
        self.cycle_times: dict[int, float] = {}
        self.physical_durations: dict[Formula, float] = {}
        self.leaf_rounds: dict[tuple, list[tuple[int | None, int, float, float]]] = {}
        self.prefix_footprints: dict[tuple, tuple[int, tuple[float, ...]]] = {}
        self.outcomes: dict[tuple[Formula, Formula], dict] = {}
        self.found: list[_Candidate] = []

    def table(self, unit: DistillationUnit) -> dict:
        """Memoized ``unit.evaluate`` outcomes by ``(input error, Clifford
        error)``, shared by units with the same formulas."""
        return self.outcomes.setdefault(
            (unit.failure_probability, unit.output_error_rate), {}
        )

    def step(
        self, unit: DistillationUnit, table: dict, error_rate: float, d: int | None
    ) -> tuple[float, float] | None:
        """``(failure, output error)`` of one round, ``None`` if infeasible."""
        if d is None:
            clifford = self.qubit.clifford_error_rate
        else:
            clifford = self.logical_rates.get(d)
            if clifford is None:
                clifford = self.logical_rates[d] = self.scheme.logical_error_rate(
                    self.qubit, d
                )
        # 0.0 and -0.0 are one dict key; evaluate zeros directly.
        key = (error_rate, clifford)
        outcome = table.get(key) if error_rate and clifford else None
        if outcome is None:
            outcome = table[key] = unit.evaluate(error_rate, clifford)
        failure, out_error = outcome
        if failure >= 1.0 or (out_error >= error_rate and out_error >= 1.0):
            return None
        return outcome

    def descend(
        self,
        prefix: _Spec,
        key: tuple,
        failures: tuple[float, ...],
        error_rate: float,
        units: Sequence[DistillationUnit],
        distances: list[int],
        lo: int,
    ) -> None:
        """Walk the subtree below ``prefix``: ``units`` run at the
        non-decreasing distances from ``distances[lo:]``. ``key`` spells
        ``prefix`` as ``(id(unit), distance)`` pairs, flattened."""
        unit = units[0]
        if len(units) == 1:
            self.family(prefix, key, failures, error_rate, unit, distances[lo:])
            return
        table = self.table(unit)
        unit_id = id(unit)
        for i in range(lo, len(distances)):
            outcome = self.step(unit, table, error_rate, distances[i])
            if outcome is not None:
                self.descend(
                    prefix + ((unit, distances[i]),),
                    key + (unit_id, distances[i]),
                    failures + (outcome[0],),
                    outcome[1],
                    units[1:],
                    distances,
                    i,
                )

    def family(
        self,
        prefix: _Spec,
        key: tuple,
        failures: tuple[float, ...],
        error_rate: float,
        unit: DistillationUnit,
        distances: Sequence[int | None],
    ) -> None:
        """Record the feasible leaves ``prefix + ((unit, d),)``; ``key``
        names ``prefix`` as in :meth:`descend`."""
        leaves = self.leaves(unit, error_rate, distances)
        if not leaves:
            return
        family = (prefix, unit)
        # The prefix's footprint depends on the last unit only through
        # its inputs, so sibling families share one computation.
        key = (key, unit.num_input_ts)
        footprint = self.prefix_footprints.get(key)
        if footprint is None:
            footprint = self.prefix_footprints[key] = self.prefix_footprint(
                prefix, failures, unit
            )
        prefix_qubits, prefix_durations = footprint
        durations = [*prefix_durations, 0.0]
        record = self.found.append
        for d, qubits, durations[-1], out_error in leaves:
            # sum() over the round list, as evaluate_pipeline adds them:
            # on Python >= 3.12 a float sum() is compensated, not a fold.
            # The conditional is max() of two ints without the call.
            qubits = qubits if qubits > prefix_qubits else prefix_qubits
            record((qubits, sum(durations), out_error, family, d))

    def leaves(
        self, unit: DistillationUnit, error_rate: float, distances: Sequence[int | None]
    ) -> list[tuple[int | None, int, float, float]]:
        """``(distance, qubits, duration, output error)`` of each feasible
        last round running one ``unit`` on inputs of ``error_rate``.

        Memoized per unit, input error and first distance: families that
        differ only in their prefix units share it.
        """
        if not distances:
            return []
        key = (id(unit), error_rate, distances[0])
        # 0.0 and -0.0 are one dict key; recompute zeros, as step() does.
        rounds = self.leaf_rounds.get(key) if error_rate else None
        if rounds is None:
            table = self.table(unit)
            rounds = []
            for d in distances:
                outcome = self.step(unit, table, error_rate, d)
                if outcome is not None:
                    rounds.append((d, *self.footprint(unit, d, 1), outcome[1]))
            self.leaf_rounds[key] = rounds
        return rounds

    def prefix_footprint(
        self, prefix: _Spec, failures: tuple[float, ...], last: DistillationUnit
    ) -> tuple[int, tuple[float, ...]]:
        """Maximum footprint and per-round durations of ``prefix``'s rounds
        in a pipeline whose last round runs one ``last`` unit."""
        # Backward pass: unit multiplicities; the last round runs one.
        units = [unit for unit, _ in prefix] + [last]
        multiplicities = [1] * len(units)
        for i in range(len(prefix) - 1, -1, -1):
            needed_inputs = multiplicities[i + 1] * units[i + 1].num_input_ts
            produced_per_unit = units[i].num_output_ts * (1.0 - failures[i])
            multiplicities[i] = math.ceil(needed_inputs / produced_per_unit)
        qubits = 0
        durations: list[float] = []
        for (unit, d), mult in zip(prefix, multiplicities):
            round_qubits, duration = self.footprint(unit, d, mult)
            qubits = max(qubits, round_qubits)
            durations.append(duration)
        return qubits, tuple(durations)

    def footprint(
        self, unit: DistillationUnit, d: int | None, mult: int
    ) -> tuple[int, float]:
        """Physical qubits and duration of a round running ``mult`` units."""
        if d is None:
            assert unit.physical_spec is not None
            formula = unit.physical_spec.duration
            duration = self.physical_durations.get(formula)
            if duration is None:
                duration = self.physical_durations[formula] = formula.evaluate_positive(
                    self.physical_env
                )
            return mult * unit.physical_spec.num_qubits, duration
        assert unit.logical_spec is not None
        per_logical = self.qubits_per_logical.get(d)
        if per_logical is None:
            per_logical = self.qubits_per_logical[d] = self.scheme.physical_qubits(
                self.qubit, d
            )
        qubits = mult * unit.logical_spec.num_logical_qubits * per_logical
        cycle = self.cycle_times.get(d)
        if cycle is None:
            cycle = self.cycle_times[d] = self.scheme.cycle_time_ns(self.qubit, d)
        return qubits, unit.logical_spec.duration_in_cycles * cycle


class _ParetoSet:
    """A catalog's kept candidates, each built into a :class:`TFactory`
    the first time it is read.

    A build runs :func:`evaluate_pipeline` on the candidate's spec and
    checks that the factory carries the scanned numbers. ``built`` maps
    a candidate's position to its factory; ``dict.setdefault`` publishes
    it, so threads racing on one unbuilt entry all get the same object.
    """

    __slots__ = ("candidates", "qubit", "scheme", "built")

    def __init__(
        self,
        candidates: list[_Candidate],
        qubit: PhysicalQubitParams,
        scheme: QECScheme,
    ) -> None:
        self.candidates = candidates
        self.qubit = qubit
        self.scheme = scheme
        self.built: dict[int, TFactory] = {}

    def factory(self, i: int) -> TFactory:
        factory = self.built.get(i)
        if factory is None:
            qubits, duration, error, (prefix, unit), d = self.candidates[i]
            factory = evaluate_pipeline(
                [DistillationRound(u, dist) for u, dist in prefix + ((unit, d),)],
                self.qubit,
                self.scheme,
            )
            assert factory is not None and (
                factory.physical_qubits,
                factory.duration_ns,
                factory.output_error_rate,
            ) == (qubits, duration, error), "scan diverged from evaluate_pipeline"
            factory = self.built.setdefault(i, factory)
        return factory


class _Entries(SequenceABC):
    """A read-only sequence of :class:`_ParetoSet` entries, by position."""

    __slots__ = ("_pareto", "_positions")

    def __init__(self, pareto: _ParetoSet, positions: Sequence[int]) -> None:
        self._pareto = pareto
        self._positions = positions

    def __len__(self) -> int:
        return len(self._positions)

    def __getitem__(self, index: int) -> TFactory:  # type: ignore[override]
        return self._pareto.factory(self._positions[index])

    def scanned(self) -> list[tuple[float, float, int]]:
        """``(output_error_rate, duration_ns, output_t_states)`` of each
        entry, as scanned: reading them builds no factory."""
        candidates = self._pareto.candidates
        scanned = []
        for i in self._positions:
            _, duration, error, (_, unit), _ = candidates[i]
            scanned.append((error, duration, unit.num_output_ts))
        return scanned


@dataclass(frozen=True)
class FactoryCatalog:
    """The factories one (qubit, scheme) pair can ever be answered with.

    ``factories`` is the Pareto set over (output error, duration) in
    preference order ``(physical_qubits, duration_ns, enumeration
    index)``: no entry has an earlier one with both output error and
    duration at most its own. The first feasible candidate in preference
    order is always in it (for any required error), and so is every
    member of any :meth:`TFactoryDesigner.frontier`.

    ``staircase`` holds the entries of ``factories`` whose output error
    is below that of every earlier entry (the strict prefix minima), so
    its errors strictly decrease; ``neg_errors`` are their negations, in
    increasing order for :func:`bisect.bisect_left` or
    :func:`numpy.searchsorted`.

    Both are read-only sequences over the same scanned candidates: an
    entry is built with :func:`evaluate_pipeline` the first time it is
    read, and ``staircase`` and ``factories`` hand out that one object
    from then on. Their ``scanned()`` lists each entry's output error,
    duration and output T states without building it, which is how
    :meth:`TFactoryDesigner.frontier` and the vectorized kernel choose
    entries; a catalog build itself builds no factory.
    """

    factories: _Entries
    staircase: _Entries
    neg_errors: tuple[float, ...]


@dataclass(frozen=True)
class TFactoryDesigner:
    """Searches the distillation design space for a cheapest factory.

    Parameters
    ----------
    units:
        Unit library to draw from (defaults to the predefined 15-to-1
        variants).
    max_rounds:
        Maximum pipeline length. 15-to-1 cubes the input error per round,
        so even the noisiest predefined profile converges in 3 rounds.
    max_code_distance:
        Largest per-round code distance explored.

    A designer is immutable, so its cached catalogs always answer for its
    own settings; :func:`dataclasses.replace` makes a changed copy.
    """

    units: Sequence[DistillationUnit] = field(
        default_factory=lambda: tuple(PREDEFINED_UNITS.values())
    )
    max_rounds: int = 3
    max_code_distance: int = 35

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if not self.units:
            raise ValueError("unit library must not be empty")
        # One catalog per (qubit, scheme): the pipeline space does not
        # depend on the required output error, so sweeps (Fig. 3/4) search
        # it once and answer each query with a bisection.
        object.__setattr__(self, "_catalog_cache", {})

    def _catalog(self, qubit: PhysicalQubitParams, scheme: QECScheme) -> FactoryCatalog:
        """The (qubit, scheme) catalog: Pareto set plus staircase, cached.

        Candidates come from :meth:`_scan` in enumeration order and are
        sorted stably by duration, then stably by physical qubits, so the
        order is ``(physical_qubits, duration_ns, enumeration index)`` —
        the scalar scan's preference, where an earlier pipeline wins a
        tie. A candidate is dropped when an earlier one in that order has
        output error and duration both at most its own: for any
        requirement, the earlier one is feasible whenever it is, so it
        can be neither the first feasible candidate nor on a frontier.
        The test runs against a staircase of the candidates seen so far
        (error ascending, duration strictly descending), one bisection
        per candidate. Kept candidates stay scan tuples; each is built
        with ``evaluate_pipeline`` only when read (:class:`_ParetoSet`).
        """
        key = (qubit, scheme)
        catalog = self._catalog_cache.get(key)
        if catalog is None:
            candidates = self._scan(qubit, scheme)
            # Two stable scalar-key sorts: the same order as one sort on
            # (qubits, duration), at a fraction of the tuple-key cost.
            candidates.sort(key=itemgetter(1))
            candidates.sort(key=itemgetter(0))
            seen_errors: list[float] = []
            seen_durations: list[float] = []
            kept: list[_Candidate] = []
            stair: list[int] = []
            neg_errors: list[float] = []
            best = math.inf
            for candidate in candidates:
                _, duration, error, _, _ = candidate
                i = bisect.bisect_right(seen_errors, error)
                if i and seen_durations[i - 1] <= duration:
                    continue
                j = i
                while j < len(seen_errors) and seen_durations[j] >= duration:
                    j += 1
                seen_errors[i:j] = [error]
                seen_durations[i:j] = [duration]
                if error < best:
                    best = error
                    stair.append(len(kept))
                    neg_errors.append(-error)
                kept.append(candidate)
            pareto = _ParetoSet(kept, qubit, scheme)
            catalog = FactoryCatalog(
                factories=_Entries(pareto, range(len(kept))),
                staircase=_Entries(pareto, tuple(stair)),
                neg_errors=tuple(neg_errors),
            )
            # setdefault: threads racing on a first build share one catalog.
            catalog = self._catalog_cache.setdefault(key, catalog)
        return catalog

    def _scan(
        self, qubit: PhysicalQubitParams, scheme: QECScheme
    ) -> list[_Candidate]:
        """Every feasible candidate, in enumeration order, as
        ``(physical_qubits, duration_ns, output_error_rate, family,
        distance)``: the spec is ``prefix + ((unit, distance),)`` for
        ``family == (prefix, unit)``.

        One depth-first walk per unit tuple (see :class:`_CatalogWalk`).
        Its non-decreasing distance loops visit the candidates in
        :func:`itertools.combinations_with_replacement` order, the order
        :meth:`candidate_pipelines` yields them.
        """
        walk = _CatalogWalk(qubit, scheme)
        distances = _odd_distances(min(self.max_code_distance, scheme.max_code_distance))
        t_error = qubit.t_gate_error_rate
        for physical, logical in self._unit_tuples():
            if physical is None:
                walk.descend((), (), (), t_error, logical, distances, 0)
            elif not logical:
                walk.family((), (), (), t_error, physical, (None,))
            else:
                outcome = walk.step(physical, walk.table(physical), t_error, None)
                if outcome is not None:
                    failure, error_rate = outcome
                    head = ((physical, None),)
                    key = (id(physical), None)
                    walk.descend(
                        head, key, (failure,), error_rate, logical, distances, 0
                    )
        return walk.found

    def _unit_tuples(
        self,
    ) -> Iterator[tuple[DistillationUnit | None, tuple[DistillationUnit, ...]]]:
        """``(physical first-round unit or None, logical units)`` of each
        pipeline shape, in enumeration order: by number of rounds, then
        by unit choice per round."""
        logical_units = [u for u in self.units if u.logical_spec is not None]
        physical_units = [u for u in self.units if u.physical_spec is not None]
        # A first-round option is a physical unit (no distance) or a
        # logical unit (taking the first distance of the combination).
        first_round_options = [(u, True) for u in physical_units] + [
            (u, False) for u in logical_units
        ]
        for num_rounds in range(1, self.max_rounds + 1):
            for (first, physical), *rest in itertools.product(
                first_round_options, *[logical_units] * (num_rounds - 1)
            ):
                yield (first, tuple(rest)) if physical else (None, (first, *rest))

    def _candidate_specs(self, scheme: QECScheme) -> Iterator[_Spec]:
        """Candidate pipelines as ``(unit, distance)`` tuples, in the order
        :meth:`candidate_pipelines` yields them."""
        distances = _odd_distances(min(self.max_code_distance, scheme.max_code_distance))
        for physical, logical in self._unit_tuples():
            head: _Spec = () if physical is None else ((physical, None),)
            if not logical:
                yield head
                continue
            for combo in itertools.combinations_with_replacement(
                distances, len(logical)
            ):
                yield head + tuple(zip(logical, combo))

    def candidate_pipelines(
        self, qubit: PhysicalQubitParams, scheme: QECScheme
    ) -> Iterator[list[DistillationRound]]:
        """Yield structurally valid pipelines, without evaluating them.

        Distances are constrained to be non-decreasing across rounds:
        later rounds hold better T states, which would be wasted on a
        weaker code. This prunes the space without losing good designs.
        """
        for spec in self._candidate_specs(scheme):
            yield [DistillationRound(unit, d) for unit, d in spec]

    def design(
        self,
        qubit: PhysicalQubitParams,
        scheme: QECScheme,
        required_output_error_rate: float,
    ) -> TFactory:
        """Find the cheapest feasible factory for the target error rate.

        The answer is the first candidate meeting the requirement in the
        order ``(physical_qubits, duration_ns, enumeration index)``: one
        bisection over the catalog's staircase (see :meth:`_catalog`).
        Raises :class:`TFactoryError` if the requirement is not positive
        (NaN included) or no pipeline in the search space meets it.
        """
        if not required_output_error_rate > 0:  # NaN too: it meets no error
            raise TFactoryError(
                "required T-state error rate must be positive, got "
                f"{required_output_error_rate}"
            )
        scheme.check_compatible(qubit)

        catalog = self._catalog(qubit, scheme)
        index = bisect.bisect_left(catalog.neg_errors, -required_output_error_rate)
        if index == len(catalog.staircase):
            raise TFactoryError(
                f"no T factory in the search space reaches output error rate "
                f"{required_output_error_rate:.3e} on {qubit.name!r} with "
                f"scheme {scheme.name!r}; consider more rounds or a larger "
                "max code distance"
            )
        return catalog.staircase[index]

    def frontier(
        self,
        qubit: PhysicalQubitParams,
        scheme: QECScheme,
        required_output_error_rate: float,
    ) -> list[TFactory]:
        """All Pareto-optimal feasible factories (qubits vs duration).

        Feasible catalog entries in preference order, each kept if it is
        strictly faster than every one kept before it. The catalog's
        Pareto set holds every such factory, and any candidate that
        would block one is matched by a catalog entry that blocks it too.
        """
        entries = self._catalog(qubit, scheme).factories
        kept: list[int] = []
        fastest = math.inf
        for k, (error, duration, _) in enumerate(entries.scanned()):
            if error <= required_output_error_rate and (not kept or duration < fastest):
                kept.append(k)
                fastest = duration
        return [entries[k] for k in kept]


#: Shared default designer so parameter sweeps reuse its factory catalog
#: (the registry's ``default`` designer; :mod:`repro.estimator.stages`
#: re-exports it).
DEFAULT_DESIGNER = TFactoryDesigner()


def design_t_factory(
    qubit: PhysicalQubitParams,
    scheme: QECScheme,
    required_output_error_rate: float,
    **designer_options: object,
) -> TFactory:
    """Convenience wrapper: design a factory with default search settings."""
    designer = TFactoryDesigner(**designer_options)  # type: ignore[arg-type]
    return designer.design(qubit, scheme, required_output_error_rate)
