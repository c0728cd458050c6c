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
  is computed from per-distance and per-unit tables, without building a
  factory;
* in preference order ``(physical_qubits, duration_ns, enumeration
  index)`` a candidate is kept only if no earlier one has both an output
  error and a duration at most its own — the Pareto set, a few hundred
  of ~10k candidates; only those are built with
  :func:`~repro.distillation.factory.evaluate_pipeline`;
* along that order the strict prefix minima of the output error form a
  staircase, so :meth:`TFactoryDesigner.design` is one bisection, shared
  with the vectorized kernel (:mod:`repro.estimator.kernel`).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Sequence

from ..qec import QECScheme
from ..qubits import PhysicalQubitParams
from .factory import DistillationRound, TFactory, TFactoryError, evaluate_pipeline
from .units import PREDEFINED_UNITS, DistillationUnit

#: A pipeline before evaluation: ``(unit, code distance or None)`` per round.
_Spec = tuple[tuple[DistillationUnit, "int | None"], ...]


def _odd_distances(limit: int) -> list[int]:
    return list(range(1, limit + 1, 2))


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
    """

    factories: tuple[TFactory, ...]
    staircase: tuple[TFactory, ...]
    neg_errors: tuple[float, ...]


@dataclass
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
        self._catalog_cache: dict[tuple, FactoryCatalog] = {}

    def _catalog(self, qubit: PhysicalQubitParams, scheme: QECScheme) -> FactoryCatalog:
        """The (qubit, scheme) catalog: Pareto set plus staircase, cached.

        Candidates are ordered by ``(physical_qubits, duration_ns,
        enumeration index)`` — the scalar scan's preference, where an
        earlier pipeline wins a tie. A candidate is dropped when an
        earlier one in that order has output error and duration both at
        most its own: for any requirement, the earlier one is feasible
        whenever it is, so it can be neither the first feasible
        candidate nor on a frontier. The test runs against a staircase
        of the candidates seen so far (error ascending, duration strictly
        descending), one bisection per candidate.
        """
        key = (qubit, scheme)
        catalog = self._catalog_cache.get(key)
        if catalog is None:
            candidates = self._scan(qubit, scheme)
            candidates.sort(key=itemgetter(0, 1))  # stable: index breaks ties
            seen_errors: list[float] = []
            seen_durations: list[float] = []
            factories: list[TFactory] = []
            for qubits, duration, error, spec in candidates:
                i = bisect.bisect_right(seen_errors, error)
                if i and seen_durations[i - 1] <= duration:
                    continue
                j = i
                while j < len(seen_errors) and seen_durations[j] >= duration:
                    j += 1
                seen_errors[i:j] = [error]
                seen_durations[i:j] = [duration]
                factory = evaluate_pipeline(
                    [DistillationRound(unit, d) for unit, d in spec], qubit, scheme
                )
                assert factory is not None and (
                    factory.physical_qubits,
                    factory.duration_ns,
                    factory.output_error_rate,
                ) == (qubits, duration, error), "scan diverged from evaluate_pipeline"
                factories.append(factory)
            staircase: list[TFactory] = []
            for factory in factories:
                best = staircase[-1].output_error_rate if staircase else math.inf
                if factory.output_error_rate < best:
                    staircase.append(factory)
            catalog = FactoryCatalog(
                factories=tuple(factories),
                staircase=tuple(staircase),
                neg_errors=tuple(-f.output_error_rate for f in staircase),
            )
            self._catalog_cache[key] = catalog
        return catalog

    def _scan(
        self, qubit: PhysicalQubitParams, scheme: QECScheme
    ) -> list[tuple[int, float, float, _Spec]]:
        """``(physical_qubits, duration_ns, output_error_rate, spec)`` of
        every feasible candidate, in enumeration order.

        Follows :func:`evaluate_pipeline` operation for operation, so the
        numbers are the ones a built factory would carry. Scheme values
        per distance, physical unit durations and unit evaluations per
        input are computed once, at the point ``evaluate_pipeline`` would
        first compute them: a custom formula that raises does so on the
        same candidate as a full evaluation would.
        """
        t_error = qubit.t_gate_error_rate
        physical_clifford = qubit.clifford_error_rate
        physical_env = qubit.formula_environment(1)
        logical_rates: dict[int, float] = {}
        qubits_per_logical: dict[int, int] = {}
        cycle_times: dict[int, float] = {}
        physical_durations: dict[int, float] = {}
        outcomes: dict[tuple, tuple[float, float]] = {}
        found: list[tuple[int, float, float, _Spec]] = []
        for spec in self._candidate_specs(scheme):
            # Forward pass: error rates and per-unit failure.
            error_rate = t_error
            failures: list[float] = []
            for unit, d in spec:
                if d is None:
                    clifford = physical_clifford
                else:
                    clifford = logical_rates.get(d)
                    if clifford is None:
                        clifford = scheme.logical_error_rate(qubit, d)
                        logical_rates[d] = clifford
                # 0.0 and -0.0 are one dict key; evaluate zeros directly.
                memo = (id(unit), error_rate, clifford)
                outcome = outcomes.get(memo) if error_rate and clifford else None
                if outcome is None:
                    outcome = outcomes[memo] = unit.evaluate(error_rate, clifford)
                failure, out_error = outcome
                if failure >= 1.0 or (out_error >= error_rate and out_error >= 1.0):
                    break
                failures.append(failure)
                error_rate = out_error
            else:
                # Backward pass: unit multiplicities; the last round runs one.
                multiplicities = [1] * len(spec)
                for i in range(len(spec) - 2, -1, -1):
                    needed_inputs = multiplicities[i + 1] * spec[i + 1][0].num_input_ts
                    produced_per_unit = spec[i][0].num_output_ts * (1.0 - failures[i])
                    multiplicities[i] = math.ceil(needed_inputs / produced_per_unit)
                # Footprint and duration.
                qubits: list[int] = []
                durations: list[float] = []
                for (unit, d), mult in zip(spec, multiplicities):
                    if d is None:
                        assert unit.physical_spec is not None
                        qubits.append(mult * unit.physical_spec.num_qubits)
                        duration = physical_durations.get(id(unit))
                        if duration is None:
                            duration = unit.physical_spec.duration.evaluate_positive(
                                physical_env
                            )
                            physical_durations[id(unit)] = duration
                    else:
                        assert unit.logical_spec is not None
                        per_logical = qubits_per_logical.get(d)
                        if per_logical is None:
                            per_logical = scheme.physical_qubits(qubit, d)
                            qubits_per_logical[d] = per_logical
                        size = unit.logical_spec.num_logical_qubits
                        qubits.append(mult * size * per_logical)
                        cycle = cycle_times.get(d)
                        if cycle is None:
                            cycle = cycle_times[d] = scheme.cycle_time_ns(qubit, d)
                        duration = unit.logical_spec.duration_in_cycles * cycle
                    durations.append(duration)
                found.append((max(qubits), sum(durations), error_rate, spec))
        return found

    def _candidate_specs(self, scheme: QECScheme) -> Iterator[_Spec]:
        """Candidate pipelines as ``(unit, distance)`` tuples, in the order
        :meth:`candidate_pipelines` yields them."""
        logical_units = [u for u in self.units if u.logical_spec is not None]
        physical_units = [u for u in self.units if u.physical_spec is not None]
        distances = _odd_distances(min(self.max_code_distance, scheme.max_code_distance))
        # A first-round option is a physical unit (no distance) or a
        # logical unit (taking the first distance of the combination).
        first_round_options = [(u, True) for u in physical_units] + [
            (u, False) for u in logical_units
        ]
        for num_rounds in range(1, self.max_rounds + 1):
            for (first, physical), *rest in itertools.product(
                first_round_options, *[logical_units] * (num_rounds - 1)
            ):
                head: _Spec = ((first, None),) if physical else ()
                logical = rest if physical else [first, *rest]
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
        Raises :class:`TFactoryError` if no pipeline in the search space
        meets the requirement.
        """
        if required_output_error_rate <= 0:
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
        frontier: list[TFactory] = []
        for factory in self._catalog(qubit, scheme).factories:
            if factory.output_error_rate <= required_output_error_rate and (
                not frontier or factory.duration_ns < frontier[-1].duration_ns
            ):
                frontier.append(factory)
        return frontier


def design_t_factory(
    qubit: PhysicalQubitParams,
    scheme: QECScheme,
    required_output_error_rate: float,
    **designer_options: object,
) -> TFactory:
    """Convenience wrapper: design a factory with default search settings."""
    designer = TFactoryDesigner(**designer_options)  # type: ignore[arg-type]
    return designer.design(qubit, scheme, required_output_error_rate)
