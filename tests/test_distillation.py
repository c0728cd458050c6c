"""Tests for distillation units, pipeline evaluation, and factory search."""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.distillation import (
    DistillationRound,
    DistillationUnit,
    DistillationUnitError,
    LogicalUnitSpec,
    PhysicalUnitSpec,
    T15_RM_PREP,
    T15_SPACE_EFFICIENT,
    TFactoryDesigner,
    TFactoryError,
    design_t_factory,
    evaluate_pipeline,
)
from repro.formulas import Formula
from repro.qec import FLOQUET_CODE, SURFACE_CODE_GATE_BASED, default_scheme_for
from repro.qubits import (
    PREDEFINED_PROFILES,
    QUBIT_GATE_NS_E3,
    QUBIT_GATE_NS_E4,
    QUBIT_MAJ_NS_E4,
)


class TestUnits:
    def test_15_to_1_error_model(self):
        fail, out = T15_RM_PREP.evaluate(0.05, 1e-4)
        assert fail == pytest.approx(15 * 0.05 + 356 * 1e-4)
        assert out == pytest.approx(35 * 0.05**3 + 7.1 * 1e-4)

    def test_failure_probability_clamped(self):
        fail, _ = T15_RM_PREP.evaluate(0.5, 0.1)
        assert fail == 1.0

    def test_unit_must_distill(self):
        with pytest.raises(DistillationUnitError, match="consume more"):
            DistillationUnit(
                name="bad",
                num_input_ts=5,
                num_output_ts=5,
                failure_probability=Formula("inputErrorRate"),
                output_error_rate=Formula("inputErrorRate"),
                logical_spec=LogicalUnitSpec(num_logical_qubits=1, duration_in_cycles=1),
            )

    def test_unit_needs_some_spec(self):
        with pytest.raises(DistillationUnitError, match="spec"):
            DistillationUnit(
                name="nospec",
                num_input_ts=15,
                num_output_ts=1,
                failure_probability=Formula("inputErrorRate"),
                output_error_rate=Formula("inputErrorRate"),
            )

    def test_formulas_restricted_to_error_variables(self):
        with pytest.raises(DistillationUnitError, match="may only use"):
            DistillationUnit(
                name="leaky",
                num_input_ts=15,
                num_output_ts=1,
                failure_probability=Formula("codeDistance"),
                output_error_rate=Formula("inputErrorRate"),
                logical_spec=LogicalUnitSpec(num_logical_qubits=1, duration_in_cycles=1),
            )

    @pytest.mark.parametrize(
        "field, source, shown",
        [
            ("output_error_rate", "1e308 * 10 - 1e308 * 10", "nan"),
            ("output_error_rate", "1e308 * 10", "inf"),
            ("failure_probability", "1e308 * 10 - 1e308 * 10", "nan"),
            ("failure_probability", "1e308 * 10", "inf"),
        ],
    )
    def test_non_finite_formula_rejected(self, field, source, shown):
        # A NaN output error would compare as meeting every target.
        bad = T15_RM_PREP.customized(**{field: source})
        message = f"formula produced {shown}"
        with pytest.raises(DistillationUnitError, match=message):
            bad.evaluate(0.01, 1e-4)
        designer = TFactoryDesigner(units=(bad,), max_rounds=1)
        with pytest.raises(DistillationUnitError, match=message):
            designer.design(QUBIT_MAJ_NS_E4, FLOQUET_CODE, 1e-30)

    def test_customized(self):
        fatter = T15_SPACE_EFFICIENT.customized(
            logical_spec=LogicalUnitSpec(num_logical_qubits=31, duration_in_cycles=11)
        )
        assert fatter.logical_spec.num_logical_qubits == 31
        assert "customized" in fatter.name


class TestPipelineEvaluation:
    def test_single_physical_round(self):
        factory = evaluate_pipeline(
            [DistillationRound(T15_RM_PREP, None)], QUBIT_MAJ_NS_E4, FLOQUET_CODE
        )
        assert factory is not None
        assert factory.num_rounds == 1
        assert factory.physical_qubits == 31  # one unit, physical footprint
        assert factory.duration_ns == 23 * 100
        assert factory.output_t_states == 1
        assert factory.input_t_states == 15
        fail, out = T15_RM_PREP.evaluate(5e-2, 1e-4)
        assert factory.output_error_rate == pytest.approx(out)

    def test_two_round_pipeline_improves_error(self):
        one = evaluate_pipeline(
            [DistillationRound(T15_RM_PREP, None)], QUBIT_MAJ_NS_E4, FLOQUET_CODE
        )
        two = evaluate_pipeline(
            [
                DistillationRound(T15_RM_PREP, None),
                DistillationRound(T15_RM_PREP, 9),
            ],
            QUBIT_MAJ_NS_E4,
            FLOQUET_CODE,
        )
        assert two is not None and one is not None
        assert two.output_error_rate < one.output_error_rate
        assert two.duration_ns > one.duration_ns
        # Round 1 over-provisions for failures: >15 inputs needed for 15 good states.
        assert two.rounds[0].num_units > 15 // T15_RM_PREP.num_output_ts

    def test_physical_round_only_first(self):
        with pytest.raises(TFactoryError, match="round 1"):
            evaluate_pipeline(
                [
                    DistillationRound(T15_RM_PREP, 9),
                    DistillationRound(T15_RM_PREP, None),
                ],
                QUBIT_MAJ_NS_E4,
                FLOQUET_CODE,
            )

    def test_empty_pipeline_rejected(self):
        with pytest.raises(TFactoryError, match="at least one"):
            evaluate_pipeline([], QUBIT_MAJ_NS_E4, FLOQUET_CODE)

    def test_infeasible_error_rates_return_none(self):
        # With a 30% T error the 15-to-1 failure probability exceeds 1.
        noisy = QUBIT_MAJ_NS_E4.customized(t_gate_error_rate=0.3)
        got = evaluate_pipeline(
            [DistillationRound(T15_RM_PREP, None)], noisy, FLOQUET_CODE
        )
        assert got is None

    def test_logical_only_unit_needs_distance(self):
        with pytest.raises(TFactoryError, match="physical"):
            DistillationRound(T15_SPACE_EFFICIENT, None)

    def test_round_distance_must_be_odd(self):
        with pytest.raises(TFactoryError, match="odd"):
            DistillationRound(T15_RM_PREP, 4)

    def test_qubits_are_max_over_rounds_duration_is_sum(self):
        rounds = [
            DistillationRound(T15_RM_PREP, None),
            DistillationRound(T15_SPACE_EFFICIENT, 5),
        ]
        factory = evaluate_pipeline(rounds, QUBIT_MAJ_NS_E4, FLOQUET_CODE)
        assert factory is not None
        per_round_qubits = [r.physical_qubits for r in factory.rounds]
        per_round_durations = [r.duration_ns for r in factory.rounds]
        assert factory.physical_qubits == max(per_round_qubits)
        assert factory.duration_ns == sum(per_round_durations)

    def test_runs_required(self):
        factory = evaluate_pipeline(
            [DistillationRound(T15_RM_PREP, None)], QUBIT_MAJ_NS_E4, FLOQUET_CODE
        )
        assert factory is not None
        assert factory.runs_required(1) == 1
        assert factory.runs_required(10) == 10  # one output per run
        assert factory.runs_required(0) == 0


class TestDesigner:
    def test_design_meets_requirement(self):
        factory = design_t_factory(QUBIT_MAJ_NS_E4, FLOQUET_CODE, 1e-10)
        assert factory.output_error_rate <= 1e-10

    def test_design_minimizes_qubits(self):
        designer = TFactoryDesigner()
        best = designer.design(QUBIT_MAJ_NS_E4, FLOQUET_CODE, 1e-10)
        for f in designer.frontier(QUBIT_MAJ_NS_E4, FLOQUET_CODE, 1e-10):
            assert best.physical_qubits <= f.physical_qubits

    def test_impossible_requirement_raises(self):
        with pytest.raises(TFactoryError, match="no T factory"):
            design_t_factory(
                QUBIT_MAJ_NS_E4, FLOQUET_CODE, 1e-60, max_rounds=2
            )

    def test_nonpositive_requirement_rejected(self):
        with pytest.raises(TFactoryError):
            design_t_factory(QUBIT_MAJ_NS_E4, FLOQUET_CODE, 0.0)

    def test_nan_requirement_rejected(self):
        # NaN compares false with everything: it must not pass the
        # positivity check and come back as the noisiest staircase entry.
        designer = TFactoryDesigner()
        message = "required T-state error rate must be positive, got nan"
        with pytest.raises(TFactoryError, match=message):
            designer.design(QUBIT_MAJ_NS_E4, FLOQUET_CODE, math.nan)
        with pytest.raises(TFactoryError, match=message):
            design_t_factory(QUBIT_MAJ_NS_E4, FLOQUET_CODE, math.nan)
        assert designer.frontier(QUBIT_MAJ_NS_E4, FLOQUET_CODE, math.nan) == []

    def test_infinite_requirement_returns_first_staircase_entry(self):
        designer = TFactoryDesigner()
        catalog = designer._catalog(QUBIT_MAJ_NS_E4, FLOQUET_CODE)
        factory = designer.design(QUBIT_MAJ_NS_E4, FLOQUET_CODE, math.inf)
        assert factory is catalog.staircase[0]

    def test_designer_is_immutable(self):
        # A designer answers from catalogs cached for its own settings, so
        # a changed setting must make a new designer, not edit this one.
        designer = TFactoryDesigner()
        assert designer.design(QUBIT_MAJ_NS_E4, FLOQUET_CODE, 1e-15).num_rounds == 3
        for name, value in [("max_rounds", 1), ("max_rounds", 0), ("units", ())]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(designer, name, value)
        assert designer.max_rounds == 3
        one_round = dataclasses.replace(designer, max_rounds=1)
        with pytest.raises(TFactoryError, match="no T factory"):
            one_round.design(QUBIT_MAJ_NS_E4, FLOQUET_CODE, 1e-15)
        with pytest.raises(ValueError, match="max_rounds must be >= 1"):
            dataclasses.replace(designer, max_rounds=0)
        assert designer.design(QUBIT_MAJ_NS_E4, FLOQUET_CODE, 1e-15).num_rounds == 3

    def test_gate_based_design(self):
        factory = design_t_factory(QUBIT_GATE_NS_E3, SURFACE_CODE_GATE_BASED, 1e-12)
        assert factory.output_error_rate <= 1e-12
        assert factory.physical_qubits > 0

    def test_frontier_is_pareto(self):
        designer = TFactoryDesigner()
        frontier = designer.frontier(QUBIT_GATE_NS_E4, SURFACE_CODE_GATE_BASED, 1e-12)
        assert frontier
        for i, f in enumerate(frontier):
            for g in frontier[i + 1 :]:
                # sorted by qubits ascending, durations strictly descending
                assert f.physical_qubits <= g.physical_qubits
                assert f.duration_ns > g.duration_ns

    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=1e-14, max_value=1e-6, allow_nan=False))
    def test_property_tighter_requirement_never_cheaper(self, req):
        designer = TFactoryDesigner()
        loose = designer.design(QUBIT_MAJ_NS_E4, FLOQUET_CODE, req * 100)
        tight = designer.design(QUBIT_MAJ_NS_E4, FLOQUET_CODE, req)
        assert tight.physical_qubits >= loose.physical_qubits

    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=1e-14, max_value=1e-6, allow_nan=False))
    def test_property_design_always_meets_requirement(self, req):
        factory = design_t_factory(QUBIT_MAJ_NS_E4, FLOQUET_CODE, req)
        assert factory.output_error_rate <= req


# -- exactness of the pruned catalog against brute force ----------------------

#: Every predefined profile on its default scheme, plus one customized
#: designer. Its unit library holds an exact copy of RM prep under
#: another name, so many candidates tie on (qubits, duration) and only
#: the enumeration-order tie-break tells them apart.
CASES = [(name, "default") for name in sorted(PREDEFINED_PROFILES)] + [
    ("qubit_gate_ns_e3", "custom")
]
EXACTNESS_CASES = [
    pytest.param(profile, kind, id=f"{profile}-{kind}") for profile, kind in CASES
]


@lru_cache(maxsize=None)
def make_designer(kind: str) -> TFactoryDesigner:
    """One designer per kind, shared by the tests (its catalogs are cached)."""
    if kind == "default":
        return TFactoryDesigner()
    twin = T15_RM_PREP.customized(name="15-to-1 RM prep twin")
    squat = T15_SPACE_EFFICIENT.customized(
        logical_spec=LogicalUnitSpec(num_logical_qubits=24, duration_in_cycles=15),
        output_error_rate=Formula("30 * inputErrorRate^3 + 8 * cliffordErrorRate"),
    )
    return TFactoryDesigner(
        units=(T15_RM_PREP, twin, squat), max_rounds=2, max_code_distance=15
    )


def all_factories(designer, qubit, scheme):
    """Every feasible factory, in enumeration order: ``evaluate_pipeline``
    over all candidate pipelines."""
    return [
        factory
        for pipeline in designer.candidate_pipelines(qubit, scheme)
        if (factory := evaluate_pipeline(pipeline, qubit, scheme)) is not None
    ]


@lru_cache(maxsize=None)
def brute_force(profile: str, kind: str):
    """(qubit, scheme, all factories) for one exactness case."""
    qubit = PREDEFINED_PROFILES[profile]
    scheme = default_scheme_for(qubit)
    return qubit, scheme, all_factories(make_designer(kind), qubit, scheme)


def no_factory_message(required, qubit, scheme) -> str:
    return (
        f"no T factory in the search space reaches output error rate "
        f"{required:.3e} on {qubit.name!r} with "
        f"scheme {scheme.name!r}; consider more rounds or a larger "
        "max code distance"
    )


def better(a, b) -> bool:
    """Prefer fewer physical qubits, then shorter duration."""
    return (a.physical_qubits, a.duration_ns) < (b.physical_qubits, b.duration_ns)


def linear_scan(factories, required):
    """The reference selection: first feasible factory, replaced only by a
    strictly better one, so an earlier factory wins a tie."""
    best = None
    for factory in factories:
        if factory.output_error_rate > required:
            continue
        if best is None or better(factory, best):
            best = factory
    return best


def sweep_scan(factories, targets):
    """``linear_scan`` for many targets at once.

    Walks the targets in increasing order and folds in each factory as it
    becomes feasible, with the same preference and tie-break (earlier
    enumeration index), so the answer per target is the one the linear
    scan would give.
    """
    def rank(k):
        return factories[k].physical_qubits, factories[k].duration_ns, k

    errors = [f.output_error_rate for f in factories]
    by_error = sorted(range(len(factories)), key=errors.__getitem__)
    answers, best, j = {}, None, 0
    for required in sorted(set(targets)):
        while j < len(by_error) and errors[by_error[j]] <= required:
            if best is None or rank(by_error[j]) < rank(best):
                best = by_error[j]
            j += 1
        answers[required] = None if best is None else factories[best]
    return answers


def brute_frontier(factories, required):
    feasible = [f for f in factories if f.output_error_rate <= required]
    frontier = []
    for f in sorted(feasible, key=lambda f: (f.physical_qubits, f.duration_ns)):
        if all(f.duration_ns < g.duration_ns for g in frontier):
            frontier.append(f)
    return frontier


def designed(designer, qubit, scheme, required):
    """``design()`` as a comparable value: a factory or an error text."""
    try:
        return designer.design(qubit, scheme, required)
    except TFactoryError as exc:
        return str(exc)


class TestCatalogExactness:
    """The pruned catalog answers exactly as a linear scan over all pipelines."""

    @pytest.mark.parametrize("profile, kind", EXACTNESS_CASES)
    def test_design_equals_brute_force_at_every_boundary(self, profile, kind):
        qubit, scheme, factories = brute_force(profile, kind)
        errors = sorted({f.output_error_rate for f in factories})
        targets = [errors[0] / 2, errors[-1] * 2, 1.0]
        for error in errors:
            targets += [error, math.nextafter(error, 0.0), math.nextafter(error, 1.0)]
        expected = sweep_scan(factories, targets)
        designer = make_designer(kind)
        as_dict: dict[int, dict] = {}  # id -> to_dict(), for the few distinct answers
        for required in targets:
            want = expected[required]
            got = designed(designer, qubit, scheme, required)
            if want is None:
                assert got == no_factory_message(required, qubit, scheme)
                continue
            assert not isinstance(got, str), (required, got)
            for factory in (want, got):
                if id(factory) not in as_dict:
                    as_dict[id(factory)] = factory.to_dict()
            assert as_dict[id(got)] == as_dict[id(want)], required

    @pytest.mark.parametrize("profile, kind", EXACTNESS_CASES)
    def test_frontier_equals_brute_force(self, profile, kind):
        qubit, scheme, factories = brute_force(profile, kind)
        designer = make_designer(kind)
        errors = sorted({f.output_error_rate for f in factories})
        for required in (errors[0], errors[len(errors) // 2], errors[-1], 1e-9, 1e-15):
            got = designer.frontier(qubit, scheme, required)
            want = brute_frontier(factories, required)
            assert [f.to_dict() for f in got] == [f.to_dict() for f in want]

    @pytest.mark.parametrize("bad_distance, raises", [(1, False), (7, True)])
    def test_raising_scheme_formula_matches_brute_force(self, bad_distance, raises):
        # On qubit_gate_ns_e3 distance 1 appears only in pipelines whose
        # forward pass is infeasible, so its cycle time is never needed;
        # distance 7 reaches the footprint step and raises there.
        qubit = QUBIT_GATE_NS_E3
        scheme = SURFACE_CODE_GATE_BASED.customized(
            logical_cycle_time="(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime)"
            f" * codeDistance / (codeDistance - {bad_distance})"
        )

        def outcome(call):
            try:
                return call().to_dict()
            except Exception as exc:
                return type(exc), str(exc)

        designer = TFactoryDesigner()
        want = outcome(
            lambda: linear_scan(all_factories(designer, qubit, scheme), 1e-12)
        )
        got = outcome(lambda: designer.design(qubit, scheme, 1e-12))
        assert got == want
        assert isinstance(got, tuple) == raises

    @settings(deadline=None, max_examples=40)
    @given(
        case=st.sampled_from(CASES),
        exponent=st.floats(min_value=-45.0, max_value=0.0),
    )
    def test_design_equals_linear_scan_log_uniform(self, case, exponent):
        qubit, scheme, factories = brute_force(*case)
        required = 10.0**exponent
        want = linear_scan(factories, required)
        got = designed(make_designer(case[1]), qubit, scheme, required)
        if want is None:
            assert got == no_factory_message(required, qubit, scheme)
        else:
            assert got.to_dict() == want.to_dict()

