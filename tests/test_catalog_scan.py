"""The depth-first catalog walk against the per-candidate scan it replaces.

``oracle_scan`` below is the scan the walk in ``search.py`` was derived
from, kept verbatim (renamed only) as the reference: it evaluates every
candidate pipeline from round one. The walk must return exactly its
candidates, numbers and enumeration order, and must first evaluate each
scheme and unit formula at the same point, so a raising formula raises
on the same candidate.
"""

from __future__ import annotations

import gc
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.distillation import (
    DistillationUnit,
    LogicalUnitSpec,
    PhysicalUnitSpec,
    T15_RM_PREP,
    T15_SPACE_EFFICIENT,
    TFactoryDesigner,
)
from repro.formulas import Formula
from repro.qec import FLOQUET_CODE, PREDEFINED_SCHEMES, QECScheme, default_scheme_for
from repro.qubits import PREDEFINED_PROFILES, QUBIT_GATE_NS_E3, QUBIT_MAJ_NS_E4


# -- oracle -------------------------------------------------------------------


def oracle_scan(self, qubit, scheme):
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
    found: list = []
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


# -- cases ----------------------------------------------------------------------

PREDEFINED_PAIRS = [
    pytest.param(qubit, scheme, id=f"{name}-{scheme.name}")
    for name, qubit in sorted(PREDEFINED_PROFILES.items())
    for scheme in PREDEFINED_SCHEMES.values()
    if scheme.instruction_set is qubit.instruction_set
]

#: Runs only on physical qubits, with its own duration formula.
PHYSICAL_ONLY = DistillationUnit(
    name="physical-only 15-to-1",
    num_input_ts=15,
    num_output_ts=1,
    failure_probability=Formula("15 * inputErrorRate + 300 * cliffordErrorRate"),
    output_error_rate=Formula("35 * inputErrorRate^3 + 7.1 * cliffordErrorRate"),
    physical_spec=PhysicalUnitSpec(
        num_qubits=40, duration=Formula("20 * oneQubitMeasurementTime")
    ),
)
#: Logical-only, with formulas of its own.
SQUAT = T15_SPACE_EFFICIENT.customized(
    logical_spec=LogicalUnitSpec(num_logical_qubits=24, duration_in_cycles=15),
    output_error_rate=Formula("30 * inputErrorRate^3 + 8 * cliffordErrorRate"),
)
#: The 15-to-1 formulas under another name and footprint.
TWIN = T15_SPACE_EFFICIENT.customized(
    name="15-to-1 twin",
    logical_spec=LogicalUnitSpec(num_logical_qubits=26, duration_in_cycles=14),
)
#: Fails outright at large Clifford errors: low-distance prefixes are
#: infeasible and their whole subtrees are skipped.
FRAGILE = T15_SPACE_EFFICIENT.customized(
    name="fragile 15-to-1",
    failure_probability=Formula("15 * inputErrorRate + 1e6 * cliffordErrorRate"),
)

CUSTOM_DESIGNERS = {
    "rounds-1": dict(max_rounds=1),
    "rounds-2": dict(max_rounds=2),
    "rounds-4": dict(max_rounds=4, max_code_distance=15),
    "distance-0": dict(max_code_distance=0),
    "distance-1": dict(max_code_distance=1),
    "distance-3": dict(max_code_distance=3),
    "distance-15": dict(max_code_distance=15),
    "physical-only": dict(
        units=(PHYSICAL_ONLY, T15_RM_PREP, T15_SPACE_EFFICIENT), max_code_distance=15
    ),
    "other-formulas": dict(units=(T15_RM_PREP, SQUAT), max_code_distance=21),
    "twin": dict(units=(T15_RM_PREP, T15_SPACE_EFFICIENT, TWIN), max_code_distance=13),
    "fragile": dict(units=(T15_RM_PREP, FRAGILE), max_code_distance=25),
}
CUSTOM_CASES = [
    pytest.param(kind, qubit, id=f"{kind}-{qubit.name}")
    for kind in CUSTOM_DESIGNERS
    for qubit in (QUBIT_GATE_NS_E3, QUBIT_MAJ_NS_E4)
]


def walked(designer, qubit, scheme):
    """The walk's candidates with their specs spelled out."""
    return [
        (qubits, duration, error, prefix + ((unit, d),))
        for qubits, duration, error, (prefix, unit), d in designer._scan(qubit, scheme)
    ]


def comparable(candidates):
    """Candidates with units by identity, so equal twins stay apart."""
    return [
        (qubits, duration, error, tuple((id(unit), d) for unit, d in spec))
        for qubits, duration, error, spec in candidates
    ]


def assert_same_scan(designer, qubit, scheme):
    want = comparable(oracle_scan(designer, qubit, scheme))
    got = comparable(walked(designer, qubit, scheme))
    assert len(got) == len(want)
    assert got == want


# -- equality with the oracle ---------------------------------------------------


class TestWalkEqualsOracle:
    @pytest.mark.parametrize("qubit, scheme", PREDEFINED_PAIRS)
    def test_predefined_pairs(self, qubit, scheme):
        assert_same_scan(TFactoryDesigner(), qubit, scheme)

    @pytest.mark.parametrize("kind, qubit", CUSTOM_CASES)
    def test_customized_designers(self, kind, qubit):
        designer = TFactoryDesigner(**CUSTOM_DESIGNERS[kind])
        assert_same_scan(designer, qubit, default_scheme_for(qubit))

    def test_fragile_unit_skips_subtrees(self):
        # Some distance makes FRAGILE infeasible as a middle round, so the
        # walk cuts subtrees there; the oracle agrees (test above).
        qubit = QUBIT_GATE_NS_E3
        scheme = default_scheme_for(qubit)
        rates = [scheme.logical_error_rate(qubit, d) for d in range(1, 26, 2)]
        assert any(FRAGILE.evaluate(1e-6, rate)[0] >= 1.0 for rate in rates)
        assert any(FRAGILE.evaluate(1e-6, rate)[0] < 1.0 for rate in rates)

    @settings(deadline=None, max_examples=25)
    @given(
        fail_in=st.floats(min_value=1.0, max_value=50.0),
        fail_clifford=st.floats(min_value=10.0, max_value=1e6),
        out_in=st.floats(min_value=1.0, max_value=100.0),
        out_power=st.sampled_from([2, 3]),
        out_clifford=st.floats(min_value=1.0, max_value=20.0),
        qubit=st.sampled_from([QUBIT_GATE_NS_E3, QUBIT_MAJ_NS_E4]),
    )
    def test_drawn_unit_formulas(
        self, fail_in, fail_clifford, out_in, out_power, out_clifford, qubit
    ):
        drawn = T15_SPACE_EFFICIENT.customized(
            name="drawn",
            failure_probability=Formula(
                f"{fail_in!r} * inputErrorRate + {fail_clifford!r} * cliffordErrorRate"
            ),
            output_error_rate=Formula(
                f"{out_in!r} * inputErrorRate^{out_power}"
                f" + {out_clifford!r} * cliffordErrorRate"
            ),
        )
        designer = TFactoryDesigner(units=(T15_RM_PREP, drawn), max_code_distance=11)
        assert_same_scan(designer, qubit, default_scheme_for(qubit))


# -- formula call order ---------------------------------------------------------


class FirstEvaluationRaised(Exception):
    """Raised by :func:`first_evaluations` at the chosen first evaluation."""


def first_evaluations(scan, raise_at=None):
    """Run ``scan()`` and return the first evaluation of each distinct
    (formula, arguments) pair and scheme error-rate call, in order, plus
    the one that raised: with ``raise_at``, the ``raise_at``-th first
    evaluation raises instead of running."""
    first: dict[tuple, None] = {}
    formula_evaluate = Formula.evaluate
    rate = QECScheme.logical_error_rate

    def note(key):
        if key not in first:
            if len(first) == raise_at:
                raise FirstEvaluationRaised(key)
            first[key] = None

    def evaluate(formula, env=None, /, **kwargs):
        note(("formula", formula, tuple(sorted({**(env or {}), **kwargs}.items()))))
        return formula_evaluate(formula, env, **kwargs)

    def logical_error_rate(scheme, qubit, code_distance):
        note(("logical_error_rate", scheme, qubit, code_distance))
        return rate(scheme, qubit, code_distance)

    raised = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Formula, "evaluate", evaluate)
        patch.setattr(QECScheme, "logical_error_rate", logical_error_rate)
        try:
            scan()
        except FirstEvaluationRaised as exc:
            raised = exc.args[0]
    return list(first), raised


ORDER_CASES = [
    pytest.param(kind, qubit, id=f"{kind}-{qubit.name}")
    for kind in ("default", "physical-only", "twin", "fragile", "rounds-4")
    for qubit in (QUBIT_GATE_NS_E3, QUBIT_MAJ_NS_E4)
]


def designer_for(kind):
    return TFactoryDesigner(**CUSTOM_DESIGNERS.get(kind, {}))


class TestFormulaCallOrder:
    @pytest.mark.parametrize("kind, qubit", ORDER_CASES)
    def test_first_evaluations_in_the_same_order(self, kind, qubit):
        scheme = default_scheme_for(qubit)
        want = first_evaluations(lambda: oracle_scan(designer_for(kind), qubit, scheme))
        got = first_evaluations(lambda: walked(designer_for(kind), qubit, scheme))
        assert got == want

    @pytest.mark.parametrize("raise_at", [0, 1, 2, 5, 17, 40])
    def test_a_raising_formula_raises_at_the_same_point(self, raise_at):
        qubit, scheme = QUBIT_MAJ_NS_E4, FLOQUET_CODE
        designer = designer_for("physical-only")
        want = first_evaluations(lambda: oracle_scan(designer, qubit, scheme), raise_at)
        assert want[1] is not None
        got = first_evaluations(lambda: walked(designer, qubit, scheme), raise_at)
        assert got == want


# -- deterministic guards -------------------------------------------------------


def test_catalog_build_leaves_no_garbage():
    """No reference cycle keeps a scan's candidate list alive until a
    full collection."""
    gc.collect()
    gc.disable()
    try:
        TFactoryDesigner()._catalog(QUBIT_MAJ_NS_E4, FLOQUET_CODE)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("qubit, scheme", PREDEFINED_PAIRS)
def test_unit_evaluated_once_per_formula_pair_and_inputs(monkeypatch, qubit, scheme):
    """Both predefined units share the 15-to-1 formulas, so they share
    every outcome."""
    calls: Counter = Counter()
    evaluate = DistillationUnit.evaluate

    def counting(unit, input_error_rate, clifford_error_rate):
        key = (unit.failure_probability, unit.output_error_rate)
        calls[key, input_error_rate, clifford_error_rate] += 1
        return evaluate(unit, input_error_rate, clifford_error_rate)

    monkeypatch.setattr(DistillationUnit, "evaluate", counting)
    TFactoryDesigner()._scan(qubit, scheme)
    assert calls and set(calls.values()) == {1}
