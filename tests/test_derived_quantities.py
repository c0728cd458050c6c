"""Derived (qubit, scheme, distance) quantities are computed once and kept.

A :class:`PhysicalQubitParams` derives its formula bindings and Clifford
error rate when it is built, a :class:`QECScheme` collects its formula
variables when it is built, and a :class:`LogicalQubit` computes each of
its four quantities on first read. These tests hold every kept value to a
fresh evaluation of the model's formulas, pin the read at which a raising
custom formula raises, and check that the kept values survive pickling
and process fan-out.
"""

from __future__ import annotations

import json
import math
import pickle

import pytest

from repro import LogicalCounts
from repro.cli import main
from repro.estimator.batch import EstimateCache, EstimateRequest, estimate_batch
from repro.formulas import Formula
from repro.formulas.formula import FormulaEvalError
from repro.qec import PREDEFINED_SCHEMES, LogicalQubit, QECScheme, QECSchemeError
from repro.qubits import PREDEFINED_PROFILES, InstructionSet

#: Formula binding name -> the PhysicalQubitParams field it reads.
FIELD_BINDINGS = {
    "oneQubitMeasurementTime": "one_qubit_measurement_time_ns",
    "oneQubitMeasurementErrorRate": "one_qubit_measurement_error_rate",
    "tGateErrorRate": "t_gate_error_rate",
    "oneQubitGateTime": "one_qubit_gate_time_ns",
    "oneQubitGateErrorRate": "one_qubit_gate_error_rate",
    "twoQubitGateTime": "two_qubit_gate_time_ns",
    "twoQubitGateErrorRate": "two_qubit_gate_error_rate",
    "tGateTime": "t_gate_time_ns",
    "twoQubitJointMeasurementTime": "two_qubit_joint_measurement_time_ns",
    "twoQubitJointMeasurementErrorRate": "two_qubit_joint_measurement_error_rate",
    "idleErrorRate": "idle_error_rate",
}


def fresh_clifford_error_rate(qubit) -> float:
    if qubit.instruction_set is InstructionSet.GATE_BASED:
        return max(
            qubit.one_qubit_measurement_error_rate,
            qubit.one_qubit_gate_error_rate,
            qubit.two_qubit_gate_error_rate,
        )
    return max(
        qubit.one_qubit_measurement_error_rate,
        qubit.two_qubit_joint_measurement_error_rate,
    )


def fresh_environment(qubit, distance: int) -> dict[str, float]:
    """The formula bindings, derived from the fields on every call."""
    env = {
        "codeDistance": float(distance),
        "cliffordErrorRate": fresh_clifford_error_rate(qubit),
    }
    for name, field in FIELD_BINDINGS.items():
        value = getattr(qubit, field)
        if value is not None:
            env[name] = value
    return env


#: An inline scheme (any instruction set) whose footprint needs a ceil.
CUSTOM_SCHEME = QECScheme.from_dict(
    {
        "name": "custom_code",
        "crossingPrefactor": 0.05,
        "errorCorrectionThreshold": 0.01,
        "logicalCycleTime": (
            "(3 * twoQubitGateTime + oneQubitMeasurementTime) * codeDistance"
            " + ln(codeDistance)"
        ),
        "physicalQubitsPerLogicalQubit": "3 * codeDistance^2 / 2",
        "maxCodeDistance": 41,
    }
)

QUBITS = {
    **PREDEFINED_PROFILES,
    "gate_customized": PREDEFINED_PROFILES["qubit_gate_ns_e3"].customized(
        two_qubit_gate_time_ns=20.0, one_qubit_gate_error_rate=2e-3
    ),
    "maj_customized": PREDEFINED_PROFILES["qubit_maj_ns_e4"].customized(
        two_qubit_joint_measurement_error_rate=3e-4, idle_error_rate=1e-5
    ),
}
SCHEMES = {
    **{f"{name}/{iset.value}": scheme for (name, iset), scheme in PREDEFINED_SCHEMES.items()},
    "custom": CUSTOM_SCHEME,
}
PAIRS = [
    pytest.param(qubit, scheme, id=f"{qname}-{sname}")
    for qname, qubit in QUBITS.items()
    for sname, scheme in SCHEMES.items()
    if scheme.instruction_set in (None, qubit.instruction_set)
    and scheme.formula_variables() <= set(fresh_environment(qubit, 1))
]


@pytest.mark.parametrize("qubit", QUBITS.values(), ids=QUBITS.keys())
def test_qubit_bindings_equal_a_fresh_derivation(qubit):
    assert qubit.clifford_error_rate == fresh_clifford_error_rate(qubit)
    assert qubit.bound_variables == set(fresh_environment(qubit, 1))
    for distance in range(1, 52, 2):
        env = qubit.formula_environment(distance)
        assert env == fresh_environment(qubit, distance)
        env["codeDistance"] = -1.0  # each call hands out its own dict
        assert qubit.formula_environment(distance)["codeDistance"] == distance


@pytest.mark.parametrize("qubit, scheme", PAIRS)
def test_logical_qubit_values_equal_fresh_formula_evaluation(qubit, scheme):
    cycle_formula = Formula(scheme.logical_cycle_time.source)
    footprint_formula = Formula(scheme.physical_qubits_per_logical_qubit.source)
    ratio = fresh_clifford_error_rate(qubit) / scheme.error_correction_threshold
    scheme.check_compatible(qubit)
    for distance in range(1, scheme.max_code_distance + 1, 2):
        env = fresh_environment(qubit, distance)
        cycle = cycle_formula.evaluate_positive(env)
        expected = (
            math.ceil(footprint_formula.evaluate_positive(env)),
            cycle,
            scheme.crossing_prefactor * ratio ** ((distance + 1) / 2),
            1e9 / cycle,
        )
        lq = LogicalQubit(scheme=scheme, qubit=qubit, code_distance=distance)
        for _ in range(2):  # computed, then kept
            assert (
                lq.physical_qubits,
                lq.cycle_time_ns,
                lq.logical_error_rate,
                lq.logical_cycles_per_second,
            ) == expected
        assert expected[1] == scheme.cycle_time_ns(qubit, distance)
        assert expected[0] == scheme.physical_qubits(qubit, distance)


def test_compatibility_errors_name_what_is_missing():
    majorana = QUBITS["qubit_maj_ns_e4"]
    with pytest.raises(QECSchemeError) as missing:
        CUSTOM_SCHEME.check_compatible(majorana)
    assert str(missing.value) == (
        "QEC scheme 'custom_code' formulas reference parameters "
        "['twoQubitGateTime'] not provided by qubit model 'qubit_maj_ns_e4'"
    )
    surface = PREDEFINED_SCHEMES[("surface_code", InstructionSet.GATE_BASED)]
    with pytest.raises(QECSchemeError, match="requires gate_based qubits"):
        surface.check_compatible(majorana)
    variables = CUSTOM_SCHEME.formula_variables()
    variables.add("scratch")  # a caller's copy, not the scheme's own set
    assert "scratch" not in CUSTOM_SCHEME.formula_variables()


#: Cycle time is non-positive below distance 13; a program with no T
#: states builds no factory, so only the logical qubit reads the formula.
RAISING_CYCLE = QECScheme(
    name="raising_cycle",
    crossing_prefactor=0.03,
    error_correction_threshold=0.01,
    logical_cycle_time="codeDistance - 12",
    physical_qubits_per_logical_qubit="2 * codeDistance^2",
)
RAISING_FOOTPRINT = QECScheme(
    name="raising_footprint",
    crossing_prefactor=0.03,
    error_correction_threshold=0.01,
    logical_cycle_time="400 * codeDistance",
    physical_qubits_per_logical_qubit="codeDistance - 12",
)
CLIFFORD_ONLY = LogicalCounts(num_qubits=50, measurement_count=1_000)
GATE = QUBITS["qubit_gate_ns_e3"]
NON_POSITIVE = "formula 'codeDistance - 12' evaluated to non-positive value -1.0"


class TestRaisingCustomFormula:
    def test_raises_on_each_read_and_keeps_nothing(self):
        # Finding the distance evaluates no formula; reading does.
        lq = LogicalQubit.for_target_error_rate(RAISING_CYCLE, GATE, 5e-8)
        assert lq.code_distance == 11
        assert lq.physical_qubits == 242
        for read in ("cycle_time_ns", "logical_cycles_per_second", "cycle_time_ns"):
            with pytest.raises(FormulaEvalError) as raised:
                getattr(lq, read)
            assert str(raised.value) == NON_POSITIVE
        assert "cycle_time_ns" not in vars(lq)

    @pytest.mark.parametrize("scheme", [RAISING_CYCLE, RAISING_FOOTPRINT])
    def test_batch_raises_the_formula_error_every_time(self, scheme):
        cache = EstimateCache()
        request = EstimateRequest(
            program=CLIFFORD_ONLY, qubit=GATE, scheme=scheme, budget=1e-2
        )
        for _ in range(2):  # the shared logical qubit keeps no failure
            with pytest.raises(FormulaEvalError) as raised:
                estimate_batch([request], cache=cache)
            assert str(raised.value) == NON_POSITIVE
        # A requirement reaching distance 15 reads only valid values.
        fine = estimate_batch(
            [EstimateRequest(program=CLIFFORD_ONLY, qubit=GATE, scheme=scheme, budget=1e-4)],
            cache=cache,
        )
        assert fine[0].ok and fine[0].result.code_distance == 15

    def test_footprint_raises_after_the_fixed_point_read_the_cycle_time(self):
        cache = EstimateCache()
        request = EstimateRequest(
            program=CLIFFORD_ONLY, qubit=GATE, scheme=RAISING_FOOTPRINT, budget=1e-2
        )
        with pytest.raises(FormulaEvalError):
            estimate_batch([request], cache=cache)
        # Distance 11, as the batch's point: the instance the batch read.
        lq = cache.logical_qubit(RAISING_FOOTPRINT, GATE, 5e-8)
        assert lq.code_distance == 11 and "cycle_time_ns" in vars(lq)
        assert "physical_qubits" not in vars(lq)


def test_requirements_at_one_distance_share_one_logical_qubit():
    cache = EstimateCache()
    scheme = PREDEFINED_SCHEMES[("surface_code", InstructionSet.GATE_BASED)]
    first = cache.logical_qubit(scheme, GATE, 1.1e-9)
    second = cache.logical_qubit(scheme, GATE, 1.2e-9)
    other = cache.logical_qubit(scheme, GATE, 1e-15)
    assert first is second and first.code_distance == second.code_distance
    assert other.code_distance > first.code_distance
    assert cache.stats()["distances"] == {"hits": 0, "misses": 3}
    assert cache.logical_qubit(scheme, GATE, 1.2e-9) is first
    cache.clear()
    assert cache.logical_qubit(scheme, GATE, 1.2e-9) is not first


def test_pickled_instances_carry_their_kept_values():
    qubit = QUBITS["gate_customized"]
    lq = LogicalQubit(scheme=CUSTOM_SCHEME, qubit=qubit, code_distance=9)
    values = (lq.physical_qubits, lq.cycle_time_ns, lq.logical_error_rate, lq.logical_cycles_per_second)
    copy = pickle.loads(pickle.dumps(lq))
    kept = vars(copy)
    assert copy == lq and hash(copy) == hash(lq)
    assert tuple(
        kept[name]
        for name in ("physical_qubits", "cycle_time_ns", "logical_error_rate", "logical_cycles_per_second")
    ) == values
    assert copy.qubit.formula_environment(9) == fresh_environment(qubit, 9)
    assert copy.qubit.clifford_error_rate == qubit.clifford_error_rate
    assert copy.scheme.formula_variables() == CUSTOM_SCHEME.formula_variables()
    copy.scheme.check_compatible(copy.qubit)


def test_two_worker_sweep_prints_the_serial_bytes(tmp_path, capsys, monkeypatch):
    sweep = {
        "base": {
            "program": {"counts": {"num_qubits": 60, "t_count": 40_000, "ccz_count": 8_000}}
        },
        "axes": [
            {
                "field": "qubit",
                "values": [
                    "qubit_gate_ns_e3",
                    {"params": QUBITS["gate_customized"].to_dict()},
                    "qubit_maj_ns_e4",
                ],
            },
            {"field": "scheme", "values": [None, {"params": CUSTOM_SCHEME.to_dict()}]},
            {"field": "budget", "geom": {"start": 1e-7, "factor": 10, "count": 6}},
        ],
    }
    (tmp_path / "sweep.json").write_text(json.dumps(sweep))
    monkeypatch.chdir(tmp_path)
    printed = []
    for workers in ("1", "2"):
        code = main(["sweep", "sweep.json", "--workers", workers, "--json"])
        printed.append((code, capsys.readouterr().out))
    assert printed[0] == printed[1]
    points = json.loads(printed[0][1])["points"]
    assert len(points) == 36
    assert {p["ok"] for p in points} == {True, False}  # custom on Majorana fails
