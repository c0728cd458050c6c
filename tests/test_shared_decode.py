"""Shared decode of repeated result sub-documents.

:meth:`PhysicalResourceEstimates.from_dict` decodes the qubit
parameters, the logical qubit (with its qubit), the T factory and the
pre-layout counts once per distinct compact JSON encoding and shares
the object. These tests pin that a shared decode is indistinguishable
from a fresh one.
"""

from __future__ import annotations

import copy
import json

import pytest
import store_rows

from repro import LogicalCounts, Registry, ResultStore
from repro.estimator import result as result_module
from repro.estimator.engine import ExecutionPolicy
from repro.estimator.result import PhysicalResourceEstimates
from repro.estimator.store import RESULT_SCHEMA
from repro.estimator.sweep import SweepResult, SweepSpec, run_sweep

#: The reference sweep: rsa_2048 x 4 profiles x 250 budgets (684
#: estimates, 316 infeasible points).
REFERENCE_SWEEP = {
    "base": {"program": {"name": "rsa_2048"}},
    "axes": [
        {
            "field": "qubit",
            "values": [
                "qubit_gate_ns_e3",
                "qubit_gate_ns_e4",
                "qubit_maj_ns_e4",
                "qubit_maj_ns_e6",
            ],
        },
        {"field": "budget", "geom": {"start": 1e-12, "factor": 1.1, "count": 250}},
    ],
}

COUNTS = LogicalCounts(num_qubits=40, t_count=50_000, measurement_count=500)
SMALL_SWEEP = {
    "base": {"program": {"counts": COUNTS.to_dict()}},
    "axes": [
        {"field": "budget", "values": [1e-4, 3e-4, 1e-3, 3e-3, 1e-2]},
        {"field": "qubit", "values": ["qubit_gate_ns_e3", "qubit_maj_ns_e4"]},
    ],
}


@pytest.fixture(scope="module")
def reference_dicts() -> list[dict]:
    """Every estimate of the reference sweep, as its JSON document."""
    sweep = run_sweep(SweepSpec.from_dict(REFERENCE_SWEEP))
    return [json.loads(json.dumps(point.result.to_dict())) for point in sweep.points if point.ok]


@pytest.fixture()
def empty_memo(monkeypatch):
    monkeypatch.setattr(result_module, "_SHARED", {})
    return result_module._SHARED


def unshared(data: dict) -> PhysicalResourceEstimates:
    """A decode that shares nothing: the path taken without a C encoder."""
    saved = result_module._COMPACT
    result_module._COMPACT = None
    try:
        return PhysicalResourceEstimates.from_dict(data)
    finally:
        result_module._COMPACT = saved


def test_reference_sweep_decodes_equal_to_a_fresh_decode(reference_dicts, empty_memo):
    assert len(reference_dicts) == 684
    shared = [PhysicalResourceEstimates.from_dict(data) for data in reference_dicts]
    for data, decoded in zip(reference_dicts, shared):
        assert decoded == unshared(data)
        assert decoded.to_dict() == data
        assert json.dumps(decoded.to_dict()) == json.dumps(data)
    factories = {id(decoded.t_factory.factory) for decoded in shared}
    qubits = {id(decoded.qubit_params) for decoded in shared}
    assert len(factories) < 100 and len(qubits) == 4  # shared, not rebuilt
    assert len(empty_memo) <= result_module._SHARED_LIMIT


def test_a_raising_sub_document_is_not_memoized(tmp_path, reference_dicts, empty_memo):
    damaged = copy.deepcopy(reference_dicts[0])
    del damaged["tFactory"]["factory"]["rounds"]
    with pytest.raises(KeyError):
        PhysicalResourceEstimates.from_dict(damaged)
    assert not any(key[0] == "factory" for key in empty_memo)
    spec_hash = "ab" + "0" * 62
    store = ResultStore(tmp_path)
    store_rows.plant(
        store,
        spec_hash,
        {"schema": RESULT_SCHEMA, "specHash": spec_hash, "spec": None, "result": damaged},
    )
    for _ in range(2):
        assert store.lookup(spec_hash) is None
        assert store.lookup_many([spec_hash]) == [None]
    assert store.memory_cache_stats()["results"]["entries"] == 0
    assert not any(key[0] == "factory" for key in empty_memo)


@pytest.mark.parametrize(
    "field, one, other",
    [("one_qubit_gate_time_ns", 50, 50.0), ("one_qubit_gate_error_rate", 0.0, -0.0)],
)
def test_equal_numbers_with_distinct_json_never_share(
    reference_dicts, empty_memo, field, one, other
):
    first, second = (copy.deepcopy(reference_dicts[0]) for _ in range(2))
    first["physicalQubitParameters"][field] = one
    second["physicalQubitParameters"][field] = other
    decoded = [PhysicalResourceEstimates.from_dict(data) for data in (first, second)]
    assert decoded[0].qubit_params is not decoded[1].qubit_params
    assert decoded[0].logical_qubit is not decoded[1].logical_qubit
    for data, result in zip((first, second), decoded):
        assert json.dumps(result.qubit_params.to_dict()) == json.dumps(
            data["physicalQubitParameters"]
        )
        assert result.logical_qubit.qubit is result.qubit_params


def test_memo_stays_within_its_bound(reference_dicts, empty_memo, monkeypatch):
    monkeypatch.setattr(result_module, "_SHARED_LIMIT", 8)
    data = copy.deepcopy(reference_dicts[0])
    for index in range(40):
        data["physicalQubitParameters"]["one_qubit_gate_time_ns"] = 50.0 + index
        decoded = PhysicalResourceEstimates.from_dict(data)
        assert decoded == unshared(data)
        assert len(empty_memo) <= 8


def test_queue_assembly_equals_the_local_run(tmp_path, empty_memo):
    spec = SweepSpec.from_dict(SMALL_SWEEP)
    local = run_sweep(spec, registry=Registry(), store=ResultStore(tmp_path / "local"))
    queued = run_sweep(
        spec,
        registry=Registry(),
        store=ResultStore(tmp_path / "queued"),
        policy=ExecutionPolicy(executor="queue"),
    )
    assert queued.to_dict() == local.to_dict()
    assert [point.result for point in queued.points] == [
        point.result for point in local.points
    ]
    document = json.loads(json.dumps(local.to_dict()))
    assert SweepResult.from_dict(document).to_dict() == local.to_dict()
