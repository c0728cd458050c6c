"""``dumps_indented``: the CLI's indented JSON, byte-identical to stdlib.

The oracle is ``json.dumps(document, indent=2)`` itself: on the
reference sweep document, on the Fig. 3/4 rows, and on generated
documents that reach every branch of the fast path (scalar-only
containers, the walk, memo hits re-indented at other depths) and of the
fallback (subclasses, non-string keys, values JSON cannot encode).
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import jsonlog
from repro.jsonlog import dumps_indented


def stdlib(document):
    return json.dumps(document, indent=2)


def fast_path_only(monkeypatch):
    """Make the stdlib fallback fail, to prove the fast path wrote it."""

    def refuse(*args, **kwargs):
        raise AssertionError("dumps_indented fell back to json.dumps")

    monkeypatch.setattr(jsonlog.json, "dumps", refuse)


# -- the documents the CLI writes -------------------------------------------


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


def test_reference_sweep_document_is_byte_identical(monkeypatch):
    from repro.estimator.sweep import SweepSpec, run_sweep

    document = run_sweep(SweepSpec.from_dict(REFERENCE_SWEEP)).to_dict()
    assert len(document["points"]) == 1000
    expected = stdlib(document)
    fast_path_only(monkeypatch)
    assert dumps_indented(document) == expected


def test_figure_rows_are_byte_identical(monkeypatch):
    from repro.experiments import run_fig3, run_fig4

    documents = [[row.to_dict() for row in rows] for rows in (run_fig3(), run_fig4())]
    expected = [stdlib(document) for document in documents]
    fast_path_only(monkeypatch)
    assert [dumps_indented(document) for document in documents] == expected


def test_experiment_files_keep_their_text(tmp_path):
    from repro.experiments.io import write_rows_json
    from repro.experiments.runner import EstimateRow

    row = EstimateRow(
        algorithm="schoolbook",
        bits=32,
        profile="qubit_gate_ns_e3",
        physical_qubits=12345,
        runtime_seconds=0.5,
        code_distance=11,
        logical_qubits=40,
        logical_depth=1000,
        num_t_states=2000,
        t_factory_copies=3,
        rqops=1.5e6,
    )
    path = write_rows_json([row, row], tmp_path / "rows.json")
    assert path.read_text() == stdlib([row.to_dict(), row.to_dict()]) + "\n"


# -- generated documents -----------------------------------------------------


class Dict(dict):
    pass


class List(list):
    pass


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-320, 1e300])
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t\r\x00\x1f", "é ü 漢字 🎉", "\ud800"])
)
names = st.text(max_size=6) | st.sampled_from(["a", "key", "", '"', "ü"])
documents = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(names, children, max_size=5)
    ),
    max_leaves=30,
)
odd_documents = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(List)
        | st.dictionaries(names, children, max_size=4).map(Dict)
        | st.dictionaries(
            st.integers() | st.floats() | st.booleans() | st.none() | names,
            children,
            max_size=4,
        )
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_plain_documents_match_stdlib(document):
    assert dumps_indented(document) == stdlib(document)


@settings(max_examples=100, deadline=None)
@given(odd_documents)
def test_subclasses_and_non_string_keys_match_stdlib(document):
    assert dumps_indented(document) == stdlib(document)


def nested(subtree, depth):
    """``subtree`` under the key ``"k"``, inside ``depth`` lists."""
    document = {"k": subtree}
    for _ in range(depth):
        document = [document]
    return document


@settings(max_examples=100, deadline=None)
@given(
    documents.map(lambda value: {"inner": [value, {"x": [value]}], "s": value}),
    st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=12),
)
def test_repeated_subtrees_at_other_depths_match_stdlib(subtree, depths):
    # One slot ("k") meets the same container of containers at several
    # depths: memo hits are re-indented deeper and shallower.
    document = [nested(subtree, depth) for depth in depths]
    assert dumps_indented(document) == stdlib(document)


def test_memo_hits_reindent_both_ways(monkeypatch):
    subtree = {"a": [1, [], {}], "b": {"c": ["x", -0.0, None]}, "d": 2.5}
    documents = [
        [nested(subtree, depth) for depth in depths] * 4
        for depths in ([5, 5, 1, 0, 3], [0, 0, 6, 2, 6])
    ]
    expected = [stdlib(document) for document in documents]
    fast_path_only(monkeypatch)
    assert [dumps_indented(document) for document in documents] == expected


@pytest.mark.parametrize("value", [[], {}, (), "x", 1, -0.0, math.nan, None, True])
def test_top_level_values(value, monkeypatch):
    expected = stdlib(value)
    fast_path_only(monkeypatch)
    assert dumps_indented(value) == expected


# -- errors ------------------------------------------------------------------


def error_of(call, document):
    with pytest.raises(Exception) as caught:
        call(document)
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize(
    "document",
    [
        object(),
        [object()],  # a scalar-only container: the C encoder's default hook
        {"a": [1, 2], "b": {1, 2}},  # inside the walk
        [{"k": {"a": [1]}}] * 3 + [{"k": {"a": [1]}, "z": b"bytes"}],
        {("tuple", "key"): 1},
        {"a": [1], ("tuple", "key"): 1},
    ],
)
def test_unencodable_values_raise_what_stdlib_raises(document):
    assert error_of(dumps_indented, document) == error_of(stdlib, document)
    assert error_of(dumps_indented, document)[0] is TypeError


def test_cycles_raise_what_stdlib_raises():
    cycle: list = [1, {"a": []}]
    cycle[1]["a"].append(cycle)
    assert error_of(dumps_indented, cycle) == error_of(stdlib, cycle)
    assert error_of(dumps_indented, cycle)[0] is ValueError


def test_without_the_c_encoder_the_stdlib_writes_it(monkeypatch):
    document = {"a": [1, {"b": None}], "c": "é"}
    monkeypatch.setattr(jsonlog, "_COMPACT", None)
    assert dumps_indented(document) == stdlib(document)
