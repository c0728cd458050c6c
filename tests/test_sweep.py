"""Tests for the declarative sweep subsystem (spec, execution, resume).

The load-bearing assertion is the kill-and-resume acceptance test:
interrupting a store-backed sweep mid-run and re-running it completes
with all previously finished points served from the store, and the final
:class:`SweepResult` — frontiers included — is bit-for-bit equal to an
uninterrupted run.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest
import store_rows

from repro import LogicalCounts, Registry, ResultStore, default_registry
from repro.estimator import sweep as sweep_module
from repro.estimator.engine import ExecutionPolicy
from repro.estimator.spec import EstimateSpec, run_specs
from repro.estimator.sweep import (
    DEFAULT_CHUNK_SIZE,
    FrontierSpec,
    SweepAxis,
    SweepResult,
    SweepSpec,
    pareto_min_indices,
    run_sweep,
    stored_sweep,
)

COUNTS = LogicalCounts(
    num_qubits=40, t_count=20_000, ccz_count=5_000, measurement_count=500
)

#: A small two-axis sweep used throughout: budgets x profiles, with a
#: per-profile Pareto frontier.
SWEEP_DOC = {
    "base": {"program": {"counts": COUNTS.to_dict()}},
    "axes": [
        {"field": "budget", "values": [1e-4, 1e-3, 1e-2]},
        {"field": "qubit", "values": ["qubit_gate_ns_e3", "qubit_maj_ns_e4"]},
    ],
    "frontier": {"objective": "qubits-runtime", "groupBy": ["qubit"]},
}


#: Two feasible and two infeasible points: a 100-qubit machine cannot
#: hold the layout.
INFEASIBLE_SWEEP_DOC = {
    "base": {"program": {"counts": COUNTS.to_dict()}, "budget": 1e-3},
    "axes": [
        {"field": "qubit", "values": ["qubit_gate_ns_e3", "qubit_maj_ns_e4"]},
        {"field": "constraints.maxPhysicalQubits", "values": [100, 100_000_000]},
    ],
}


def small_sweep() -> SweepSpec:
    return SweepSpec.from_dict(json.loads(json.dumps(SWEEP_DOC)))


class TestSweepSpecParsing:
    def test_round_trip(self):
        sweep = small_sweep()
        again = SweepSpec.from_dict(sweep.to_dict())
        assert again.to_dict() == sweep.to_dict()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep fields"):
            SweepSpec.from_dict({**SWEEP_DOC, "bogus": 1})
        with pytest.raises(ValueError, match="unknown axis fields"):
            SweepSpec.from_dict(
                {"axes": [{"field": "budget", "values": [1], "typo": 2}]}
            )
        with pytest.raises(ValueError, match="unknown frontier fields"):
            SweepSpec.from_dict(
                {
                    "axes": [{"field": "budget", "values": [1e-3]}],
                    "frontier": {"objective": "min-qubits", "extra": 1},
                }
            )

    def test_axis_needs_exactly_one_value_source(self):
        with pytest.raises(ValueError, match="exactly one of"):
            SweepAxis.from_dict({"field": "budget"})
        with pytest.raises(ValueError, match="exactly one of"):
            SweepAxis.from_dict(
                {"field": "budget", "values": [1], "range": {"start": 1, "stop": 2}}
            )

    def test_range_axis_expands_inclusively(self):
        axis = SweepAxis.from_dict(
            {"field": "bits", "range": {"start": 8, "stop": 32, "step": 8}}
        )
        assert axis.values == (8, 16, 24, 32)
        assert all(isinstance(v, int) for v in axis.values)
        fractional = SweepAxis.from_dict(
            {"field": "budget", "range": {"start": 0.1, "stop": 0.3, "step": 0.1}}
        )
        assert fractional.values == pytest.approx((0.1, 0.2, 0.3))

    def test_geom_axis_expands_geometrically(self):
        axis = SweepAxis.from_dict(
            {"field": "bits", "geom": {"start": 32, "factor": 2, "count": 4}}
        )
        assert axis.values == (32, 64, 128, 256)
        assert all(isinstance(v, int) for v in axis.values)

    def test_bad_ranges_rejected(self):
        for body in (
            {"start": 2, "stop": 1},
            {"start": 1, "stop": 2, "step": 0},
            {"start": 1, "stop": 2, "step": -1},
            {"start": 1},
        ):
            with pytest.raises(ValueError):
                SweepAxis.from_dict({"field": "x", "range": body})
        for body in ({"start": 1, "factor": 0, "count": 3}, {"start": 1}):
            with pytest.raises(ValueError):
                SweepAxis.from_dict({"field": "x", "geom": body})

    def test_zip_mode_requires_equal_lengths(self):
        with pytest.raises(ValueError, match="same length"):
            SweepSpec(
                axes=(
                    SweepAxis("budget", (1e-3, 1e-4)),
                    SweepAxis("qubit", ("qubit_gate_ns_e3",)),
                ),
                mode="zip",
            )

    def test_unknown_mode_and_objective(self):
        with pytest.raises(ValueError, match="unknown sweep mode"):
            SweepSpec(axes=(SweepAxis("budget", (1e-3,)),), mode="diagonal")
        with pytest.raises(ValueError, match="unknown frontier objective"):
            FrontierSpec(objective="max-qubits")

    def test_group_by_must_name_an_axis(self):
        with pytest.raises(ValueError, match="groupBy names unknown axes"):
            SweepSpec(
                axes=(SweepAxis("budget", (1e-3,)),),
                frontier=FrontierSpec(group_by=("qubit",)),
            )

    def test_duplicate_axis_fields_rejected(self):
        with pytest.raises(ValueError, match="duplicate axis fields"):
            SweepSpec(
                axes=(SweepAxis("budget", (1e-3,)), SweepAxis("budget", (1e-4,)))
            )


class TestExpansion:
    def test_cartesian_order_is_first_axis_major(self):
        sweep = small_sweep()
        points = sweep.expand()
        assert len(points) == sweep.num_points() == 6
        coords = [dict(point.coords) for point in points]
        assert [c["budget"] for c in coords] == [1e-4, 1e-4, 1e-3, 1e-3, 1e-2, 1e-2]
        assert coords[0]["qubit"] == "qubit_gate_ns_e3"
        assert coords[1]["qubit"] == "qubit_maj_ns_e4"

    def test_zip_mode_pairs_positionally(self):
        sweep = SweepSpec(
            base={"program": {"counts": COUNTS.to_dict()}},
            axes=(
                SweepAxis("budget", (1e-3, 1e-4)),
                SweepAxis("qubit", ("qubit_gate_ns_e3", "qubit_maj_ns_e4")),
            ),
            mode="zip",
        )
        points = sweep.expand()
        assert len(points) == 2
        assert dict(points[1].coords) == {
            "budget": 1e-4,
            "qubit": "qubit_maj_ns_e4",
        }

    def test_qubit_and_scheme_string_sugar(self):
        sweep = SweepSpec(
            base={"program": {"counts": COUNTS.to_dict()}},
            axes=(
                SweepAxis("qubit", ("qubit_gate_ns_e3",)),
                SweepAxis("scheme", ("surface_code",)),
            ),
        )
        spec = sweep.expand()[0].spec
        assert spec.qubit == "qubit_gate_ns_e3"
        assert spec.scheme == "surface_code"

    def test_dotted_paths_create_nested_fragments(self):
        sweep = SweepSpec(
            base={"budget": 1e-4},
            axes=(
                SweepAxis("program.multiplier.algorithm", ("schoolbook",)),
                SweepAxis("program.multiplier.bits", (64,)),
                SweepAxis("qubit", ("qubit_maj_ns_e4",)),
            ),
        )
        spec = sweep.expand()[0].spec
        assert spec.program.kind == "multiplier"
        assert spec.program.program.bits == 64

    def test_points_get_auto_labels(self):
        point = small_sweep().expand()[0]
        assert point.spec.label == "budget=0.0001, qubit=qubit_gate_ns_e3"

    def test_base_label_wins_over_auto_label(self):
        sweep = SweepSpec(
            base={"program": {"counts": COUNTS.to_dict()}, "label": "mine"},
            axes=(SweepAxis("qubit", ("qubit_gate_ns_e3",)),),
        )
        assert sweep.expand()[0].spec.label == "mine"

    def test_malformed_point_raises_naming_the_point(self):
        sweep = SweepSpec(
            base={"program": {"counts": COUNTS.to_dict()}},
            axes=(SweepAxis("budget", (-1.0,)), SweepAxis("qubit", ("x",))),
        )
        with pytest.raises(ValueError, match="sweep point 0"):
            sweep.expand()

    def test_expansion_is_cached_and_immune_to_base_mutation(self):
        base = {"program": {"counts": COUNTS.to_dict()}}
        sweep = SweepSpec(base=base, axes=(SweepAxis("qubit", ("qubit_gate_ns_e3",)),))
        first = sweep.expand()
        base["budget"] = -1.0  # the spec owns a copy; no stale/poisoned cache
        second = sweep.expand()
        assert [p.spec for p in second] == [p.spec for p in first]
        assert second is not first  # callers get their own list

    def test_non_json_base_rejected(self):
        with pytest.raises(ValueError, match="JSON-serializable"):
            SweepSpec(base={"program": object()}, axes=(SweepAxis("qubit", ("x",)),))

    def test_axis_descending_into_scalar_raises(self):
        sweep = SweepSpec(
            base={"budget": 1e-3},
            axes=(SweepAxis("budget.total.deep", (1,)),),
        )
        with pytest.raises(ValueError, match="non-object"):
            sweep.expand()


class TestContentHash:
    def test_equivalent_axis_spellings_hash_identically(self):
        base = {**SWEEP_DOC["base"], "qubit": {"profile": "qubit_gate_ns_e3"}}
        explicit = SweepSpec.from_dict(
            {
                "base": base,
                "axes": [{"field": "budget", "values": [1e-4, 1e-3, 1e-2]}],
            }
        )
        spelled = SweepSpec.from_dict(
            {
                "base": base,
                "axes": [
                    {
                        "field": "budget",
                        "geom": {"start": 1e-4, "factor": 10, "count": 3},
                    }
                ],
            }
        )
        assert explicit.content_hash() == spelled.content_hash()

    def test_labels_and_chunk_size_do_not_affect_the_hash(self):
        sweep = small_sweep()
        relabeled = SweepSpec.from_dict(
            {**SWEEP_DOC, "label": "anything", "chunkSize": 2}
        )
        assert sweep.content_hash() == relabeled.content_hash()

    def test_frontier_config_changes_the_hash(self):
        sweep = small_sweep()
        reduced = SweepSpec.from_dict(
            {**SWEEP_DOC, "frontier": {"objective": "min-qubits"}}
        )
        assert sweep.content_hash() != reduced.content_hash()

    def test_registry_redefinition_changes_the_hash(self):
        sweep = small_sweep()
        registry = Registry()
        baseline = sweep.content_hash(registry)
        hot = Registry()
        hot.load_scenario(
            {
                "qubitParams": [
                    {
                        **hot.qubit("qubit_gate_ns_e3").to_dict(),
                        "t_gate_time_ns": 123.0,
                    }
                ]
            }
        )
        assert sweep.content_hash(hot) != baseline


def part_sweeps() -> dict[str, dict]:
    """Sweeps whose axes cover every spec part and spelling.

    Program by name, by construction and inline; qubit by name and by
    inline params; scheme (including one the profile has no variant of,
    so unresolvable); budget as a number, as ``{"total"}`` and as an
    explicit split; constraints and synthesis (``1`` and ``1.0`` compare
    equal but encode differently); dotted paths into a part.
    """
    maj = default_registry().qubit("qubit_maj_ns_e4").to_dict()
    maj["name"] = "inline_maj"
    counts = COUNTS.to_dict()
    return {
        "program-qubit": {
            "base": {"budget": 1e-3},
            "axes": [
                {
                    "field": "program",
                    "values": [
                        "rsa_1024",
                        {"multiplier": {"algorithm": "schoolbook", "bits": 32}},
                        {"counts": counts},
                    ],
                },
                {
                    "field": "qubit",
                    "values": ["qubit_gate_ns_e3", {"params": maj}, "qubit_maj_ns_e4"],
                },
            ],
        },
        "scheme-budget": {
            "base": {
                "program": {"counts": counts},
                "qubit": {"profile": "qubit_maj_ns_e4"},
            },
            "axes": [
                {"field": "scheme", "values": [None, "surface_code", "floquet_code"]},
                {
                    "field": "budget",
                    "values": [
                        1e-3,
                        {"total": 1e-3},
                        {"logical": 4e-4, "tStates": 4e-4, "rotations": 2e-4},
                        {"logical": 5e-4, "tStates": 5e-4, "rotations": 0},
                    ],
                },
            ],
        },
        "constraints-synthesis": {
            "base": {
                "program": {"counts": counts},
                "qubit": {"profile": "qubit_gate_ns_e3"},
            },
            "mode": "zip",
            "axes": [
                {
                    "field": "constraints",
                    "values": [
                        None,
                        {"maxTFactories": 4},
                        {"logicalDepthFactor": 1},
                        {"logicalDepthFactor": 1.0},
                    ],
                },
                {
                    "field": "synthesis",
                    "values": [None, {"a": 0.5}, {"a": 0.53, "b": 5.3}, {}],
                },
            ],
        },
        "dotted-paths": {
            "base": {
                "program": {"multiplier": {"algorithm": "karatsuba"}},
                "qubit": {"profile": "qubit_gate_ns_e4"},
                "budget": {"total": 1e-4},
            },
            "axes": [
                {"field": "program.multiplier.bits", "values": [32, 64]},
                {"field": "constraints.maxTFactories", "values": [1, 2, 1]},
                {"field": "budget.total", "values": [1e-4, 1e-3]},
            ],
        },
    }


#: ``SweepSpec.content_hash(default_registry())`` of each
#: :func:`part_sweeps` sweep, as computed when every point was parsed
#: and hashed on its own: stored sweeps and points keep their addresses.
PART_SWEEP_HASHES = {
    "program-qubit": "8789d789f45a5e08565175d8ca531ceb408e90fa3c08910fa69b3753b0cd4978",
    "scheme-budget": "edcdb890bdf8ba04f8a3e9815750cb82d0e229cee069f498e0d0ab125d83f188",
    "constraints-synthesis": "0352328952828ca33a12451a6d27f574923f299d4525d77ad72ff67d8524ff93",
    "dotted-paths": "b2af15589fed7a8a0d15159b1ec7bfae89a1dcfe84a6e51776fbf7d79d2d32d8",
}


def per_point_documents(doc: dict) -> list[dict]:
    """Each point's spec document, built on its own from ``doc``."""
    sweep = SweepSpec.from_dict(doc)
    fields = [axis.field for axis in sweep.axes]
    if sweep.mode == "zip":
        combos = zip(*(axis.values for axis in sweep.axes))
    else:
        combos = itertools.product(*(axis.values for axis in sweep.axes))
    documents = []
    for combo in combos:
        document = json.loads(json.dumps(sweep.base))
        for field_path, value in zip(fields, combo):
            sweep_module._apply_axis(document, field_path, value)
        if not document.get("label"):
            document["label"] = ", ".join(
                f"{f}={sweep_module._coord_label(v)}" for f, v in zip(fields, combo)
            )
        documents.append(document)
    return documents


def per_point_error(doc: dict) -> str:
    """The error of the first malformed point, one document at a time."""
    try:
        documents = per_point_documents(doc)
    except ValueError as exc:  # an axis that cannot be applied
        return str(exc)
    for index, document in enumerate(documents):
        try:
            EstimateSpec.from_dict(document)
        except (TypeError, ValueError) as exc:
            return f"sweep point {index} ({document['label']}): {exc}"
    raise AssertionError("no malformed point")


class TestDistinctParts:
    """Expansion and hashing per distinct spec part equal the per-point path."""

    @pytest.mark.parametrize("name", sorted(PART_SWEEP_HASHES))
    def test_expanded_specs_equal_per_point_parses(self, name):
        doc = part_sweeps()[name]
        points = SweepSpec.from_dict(doc).expand()
        documents = per_point_documents(doc)
        assert len(points) == len(documents)
        for point, document in zip(points, documents):
            assert point.spec.to_dict() == EstimateSpec.from_dict(document).to_dict()
            assert point.spec == EstimateSpec.from_dict(document)

    @pytest.mark.parametrize("name", sorted(PART_SWEEP_HASHES))
    def test_point_hashes_equal_per_point_content_hashes(self, name):
        registry = Registry()
        sweep = SweepSpec.from_dict(part_sweeps()[name])
        expected = []
        for point in sweep.expand():
            try:
                expected.append(point.spec.content_hash(registry))
            except KeyError:
                expected.append(point.spec.content_hash())
        assert sweep.point_hashes(registry) == expected
        assert sweep.point_hashes() == [p.spec.content_hash() for p in sweep.expand()]
        assert sweep.content_hash(registry) == PART_SWEEP_HASHES[name]

    def test_equal_parts_that_encode_differently_never_share(self):
        # logicalDepthFactor 1 and 1.0 compare equal, but the resolved
        # canonical JSON keeps each as written: two addresses.
        doc = {
            "base": {
                "program": {"counts": COUNTS.to_dict()},
                "qubit": {"profile": "qubit_gate_ns_e3"},
            },
            "axes": [
                {
                    "field": "constraints",
                    "values": [{"logicalDepthFactor": 1}, {"logicalDepthFactor": 1.0}],
                }
            ],
        }
        sweep = SweepSpec.from_dict(doc)
        registry = Registry()
        first, second = (point.spec for point in sweep.expand())
        assert first.constraints == second.constraints
        expected = [first.content_hash(registry), second.content_hash(registry)]
        assert expected[0] != expected[1]
        assert sweep.point_hashes(registry) == expected
        outcomes = run_specs([first, second], registry=registry)
        assert [outcome.spec_hash for outcome in outcomes] == expected

    def test_unresolvable_names_keep_the_syntactic_hash(self):
        doc = json.loads(json.dumps(SWEEP_DOC))
        doc["axes"][1]["values"] = ["qubit_gate_ns_e3", "bogus_profile"]
        # floquet_code has no gate-based variant: unresolvable there only.
        doc["axes"].append({"field": "scheme", "values": ["surface_code", "floquet_code"]})
        sweep = SweepSpec.from_dict(doc)
        registry = Registry()
        unresolvable = 0
        for point, spec_hash in zip(sweep.expand(), sweep.point_hashes(registry)):
            try:
                expected = point.spec.content_hash(registry)
            except KeyError:
                expected = point.spec.content_hash()
                unresolvable += 1
            assert spec_hash == expected
        assert unresolvable == 9  # 6 bogus-profile points + 3 floquet on gates

    def test_a_scenario_redefining_a_profile_between_calls_changes_hashes(self):
        sweep = small_sweep()
        registry = Registry()
        before = sweep.point_hashes(registry)
        registry.load_scenario(
            {
                "qubitParams": [
                    {
                        **registry.qubit("qubit_gate_ns_e3").to_dict(),
                        "t_gate_time_ns": 123.0,
                    }
                ]
            }
        )
        after = sweep.point_hashes(registry)
        for point, old, new in zip(sweep.expand(), before, after):
            assert new == point.spec.content_hash(registry)
            assert (old != new) == (point.spec.qubit == "qubit_gate_ns_e3")
        assert sweep.content_hash(registry) != sweep.content_hash(
            point_hashes=before
        )

    @pytest.mark.parametrize(
        "axes, base",
        [
            # a malformed budget at a later point
            ([{"field": "budget", "values": [1e-3, 1e-4, "x"]}], {}),
            # a malformed qubit part at a later point
            ([{"field": "qubit", "values": ["qubit_gate_ns_e3", {"bogus": 1}]}], {}),
            # an unknown spec field
            ([{"field": "colour", "values": [1, 2]}], {}),
            # a count backend that does not exist, checked on construction
            ([{"field": "backend", "values": ["formula", "nope"]}], {}),
            # two malformed parts in one point: the first parsed reports
            (
                [
                    {"field": "budget", "values": [1e-3, -1]},
                    {"field": "qubit", "values": ["qubit_gate_ns_e3", {"x": 1}]},
                ],
                {"mode": "zip"},
            ),
            # an axis that cannot be applied to the base
            ([{"field": "budget.total", "values": [1e-3]}], {"budget": 1e-3}),
            # an axis that cannot be applied at one point only
            (
                [
                    {
                        "field": "program",
                        "values": [
                            {"multiplier": {"algorithm": "schoolbook"}},
                            {"multiplier": 5},
                        ],
                    },
                    {"field": "program.multiplier.bits", "values": [32]},
                ],
                {},
            ),
            # labels from an axis, one empty (the default label reports)
            (
                [
                    {"field": "label", "values": ["first", ""]},
                    {"field": "budget", "values": [1e-3, 2]},
                ],
                {"mode": "zip"},
            ),
        ],
    )
    def test_malformed_points_raise_the_per_point_message(self, axes, base):
        doc = {
            "base": {
                "program": {"counts": COUNTS.to_dict()},
                "qubit": {"profile": "qubit_gate_ns_e3"},
                **{k: v for k, v in base.items() if k != "mode"},
            },
            "axes": axes,
            "mode": base.get("mode", "cartesian"),
        }
        with pytest.raises(ValueError) as excinfo:
            SweepSpec.from_dict(doc).expand()
        assert str(excinfo.value) == per_point_error(doc)

    def test_points_share_parsed_parts(self):
        points = SweepSpec.from_dict(part_sweeps()["scheme-budget"]).expand()
        assert len({id(p.spec.program) for p in points}) == 1
        assert len({id(p.spec.budget) for p in points}) == 4
        assert len({id(p.spec.qubit) for p in points}) == 1

    def test_a_store_filled_before_parts_were_shared_is_answered_by_its_row(
        self, tmp_path, capsys
    ):
        # The sweep hash and the --json text of SWEEP_DOC as computed when
        # every point was parsed and hashed on its own: the row such a
        # store holds is keyed by that hash and holds that text, so a
        # rerun finds and prints it.
        from repro.cli import main

        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(SWEEP_DOC))
        argv = ["sweep", str(path), "--store", str(tmp_path / "store"), "--json", "--quiet"]
        outputs = []
        for _ in range(2):  # cold, then warm
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        for out in outputs:
            assert hashlib.sha256(out.encode()).hexdigest() == (
                "7fc6d211c800f8c0c2cc0cf5bfa4dc2ec5a43d21f2164a46f853fc63487a3846"
            )
        assert json.loads(outputs[0])["sweepHash"] == (
            "3c842b27ecce7aecf9128563c1bb74382510e88178b83fbca2e67c739ddd183f"
        )
        sweep = small_sweep()
        answered = stored_sweep(
            sweep,
            ResultStore(tmp_path / "store"),
            point_hashes=sweep.point_hashes(default_registry()),
        )
        assert answered is not None and answered.to_json() + "\n" == outputs[1]


class TestParetoMinIndices:
    def test_non_dominated_points_kept_in_first_coord_order(self):
        values = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (2.5, 2.5)]
        assert pareto_min_indices(values) == [1, 2, 0]

    def test_ties_keep_the_earliest_point(self):
        values = [(1.0, 2.0), (1.0, 2.0), (2.0, 2.0)]
        assert pareto_min_indices(values) == [0]

    def test_empty(self):
        assert pareto_min_indices([]) == []

    def test_duplicate_points_stable_under_permutation(self):
        # Regression: among duplicate (x, y) points exactly one survives
        # (the lowest input index), and the *value set* of the frontier
        # is identical no matter how the input is ordered.
        import itertools

        values = [(2.0, 1.0), (1.0, 2.0), (1.0, 2.0), (2.0, 1.0), (3.0, 0.5)]
        reference = None
        for perm in itertools.permutations(range(len(values))):
            permuted = [values[i] for i in perm]
            kept = pareto_min_indices(permuted)
            # Exactly one representative per duplicate group.
            assert len(kept) == len({permuted[i] for i in kept})
            # Each duplicate group is represented by its earliest copy.
            for i in kept:
                first = min(
                    j for j, v in enumerate(permuted) if v == permuted[i]
                )
                assert i == first, (perm, kept)
            frontier_values = sorted(permuted[i] for i in kept)
            if reference is None:
                reference = frontier_values
            assert frontier_values == reference, perm


class TestRunSweep:
    def test_matches_run_specs_bit_for_bit(self):
        sweep = small_sweep()
        result = run_sweep(sweep)
        direct = run_specs([point.spec for point in sweep.expand()])
        assert [p.ok for p in result.points] == [o.ok for o in direct]
        for point, outcome in zip(result.points, direct):
            assert point.spec_hash == outcome.spec_hash
            assert point.result.to_dict() == outcome.result.to_dict()

    def test_frontier_points_are_mutually_non_dominated(self):
        result = run_sweep(small_sweep())
        by_index = {point.index: point for point in result.points}
        for group in result.frontiers:
            members = [by_index[i] for i in group.indices]
            for a in members:
                for b in members:
                    if a is b:
                        continue
                    dominates = (
                        a.result.runtime_seconds <= b.result.runtime_seconds
                        and a.result.physical_qubits <= b.result.physical_qubits
                    )
                    assert not dominates, (a.index, b.index)

    def test_failed_points_are_reported_not_raised(self):
        sweep = SweepSpec(
            base={"program": {"counts": COUNTS.to_dict()}, "budget": 1e-3},
            axes=(SweepAxis("qubit", ("qubit_gate_ns_e3", "no_such_profile")),),
            frontier=FrontierSpec(objective="min-qubits"),
        )
        result = run_sweep(sweep)
        assert result.num_ok == 1 and result.num_failed == 1
        assert "no_such_profile" in result.points[1].error
        # The failed point is excluded from the frontier.
        assert result.frontiers[0].indices == (0,)

    def test_min_runtime_objective(self):
        sweep = SweepSpec.from_dict(
            {**SWEEP_DOC, "frontier": {"objective": "min-runtime", "groupBy": ["qubit"]}}
        )
        result = run_sweep(sweep)
        by_index = {point.index: point for point in result.points}
        for group in result.frontiers:
            (winner,) = group.indices
            profile = dict(group.key)["qubit"]
            rivals = [
                p
                for p in result.points
                if dict(p.coords)["qubit"] == profile
            ]
            assert by_index[winner].result.runtime_seconds == min(
                p.result.runtime_seconds for p in rivals
            )

    def test_progress_events_accumulate(self):
        events = []
        run_sweep(
            small_sweep(),
            policy=ExecutionPolicy(chunk_size=2),
            progress=events.append,
        )
        assert [e.chunk for e in events] == [1, 2, 3]
        assert events[-1].completed == events[-1].total == 6
        assert events[-1].ok == 6

    def test_storeless_run_defaults_to_a_single_chunk(self):
        # Chunking only buys resumability; without a store it would just
        # split one batch call into several for nothing.
        events = []
        run_sweep(small_sweep(), progress=events.append)
        assert [e.chunk for e in events] == [1]
        assert events[0].num_chunks == 1

    def test_result_document_round_trips(self):
        result = run_sweep(small_sweep())
        document = result.to_dict()
        again = SweepResult.from_dict(json.loads(json.dumps(document)))
        assert again.to_dict() == document

    def test_csv_has_one_row_per_point(self):
        result = run_sweep(small_sweep())
        lines = result.to_csv().splitlines()
        assert len(lines) == 1 + len(result.points)
        assert lines[0].startswith("budget,qubit,specHash,ok,physicalQubits")


class TestStoreBackedResume:
    def test_warm_rerun_answers_everything_from_store(self, tmp_path):
        sweep = small_sweep()
        store = ResultStore(tmp_path)
        cold = run_sweep(sweep, store=store)
        assert cold.num_from_store == 0
        warm = run_sweep(sweep, store=store)
        assert warm.num_from_store == len(warm.points)
        assert warm.to_dict() == cold.to_dict()

    def test_kill_and_resume_is_bit_for_bit(self, tmp_path):
        """The acceptance test: interrupt mid-run, resume, compare."""
        sweep = small_sweep()

        # Reference: one uninterrupted run against a pristine store.
        reference = run_sweep(sweep, store=ResultStore(tmp_path / "ref"))

        # Interrupted: kill the sweep after the first persisted chunk.
        store = ResultStore(tmp_path / "killed")

        def kill_after_first_chunk(event):
            if event.chunk == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                sweep,
                store=store,
                policy=ExecutionPolicy(chunk_size=2),
                progress=kill_after_first_chunk,
            )
        assert len(store) == 2, "the completed chunk must already be persisted"

        # Resume: the finished points answer from the store...
        resumed = run_sweep(
            sweep, store=store, policy=ExecutionPolicy(chunk_size=2)
        )
        assert resumed.num_from_store == 2
        assert resumed.num_ok == len(resumed.points)
        # ... and the final result — frontiers included — is bit-for-bit
        # equal to the uninterrupted run.
        assert resumed.to_dict() == reference.to_dict()

    def test_warm_rerun_with_infeasible_points_is_a_verified_copy(
        self, tmp_path, monkeypatch
    ):
        # Infeasible points persist as error documents, so the warm run
        # recomputes nothing — no pipeline, no T-factory design — and
        # serializes byte-identically to the cold run.
        from repro import EstimateCache
        from repro.estimator import batch

        sweep = SweepSpec.from_dict(INFEASIBLE_SWEEP_DOC)
        store = ResultStore(tmp_path)
        cold = run_sweep(sweep, store=store, cache=EstimateCache())
        assert cold.num_failed == 2 and cold.num_ok == 2
        assert len(store) == 4

        pipeline_calls = []
        original = batch.run_pipeline

        def counting(*args, **kwargs):
            pipeline_calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(batch, "run_pipeline", counting)
        # From the finished sweep's row: no point is even looked up.
        row_cache = EstimateCache()
        from_row = run_sweep(sweep, store=store, cache=row_cache)
        assert from_row.num_from_store == 4
        assert row_cache.stats()["store"] == {"hits": 0, "misses": 0}
        # Point by point, once the row is gone: every point is a hit.
        store_rows.delete(store, cold.sweep_hash, "sweeps")
        warm_cache = EstimateCache()
        warm = run_sweep(sweep, store=store, cache=warm_cache)
        assert warm.num_from_store == 4
        assert pipeline_calls == []
        assert warm_cache.stats()["factories"]["misses"] == 0
        assert warm_cache.stats()["store"] == {"hits": 4, "misses": 0}
        for answer in (from_row, warm):
            assert [p.error for p in answer.points] == [p.error for p in cold.points]
            assert json.dumps(answer.to_dict(), indent=2) == json.dumps(
                cold.to_dict(), indent=2
            )

    def test_each_point_is_hashed_once_per_run(self, tmp_path, monkeypatch):
        # At most one resolved encoding per distinct (program, qubit,
        # scheme, constraints, synthesis) part per run, none repeated
        # within a run, and no point hashed on its own.
        encoded, hashed = record_spec_hashing(monkeypatch)
        sweep = small_sweep()
        store = ResultStore(tmp_path)
        for _ in range(2):  # cold, then warm
            encoded.clear()
            run_sweep(sweep, store=store)
            assert len(set(encoded)) == len(encoded) <= 2  # two profiles
            assert hashed == []

    def test_sweep_document_survives_in_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_sweep(small_sweep(), store=store)
        assert result.stored
        assert store.get_sweep(result.sweep_hash) == json.loads(
            json.dumps(result.to_dict())
        )
        assert store.get_sweep("ab" * 32) is None


def display_variant(doc: dict) -> dict:
    """``doc`` with every field the sweep hash leaves out changed."""
    variant = json.loads(json.dumps(doc))
    variant["label"] = "beta"
    variant["chunkSize"] = 1
    variant["base"]["label"] = "renamed"
    variant["base"]["backend"] = "counting"
    return variant


def record_spec_hashing(monkeypatch) -> tuple[list, list]:
    """Record resolved part encodings and per-point resolved hashes.

    The first list gets the (program, qubit, scheme, constraints,
    synthesis) part of every spec whose canonical form is encoded under
    a registry; the second every spec hashed on its own under one.
    """
    encoded: list = []
    hashed: list = []
    parts = EstimateSpec._canonical_parts
    content_hash = EstimateSpec.content_hash

    def encoding(self, registry):
        if registry is not None:
            encoded.append(
                (self.program, self.qubit, self.scheme, self.constraints, self.synthesis)
            )
        return parts(self, registry)

    def hashing(self, registry=None):
        if registry is not None:
            hashed.append(self)
        return content_hash(self, registry)

    monkeypatch.setattr(EstimateSpec, "_canonical_parts", encoding)
    monkeypatch.setattr(EstimateSpec, "content_hash", hashing)
    return encoded, hashed


def count_calls(monkeypatch, owner, name: str) -> list:
    """Record every call of ``owner.name`` (still calling through)."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestStoredSweepRow:
    """A finished sweep is one stored row; a rerun answers from it."""

    def test_warm_hit_reads_one_row_and_decodes_nothing(self, tmp_path, monkeypatch):
        from repro.estimator import sweep as sweep_module
        from repro.estimator.result import PhysicalResourceEstimates

        store = ResultStore(tmp_path)
        encodes = count_calls(monkeypatch, sweep_module, "dumps_indented")
        cold = run_sweep(small_sweep(), store=store)
        assert cold.stored and len(encodes) == 1  # the row's text
        cold_text = cold.to_json()
        assert len(encodes) == 1  # printed from the same encode

        encodes.clear()
        rows = count_calls(monkeypatch, ResultStore, "sweep_row")
        verified = count_calls(monkeypatch, ResultStore, "_verify")
        lookups = count_calls(monkeypatch, ResultStore, "lookup_many")
        decodes = count_calls(
            monkeypatch, PhysicalResourceEstimates, "from_dict"
        )
        warm = run_sweep(small_sweep(), store=store)
        assert warm.to_json() == cold_text
        assert (warm.num_points, warm.num_ok, warm.num_failed) == (6, 6, 0)
        assert warm.num_from_store == 6 and warm.stored
        assert len(rows) == len(verified) == 1
        assert lookups == [] and decodes == [] and encodes == []

    def test_points_rebuilt_from_the_row_come_from_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_sweep(small_sweep(), store=store)
        warm = run_sweep(small_sweep(), store=store)
        assert all(point.from_store for point in warm.points)
        assert warm.to_dict() == cold.to_dict()
        assert [p.result for p in warm.points] == [p.result for p in cold.points]
        assert warm.frontier_indices() == cold.frontier_indices()
        assert warm.to_csv() == cold.to_csv()

    def test_a_hit_emits_one_final_progress_event(self, tmp_path):
        sweep = SweepSpec.from_dict(INFEASIBLE_SWEEP_DOC)
        store = ResultStore(tmp_path)
        policy = ExecutionPolicy(chunk_size=3)
        cold_events, warm_events = [], []
        run_sweep(sweep, store=store, policy=policy, progress=cold_events.append)
        run_sweep(sweep, store=store, policy=policy, progress=warm_events.append)
        assert len(cold_events) == 2
        assert warm_events == [
            type(cold_events[-1])(
                chunk=2, num_chunks=2, completed=4, total=4, ok=2, failed=2,
                from_store=4,
            )
        ]

    @pytest.mark.parametrize("executor", ["local", "queue"])
    def test_display_fields_come_from_the_callers_spec(self, tmp_path, executor):
        first = small_sweep()
        second = SweepSpec.from_dict(display_variant(SWEEP_DOC))
        assert first.content_hash() == second.content_hash()
        store = ResultStore(tmp_path)
        policy = ExecutionPolicy(executor=executor)
        for spec in (first, second, first):
            answer = run_sweep(spec, store=store, policy=policy)
            assert answer.to_json() == run_sweep(spec).to_json()
            assert [p.label for p in answer.points] == [
                p.spec.label for p in spec.expand()
            ]

    def test_a_row_from_either_executor_answers_the_other(self, tmp_path):
        store = ResultStore(tmp_path)
        local = run_sweep(small_sweep(), store=store)
        queued = run_sweep(
            small_sweep(), store=store, policy=ExecutionPolicy(executor="queue")
        )
        assert queued.to_json() == local.to_json()
        assert not (tmp_path / "repro-jobs-v1").exists()  # nothing enqueued

    def test_a_flipped_byte_reads_as_a_miss_and_the_row_heals(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        cold = run_sweep(small_sweep(), store=store)
        pristine = store_rows.body(store, cold.sweep_hash, "sweeps")
        damaged = bytearray(pristine)
        damaged[len(damaged) // 2] ^= 0x01
        store_rows.update(store, cold.sweep_hash, "sweeps", body=bytes(damaged))
        assert store.sweep_row(cold.sweep_hash) is None
        lookups = count_calls(monkeypatch, ResultStore, "lookup_many")
        again = run_sweep(small_sweep(), store=store)
        assert lookups  # point by point
        assert again.to_json() == cold.to_json()
        assert store_rows.body(store, cold.sweep_hash, "sweeps") == pristine

    def test_a_compact_row_from_an_earlier_build_is_re_encoded(
        self, tmp_path, monkeypatch
    ):
        from repro.estimator.store import SWEEP_DOC_SCHEMA

        store = ResultStore(tmp_path)
        cold = run_sweep(small_sweep(), store=store)
        store_rows.plant(
            store,
            cold.sweep_hash,
            {
                "schema": SWEEP_DOC_SCHEMA,
                "sweepHash": cold.sweep_hash,
                "result": json.loads(cold.to_json()),
            },
            "sweeps",
        )
        body = store_rows.body(store, cold.sweep_hash, "sweeps")
        assert body.split(b'"result":', 1)[1].startswith(b'{"schema":')
        document, text = store.sweep_row(cold.sweep_hash)
        assert text is None and document == cold.to_dict()
        lookups = count_calls(monkeypatch, ResultStore, "lookup_many")
        again = run_sweep(small_sweep(), store=store)
        assert lookups == [] and again.stored
        assert again.to_json() == cold.to_json()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda document: {"counts": {"total": 0}, "points": []},
            lambda document: {**document, "points": document["points"][:-1]},
            lambda document: {
                **document,
                "points": [{**document["points"][0], "specHash": "ab" * 32}]
                + document["points"][1:],
            },
            lambda document: {
                **document,
                "points": [{**document["points"][0], "ok": False}]
                + document["points"][1:],
            },
            lambda document: {**document, "frontiers": None},
        ],
        ids=["not-a-sweep", "point-missing", "foreign-point", "ok-flag", "no-frontiers"],
    )
    @pytest.mark.parametrize("executor", ["local", "queue"])
    def test_a_row_that_is_not_this_sweeps_result_reads_as_a_miss(
        self, tmp_path, damage, executor
    ):
        from repro.estimator.store import SWEEP_DOC_SCHEMA

        store = ResultStore(tmp_path)
        policy = ExecutionPolicy(executor=executor)
        cold = run_sweep(small_sweep(), store=store, policy=policy)
        pristine = store_rows.body(store, cold.sweep_hash, "sweeps")
        store_rows.plant(
            store,
            cold.sweep_hash,
            {
                "schema": SWEEP_DOC_SCHEMA,
                "sweepHash": cold.sweep_hash,
                "result": damage(json.loads(cold.to_json())),
            },
            "sweeps",
        )
        assert store.get_sweep(cold.sweep_hash) is not None  # it verifies
        again = run_sweep(small_sweep(), store=store, policy=policy)
        assert all(point.from_store for point in again.points)  # point by point
        assert again.to_json() == cold.to_json()
        assert store_rows.body(store, cold.sweep_hash, "sweeps") == pristine

    @pytest.mark.parametrize("executor", ["local", "queue"])
    def test_a_point_written_after_the_row_makes_it_stale(self, tmp_path, executor):
        store = ResultStore(tmp_path)
        policy = ExecutionPolicy(executor=executor)
        cold = run_sweep(small_sweep(), store=store, policy=policy)
        spec_hash = cold.points[0].spec_hash
        store_rows.plant_body(store, spec_hash, store_rows.body(store, spec_hash))
        assert store.sweep_row(cold.sweep_hash) is not None
        assert store.sweep_row(cold.sweep_hash, [spec_hash]) is None
        again = run_sweep(small_sweep(), store=store, policy=policy)
        assert again.to_json() == cold.to_json()
        assert store.sweep_row(cold.sweep_hash, [spec_hash]) is not None

    def test_a_stale_row_of_a_collected_queue_job_is_rebuilt(self, tmp_path):
        # The journal says finished and gc took the chunk rows: the job
        # is reopened and rebuilt from its stored points.
        from repro.estimator.queue import SweepQueue, collect_garbage

        store = ResultStore(tmp_path)
        policy = ExecutionPolicy(executor="queue", chunk_size=2)
        cold = run_sweep(small_sweep(), store=store, policy=policy)
        assert collect_garbage(store)["removedChunks"] > 0
        spec_hash = cold.points[0].spec_hash
        store_rows.plant_body(store, spec_hash, store_rows.body(store, spec_hash))
        assert store.sweep_row(cold.sweep_hash, [spec_hash]) is None
        again = run_sweep(small_sweep(), store=store, policy=policy)
        assert again.to_json() == cold.to_json()
        assert store.sweep_row(cold.sweep_hash, [spec_hash]) is not None
        assert SweepQueue(store).load_job(cold.sweep_hash).status == "finished"

    def test_points_stamped_by_a_clock_running_ahead_leave_the_row_fresh(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        cold = run_sweep(small_sweep(), store=store)
        point_hashes = [point.spec_hash for point in cold.points]
        ahead = store_rows.row(store, point_hashes[0])["written_at"] + 3600.0
        for spec_hash in point_hashes:
            store_rows.update(store, spec_hash, written_at=ahead)
        store_rows.delete(store, cold.sweep_hash, "sweeps")
        assert run_sweep(small_sweep(), store=store).to_json() == cold.to_json()
        assert store_rows.row(store, cold.sweep_hash, "sweeps")["written_at"] >= ahead
        assert store.sweep_row(cold.sweep_hash, point_hashes) is not None
        lookups = count_calls(monkeypatch, ResultStore, "lookup_many")
        assert run_sweep(small_sweep(), store=store).to_json() == cold.to_json()
        assert lookups == []  # answered from the row

    def test_an_interrupted_sweep_writes_no_row(self, tmp_path):
        sweep = small_sweep()
        store = ResultStore(tmp_path)

        def kill_after_first_chunk(event):
            if event.chunk == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                sweep,
                store=store,
                policy=ExecutionPolicy(chunk_size=2),
                progress=kill_after_first_chunk,
            )
        hash_ = sweep.content_hash(default_registry())
        assert store_rows.row(store, hash_, "sweeps") is None
        resumed = run_sweep(sweep, store=store, policy=ExecutionPolicy(chunk_size=2))
        assert resumed.num_from_store == 2  # point by point
        assert resumed.stored and store.sweep_row(hash_) is not None
        assert resumed.to_json() == run_sweep(sweep).to_json()

    def test_an_unwritable_store_skips_the_row_quietly(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        result = run_sweep(small_sweep(), store=ResultStore(blocker / "store"))
        assert result.stored is False
        assert result.to_json() == run_sweep(small_sweep()).to_json()

    def test_queue_without_a_database_answers_with_the_callers_fields(
        self, tmp_path
    ):
        # The file is not a database, so no job is journaled and no row
        # lands: the sweep runs locally against the store instead.
        from repro.estimator.store import DATABASE_NAME

        tmp_path.joinpath(DATABASE_NAME).write_bytes(b"\x00garbage" * 1000)
        store = ResultStore(tmp_path)
        policy = ExecutionPolicy(executor="queue")
        for doc in (SWEEP_DOC, display_variant(SWEEP_DOC)):
            spec = SweepSpec.from_dict(doc)
            answer = run_sweep(spec, store=store, policy=policy)
            assert answer.stored is False
            assert answer.to_json() == run_sweep(spec).to_json()

    def test_the_row_counts_toward_a_bounded_store(self, tmp_path):
        reference = ResultStore(tmp_path / "reference")
        first = run_sweep(small_sweep(), store=reference)
        expected = first.to_json()
        namespaces = reference.stats()["namespaces"]
        row_bytes = namespaces["sweeps"]["bytes"]
        result_bytes = namespaces["results"]["bytes"]
        assert row_bytes == len(store_rows.body(reference, first.sweep_hash, "sweeps"))

        # Room for every point but not for the row as well: writing the
        # row takes the store past its budget and evicts the oldest points.
        store = ResultStore(tmp_path / "bounded", max_bytes=row_bytes + result_bytes - 1)
        assert run_sweep(small_sweep(), store=store).to_json() == expected
        assert store.eviction_stats()["documents"] > 0
        assert run_sweep(small_sweep(), store=store).to_json() == expected
        store.evict(max_bytes=0)  # the row goes too
        assert store.sweep_row(first.sweep_hash) is None
        assert run_sweep(small_sweep(), store=store).to_json() == expected


class TestFrontierStoreIntegration:
    def test_estimate_frontier_warm_start(self, tmp_path):
        from repro import estimate_frontier, qubit_params

        store = ResultStore(tmp_path)
        qubit = qubit_params("qubit_maj_ns_e4")
        factors = [1.0, 4.0, 16.0]
        cold = estimate_frontier(
            COUNTS, qubit, budget=1e-4, depth_factors=factors, store=store
        )
        warm = estimate_frontier(
            COUNTS, qubit, budget=1e-4, depth_factors=factors, store=store
        )
        assert [p.estimates.to_dict() for p in warm] == [
            p.estimates.to_dict() for p in cold
        ]
        assert len(store) == len(factors)

    def test_custom_designer_refuses_a_store(self, tmp_path):
        from repro import TFactoryDesigner, estimate_frontier, qubit_params

        with pytest.raises(ValueError, match="factory_designer"):
            estimate_frontier(
                COUNTS,
                qubit_params("qubit_maj_ns_e4"),
                factory_designer=TFactoryDesigner(),
                store=ResultStore(tmp_path),
            )


class TestSweepCLI:
    def _write_sweep(self, tmp_path, doc=None):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc if doc is not None else SWEEP_DOC))
        return path

    def test_table_output_and_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_sweep(tmp_path)
        assert main(["sweep", str(path), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "phys qubits" in out
        assert "frontier [qubits-runtime]" in out

    def test_json_output_is_the_result_document(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_sweep(tmp_path)
        assert main(["sweep", str(path), "--quiet", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["counts"] == {"total": 6, "ok": 6, "failed": 0}
        assert len(document["points"]) == 6

    def test_resume_requires_store(self, tmp_path):
        from repro.cli import main

        path = self._write_sweep(tmp_path)
        with pytest.raises(SystemExit):
            main(["sweep", str(path), "--resume"])

    def test_resume_reports_warm_points_and_matches_cold(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_sweep(tmp_path)
        store_dir = tmp_path / "store"
        assert main(["sweep", str(path), "--store", str(store_dir), "--json"]) == 0
        captured = capsys.readouterr()
        cold = json.loads(captured.out)
        assert "0/6 points already stored" not in captured.err  # no --resume yet

        assert (
            main(
                [
                    "sweep",
                    str(path),
                    "--store",
                    str(store_dir),
                    "--resume",
                    "--json",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "resume: 6/6 points already stored" in captured.err
        assert "(6 from store, 0 failed)" in captured.err
        assert json.loads(captured.out) == cold

    def test_resume_counts_stored_failures(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_sweep(tmp_path, INFEASIBLE_SWEEP_DOC)
        store_dir = tmp_path / "store"
        argv = ["sweep", str(path), "--store", str(store_dir), "--resume", "--json"]
        assert main(argv) == 1  # infeasible points exit 1
        captured = capsys.readouterr()
        cold = captured.out
        assert "resume: 0/4 points already stored" in captured.err
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "resume: 4/4 points already stored" in captured.err
        assert "(4 from store, 2 failed)" in captured.err
        assert captured.out == cold

    def test_resume_skips_an_undecodable_document(self, tmp_path, capsys):
        """A document the sweep cannot answer from (it fails to decode)
        is not counted as stored: it is recomputed, and the store heals."""
        from repro.cli import main
        from repro.estimator.store import RESULT_SCHEMA

        path = self._write_sweep(tmp_path)
        store_dir = tmp_path / "store"
        argv = ["sweep", str(path), "--store", str(store_dir), "--resume", "--json"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        spec_hash = json.loads(cold)["points"][0]["specHash"]
        store = ResultStore(store_dir)
        pristine = store_rows.body(store, spec_hash)
        undecodable = {
            "schema": RESULT_SCHEMA,
            "specHash": spec_hash,
            "spec": None,
            "result": {"physicalCounts": {}},
        }
        store_rows.plant(store, spec_hash, undecodable)
        assert store.get_raw(spec_hash) is not None  # verifies, then
        assert store.lookup(spec_hash) is None  # fails to decode

        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "resume: 5/6 points already stored" in captured.err
        assert "(5 from store, 0 failed)" in captured.err
        assert captured.out == cold
        assert store_rows.body(store, spec_hash) == pristine

    def test_a_queue_rerun_recomputes_an_undecodable_document(
        self, tmp_path, capsys
    ):
        """The plant is newer than the local run's row, so the row is
        stale for the queue executor too: it reruns the chunks instead of
        calling the job finished, and the store heals."""
        from repro.cli import main
        from repro.estimator.store import RESULT_SCHEMA

        path = self._write_sweep(tmp_path)
        store_dir = tmp_path / "store"
        argv = ["sweep", str(path), "--store", str(store_dir), "--resume", "--json"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        spec_hash = json.loads(cold)["points"][0]["specHash"]
        store = ResultStore(store_dir)
        pristine = store_rows.body(store, spec_hash)
        store_rows.plant(
            store,
            spec_hash,
            {
                "schema": RESULT_SCHEMA,
                "specHash": spec_hash,
                "spec": None,
                "result": {"physicalCounts": {}},
            },
        )

        assert main([*argv, "--executor", "queue"]) == 0
        captured = capsys.readouterr()
        assert "resume: 5/6 points already stored" in captured.err
        assert "(5 from store, 0 failed)" in captured.err
        assert captured.out == cold
        assert store_rows.body(store, spec_hash) == pristine
        assert main([*argv, "--executor", "queue"]) == 0
        captured = capsys.readouterr()
        assert "resume: 6/6 points already stored" in captured.err
        assert captured.out == cold

    def test_resume_reads_a_finished_sweeps_row_once(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        path = self._write_sweep(tmp_path)
        argv = ["sweep", str(path), "--store", str(tmp_path / "store"), "--resume"]
        assert main([*argv, "--json"]) == 0
        cold = capsys.readouterr().out
        rows = count_calls(monkeypatch, ResultStore, "sweep_row")
        lookups = count_calls(monkeypatch, ResultStore, "lookup_many")
        assert main([*argv, "--json"]) == 0
        captured = capsys.readouterr()
        assert "resume: 6/6 points already stored" in captured.err
        assert captured.out == cold
        assert len(rows) == 1 and lookups == []

    def test_resume_hashes_each_point_once(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        encoded, hashed = record_spec_hashing(monkeypatch)
        digests = count_calls(monkeypatch, SweepSpec, "_digest")
        path = self._write_sweep(tmp_path)
        store_dir = str(tmp_path / "store")
        for _ in range(2):  # cold, then warm
            encoded.clear()
            digests.clear()
            main(["sweep", str(path), "--store", store_dir, "--resume", "--quiet"])
            assert len(set(encoded)) == len(encoded) <= 2  # two profiles
            assert hashed == []
            assert len(digests) == 1  # the sweep hash, once per run
        assert "resume: 6/6 points already stored" in capsys.readouterr().err

    def test_csv_output_to_file(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_sweep(tmp_path)
        out_csv = tmp_path / "points.csv"
        assert main(["sweep", str(path), "--quiet", "--csv", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 7

    def test_failed_points_set_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        doc = json.loads(json.dumps(SWEEP_DOC))
        doc["axes"][1]["values"] = ["qubit_gate_ns_e3", "bogus_profile"]
        path = self._write_sweep(tmp_path, doc)
        assert main(["sweep", str(path), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "bogus_profile" in captured.out
        assert "3 of 6 points infeasible" in captured.err

    def test_malformed_sweep_file_is_a_spec_error(self, tmp_path):
        from repro.cli import main

        path = self._write_sweep(tmp_path, {"axes": []})
        with pytest.raises(SystemExit, match="invalid sweep spec"):
            main(["sweep", str(path)])

    def test_unreadable_file(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="cannot read sweep file"):
            main(["sweep", str(tmp_path / "missing.json")])


class TestRunnerOnSweep:
    def test_run_estimate_rows_empty_points(self):
        from repro.experiments.runner import run_estimate_rows

        assert run_estimate_rows([]) == []

    def test_figure_rows_resume_from_store(self, tmp_path):
        from repro.experiments.runner import run_estimate_rows

        store = ResultStore(tmp_path)
        points = [("schoolbook", 16, "qubit_maj_ns_e4"), ("windowed", 16, "qubit_maj_ns_e4")]
        cold = run_estimate_rows(points, budget=1e-4, store=store)
        assert len(store) == 2
        warm = run_estimate_rows(points, budget=1e-4, store=store)
        assert warm == cold
