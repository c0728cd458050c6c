"""Tests for the adaptive inverse-design layer (``repro optimize``).

The load-bearing assertions mirror the sweep suite's:

* **Answer equality** — a seeded hypothesis property asserting that on
  monotone problems (budget ladders under ``maxTFactories == 1``) the
  adaptive search returns *exactly* the point set a dense sweep plus
  :func:`reduce_answer` would, for every objective and constraint mix.
* **Kill-and-resume** — interrupting a store-backed optimize mid-run and
  re-running it produces a result document bit-for-bit equal to an
  uninterrupted run, with the finished probes answered from the store.
* **Warm re-runs** — re-submitting a finished question answers from its
  stored ``repro-optimize-v1`` probe trace with zero engine evaluations.
"""

from __future__ import annotations

import json

import pytest
import store_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LogicalCounts, Registry, ResultStore
from repro.estimator.engine import ExecutionPolicy
from repro.estimator.optimize import (
    EXHAUSTIVE_LIMIT,
    OptimizeConstraints,
    OptimizeResult,
    OptimizeSpec,
    reduce_answer,
    run_optimize,
)
from repro.estimator.sweep import run_sweep

COUNTS = LogicalCounts(
    num_qubits=40, t_count=20_000, ccz_count=5_000, measurement_count=500
)

#: Base spec fragment shared by every monotone problem: one workload,
#: one profile, T-factory parallelism pinned (the qubit-monotonicity
#: precondition asserted in tests/test_invariants.py).
BASE = {
    "program": {"counts": COUNTS.to_dict()},
    "qubit": {"profile": "qubit_gate_ns_e3"},
    "constraints": {"maxTFactories": 1},
}

#: A small reference question used by the resume/CLI/executor tests:
#: 24 budgets under a runtime cap. Geom ladders must stay below 1.0
#: (the error-budget domain); 1e-9 * 1.7**23 ~= 2e-4.
OPTIMIZE_DOC = {
    "base": BASE,
    "axes": [
        {"field": "budget", "geom": {"start": 1e-9, "factor": 1.7, "count": 24}}
    ],
    "objective": "min-qubits",
    "constraints": {"maxRuntime_s": 10},
}


def small_optimize() -> OptimizeSpec:
    return OptimizeSpec.from_dict(json.loads(json.dumps(OPTIMIZE_DOC)))


def geom_values(start: float, factor: float, count: int) -> list[float]:
    """The geom ladder's exact floats (iterative, like the expansion)."""
    values, value = [], start
    for _ in range(count):
        values.append(value)
        value *= factor
    return values


def dense_answer(spec: OptimizeSpec) -> tuple[int, ...]:
    """The reference answer: full dense sweep + shared reduction."""
    dense = run_sweep(spec.sweep_spec())
    return reduce_answer(
        spec.objective,
        spec.constraints,
        [(point.index, point.result) for point in dense.points],
    )


class TestOptimizeSpecParsing:
    def test_round_trip(self):
        spec = small_optimize()
        again = OptimizeSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown optimize fields"):
            OptimizeSpec.from_dict({**OPTIMIZE_DOC, "bogus": 1})
        with pytest.raises(ValueError, match="unknown optimize constraints"):
            OptimizeSpec.from_dict(
                {**OPTIMIZE_DOC, "constraints": {"maxDistance": 9}}
            )

    def test_objective_required_and_validated(self):
        doc = {k: v for k, v in OPTIMIZE_DOC.items() if k != "objective"}
        with pytest.raises(ValueError, match="needs an 'objective'"):
            OptimizeSpec.from_dict(doc)
        with pytest.raises(ValueError, match="unknown objective"):
            OptimizeSpec.from_dict({**OPTIMIZE_DOC, "objective": "max-qubits"})

    def test_one_or_two_axes(self):
        with pytest.raises(ValueError, match="non-empty 'axes'"):
            OptimizeSpec.from_dict({**OPTIMIZE_DOC, "axes": []})
        three = [
            {"field": "budget", "values": [1e-4]},
            {"field": "qubit", "values": ["qubit_gate_ns_e3"]},
            {"field": "scheme", "values": ["surface_code"]},
        ]
        with pytest.raises(ValueError, match="one or two axes"):
            OptimizeSpec.from_dict({**OPTIMIZE_DOC, "axes": three})

    def test_schema_tag_checked(self):
        with pytest.raises(ValueError, match="unsupported optimize schema"):
            OptimizeSpec.from_dict({**OPTIMIZE_DOC, "schema": "repro-optimize-v0"})

    def test_constraints_validated(self):
        with pytest.raises(ValueError, match="positive number"):
            OptimizeConstraints(max_runtime_s=-1)
        with pytest.raises(ValueError, match="positive number"):
            OptimizeConstraints(max_physical_qubits=0)
        with pytest.raises(ValueError, match="JSON object"):
            OptimizeConstraints.from_dict([1])

    def test_module_docstring_example_expands(self):
        # The documented example must be a runnable question: every point
        # of its grid has to resolve to a valid spec.
        import repro.estimator.optimize as module

        example = json.loads(module.__doc__.split("::\n", 1)[1])
        spec = OptimizeSpec.from_dict(example)
        assert len(spec.sweep_spec().expand()) == spec.num_points() == 2 * 128

    def test_result_document_round_trips(self):
        result = run_optimize(small_optimize())
        document = result.to_dict()
        again = OptimizeResult.from_dict(json.loads(json.dumps(document)))
        assert again.to_dict() == document

    def test_result_document_schema_checked(self):
        with pytest.raises(ValueError, match="optimize result document"):
            OptimizeResult.from_dict({"schema": "repro-sweep-v1"})

    def test_queue_executor_requires_a_store(self, tmp_path):
        with pytest.raises(ValueError, match="requires a result store"):
            run_optimize(small_optimize(), policy=ExecutionPolicy(executor="queue"))


class TestContentHash:
    def test_equivalent_axis_spellings_hash_identically(self):
        values = geom_values(1e-9, 1.7, 24)
        explicit = OptimizeSpec.from_dict(
            {
                **OPTIMIZE_DOC,
                "axes": [{"field": "budget", "values": values}],
            }
        )
        assert explicit.content_hash() == small_optimize().content_hash()

    def test_label_excluded_from_the_hash(self):
        labeled = OptimizeSpec.from_dict({**OPTIMIZE_DOC, "label": "anything"})
        assert labeled.content_hash() == small_optimize().content_hash()

    def test_objective_and_constraints_change_the_hash(self):
        baseline = small_optimize().content_hash()
        assert (
            OptimizeSpec.from_dict(
                {**OPTIMIZE_DOC, "objective": "min-runtime"}
            ).content_hash()
            != baseline
        )
        assert (
            OptimizeSpec.from_dict(
                {**OPTIMIZE_DOC, "constraints": {"maxRuntime_s": 20}}
            ).content_hash()
            != baseline
        )


class TestReduceAnswer:
    def test_empty_and_all_infeasible(self):
        constraints = OptimizeConstraints(max_runtime_s=1e-12)
        assert reduce_answer("min-qubits", OptimizeConstraints(), []) == ()
        result = run_optimize(small_optimize()).answer_probes()[0].result
        assert reduce_answer("min-qubits", constraints, [(0, result)]) == ()
        assert reduce_answer("min-qubits", OptimizeConstraints(), [(0, None)]) == ()

    def test_exact_ties_keep_the_lowest_index(self):
        result = run_optimize(small_optimize()).answer_probes()[0].result
        points = [(2, result), (5, result), (9, result)]
        assert reduce_answer("min-qubits", OptimizeConstraints(), points) == (2,)
        assert reduce_answer("min-runtime", OptimizeConstraints(), points) == (2,)
        assert reduce_answer("qubits-runtime", OptimizeConstraints(), points) == (2,)


#: Free-parallelism variant of BASE: the regime where *runtime* is the
#: proven-monotone metric (the engine adds T-factory copies to hold the
#: algorithm-bound runtime; total qubits are not monotone here).
BASE_FREE = {
    "program": {"counts": COUNTS.to_dict()},
    "qubit": {"profile": "qubit_gate_ns_e3"},
}

#: (factor, count) pairs whose geom ladder from 1e-9/1e-8 stays < 1.0.
LADDERS = ((1.3, 48), (1.7, 30), (2.0, 25))


def _budget_spec(base, start, factor, count, objective, constraints):
    return OptimizeSpec.from_dict(
        {
            "base": base,
            "axes": [
                {
                    "field": "budget",
                    "geom": {"start": start, "factor": factor, "count": count},
                }
            ],
            "objective": objective,
            "constraints": constraints,
        }
    )


class TestAnswerEqualsDense:
    """The adaptive contract: exact answer equality on monotone grids.

    The two proven budget-axis structures are mutually exclusive — qubits
    monotone under ``maxTFactories == 1``, runtime monotone with free
    parallelism — so each property runs in its own regime.
    """

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        start=st.sampled_from((1e-9, 1e-8)),
        ladder=st.sampled_from(LADDERS),
        constraints=st.sampled_from(
            ({}, {"maxPhysicalQubits": 400_000}, {"maxPhysicalQubits": 120_000})
        ),
    )
    def test_min_qubits_matches_dense_under_pinned_factories(
        self, start, ladder, constraints
    ):
        factor, count = ladder
        spec = _budget_spec(BASE, start, factor, count, "min-qubits", constraints)
        result = run_optimize(spec)
        assert result.answer == dense_answer(spec), (start, ladder, constraints)
        # Adaptive means adaptive: well under half the grid was probed.
        assert result.num_evaluations < spec.num_points() / 2

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        start=st.sampled_from((1e-9, 1e-8)),
        ladder=st.sampled_from(LADDERS),
        constraints=st.sampled_from(
            ({}, {"maxRuntime_s": 2}, {"maxRuntime_s": 10})
        ),
    )
    def test_min_runtime_matches_dense_under_free_factories(
        self, start, ladder, constraints
    ):
        factor, count = ladder
        spec = _budget_spec(
            BASE_FREE, start, factor, count, "min-runtime", constraints
        )
        result = run_optimize(spec)
        assert result.answer == dense_answer(spec), (start, ladder, constraints)
        assert result.num_evaluations < spec.num_points() / 2

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(
        start=st.sampled_from((1e-9, 1e-8)),
        constraints=st.sampled_from(({}, {"maxRuntime_s": 10})),
    )
    def test_frontier_objective_matches_dense(self, start, constraints):
        spec = _budget_spec(
            BASE, start, 1.7, 30, "qubits-runtime", constraints
        )
        result = run_optimize(spec)
        assert result.answer == dense_answer(spec)

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(
        start=st.sampled_from((1e-9, 1e-8)),
        cap=st.sampled_from((5, 10)),
    )
    def test_mixed_structure_falls_back_to_a_feasible_answer(self, start, cap):
        # A runtime cap under pinned factories has no proven runtime
        # direction -> bounded refinement. The answer must still be a
        # probed, feasible point (refinement never fabricates one).
        spec = _budget_spec(
            BASE, start, 1.7, 30, "min-qubits", {"maxRuntime_s": cap}
        )
        result = run_optimize(spec)
        probed = {probe.index for probe in result.probes}
        for index in result.answer:
            assert index in probed
        for probe in result.answer_probes():
            assert probe.feasible
            assert probe.result.runtime_seconds <= cap

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(
        objective=st.sampled_from(("min-qubits", "qubits-runtime")),
        constraints=st.sampled_from(({}, {"maxPhysicalQubits": 400_000})),
    )
    def test_two_axis_profile_times_budget_matches_dense(
        self, objective, constraints
    ):
        spec = OptimizeSpec.from_dict(
            {
                "base": {
                    "program": {"counts": COUNTS.to_dict()},
                    "constraints": {"maxTFactories": 1},
                },
                "axes": [
                    {
                        "field": "qubit",
                        "values": ["qubit_gate_ns_e3", "qubit_maj_ns_e4"],
                    },
                    {
                        "field": "budget",
                        "geom": {"start": 1e-9, "factor": 1.7, "count": 24},
                    },
                ],
                "objective": objective,
                "constraints": constraints,
            }
        )
        result = run_optimize(spec)
        assert result.answer == dense_answer(spec)
        assert result.num_evaluations < spec.num_points()

    def test_short_fallback_axis_is_probed_exhaustively_and_exact(self):
        # maxTFactories has no proven monotone structure -> the search
        # falls back; at <= EXHAUSTIVE_LIMIT values it probes the whole
        # column, so the answer is exact regardless of structure.
        spec = OptimizeSpec.from_dict(
            {
                "base": {
                    "program": {"counts": COUNTS.to_dict()},
                    "qubit": {"profile": "qubit_gate_ns_e3"},
                    "budget": 1e-4,
                },
                "axes": [
                    {
                        "field": "constraints.maxTFactories",
                        "range": {"start": 1, "stop": 12},
                    }
                ],
                "objective": "min-runtime",
                "constraints": {"maxPhysicalQubits": 1_000_000},
            }
        )
        assert spec.num_points() <= EXHAUSTIVE_LIMIT
        result = run_optimize(spec)
        assert result.answer == dense_answer(spec)
        assert len(result.probes) == spec.num_points()

    def test_long_fallback_axis_answer_is_on_the_dense_frontier(self):
        # Above EXHAUSTIVE_LIMIT an unproven axis gets bounded local
        # refinement. logicalDepthFactor trades runtime for qubits
        # smoothly, so refinement must still land on the dense answer.
        spec = OptimizeSpec.from_dict(
            {
                "base": {
                    "program": {"counts": COUNTS.to_dict()},
                    "qubit": {"profile": "qubit_gate_ns_e3"},
                    "budget": 1e-3,
                },
                "axes": [
                    {
                        "field": "constraints.logicalDepthFactor",
                        "geom": {"start": 1, "factor": 1.3, "count": 24},
                    }
                ],
                "objective": "min-qubits",
                "constraints": {},
            }
        )
        result = run_optimize(spec)
        assert result.answer == dense_answer(spec)

    def test_infeasible_question_returns_empty_answer_quickly(self):
        spec = _budget_spec(
            BASE, 1e-9, 1.7, 30, "min-qubits", {"maxPhysicalQubits": 10}
        )
        result = run_optimize(spec)
        assert result.answer == ()
        assert result.num_feasible == 0
        # Monotone infeasibility is *proven* from the endpoints, not
        # discovered by scanning.
        assert result.num_evaluations <= 4
        assert dense_answer(spec) == ()


class Kill(Exception):
    """Raised by a progress hook to simulate an operator interrupt."""


class TestStoreBackedResume:
    def test_warm_rerun_answers_from_the_stored_trace(self, tmp_path):
        spec = small_optimize()
        store = ResultStore(tmp_path)
        cold = run_optimize(spec, store=store)
        assert cold.from_trace is False and cold.num_evaluations > 0
        warm = run_optimize(spec, store=store)
        assert warm.from_trace is True
        assert warm.num_evaluations == 0
        assert warm.to_dict() == cold.to_dict()

    def test_equivalent_respelling_answers_from_the_stored_trace(self, tmp_path):
        store = ResultStore(tmp_path)
        run_optimize(small_optimize(), store=store)
        values = geom_values(1e-9, 1.7, 24)
        respelled = OptimizeSpec.from_dict(
            {**OPTIMIZE_DOC, "axes": [{"field": "budget", "values": values}]}
        )
        warm = run_optimize(respelled, store=store)
        assert warm.from_trace is True

    def test_kill_and_resume_is_bit_for_bit(self, tmp_path):
        """The acceptance test: interrupt mid-search, resume, compare."""
        spec = small_optimize()
        reference = run_optimize(spec, store=ResultStore(tmp_path / "ref"))

        store = ResultStore(tmp_path / "killed")

        def kill_mid_search(event):
            if event.round >= 2:
                raise Kill

        with pytest.raises(Kill):
            run_optimize(spec, store=store, progress=kill_mid_search)
        trace = store.get_optimize(reference.optimize_hash)
        assert trace is not None and trace["status"] == "running"
        assert len(trace["probes"]) > 0, "finished rounds must be persisted"

        resumed = run_optimize(spec, store=store)
        assert resumed.from_trace is False  # recomputed, not the warm path
        probes_from_store = sum(1 for p in resumed.probes if p.from_store)
        assert probes_from_store >= len(trace["probes"])
        assert resumed.to_dict() == reference.to_dict()

    def test_corrupt_trace_is_recomputed_and_healed(self, tmp_path):
        spec = small_optimize()
        store = ResultStore(tmp_path)
        cold = run_optimize(spec, store=store)
        store_rows.update(store, cold.optimize_hash, "optimize", body=b"{not json")
        healed = run_optimize(spec, store=store)
        assert healed.from_trace is False
        assert healed.to_dict() == cold.to_dict()
        # The trace was overwritten: a third run is warm again.
        assert run_optimize(spec, store=store).from_trace is True

    def test_progress_events_accumulate(self, tmp_path):
        events = []
        result = run_optimize(
            small_optimize(), store=ResultStore(tmp_path), progress=events.append
        )
        assert [e.round for e in events] == list(range(1, len(events) + 1))
        assert events[-1].probes == len(result.probes)
        assert events[-1].feasible == result.num_feasible
        cumulative = [e.evaluations for e in events]
        assert cumulative == sorted(cumulative)  # running total
        assert cumulative[-1] == result.num_evaluations


class TestQueueExecutor:
    def test_queue_matches_local_bit_for_bit(self, tmp_path):
        spec = small_optimize()
        local = run_optimize(spec, store=ResultStore(tmp_path / "local"))
        queued = run_optimize(
            spec,
            store=ResultStore(tmp_path / "queue"),
            policy=ExecutionPolicy(executor="queue"),
        )
        assert queued.to_dict() == local.to_dict()
        assert queued.num_evaluations == local.num_evaluations

    def test_stored_failures_are_hits_on_both_executors(self, tmp_path):
        # A qubit cap that makes the low-budget probes infeasible: their
        # error documents are store hits on the queue path too.
        import shutil

        doc = json.loads(json.dumps(OPTIMIZE_DOC))
        doc["base"]["constraints"] = {"maxTFactories": 1, "maxPhysicalQubits": 160_000}
        spec = OptimizeSpec.from_dict(doc)
        run_sweep(spec.sweep_spec(), store=ResultStore(tmp_path / "local"))
        shutil.copytree(tmp_path / "local", tmp_path / "queue")
        local = run_optimize(spec, store=ResultStore(tmp_path / "local"))
        queued = run_optimize(
            spec,
            store=ResultStore(tmp_path / "queue"),
            policy=ExecutionPolicy(executor="queue"),
        )
        assert any(not probe.ok for probe in local.probes)
        assert all(probe.from_store for probe in local.probes)
        assert [p.from_store for p in queued.probes] == [
            p.from_store for p in local.probes
        ]
        assert queued.num_evaluations == local.num_evaluations == 0
        assert queued.to_dict() == local.to_dict()


class TestOptimizeCLI:
    def _write(self, tmp_path, doc=None):
        path = tmp_path / "optimize.json"
        path.write_text(json.dumps(doc if doc is not None else OPTIMIZE_DOC))
        return path

    def test_table_output_and_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["optimize", str(self._write(tmp_path)), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "objective min-qubits" in out
        assert "phys qubits" in out

    def test_json_output_is_the_result_document(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path)
        assert main(["optimize", str(path), "--quiet", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["counts"]["grid"] == 24
        assert document["answer"]["objective"] == "min-qubits"
        assert document["answer"]["points"]

    def test_warm_resume_answers_from_trace_and_matches_cold(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = self._write(tmp_path)
        store_dir = tmp_path / "store"
        assert (
            main(["optimize", str(path), "--store", str(store_dir), "--json"])
            == 0
        )
        cold = json.loads(capsys.readouterr().out)
        args = [
            "optimize",
            str(path),
            "--store",
            str(store_dir),
            "--resume",
            "--json",
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "resume: stored trace is 'done'" in captured.err
        assert "answered from stored trace (0 evaluations)" in captured.err
        assert json.loads(captured.out) == cold

    def test_resume_without_prior_trace_says_so(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path)
        args = ["optimize", str(path), "--store", str(tmp_path / "s"), "--resume"]
        assert main(args + ["--quiet"]) == 0
        assert "resume: no stored probe trace" in capsys.readouterr().err

    def test_infeasible_question_sets_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        doc = json.loads(json.dumps(OPTIMIZE_DOC))
        doc["constraints"] = {"maxPhysicalQubits": 10}
        assert main(["optimize", str(self._write(tmp_path, doc)), "--quiet"]) == 1
        assert "no feasible point" in capsys.readouterr().out

    def test_flag_validation(self, tmp_path):
        from repro.cli import main

        path = self._write(tmp_path)
        for args in (
            ["optimize", str(path), "--resume"],
            ["optimize", str(path), "--executor", "queue"],
            ["optimize", str(path), "--workers", "0"],
            ["optimize", str(path), "--lease-ttl", "0"],
        ):
            with pytest.raises(SystemExit):
                main(args)

    def test_malformed_optimize_file_is_a_spec_error(self, tmp_path):
        from repro.cli import main

        path = self._write(tmp_path, {"axes": []})
        with pytest.raises(SystemExit, match="invalid optimize spec"):
            main(["optimize", str(path)])

    def test_unreadable_file(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="cannot read optimize file"):
            main(["optimize", str(tmp_path / "missing.json")])
