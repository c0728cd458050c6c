"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

COUNTS = {
    "num_qubits": 50,
    "t_count": 100_000,
    "ccz_count": 50_000,
    "measurement_count": 1_000,
}


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(COUNTS))
    return path


@pytest.fixture
def qir_file(tmp_path):
    path = tmp_path / "program.ll"
    path.write_text(
        """
define void @main() {
entry:
  %q0 = call %Qubit* @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__t__body(%Qubit* %q0)
  %r0 = call %Result* @__quantum__qis__m__body(%Qubit* %q0)
  ret void
}
"""
    )
    return path


class TestCountsInput:
    def test_summary_output(self, counts_file, capsys):
        assert main(["--counts", str(counts_file)]) == 0
        out = capsys.readouterr().out
        assert "Physical resource estimates" in out
        assert "Code distance" in out

    def test_json_output(self, counts_file, capsys):
        assert main(["--counts", str(counts_file), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["physicalCounts"]["physicalQubits"] > 0
        assert report["preLayoutLogicalResources"]["t_count"] == 100_000

    def test_profile_and_budget_flags(self, counts_file, capsys):
        assert main([
            "--counts", str(counts_file),
            "--profile", "qubit_maj_ns_e4",
            "--budget", "1e-4",
            "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["logicalQubit"]["qecScheme"]["name"] == "floquet_code"

    def test_explicit_scheme_flag(self, counts_file, capsys):
        assert main([
            "--counts", str(counts_file),
            "--profile", "qubit_maj_ns_e4",
            "--qec-scheme", "surface_code",
            "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["logicalQubit"]["qecScheme"]["name"] == "surface_code"

    def test_constraints_flags(self, counts_file, capsys):
        assert main([
            "--counts", str(counts_file),
            "--max-t-factories", "2",
            "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tFactory"]["copies"] <= 2

    def test_assess_flag(self, counts_file, capsys):
        assert main(["--counts", str(counts_file), "--assess"]) == 0
        out = capsys.readouterr().out
        assert "Implementation level" in out

    def test_assess_json(self, counts_file, capsys):
        assert main(["--counts", str(counts_file), "--assess", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["advantageAssessment"]["levelName"] in (
            "foundational", "resilient", "scale"
        )


class TestQIRInput:
    def test_qir_estimation(self, qir_file, capsys):
        assert main(["--qir", str(qir_file), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["preLayoutLogicalResources"]["t_count"] == 1

    def test_bad_qir_exits_with_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.ll"
        bad.write_text("this is not QIR")
        with pytest.raises(SystemExit, match="QIR parse failed"):
            main(["--qir", str(bad)])


class TestBatchSubcommand:
    @pytest.fixture
    def multiplier_grid(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            json.dumps(
                {
                    "algorithms": ["schoolbook", "windowed"],
                    "bits": [32],
                    "profiles": ["qubit_maj_ns_e4"],
                    "budgets": [1e-4],
                }
            )
        )
        return path

    @pytest.fixture
    def counts_grid(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            json.dumps(
                {
                    "counts": COUNTS,
                    "profiles": ["qubit_maj_ns_e4", "qubit_gate_ns_e4"],
                    "budgets": [1e-3],
                    "depth_factors": [1.0, 4.0],
                }
            )
        )
        return path

    def test_multiplier_grid_table(self, multiplier_grid, capsys):
        assert main(["batch", str(multiplier_grid)]) == 0
        out = capsys.readouterr().out
        assert "schoolbook/32" in out and "windowed/32" in out
        assert "qubit_maj_ns_e4" in out

    def test_counts_grid_json(self, counts_grid, capsys):
        assert main(["batch", str(counts_grid), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 4  # 2 profiles x 2 depth factors
        assert all(r["ok"] for r in records)
        assert records[0]["result"]["physicalQubits"] > 0
        # A stretched point runs longer than the unstretched one.
        assert records[1]["result"]["runtime_s"] > records[0]["result"]["runtime_s"]

    def test_backend_flag_matches_default(self, multiplier_grid, capsys):
        assert main(["batch", str(multiplier_grid), "--json"]) == 0
        formula = json.loads(capsys.readouterr().out)
        assert main(
            ["batch", str(multiplier_grid), "--json", "--backend", "counting"]
        ) == 0
        counting = json.loads(capsys.readouterr().out)
        assert counting == formula

    def test_workers_flag_matches_serial(self, multiplier_grid, capsys):
        assert main(["batch", str(multiplier_grid), "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["batch", str(multiplier_grid), "--json", "--workers", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial == parallel

    def test_infeasible_points_reported_with_exit_code(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "counts": COUNTS,
                    "profiles": ["qubit_maj_ns_e4"],
                    "max_physical_qubits": 100,  # no point can fit
                }
            )
        )
        assert main(["batch", str(grid)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.out
        assert "infeasible" in captured.err

    def test_scheme_incompatible_with_profile_is_a_spec_error(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "counts": COUNTS,
                    "profiles": ["qubit_gate_ns_e4"],
                    "qec_scheme": "floquet_code",
                }
            )
        )
        with pytest.raises(SystemExit, match="invalid grid spec"):
            main(["batch", str(grid)])

    def test_rejects_grid_with_both_program_kinds(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "counts": COUNTS,
                    "algorithms": ["schoolbook"],
                    "bits": [32],
                    "profiles": ["qubit_maj_ns_e4"],
                }
            )
        )
        with pytest.raises(SystemExit, match="either"):
            main(["batch", str(grid)])

    def test_rejects_missing_profiles(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"counts": COUNTS}))
        with pytest.raises(SystemExit, match="profiles"):
            main(["batch", str(grid)])

    def test_rejects_unreadable_spec(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read grid spec"):
            main(["batch", str(tmp_path / "nope.json")])

    def test_rejects_non_numeric_budgets(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "counts": COUNTS,
                    "profiles": ["qubit_maj_ns_e4"],
                    "budgets": ["abc"],
                }
            )
        )
        with pytest.raises(SystemExit, match="invalid 'budgets'"):
            main(["batch", str(grid)])

    def test_rejects_empty_depth_factors(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "counts": COUNTS,
                    "profiles": ["qubit_maj_ns_e4"],
                    "depth_factors": [],
                }
            )
        )
        with pytest.raises(SystemExit, match="non-empty list"):
            main(["batch", str(grid)])

    def test_scenario_profile_flows_through_batch(self, tmp_path, capsys):
        scenario = tmp_path / "hw.json"
        scenario.write_text(
            json.dumps(
                {
                    "schema": "repro-scenario-v1",
                    "qubitParams": [
                        {
                            "name": "cli_batch_qubit",
                            "instruction_set": "gate_based",
                            "one_qubit_measurement_time_ns": 80.0,
                            "one_qubit_measurement_error_rate": 5e-4,
                            "one_qubit_gate_time_ns": 40.0,
                            "one_qubit_gate_error_rate": 5e-4,
                            "two_qubit_gate_time_ns": 40.0,
                            "two_qubit_gate_error_rate": 5e-4,
                            "t_gate_time_ns": 40.0,
                            "t_gate_error_rate": 5e-4,
                        }
                    ],
                }
            )
        )
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps({"counts": COUNTS, "profiles": ["cli_batch_qubit"]})
        )
        assert main(
            ["batch", str(grid), "--scenario", str(scenario), "--json"]
        ) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["ok"] and records[0]["profile"] == "cli_batch_qubit"

    def test_store_flag_warm_run_hits(self, multiplier_grid, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["batch", str(multiplier_grid), "--store", str(store), "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert all(not r["fromStore"] for r in cold)
        assert main(["batch", str(multiplier_grid), "--store", str(store), "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert all(r["fromStore"] for r in warm)
        assert [r["result"] for r in warm] == [r["result"] for r in cold]

    def test_rejects_unknown_algorithm(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "algorithms": ["bogus"],
                    "bits": [32],
                    "profiles": ["qubit_maj_ns_e4"],
                }
            )
        )
        with pytest.raises(SystemExit, match="unknown multiplier"):
            main(["batch", str(grid)])


class TestSweepRow:
    """``repro sweep`` answered from a finished sweep's stored row."""

    #: Two feasible and two infeasible points (a 100-qubit cap).
    SWEEP = {
        "base": {"program": {"counts": COUNTS}, "budget": 1e-3},
        "axes": [
            {"field": "qubit", "values": ["qubit_gate_ns_e3", "qubit_maj_ns_e4"]},
            {"field": "constraints.maxPhysicalQubits", "values": [100, 100_000_000]},
        ],
        "frontier": {"objective": "qubits-runtime", "groupBy": ["qubit"]},
    }

    def _sweep_file(self, tmp_path, name, **fields):
        path = tmp_path / name
        path.write_text(json.dumps({**self.SWEEP, **fields}))
        return path

    def _run(self, capsys, *argv):
        code = main(["sweep", *map(str, argv)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("executor", ["local", "queue"])
    def test_each_file_prints_its_own_display_fields(self, tmp_path, capsys, executor):
        alpha = self._sweep_file(tmp_path, "alpha.json", label="alpha", chunkSize=4)
        beta = self._sweep_file(tmp_path, "beta.json", label="beta", chunkSize=8)
        expected = {
            path: self._run(capsys, path, "--json", "--quiet")[1] for path in (alpha, beta)
        }
        assert expected[alpha] != expected[beta]
        store = tmp_path / "store"
        for path in (alpha, beta, alpha, beta):
            code, out, _ = self._run(
                capsys, path, "--store", store, "--executor", executor, "--json", "--quiet"
            )
            assert code == 1 and out == expected[path]

    def test_a_row_hit_reports_like_a_point_by_point_run(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.estimator.store import ResultStore

        path = self._sweep_file(tmp_path, "sweep.json")
        argv = (path, "--store", tmp_path / "store", "--resume", "--json")
        code, cold, err = self._run(capsys, *argv)
        assert code == 1
        assert "resume: 0/4 points already stored" in err
        assert "[chunk 1/1] 4/4 points (0 from store, 2 failed)" in err

        def no_point_reads(self, spec_hashes):
            raise AssertionError("a row hit reads no point")

        monkeypatch.setattr(ResultStore, "lookup_many", no_point_reads)
        code, warm, err = self._run(capsys, *argv)
        assert code == 1 and warm == cold
        assert err.splitlines() == [
            "resume: 4/4 points already stored",
            "[chunk 1/1] 4/4 points (4 from store, 2 failed)",
            "2 of 4 points infeasible",
        ]
        code, _, err = self._run(capsys, path, "--store", tmp_path / "store", "--quiet")
        assert code == 1 and err == "2 of 4 points infeasible\n"

    def test_a_queue_rerun_answered_by_the_row_enqueues_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        import subprocess

        path = self._sweep_file(tmp_path, "sweep.json")
        store = tmp_path / "store"
        code, cold, _ = self._run(capsys, path, "--store", store, "--json", "--quiet")
        assert code == 1

        def no_helper(*args, **kwargs):
            raise AssertionError("a row hit spawns no worker")

        monkeypatch.setattr(subprocess, "Popen", no_helper)
        code, warm, err = self._run(
            capsys, path, "--store", store, "--executor", "queue", "--workers", "2",
            "--json",
        )
        assert code == 1 and warm == cold
        assert "(4 from store, 2 failed)" in err
        assert not (store / "repro-jobs-v1").exists()
        assert not (store / "repro-queue-v1").exists()

    def test_batch_points_from_the_row_are_from_store(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps({"counts": COUNTS, "profiles": ["qubit_gate_ns_e3"], "budgets": [1e-3, 1e-4]})
        )
        argv = ["batch", str(grid), "--store", str(tmp_path / "store"), "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert [r["fromStore"] for r in warm] == [True, True]
        assert [r["result"] for r in warm] == [r["result"] for r in cold]


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["--counts", str(tmp_path / "nope.json")])

    def test_invalid_counts(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_qubits": 0}))
        with pytest.raises(SystemExit, match="invalid logical counts"):
            main(["--counts", str(path)])

    def test_infeasible_budget_returns_error_code(self, counts_file, capsys):
        # A 0.9999 budget is valid input; push infeasibility via scheme:
        # gate_ns_e3 error rate 1e-3 is above a custom threshold? Use the
        # max-t-factories path: depth factor < 1 is invalid.
        code = main(["--counts", str(counts_file), "--depth-factor", "0.5"])
        assert code == 1
        assert "logical_depth_factor" in capsys.readouterr().err

    def test_unknown_profile_rejected(self, counts_file):
        with pytest.raises(SystemExit):
            main(["--counts", str(counts_file), "--profile", "bogus"])


class TestBenchSubcommand:
    def test_trace_table_output(self, capsys):
        assert main(["bench", "trace", "--algorithm", "windowed", "--bits", "32"]) == 0
        out = capsys.readouterr().out
        assert "build" in out and "trace" in out and "estimate" in out
        assert "physical qubits" in out

    def test_trace_json_stages_and_backends_agree(self, capsys):
        records = {}
        for backend in ("formula", "materialize", "counting"):
            argv = [
                "bench", "trace", "--algorithm", "schoolbook",
                "--bits", "24", "--backend", backend, "--json",
            ]
            assert main(argv) == 0
            records[backend] = json.loads(capsys.readouterr().out)
        counts = {b: r["counts"] for b, r in records.items()}
        assert counts["counting"] == counts["materialize"] == counts["formula"]
        for record in records.values():
            stages = record["stages"]
            assert stages["total_s"] >= stages["estimate_s"] >= 0
            assert record["result"]["physicalQubits"] > 0

    def test_trace_modexp_counting(self, capsys):
        argv = [
            "bench", "trace", "--algorithm", "modexp", "--bits", "16",
            "--exponent-bits", "4", "--backend", "counting", "--json",
        ]
        assert main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["counts"]["ccix_count"] > 0

    def test_rejects_bad_bits(self):
        with pytest.raises(SystemExit):
            main(["bench", "trace", "--bits", "0"])
        with pytest.raises(SystemExit):
            main(["bench", "trace", "--algorithm", "modexp", "--bits", "1"])


class TestRemovedExecutionFlags:
    """The kernel choice, adaptive chunking and ``bench sweep`` are gone:
    typing them is an argparse usage error (exit status 2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "sweep.json", "--kernel", "scalar"],
            ["optimize", "optimize.json", "--kernel", "scalar"],
            ["work", "store", "--kernel", "scalar"],
            ["serve", "--kernel", "scalar"],
            ["sweep", "sweep.json", "--chunk-target", "1"],
            ["serve", "--chunk-target", "1"],
            ["bench", "sweep", "--sweep", "sweep.json"],
        ],
    )
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "0"],
            ["--chunk-size", "0"],
            ["--lease-ttl", "0"],
            ["--executor", "cloud"],
        ],
    )
    def test_policy_values_checked_once(self, flags, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(tmp_path / "sweep.json"), *flags])
        assert excinfo.value.code == 2


class TestPolicyFlagErrors:
    """A bad execution value is reported under the flag that was typed."""

    @pytest.mark.parametrize(
        "argv, flag, message",
        [
            (["work", "store", "--ttl", "0"], "--ttl", "must be > 0, got 0.0"),
            (["sweep", "sweep.json", "--lease-ttl", "0"], "--lease-ttl", "must be > 0"),
            (["sweep", "sweep.json", "--workers", "0"], "--workers", "must be >= 1"),
            (["work", "store", "--workers", "-1"], "--workers", "must be >= 1"),
            (["sweep", "sweep.json", "--chunk-size", "0"], "--chunk-size", "must be >= 1"),
            (["optimize", "optimize.json", "--lease-ttl", "-1"], "--lease-ttl", "must be > 0"),
            (["serve", "--port", "0", "--lease-ttl", "0"], "--lease-ttl", "must be > 0"),
            (["serve", "--port", "0", "--workers", "0"], "--workers", "must be >= 1"),
        ],
    )
    def test_error_names_the_typed_flag(self, argv, flag, message, tmp_path, capsys):
        argv = [str(tmp_path / arg) if arg.endswith((".json", "store")) else arg for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: {message}" in err
        assert "lease_ttl" not in err and "chunk_size" not in err
