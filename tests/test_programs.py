"""Tests for the first-class program layer and the counts cache.

Covers the open program catalog (:mod:`repro.programs`), the registry's
``programs`` section (predefined entries, scenario files, describe), the
spec layer's named/by-kind :class:`ProgramRef` dispatch, sweep axes over
program names, the service's program listing and named submissions, the
persistent counts namespace layered under :func:`run_specs`, and the new
``repro registry`` / ``repro store stats`` / ``--program`` CLI surfaces.
"""

from __future__ import annotations

import json
import threading

import pytest
import store_rows

from repro import (
    EstimateCache,
    EstimateSpec,
    LogicalCounts,
    ProgramRef,
    Registry,
    ResultStore,
    emit_qir,
    estimate,
    parse_qir,
    qubit_params,
    run_specs,
    run_sweep,
)
from repro.cli import main
from repro.estimator.store import COUNTS_SCHEMA
from repro.estimator.sweep import SweepAxis, SweepSpec
from repro.ir import CircuitBuilder
from repro.programs import (
    FormulaProgram,
    InlineCountsProgram,
    ModexpProgram,
    MultiplierProgram,
    ProgramError,
    QIRProgram,
    RandomProgram,
    make_program,
    program_from_dict,
    program_kinds,
)
from repro.registry import RegistryError
from repro.service import EstimationService, ServiceClient, make_server

COUNTS = LogicalCounts(num_qubits=40, t_count=50_000, measurement_count=900)

#: A small hand-written QIR program with a known circuit equivalent.
QIR_TEXT = """
define void @main() {
entry:
  %q0 = call %Qubit* @__quantum__rt__qubit_allocate()
  %q1 = call %Qubit* @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(%Qubit* %q0)
  call void @__quantum__qis__t__body(%Qubit* %q0)
  call void @__quantum__qis__cnot__body(%Qubit* %q0, %Qubit* %q1)
  call void @__quantum__qis__rz__body(double 0.25, %Qubit* %q1)
  call void @__quantum__qis__m__body(%Qubit* %q1)
  ret void
}
"""


def qir_reference_counts() -> LogicalCounts:
    """The same program authored directly through the builder."""
    builder = CircuitBuilder("reference")
    q0 = builder.allocate()
    q1 = builder.allocate()
    builder.h(q0)
    builder.t(q0)
    builder.cx(q0, q1)
    builder.rz(0.25, q1)
    builder.measure(q1)
    return builder.finish().logical_counts()


class TestProgramKinds:
    def test_catalog_lists_all_shipped_kinds(self):
        assert set(program_kinds()) == {
            "multiplier",
            "modexp",
            "qir",
            "formula",
            "random",
            "counts",
        }

    def test_body_round_trip_every_kind(self):
        bodies = {
            "multiplier": {"algorithm": "karatsuba", "bits": 128},
            "modexp": {"bits": 64, "exponentBits": 16, "window": 2},
            "qir": {"text": QIR_TEXT},
            "formula": {
                "counts": {"num_qubits": "2*n", "t_count": "n^2"},
                "variables": {"n": 32},
            },
            "random": {"operations": 50, "seed": 9, "minQubits": 4},
            "counts": COUNTS.to_dict(),
        }
        for kind, body in bodies.items():
            program = make_program(kind, body)
            assert program.kind == kind
            assert make_program(kind, program.to_body()) == program

    def test_unknown_body_fields_rejected(self):
        with pytest.raises(ProgramError, match="unknown modexp program fields"):
            make_program("modexp", {"bits": 8, "algorithm": "windowed"})
        with pytest.raises(ProgramError, match="needs \\['bits'\\]"):
            make_program("modexp", {})

    def test_content_hash_covers_parameters(self):
        a = ModexpProgram(bits=64)
        b = ModexpProgram(bits=64, window=2)
        c = ModexpProgram(bits=128)
        assert len({a.content_hash(), b.content_hash(), c.content_hash()}) == 3
        assert a.content_hash() == ModexpProgram(bits=64).content_hash()

    def test_multiplier_counts_match_direct(self):
        from repro.arithmetic import multiplier_by_name

        program = MultiplierProgram(algorithm="schoolbook", bits=32)
        assert program.counts() == multiplier_by_name("schoolbook", 32).logical_counts()

    def test_formula_counts_evaluate(self):
        program = make_program(
            "formula",
            {
                "counts": {"num_qubits": "2*n + 1", "t_count": "4 * n^2"},
                "variables": {"n": 10},
            },
        )
        assert program.counts() == LogicalCounts(num_qubits=21, t_count=400)

    def test_formula_rejects_unbound_and_fractional(self):
        with pytest.raises(ProgramError, match="unbound variables"):
            make_program("formula", {"counts": {"num_qubits": "2*n"}})
        with pytest.raises(ProgramError, match="non-negative integers"):
            make_program(
                "formula",
                {"counts": {"num_qubits": "n / 2"}, "variables": {"n": 5}},
            )

    def test_random_backends_agree(self):
        program = RandomProgram(operations=120, seed=11)
        materialized = program.counts("materialize")
        assert program.counts("counting") == materialized
        # No closed form exists: the formula backend streams instead, so
        # one spec hash (backend excluded) always maps to one count set.
        assert program.counts("formula") == materialized

    def test_inline_counts_program(self):
        program = InlineCountsProgram(logical_counts=COUNTS)
        assert program.counts("counting") == COUNTS
        assert program_from_dict({"counts": COUNTS.to_dict()}) == program

    def test_qir_text_parses_and_counts(self):
        program = make_program("qir", {"text": QIR_TEXT})
        assert program.counts() == qir_reference_counts()

    def test_qir_file_hashes_on_content_not_path(self, tmp_path):
        path_a = tmp_path / "a.ll"
        path_b = tmp_path / "b.ll"
        path_a.write_text(QIR_TEXT)
        path_b.write_text(QIR_TEXT)
        a = make_program("qir", {"file": str(path_a)})
        b = make_program("qir", {"file": str(path_b)})
        inline = make_program("qir", {"text": QIR_TEXT})
        assert a.content_hash() == b.content_hash() == inline.content_hash()
        # ...and editing the file changes the address.
        path_a.write_text(QIR_TEXT.replace("0.25", "0.5"))
        assert (
            make_program("qir", {"file": str(path_a)}).content_hash()
            != b.content_hash()
        )

    def test_qir_invalid_text_fails_eagerly(self):
        with pytest.raises(ProgramError, match="invalid qir program"):
            make_program("qir", {"text": "not qir at all"})

    def test_qir_needs_exactly_one_source(self, tmp_path):
        with pytest.raises(ProgramError, match="exactly one"):
            make_program("qir", {})
        path = tmp_path / "p.ll"
        path.write_text(QIR_TEXT)
        with pytest.raises(ProgramError, match="exactly one"):
            make_program("qir", {"file": str(path), "text": QIR_TEXT})

    def test_factories_are_picklable(self):
        import pickle

        for program in (
            MultiplierProgram(algorithm="windowed", bits=64),
            ModexpProgram(bits=16),
            QIRProgram(text=QIR_TEXT),
            FormulaProgram(formulas=(("num_qubits", "3"),)),
            RandomProgram(operations=10),
            InlineCountsProgram(logical_counts=COUNTS),
        ):
            factory = program.counts_factory("formula")
            assert pickle.loads(pickle.dumps(factory))() == program.counts()


class TestRegistryPrograms:
    def test_predefined_rsa_programs(self):
        registry = Registry()
        assert registry.program("rsa_2048") == ModexpProgram(bits=2048)
        assert registry.program_catalog()["rsa_1024"] == "modexp"
        assert "programs" in registry.describe()

    def test_unknown_program_lists_available(self):
        registry = Registry()
        with pytest.raises(RegistryError, match="available programs") as excinfo:
            registry.program("bogus")
        assert "rsa_2048" in str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        registry = Registry()
        with pytest.raises(ValueError, match="already registered"):
            registry.register_program("rsa_2048", ModexpProgram(bits=4096))
        registry.register_program("rsa_2048", ModexpProgram(bits=4096), replace=True)
        assert registry.program("rsa_2048").bits == 4096

    def test_scenario_programs_section(self, tmp_path):
        qir_path = tmp_path / "kernel.ll"
        qir_path.write_text(QIR_TEXT)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {
                    "schema": "repro-scenario-v1",
                    "programs": [
                        {"name": "shor_64", "modexp": {"bits": 64}},
                        # Relative path: resolved against the scenario file.
                        {"name": "kernel", "qir": {"file": "kernel.ll"}},
                        {"name": "known", "counts": COUNTS.to_dict()},
                    ],
                }
            )
        )
        registry = Registry()
        loaded = registry.load_scenario(scenario)
        assert loaded["programs"] == ["shor_64", "kernel", "known"]
        assert registry.program("shor_64") == ModexpProgram(bits=64)
        assert registry.program("kernel").counts() == qir_reference_counts()
        assert registry.program("known").counts() == COUNTS

    def test_scenario_program_errors_are_valueerrors(self):
        registry = Registry()
        with pytest.raises(ValueError, match="invalid scenario entry"):
            registry.load_scenario(
                {"programs": [{"name": "bad", "modexp": {"bits": 1}}]}
            )
        with pytest.raises(ValueError, match="non-empty 'name'"):
            registry.load_scenario({"programs": [{"modexp": {"bits": 64}}]})


class TestNamedSpecs:
    def test_named_ref_round_trip(self):
        spec = EstimateSpec(
            program=ProgramRef(name="rsa_1024"), qubit="qubit_maj_ns_e4"
        )
        parsed = EstimateSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert parsed == spec
        assert parsed.to_dict()["program"] == {"name": "rsa_1024"}

    def test_named_and_inline_share_resolved_hash(self):
        registry = Registry()
        registry.register_program("workload", InlineCountsProgram(logical_counts=COUNTS))
        named = EstimateSpec(program=ProgramRef(name="workload"), qubit="qubit_gate_ns_e3")
        inline = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
        # Syntactic hashes differ (a client cannot resolve the name)...
        assert named.content_hash() != inline.content_hash()
        # ...resolved hashes coincide, so they share one stored result.
        assert named.content_hash(registry) == inline.content_hash(registry)

    def test_redefined_program_changes_resolved_hash(self):
        registry = Registry()
        spec = EstimateSpec(program=ProgramRef(name="rsa_1024"), qubit="qubit_maj_ns_e4")
        before = spec.content_hash(registry)
        registry.register_program(
            "rsa_1024", ModexpProgram(bits=1024, window=1), replace=True
        )
        assert spec.content_hash(registry) != before

    def test_unknown_name_becomes_failed_outcome(self):
        outcome = run_specs(
            [EstimateSpec(program=ProgramRef(name="bogus"), qubit="qubit_gate_ns_e3")],
            registry=Registry(),
        )[0]
        assert not outcome.ok
        assert "unknown program 'bogus'" in outcome.error

    def test_every_new_kind_estimates_via_run_specs(self, tmp_path):
        qir_path = tmp_path / "prog.ll"
        qir_path.write_text(QIR_TEXT)
        registry = Registry()
        registry.load_scenario(
            {"programs": [{"name": "scenario_prog", "random": {"operations": 60}}]}
        )
        specs = [
            EstimateSpec(
                program=ProgramRef(kind="qir", file=str(qir_path)),
                qubit="qubit_gate_ns_e3",
            ),
            EstimateSpec(
                program=ProgramRef(
                    kind="formula",
                    counts={"num_qubits": "2*n", "t_count": "n^3"},
                    variables={"n": 20},
                ),
                qubit="qubit_gate_ns_e3",
            ),
            EstimateSpec(
                program=ProgramRef(kind="random", operations=60, seed=2),
                qubit="qubit_gate_ns_e3",
            ),
            EstimateSpec(
                program=ProgramRef(name="scenario_prog"), qubit="qubit_gate_ns_e3"
            ),
        ]
        outcomes = run_specs(specs, registry=registry)
        assert all(outcome.ok for outcome in outcomes), [o.error for o in outcomes]

    def test_qir_spec_matches_direct_estimate(self, tmp_path):
        # The satellite path: author -> emit QIR -> spec -> estimate must
        # equal estimating the authored circuit directly.
        builder = CircuitBuilder("authored")
        q0 = builder.allocate()
        q1 = builder.allocate()
        builder.h(q0)
        builder.t(q0)
        builder.cx(q0, q1)
        builder.rz(0.25, q1)
        builder.measure(q1)
        circuit = builder.finish()
        qir_path = tmp_path / "authored.ll"
        qir_path.write_text(emit_qir(circuit, entry_point="authored"))

        spec = EstimateSpec(
            program=ProgramRef(kind="qir", file=str(qir_path)),
            qubit="qubit_maj_ns_e4",
            budget=1e-4,
        )
        assert spec.program.program.counts() == circuit.logical_counts()
        outcome = run_specs([spec], registry=Registry())[0]
        direct = estimate(circuit, qubit_params("qubit_maj_ns_e4"), budget=1e-4)
        assert outcome.ok and outcome.result == direct

    def test_qir_spec_warm_reestimate_from_store(self, tmp_path):
        qir_path = tmp_path / "warm.ll"
        qir_path.write_text(QIR_TEXT)
        store = ResultStore(tmp_path / "store")
        registry = Registry()
        spec = EstimateSpec(
            program=ProgramRef(kind="qir", file=str(qir_path)),
            qubit="qubit_gate_ns_e3",
        )
        cold = run_specs([spec], registry=registry, store=store)[0]
        assert cold.ok and not cold.from_store
        warm = run_specs([spec], registry=registry, store=store)[0]
        assert warm.ok and warm.from_store
        assert warm.result == cold.result
        # The inline-text spelling resolves to the same addresses.
        inline = EstimateSpec(
            program=ProgramRef(kind="qir", text=QIR_TEXT), qubit="qubit_gate_ns_e3"
        )
        assert inline.content_hash(registry) == spec.content_hash(registry)
        assert run_specs([inline], registry=registry, store=store)[0].from_store


class TestCountsNamespace:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" * 32
        assert store.get_counts(key) is None
        assert store.put_counts(key, COUNTS, backend="formula")
        assert store.get_counts(key) == COUNTS

    def test_corrupt_counts_read_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" * 32
        store.put_counts(key, COUNTS)
        data = store_rows.body(store, key, "counts")
        store_rows.update(store, key, "counts", body=data[:-7] + b"garbage")
        assert store.get_counts(key) is None

    def test_run_specs_writes_counts_documents(self, tmp_path):
        store = ResultStore(tmp_path)
        registry = Registry()
        spec = EstimateSpec(
            program=ProgramRef(kind="modexp", bits=16), qubit="qubit_gate_ns_e3"
        )
        run_specs([spec], registry=registry, store=store)
        key = spec.program.counts_cache_key(registry, spec.backend)
        assert store.get_counts(key) is not None
        stats = store.stats()
        assert stats["namespaces"]["counts"] == {
            "schema": COUNTS_SCHEMA,
            "documents": 1,
            "bytes": store_rows.row(store, key, "counts")["size"],
        }

    def test_cached_counts_are_used_instead_of_retracing(self, tmp_path):
        # Plant distinctive counts under the program's counts key: if the
        # estimate reflects them, the cache fed the pipeline (no trace).
        store = ResultStore(tmp_path)
        registry = Registry()
        spec = EstimateSpec(
            program=ProgramRef(kind="modexp", bits=16), qubit="qubit_gate_ns_e3"
        )
        planted = LogicalCounts(num_qubits=7, t_count=1000)
        key = spec.program.counts_cache_key(registry, spec.backend)
        store.put_counts(key, planted, backend=spec.backend)
        outcome = run_specs(
            [spec], registry=registry, store=store, cache=EstimateCache()
        )[0]
        expected = estimate(planted, qubit_params("qubit_gate_ns_e3"))
        assert outcome.ok and outcome.result == expected

    def test_counts_shared_across_result_misses(self, tmp_path):
        # A different budget is a different *result* address but the same
        # workload: the second run must reuse the stored counts.
        store = ResultStore(tmp_path)
        registry = Registry()
        ref = ProgramRef(kind="random", operations=80, seed=5)
        first = EstimateSpec(program=ref, qubit="qubit_gate_ns_e3", budget=1e-3)
        second = EstimateSpec(program=ref, qubit="qubit_gate_ns_e3", budget=1e-4)
        run_specs([first], registry=registry, store=store, cache=EstimateCache())
        planted = LogicalCounts(num_qubits=9, t_count=777)
        key = ref.counts_cache_key(registry, "formula")
        store.put_counts(key, planted, backend="formula")  # overwrite
        outcome = run_specs(
            [second], registry=registry, store=store, cache=EstimateCache()
        )[0]
        assert outcome.ok
        assert outcome.result == estimate(
            planted, qubit_params("qubit_gate_ns_e3"), budget=1e-4
        )

    def test_counts_key_distinguishes_backends(self):
        registry = Registry()
        ref = ProgramRef(kind="modexp", bits=16)
        assert ref.counts_cache_key(registry, "formula") != ref.counts_cache_key(
            registry, "counting"
        )

    def test_modexp_default_spellings_share_one_trace_identity(self):
        # {"bits": n} and {"bits": n, "exponentBits": 2n} are the same
        # workload: their spec hashes differ (serialized bodies must stay
        # stable) but the trace memo and counts document are shared.
        registry = Registry()
        omitted = ProgramRef(kind="modexp", bits=64)
        explicit = ProgramRef(kind="modexp", bits=64, exponent_bits=128)
        other = ProgramRef(kind="modexp", bits=64, exponent_bits=100)
        assert omitted.program.content_hash() != explicit.program.content_hash()
        assert omitted.program.counts_identity() == explicit.program.counts_identity()
        assert omitted.program.counts_identity() != other.program.counts_identity()
        assert omitted.counts_cache_key(registry, "formula") == (
            explicit.counts_cache_key(registry, "formula")
        )
        assert omitted.resolve("formula")[1] == explicit.resolve("formula")[1]


class TestSweepOverPrograms:
    def test_program_axis_name_sugar(self):
        registry = Registry()
        registry.register_program("tiny_a", MultiplierProgram(algorithm="schoolbook", bits=16))
        registry.register_program("tiny_b", MultiplierProgram(algorithm="windowed", bits=16))
        sweep = SweepSpec(
            base={"budget": 1e-4},
            axes=(
                SweepAxis("program", ("tiny_a", "tiny_b")),
                SweepAxis("qubit", ("qubit_maj_ns_e4",)),
            ),
        )
        result = run_sweep(sweep, registry=registry)
        assert [point.ok for point in result.points] == [True, True]
        direct = run_specs(
            [
                EstimateSpec(
                    program=ProgramRef(kind="multiplier", algorithm=a, bits=16),
                    qubit="qubit_maj_ns_e4",
                    budget=1e-4,
                )
                for a in ("schoolbook", "windowed")
            ],
            registry=registry,
        )
        assert [p.result for p in result.points] == [o.result for o in direct]


@pytest.fixture()
def program_client(tmp_path):
    registry = Registry()
    registry.load_scenario(
        {"programs": [{"name": "svc_prog", "formula": {"counts": {"num_qubits": "30", "t_count": "9000"}}}]}
    )
    service = EstimationService(registry=registry, store=ResultStore(tmp_path))
    server = make_server("127.0.0.1", 0, service=service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestServicePrograms:
    def test_registry_endpoint_lists_programs(self, program_client):
        catalog = program_client.registry()
        assert catalog["programs"]["rsa_2048"] == "modexp"
        assert catalog["programs"]["svc_prog"] == "formula"

    def test_named_submission_resolves_server_side(self, program_client):
        record = program_client.submit(
            {"program": {"name": "svc_prog"}, "qubit": {"profile": "qubit_gate_ns_e3"}}
        )
        assert record["ok"], record["error"]
        local = estimate(
            LogicalCounts(num_qubits=30, t_count=9000),
            qubit_params("qubit_gate_ns_e3"),
        )
        assert record["result"] == local.to_dict()

    def test_qir_file_refs_rejected_over_http(self, program_client, tmp_path):
        # A server must never read client-named local paths: 'file'
        # spellings are client-side only; HTTP submissions inline 'text'.
        # The guard acts at parse time, so every spelling — direct, in a
        # batch, or assembled by sweep axes — is rejected before any read.
        secret = tmp_path / "secret.txt"
        secret.write_text("hunter2")
        from repro.service import ServiceError

        record = program_client.submit(
            {
                "program": {"qir": {"file": str(secret)}},
                "qubit": {"profile": "qubit_gate_ns_e3"},
            }
        )
        assert not record["ok"]
        assert "inline the program 'text'" in record["error"]
        assert "hunter2" not in record["error"]
        records = program_client.submit_batch(
            [
                {
                    "program": {"qir": {"file": str(secret)}},
                    "qubit": {"profile": "qubit_gate_ns_e3"},
                }
            ]
        )
        assert not records[0]["ok"] and "hunter2" not in records[0]["error"]
        # Sweeps are guarded too — including file refs assembled only at
        # axis-expansion time (dotted paths, fragment values).
        for axes in (
            [{"field": "program", "values": [{"qir": {"file": str(secret)}}]}],
            [{"field": "program.qir", "values": [{"file": str(secret)}]}],
            [{"field": "program.qir.file", "values": [str(secret)]}],
        ):
            with pytest.raises(ServiceError) as excinfo:
                program_client.submit_sweep(
                    {
                        "base": {"qubit": {"profile": "qubit_gate_ns_e3"}},
                        "axes": axes,
                    }
                )
            assert excinfo.value.status == 400
            assert "hunter2" not in str(excinfo.value)
        # Inline text stays accepted.
        record = program_client.submit(
            {
                "program": {"qir": {"text": QIR_TEXT}},
                "qubit": {"profile": "qubit_gate_ns_e3"},
            }
        )
        assert record["ok"], record["error"]

    def test_unknown_name_fails_the_record_not_the_batch(self, program_client):
        records = program_client.submit_batch(
            [
                {"program": {"name": "nope"}, "qubit": {"profile": "qubit_gate_ns_e3"}},
                {"program": {"name": "svc_prog"}, "qubit": {"profile": "qubit_gate_ns_e3"}},
            ]
        )
        assert not records[0]["ok"] and "unknown program" in records[0]["error"]
        assert records[1]["ok"]


class TestCLI:
    def test_registry_subcommand_prints_catalog(self, capsys):
        assert main(["registry"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert catalog["programs"]["rsa_1024"] == "modexp"
        assert "qubitParams" in catalog

    def test_registry_subcommand_includes_scenario_programs(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(
            json.dumps({"programs": [{"name": "cli_prog", "modexp": {"bits": 32}}]})
        )
        assert main(["registry", "--scenario", str(scenario)]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert catalog["programs"]["cli_prog"] == "modexp"

    def test_store_stats_subcommand(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.put_counts("ef" * 32, COUNTS)
        assert main(["store", "stats", "--store", str(tmp_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["root"] == str(tmp_path)
        assert stats["namespaces"]["counts"]["documents"] == 1
        assert stats["namespaces"]["results"]["documents"] == 0

    def test_single_point_program_flag(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(
            json.dumps(
                {"programs": [{"name": "tiny", "counts": COUNTS.to_dict()}]}
            )
        )
        store = tmp_path / "store"
        assert (
            main(
                [
                    "--program",
                    "tiny",
                    "--scenario",
                    str(scenario),
                    "--store",
                    str(store),
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        local = estimate(COUNTS, qubit_params("qubit_gate_ns_e3"))
        assert report == local.to_dict()
        # The run populated both namespaces of the store.
        stats = ResultStore(store).stats()["namespaces"]
        assert stats["results"]["documents"] == 1
        assert stats["counts"]["documents"] == 1

    def test_single_point_unknown_program_fails_fast(self):
        with pytest.raises(SystemExit, match="unknown program"):
            main(["--program", "nope"])

    def test_batch_program_flag_and_grid_key(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "programs": ["batch_prog"],
                    "profiles": ["qubit_gate_ns_e3"],
                    "budgets": [1e-3],
                }
            )
        )
        scenario = tmp_path / "s.json"
        scenario.write_text(
            json.dumps(
                {"programs": [{"name": "batch_prog", "counts": COUNTS.to_dict()}]}
            )
        )
        assert (
            main(
                ["batch", str(grid), "--scenario", str(scenario), "--json"]
            )
            == 0
        )
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["ok"] and records[0]["program"] == "batch_prog"

    def test_batch_program_flag_without_grid_section(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps({"profiles": ["qubit_maj_ns_e4"], "budgets": [1e-4]})
        )
        scenario = tmp_path / "s.json"
        scenario.write_text(
            json.dumps(
                {"programs": [{"name": "flag_prog", "multiplier": {"algorithm": "schoolbook", "bits": 16}}]}
            )
        )
        assert (
            main(
                [
                    "batch",
                    str(grid),
                    "--program",
                    "flag_prog",
                    "--scenario",
                    str(scenario),
                    "--json",
                ]
            )
            == 0
        )
        records = json.loads(capsys.readouterr().out)
        assert [record["program"] for record in records] == ["flag_prog"]
        assert records[0]["ok"]

    def test_batch_unknown_program_name_fails_fast(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"profiles": ["qubit_gate_ns_e3"]}))
        with pytest.raises(SystemExit, match="unknown program"):
            main(["batch", str(grid), "--program", "nope"])

    def test_batch_rejects_non_list_programs_key(self, tmp_path):
        grid = tmp_path / "grid.json"
        for bad in ("rsa_1024", []):
            grid.write_text(
                json.dumps({"programs": bad, "profiles": ["qubit_gate_ns_e3"]})
            )
            # A string would iterate character-by-character and an empty
            # list would "succeed" running zero points — both fail fast.
            with pytest.raises(SystemExit, match="non-empty list"):
                main(["batch", str(grid)])

    def test_bench_trace_program_flag(self, capsys):
        assert (
            main(
                [
                    "bench",
                    "trace",
                    "--program",
                    "rsa_1024",
                    "--bits",
                    "16",
                    "--backend",
                    "formula",
                    "--json",
                ]
            )
            == 0
        )
        record = json.loads(capsys.readouterr().out)
        assert record["program"] == "rsa_1024"
        assert record["counts"]["num_qubits"] > 1024
