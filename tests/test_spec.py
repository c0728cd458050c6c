"""Tests for the declarative spec layer (EstimateSpec / ProgramRef / run_specs)."""

from __future__ import annotations

import json

import pytest

from repro import (
    Constraints,
    ErrorBudget,
    EstimateCache,
    EstimateSpec,
    LogicalCounts,
    ProgramRef,
    ResultStore,
    RotationSynthesis,
    estimate,
    estimate_batch,
    qubit_params,
    run_specs,
)
from repro.estimator.spec import SPEC_SCHEMA
from repro.qec import FLOQUET_CODE
from repro.registry import Registry

COUNTS = LogicalCounts(num_qubits=50, t_count=100_000, measurement_count=1_000)


def roundtrip(spec: EstimateSpec) -> EstimateSpec:
    return EstimateSpec.from_dict(json.loads(json.dumps(spec.to_dict())))


class TestProgramRef:
    def test_multiplier_roundtrip(self):
        ref = ProgramRef(kind="multiplier", algorithm="windowed", bits=2048)
        assert ProgramRef.from_dict(ref.to_dict()) == ref

    def test_modexp_roundtrip_with_options(self):
        ref = ProgramRef(kind="modexp", bits=64, exponent_bits=16, window=3)
        assert ProgramRef.from_dict(ref.to_dict()) == ref

    def test_modexp_defaults_omitted_from_dict(self):
        ref = ProgramRef(kind="modexp", bits=64)
        assert ref.to_dict() == {"modexp": {"bits": 64}}

    def test_unknown_multiplier_algorithm_rejected_eagerly(self):
        # Regression: counts resolve lazily in batch workers, so an
        # unvalidated algorithm name used to crash the whole sweep (and
        # 500 the service) instead of failing the one spec.
        with pytest.raises(ValueError, match="unknown multiplier 'nope'"):
            ProgramRef(kind="multiplier", algorithm="nope", bits=8)

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ProgramRef(kind="bogus", bits=8)
        with pytest.raises(ValueError, match="algorithm"):
            ProgramRef(kind="multiplier", bits=8)
        with pytest.raises(ValueError, match="unknown multiplier program fields"):
            ProgramRef(kind="multiplier", algorithm="windowed", bits=8, window=2)
        with pytest.raises(ValueError, match="bits"):
            ProgramRef(kind="multiplier", algorithm="windowed", bits=0)
        with pytest.raises(ValueError, match="exactly one"):
            ProgramRef(kind="modexp", name="rsa_1024")
        with pytest.raises(ValueError, match="no body fields"):
            ProgramRef(name="rsa_1024", bits=8)

    def test_unknown_kind_error_lists_kinds_with_fields(self):
        # The open catalog's lookup error mirrors the QEC scheme style:
        # every registered kind appears with its required fields.
        with pytest.raises(ValueError) as excinfo:
            ProgramRef(kind="bogus", bits=8)
        message = str(excinfo.value)
        for fragment in (
            "unknown program kind 'bogus'",
            "multiplier (algorithm, bits)",
            "modexp (bits[, exponentBits, window])",
            "qir (file or text)",
            "formula (counts[, variables])",
            "random (operations[, seed, minQubits])",
        ):
            assert fragment in message

    def test_resolution_matches_direct_counts(self):
        ref = ProgramRef(kind="multiplier", algorithm="schoolbook", bits=16)
        program, key = ref.resolve("formula")
        from repro.arithmetic import multiplier_by_name

        assert program() == multiplier_by_name("schoolbook", 16).logical_counts()
        # The memo key is the program's content identity plus the backend
        # — the same address the persistent counts cache uses.
        assert key == ("program", ref.program.content_hash(), "formula")

    def test_resolution_is_identity_stable(self):
        ref = ProgramRef(kind="multiplier", algorithm="schoolbook", bits=16)
        assert ref.resolve("formula")[0] is ref.resolve("formula")[0]

    def test_modexp_backends_agree(self):
        ref = ProgramRef(kind="modexp", bits=8, exponent_bits=3)
        formula, _ = ref.resolve("formula")
        counting, _ = ref.resolve("counting")
        assert formula() == counting()


class TestEstimateSpecSerialization:
    def test_minimal_counts_spec(self):
        spec = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
        assert roundtrip(spec) == spec

    def test_fully_loaded_spec(self):
        spec = EstimateSpec(
            program=ProgramRef(kind="multiplier", algorithm="karatsuba", bits=256),
            qubit=qubit_params("qubit_maj_ns_e4", t_gate_error_rate=0.01),
            scheme=FLOQUET_CODE.customized(max_code_distance=31),
            budget=ErrorBudget.explicit(logical=1e-4, t_states=1e-4, rotations=1e-4),
            constraints=Constraints(max_t_factories=4, logical_depth_factor=2.0),
            synthesis=RotationSynthesis(a=0.6, b=6.0),
            backend="counting",
            label="loaded",
        )
        assert roundtrip(spec) == spec

    def test_named_scheme_spec(self):
        spec = EstimateSpec(
            program=COUNTS, qubit="qubit_maj_ns_e4", scheme="floquet_code"
        )
        assert roundtrip(spec) == spec

    def test_budget_accepts_bare_number(self):
        spec = EstimateSpec.from_dict(
            {
                "program": {"counts": COUNTS.to_dict()},
                "qubit": {"profile": "qubit_gate_ns_e3"},
                "budget": 1e-4,
            }
        )
        assert spec.budget == ErrorBudget(total=1e-4)

    def test_rejects_unknown_fields_and_shapes(self):
        base = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3").to_dict()
        bad = dict(base, bogus=1)
        with pytest.raises(ValueError, match="bogus"):
            EstimateSpec.from_dict(bad)
        with pytest.raises(ValueError, match="program"):
            EstimateSpec.from_dict({"qubit": {"profile": "qubit_gate_ns_e3"}})
        with pytest.raises(ValueError, match="qubit"):
            EstimateSpec.from_dict({"program": {"counts": COUNTS.to_dict()}})
        with pytest.raises(ValueError, match="scheme"):
            EstimateSpec.from_dict(
                dict(base, scheme={"name": "x", "params": {}})
            )

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3", backend="x")


class TestContentHash:
    def test_stable_across_processes(self):
        # A golden hash: this must only ever change together with
        # SPEC_SCHEMA (changing it silently would orphan every stored
        # result).
        assert SPEC_SCHEMA == "repro-spec-v1"
        spec = EstimateSpec(
            program=ProgramRef(kind="multiplier", algorithm="windowed", bits=2048),
            qubit="qubit_maj_ns_e4",
            budget=1e-4,
        )
        assert spec.content_hash() == (
            "d1fa1cdd4ebe6d48dfb2f06e9f820b2ab0e5e7f31ba7322188fc6eea833f6591"
        )
        # The resolved form addresses the persistent store; pin it too.
        assert spec.content_hash(Registry()) == (
            "9849b53911667583adc8c27e9004d37332e758c22647e054e42577ae913e891a"
        )

    def test_label_and_backend_excluded(self):
        a = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3", label="a")
        b = EstimateSpec(
            program=COUNTS, qubit="qubit_gate_ns_e3", backend="counting", label="b"
        )
        assert a.content_hash() == b.content_hash()

    def test_default_normalization(self):
        explicit = EstimateSpec(
            program=COUNTS,
            qubit="qubit_gate_ns_e3",
            budget=ErrorBudget(total=1e-3),
            constraints=Constraints(),
            synthesis=RotationSynthesis(),
        )
        defaulted = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
        assert explicit.content_hash() == defaulted.content_hash()

    def test_different_specs_differ(self):
        a = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
        b = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e4")
        c = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3", budget=1e-4)
        assert len({a.content_hash(), b.content_hash(), c.content_hash()}) == 3

    def test_named_and_inline_profile_hash_differently(self):
        # The syntactic hash keeps names as names: a client without a
        # registry cannot know what a name resolves to.
        named = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
        inline = EstimateSpec(program=COUNTS, qubit=qubit_params("qubit_gate_ns_e3"))
        assert named.content_hash() != inline.content_hash()

    def test_resolved_hash_inlines_names(self):
        # The resolved hash (what keys the store) covers the actual model
        # parameters, so a name and its inline definition coincide...
        registry = Registry()
        named = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
        inline = EstimateSpec(program=COUNTS, qubit=qubit_params("qubit_gate_ns_e3"))
        assert named.content_hash(registry) == inline.content_hash(registry)
        # ...and redefining the name changes the address.
        registry.register_qubit(
            qubit_params("qubit_gate_ns_e3").customized(
                name="qubit_gate_ns_e3", t_gate_error_rate=5e-4
            ),
            replace=True,
        )
        assert named.content_hash(registry) != inline.content_hash(registry)

    def test_resolved_hash_unknown_name_raises(self):
        spec = EstimateSpec(program=COUNTS, qubit="bogus")
        with pytest.raises(KeyError, match="bogus"):
            spec.content_hash(Registry())

    def test_spec_is_hashable(self):
        a = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
        b = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
        assert len({a, b}) == 1


class TestToRequest:
    def test_matches_direct_estimate(self):
        spec = EstimateSpec(program=COUNTS, qubit="qubit_maj_ns_e4", budget=1e-4)
        outcome = estimate_batch([spec.to_request()])[0]
        direct = estimate(COUNTS, qubit_params("qubit_maj_ns_e4"), budget=1e-4)
        assert outcome.unwrap() == direct

    def test_unknown_profile_raises_keyerror(self):
        spec = EstimateSpec(program=COUNTS, qubit="bogus")
        with pytest.raises(KeyError, match="bogus"):
            spec.to_request()

    def test_custom_registry_resolves(self):
        registry = Registry()
        registry.register_qubit(
            qubit_params("qubit_gate_ns_e3").customized(name="custom_q")
        )
        spec = EstimateSpec(program=COUNTS, qubit="custom_q")
        request = spec.to_request(registry)
        assert request.qubit.name == "custom_q"


class TestRunSpecs:
    def test_matches_estimate_and_orders(self):
        specs = [
            EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3", label="gate"),
            EstimateSpec(program=COUNTS, qubit="qubit_maj_ns_e4", label="maj"),
        ]
        outcomes = run_specs(specs)
        assert [o.spec.label for o in outcomes] == ["gate", "maj"]
        for outcome, profile in zip(outcomes, ("qubit_gate_ns_e3", "qubit_maj_ns_e4")):
            assert outcome.ok
            assert outcome.result == estimate(COUNTS, qubit_params(profile))

    def test_invalid_spec_becomes_error_outcome(self):
        outcomes = run_specs(
            [
                EstimateSpec(program=COUNTS, qubit="bogus"),
                EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3"),
            ]
        )
        assert not outcomes[0].ok and "bogus" in outcomes[0].error
        assert outcomes[1].ok

    def test_infeasible_spec_becomes_error_outcome(self):
        spec = EstimateSpec(
            program=COUNTS,
            qubit="qubit_gate_ns_e3",
            constraints=Constraints(max_physical_qubits=100),
        )
        outcome = run_specs([spec])[0]
        assert not outcome.ok
        assert "exceed" in outcome.error

    def test_duplicate_hashes_computed_once(self, tmp_path):
        cache = EstimateCache()
        store = ResultStore(tmp_path)
        specs = [
            EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3", label="a"),
            EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3", label="b"),
        ]
        outcomes = run_specs(specs, store=store, cache=cache)
        assert outcomes[0].result == outcomes[1].result
        assert outcomes[0].spec_hash == outcomes[1].spec_hash
        assert len(store) == 1
        # Duplicate resolved within the batch, not via a second store read.
        assert cache.stats()["store"] == {"hits": 0, "misses": 1}

    def test_store_round_trip_and_hit_accounting(self, tmp_path):
        cache = EstimateCache()
        store = ResultStore(tmp_path)
        spec = EstimateSpec(program=COUNTS, qubit="qubit_maj_ns_e4", budget=1e-4)
        cold = run_specs([spec], store=store, cache=cache)[0]
        assert cold.ok and not cold.from_store
        warm = run_specs([spec], store=store, cache=cache)[0]
        assert warm.ok and warm.from_store
        assert warm.result == cold.result
        assert cache.stats()["store"] == {"hits": 1, "misses": 1}

    def test_redefined_profile_never_served_stale_result(self, tmp_path):
        # Regression: the store is keyed on the *resolved* spec. Loading
        # a scenario that redefines a profile name must recompute, not
        # serve the result estimated for the old hardware definition.
        store = ResultStore(tmp_path)
        registry = Registry()
        spec = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
        old = run_specs([spec], registry=registry, store=store)[0]
        assert old.ok and not old.from_store

        registry.load_scenario(
            {
                "qubitParams": [
                    dict(
                        qubit_params("qubit_gate_ns_e3").to_dict(),
                        one_qubit_gate_error_rate=1e-4,
                        two_qubit_gate_error_rate=1e-4,
                        one_qubit_measurement_error_rate=1e-4,
                    )
                ]
            }
        )
        new = run_specs([spec], registry=registry, store=store)[0]
        assert new.ok and not new.from_store
        assert new.spec_hash != old.spec_hash
        assert new.result != old.result  # better hardware, smaller machine

    def test_store_serves_across_instances(self, tmp_path):
        spec = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e4")
        run_specs([spec], store=ResultStore(tmp_path))
        warm = run_specs([spec], store=ResultStore(tmp_path))[0]
        assert warm.from_store
        assert warm.result == estimate(COUNTS, qubit_params("qubit_gate_ns_e4"))

    def test_failures_stored_as_error_documents(self, tmp_path):
        # Infeasibility is as deterministic as a result: it is persisted
        # under the resolved hash and served back with the same error.
        cache = EstimateCache()
        store = ResultStore(tmp_path)
        spec = EstimateSpec(
            program=COUNTS,
            qubit="qubit_gate_ns_e3",
            constraints=Constraints(max_physical_qubits=100),
        )
        cold = run_specs([spec], store=store, cache=cache)[0]
        assert not cold.ok and not cold.from_store
        assert len(store) == 1
        document = store.get_raw(cold.spec_hash)
        assert document["result"] is None
        assert document["error"] == cold.error
        assert document["spec"] == spec.to_dict()
        assert store.get(cold.spec_hash) is None  # no result to decode
        warm = run_specs([spec], store=store, cache=cache)[0]
        assert not warm.ok and warm.from_store
        assert warm.error == cold.error
        assert warm.spec_hash == cold.spec_hash
        assert cache.stats()["store"] == {"hits": 1, "misses": 1}

    def test_invalid_specs_are_never_stored(self, tmp_path):
        # Validation failures have no resolved hash to file under.
        store = ResultStore(tmp_path)
        specs = [
            EstimateSpec(program=COUNTS, qubit="no_such_profile"),
            EstimateSpec(program=ProgramRef(name="no_such_program"), qubit="qubit_gate_ns_e3"),
        ]
        for _ in range(2):
            outcomes = run_specs(specs, store=store)
            assert [o.ok for o in outcomes] == [False, False]
            assert not any(o.from_store for o in outcomes)
        assert len(store) == 0

    def test_result_dict_is_the_stored_dict(self, tmp_path):
        # A miss hands out the one to_dict() it wrote; a hit the verified
        # stored dict. Both serialize like the result itself.
        store = ResultStore(tmp_path)
        spec = EstimateSpec(program=COUNTS, qubit="qubit_maj_ns_e4", budget=1e-4)
        cold = run_specs([spec], store=store)[0]
        warm = run_specs([spec], store=store)[0]
        assert warm.from_store
        assert cold.result_dict == warm.result_dict == cold.result.to_dict()
        assert json.dumps(warm.serialized_result()) == json.dumps(
            cold.result.to_dict()
        )
        assert store.get_raw(cold.spec_hash)["result"] == cold.result_dict
        # Without a store there is no dict in hand; it is made on demand.
        bare = run_specs([spec])[0]
        assert bare.result_dict is None
        assert bare.serialized_result() == cold.result_dict

    def test_passed_spec_hashes_replace_hashing(self, tmp_path, monkeypatch):
        registry = Registry()
        specs = [
            EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3"),
            EstimateSpec(program=COUNTS, qubit="qubit_maj_ns_e4"),
        ]
        hashes = [spec.content_hash(registry) for spec in specs]
        calls = []
        original = EstimateSpec.content_hash

        def counting(self, registry=None):
            calls.append(self)
            return original(self, registry)

        monkeypatch.setattr(EstimateSpec, "content_hash", counting)
        outcomes = run_specs(
            specs, registry=registry, store=ResultStore(tmp_path), spec_hashes=hashes
        )
        assert calls == []
        assert [o.spec_hash for o in outcomes] == hashes
        with pytest.raises(ValueError, match="spec hashes"):
            run_specs(specs, registry=registry, spec_hashes=hashes[:1])

    def test_parallel_matches_serial(self):
        specs = [
            EstimateSpec(
                program=ProgramRef(
                    kind="multiplier", algorithm=algorithm, bits=64
                ),
                qubit="qubit_maj_ns_e4",
                budget=1e-4,
            )
            for algorithm in ("schoolbook", "karatsuba", "windowed")
        ]
        serial = run_specs(specs, max_workers=1)
        parallel = run_specs(specs, max_workers=2)
        assert [o.result for o in serial] == [o.result for o in parallel]


class TestSpecTable:
    """run_specs resolves and encodes each distinct spec part once per call."""

    def mixed_specs(self) -> list[EstimateSpec]:
        multiplier = ProgramRef(kind="multiplier", algorithm="schoolbook", bits=32)
        inline = qubit_params("qubit_maj_ns_e4")
        specs = []
        for budget in (1e-3, ErrorBudget.explicit(logical=5e-4, t_states=5e-4, rotations=0)):
            for program in (COUNTS, multiplier, ProgramRef(name="rsa_1024")):
                for qubit in ("qubit_gate_ns_e3", inline, "bogus"):
                    specs.append(
                        EstimateSpec(program=program, qubit=qubit, budget=budget)
                    )
        specs.append(EstimateSpec(program=COUNTS, qubit="qubit_maj_ns_e4", scheme="floquet_code"))
        specs.append(EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3", scheme="floquet_code"))
        specs.append(
            EstimateSpec(
                program=COUNTS,
                qubit="qubit_gate_ns_e3",
                constraints=Constraints(logical_depth_factor=1),
                synthesis=RotationSynthesis(a=0.5),
            )
        )
        specs.append(
            EstimateSpec(
                program=COUNTS,
                qubit="qubit_gate_ns_e3",
                constraints=Constraints(logical_depth_factor=1.0),
                synthesis=RotationSynthesis(a=0.5),
            )
        )
        return specs

    def test_hashes_equal_per_spec_content_hashes(self):
        from repro.estimator.spec import _SpecTable

        registry = Registry()
        table = _SpecTable(registry)
        for spec in self.mixed_specs():
            try:
                expected = spec.content_hash(registry)
            except KeyError:
                with pytest.raises(KeyError):
                    table.content_hash(spec)
                continue
            assert table.content_hash(spec) == expected
            assert table.content_hash(spec) == expected  # from the table

    def test_run_specs_reports_per_spec_hashes(self):
        specs = [
            spec
            for spec in self.mixed_specs()
            if not isinstance(spec.program, ProgramRef) or spec.program.name is None
        ]
        registry = Registry()
        expected = []
        for spec in specs:
            try:
                expected.append(spec.content_hash(registry))
            except KeyError:
                expected.append(spec.content_hash())
        outcomes = run_specs(specs, registry=registry)
        assert [outcome.spec_hash for outcome in outcomes] == expected
        # 4 bogus-profile specs and floquet_code on a gate-based profile
        assert [outcome.ok for outcome in outcomes].count(False) == 5

    def test_a_registry_edit_between_calls_changes_the_address(self):
        registry = Registry()
        spec = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
        before = run_specs([spec], registry=registry)[0].spec_hash
        registry.register_qubit(
            qubit_params("qubit_gate_ns_e3").customized(
                name="qubit_gate_ns_e3", t_gate_error_rate=5e-4
            ),
            replace=True,
        )
        after = run_specs([spec], registry=registry)[0].spec_hash
        assert before != after == spec.content_hash(registry)

    def test_miss_requests_resolve_each_distinct_part_once(self, tmp_path, monkeypatch):
        program = ProgramRef(kind="multiplier", algorithm="schoolbook", bits=32)
        specs = [
            EstimateSpec(program=program, qubit=qubit, budget=budget)
            for qubit in ("qubit_gate_ns_e3", "qubit_maj_ns_e4")
            for budget in (1e-4, 1e-3, 1e-2)
        ]
        resolved, keyed = [], []
        resolved_parts = EstimateSpec._resolved_parts
        counts_cache_key = ProgramRef.counts_cache_key

        def resolving(self, registry):
            resolved.append(self.qubit)
            return resolved_parts(self, registry)

        def keying(self, registry, backend):
            keyed.append(backend)
            return counts_cache_key(self, registry, backend)

        monkeypatch.setattr(EstimateSpec, "_resolved_parts", resolving)
        monkeypatch.setattr(ProgramRef, "counts_cache_key", keying)
        outcomes = run_specs(specs, store=ResultStore(tmp_path))
        assert sorted(resolved) == ["qubit_gate_ns_e3", "qubit_maj_ns_e4"]
        assert keyed == ["formula", "formula"]
        monkeypatch.undo()
        for spec, outcome in zip(specs, outcomes):
            (alone,) = run_specs([spec])
            assert outcome.ok and alone.ok
            assert outcome.result.to_dict() == alone.result.to_dict()
