"""Tests for the typed server settings and their precedence rules."""

from __future__ import annotations

import json

import pytest

from repro.estimator.engine import ExecutionPolicy
from repro.registry import Registry
from repro.settings import (
    DEFAULT_MAX_BODY_BYTES,
    ServerSettings,
    load_server_settings,
)


class TestDefaults:
    def test_default_values(self):
        settings = ServerSettings()
        assert settings.host == "127.0.0.1"
        assert settings.port == 8000
        assert settings.workers == 1
        assert settings.sweep_workers == 2
        assert settings.executor == "auto"
        assert settings.lease_ttl is None
        assert settings.max_body_bytes == DEFAULT_MAX_BODY_BYTES
        assert settings.store_max_bytes is None
        assert settings.metrics_ttl == 10.0
        assert settings.verbose is False

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ServerSettings().port = 9000  # type: ignore[misc]


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("host", ""),
            ("port", -1),
            ("port", 70000),
            ("port", "8000"),
            ("workers", 0),
            ("sweep_workers", 0),
            ("executor", "remote"),
            ("lease_ttl", 0.0),
            ("lease_ttl", -1.0),
            ("max_body_bytes", 0),
            ("store_max_bytes", -1),
            ("metrics_ttl", -0.1),
            ("verbose", "yes"),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServerSettings(**{field: value})


class TestOverridden:
    def test_none_means_not_given(self):
        settings = ServerSettings().overridden(port=None, executor=None)
        assert settings == ServerSettings()

    def test_non_none_wins(self):
        settings = ServerSettings().overridden(port=9000, executor="local")
        assert settings.port == 9000
        assert settings.executor == "local"
        assert settings.sweep_workers == 2  # untouched

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown server settings"):
            ServerSettings().overridden(threads=4)

    def test_override_values_are_validated(self):
        with pytest.raises(ValueError, match="executor"):
            ServerSettings().overridden(executor="remote")


class TestScenarioSection:
    def test_camel_case_keys(self):
        settings = ServerSettings().updated_from_dict(
            {"sweepWorkers": 4, "maxBodyBytes": 1024, "storeMaxBytes": 4096}
        )
        assert settings.sweep_workers == 4
        assert settings.max_body_bytes == 1024
        assert settings.store_max_bytes == 4096

    def test_snake_case_keys_also_accepted(self):
        settings = ServerSettings().updated_from_dict({"sweep_workers": 3})
        assert settings.sweep_workers == 3

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ValueError, match="sweepWorker"):
            ServerSettings().updated_from_dict({"sweepWorker": 4})
        # A removed setting is just another unknown key.
        with pytest.raises(ValueError, match=r"unknown server settings \['pool'\]"):
            ServerSettings().updated_from_dict({"pool": "keep"})
        # Removed execution knobs: the kernel choice and adaptive chunking.
        for key in ("kernel", "chunkTargetS"):
            with pytest.raises(ValueError, match=rf"unknown server settings \['{key}'\]"):
                ServerSettings().updated_from_dict({key: "scalar"})

    def test_null_values_are_ignored(self):
        settings = ServerSettings().updated_from_dict({"port": None})
        assert settings.port == 8000

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            ServerSettings().updated_from_dict([1, 2])

    def test_to_dict_round_trip(self):
        settings = ServerSettings(port=9000, sweep_workers=4)
        assert ServerSettings().updated_from_dict(settings.to_dict()) == settings


class TestPrecedence:
    """The whole point: CLI flag > scenario file > built-in default."""

    def _scenario(self, tmp_path, name, server):
        path = tmp_path / name
        path.write_text(
            json.dumps({"schema": "repro-scenario-v1", "server": server})
        )
        return path

    def test_scenario_beats_default(self, tmp_path):
        path = self._scenario(tmp_path, "a.json", {"port": 9000})
        settings = load_server_settings([path])
        assert settings.port == 9000
        assert settings.host == "127.0.0.1"  # untouched default

    def test_cli_beats_scenario(self, tmp_path):
        path = self._scenario(
            tmp_path, "a.json", {"port": 9000, "sweepWorkers": 4}
        )
        settings = load_server_settings([path], port=9100)
        assert settings.port == 9100  # CLI wins
        assert settings.sweep_workers == 4  # scenario survives where CLI silent

    def test_later_scenario_beats_earlier(self, tmp_path):
        first = self._scenario(tmp_path, "a.json", {"port": 9000})
        second = self._scenario(tmp_path, "b.json", {"port": 9001})
        assert load_server_settings([first, second]).port == 9001

    def test_scenario_without_server_section_contributes_nothing(
        self, tmp_path
    ):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({"schema": "repro-scenario-v1"}))
        assert load_server_settings([path]) == ServerSettings()

    def test_bad_scenario_file_is_a_value_error(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(ValueError, match="cannot read"):
            load_server_settings([missing])
        bad = self._scenario(tmp_path, "bad.json", {"sweepWorker": 4})
        with pytest.raises(ValueError, match="bad.json"):
            load_server_settings([bad])


class TestRegistryCoexistence:
    def test_registry_tolerates_the_server_section(self, tmp_path):
        # One scenario file can configure both the physics and the
        # server; the registry skips 'server', the settings loader
        # skips everything else.
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "schema": "repro-scenario-v1",
                    "server": {"port": 9000},
                    "qecSchemes": [],
                }
            )
        )
        registry = Registry()
        registry.load_scenario(path)  # must not raise on 'server'
        assert load_server_settings([path]).port == 9000


class TestServeParserIntegration:
    def test_absorbed_flags_default_to_none(self):
        # 'flag not typed' must be observable for precedence layering.
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        for name in (
            "host",
            "port",
            "workers",
            "sweep_workers",
            "executor",
            "lease_ttl",
            "max_body_bytes",
            "store_max_bytes",
            "metrics_ttl",
            "verbose",
        ):
            assert getattr(args, name) is None, name

    def test_typed_flags_parse(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(
            ["--port", "9000", "--sweep-workers", "4", "--verbose"]
        )
        assert args.port == 9000
        assert args.sweep_workers == 4
        assert args.verbose is True

    def test_from_settings_configures_the_service(self, tmp_path):
        from repro import ResultStore
        from repro.service import EstimationService

        settings = ServerSettings(
            workers=2, sweep_workers=3, executor="local", lease_ttl=5.0
        )
        service = EstimationService.from_settings(
            settings, registry=Registry(), store=ResultStore(tmp_path)
        )
        try:
            assert service.policy == ExecutionPolicy(
                workers=2, executor="local", lease_ttl=5.0
            )
            assert service._engine.max_workers == 2
        finally:
            service.close()

    def test_auto_executor_is_the_queue_iff_a_store(self):
        settings = ServerSettings()
        assert settings.execution_policy(store=True).executor == "queue"
        assert settings.execution_policy(store=False).executor == "local"
        assert ServerSettings(executor="local").execution_policy(
            store=True
        ) == ExecutionPolicy()
