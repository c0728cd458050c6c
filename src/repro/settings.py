"""Typed server configuration with CLI > scenario > default precedence.

Everything ``repro serve`` is configured by (``--sweep-workers``,
``--executor``, ``--lease-ttl``, ``--max-body-bytes``, ...) is one
frozen dataclass, :class:`ServerSettings`, that can also be configured
from a scenario file's ``server`` section::

    {
      "schema": "repro-scenario-v1",
      "server": {"port": 9000, "sweepWorkers": 4, "storeMaxBytes": 1073741824}
    }

Precedence is strict and layered: **CLI flag > scenario file > built-in
default**. Scenario files apply in the order given (later files win),
and a CLI flag the user actually typed beats any scenario — argparse
defaults are ``None`` precisely so "typed" is distinguishable from
"defaulted". :func:`load_server_settings` implements the layering; the
``server`` section accepts both camelCase (scenario-file house style)
and snake_case keys, and unknown keys are errors, not typos silently
shipped to production.

The execution fields (``workers``, ``executor``, ``leaseTtl``) become
one :class:`~repro.estimator.engine.ExecutionPolicy` through
:meth:`ServerSettings.execution_policy`, which also validates them and
is the one place the ``auto`` executor is decided: the lease queue when
the server has a store, the in-process chunk loop without one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Iterable

from .estimator.engine import DEFAULT_LEASE_TTL, ExecutionPolicy

__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "ServerSettings",
    "load_server_settings",
]

#: Default cap on request body size (a batch of ~10k inline-counts
#: specs). Oversized bodies are rejected with 413 before a single body
#: byte is read.
DEFAULT_MAX_BODY_BYTES = 16 * 1024 * 1024


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(part.capitalize() for part in rest)


@dataclass(frozen=True)
class ServerSettings:
    """Everything ``repro serve`` is configured by, in one place.

    Field semantics match the flags they absorbed (see
    ``repro serve --help``); ``workers``, ``executor`` and ``lease_ttl``
    are the service's :meth:`execution_policy`; ``store_max_bytes``
    bounds the result
    store's disk use via LRU document eviction
    (:meth:`~repro.estimator.store.ResultStore.evict`) and
    ``metrics_ttl`` is the refresh interval for the expensive
    (disk-touching) gauges behind ``GET /v1/metrics``.
    """

    host: str = "127.0.0.1"
    port: int = 8000
    workers: int = 1
    sweep_workers: int = 2
    executor: str = "auto"
    lease_ttl: float | None = None
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    store_max_bytes: int | None = None
    metrics_ttl: float = 10.0
    verbose: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ValueError("host must be a non-empty string")
        if not isinstance(self.port, int) or not 0 <= self.port <= 65535:
            raise ValueError(f"port must be 0..65535, got {self.port!r}")
        if not isinstance(self.sweep_workers, int) or self.sweep_workers < 1:
            raise ValueError(
                f"sweep_workers must be >= 1, got {self.sweep_workers!r}"
            )
        self.execution_policy(store=True)  # validates the execution fields
        if not isinstance(self.max_body_bytes, int) or self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes!r}"
            )
        if self.store_max_bytes is not None and (
            not isinstance(self.store_max_bytes, int) or self.store_max_bytes < 0
        ):
            raise ValueError(
                f"store_max_bytes must be >= 0, got {self.store_max_bytes!r}"
            )
        if (
            not isinstance(self.metrics_ttl, (int, float))
            or self.metrics_ttl < 0
        ):
            raise ValueError(f"metrics_ttl must be >= 0, got {self.metrics_ttl!r}")
        if not isinstance(self.verbose, bool):
            raise ValueError(f"verbose must be a bool, got {self.verbose!r}")

    def execution_policy(self, *, store: bool) -> ExecutionPolicy:
        """How the service runs jobs; ``store`` says whether it has one.

        The ``auto`` executor resolves here and nowhere else: the lease
        queue with a store (journaled jobs survive a restart and replicas
        sharing the store cooperate), the in-process chunk loop without.
        """
        executor = self.executor
        if executor == "auto":
            executor = "queue" if store else "local"
        return ExecutionPolicy(
            workers=self.workers,
            executor=executor,
            lease_ttl=DEFAULT_LEASE_TTL if self.lease_ttl is None else self.lease_ttl,
        )

    # -- layering ----------------------------------------------------------

    def overridden(self, **overrides: Any) -> "ServerSettings":
        """A copy with every non-``None`` override applied (CLI layer).

        ``None`` means "the user did not say" — the argparse defaults
        for absorbed flags are ``None`` so this distinction survives
        parsing. Values are validated by the replacement's
        ``__post_init__``.
        """
        known = {field.name for field in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(
                f"unknown server settings {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        applied = {
            key: value for key, value in overrides.items() if value is not None
        }
        return replace(self, **applied) if applied else self

    def updated_from_dict(self, data: Any) -> "ServerSettings":
        """A copy updated from a scenario ``server`` section.

        Keys may be camelCase (``sweepWorkers`` — scenario-file house
        style) or snake_case; unknown keys raise :class:`ValueError`.
        Explicit ``null`` values are ignored (meaning "not configured
        here", same as the CLI's untyped flags).
        """
        if not isinstance(data, dict):
            raise ValueError("the 'server' section must be a JSON object")
        by_key: dict[str, str] = {}
        for field in fields(self):
            by_key[field.name] = field.name
            by_key[_camel(field.name)] = field.name
        overrides: dict[str, Any] = {}
        unknown: list[str] = []
        for key, value in data.items():
            name = by_key.get(key)
            if name is None:
                unknown.append(key)
            elif value is not None:
                overrides[name] = value
        if unknown:
            raise ValueError(
                f"unknown server settings {sorted(unknown)}; known: "
                f"{sorted(_camel(field.name) for field in fields(self))}"
            )
        return replace(self, **overrides) if overrides else self

    def to_dict(self) -> dict[str, Any]:
        """The settings as a camelCase document (healthz/debugging)."""
        return {
            _camel(field.name): getattr(self, field.name)
            for field in fields(self)
        }


def load_server_settings(
    scenarios: Iterable[str | Path] = (),
    **cli_overrides: Any,
) -> ServerSettings:
    """Layer defaults, scenario ``server`` sections, and CLI overrides.

    ``scenarios`` are file paths applied in order (later wins); files
    without a ``server`` section contribute nothing. ``cli_overrides``
    are keyword settings where ``None`` means "flag not given". This is
    the whole precedence rule: default < each scenario < CLI.
    """
    settings = ServerSettings()
    for source in scenarios:
        path = Path(source)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read scenario file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"scenario file {path} must be a JSON object")
        section = data.get("server")
        if section is not None:
            try:
                settings = settings.updated_from_dict(section)
            except ValueError as exc:
                raise ValueError(f"invalid server settings in {path}: {exc}") from exc
    return settings.overridden(**cli_overrides)
