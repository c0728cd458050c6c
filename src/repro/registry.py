"""One registry for qubit profiles, QEC schemes, units, and designers.

Before this module, each layer kept its own closed lookup table —
``PREDEFINED_PROFILES`` in :mod:`repro.qubits`, ``PREDEFINED_SCHEMES`` in
:mod:`repro.qec.predefined`, ``PREDEFINED_UNITS`` in
:mod:`repro.distillation.units` — and the CLI hardcoded
``choices=sorted(PREDEFINED_PROFILES)``, so user-defined hardware could
only enter through Python code. A :class:`Registry` unifies the four
catalogs behind one lookup surface and opens them to **scenario files**:
JSON documents declaring custom qubit profiles, QEC schemes, distillation
units, and factory-designer configurations that flow through the CLI
(``--scenario hw.json``), the batch engine, and the estimation service
unchanged.

The module-level :func:`default_registry` is the processwide instance
behind :func:`repro.qubits.qubit_params` and :func:`repro.qec.qec_scheme`,
so an entry registered once (or loaded from a scenario file) is visible to
every entry point.

Scenario file format (all sections optional; single object or list)::

    {
      "schema": "repro-scenario-v1",
      "qubitParams": [{"name": "my_qubit", "instruction_set": "gate_based", ...}],
      "qecSchemes": [{"name": "my_code", "crossingPrefactor": 0.05, ...}],
      "distillationUnits": [{"name": "my_unit", "numInputTs": 15, ...}],
      "factoryDesigners": [{"name": "my_designer", "units": ["my_unit"],
                            "maxRounds": 3, "maxCodeDistance": 35}],
      "programs": [{"name": "shor_1024", "modexp": {"bits": 1024}},
                   {"name": "my_kernel", "qir": {"file": "kernel.ll"}}]
    }

Sections use the same JSON shapes as the corresponding ``to_dict``
serializations, so a profile copied out of a result report is a valid
scenario entry. ``programs`` entries declare named workloads — any kind
in the open program catalog (:mod:`repro.programs`) — that specs, sweep
axes, the CLI (``--program NAME``), and the service then reference by
name, exactly like hardware profiles; relative ``qir`` file paths
resolve against the scenario file's directory.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .programs import ModexpProgram, Program, ProgramError, program_from_dict
from .qec import QECScheme, QECSchemeError
from .qec.predefined import PREDEFINED_SCHEMES
from .qubits import InstructionSet, PhysicalQubitParams
from .qubits.profiles import PREDEFINED_PROFILES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .distillation import TFactoryDesigner
    from .distillation.units import DistillationUnit

__all__ = [
    "Registry",
    "RegistryError",
    "SCENARIO_SCHEMA",
    "default_registry",
    "reset_default_registry",
]

#: Schema tag accepted (and recommended) in scenario files.
SCENARIO_SCHEMA = "repro-scenario-v1"

#: Name of the factory-designer entry used when a spec names none.
DEFAULT_DESIGNER_NAME = "default"


class RegistryError(KeyError):
    """Raised for unknown registry entries (a :class:`KeyError` subtype)."""


#: Serializes every registry's first fill of its unit and designer tables.
_PREDEFINED_FACTORIES_LOCK = threading.Lock()

#: Named workloads every registry starts with (the RSA benchmarks).
PREDEFINED_PROGRAMS: dict[str, Program] = {
    "rsa_1024": ModexpProgram(bits=1024),
    "rsa_2048": ModexpProgram(bits=2048),
}


class Registry:
    """Named catalogs of every customizable model object.

    Five tables, each seeded with the predefined entries unless
    ``include_predefined=False``:

    * **qubit profiles** by name;
    * **QEC schemes** by name, with one variant per instruction set (the
      predefined ``surface_code`` has a gate-based and a Majorana variant);
    * **distillation units** by name;
    * **factory designers** by name (``"default"`` is the shared designer
      used by :func:`repro.estimate`, so sweeps that don't customize the
      search keep hitting its warm factory catalog);
    * **programs** by name — declarative workloads
      (:class:`repro.programs.Program`) that specs, sweeps, the CLI, and
      the service reference via ``{"program": {"name": ...}}``.

    The predefined units and the default designer are registered on the
    first use of either table (a lookup, a listing, a registration or a
    scenario's ``distillationUnits``/``factoryDesigners``), so resolving
    specs by profile, scheme and program name never imports the T-factory
    code (:mod:`repro.distillation`). The tables read exactly as if they
    had been filled here: predefined entries first.
    """

    def __init__(self, *, include_predefined: bool = True) -> None:
        self._qubits: dict[str, PhysicalQubitParams] = {}
        self._schemes: dict[str, dict[InstructionSet | None, QECScheme]] = {}
        self._unit_table: dict[str, DistillationUnit] = {}
        self._designer_table: dict[str, TFactoryDesigner] = {}
        self._programs: dict[str, Program] = {}
        self._factories_pending = include_predefined
        if include_predefined:
            for params in PREDEFINED_PROFILES.values():
                self.register_qubit(params)
            for scheme in PREDEFINED_SCHEMES.values():
                self.register_scheme(scheme)
            for name, program in PREDEFINED_PROGRAMS.items():
                self.register_program(name, program)

    def _register_predefined_factories(self) -> None:
        """Register the predefined units and the default designer, once.

        Every read or write of the two tables comes here first, so they
        are still empty: the entries go straight in. Service threads
        share a registry, hence the lock: none sees a half-filled table.
        """
        if not self._factories_pending:
            return
        with _PREDEFINED_FACTORIES_LOCK:
            if not self._factories_pending:
                return
            from .distillation.search import DEFAULT_DESIGNER
            from .distillation.units import PREDEFINED_UNITS

            self._unit_table.update(PREDEFINED_UNITS)
            self._designer_table[DEFAULT_DESIGNER_NAME] = DEFAULT_DESIGNER
            self._factories_pending = False

    @property
    def _units(self) -> dict[str, DistillationUnit]:
        self._register_predefined_factories()
        return self._unit_table

    @property
    def _designers(self) -> dict[str, TFactoryDesigner]:
        self._register_predefined_factories()
        return self._designer_table

    # -- registration ------------------------------------------------------

    def register_qubit(
        self, params: PhysicalQubitParams, *, replace: bool = False
    ) -> PhysicalQubitParams:
        if not replace and params.name in self._qubits:
            raise ValueError(f"qubit profile {params.name!r} is already registered")
        self._qubits[params.name] = params
        return params

    def register_scheme(self, scheme: QECScheme, *, replace: bool = False) -> QECScheme:
        variants = self._schemes.setdefault(scheme.name, {})
        if not replace and scheme.instruction_set in variants:
            raise ValueError(
                f"QEC scheme {scheme.name!r} already has a "
                f"{_isa_label(scheme.instruction_set)} variant"
            )
        variants[scheme.instruction_set] = scheme
        return scheme

    def register_unit(
        self, unit: DistillationUnit, *, replace: bool = False
    ) -> DistillationUnit:
        if not replace and unit.name in self._units:
            raise ValueError(f"distillation unit {unit.name!r} is already registered")
        self._units[unit.name] = unit
        return unit

    def register_designer(
        self, name: str, designer: TFactoryDesigner, *, replace: bool = False
    ) -> TFactoryDesigner:
        if not replace and name in self._designers:
            raise ValueError(f"factory designer {name!r} is already registered")
        self._designers[name] = designer
        return designer

    def register_program(
        self, name: str, program: Program, *, replace: bool = False
    ) -> Program:
        if not isinstance(name, str) or not name:
            raise ValueError(f"a program needs a non-empty name, got {name!r}")
        if not isinstance(program, Program):
            raise TypeError(
                f"expected a repro.programs.Program, got {type(program).__name__}"
            )
        if not replace and name in self._programs:
            raise ValueError(f"program {name!r} is already registered")
        self._programs[name] = program
        return program

    # -- lookup ------------------------------------------------------------

    def qubit(self, name: str, **overrides: object) -> PhysicalQubitParams:
        """Look up a profile by name, optionally customizing parameters."""
        try:
            base = self._qubits[name]
        except KeyError:
            raise RegistryError(
                f"unknown qubit profile {name!r}; available: {sorted(self._qubits)}"
            ) from None
        if overrides:
            return base.customized(**overrides)
        return base

    def scheme(
        self,
        name: str,
        qubit: PhysicalQubitParams | None = None,
        **overrides: object,
    ) -> QECScheme:
        """Look up a scheme by name for a qubit technology.

        ``qubit`` picks the instruction-set variant (a scheme registered
        with ``instruction_set=None`` applies to any technology). Without
        a qubit the scheme must have exactly one variant.
        """
        variants = self._schemes.get(name)
        if not variants:
            raise RegistryError(
                f"unknown QEC scheme {name!r}; available schemes: "
                f"{self._scheme_listing()}"
            ) from None
        if qubit is None:
            if len(variants) == 1:
                base = next(iter(variants.values()))
            else:
                raise RegistryError(
                    f"QEC scheme {name!r} has variants for "
                    f"{sorted(_isa_label(k) for k in variants)}; "
                    "pass a qubit profile to disambiguate"
                )
        else:
            base = variants.get(qubit.instruction_set) or variants.get(None)
            if base is None:
                raise RegistryError(
                    f"no QEC scheme {name!r} for {qubit.instruction_set.value} "
                    f"qubits; available schemes: {self._scheme_listing()}"
                ) from None
        if overrides:
            return base.customized(**overrides)
        return base

    def unit(self, name: str) -> DistillationUnit:
        try:
            return self._units[name]
        except KeyError:
            raise RegistryError(
                f"unknown distillation unit {name!r}; available: "
                f"{sorted(self._units)}"
            ) from None

    def designer(self, name: str = DEFAULT_DESIGNER_NAME) -> TFactoryDesigner:
        try:
            return self._designers[name]
        except KeyError:
            raise RegistryError(
                f"unknown factory designer {name!r}; available: "
                f"{sorted(self._designers)}"
            ) from None

    def program(self, name: str) -> Program:
        """Look up a named workload (spec ``{"program": {"name": ...}}``)."""
        try:
            return self._programs[name]
        except KeyError:
            raise RegistryError(
                f"unknown program {name!r}; available programs: "
                f"{sorted(self._programs)}"
            ) from None

    # -- introspection -----------------------------------------------------

    def qubit_names(self) -> list[str]:
        return sorted(self._qubits)

    def scheme_catalog(self) -> dict[str, list[str]]:
        """Scheme names mapped to the instruction sets they apply to."""
        return {
            name: sorted(_isa_label(k) for k in variants)
            for name, variants in sorted(self._schemes.items())
        }

    def unit_names(self) -> list[str]:
        return sorted(self._units)

    def designer_names(self) -> list[str]:
        return sorted(self._designers)

    def program_names(self) -> list[str]:
        return sorted(self._programs)

    def program_catalog(self) -> dict[str, str]:
        """Program names mapped to their kinds."""
        return {
            name: program.kind
            for name, program in sorted(self._programs.items())
        }

    def describe(self) -> dict[str, Any]:
        """JSON summary of the catalogs (served by ``GET /v1/registry``
        and the ``repro registry`` CLI subcommand)."""
        return {
            "qubitParams": self.qubit_names(),
            "qecSchemes": self.scheme_catalog(),
            "distillationUnits": self.unit_names(),
            "factoryDesigners": self.designer_names(),
            "programs": self.program_catalog(),
        }

    def _scheme_listing(self) -> str:
        parts = []
        for name, variants in sorted(self._schemes.items()):
            sets = ", ".join(sorted(_isa_label(k) for k in variants))
            parts.append(f"{name} ({sets})")
        return "; ".join(parts) if parts else "(none registered)"

    # -- scenario files ----------------------------------------------------

    def load_scenario(
        self, source: str | Path | dict[str, Any], *, replace: bool = True
    ) -> dict[str, list[str]]:
        """Register the entries of a scenario file (path or parsed dict).

        Returns the registered names per section. By default entries
        *replace* same-named ones — a scenario tweaking a predefined
        profile is a supported workflow — pass ``replace=False`` to make
        collisions an error instead.

        Raises :class:`ValueError` for unreadable files, malformed JSON,
        unknown sections, or invalid entry definitions.
        """
        base_dir: Path | None = None
        if isinstance(source, (str, Path)):
            path = Path(source)
            base_dir = path.parent
            try:
                data = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ValueError(f"cannot read scenario file {path}: {exc}") from exc
        else:
            data = source
        if not isinstance(data, dict):
            raise ValueError("a scenario must be a JSON object")
        known = {
            "schema",
            "qubitParams",
            "qecSchemes",
            "distillationUnits",
            "factoryDesigners",
            "programs",
            # Parsed by repro.settings.load_server_settings, not here —
            # a scenario may configure the server alongside its physics.
            "server",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown scenario sections {sorted(unknown)}; known: {sorted(known)}"
            )
        schema = data.get("schema")
        if schema is not None and schema != SCENARIO_SCHEMA:
            raise ValueError(
                f"unsupported scenario schema {schema!r}; expected {SCENARIO_SCHEMA!r}"
            )

        loaded: dict[str, list[str]] = {}
        try:
            for entry in _entries(data, "qubitParams"):
                params = PhysicalQubitParams.from_dict(entry)
                self.register_qubit(params, replace=replace)
                loaded.setdefault("qubitParams", []).append(params.name)
            for entry in _entries(data, "qecSchemes"):
                scheme = QECScheme.from_dict(entry)
                self.register_scheme(scheme, replace=replace)
                loaded.setdefault("qecSchemes", []).append(scheme.name)
            for entry in _entries(data, "distillationUnits"):
                from .distillation.units import DistillationUnit

                unit = DistillationUnit.from_dict(entry)
                self.register_unit(unit, replace=replace)
                loaded.setdefault("distillationUnits", []).append(unit.name)
            for entry in _entries(data, "factoryDesigners"):
                name = self._load_designer(entry, replace=replace)
                loaded.setdefault("factoryDesigners", []).append(name)
            for entry in _entries(data, "programs"):
                name = self._load_program(entry, replace=replace, base_dir=base_dir)
                loaded.setdefault("programs", []).append(name)
        except _scenario_entry_errors() as exc:
            raise ValueError(f"invalid scenario entry: {exc}") from exc
        except KeyError as exc:
            # e.g. a designer referencing an unknown unit name; keep the
            # documented ValueError contract for scenario problems.
            message = str(exc.args[0]) if exc.args else str(exc)
            raise ValueError(f"invalid scenario entry: {message}") from exc
        return loaded

    def _load_designer(self, entry: dict[str, Any], *, replace: bool) -> str:
        known = {"name", "units", "maxRounds", "maxCodeDistance"}
        unknown = set(entry) - known
        if unknown:
            raise ValueError(
                f"unknown factory designer fields {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError("a factory designer needs a non-empty 'name'")
        unit_names = entry.get("units")
        if unit_names is not None:
            # Units may be declared earlier in the same scenario.
            units: tuple[DistillationUnit, ...] = tuple(
                self.unit(n) for n in unit_names
            )
        else:
            units = tuple(self._units.values())
        from .distillation import TFactoryDesigner

        designer = TFactoryDesigner(
            units=units,
            max_rounds=entry.get("maxRounds", 3),
            max_code_distance=entry.get("maxCodeDistance", 35),
        )
        self.register_designer(name, designer, replace=replace)
        return name

    def _load_program(
        self, entry: dict[str, Any], *, replace: bool, base_dir: Path | None
    ) -> str:
        entry = dict(entry)
        name = entry.pop("name", None)
        if not isinstance(name, str) or not name:
            raise ValueError("a program entry needs a non-empty 'name'")
        qir_body = entry.get("qir")
        if (
            base_dir is not None
            and isinstance(qir_body, dict)
            and isinstance(qir_body.get("file"), str)
            and not Path(qir_body["file"]).is_absolute()
        ):
            # A scenario file's QIR references are relative to *it*, not
            # to wherever the process happens to run.
            entry["qir"] = dict(qir_body, file=str(base_dir / qir_body["file"]))
        program = program_from_dict(entry)
        self.register_program(name, program, replace=replace)
        return name


def _scenario_entry_errors() -> tuple[type[Exception], ...]:
    """What an invalid scenario entry raises (read only when one does)."""
    from .distillation.units import DistillationUnitError

    return (QECSchemeError, DistillationUnitError, ProgramError, TypeError)


def _entries(data: dict[str, Any], section: str) -> list[dict[str, Any]]:
    raw = data.get(section)
    if raw is None:
        return []
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise ValueError(
            f"scenario section {section!r} must be an object or a list of objects"
        )
    return raw


def _isa_label(instruction_set: InstructionSet | None) -> str:
    return "any" if instruction_set is None else instruction_set.value


#: Lazily created processwide registry behind the module-level lookups.
_DEFAULT: Registry | None = None


def default_registry() -> Registry:
    """The processwide registry used when no explicit one is passed.

    ``qubit_params`` / ``qec_scheme`` and the CLI resolve through this
    instance, so entries registered here (e.g. from ``--scenario`` files)
    are visible to every entry point.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Registry()
    return _DEFAULT


def reset_default_registry() -> None:
    """Drop the processwide registry (tests; scenario isolation)."""
    global _DEFAULT
    _DEFAULT = None
