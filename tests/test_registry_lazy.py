"""The registry fills its unit and designer tables on first use.

Resolving specs by profile, scheme and program name never needs the
T-factory code, so a ``Registry`` registers the predefined distillation
units and the default designer only when one of those tables is first
read or written. These tests check that the tables then read exactly as
if they had been filled up front, whatever touches them first, and that
threads sharing a registry never see them half filled.
"""

from __future__ import annotations

import threading

from repro.distillation import units as units_module
from repro.distillation.search import DEFAULT_DESIGNER
from repro.distillation.units import PREDEFINED_UNITS, T15_RM_PREP, DistillationUnit
from repro.registry import Registry


def test_resolving_names_leaves_the_tables_unfilled():
    registry = Registry()
    registry.qubit("qubit_gate_ns_e3")
    registry.scheme("surface_code", registry.qubit("qubit_maj_ns_e4"))
    registry.program("rsa_2048")
    assert registry._factories_pending


def test_a_unit_registered_first_still_follows_the_predefined_ones():
    registry = Registry()
    custom = DistillationUnit.from_dict({**T15_RM_PREP.to_dict(), "name": "custom"})
    registry.register_unit(custom)
    assert registry.unit_names() == sorted([*PREDEFINED_UNITS, "custom"])
    assert list(registry._units) == [*PREDEFINED_UNITS, "custom"]
    assert registry.designer() is DEFAULT_DESIGNER


def test_a_scenario_designer_without_units_gets_the_predefined_ones_first():
    registry = Registry()
    registry.load_scenario(
        {
            "distillationUnits": [{**T15_RM_PREP.to_dict(), "name": "custom"}],
            "factoryDesigners": [{"name": "all_units"}],
        }
    )
    names = [unit.name for unit in registry.designer("all_units").units]
    assert names == [*PREDEFINED_UNITS, "custom"]


def test_an_empty_registry_stays_empty():
    registry = Registry(include_predefined=False)
    assert registry.unit_names() == []
    assert registry.designer_names() == []


class _SlowUnits(dict):
    """``PREDEFINED_UNITS`` whose copy pauses until released."""

    def __init__(self, *args, entered: threading.Event, release: threading.Event):
        super().__init__(*args)
        self.entered = entered
        self.release = release

    def __iter__(self):  # leave dict.update's fast path for keys()
        return super().__iter__()

    def keys(self):
        self.entered.set()
        assert self.release.wait(30)
        return super().keys()


def test_threads_never_see_a_half_filled_table(monkeypatch):
    entered, release = threading.Event(), threading.Event()
    monkeypatch.setattr(
        units_module,
        "PREDEFINED_UNITS",
        _SlowUnits(PREDEFINED_UNITS, entered=entered, release=release),
    )
    registry = Registry()
    seen: dict[str, list[str]] = {}

    def read(name: str) -> None:
        seen[name] = registry.unit_names()

    first = threading.Thread(target=read, args=("first",))
    first.start()
    assert entered.wait(30)  # the first reader is filling the table
    second = threading.Thread(target=read, args=("second",))
    second.start()
    release.set()
    first.join(30)
    second.join(30)
    assert not first.is_alive() and not second.is_alive()
    assert seen == {"first": sorted(PREDEFINED_UNITS), "second": sorted(PREDEFINED_UNITS)}
