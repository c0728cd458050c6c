"""Lazy package exports (PEP 562).

A package lists its public names by defining submodule; a name's
submodule is imported on first attribute access and the value is cached
in the package namespace, so importing a package loads none of its
submodules and a pass pays only for the modules it uses.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Mapping


def lazy_exports(
    namespace: dict[str, Any], exports: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for a package's ``globals()``.

    ``exports`` maps a submodule path relative to the package (``"spec"``,
    ``"qec.predefined"``) to the names it defines.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return sorted(origin), __getattr__, __dir__
