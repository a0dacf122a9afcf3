"""Lazy package re-exports (PEP 562).

Every package ``__init__`` names, per defining module, the objects it
re-exports, and hands that table to :func:`lazy_exports`.  Importing a
package then imports none of its modules: the first access of an
exported name imports the module that defines it and binds the name in
the package, so ``from repro.sim.full_system import FullSystemStack``
loads only the full-system closure, and numpy (which only the analytic
Che and warm-up helpers use) loads only when one of them is asked for.

A name that equals a module of its own package (``repro.core.design_space``
is also a function) must still be imported eagerly in the ``__init__``:
importing the module sets the package attribute to the module, and
``__getattr__`` is only consulted for attributes that are missing.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, Iterable[str]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps a module name to the names it defines that the
    package re-exports; ``__all__`` lists them in table order.
    """
    origin = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__
