"""Lazy package exports (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` one table that maps
each defining module to the names it exports, and binds what comes back
as its ``__all__``, ``__getattr__`` and ``__dir__``.  Importing the
package then imports none of those modules; the first use of a name
imports its module and binds the name in the package, so the lookup
runs once per name.  ``ravelint``'s ``api-surface`` rule reads the
table and checks that each module exists and binds its names.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]
                 ) -> tuple[list[str], Callable, Callable]:
    """``(__all__, __getattr__, __dir__)`` for ``package``'s ``table``."""
    where = {name: module for module, names in table.items()
             for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(where[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | where.keys())

    # importing a submodule binds it in its package under its own name, so
    # a name its module shares is bound now, or it would read as the module
    for name, module in where.items():
        if module == f"{package}.{name}":
            __getattr__(name)
    return list(where), __getattr__, __dir__
