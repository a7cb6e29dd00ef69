"""MPROS — Machinery Prognostics and Diagnostics System.

A full reproduction of "Condition-Based Maintenance: Algorithms and
Applications for Embedded High Performance Computing" (IPPS 1999):
the distributed MPROS architecture (Data Concentrators, the PDME, the
Object-Oriented Ship Model), the four diagnostic/prognostic algorithm
suites (DLI-style vibration expert system, SBFR, wavelet neural
network, fuzzy logic), Dempster-Shafer knowledge fusion with logical
failure groups, conservative prognostic fusion, and a simulated
shipboard chilled-water plant to drive it all.

Quick start::

    from repro import build_mpros_system

    system = build_mpros_system(seed=0)
    system.run(hours=2.0)
    print(system.browser_screen(system.units[0].motor))

See ``examples/quickstart.py`` for the narrated version.

Every package's public names resolve on first access through
:func:`lazy_exports`, so importing one module loads only the modules
it uses: a PDME process never loads the DC stack.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """PEP 562 hooks that import a package's public names on first use.

    ``exports`` maps each defining module to the names it provides.
    Returns ``(__all__, __getattr__, __dir__)`` for the package to
    bind.  A name's module is imported when the name is first read,
    and the value is then stored in the package namespace, so every
    later read is a plain attribute lookup.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return list(origin), __getattr__, __dir__


__all__, __getattr__, __dir__ = lazy_exports(
    __name__, {"repro.system": ["MprosSystem", "build_mpros_system"]}
)

__version__ = "0.1.0"
