"""Lazy package re-exports (PEP 562 module ``__getattr__``).

A package ``__init__`` that eagerly imports every submodule makes the
lightest of them cost the heaviest: ``import repro.sim.stream`` used to
pull in ``repro.sim.runner`` and with it scipy and networkx — 45 MiB
and 0.4 s (81 MiB resident where 36 do) that the upload front-end paid
for nothing.  ``lazy_exports`` keeps
``from package import Name`` and ``package.__all__`` as they were and
defers each submodule import to the first access of a name it defines.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each public name to the module that defines it
    (absolute, or relative to ``package`` with a leading dot).  A
    resolved name is cached in the package's namespace, so the hook
    runs once per name.
    """

    def __getattr__(name: str) -> object:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(exports[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__
