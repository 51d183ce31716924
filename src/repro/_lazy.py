"""Package exports resolved on first use (PEP 562).

Importing any module runs its package's ``__init__`` first.  If that
imported every submodule, ``repro.netsim.link``, which needs one
constant from ``repro.telemetry.spans``, would load all of telemetry,
which a clean sweep never runs.  Each package instead declares where
its public names live and binds the three module attributes
:func:`lazy_exports` returns::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".core": ("Telemetry", "TelemetrySnapshot"),
        ...
    })

A name loads its module on first access and is then bound on the
package, so ``from repro.telemetry import Telemetry`` and ``from
repro.telemetry import *`` both work.  Any other attribute that
names a submodule imports it, so ``import repro.telemetry`` followed by
``repro.telemetry.streaming`` works too.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, List, Mapping, Tuple


def lazy_exports(package: str, exports: Mapping[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]],
                            List[str]]:
    """``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    ``exports`` maps each module, relative to ``package`` (``".core"``)
    or absolute, to the public names the package takes from it.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        elif name.startswith("__") or not name.isidentifier():
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}") from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
