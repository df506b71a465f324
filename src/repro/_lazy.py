"""Lazy package exports (PEP 562).

A package ``__init__`` names what it re-exports and from which
submodule; each submodule is imported the first time one of its names
is read, so a run compiles only the modules it uses::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "layers": "Conv2d Dense",
        "model": "Model",
    })

A name equal to its submodule's name (``{"attacks": "attacks"}``)
exports the submodule itself.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable


def lazy_exports(package: str, exports: dict[str, str]
                 ) -> tuple[Callable[[str], object], Callable[[], list]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule, relative to ``package``, to the
    whitespace-separated names the package re-exports from it.
    """
    origin = {name: f"{package}.{module}"
              for module, names in exports.items()
              for name in names.split()}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            target = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(target)
        value = module if target == f"{package}.{name}" \
            else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
