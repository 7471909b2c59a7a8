"""On-demand package exports (PEP 562).

Every ``repro`` package ``__init__`` re-exports names from its
submodules.  Importing them all up front made ``import repro.cli`` load
the whole library; :func:`attach` instead imports a submodule the first
time one of its names is looked up, then binds the value in the
package namespace so later lookups are plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def attach(
    package: str,
    exports: Dict[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    names the package re-exports from it; ``submodules`` are names that
    resolve to the submodule itself.
    """
    source = {name: module for module, names in exports.items()
              for name in names}
    source.update((name, None) for name in submodules)
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in source:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = source[name]
        if module is None:
            value = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(
                importlib.import_module(f"{package}.{module}"), name
            )
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source))

    return __getattr__, __dir__, list(source)
