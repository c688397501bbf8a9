"""Lazy package exports: a name is imported from its submodule on first
use, so importing a package loads only what its caller touches."""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(package: str, exports: dict[str, str]
                 ) -> Callable[[str], Any]:
    """The module ``__getattr__`` of *package*: each name of *exports*
    (name -> submodule) is imported from that submodule when first read
    and then kept on the package.  A name equal to its submodule's is
    the submodule itself."""
    def __getattr__(name: str) -> Any:
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = import_module(f"{package}.{submodule}")
        value = module if name == submodule else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value
    return __getattr__
