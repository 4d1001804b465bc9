"""PEP 562 re-exports: a package keeps its public names, a submodule
loads the first time one of its names is used."""

from importlib import import_module
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(namespace: dict, submodules: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``__getattr__`` and ``__dir__`` for the package whose ``globals()``
    is *namespace*; *submodules* maps a submodule to the names it gives."""
    package = namespace["__name__"]
    table: Dict[str, str] = {name: submodule
                             for submodule, names in submodules.items()
                             for name in names}

    def __getattr__(name: str) -> object:
        if name not in table:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{table[name]}"), name)
        namespace[name] = value         # the next access is a dict hit
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__
