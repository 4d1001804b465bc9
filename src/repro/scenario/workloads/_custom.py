"""The ``custom`` kind: an application driven by caller-supplied callables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence, Tuple

from repro.netstack.plane import PACKET_PLANE
from repro.scenario.workloads import Workload


@dataclass(frozen=True)
class CustomWorkload(Workload):
    """An arbitrary application driven by caller-supplied callables.

    ``install_fn(system)`` may return state; ``collect_fn(system, until,
    state)`` turns it into the result.  The escape hatch for what the
    declarative vocabulary does not say — an ablation that times or
    inspects the engine's internals, a dashboard hook — while still
    flowing through the one backend lifecycle.
    """

    key: Hashable
    install_fn: Callable = None
    collect_fn: Callable = None
    needs: Tuple[str, ...] = (PACKET_PLANE,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "planes", frozenset(self.needs))

    def install(self, engine) -> None:
        self._stash(engine,
                    self.install_fn(engine) if self.install_fn else None)

    def collect(self, engine, until: float):
        state = self._stashed(engine)
        if self.collect_fn is None:
            return state
        return self.collect_fn(engine, until, state)


def custom(key: Hashable, install: Callable = None, *,
           collect: Callable = None, needs: Sequence[str] = (PACKET_PLANE,)
           ) -> CustomWorkload:
    """An arbitrary workload: ``install(system) -> state`` then
    ``collect(system, until, state) -> result``."""
    return CustomWorkload(key=key, install_fn=install, collect_fn=collect,
                          needs=tuple(needs))
