"""Physical machines and the cluster interconnect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Machine", "Cluster"]


@dataclass
class Machine:
    """One physical server and the containers placed on it.

    It has no capacity of its own: placement is round-robin, and the
    cluster's network is modelled as fixed delays (``docs/scenarios.md``).
    """

    name: str
    containers: List[str] = field(default_factory=list)

    def host(self, container: str) -> None:
        if container in self.containers:
            raise ValueError(f"{container!r} already placed on {self.name}")
        self.containers.append(container)


class Cluster:
    """A named set of machines behind one switch."""

    def __init__(self, machine_count: int = 1, *,
                 interconnect_latency: float = 50e-6,
                 interconnect_rate: float = 40e9,
                 name_prefix: str = "host") -> None:
        if machine_count < 1:
            raise ValueError("cluster needs at least one machine")
        self.machines: Dict[str, Machine] = {}
        for index in range(machine_count):
            name = f"{name_prefix}-{index}"
            self.machines[name] = Machine(name)
        self.interconnect_latency = interconnect_latency
        self.interconnect_rate = interconnect_rate

    def machine_names(self) -> List[str]:
        return list(self.machines)

    def machine_of(self, container: str) -> Optional[str]:
        for machine in self.machines.values():
            if container in machine.containers:
                return machine.name
        return None

    def placement(self) -> Dict[str, str]:
        """Container -> machine map."""
        mapping: Dict[str, str] = {}
        for machine in self.machines.values():
            for container in machine.containers:
                mapping[container] = machine.name
        return mapping

    def place_round_robin(self, containers: List[str]) -> Dict[str, str]:
        """Spread containers evenly, in declaration order."""
        names = self.machine_names()
        for index, container in enumerate(containers):
            self.machines[names[index % len(names)]].host(container)
        return self.placement()

    def __len__(self) -> int:
        return len(self.machines)
