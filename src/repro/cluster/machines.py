"""Physical machines and the cluster interconnect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Machine", "Cluster", "INTERCONNECT_LATENCY",
           "INTERCONNECT_RATE", "infeasibility"]

#: One hop through the cluster switch: the delay of every metadata
#: datagram between Emulation Managers.
INTERCONNECT_LATENCY = 50e-6
#: Each machine's link to the switch (the paper's 40 GbE testbed, §5).
INTERCONNECT_RATE = 40e9


def infeasibility(time_dilation: float,
                  capacity: float = 0.0) -> Optional[str]:
    """Why the cluster cannot emulate ``capacity`` bits/s under
    ``time_dilation``, or None when it can (§6: "impossible to emulate a
    link of 10 Gb/s if Kollaps is running on a cluster with 1 Gb/s
    connections").  Dilation (§7) slows virtual time, so the bound grows
    by its factor; a factor below 1 is refused whatever the capacity."""
    if not time_dilation >= 1:
        return f"expected a dilation factor >= 1, got {time_dilation}"
    if capacity != float("inf") and \
            capacity > INTERCONNECT_RATE * time_dilation:
        return (f"asks for {capacity / 1e9:.1f} Gb/s but the cluster "
                f"interconnect provides {INTERCONNECT_RATE / 1e9:.1f} Gb/s "
                f"(time dilation {time_dilation:g}x); raise "
                "deploy.time_dilation")
    return None


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

    def __init__(self, machine_count: int = 1) -> None:
        if machine_count < 1:
            raise ValueError("cluster needs at least one machine")
        self.machines: Dict[str, Machine] = {}
        for index in range(machine_count):
            name = f"host-{index}"
            self.machines[name] = Machine(name)

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
