"""IPv4 addressing for emulated containers.

The u32 filter hashes on the third and fourth octets of the destination
address (§3), so containers receive addresses from ``10.1.0.0/16`` with
the low 16 bits allocated sequentially — mirroring how Docker overlay
networks hand out addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

__all__ = ["Ipv4Address", "IpAllocator"]


@dataclass(frozen=True, order=True)
class Ipv4Address:
    """A dotted-quad address with octet accessors."""

    value: int

    @classmethod
    def from_octets(cls, a: int, b: int, c: int, d: int) -> "Ipv4Address":
        for octet in (a, b, c, d):
            if not 0 <= octet <= 255:
                raise ValueError(f"octet out of range: {octet}")
        return cls((a << 24) | (b << 16) | (c << 8) | d)

    @classmethod
    def parse(cls, text: str) -> "Ipv4Address":
        parts = text.split(".")
        if len(parts) != 4:
            raise ValueError(f"not a dotted quad: {text!r}")
        return cls.from_octets(*(int(part) for part in parts))

    @property
    def octets(self) -> tuple:
        return ((self.value >> 24) & 0xFF, (self.value >> 16) & 0xFF,
                (self.value >> 8) & 0xFF, self.value & 0xFF)

    @property
    def third_octet(self) -> int:
        return (self.value >> 8) & 0xFF

    @property
    def fourth_octet(self) -> int:
        return self.value & 0xFF

    def __str__(self) -> str:
        return ".".join(str(octet) for octet in self.octets)


class IpAllocator:
    """Sequential allocation inside the 10.1.0.0/16 network."""

    def __init__(self) -> None:
        self._base = Ipv4Address.parse("10.1.0.0").value
        self._next = 1  # .0.0 is the network address
        self._assigned: Dict[str, Ipv4Address] = {}

    def assign(self, container: str) -> Ipv4Address:
        """Return the container's address, allocating on first request."""
        if container in self._assigned:
            return self._assigned[container]
        if self._next >= 0xFFFF:
            raise RuntimeError("address space exhausted (/16)")
        address = Ipv4Address(self._base | self._next)
        self._next += 1
        self._assigned[container] = address
        return address

    def lookup(self, container: str) -> Ipv4Address:
        try:
            return self._assigned[container]
        except KeyError:
            raise KeyError(f"no address assigned to {container!r}") from None

    def reverse(self, address: Ipv4Address) -> str:
        for container, assigned in self._assigned.items():
            if assigned == address:
                return container
        raise KeyError(f"no container with address {address}")

    def items(self) -> Iterator:
        return iter(self._assigned.items())

    def __len__(self) -> int:
        return len(self._assigned)
