"""The §4.2 metadata wire format.

    The metadata messages embed the following fields: (i) number of flows,
    2 bytes; (ii) list of used bandwidth per flow, 4 bytes per flow;
    (iii) number of links; (iv) list of link identifiers.  For emulated
    networks with <= 256 nodes, it is possible to pack the metadata
    information for links and identifiers in a single byte each (2 bytes
    are used for bigger emulated topologies).

Concretely each message is::

    u16 flow_count
    repeated flow_count times:
        u32 used_bandwidth        (in Kb/s, saturating)
        u8|u16 link_count
        link_count * (u8|u16) link ids

Link-id width is chosen by the topology size (``wide=False`` for <= 256
emulated elements).  Flows also carry their (source, destination) pair as
two container indices with the same width — real Kollaps resolves these
from per-core channel identity; here they travel in-band, sized identically,
so message sizes stay faithful.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["FlowRecord", "MetadataMessage", "encode_message",
           "decode_message", "encoded_size"]

_MAX_U32 = 2 ** 32 - 1
# Conventional MTU-sized UDP payload (1500 - IP/UDP headers).
DATAGRAM_PAYLOAD_BYTES = 1472


@dataclass(frozen=True)
class FlowRecord:
    """One active flow's usage report (bandwidth in bits per second)."""

    source_index: int
    destination_index: int
    used_bandwidth: float
    link_ids: Tuple[int, ...]


@dataclass(frozen=True)
class MetadataMessage:
    """A batch of flow records from one Emulation Manager."""

    sender: int
    flows: Tuple[FlowRecord, ...]


def _id_format(wide: bool) -> str:
    return "H" if wide else "B"


def encode_message(message: MetadataMessage, *, wide: bool = False) -> bytes:
    """Serialize ``message``; raises ``ValueError`` on out-of-range ids."""
    id_format = _id_format(wide)
    limit = 0xFFFF if wide else 0xFF
    parts = [struct.pack("!H", len(message.flows))]
    for flow in message.flows:
        for identifier in (flow.source_index, flow.destination_index,
                           len(flow.link_ids), *flow.link_ids):
            if not 0 <= identifier <= limit:
                raise ValueError(
                    f"identifier {identifier} exceeds {'u16' if wide else 'u8'}"
                    " range; use wide=True for large topologies")
        bandwidth_kbps = min(_MAX_U32, int(round(flow.used_bandwidth / 1000.0)))
        parts.append(struct.pack(f"!I{id_format}{id_format}{id_format}",
                                 bandwidth_kbps, flow.source_index,
                                 flow.destination_index, len(flow.link_ids)))
        if flow.link_ids:
            parts.append(struct.pack(f"!{len(flow.link_ids)}{id_format}",
                                     *flow.link_ids))
    return b"".join(parts)


def decode_message(payload: bytes, *, sender: int = -1,
                   wide: bool = False) -> MetadataMessage:
    """Inverse of :func:`encode_message`."""
    id_format = _id_format(wide)
    id_size = struct.calcsize(id_format)
    (flow_count,) = struct.unpack_from("!H", payload, 0)
    offset = 2
    flows: List[FlowRecord] = []
    for _ in range(flow_count):
        bandwidth_kbps, source, destination, link_count = struct.unpack_from(
            f"!I{id_format}{id_format}{id_format}", payload, offset)
        offset += 4 + 3 * id_size
        link_ids = struct.unpack_from(f"!{link_count}{id_format}",
                                      payload, offset)
        offset += link_count * id_size
        flows.append(FlowRecord(source, destination,
                                bandwidth_kbps * 1000.0, tuple(link_ids)))
    if offset != len(payload):
        raise ValueError(f"trailing bytes in metadata payload "
                         f"({len(payload) - offset})")
    return MetadataMessage(sender=sender, flows=tuple(flows))


def encoded_size(message: MetadataMessage, *, wide: bool = False) -> int:
    """Size in bytes without materializing the encoding."""
    id_size = 2 if wide else 1
    size = 2
    for flow in message.flows:
        size += 4 + 3 * id_size + len(flow.link_ids) * id_size
    return size
