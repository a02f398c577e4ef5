"""Packet tracing: per-node observations for assertions and debugging.

A :class:`TraceCollector` can be attached to routers (as an ingress hook) to
record what an eavesdropper at that vantage point would see.  Experiments use it in two ways: to verify protocol behaviour
("the neutralizer swapped the addresses"), and to play the role of the
*discriminatory ISP's* vantage — the central privacy claim is about what is
visible inside AT&T, and tests assert it over the collected trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..packet.addresses import IPv4Address
from ..packet.packet import Packet


@dataclass(frozen=True)
class TraceRecord:
    """One observation of a packet at a vantage point."""

    time: float
    vantage: str
    source: IPv4Address
    destination: IPv4Address
    protocol: int
    dscp: int
    size_bytes: int
    shim_type: Optional[int]
    packet_id: int
    flow_id: Optional[str]
    payload_snippet: bytes

    def mentions_address(self, address: IPv4Address) -> bool:
        """Return ``True`` if the visible IP header carries ``address``."""
        return self.source == address or self.destination == address


class TraceCollector:
    """Collects :class:`TraceRecord` observations from router hooks."""

    def __init__(self, name: str = "trace", snippet_bytes: int = 16) -> None:
        self.name = name
        self.snippet_bytes = snippet_bytes
        self.records: List[TraceRecord] = []

    # -- attachment points ---------------------------------------------------------

    def router_hook(self):
        """Return an ingress hook for routers that records and passes through."""

        def hook(packet: Packet, router, interface):
            self._record(router.sim.now, router.name, packet)
            return packet

        return hook

    def _record(self, time: float, vantage: str, packet: Packet) -> None:
        self.records.append(
            TraceRecord(
                time=time,
                vantage=vantage,
                source=packet.source,
                destination=packet.destination,
                protocol=packet.ip.protocol,
                dscp=packet.dscp,
                size_bytes=packet.size_bytes,
                shim_type=packet.shim.shim_type if packet.shim is not None else None,
                packet_id=packet.packet_id,
                flow_id=packet.flow_id,
                payload_snippet=bytes(packet.payload[: self.snippet_bytes]),
            )
        )

    # -- queries -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def at_vantage(self, vantage: str) -> List[TraceRecord]:
        """All records observed at a given node."""
        return [record for record in self.records if record.vantage == vantage]

    def addresses_seen(self, vantage: Optional[str] = None) -> set:
        """Set of addresses visible in IP headers at ``vantage`` (or anywhere)."""
        records = self.records if vantage is None else self.at_vantage(vantage)
        seen = set()
        for record in records:
            seen.add(record.source)
            seen.add(record.destination)
        return seen

    def ever_saw_address(self, address: IPv4Address, vantage: Optional[str] = None) -> bool:
        """Return ``True`` if ``address`` ever appeared in a visible IP header."""
        records = self.records if vantage is None else self.at_vantage(vantage)
        return any(record.mentions_address(address) for record in records)

    def payload_contains(self, needle: bytes, vantage: Optional[str] = None) -> bool:
        """Return ``True`` if any recorded payload snippet contains ``needle``.

        Used to show that cleartext application payloads are visible to the
        access ISP *without* end-to-end encryption and invisible with it.
        """
        records = self.records if vantage is None else self.at_vantage(vantage)
        return any(needle in record.payload_snippet for record in records)

    def clear(self) -> None:
        """Drop all collected records."""
        self.records.clear()
