"""Convenience constructors for common packet shapes.

Experiment scripts and tests build the same handful of packets over and over:
plain UDP datagrams, DSCP-marked datagrams, and shim-carrying packets.  These
helpers keep those call sites short and consistent; they are deliberately thin
wrappers with no hidden behaviour.
"""

from __future__ import annotations

from typing import Optional

from .addresses import IPv4Address
from .dscp import Dscp
from .headers import IPv4Header, PROTO_UDP, ShimHeader, UdpHeader
from .packet import Packet


def udp_packet(
    source: IPv4Address,
    destination: IPv4Address,
    payload: bytes = b"",
    *,
    source_port: int = 40000,
    destination_port: int = 40000,
    dscp: int = int(Dscp.BEST_EFFORT),
    ttl: int = 64,
    flow_id: Optional[str] = None,
) -> Packet:
    """Build a plain UDP packet."""
    packet = Packet(
        ip=IPv4Header(
            source=source,
            destination=destination,
            protocol=PROTO_UDP,
            dscp=dscp,
            ttl=ttl,
        ),
        udp=UdpHeader(source_port=source_port, destination_port=destination_port),
        payload=payload,
    )
    if flow_id is not None:
        packet.meta["flow_id"] = flow_id
    return packet


def shim_packet(
    source: IPv4Address,
    destination: IPv4Address,
    shim: ShimHeader,
    payload: bytes = b"",
    *,
    dscp: int = int(Dscp.BEST_EFFORT),
    ttl: int = 64,
    flow_id: Optional[str] = None,
) -> Packet:
    """Build a packet carrying a shim header (the neutralizer's wire format)."""
    base = Packet(
        ip=IPv4Header(source=source, destination=destination, dscp=dscp, ttl=ttl),
        payload=payload,
    )
    packet = base.with_shim(shim)
    if flow_id is not None:
        packet.meta["flow_id"] = flow_id
    return packet
