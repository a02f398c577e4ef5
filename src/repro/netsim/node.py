"""Nodes: the base class, end hosts, and their protocol dispatch.

A :class:`Node` owns interfaces and receives packets from links.  A
:class:`Host` is a single-homed end system with a tiny protocol stack:
handlers can be registered per IP protocol number or per UDP destination port,
which is how the neutralizer client stack, the e2e layer and the applications
plug in without subclassing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..packet.addresses import IPv4Address
from ..packet.headers import PROTO_UDP
from ..packet.packet import Packet
from .engine import Simulator
from .link import Interface
from .stats import Counters

#: Signature of protocol/port handlers: (packet, host) -> None.
PacketHandler = Callable[[Packet, "Host"], None]


class Node:
    """Base class of every simulated device."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.interfaces: List[Interface] = []
        self.counters = Counters()

    def add_interface(
        self, name: Optional[str] = None, address: Optional[IPv4Address] = None
    ) -> Interface:
        """Create and attach a new interface."""
        interface = Interface(self, name or f"eth{len(self.interfaces)}", address)
        self.interfaces.append(interface)
        return interface

    @property
    def addresses(self) -> List[IPv4Address]:
        """All addresses assigned to this node's interfaces."""
        return [iface.address for iface in self.interfaces if iface.address is not None]

    def owns_address(self, address: IPv4Address) -> bool:
        """Return ``True`` if ``address`` is assigned to one of our interfaces."""
        return address in self.addresses

    def receive(self, packet: Packet, interface: Interface) -> None:
        """Handle an arriving packet; subclasses must override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """A single-homed end host with a minimal protocol stack."""

    def __init__(self, sim: Simulator, name: str, address: IPv4Address) -> None:
        super().__init__(sim, name)
        self._primary = self.add_interface("eth0", address)
        #: Packets that no handler claimed, kept for tests and debugging.
        self.unclaimed: List[Packet] = []
        self._port_handlers: Dict[int, PacketHandler] = {}
        #: Outbound hooks applied (in order) to every sent packet.  The
        #: neutralizer client stack installs itself here so applications are
        #: unaware of whether their traffic is neutralized.
        self.egress_hooks: List[Callable[[Packet, "Host"], Optional[Packet]]] = []
        #: Inbound hooks applied before protocol dispatch (e2e decryption,
        #: neutralizer return-path handling).
        self.ingress_hooks: List[Callable[[Packet, "Host"], Optional[Packet]]] = []

    @property
    def address(self) -> IPv4Address:
        """The host's (single) IP address."""
        assert self._primary.address is not None
        return self._primary.address

    @property
    def primary_interface(self) -> Interface:
        """The host's only interface."""
        return self._primary

    # -- stack registration ----------------------------------------------------

    def register_port_handler(self, port: int, handler: PacketHandler) -> None:
        """Register a handler for a UDP destination port."""
        self._port_handlers[port] = handler

    # -- sending ----------------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Send a packet through the egress hooks and onto the wire."""
        packet.created_at = self.sim.now
        packet.record_hop(self.name)
        processed: Optional[Packet] = packet
        for hook in self.egress_hooks:
            processed = hook(processed, self)
            if processed is None:
                self.counters.increment("egress_absorbed")
                return True
        self.counters.increment("packets_sent")
        self.counters.increment("bytes_sent", processed.size_bytes)
        return self._primary.transmit(processed)

    def send_raw(self, packet: Packet) -> bool:
        """Send bypassing the egress hooks (used by the hooks themselves)."""
        packet.created_at = packet.created_at or self.sim.now
        self.counters.increment("packets_sent")
        self.counters.increment("bytes_sent", packet.size_bytes)
        return self._primary.transmit(packet)

    # -- receiving ----------------------------------------------------------------

    def receive(self, packet: Packet, interface: Interface) -> None:
        """Run ingress hooks then dispatch to the UDP port handlers."""
        packet.record_hop(self.name)
        self.counters.increment("packets_received")
        self.counters.increment("bytes_received", packet.size_bytes)
        processed: Optional[Packet] = packet
        for hook in self.ingress_hooks:
            processed = hook(processed, self)
            if processed is None:
                self.counters.increment("ingress_absorbed")
                return
        self._dispatch(processed)

    def _dispatch(self, packet: Packet) -> None:
        if packet.ip.protocol == PROTO_UDP and packet.udp is not None:
            handler = self._port_handlers.get(packet.udp.destination_port)
            if handler is not None:
                handler(packet, self)
                return
        self.unclaimed.append(packet)
        self.counters.increment("packets_unclaimed")
