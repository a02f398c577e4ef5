"""Routers: longest-prefix forwarding, hooks for middleboxes, local services.

Routers forward by longest-prefix match over routes installed by
:mod:`repro.netsim.routing`.  Two extension points make the reproduction's
experiments possible without subclassing:

* **ingress/egress hooks** — callables run on every transiting packet.  The
  discriminatory-ISP policies (:mod:`repro.discrimination`) are ingress hooks
  on that ISP's routers; pushback rate limiters are too.
* **local services** — address-keyed handlers.  A neutralizer is "either an
  inline box or part of a border router's functionality" (§3); we model it as
  a local service bound to the anycast address on the neutral ISP's border
  routers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import HeaderError
from ..packet.addresses import IPv4Address, Prefix
from ..packet.packet import Packet
from .engine import Simulator
from .link import Interface
from .node import Node

#: Hook signature: (packet, router, arriving interface) -> packet or None (drop).
RouterHook = Callable[[Packet, "Router", Optional[Interface]], Optional[Packet]]
#: Local service signature: (packet, router, arriving interface) -> None.
LocalService = Callable[[Packet, "Router", Optional[Interface]], None]


class Router(Node):
    """An IP router with pluggable middlebox hooks."""

    def __init__(self, sim: Simulator, name: str, isp_name: Optional[str] = None) -> None:
        super().__init__(sim, name)
        self.isp_name = isp_name
        #: Host routes: exact destination address -> egress interface.
        self._host_routes: Dict[IPv4Address, Interface] = {}
        #: Prefix routes, longest prefix first at lookup time.
        self._prefix_routes: List[Tuple[Prefix, Interface]] = []
        self.ingress_hooks: List[RouterHook] = []
        self.egress_hooks: List[RouterHook] = []
        self._local_services: Dict[IPv4Address, LocalService] = {}
        #: Packets dropped because no route matched (kept for debugging).
        self.unroutable: List[Packet] = []

    # -- route management --------------------------------------------------------

    def add_host_route(self, destination: IPv4Address, interface: Interface) -> None:
        """Install or replace an exact-match route."""
        self._host_routes[destination] = interface

    def add_prefix_route(self, destination: Prefix, interface: Interface) -> None:
        """Install or replace a prefix route."""
        self._prefix_routes = [
            (p, i) for (p, i) in self._prefix_routes if str(p) != str(destination)
        ]
        self._prefix_routes.append((destination, interface))
        self._prefix_routes.sort(key=lambda entry: entry[0].length, reverse=True)

    def clear_routes(self) -> None:
        """Remove every installed route (used when routing is recomputed)."""
        self._host_routes.clear()
        self._prefix_routes.clear()

    def lookup(self, destination: IPv4Address) -> Optional[Interface]:
        """Longest-prefix-match lookup; host routes win over prefix routes."""
        interface = self._host_routes.get(destination)
        if interface is not None:
            return interface
        for prefix, candidate in self._prefix_routes:
            if prefix.contains(destination):
                return candidate
        return None

    # -- local services -------------------------------------------------------------

    def attach_local_service(self, address: IPv4Address, service: LocalService) -> None:
        """Bind a service (e.g. a neutralizer) to an address terminating here."""
        self._local_services[address] = service

    # -- forwarding -------------------------------------------------------------------

    def receive(self, packet: Packet, interface: Optional[Interface]) -> None:
        """Run ingress hooks, deliver locally, or forward."""
        packet.record_hop(self.name)
        self.counters.increment("packets_received")
        processed: Optional[Packet] = packet
        for hook in self.ingress_hooks:
            processed = hook(processed, self, interface)
            if processed is None:
                self.counters.increment("packets_dropped_by_policy")
                return
        destination = processed.destination
        service = self._local_services.get(destination)
        if service is not None:
            self.counters.increment("packets_to_local_service")
            service(processed, self, interface)
            return
        if self.owns_address(destination):
            self.counters.increment("packets_delivered_locally")
            return
        self.forward(processed, interface)

    def forward(self, packet: Packet, arriving: Optional[Interface] = None) -> bool:
        """Forward ``packet`` toward its destination; returns acceptance."""
        try:
            packet = packet.copy()
            packet.ip = packet.ip.decremented_ttl()
        except HeaderError:
            self.counters.increment("packets_ttl_expired")
            return False
        if packet.ip.ttl == 0:
            self.counters.increment("packets_ttl_expired")
            return False
        egress = self.lookup(packet.destination)
        if egress is None:
            self.unroutable.append(packet)
            self.counters.increment("packets_unroutable")
            return False
        processed: Optional[Packet] = packet
        for hook in self.egress_hooks:
            processed = hook(processed, self, arriving)
            if processed is None:
                self.counters.increment("packets_dropped_by_policy")
                return False
        self.counters.increment("packets_forwarded")
        return egress.transmit(processed)

    def inject(self, packet: Packet) -> bool:
        """Originate a packet from this router (used by attached services)."""
        packet.created_at = packet.created_at or self.sim.now
        packet.record_hop(self.name)
        egress = self.lookup(packet.destination)
        if egress is None:
            self.unroutable.append(packet)
            self.counters.increment("packets_unroutable")
            return False
        self.counters.increment("packets_injected")
        return egress.transmit(packet)
