"""Topology builder: ISPs, routers, hosts, links, anycast groups, routing.

A :class:`Topology` is the container that experiments build once and then run
traffic over.  It owns the simulator, the node and link registries, the ISP
registry and the anycast groups, and knows how to (re)compute routing.  The
paper's Figure-1 scenario is assembled from these primitives by
:mod:`repro.analysis.scenarios`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..exceptions import TopologyError
from ..packet.addresses import (
    AnycastAddress,
    AnycastGroup,
    IPv4Address,
    Prefix,
)
from ..qos.schedulers import Scheduler
from ..units import mbps, msec
from .engine import Simulator
from .isp import ISP, IspRegistry, Relationship
from .link import Interface, Link
from .node import Host, Node
from .router import Router
from .routing import RoutingComputer

NodeOrName = Union[Node, str]


class Topology:
    """A simulated internetwork under construction or in use."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim or Simulator()
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        self.isps = IspRegistry()
        self.anycast_groups: Dict[IPv4Address, AnycastGroup] = {}
        self._routing: Optional[RoutingComputer] = None

    # -- node management -----------------------------------------------------------

    def _register(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        return node

    def add_isp(
        self,
        name: str,
        asn: int,
        prefix: Union[Prefix, str],
        *,
        supports_neutralizer: bool = False,
        discriminatory: bool = False,
    ) -> ISP:
        """Register an ISP (autonomous system) and its address block."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        isp = ISP(
            name=name,
            asn=asn,
            prefix=prefix,
            supports_neutralizer=supports_neutralizer,
            discriminatory=discriminatory,
        )
        return self.isps.add(isp)

    def add_router(
        self,
        name: str,
        isp: Optional[Union[ISP, str]] = None,
        *,
        border: bool = False,
        address: Optional[IPv4Address] = None,
    ) -> Router:
        """Create a router, optionally assigning it to an ISP and an address."""
        isp_obj = self._resolve_isp(isp)
        router = Router(self.sim, name, isp_name=isp_obj.name if isp_obj else None)
        if isp_obj is not None:
            isp_obj.add_router(name, border=border)
            if address is None:
                address = isp_obj.allocate_address()
        if address is not None:
            router.add_interface("lo0", address)
        return self._register(router)  # type: ignore[return-value]

    def add_host(
        self,
        name: str,
        isp: Optional[Union[ISP, str]] = None,
        *,
        address: Optional[IPv4Address] = None,
    ) -> Host:
        """Create a host inside an ISP (address allocated from its prefix)."""
        isp_obj = self._resolve_isp(isp)
        if address is None:
            if isp_obj is None:
                raise TopologyError(f"host {name!r} needs either an ISP or an explicit address")
            address = isp_obj.allocate_address()
        host = Host(self.sim, name, address)
        if isp_obj is not None:
            isp_obj.add_host(name)
        return self._register(host)  # type: ignore[return-value]

    def _resolve_isp(self, isp: Optional[Union[ISP, str]]) -> Optional[ISP]:
        if isp is None:
            return None
        if isinstance(isp, ISP):
            return isp
        return self.isps.get(isp)

    def node(self, name: str) -> Node:
        """Return any node by name."""
        try:
            return self.nodes[name]
        except KeyError as exc:
            raise TopologyError(f"unknown node {name!r}") from exc

    def host(self, name: str) -> Host:
        """Return a host by name (type-checked)."""
        node = self.node(name)
        if not isinstance(node, Host):
            raise TopologyError(f"node {name!r} is not a host")
        return node

    def router(self, name: str) -> Router:
        """Return a router by name (type-checked)."""
        node = self.node(name)
        if not isinstance(node, Router):
            raise TopologyError(f"node {name!r} is not a router")
        return node

    @property
    def hosts(self) -> List[Host]:
        """All hosts in the topology."""
        return [node for node in self.nodes.values() if isinstance(node, Host)]

    @property
    def routers(self) -> List[Router]:
        """All routers in the topology."""
        return [node for node in self.nodes.values() if isinstance(node, Router)]

    # -- links ------------------------------------------------------------------------

    def add_link(
        self,
        end_a: NodeOrName,
        end_b: NodeOrName,
        *,
        rate_bps: float = mbps(100),
        delay_seconds: float = msec(5),
        scheduler_a_to_b: Optional[Scheduler] = None,
        scheduler_b_to_a: Optional[Scheduler] = None,
        name: Optional[str] = None,
    ) -> Link:
        """Connect two nodes with a point-to-point link.

        Hosts use their existing primary interface; routers get a fresh
        unnumbered interface per link (addresses live on loopbacks).
        """
        node_a = end_a if isinstance(end_a, Node) else self.node(end_a)
        node_b = end_b if isinstance(end_b, Node) else self.node(end_b)
        iface_a = self._link_interface(node_a)
        iface_b = self._link_interface(node_b)
        link = Link(
            self.sim,
            iface_a,
            iface_b,
            rate_bps=rate_bps,
            delay_seconds=delay_seconds,
            scheduler_a_to_b=scheduler_a_to_b,
            scheduler_b_to_a=scheduler_b_to_a,
            name=name,
        )
        self.links.append(link)
        self._routing = None  # topology changed, routing is stale
        return link

    @staticmethod
    def _link_interface(node: Node) -> Interface:
        if isinstance(node, Host):
            if node.primary_interface.is_connected:
                raise TopologyError(f"host {node.name} is single-homed and already connected")
            return node.primary_interface
        return node.add_interface()

    def link_between(self, name_a: str, name_b: str) -> Link:
        """Return the link connecting two named nodes."""
        for link in self.links:
            names = {link.ends[0].node.name, link.ends[1].node.name}
            if names == {name_a, name_b}:
                return link
        raise TopologyError(f"no link between {name_a!r} and {name_b!r}")

    # -- anycast ---------------------------------------------------------------------

    def create_anycast_group(
        self, address: Union[IPv4Address, str], service: str = "neutralizer"
    ) -> AnycastGroup:
        """Create (or return) the anycast group for ``address``."""
        if isinstance(address, str):
            address = IPv4Address.parse(address)
        if address in self.anycast_groups:
            return self.anycast_groups[address]
        group = AnycastGroup(AnycastAddress(address, service))
        self.anycast_groups[address] = group
        return group

    def join_anycast_group(self, address: Union[IPv4Address, str], node_name: str) -> None:
        """Add a node to an anycast group (creating the group if needed)."""
        if node_name not in self.nodes:
            raise TopologyError(f"unknown node {node_name!r}")
        group = self.create_anycast_group(address if not isinstance(address, str) else address)
        group.add_member(node_name)
        self._routing = None

    # -- business relationships ---------------------------------------------------------

    def set_relationship(self, isp_a: str, isp_b: str, relationship: Relationship) -> None:
        """Declare ``isp_b`` as customer/provider/peer of ``isp_a`` (and the inverse)."""
        a = self.isps.get(isp_a)
        b = self.isps.get(isp_b)
        a.set_relationship(isp_b, relationship)
        inverse = {
            Relationship.CUSTOMER: Relationship.PROVIDER,
            Relationship.PROVIDER: Relationship.CUSTOMER,
            Relationship.PEER: Relationship.PEER,
        }[relationship]
        b.set_relationship(isp_a, inverse)

    # -- routing ---------------------------------------------------------------------------

    def build_routes(self) -> RoutingComputer:
        """(Re)compute and install forwarding state on every router."""
        computer = RoutingComputer(self.nodes, self.links)
        anycast_members = {
            address: group.members for address, group in self.anycast_groups.items()
        }
        isp_prefixes = {}
        for isp in self.isps:
            gateways = isp.border_router_names or isp.router_names
            if gateways:
                isp_prefixes[isp.name] = (isp.prefix, gateways)
        computer.install_routes(anycast_members=anycast_members, isp_prefixes=isp_prefixes)
        self._routing = computer
        return computer

    @property
    def routing(self) -> RoutingComputer:
        """The current routing computation (built on demand)."""
        if self._routing is None:
            return self.build_routes()
        return self._routing

    # -- convenience -----------------------------------------------------------------------

    def run(self, duration: float) -> int:
        """Advance the simulation by ``duration`` seconds."""
        return self.sim.run_for(duration)

    def describe(self) -> str:
        """Multi-line human-readable summary (used by examples)."""
        lines = [f"Topology: {len(self.nodes)} nodes, {len(self.links)} links"]
        for isp in self.isps:
            lines.append(f"  {isp.describe()}")
            lines.append(f"    routers: {', '.join(isp.router_names) or '-'}")
            lines.append(f"    hosts:   {', '.join(isp.host_names) or '-'}")
        for address, group in self.anycast_groups.items():
            lines.append(f"  anycast {address}: {', '.join(group.members) or '-'}")
        return "\n".join(lines)
