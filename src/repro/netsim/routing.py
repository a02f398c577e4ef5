"""Route computation: shortest paths over the topology graph, plus anycast.

Routing is computed offline (before or between experiment phases) with
:mod:`networkx` shortest paths and installed as exact-match host routes plus
ISP prefix routes on every router.  Anycast addresses — the neutralizer
service address — are resolved per-router to the *nearest* group member, which
reproduces the paper's claim that "any neutralizer can decrypt the destination
address and forward the packet" as long as the boxes share the master key.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from ..exceptions import RoutingError
from ..packet.addresses import IPv4Address
from .link import Interface, Link
from .node import Node
from .router import Router


class RoutingComputer:
    """Computes and installs forwarding state for a topology."""

    def __init__(self, nodes: Dict[str, Node], links: List[Link]) -> None:
        self._nodes = nodes
        self._links = links
        self._graph = self._build_graph()

    def _build_graph(self) -> nx.Graph:
        graph = nx.Graph()
        for name in self._nodes:
            graph.add_node(name)
        for link in self._links:
            a, b = link.ends
            # Weight by propagation delay with a small constant so zero-delay
            # links still cost one hop; deterministic tie-breaks come from
            # sorted neighbour iteration below.
            weight = link.delay_seconds + 1e-6
            graph.add_edge(
                a.node.name,
                b.node.name,
                weight=weight,
                interfaces={a.node.name: a, b.node.name: b},
            )
        return graph

    @property
    def graph(self) -> nx.Graph:
        """The underlying undirected topology graph (read-only use)."""
        return self._graph

    # -- path helpers --------------------------------------------------------------

    def shortest_path(self, source: str, target: str) -> List[str]:
        """Node names along the shortest path from ``source`` to ``target``."""
        try:
            return nx.shortest_path(self._graph, source, target, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise RoutingError(f"no path from {source} to {target}") from exc

    def path_cost(self, source: str, target: str) -> float:
        """Total weight of the shortest path between two nodes."""
        try:
            return nx.shortest_path_length(self._graph, source, target, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise RoutingError(f"no path from {source} to {target}") from exc

    def _egress_interface(self, from_node: str, to_node: str) -> Interface:
        data = self._graph.get_edge_data(from_node, to_node)
        if data is None:
            raise RoutingError(f"{from_node} and {to_node} are not adjacent")
        return data["interfaces"][from_node]

    def next_hop_interface(self, router_name: str, target_name: str) -> Optional[Interface]:
        """The interface ``router_name`` should use toward ``target_name``."""
        if router_name == target_name:
            return None
        path = self.shortest_path(router_name, target_name)
        return self._egress_interface(path[0], path[1])

    # -- route installation ------------------------------------------------------------

    def _address_owners(self) -> List[Tuple[IPv4Address, str]]:
        owners: List[Tuple[IPv4Address, str]] = []
        for name, node in self._nodes.items():
            for address in node.addresses:
                owners.append((address, name))
        return owners

    def install_routes(
        self,
        anycast_members: Optional[Dict[IPv4Address, List[str]]] = None,
        isp_prefixes: Optional[Dict[str, Tuple]] = None,
    ) -> None:
        """Install host routes everywhere, then anycast and prefix routes.

        ``anycast_members`` maps an anycast address to the names of nodes that
        answer for it.  ``isp_prefixes`` maps an ISP name to a tuple of
        (Prefix, list-of-router-names) used for aggregate routes covering
        dynamically assigned addresses.
        """
        owners = self._address_owners()
        routers = [node for node in self._nodes.values() if isinstance(node, Router)]
        for router in routers:
            router.clear_routes()
            for address, owner_name in owners:
                if owner_name == router.name:
                    continue
                try:
                    interface = self.next_hop_interface(router.name, owner_name)
                except RoutingError:
                    continue
                if interface is not None:
                    router.add_host_route(address, interface)
            if anycast_members:
                for address, members in anycast_members.items():
                    nearest = self.nearest_member(router.name, members)
                    if nearest is None or nearest == router.name:
                        continue
                    interface = self.next_hop_interface(router.name, nearest)
                    if interface is not None:
                        router.add_host_route(address, interface)
            if isp_prefixes:
                for _isp_name, (prefix, gateway_names) in isp_prefixes.items():
                    nearest = self.nearest_member(router.name, gateway_names)
                    if nearest is None or nearest == router.name:
                        continue
                    try:
                        interface = self.next_hop_interface(router.name, nearest)
                    except RoutingError:
                        continue
                    if interface is not None:
                        router.add_prefix_route(prefix, interface)

    def nearest_member(self, from_node: str, members: List[str]) -> Optional[str]:
        """Return the group member nearest to ``from_node`` (deterministic ties)."""
        best_name: Optional[str] = None
        best_cost = float("inf")
        for member in sorted(members):
            if member == from_node:
                return member
            try:
                cost = self.path_cost(from_node, member)
            except RoutingError:
                continue
            if cost < best_cost:
                best_cost = cost
                best_name = member
        return best_name
