"""Discrete-event network simulator: engine, links, nodes, routers, ISPs."""

from .engine import Event, Simulator
from .isp import ISP, IspRegistry, Relationship
from .link import Interface, Link
from .node import Host, Node
from .router import Router
from .routing import RoutingComputer
from .stats import Counters, LatencySampler, LinkStats
from .topology import Topology
from .trace import TraceCollector, TraceRecord

__all__ = [
    "Event",
    "Simulator",
    "ISP",
    "IspRegistry",
    "Relationship",
    "Interface",
    "Link",
    "Host",
    "Node",
    "Router",
    "RoutingComputer",
    "Counters",
    "LatencySampler",
    "LinkStats",
    "Topology",
    "TraceCollector",
    "TraceRecord",
]
