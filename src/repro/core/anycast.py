"""Deploying the neutralizer service into a topology.

The paper places neutralizers "at the boundary of [the neutral ISP's] domain";
"these neutralizers can either be inline boxes or part of a border router's
functionality", and "we use an anycast address to represent the neutralizer
service of an ISP".  :func:`deploy_neutralizer_service` does exactly that for
a simulated topology: it creates a :class:`NeutralizerDomain` with a shared
master key, instantiates one :class:`Neutralizer` per border router of the
named ISP, binds each to the anycast address as a router-local service, joins
them to the anycast group, and rebuilds routing so every other ISP routes the
anycast address to its *nearest* entry point into the neutral domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..crypto.randomness import DEFAULT_SOURCE, RandomSource
from ..exceptions import TopologyError
from ..netsim.topology import Topology
from ..packet.addresses import IPv4Address
from ..qos.intserv import DynamicAddressPool
from .master_key import MasterKeyManager
from .neutralizer import Neutralizer, NeutralizerConfig, NeutralizerDomain


@dataclass
class NeutralizerDeployment:
    """The result of deploying the service for one ISP."""

    isp_name: str
    domain: NeutralizerDomain
    neutralizers: List[Neutralizer] = field(default_factory=list)
    router_names: List[str] = field(default_factory=list)

    @property
    def anycast_address(self) -> IPv4Address:
        """The anycast address the ISP's customers publish in DNS."""
        return self.domain.anycast_address

    def total_counters(self) -> dict:
        """Aggregate protocol counters across the deployed boxes."""
        return self.domain.total_counters()

    def describe(self) -> str:
        """One-line summary used by examples and reports."""
        return (
            f"neutralizer service of {self.isp_name}: anycast {self.anycast_address}, "
            f"{len(self.neutralizers)} boxes on {', '.join(self.router_names)}"
        )


def deploy_neutralizer_service(
    topology: Topology,
    isp_name: str,
    anycast_address: IPv4Address,
    *,
    rng: Optional[RandomSource] = None,
    backend: Optional[str] = None,
    master_key_lifetime_seconds: Optional[float] = None,
    verify_tags: bool = True,
    dynamic_address_count: int = 0,
    rebuild_routes: bool = True,
) -> NeutralizerDeployment:
    """Deploy neutralizers on every border router of ``isp_name``."""
    isp = topology.isps.get(isp_name)
    router_names = isp.border_router_names or isp.router_names
    if not router_names:
        raise TopologyError(f"ISP {isp_name!r} has no routers to host neutralizers")
    random_source = rng or DEFAULT_SOURCE

    master_keys = None
    if master_key_lifetime_seconds is not None:
        master_keys = MasterKeyManager(
            random_source, lifetime_seconds=master_key_lifetime_seconds
        )

    dynamic_pool = None
    if dynamic_address_count > 0:
        dynamic_pool = DynamicAddressPool(
            [isp.allocate_address() for _ in range(dynamic_address_count)]
        )

    config = NeutralizerConfig(
        anycast_address=anycast_address,
        served_prefix=isp.prefix,
        backend=backend,
        verify_tags=verify_tags,
    )
    domain = NeutralizerDomain(
        config,
        master_keys=master_keys,
        rng=random_source,
        dynamic_address_pool=dynamic_pool,
    )
    isp.supports_neutralizer = True

    deployment = NeutralizerDeployment(isp_name=isp_name, domain=domain)
    for router_name in router_names:
        router = topology.router(router_name)
        neutralizer = domain.create_neutralizer(name=f"neutralizer@{router_name}")
        neutralizer.attach_to_router(router)
        topology.join_anycast_group(anycast_address, router_name)
        deployment.neutralizers.append(neutralizer)
        deployment.router_names.append(router_name)

    if rebuild_routes:
        topology.build_routes()
    return deployment
