"""Ready-made topologies, including the paper's Figure-1 scenario.

Figure 1 shows three ISPs: AT&T (a discriminatory access ISP with end users
such as Ann and Ben), Verizon (a second access ISP), and Cogent (a neutral
ISP whose customers include Google, Yahoo!, MySpace and YouTube) with
neutralizer boxes at Cogent's borders.  :func:`build_figure1` reconstructs
that topology in the simulator, optionally deploys the neutralizer service,
attaches client/server host stacks, and installs a trace collector at AT&T so
experiments can assert exactly what the discriminatory ISP can and cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.api import NetNeutralityDeployment, neutralize_isp
from ..crypto.randomness import DeterministicRandom, RandomSource
from ..netsim.isp import Relationship
from ..netsim.topology import Topology
from ..netsim.trace import TraceCollector
from ..packet.addresses import ip
from ..units import mbps, msec

#: The anycast address Cogent's neutralizer service uses in every example.
COGENT_ANYCAST = ip("10.200.0.1")
#: A second anycast address used by multihoming scenarios (Verizon's service).
VERIZON_ANYCAST = ip("10.200.0.2")

#: Cogent-hosted sites of Figure 1 (plus a Vonage-like VoIP competitor that
#: the §1 narrative centres on).
COGENT_SITES = ("google", "yahoo", "myspace", "youtube", "vonage")


@dataclass
class Figure1Scenario:
    """Everything an experiment needs from the Figure-1 build."""

    topology: Topology
    rng: RandomSource
    #: None when the scenario was built without the neutralizer service.
    deployment: Optional[NetNeutralityDeployment]
    #: Trace of every packet AT&T's routers saw (the eavesdropper's view).
    att_trace: TraceCollector
    neutralized: bool
    host_names: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def sim(self):
        """The shared simulator."""
        return self.topology.sim

    def host(self, name: str):
        """Shorthand for :meth:`Topology.host`."""
        return self.topology.host(name)


def build_base_topology(rng: Optional[RandomSource] = None) -> Topology:
    """Build the three-ISP topology of Figure 1 without any neutralizer."""
    topology = Topology()
    topology.add_isp("att", 7018, "10.1.0.0/16", discriminatory=True)
    topology.add_isp("verizon", 701, "10.2.0.0/16")
    topology.add_isp("cogent", 174, "10.3.0.0/16")

    # AT&T: one core router with end users, one border toward Cogent.
    topology.add_router("att-core", "att")
    topology.add_router("att-br", "att", border=True)
    # AT&T also sells its own VoIP service hosted inside its network (§1).
    for host in ("ann", "ben", "att-voip"):
        topology.add_host(host, "att")

    # Verizon: a second access ISP with one user.
    topology.add_router("verizon-core", "verizon")
    topology.add_router("verizon-br", "verizon", border=True)
    topology.add_host("carol", "verizon")

    # Cogent: two borders (east faces AT&T, west faces Verizon) and a core.
    topology.add_router("cogent-core", "cogent")
    topology.add_router("cogent-br-east", "cogent", border=True)
    topology.add_router("cogent-br-west", "cogent", border=True)
    for site in COGENT_SITES:
        topology.add_host(site, "cogent")

    # Access links.
    for host in ("ann", "ben", "att-voip"):
        topology.add_link(host, "att-core", rate_bps=mbps(20), delay_seconds=msec(2))
    topology.add_link("carol", "verizon-core", rate_bps=mbps(20), delay_seconds=msec(2))
    for site in COGENT_SITES:
        topology.add_link(site, "cogent-core", rate_bps=mbps(100), delay_seconds=msec(1))

    # Intra-ISP backbones.
    topology.add_link("att-core", "att-br", rate_bps=mbps(1000), delay_seconds=msec(3))
    topology.add_link("verizon-core", "verizon-br", rate_bps=mbps(1000), delay_seconds=msec(3))
    topology.add_link("cogent-core", "cogent-br-east", rate_bps=mbps(1000), delay_seconds=msec(3))
    topology.add_link("cogent-core", "cogent-br-west", rate_bps=mbps(1000), delay_seconds=msec(3))

    # Inter-ISP peering links.
    topology.add_link("att-br", "cogent-br-east", rate_bps=mbps(500), delay_seconds=msec(8))
    topology.add_link("verizon-br", "cogent-br-west", rate_bps=mbps(500), delay_seconds=msec(8))
    topology.add_link("att-br", "verizon-br", rate_bps=mbps(500), delay_seconds=msec(5))

    topology.set_relationship("att", "cogent", Relationship.PEER)
    topology.set_relationship("verizon", "cogent", Relationship.PEER)
    topology.set_relationship("att", "verizon", Relationship.PEER)

    topology.build_routes()
    return topology


def build_figure1(
    *,
    neutralized: bool = True,
    use_e2e: bool = True,
    seed: int = 2006,
    backend: Optional[str] = None,
    client_hosts: tuple = ("ann", "ben", "carol"),
    server_hosts: tuple = COGENT_SITES,
) -> Figure1Scenario:
    """Build the Figure-1 scenario, optionally with the neutralizer deployed."""
    rng = DeterministicRandom(seed)
    topology = build_base_topology(rng)

    att_trace = TraceCollector("att-view")
    for router_name in ("att-core", "att-br"):
        topology.router(router_name).ingress_hooks.append(att_trace.router_hook())

    deployment = None
    if neutralized:
        deployment = neutralize_isp(
            topology, "cogent", COGENT_ANYCAST, rng=rng, backend=backend, use_e2e=use_e2e
        )
        for site in server_hosts:
            deployment.attach_server(topology.host(site), dns_name=f"www.{site}.com")
        for client_name in client_hosts:
            deployment.attach_client(topology.host(client_name), publish_key=True)
            for site in server_hosts:
                deployment.bootstrap_client(client_name, site)

    return Figure1Scenario(
        topology=topology,
        rng=rng,
        deployment=deployment,
        att_trace=att_trace,
        neutralized=neutralized,
        host_names={
            "att": ["ann", "ben", "att-voip"],
            "verizon": ["carol"],
            "cogent": list(server_hosts),
        },
    )


@dataclass
class ScaleValidationScenario:
    """The small shared scenario both simulators run (see :mod:`repro.scale.validate`)."""

    topology: Topology
    deployment: NetNeutralityDeployment
    client_names: List[str]
    server_name: str
    bottleneck_rate_bps: float

    @property
    def server(self):
        """The single receiving host behind the neutralizer."""
        return self.topology.host(self.server_name)

    def bottleneck_stats(self):
        """Link stats of the bottleneck in the client→server direction."""
        link = self.topology.link_between("left-gw", "right-gw")
        end = next(e for e in link.ends if e.node.name == "left-gw")
        return link.stats_from(end)


def build_scale_validation_scenario(
    *,
    clients: int = 4,
    bottleneck_rate_bps: float = mbps(0.5),
    seed: int = 2006,
) -> ScaleValidationScenario:
    """A dumbbell with the neutralizer deployed, shared with the fluid model.

    ``repro.scale.validate`` runs this topology packet by packet and rebuilds
    the same structure as a :class:`repro.scale.solver.CapacityProblem`; the
    two goodputs must agree within 10 %.
    """
    topology = build_dumbbell(
        clients=clients, servers=1, bottleneck_rate_bps=bottleneck_rate_bps, seed=seed
    )
    rng = DeterministicRandom(seed)
    deployment = neutralize_isp(topology, "right", ip("10.200.0.9"), rng=rng)
    deployment.attach_server(topology.host("server0"))
    client_names = [f"client{index}" for index in range(clients)]
    for name in client_names:
        deployment.attach_client(topology.host(name))
        deployment.bootstrap_client(name, "server0")
    return ScaleValidationScenario(
        topology=topology,
        deployment=deployment,
        client_names=client_names,
        server_name="server0",
        bottleneck_rate_bps=bottleneck_rate_bps,
    )


def build_dumbbell(
    *,
    clients: int = 2,
    servers: int = 2,
    bottleneck_rate_bps: float = mbps(10),
    bottleneck_delay: float = msec(10),
    seed: int = 7,
) -> Topology:
    """A small dumbbell topology used by QoS and scheduler experiments."""
    rng = DeterministicRandom(seed)
    topology = Topology()
    topology.add_isp("left", 100, "10.10.0.0/16", discriminatory=True)
    topology.add_isp("right", 200, "10.20.0.0/16")
    topology.add_router("left-gw", "left", border=True)
    topology.add_router("right-gw", "right", border=True)
    for index in range(clients):
        name = f"client{index}"
        topology.add_host(name, "left")
        topology.add_link(name, "left-gw", rate_bps=mbps(100), delay_seconds=msec(1))
    for index in range(servers):
        name = f"server{index}"
        topology.add_host(name, "right")
        topology.add_link(name, "right-gw", rate_bps=mbps(100), delay_seconds=msec(1))
    topology.add_link(
        "left-gw", "right-gw", rate_bps=bottleneck_rate_bps, delay_seconds=bottleneck_delay
    )
    topology.build_routes()
    return topology
