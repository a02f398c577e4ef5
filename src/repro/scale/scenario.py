"""From (population, fleet, access network) to a solved fluid operating point.

The scenario builds the :class:`repro.scale.solver.CapacityProblem` for one
busy instant:

* one flow per non-empty (region, class, site) client group, whose rate
  variable is *one client's bandwidth* (the group's size enters the usage
  coefficients instead), so max-min fairness is fairness between clients,
  not between aggregates of different sizes — a 1000-client group and a
  10-client group crossing the same bottleneck leave every client with the
  same allocation;
* one resource per access region (the regional uplink, bits/s), per site
  uplink (bits/s), and per site CPU (core-seconds/s, data path priced by the
  :class:`repro.scale.costmodel.CryptoCostModel`);
* the steady key-setup load (sessions per client-hour, one RSA encryption
  each) is inelastic and small, so it is charged against site CPU capacity
  up front rather than entering the max-min fill.

Solving yields :class:`FluidResult`: per-class goodput, per-site CPU and
uplink utilization, and bottleneck attribution — the quantities the campaign
runner sweeps and tabulates.

Time-stepped callers solve the *same* structure many times with perturbed
demands and capacities, so problem construction is split in two: the
O(n_clients) part (one histogram of the clients per arc of the fleet's ring
point universe) lives in a :class:`ProblemTemplate` that stays valid until
the fleet's hash ring changes — and is then succeeded in O(ring points ×
bins) by moving histogram rows between sites, never re-reading the
population — and the per-epoch part (:meth:`ProblemTemplate.instantiate`) only
scales small per-flow/per-site vectors — a few hundred elements regardless
of population size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import WorkloadError
from ..units import gbps
from .fleet import NeutralizerFleet
from .population import ClientPopulation
from .solver import Allocation, CapacityProblem, solve_allocation


@dataclass
class FluidResult:
    """The solved busy-instant operating point of one scenario."""

    n_clients: int
    demand_pps: Dict[str, float]
    goodput_pps: Dict[str, float]
    demand_bps: Dict[str, float]
    goodput_bps: Dict[str, float]
    #: Fraction of each class's demand that was served (min over groups).
    worst_group_satisfaction: Dict[str, float]
    cpu_utilization: np.ndarray
    uplink_utilization: np.ndarray
    region_utilization: np.ndarray
    key_setup_pps: float
    clients_per_site: np.ndarray
    solver_iterations: int

    @property
    def total_goodput_bps(self) -> float:
        """Delivered bits/s across every class."""
        return sum(self.goodput_bps.values())

    @property
    def total_demand_bps(self) -> float:
        """Offered bits/s across every class."""
        return sum(self.demand_bps.values())

    @property
    def delivered_fraction(self) -> float:
        """Overall goodput/demand ratio."""
        if self.total_demand_bps <= 0:
            return 1.0
        return self.total_goodput_bps / self.total_demand_bps


@dataclass
class EpochProblem:
    """One instantiated solver problem plus the scaled side-quantities."""

    problem: CapacityProblem
    #: Key-setup requests per second charged against each site's CPU.
    setups_per_site: np.ndarray


def _credit_arcs(ufunc: np.ufunc, counts3d: np.ndarray, owners: np.ndarray,
                 rows: np.ndarray) -> None:
    """``ufunc`` (add/subtract) one histogram row per arc into its owning
    site's column of the (region, class, site) counts, in place."""
    bin_offsets = np.arange(rows.shape[1]) * counts3d.shape[2]
    ufunc.at(counts3d.reshape(-1), (owners[:, None] + bin_offsets).ravel(),
             rows.ravel())


@dataclass
class ProblemTemplate:
    """The population×fleet flow structure, frozen for one hash-ring state.

    Everything that costs O(n_clients) — client-to-site assignment, group
    counting, the usage matrix — is computed once here.
    :meth:`instantiate` then produces a :class:`CapacityProblem` for any
    per-flow demand scaling (load curves, discrimination throttles) and
    per-site capacity scaling (degradation, failure) by touching only
    per-flow and per-site vectors.  The template is valid until the fleet's
    ring changes (``fleet.generation`` moves), after which
    :meth:`rebuilt` derives a successor template in O(ring points × bins):
    the one per-client pass (:meth:`ClientPopulation.arc_histogram`) counts
    the population per arc of the fleet's fixed point universe
    (:meth:`NeutralizerFleet.universe_arcs`), every ring state is an owner
    per arc, and the group counts of a new ring move only the histogram
    rows of the arcs that changed owner.
    """

    population: ClientPopulation
    fleet: NeutralizerFleet
    fleet_generation: int
    region_uplink_bps: float
    #: The arc table, shared by reference down the :meth:`rebuilt` chain and
    #: with the population's memo (read-only): ``arc_hist[i]`` counts the
    #: clients in universe arc ``i`` per fused region×class bin.
    arc_hist: np.ndarray
    #: Site index owning each universe arc under this ring state.
    arc_owners: np.ndarray
    #: Exact client counts per (region, class, site) under this ring state.
    counts3d: np.ndarray
    #: Clients per site (``counts3d`` summed over regions and classes).
    clients_per_site: np.ndarray
    #: Clients whose site changed relative to the parent template (0 for a
    #: from-scratch build); :meth:`churn_since` counts against any ring.
    remapped_from_parent: int
    #: Per-flow (region, class, site) structure.
    region_of: np.ndarray
    class_of: np.ndarray
    site_of: np.ndarray
    group_clients: np.ndarray
    #: Per-flow base demand (bps of one client) and wire bits per packet.
    base_demands: np.ndarray
    bits_per_packet: np.ndarray
    #: Per-flow key-setup rate (requests/s of the whole group).
    base_setups_per_flow: np.ndarray
    usage: np.ndarray
    regions: int
    sites: int
    #: Per-flow elasticity (from the demand classes); ``None`` when the mix
    #: is purely inelastic, so the solver takes the classic max-min path.
    elastic_flows: Optional[np.ndarray] = None
    #: Per-flow alpha-fairness parameters (meaningful where elastic).
    flow_alpha: Optional[np.ndarray] = None
    #: Per-class flow index arrays (precomputed: interpret() runs per epoch).
    class_members: List[np.ndarray] = field(default_factory=list)

    @property
    def payload_nbytes(self) -> int:
        """Bytes held by the template's own arrays (population excluded).

        Every ring change a replica plays allocates one successor of this
        size (the arc table excepted: successors share it by reference), per
        pool worker — the number to check when sizing ``n_workers`` against
        available memory (see docs/parallel.md).
        """
        arrays = (
            self.arc_hist, self.arc_owners, self.counts3d, self.clients_per_site,
            self.region_of, self.class_of, self.site_of, self.group_clients,
            self.base_demands, self.bits_per_packet,
            self.base_setups_per_flow, self.usage,
            self.elastic_flows, self.flow_alpha, *self.class_members,
        )
        return int(sum(a.nbytes for a in arrays if a is not None))

    @classmethod
    def build(cls, population: ClientPopulation, fleet: NeutralizerFleet,
              *, region_uplink_bps: float) -> "ProblemTemplate":
        """From the one O(n_clients) pass — or its memo — to group counts.

        :meth:`ClientPopulation.arc_histogram` counts the clients per
        universe arc, and each arc's row is credited to the site owning it.
        """
        universe, _, arc_owners = fleet.universe_arcs()
        arc_hist = population.arc_histogram(universe)
        counts3d = np.zeros(
            (population.regions, population.n_classes, fleet.n_sites), dtype=np.int64
        )
        _credit_arcs(np.add, counts3d, arc_owners, arc_hist)
        return cls._assemble(
            population, fleet, region_uplink_bps=region_uplink_bps,
            arc_hist=arc_hist, arc_owners=arc_owners, counts3d=counts3d,
            remapped_from_parent=0,
        )

    def rebuilt(self) -> "ProblemTemplate":
        """A successor template for the fleet's *current* ring, incrementally.

        Diffs the owner of every universe arc against this template's; the
        arcs that changed hands move their histogram rows from the old
        site's counts to the new one's.  That is O(ring points × bins)
        whatever the population size — nothing here reads a per-client
        array — and an unchanged arc costs nothing, so a single site
        failing out of a large fleet reassigns only that site's clients:
        consistent hashing's contract, now also the rebuild cost.
        """
        arc_owners = self.fleet.universe_arcs()[2]
        moved = np.flatnonzero(arc_owners != self.arc_owners)
        rows = self.arc_hist[moved]
        counts3d = self.counts3d.copy()
        _credit_arcs(np.subtract, counts3d, self.arc_owners[moved], rows)
        _credit_arcs(np.add, counts3d, arc_owners[moved], rows)
        return type(self)._assemble(
            self.population, self.fleet, region_uplink_bps=self.region_uplink_bps,
            arc_hist=self.arc_hist, arc_owners=arc_owners, counts3d=counts3d,
            remapped_from_parent=int(rows.sum()),
        )

    def churn_since(self, arc_owners: np.ndarray) -> Tuple[int, float]:
        """What moved from an earlier ring state's ``arc_owners`` to this one.

        Returns the clients in the arcs that changed owner (a successor's
        :attr:`remapped_from_parent`, against its parent's owners) and the
        exact key-space fraction of those arcs (what
        :meth:`NeutralizerFleet.ring_moved_fraction` reads off the two
        rings' points).
        """
        moved = np.flatnonzero(self.arc_owners != arc_owners)
        return (int(self.arc_hist[moved].sum()),
                self.fleet.universe_arc_fraction(moved))

    @classmethod
    def _assemble(cls, population: ClientPopulation, fleet: NeutralizerFleet,
                  *, region_uplink_bps: float, arc_hist: np.ndarray,
                  arc_owners: np.ndarray, counts3d: np.ndarray,
                  remapped_from_parent: int) -> "ProblemTemplate":
        """Lay out flows, usage matrix, and labels from the group counts."""
        counts = counts3d.astype(np.float64)
        pps_per_client = population.demand_pps_per_client()
        bits_per_packet = population.packet_bits()
        cost = fleet.cost_model

        regions, classes, sites = counts.shape
        region_of, class_of, site_of = np.unravel_index(
            np.flatnonzero(counts), counts.shape
        )
        group_clients = counts[region_of, class_of, site_of]

        # Flow rate variable = bps of ONE client of the group; the group's
        # size multiplies the usage coefficients, so the max-min water level
        # is a per-client bandwidth shared by every client behind a resource.
        demand_bps_per_client = pps_per_client[class_of] * bits_per_packet[class_of]
        # CPU seconds consumed per bit of one client's traffic.
        cpu_per_bit = cost.data_packet_cost_seconds / bits_per_packet[class_of]

        n_flows = group_clients.size
        n_resources = regions + 2 * sites
        usage = np.zeros((n_resources, n_flows))
        usage[region_of, np.arange(n_flows)] = group_clients
        usage[regions + site_of, np.arange(n_flows)] = group_clients
        usage[regions + sites + site_of, np.arange(n_flows)] = group_clients * cpu_per_bit

        class_elastic = population.class_elastic()
        elastic_flows = class_elastic[class_of] if class_elastic.any() else None
        flow_alpha = (population.class_alpha()[class_of]
                      if elastic_flows is not None else None)

        setup_rate_per_client = population.key_setup_rate_per_client()
        return cls(
            population=population,
            fleet=fleet,
            fleet_generation=fleet.generation,
            region_uplink_bps=region_uplink_bps,
            arc_hist=arc_hist,
            arc_owners=arc_owners,
            counts3d=counts3d,
            clients_per_site=counts3d.sum(axis=(0, 1)).astype(np.int64),
            remapped_from_parent=remapped_from_parent,
            region_of=region_of,
            class_of=class_of,
            site_of=site_of,
            group_clients=group_clients,
            base_demands=demand_bps_per_client,
            bits_per_packet=bits_per_packet[class_of],
            base_setups_per_flow=group_clients * setup_rate_per_client[class_of],
            usage=usage,
            regions=regions,
            sites=sites,
            elastic_flows=elastic_flows,
            flow_alpha=flow_alpha,
            class_members=[np.flatnonzero(class_of == index)
                           for index in range(classes)],
        )

    @property
    def stale(self) -> bool:
        """Whether the fleet's ring changed since this template was built."""
        return self.fleet.generation != self.fleet_generation

    def instantiate(
        self,
        demand_scale: Optional[np.ndarray] = None,
        site_capacity_scale: Optional[np.ndarray] = None,
        extra_setups_per_flow: Optional[np.ndarray] = None,
    ) -> EpochProblem:
        """A solver problem with scaled demands/capacities, O(flows + sites).

        ``demand_scale`` multiplies each flow's per-client demand (and its
        key-setup load — session churn tracks activity); ``site_capacity_scale``
        multiplies each site's CPU and uplink budgets.  ``None`` means 1.0.
        ``extra_setups_per_flow`` adds one-off key-setup requests/s on top of
        the steady per-class rate (e.g. neutralizer adopters re-keying
        through the ring), charged against the owning site's CPU.
        """
        cost = self.fleet.cost_model
        if demand_scale is None:
            demands = self.base_demands
            setups_per_flow = self.base_setups_per_flow
        else:
            if np.any(demand_scale < 0):
                raise WorkloadError("demand scale must be non-negative")
            demands = self.base_demands * demand_scale
            setups_per_flow = self.base_setups_per_flow * demand_scale
        if extra_setups_per_flow is not None:
            if np.any(extra_setups_per_flow < 0):
                raise WorkloadError("extra key-setup load must be non-negative")
            setups_per_flow = setups_per_flow + extra_setups_per_flow
        setups_per_site = np.bincount(
            self.site_of, weights=setups_per_flow, minlength=self.sites
        )

        site_uplink = self.fleet.uplink_capacity_bps()
        site_cores = self.fleet.cpu_capacity_cores()
        if site_capacity_scale is not None:
            if np.any(site_capacity_scale < 0):
                raise WorkloadError("site capacity scale must be non-negative")
            site_uplink = site_uplink * site_capacity_scale
            site_cores = site_cores * site_capacity_scale
        # Key setups: inelastic control load charged against site CPU up front.
        cpu_capacity = np.maximum(
            site_cores - setups_per_site * cost.key_setup_cost_seconds, 0.0
        )
        capacities = np.concatenate([
            np.full(self.regions, self.region_uplink_bps),
            site_uplink,
            cpu_capacity,
        ])
        # Elastic classes ride through as the per-flow mask/alpha, with the
        # group sizes as utility weights so alpha fairness stays per client.
        problem = CapacityProblem(
            demands=demands,
            usage=self.usage,
            capacities=capacities,
            elastic=self.elastic_flows,
            weights=self.group_clients if self.elastic_flows is not None else None,
            alpha=self.flow_alpha if self.flow_alpha is not None else 2.0,
        )
        return EpochProblem(problem=problem, setups_per_site=setups_per_site)

    def interpret(self, epoch: EpochProblem, allocation: Allocation) -> FluidResult:
        """Turn a solved allocation into the per-class/per-site result object."""
        problem = epoch.problem
        names = self.population.mix.names
        demand_pps: Dict[str, float] = {}
        goodput_pps: Dict[str, float] = {}
        demand_bps: Dict[str, float] = {}
        goodput_bps: Dict[str, float] = {}
        worst: Dict[str, float] = {}
        satisfaction = allocation.satisfaction(problem)
        group_clients = self.group_clients
        flow_demand_bps = problem.demands * group_clients
        flow_goodput_bps = allocation.rates * group_clients
        flow_packets = group_clients / self.bits_per_packet
        for index, name in enumerate(names):
            members = self.class_members[index]
            demand_bps[name] = float(flow_demand_bps[members].sum())
            goodput_bps[name] = float(flow_goodput_bps[members].sum())
            demand_pps[name] = float((problem.demands[members] * flow_packets[members]).sum())
            goodput_pps[name] = float((allocation.rates[members] * flow_packets[members]).sum())
            worst[name] = float(satisfaction[members].min()) if members.size else 1.0

        utilization = allocation.utilization(problem)
        regions, sites = self.regions, self.sites
        clients_per_site = self.clients_per_site
        return FluidResult(
            n_clients=self.population.n_clients,
            demand_pps=demand_pps,
            goodput_pps=goodput_pps,
            demand_bps=demand_bps,
            goodput_bps=goodput_bps,
            worst_group_satisfaction=worst,
            cpu_utilization=utilization[regions + sites:],
            uplink_utilization=utilization[regions:regions + sites],
            region_utilization=utilization[:regions],
            key_setup_pps=float(epoch.setups_per_site.sum()),
            clients_per_site=clients_per_site,
            solver_iterations=allocation.iterations,
        )


class ScaleScenario:
    """A population facing a fleet through a regional access network."""

    def __init__(
        self,
        population: ClientPopulation,
        fleet: NeutralizerFleet,
        *,
        region_uplink_bps: Optional[float] = None,
    ) -> None:
        self.population = population
        self.fleet = fleet
        #: Default regional uplink: generous enough that the fleet, not the
        #: access network, is the interesting constraint unless overridden.
        self.region_uplink_bps = region_uplink_bps if region_uplink_bps is not None else gbps(40)
        if self.region_uplink_bps <= 0:
            raise WorkloadError("region uplink must be positive")
        self._template: Optional[ProblemTemplate] = None

    # -- problem construction --------------------------------------------------------

    def build_template(self) -> ProblemTemplate:
        """The cached flow/resource structure, rebuilt when the ring changes.

        The first build pays one O(n_clients) counting pass; every later ring
        change is absorbed by :meth:`ProblemTemplate.rebuilt`, which moves
        only the histogram rows of the arcs that changed owner.
        """
        if self._template is None:
            self._template = ProblemTemplate.build(
                self.population, self.fleet, region_uplink_bps=self.region_uplink_bps
            )
        elif self._template.stale:
            self._template = self._template.rebuilt()
        return self._template

    def build_problem(self) -> CapacityProblem:
        """Assemble the flow/resource structure for the current fleet health."""
        return self.build_template().instantiate().problem

    # -- solving ---------------------------------------------------------------------

    def solve(self, *, telemetry=None) -> FluidResult:
        """Build and solve the problem, interpreting rates as class goodputs.

        Dispatches through :func:`repro.scale.solver.solve_allocation`, so a
        mix with elastic classes gets the composed max-min + alpha-fair
        solve and a purely inelastic mix takes the classic fill unchanged.
        ``telemetry`` is handed to the solver for its fast-path counters.
        """
        template = self.build_template()
        epoch = template.instantiate()
        allocation = solve_allocation(epoch.problem, telemetry=telemetry)
        return template.interpret(epoch, allocation)
