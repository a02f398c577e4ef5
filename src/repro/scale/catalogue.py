"""A catalogue of named fleet-scale timeline scenarios.

Each entry is the :class:`~repro.scale.config.ScenarioConfig` document it
was loaded from (``src/repro/scale/catalogue_data/``), whose ``build``
makes a ready-to-run :class:`repro.scale.timeline.FluidTimeline` for any
population size: fleet capacity is *provisioned relative to the
population's nominal demand* (via :func:`provisioned_fleet`), so "flash
crowd saturates the fleet" stays true whether the catalogue runs with 2,000
clients in a CI smoke job or a million in the full E13 campaign.

The thirteen stock scenarios cover the transients the steady-state sweep
(E12) hides:

``flash_crowd``
    A 6× demand spike in the two largest metro regions rides up, holds, and
    decays; the fleet sheds load max-min fairly while untouched regions keep
    full service.
``regional_outage``
    A quarter of the sites fail at once (a regional power event), clients
    remap through the consistent-hash ring, survivors absorb the load, and
    recovery returns exactly the old assignment.
``diurnal_week``
    168 hourly epochs of timezone-staggered day/night sinusoid: the
    fast-path showcase — the ring never changes and most epochs are
    certified feasible straight from the demands vector, skipping the fill.
``heterogeneous_fleet``
    Half the fleet is big metro boxes, half small edge boxes, under diurnal
    load; utilization spreads and the small boxes hit their knees first.
``cascading_overload``
    Sites degrade and then fail one after another while demand ramps up —
    each casualty pushes more load onto fewer survivors.
``discrimination_rollout``
    An access-ISP coalition rolls per-region throttling of video/web across
    the regions one epoch at a time, then repeals it — the fluid-model
    rendering of the paper's discrimination story at fleet scale.
``autoscaled_diurnal``
    An elastic fleet with drained spares tracks the diurnal sinusoid under
    a predictive utilization policy — the closed-loop showcase.
``stochastic_unreliable``
    One seeded draw of the E14 stochastic processes (failures, a correlated
    outage, attack onsets) with a step-policy autoscaler backfilling.
``elastic_web_mix``
    The elastic demand mix (TCP-like web and video next to CBR VoIP) rides
    a flash crowd through an undersized fleet: the elastic classes back off
    alpha-fairly where the inelastic VoIP is shed max-min, and the latency
    proxy shows the congestion as a displaced delay tail.
``latency_slo_autoscaled``
    A latency-SLO fleet: the latency-aware autoscaler holds the
    client-weighted P95 path delay on target through a diurnal day while
    the M/G/1-PS proxy records per-epoch delay percentiles and
    SLO-violating client fractions.
``adaptive_throttler``
    A budget-constrained ISP escalates its video/web throttle as evasion
    grows while per-region neutralizer adoption answers — the E16 game at
    its default dispositions, watched epoch by epoch.
``neutralizer_arms_race``
    The full arms race: a maximally aggressive ISP escalates to the §3.6
    blanket move (throttle everything it cannot classify), cheap adoption
    floods in, collateral forces the ISP back off, and the latency proxy
    shows each phase as a moving exposed-vs-neutralized delay tail.
``targeted_class_slo``
    The ROADMAP's "discrimination story measured in delay": a high-precision
    classifier throttles *video only* while a latency-aware autoscaler holds
    the aggregate P95 on target — the throttled class's exposed tail is
    displaced while its neutralized twin and the bystander classes stay on
    the base curve.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..exceptions import WorkloadError
from .config import ConfigError, ScenarioConfig, load_config
from .costmodel import CryptoCostModel
from .fleet import FleetSite, NeutralizerFleet
from .population import ClientPopulation
from .timeline import FluidTimeline


def nominal_demand(population: ClientPopulation) -> Tuple[float, float]:
    """The population's nominal busy-instant load: (total bits/s, total packets/s).

    Callers provisioning a fleet turn packets/s into CPU cores through the
    cost model's per-packet data-path price and multiply by their headroom;
    key setups are charged separately by the scenario itself.
    """
    counts = population.class_counts().astype(float)
    pps = population.demand_pps_per_client()
    bits = population.packet_bits()
    total_bps = float((counts * pps * bits).sum())
    total_pps = float((counts * pps).sum())
    return total_bps, total_pps


def provisioned_fleet(
    population: ClientPopulation,
    n_sites: int,
    *,
    headroom: float = 1.3,
    cost_model: Optional[CryptoCostModel] = None,
    heterogeneous: bool = False,
    site_weights: Optional[Tuple[float, ...]] = None,
    tiers: Optional[Tuple[str, ...]] = None,
) -> NeutralizerFleet:
    """A fleet sized to carry ``headroom`` times the population's nominal load.

    Uplinks and CPU budgets are derived from the population's aggregate
    demand, so the same scenario is equally interesting at 2 × 10^3 and
    10^6 clients.  ``heterogeneous=True`` splits the budget 3:1 between big
    metro boxes (the first half) and small edge boxes (the second half)
    instead of evenly; ``site_weights`` gives an arbitrary per-site split
    instead.  ``tiers`` labels each site ``"reserved"`` or ``"spot"`` for the
    provisioning cost model (capacity is tier-blind; only the bill differs).
    """
    if n_sites <= 0:
        raise WorkloadError("a fleet needs at least one site")
    if headroom <= 0:
        raise WorkloadError("fleet headroom must be positive")
    if heterogeneous and site_weights is not None:
        raise WorkloadError("give either heterogeneous or site_weights, not both")
    if site_weights is not None:
        if len(site_weights) != n_sites:
            raise WorkloadError(f"needs exactly {n_sites} site weights")
        if any(weight <= 0 for weight in site_weights):
            raise WorkloadError("site weights must be positive")
    if tiers is not None and len(tiers) != n_sites:
        raise WorkloadError(f"needs exactly {n_sites} site tiers")
    model = cost_model or CryptoCostModel.default()
    total_bps, total_pps = nominal_demand(population)
    total_uplink = total_bps * headroom
    total_cores = total_pps * model.data_packet_cost_seconds * headroom

    weights = list(site_weights) if site_weights is not None else [1.0] * n_sites
    if heterogeneous:
        half = n_sites // 2
        weights = [3.0] * half + [1.0] * (n_sites - half)
    weight_sum = sum(weights)
    sites = [
        FleetSite(
            f"site{i:02d}",
            cores=max(total_cores * weight / weight_sum, 1e-6),
            uplink_bps=max(total_uplink * weight / weight_sum, 1.0),
            tier=tiers[i] if tiers is not None else "reserved",
        )
        for i, weight in enumerate(weights)
    ]
    return NeutralizerFleet(sites, cost_model=model)


#: Where the scenario documents live; the numeric filename prefix pins the
#: catalogue's definition order (sorted glob == catalogue order).
CATALOGUE_DATA_DIR = Path(__file__).with_name("catalogue_data")


@functools.cache
def _catalogue() -> Dict[str, ScenarioConfig]:
    """Name → document, parsed on first use (importing the package parses
    nothing: every tool and every spawned pool worker imports it)."""
    configs: Dict[str, ScenarioConfig] = {}
    for path in sorted(CATALOGUE_DATA_DIR.glob("*.json")):
        config = load_config(path)
        if config.name in configs:
            raise ConfigError(
                f"{path.name}: duplicate scenario {config.name!r}")
        configs[config.name] = config
    if not configs:
        raise ConfigError(f"no scenario documents under {CATALOGUE_DATA_DIR}")
    return configs


def __getattr__(name: str):
    # ``CATALOGUE`` reads as a module constant but is parsed on first access.
    if name == "CATALOGUE":
        return _catalogue()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def scenario_names() -> List[str]:
    """The catalogue's scenario names, in definition order."""
    return list(_catalogue())


def build_scenario(name: str, *, clients: int = 100_000, seed: int = 2006,
                   cost_model: Optional[CryptoCostModel] = None,
                   population: Optional[ClientPopulation] = None,
                   telemetry=None) -> FluidTimeline:
    """Instantiate one named scenario for the given population size.

    ``population`` short-circuits the O(n_clients) population build — a
    campaign running several scenarios over the same clients/seed passes one
    shared :class:`ClientPopulation` instead of re-drawing it per scenario
    (populations are read-only to the timeline, so sharing is safe).
    ``telemetry`` attaches a :class:`repro.scale.telemetry.Telemetry` to the
    built timeline — spans and counters only, never simulation input.
    """
    catalogue = _catalogue()
    try:
        config = catalogue[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; catalogue has {', '.join(catalogue)}",
            field_path="name",
        ) from None
    timeline = config.build(clients=clients, seed=seed, cost_model=cost_model,
                            population=population)
    if telemetry is not None:
        timeline.telemetry = telemetry
    return timeline


def run_scenario(name: str, *, clients: int = 100_000, seed: int = 2006,
                 population: Optional[ClientPopulation] = None,
                 telemetry=None):
    """Build and run one named scenario, returning its TimelineResult."""
    return build_scenario(name, clients=clients, seed=seed,
                          population=population, telemetry=telemetry).run()
