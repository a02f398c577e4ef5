"""Time-stepped fluid simulation: a fleet riding out events over epochs.

One :class:`ScaleScenario` solve is a busy *instant*; deployments live
through *days* — diurnal load swings, flash crowds, regional outages with
failover, staged discrimination rollouts.  :class:`FluidTimeline` advances
the max-min solver through a sequence of epochs:

* demand is driven by a pluggable :class:`LoadCurve` returning a per-region
  multiplier for each epoch (sinusoidal diurnal cycles with timezone spread,
  flash-crowd spikes, linear ramps, compositions thereof);
* the fleet evolves through :class:`FleetEvent` items — site failure and
  recovery remap clients through the consistent-hash ring, capacity
  degradation scales a site's budgets, discrimination toggles throttle a
  region's served classes;
* an optional closed-loop :class:`repro.scale.autoscale.Autoscaler`
  observes each epoch's utilization (and, with a latency model attached,
  its P95 path delay) and commissions or drains sites through the same
  ring-remap machinery, with warm-up delay, cooldown, and dollar accounting
  via :class:`repro.scale.costmodel.ProvisioningCostModel`;
* an optional :class:`repro.scale.latency.LatencyModel` maps every epoch's
  utilization to client-weighted path-delay percentiles (P50/P95/P99) and
  the fraction of clients violating a latency SLO, recorded per epoch;
* an optional closed-loop :class:`repro.scale.adversary.AdversaryGame` plays
  the paper's arms race each epoch: an adaptive ISP strategy flags and
  throttles classifiable traffic under a policing budget while per-region
  neutralizer adoption reacts to the experienced harm, feeding per-flow
  served-demand caps and adopter re-key load back into the solve;
* each epoch is solved *warm*: the flow structure is a cached
  :class:`repro.scale.scenario.ProblemTemplate` (rebuilt incrementally, in
  O(ring points × bins), only when the ring actually changes) and the previous
  epoch's allocation is offered to
  :func:`repro.scale.solver.max_min_allocation` as a verified warm start,
  so an event-free epoch costs a few vectorized passes over per-flow
  vectors, independent of population size.

The result is a :class:`TimelineResult`: per-epoch goodput, delivered
fraction, per-site utilization matrices, serving-site counts, provisioning
cost, and remap churn (clients moved plus the hash-space fraction the ring
diff says changed owner).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import WorkloadError
from .adversary import (
    AdoptionModel,
    AdversaryGame,
    AdversaryRun,
    experienced_latency,
    split_latency_by_class,
)
from .autoscale import AutoscalePolicy, AutoscaleRun, Autoscaler, EpochMetrics
from .costmodel import ProvisioningCostModel
from .fleet import NeutralizerFleet
from .latency import LatencyModel, LatencyResult, evaluate_latency
from .population import ClientPopulation
from .scenario import EpochProblem, FluidResult, ProblemTemplate, ScaleScenario
from .solver import Allocation, solve_allocation
from .telemetry import NULL, Telemetry


def _optional_arrays_equal(left: Optional[np.ndarray],
                           right: Optional[np.ndarray]) -> bool:
    """Whether two maybe-absent per-flow/per-site vectors are identical."""
    if left is None or right is None:
        return left is None and right is None
    return np.array_equal(left, right)

DAY_SECONDS = 86_400.0


# ---------------------------------------------------------------------------
# Load curves
# ---------------------------------------------------------------------------


class LoadCurve:
    """Demand multiplier over time, possibly different per access region.

    ``multipliers(t, regions)`` returns one non-negative factor per region;
    a factor of 1.0 means the population's nominal busy-instant demand.
    """

    def multipliers(self, t_seconds: float, regions: int) -> np.ndarray:
        """Per-region demand multipliers at absolute time ``t_seconds``."""
        raise NotImplementedError

    def __mul__(self, other: "LoadCurve") -> "CompositeLoad":
        return CompositeLoad((self, other))


@dataclass(frozen=True)
class ConstantLoad(LoadCurve):
    """Flat demand at ``level`` times nominal."""

    level: float = 1.0

    def __post_init__(self) -> None:
        if self.level < 0:
            raise WorkloadError("load level must be non-negative")

    def multipliers(self, t_seconds: float, regions: int) -> np.ndarray:
        return np.full(regions, self.level)


@dataclass(frozen=True)
class DiurnalLoad(LoadCurve):
    """A day-night sinusoid between ``trough`` and ``peak``.

    ``peak_time_seconds`` places the daily maximum; ``timezone_spread``
    staggers the regions' peaks uniformly across that fraction of the period
    (regions of a continental deployment do not peak together).
    """

    trough: float = 0.4
    peak: float = 1.0
    period_seconds: float = DAY_SECONDS
    peak_time_seconds: float = DAY_SECONDS * 20 / 24  # 8 pm local
    timezone_spread: float = 0.25

    def __post_init__(self) -> None:
        if not 0 <= self.trough <= self.peak:
            raise WorkloadError("diurnal load needs 0 <= trough <= peak")
        if self.period_seconds <= 0:
            raise WorkloadError("diurnal period must be positive")
        if not 0 <= self.timezone_spread <= 1:
            raise WorkloadError("timezone spread is a fraction of the period")

    def multipliers(self, t_seconds: float, regions: int) -> np.ndarray:
        mean = (self.peak + self.trough) / 2.0
        amplitude = (self.peak - self.trough) / 2.0
        offsets = np.arange(regions) / max(regions, 1) * self.timezone_spread
        phase = (t_seconds - self.peak_time_seconds) / self.period_seconds - offsets
        return mean + amplitude * np.cos(2.0 * math.pi * phase)


@dataclass(frozen=True)
class FlashCrowdLoad(LoadCurve):
    """A sudden spike on top of a base level, optionally region-targeted.

    Demand ramps linearly from ``base`` to ``base × spike`` over
    ``ramp_seconds``, holds for ``hold_seconds``, and decays back over
    ``ramp_seconds``.  ``regions_hit`` restricts the spike to those region
    indices (the rest stay at ``base``); ``None`` hits everyone.
    """

    base: float = 1.0
    spike: float = 6.0
    start_seconds: float = 0.0
    ramp_seconds: float = 1800.0
    hold_seconds: float = 3600.0
    regions_hit: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.base < 0 or self.spike < 1.0:
            raise WorkloadError("flash crowd needs base >= 0 and spike >= 1")
        if self.ramp_seconds < 0 or self.hold_seconds < 0:
            raise WorkloadError("flash crowd ramp/hold must be non-negative")
        if self.regions_hit is not None and any(r < 0 for r in self.regions_hit):
            raise WorkloadError("flash crowd region indices must be non-negative")

    def _level(self, t: float) -> float:
        dt = t - self.start_seconds
        if dt < 0 or dt > 2 * self.ramp_seconds + self.hold_seconds:
            return self.base
        if dt < self.ramp_seconds:
            fraction = dt / self.ramp_seconds if self.ramp_seconds else 1.0
        elif dt <= self.ramp_seconds + self.hold_seconds:
            fraction = 1.0
        else:
            fraction = (2 * self.ramp_seconds + self.hold_seconds - dt) / self.ramp_seconds
        return self.base * (1.0 + (self.spike - 1.0) * fraction)

    def multipliers(self, t_seconds: float, regions: int) -> np.ndarray:
        out = np.full(regions, self.base)
        level = self._level(t_seconds)
        if self.regions_hit is None:
            out[:] = level
        else:
            # A typo'd region index must fail loudly, not flatten the spike.
            bad = [r for r in self.regions_hit if r >= regions]
            if bad:
                raise WorkloadError(
                    f"flash crowd hits region(s) {bad}, only {regions} exist"
                )
            out[list(self.regions_hit)] = level
        return out


@dataclass(frozen=True)
class LinearRampLoad(LoadCurve):
    """Linear growth from ``start_level`` to ``end_level`` over the window."""

    start_level: float = 1.0
    end_level: float = 2.0
    t0_seconds: float = 0.0
    t1_seconds: float = DAY_SECONDS

    def __post_init__(self) -> None:
        if self.start_level < 0 or self.end_level < 0:
            raise WorkloadError("ramp levels must be non-negative")
        if self.t1_seconds <= self.t0_seconds:
            raise WorkloadError("ramp needs t1 > t0")

    def multipliers(self, t_seconds: float, regions: int) -> np.ndarray:
        fraction = (t_seconds - self.t0_seconds) / (self.t1_seconds - self.t0_seconds)
        fraction = min(max(fraction, 0.0), 1.0)
        level = self.start_level + (self.end_level - self.start_level) * fraction
        return np.full(regions, level)


@dataclass(frozen=True)
class CompositeLoad(LoadCurve):
    """Pointwise product of several curves (e.g. diurnal × flash crowd)."""

    curves: Tuple[LoadCurve, ...]

    def __post_init__(self) -> None:
        if not self.curves:
            raise WorkloadError("composite load needs at least one curve")

    def multipliers(self, t_seconds: float, regions: int) -> np.ndarray:
        out = np.ones(regions)
        for curve in self.curves:
            out = out * curve.multipliers(t_seconds, regions)
        return out


# ---------------------------------------------------------------------------
# Fleet events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetEvent:
    """Something that happens to the fleet at the start of one epoch."""

    at_epoch: int

    def __post_init__(self) -> None:
        if self.at_epoch < 0:
            raise WorkloadError("events must be scheduled at epoch >= 0")

    def describe(self) -> str:
        """Short label recorded on the epoch the event fired."""
        raise NotImplementedError


@dataclass(frozen=True)
class SiteFailure(FleetEvent):
    """A site goes dark; the ring withdraws its points and clients move."""

    site: str = ""

    def describe(self) -> str:
        return f"fail {self.site}"


@dataclass(frozen=True)
class SiteRecovery(FleetEvent):
    """A failed site returns and reclaims exactly its old ring points."""

    site: str = ""

    def describe(self) -> str:
        return f"recover {self.site}"


@dataclass(frozen=True)
class CapacityDegradation(FleetEvent):
    """A site's CPU and uplink budgets shrink to ``factor`` of nominal.

    The site stays in the ring (clients do not move); ``until_epoch`` ends
    the degradation, ``None`` leaves it in place for the rest of the run.
    """

    site: str = ""
    factor: float = 0.5
    until_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.factor <= 1:
            raise WorkloadError("degradation factor must be in [0, 1]")
        if self.until_epoch is not None and self.until_epoch <= self.at_epoch:
            raise WorkloadError("degradation must end after it starts")

    def describe(self) -> str:
        return f"degrade {self.site} x{self.factor:g}"


@dataclass(frozen=True)
class DiscriminationToggle(FleetEvent):
    """An access region's ISP starts throttling classes to ``factor``.

    This is the fluid-model form of the paper's discriminatory ISP: traffic
    of the named classes originating in ``region`` is served at ``factor``
    of its demand from this epoch on (``until_epoch`` repeals the policy).
    ``class_names=None`` throttles every class.
    """

    region: int = 0
    factor: float = 0.5
    class_names: Optional[Tuple[str, ...]] = None
    until_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.region < 0:
            raise WorkloadError("discrimination region must be a valid index")
        if not 0 <= self.factor <= 1:
            raise WorkloadError("discrimination factor must be in [0, 1]")
        if self.until_epoch is not None and self.until_epoch <= self.at_epoch:
            raise WorkloadError("policy must be repealed after it starts")

    def describe(self) -> str:
        classes = ",".join(self.class_names) if self.class_names else "all"
        return f"discriminate r{self.region} {classes} x{self.factor:g}"


@dataclass(frozen=True)
class ReconfigEvent(FleetEvent):
    """A committed operator transaction, applied atomically at an epoch.

    The typed form of a :class:`repro.scale.config.ConfigTransaction`
    commit: swap the autoscaler's policy and/or bounds, activate/drain
    sites (region add/drain), and retune the adversary's adoption model —
    all at the top of one epoch, before the controller and the game tick.
    Feasibility is re-checked at the boundary *before* anything mutates
    (a drain set that would empty the ring rejects the whole event), so
    the event applies entirely or not at all.
    """

    policy: Optional[AutoscalePolicy] = None
    min_sites: Optional[int] = None
    max_sites: Optional[int] = None
    activate_sites: Tuple[str, ...] = ()
    drain_sites: Tuple[str, ...] = ()
    adoption: Optional[AdoptionModel] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        overlap = set(self.activate_sites) & set(self.drain_sites)
        if overlap:
            raise WorkloadError(
                f"reconfig both activates and drains {sorted(overlap)}"
            )

    def describe(self) -> str:
        parts: List[str] = []
        if self.policy is not None:
            parts.append(f"policy={type(self.policy).__name__}")
        if self.min_sites is not None:
            parts.append(f"min_sites={self.min_sites}")
        if self.max_sites is not None:
            parts.append(f"max_sites={self.max_sites}")
        parts += [f"+{name}" for name in self.activate_sites]
        parts += [f"-{name}" for name in self.drain_sites]
        if self.adoption is not None:
            parts.append(f"adoption.sensitivity={self.adoption.sensitivity:g}")
        return "reconfig " + ",".join(parts) if parts else "reconfig noop"


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochRecord:
    """One solved epoch of a timeline."""

    epoch: int
    t_seconds: float
    #: Labels of the events that fired entering this epoch.
    events: Tuple[str, ...]
    #: Population-weighted mean demand multiplier in effect.
    demand_multiplier: float
    demand_bps: float
    goodput_bps: float
    goodput_bps_by_class: Dict[str, float]
    delivered_fraction: float
    peak_cpu_utilization: float
    peak_uplink_utilization: float
    key_setup_pps: float
    #: Clients whose site changed entering this epoch (ring remap churn).
    clients_remapped: int
    #: Hash-space fraction the ring diff says changed owner (0 if no change).
    ring_moved_fraction: float
    warm_started: bool
    solver_iterations: int
    solve_seconds: float
    #: Sites serving this epoch (healthy AND active).
    sites_in_service: int = 0
    #: Sites committed by the autoscaler but still warming up.
    sites_warming: int = 0
    #: Labels of the autoscaler's actions entering this epoch.
    autoscale_actions: Tuple[str, ...] = ()
    #: Dollars this epoch cost (committed capacity + remap churn).
    provision_cost: float = 0.0
    #: Client-weighted path-delay percentiles (seconds); 0.0 when the
    #: timeline runs without a latency model.  With an adversary game they
    #: are the *experienced* delays — flagged clients include the access
    #: ISP's policer queue, matching the game's own harm accounting.
    latency_p50_seconds: float = 0.0
    latency_p95_seconds: float = 0.0
    latency_p99_seconds: float = 0.0
    #: Fraction of clients whose path delay exceeded the latency SLO.
    latency_slo_violations: float = 0.0
    #: Offered (pre-throttle) bits/s per demand class this epoch.
    demand_bps_by_class: Dict[str, float] = field(default_factory=dict)
    #: Share of offered traffic the adversary's ISP flagged and throttled
    #: (0.0 when the timeline runs without an adversary game).
    discriminated_share: float = 0.0
    #: Client-weighted neutralizer-adoption fraction in effect this epoch.
    adoption_fraction: float = 0.0
    #: New adopters who re-keyed through the hash ring entering this epoch.
    clients_rekeyed: int = 0
    #: Labels of the adversary game's moves entering this epoch.
    adversary_events: Tuple[str, ...] = ()
    #: Per-class P95 path delay (seconds) split by neutralized vs exposed
    #: clients (empty unless both an adversary and a latency model run).
    neutralized_latency_p95: Dict[str, float] = field(default_factory=dict)
    exposed_latency_p95: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class TimelineResult:
    """A fully solved timeline: per-epoch records plus per-site matrices."""

    n_clients: int
    epoch_seconds: float
    site_names: Tuple[str, ...]
    class_names: Tuple[str, ...]
    records: Tuple[EpochRecord, ...]
    #: ``[epoch, site]`` matrices.
    cpu_utilization: np.ndarray
    uplink_utilization: np.ndarray
    clients_per_site: np.ndarray
    wall_seconds: float

    @property
    def epochs(self) -> int:
        """Number of solved epochs."""
        return len(self.records)

    @property
    def payload_nbytes(self) -> int:
        """Bytes held by the result's per-epoch matrices.

        Campaign units ship one of these back from each worker process;
        this is the dominant term of that pickled payload, so it is the
        number to watch when a long timeline makes parallel campaign
        results expensive to return (see docs/parallel.md).
        """
        return int(self.cpu_utilization.nbytes
                   + self.uplink_utilization.nbytes
                   + self.clients_per_site.nbytes)

    @property
    def goodput_bps(self) -> np.ndarray:
        """Delivered bits/s per epoch."""
        return np.array([record.goodput_bps for record in self.records])

    @property
    def demand_bps(self) -> np.ndarray:
        """Offered bits/s per epoch."""
        return np.array([record.demand_bps for record in self.records])

    @property
    def delivered_fraction(self) -> np.ndarray:
        """Goodput/demand ratio per epoch."""
        return np.array([record.delivered_fraction for record in self.records])

    @property
    def min_delivered_fraction(self) -> float:
        """The worst epoch's delivered fraction (the headline of an outage)."""
        return float(self.delivered_fraction.min())

    @property
    def mean_delivered_fraction(self) -> float:
        """Average delivered fraction across epochs."""
        return float(self.delivered_fraction.mean())

    @property
    def total_clients_remapped(self) -> int:
        """Total remap churn over the run (client·moves)."""
        return int(sum(record.clients_remapped for record in self.records))

    @property
    def peak_remap_epoch(self) -> Optional[int]:
        """Epoch with the most churn, or ``None`` if nothing ever moved."""
        churn = [record.clients_remapped for record in self.records]
        if not churn or max(churn) == 0:
            return None
        return int(np.argmax(churn))

    @property
    def warm_fraction(self) -> float:
        """Fraction of epochs solved by reusing the previous allocation."""
        if not self.records:
            return 0.0
        return sum(record.warm_started for record in self.records) / len(self.records)

    @property
    def fast_fraction(self) -> float:
        """Fraction of epochs that skipped the fill entirely (iterations 0).

        Covers both fast paths: the demand certificate (uncongested epochs,
        available in warm and cold modes alike) and warm-start reuse.
        """
        if not self.records:
            return 0.0
        return (sum(record.solver_iterations == 0 for record in self.records)
                / len(self.records))

    @property
    def solve_seconds_total(self) -> float:
        """Cumulative time spent inside the max-min solver."""
        return float(sum(record.solve_seconds for record in self.records))

    @property
    def sites_in_service(self) -> np.ndarray:
        """Serving-site count per epoch (constant unless autoscaled)."""
        return np.array([record.sites_in_service for record in self.records])

    @property
    def total_provision_cost(self) -> float:
        """Dollars the whole run cost (committed capacity plus churn)."""
        return float(sum(record.provision_cost for record in self.records))

    @property
    def total_autoscale_actions(self) -> int:
        """Controller actions over the run (scale-ups, drains, cancels)."""
        return sum(len(record.autoscale_actions) for record in self.records)

    def slo_attainment(self, threshold: float = 0.95) -> float:
        """Fraction of epochs whose delivered fraction met ``threshold``."""
        if not self.records:
            return 1.0
        met = (self.delivered_fraction >= threshold).sum()
        return float(met) / len(self.records)

    @property
    def has_latency(self) -> bool:
        """Whether the timeline ran with a latency model attached."""
        return any(record.latency_p95_seconds > 0 for record in self.records)

    @property
    def latency_p95_seconds(self) -> np.ndarray:
        """Per-epoch client-weighted P95 path delay (zeros without a model)."""
        return np.array([record.latency_p95_seconds for record in self.records])

    @property
    def worst_latency_p95_seconds(self) -> float:
        """The worst epoch's P95 path delay — the headline of a latency SLO."""
        if not self.records:
            return 0.0
        return float(self.latency_p95_seconds.max())

    @property
    def mean_latency_slo_violations(self) -> float:
        """Mean over epochs of the client fraction violating the latency SLO."""
        if not self.records:
            return 0.0
        return float(np.mean([record.latency_slo_violations
                              for record in self.records]))

    def latency_slo_attainment(self, max_violations: float = 0.05) -> float:
        """Fraction of epochs keeping SLO violations at or under the budget.

        An epoch passes when at most ``max_violations`` of clients exceeded
        the timeline's ``latency_slo_seconds`` — the latency twin of
        :meth:`slo_attainment`.
        """
        if not self.records:
            return 1.0
        met = sum(record.latency_slo_violations <= max_violations
                  for record in self.records)
        return float(met) / len(self.records)

    @property
    def has_adversary(self) -> bool:
        """Whether an adversary game left any trace on this timeline."""
        return any(record.discriminated_share > 0 or record.adoption_fraction > 0
                   or record.adversary_events for record in self.records)

    @property
    def adoption_fraction(self) -> np.ndarray:
        """Per-epoch client-weighted neutralizer-adoption fraction."""
        return np.array([record.adoption_fraction for record in self.records])

    @property
    def discriminated_share(self) -> np.ndarray:
        """Per-epoch share of offered traffic flagged and throttled."""
        return np.array([record.discriminated_share for record in self.records])

    @property
    def final_adoption_fraction(self) -> float:
        """The last epoch's adoption fraction (the game's resting point)."""
        if not self.records:
            return 0.0
        return self.records[-1].adoption_fraction

    @property
    def total_clients_rekeyed(self) -> int:
        """Total adopter re-key churn over the run (client·setups)."""
        return int(sum(record.clients_rekeyed for record in self.records))

    def class_delivered_fraction(self, class_names: Sequence[str]) -> np.ndarray:
        """Per-epoch goodput/offered ratio summed over the named classes.

        The harm ledger of the discrimination story: the throttled classes'
        delivered fraction against their *offered* (pre-throttle) demand.
        """
        unknown = set(class_names) - set(self.class_names)
        if unknown:
            raise WorkloadError(f"unknown demand classes {sorted(unknown)}")
        out = np.empty(len(self.records))
        for index, record in enumerate(self.records):
            offered = sum(record.demand_bps_by_class.get(name, 0.0)
                          for name in class_names)
            served = sum(record.goodput_bps_by_class.get(name, 0.0)
                         for name in class_names)
            out[index] = served / offered if offered > 0 else 1.0
        return out

    def series(self) -> Dict[str, List[float]]:
        """Per-epoch columns for :func:`repro.analysis.report.format_series`."""
        out: Dict[str, List[float]] = {
            "demand Mb/s": [record.demand_bps / 1e6 for record in self.records],
            "goodput Mb/s": [record.goodput_bps / 1e6 for record in self.records],
            "delivered": [record.delivered_fraction for record in self.records],
            "peak cpu": [record.peak_cpu_utilization for record in self.records],
            "sites": [float(record.sites_in_service) for record in self.records],
            "remapped": [float(record.clients_remapped) for record in self.records],
        }
        if self.has_latency:
            out["p95 ms"] = [record.latency_p95_seconds * 1e3
                             for record in self.records]
            out["slo viol"] = [record.latency_slo_violations
                               for record in self.records]
        if self.has_adversary:
            out["adoption"] = [record.adoption_fraction
                               for record in self.records]
            out["discr share"] = [record.discriminated_share
                                  for record in self.records]
        return out


# ---------------------------------------------------------------------------
# The timeline engine
# ---------------------------------------------------------------------------


class FluidTimeline:
    """Advance a population×fleet scenario through epochs of load and events."""

    def __init__(
        self,
        population: ClientPopulation,
        fleet: NeutralizerFleet,
        *,
        epochs: int,
        epoch_seconds: float = 3600.0,
        load: Optional[LoadCurve] = None,
        events: Sequence[FleetEvent] = (),
        region_uplink_bps: Optional[float] = None,
        warm_start: bool = True,
        autoscaler: Optional[Autoscaler] = None,
        provisioning_cost: Optional[ProvisioningCostModel] = None,
        latency: Optional[LatencyModel] = None,
        latency_slo_seconds: float = 0.1,
        adversary: Optional[AdversaryGame] = None,
        scenario: Optional[ScaleScenario] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if epochs <= 0:
            raise WorkloadError("a timeline needs at least one epoch")
        if epoch_seconds <= 0:
            raise WorkloadError("epoch length must be positive")
        if latency_slo_seconds <= 0:
            raise WorkloadError("the latency SLO must be positive")
        self.population = population
        self.fleet = fleet
        self.epochs = int(epochs)
        self.epoch_seconds = float(epoch_seconds)
        self.load = load if load is not None else ConstantLoad()
        self.events = tuple(sorted(events, key=lambda event: event.at_epoch))
        #: The per-epoch problems come from this scenario's cached template,
        #: which also supplies the region-uplink default and validation.
        #: Passing a pre-built ``scenario`` shares its cached template
        #: across timelines (Monte-Carlo campaigns reuse one population x
        #: fleet structure over many replicas); after a previous run
        #: restored the fleet, the stale template rebuilds incrementally
        #: over zero moved arcs instead of paying the O(n_clients) pass.
        if scenario is not None:
            if scenario.population is not population or scenario.fleet is not fleet:
                raise WorkloadError(
                    "a shared scenario must wrap this timeline's population and fleet"
                )
            if (region_uplink_bps is not None
                    and scenario.region_uplink_bps != region_uplink_bps):
                raise WorkloadError(
                    "a shared scenario disagrees with region_uplink_bps"
                )
            self._scenario = scenario
        else:
            self._scenario = ScaleScenario(
                population, fleet, region_uplink_bps=region_uplink_bps
            )
        self.region_uplink_bps = self._scenario.region_uplink_bps
        self.warm_start = warm_start
        #: Closed-loop controller configuration; per-run state is created
        #: fresh inside every run() so timelines stay re-runnable.
        self.autoscaler = autoscaler
        self.provisioning_cost = provisioning_cost or ProvisioningCostModel()
        #: Optional utilization → queueing-delay proxy; when present every
        #: epoch records client-weighted latency percentiles and the
        #: fraction of clients violating ``latency_slo_seconds``.
        self.latency = latency
        self.latency_slo_seconds = float(latency_slo_seconds)
        #: Optional ISP-vs-adoption game configuration; per-run state is
        #: created fresh inside every run(), like the autoscaler's.
        self.adversary = adversary
        if adversary is not None:
            adversary.validate_against(population)
        #: Observes, never participates: spans and work counters only.
        #: Mutable so a caller (catalogue, campaign runner) can attach a
        #: collecting telemetry after construction without re-building.
        self.telemetry: Telemetry = telemetry if telemetry is not None else NULL
        #: The declarative document this timeline was built from, when it
        #: came through :meth:`repro.scale.config.ScenarioConfig.build` —
        #: what :class:`repro.scale.config.ConfigTransaction` diffs against.
        self.config = None
        self._validate_events()

    def _validate_events(self) -> None:
        names = {site.name for site in self.fleet.sites}
        for event in self.events:
            if event.at_epoch >= self.epochs:
                raise WorkloadError(
                    f"event {event.describe()!r} at epoch {event.at_epoch} is "
                    f"beyond the {self.epochs}-epoch horizon"
                )
            site = getattr(event, "site", None)
            if site is not None and site not in names:
                raise WorkloadError(f"event names unknown site {site!r}")
            region = getattr(event, "region", None)
            if region is not None and region >= self.population.regions:
                raise WorkloadError(
                    f"event names region {region}, population has "
                    f"{self.population.regions}"
                )
            class_names = getattr(event, "class_names", None)
            if class_names:
                known = set(self.population.mix.names)
                unknown = set(class_names) - known
                if unknown:
                    raise WorkloadError(f"event names unknown classes {sorted(unknown)}")
            for name in (*getattr(event, "activate_sites", ()),
                         *getattr(event, "drain_sites", ())):
                if name not in names:
                    raise WorkloadError(f"event names unknown site {name!r}")

    # -- live event scheduling -------------------------------------------------------

    def schedule_event(self, event: FleetEvent) -> None:
        """Add one event to the timeline, keeping the schedule validated.

        Insertion is stable: among events of the same epoch the new one
        fires last, so committing the same transaction after a rollback
        always converges on the same schedule.  A rejected event leaves the
        schedule exactly as it was.
        """
        previous = self.events
        self.events = tuple(sorted((*self.events, event),
                                   key=lambda item: item.at_epoch))
        try:
            self._validate_events()
        except WorkloadError:
            self.events = previous
            raise

    def unschedule_event(self, event: FleetEvent) -> None:
        """Remove one previously scheduled event (identity match)."""
        kept: List[FleetEvent] = []
        removed = False
        for item in self.events:
            if item is event and not removed:
                removed = True
                continue
            kept.append(item)
        if not removed:
            raise WorkloadError("event is not scheduled on this timeline")
        self.events = tuple(kept)

    # -- running ---------------------------------------------------------------------

    def run(self) -> TimelineResult:
        """Solve every epoch and assemble the result.

        The fleet's health is restored to its pre-run state afterwards, so a
        timeline whose events leave sites failed can be re-run (or its fleet
        reused) without silently simulating an already-degraded fleet.
        """
        initial_health = self.fleet.health_snapshot()
        try:
            return self._run()
        finally:
            self.fleet.restore_health(initial_health)

    def _run(self) -> TimelineResult:
        telemetry = self.telemetry
        elog = telemetry.events
        if elog is not None:
            elog.emit(
                "timeline_started",
                epochs=self.epochs,
                clients=self.population.n_clients,
                sites=[site.name for site in self.fleet.sites],
                epoch_seconds=float(self.epoch_seconds),
                latency_slo_seconds=float(self.latency_slo_seconds),
            )
        state = _TimelineRun(self)
        run_span = telemetry.span(
            "timeline", epochs=self.epochs, clients=self.population.n_clients
        )
        with run_span:
            for epoch in range(self.epochs):
                with telemetry.span("epoch", epoch=epoch):
                    state.step(epoch)
        records = state.records
        if elog is not None:
            elog.emit(
                "timeline_complete",
                epochs=len(records),
                delivered_fraction_mean=float(
                    sum(r.delivered_fraction for r in records) / len(records)),
                delivered_fraction_min=min(
                    float(r.delivered_fraction) for r in records),
                latency_slo_violations_max=max(
                    float(r.latency_slo_violations) for r in records),
            )
        return TimelineResult(
            n_clients=self.population.n_clients,
            epoch_seconds=self.epoch_seconds,
            site_names=tuple(site.name for site in self.fleet.sites),
            class_names=tuple(self.population.mix.names),
            records=tuple(records),
            cpu_utilization=state.cpu_util,
            uplink_utilization=state.uplink_util,
            clients_per_site=state.clients_matrix,
            wall_seconds=run_span.seconds,
        )


@dataclass(frozen=True)
class SolvedEpoch:
    """One epoch's instantiated problem with everything solved from it.

    The timeline's only solve memo.  An epoch with the same template, demand
    scaling and capacity scaling (steady load, no events) is the *same
    problem*, so the instantiated problem, the allocation, the interpreted
    fluid result and the latency metrics are all reused outright — the
    steady-state epoch costs two small array comparisons, independent of
    anything else.  A changed problem still takes its warm start from here.
    """

    template: ProblemTemplate
    served_scale: np.ndarray
    capacity_scale: Optional[np.ndarray]
    extra_setups: Optional[np.ndarray]
    problem: EpochProblem
    allocation: Allocation
    fluid: FluidResult
    latency_result: Optional[LatencyResult]
    #: Fleet-path (P50, P95, P99, SLO-violation fraction); zeros without a
    #: latency model.
    latency: Tuple[float, float, float, float]

    def answers(self, template: ProblemTemplate, served_scale: np.ndarray,
                capacity_scale: Optional[np.ndarray],
                extra_setups: Optional[np.ndarray]) -> bool:
        """Whether these inputs pose the bit-identical problem solved here."""
        return (template is self.template
                and np.array_equal(served_scale, self.served_scale)
                and _optional_arrays_equal(capacity_scale, self.capacity_scale)
                and _optional_arrays_equal(extra_setups, self.extra_setups))


class _TimelineRun:
    """Mutable state of one :meth:`FluidTimeline.run`, stepped epoch by epoch.

    The timeline's twin of :class:`AutoscaleRun` / :class:`AdversaryRun`:
    created fresh inside every run() so timelines stay re-runnable.
    :meth:`step` is the epoch pipeline; every stage is a method bounded by
    one span (or by nothing but its own call, for events and record
    assembly), reading and writing only what this object holds.
    """

    def __init__(self, timeline: FluidTimeline) -> None:
        self.timeline = timeline
        self.telemetry = telemetry = timeline.telemetry
        self.population = timeline.population
        self.fleet = fleet = timeline.fleet
        self.scenario = timeline._scenario
        self.pending = list(timeline.events)
        #: Live discrimination / degradation windows (expired ones pruned).
        self.throttles: List[DiscriminationToggle] = []
        self.degradations: List[CapacityDegradation] = []
        self.autoscale = (AutoscaleRun(timeline.autoscaler, fleet,
                                       telemetry=telemetry)
                          if timeline.autoscaler is not None else None)
        self.adversary = (
            AdversaryRun(timeline.adversary, self.population,
                         latency=timeline.latency,
                         latency_slo_seconds=timeline.latency_slo_seconds,
                         telemetry=telemetry)
            if timeline.adversary is not None else None)
        #: This epoch's pre-change ring; see :meth:`snapshot_ring`.
        self.ring_before: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.template: Optional[ProblemTemplate] = None
        self.base_demand_bps = 0.0
        #: Demand-weighted per-region weights for the autoscaler's forecast.
        self.region_demand: Optional[np.ndarray] = None
        self.last_metrics: Optional[EpochMetrics] = None
        self.solved: Optional[SolvedEpoch] = None
        #: The adversary epochs' recorded latency and neutralized/exposed
        #: per-class P95 split, kept while neither solve nor game moves.
        self.experienced = ((0.0, 0.0, 0.0, 0.0), {}, {})
        #: Committed-capacity sums (``epoch_cost`` keywords), cached while
        #: the fleet state they were summed under, ``committed_key``, holds.
        self.committed_key = None
        self.committed: Dict[str, float] = {}
        self.records: List[EpochRecord] = []
        self.cpu_util = np.zeros((timeline.epochs, fleet.n_sites))
        self.uplink_util = np.zeros((timeline.epochs, fleet.n_sites))
        self.clients_matrix = np.zeros((timeline.epochs, fleet.n_sites),
                                       dtype=np.int64)

    def step(self, epoch: int) -> None:
        """Solve one epoch: the pipeline, one stage per call."""
        t = epoch * self.timeline.epoch_seconds
        self.ring_before = None
        fired = self.fire_events(epoch)
        actions = self.autoscale_step(epoch, t)
        remapped, ring_moved = self.remap_ring()
        offered_scale, served_scale = self.demand_scale(t)
        capacity_scale = self.capacity_scale()
        move = self.adversary_step(epoch, offered_scale)
        extra_setups = None
        if move is not None:
            served_scale = served_scale * move.served_multiplier
            extra_setups = move.extra_setups_per_flow
        solved, reused, solve_seconds = self.solve(
            served_scale, capacity_scale, extra_setups)
        quoted = self.quoted_latency(solved, reused, move)
        provision_cost = self.bill(remapped)
        self.record(epoch, t, fired, actions, remapped, ring_moved,
                    offered_scale, capacity_scale, move, solved, reused,
                    solve_seconds, quoted, provision_cost)

    # -- the stages, in step() order -----------------------------------------------

    def snapshot_ring(self) -> None:
        """Keep the pre-change ring, before this epoch's first ring change.

        Snapshotted lazily: only epochs where an event or autoscale action
        actually touches the ring pay for it (and the array form is
        zero-copy — rebuilds allocate anew).  At epoch 0 no template exists
        yet, so the pre-change one is built first — the O(n_clients) build
        the epoch would pay anyway — and the clients epoch 0 moves are
        counted against it like any later epoch's.
        """
        if self.ring_before is None:
            if self.template is None:
                with self.telemetry.span("ring_remap"):
                    self.template = self.scenario.build_template()
            self.ring_before = self.fleet.ring_state()

    def fire_events(self, epoch: int) -> List[str]:
        """Apply every event scheduled at ``epoch``; returns their labels."""
        # Expired windows can never re-activate; pruning them keeps the
        # per-epoch scans bounded by *live* windows even on long runs with
        # frequent attack onsets.
        if self.throttles:
            self.throttles = [toggle for toggle in self.throttles
                              if toggle.until_epoch is None
                              or epoch < toggle.until_epoch]
        if self.degradations:
            self.degradations = [event for event in self.degradations
                                 if event.until_epoch is None
                                 or epoch < event.until_epoch]
        fired: List[str] = []
        pending = self.pending
        elog = self.telemetry.events
        while pending and pending[0].at_epoch == epoch:
            event = pending.pop(0)
            kind = "fleet_event"
            if isinstance(event, SiteFailure):
                self.snapshot_ring()
                self.fleet.fail_site(event.site)
            elif isinstance(event, SiteRecovery):
                self.snapshot_ring()
                self.fleet.restore_site(event.site)
            elif isinstance(event, CapacityDegradation):
                self.degradations.append(event)
            elif isinstance(event, DiscriminationToggle):
                self.throttles.append(event)
            elif isinstance(event, ReconfigEvent):
                self.apply_reconfig(event)
                kind = "reconfig"
            else:
                raise WorkloadError(f"unknown fleet event {event!r}")
            fired.append(event.describe())
            if elog is not None:
                elog.emit(kind, epoch=epoch, description=fired[-1])
        return fired

    def apply_reconfig(self, event: ReconfigEvent) -> None:
        """Apply one committed transaction atomically at the epoch boundary.

        Every feasibility check runs before the first mutation, so a
        rejected reconfiguration raises with the fleet, the controller and
        the game exactly as they were.
        """
        fleet = self.fleet
        autoscale = self.autoscale
        if (event.policy is not None or event.min_sites is not None
                or event.max_sites is not None) and autoscale is None:
            raise WorkloadError(
                "reconfig retunes an autoscaler this timeline does not run")
        if event.adoption is not None and self.adversary is None:
            raise WorkloadError(
                "reconfig retunes an adversary game this timeline does not run")
        will_be_active = {site.name: site.active for site in fleet.sites}
        for name in event.activate_sites:
            will_be_active[name] = True
        for name in event.drain_sites:
            will_be_active[name] = False
        if not any(will_be_active[site.name] and site.healthy
                   for site in fleet.sites):
            raise WorkloadError(f"reconfig at epoch {event.at_epoch} would "
                                f"leave no site in service")
        # Activations before drains, so the ring never empties transiently.
        for name in event.activate_sites:
            site = fleet.site(name)
            if not site.active:
                if site.healthy:
                    self.snapshot_ring()
                fleet.activate_site(name)
            if autoscale is not None:
                autoscale.note_external_activation(name)
        for name in event.drain_sites:
            site = fleet.site(name)
            if autoscale is not None:
                autoscale.note_external_drain(name)
            if site.active:
                if site.in_service:
                    self.snapshot_ring()
                fleet.drain_site(name)
        if autoscale is not None:
            autoscale.reconfigure(policy=event.policy,
                                  min_sites=event.min_sites,
                                  max_sites=event.max_sites)
        if event.adoption is not None:
            self.adversary.retune(event.adoption)

    def forecast(self, t_now: float, lead: int) -> float:
        """A demand forecast for predictive autoscaling policies.

        Returns offered demand ``lead`` epochs ahead relative to nominal,
        weighted by each region's share of base demand — exactly the
        ``demand_multiplier`` the future epoch will record, assuming no
        discrimination throttles (a forecaster sees load, not policy).
        """
        region_demand = self.region_demand
        future = self.timeline.load.multipliers(
            t_now + lead * self.timeline.epoch_seconds, self.population.regions
        )
        if region_demand is None or region_demand.sum() <= 0:
            return float(future.mean())
        return float((future * region_demand).sum() / region_demand.sum())

    def autoscale_step(self, epoch: int, t: float) -> Tuple[str, ...]:
        """One controller tick; returns its action labels."""
        if self.autoscale is None:
            return ()
        with self.telemetry.span("autoscale_step"):
            actions = tuple(self.autoscale.step(
                epoch, self.last_metrics, partial(self.forecast, t),
                self.snapshot_ring,
            ))
        if self.telemetry.events is not None and actions:
            self.telemetry.events.emit("autoscale", epoch=epoch,
                                       actions=list(actions))
        return actions

    def remap_ring(self) -> Tuple[int, float]:
        """Bring the template up to the current ring.

        Returns the remap churn entering this epoch: clients whose site
        changed, and the hash-space fraction the ring diff says moved.
        """
        ring_moved = 0.0
        if self.ring_before is not None:
            ring_moved = NeutralizerFleet.ring_moved_fraction(
                self.ring_before, self.fleet.ring_state()
            )
        with self.telemetry.span("ring_remap"):
            template = self.scenario.build_template()
        remapped = 0
        if template is not self.template:
            if self.template is not None:
                remapped = template.remapped_from_parent
            self.template = template
        self.telemetry.inc("timeline.clients_remapped", remapped)
        if self.region_demand is None:
            per_flow_bps = template.base_demands * template.group_clients
            self.base_demand_bps = float(per_flow_bps.sum())
            self.region_demand = np.bincount(
                template.region_of, weights=per_flow_bps,
                minlength=self.population.regions,
            )
        return remapped, ring_moved

    def demand_scale(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """Per-flow (offered, served) demand multipliers for this epoch.

        The load curve scales what clients *offer*; discrimination throttles
        further cap what the access ISP lets through.  Delivered fraction is
        judged against the offered demand, so a rollout shows up as harm
        rather than as demand conveniently disappearing.
        """
        template = self.template
        population = self.population
        regional = self.timeline.load.multipliers(t, population.regions)
        if regional.shape != (population.regions,):
            raise WorkloadError("load curve returned the wrong number of regions")
        if np.any(regional < 0):
            raise WorkloadError("load curve returned a negative multiplier")
        offered = regional[template.region_of].astype(np.float64)
        served = offered.copy()
        for toggle in self.throttles:
            hit = template.region_of == toggle.region
            if toggle.class_names is not None:
                class_ids = [population.mix.names.index(name)
                             for name in toggle.class_names]
                hit &= np.isin(template.class_of, class_ids)
            served[hit] *= toggle.factor
        return offered, served

    def capacity_scale(self) -> Optional[np.ndarray]:
        """Per-site capacity multipliers under the live degradations."""
        if not self.degradations:
            return None
        scale = np.ones(self.fleet.n_sites)
        for event in self.degradations:
            index = self.fleet.index_of_site(event.site)
            scale[index] = min(scale[index], event.factor)
        if (scale == 1.0).all():
            return None
        return scale

    def adversary_step(self, epoch: int, offered_scale: np.ndarray):
        """One round of the ISP-vs-adoption game (``None`` without one)."""
        if self.adversary is None:
            return None
        with self.telemetry.span("adversary_step"):
            move = self.adversary.step(epoch, self.template, offered_scale,
                                       self.timeline.epoch_seconds)
        if self.telemetry.events is not None and move.events:
            self.telemetry.events.emit("adversary", epoch=epoch,
                                       events=list(move.events))
        return move

    def solve(self, served_scale: np.ndarray,
              capacity_scale: Optional[np.ndarray],
              extra_setups: Optional[np.ndarray],
              ) -> Tuple[SolvedEpoch, bool, float]:
        """This epoch's :class:`SolvedEpoch`, whether reused, and its seconds."""
        timeline = self.timeline
        telemetry = self.telemetry
        template = self.template
        last = self.solved if timeline.warm_start else None
        if last is not None and last.answers(template, served_scale,
                                             capacity_scale, extra_setups):
            # Bit-identical problem (steady load, same fleet state): the
            # previous answer IS the answer.
            reuse_span = telemetry.span("solve", reused=True)
            with reuse_span:
                telemetry.inc("timeline.epochs_reused")
            return last, True, reuse_span.seconds
        instantiate_span = telemetry.span("template_instantiate")
        with instantiate_span:
            problem = template.instantiate(served_scale, capacity_scale,
                                           extra_setups)
        solve_span = telemetry.span("solve")
        with solve_span:
            # The previous rates align only with the flow structure they
            # were solved on.  Congestion prices are per-resource, and the
            # resource list (regions + site uplinks + site CPUs, indices
            # stable across failures) never changes shape, so unlike the
            # rates they survive template rebuilds.
            allocation = solve_allocation(
                problem.problem,
                warm_start=(last.allocation.rates if last is not None
                            and last.template is template else None),
                warm_prices=(last.allocation.prices if last is not None
                             else None),
                telemetry=telemetry,
            )
            fluid = template.interpret(problem, allocation)
        latency_result = None
        latency = (0.0, 0.0, 0.0, 0.0)
        latency_seconds = 0.0
        if timeline.latency is not None:
            latency_span = telemetry.span("latency_proxy")
            with latency_span:
                latency_result = evaluate_latency(
                    template, problem, allocation, timeline.latency
                )
                latency = (
                    *latency_result.percentiles((0.50, 0.95, 0.99)),
                    latency_result.slo_violation_fraction(
                        timeline.latency_slo_seconds),
                )
            latency_seconds = latency_span.seconds
        telemetry.observe("timeline.solver_iterations", allocation.iterations)
        self.solved = SolvedEpoch(
            template, served_scale, capacity_scale, extra_setups, problem,
            allocation, fluid, latency_result, latency,
        )
        return self.solved, False, (instantiate_span.seconds
                                    + solve_span.seconds + latency_seconds)

    def quoted_latency(self, solved: SolvedEpoch, reused: bool, move):
        """(latency, neutralized P95, exposed P95) as the record quotes them.

        Without an adversary this is the fleet-path proxy; with one it is
        the client-experienced mixture including the policer delay of
        flagged traffic, so the headline fields agree with the game's own
        harm ledger.  The autoscaler's control signal stays the fleet-path
        P95 — capacity cannot buy back a policer queue.
        """
        if self.adversary is None:
            return solved.latency, {}, {}
        self.adversary.observe(solved.template, solved.allocation,
                               solved.problem.problem, solved.latency_result)
        if solved.latency_result is None:
            return solved.latency, {}, {}
        # A bit-identical epoch with no game moves has the same split; only
        # a fresh solve or an adoption/strategy move can change it.
        if not reused or move.events:
            self.experienced = (
                experienced_latency(solved.template, solved.latency_result,
                                    move, self.timeline.latency_slo_seconds),
                *split_latency_by_class(solved.template,
                                        solved.latency_result, move),
            )
        return self.experienced

    def bill(self, remapped: int) -> float:
        """Dollars this epoch cost: committed capacity plus remap churn."""
        fleet = self.fleet
        # Billing covers every *commissioned* site — active (even while
        # failed: a box being down does not stop its bill) plus warming
        # ones — unlike the controller's capacity view, which counts only
        # sites actually serving.
        warming_names = (tuple(self.autoscale.warming)
                         if self.autoscale is not None else ())
        epoch_key = (fleet.active_version, warming_names)
        if epoch_key != self.committed_key:
            committed_sites = [site for site in fleet.sites if site.active]
            committed_sites += [fleet.site(name) for name in warming_names]
            reserved = [site for site in committed_sites
                        if site.tier != "spot"]
            spot = [site for site in committed_sites if site.tier == "spot"]
            self.committed = dict(
                cores=sum(site.cores for site in reserved),
                uplink_bps=sum(site.uplink_bps for site in reserved),
                sites=len(reserved),
                spot_cores=sum(site.cores for site in spot),
                spot_uplink_bps=sum(site.uplink_bps for site in spot),
                spot_sites=len(spot),
            )
            self.committed_key = epoch_key
        return self.timeline.provisioning_cost.epoch_cost(
            epoch_seconds=self.timeline.epoch_seconds,
            clients_remapped=remapped, **self.committed,
        )

    def record(self, epoch: int, t: float, fired: List[str],
               actions: Tuple[str, ...], remapped: int, ring_moved: float,
               offered_scale: np.ndarray, capacity_scale: Optional[np.ndarray],
               move, solved: SolvedEpoch, reused: bool, solve_seconds: float,
               quoted, provision_cost: float) -> None:
        """Append the :class:`EpochRecord`, fill the matrices, feed the
        controller its metrics, and emit the ``epoch`` event."""
        template = solved.template
        fluid = solved.fluid
        population = self.population
        recorded_latency, neutralized_p95, exposed_p95 = quoted
        self.telemetry.inc("timeline.epochs")

        offered_flow_bps = (template.base_demands * offered_scale
                            * template.group_clients)
        offered_bps = float(offered_flow_bps.sum())
        offered_by_class = np.bincount(
            template.class_of, weights=offered_flow_bps,
            minlength=population.n_classes,
        )
        demand_multiplier = (offered_bps / self.base_demand_bps
                             if self.base_demand_bps else 0.0)
        delivered = (fluid.total_goodput_bps / offered_bps
                     if offered_bps > 0 else 1.0)

        self.cpu_util[epoch] = fluid.cpu_utilization
        self.uplink_util[epoch] = fluid.uplink_utilization
        self.clients_matrix[epoch] = fluid.clients_per_site

        in_service = self.fleet.in_service_mask()
        n_in_service = int(in_service.sum())
        n_warming = (len(self.autoscale.warming)
                     if self.autoscale is not None else 0)
        adoption = move.adoption_fraction if move is not None else 0.0
        serving_load = np.maximum(fluid.cpu_utilization,
                                  fluid.uplink_utilization)[in_service]
        self.last_metrics = EpochMetrics(
            served_sites=n_in_service,
            mean_utilization=(float(serving_load.mean())
                              if n_in_service else 0.0),
            peak_utilization=(float(serving_load.max())
                              if n_in_service else 0.0),
            delivered_fraction=delivered,
            demand_multiplier=demand_multiplier,
            latency_p95_seconds=solved.latency[1],
            adoption_fraction=adoption,
        )

        self.records.append(EpochRecord(
            epoch=epoch,
            t_seconds=t,
            events=tuple(fired),
            demand_multiplier=demand_multiplier,
            demand_bps=offered_bps,
            goodput_bps=fluid.total_goodput_bps,
            goodput_bps_by_class=dict(fluid.goodput_bps),
            delivered_fraction=delivered,
            peak_cpu_utilization=float(fluid.cpu_utilization.max()),
            peak_uplink_utilization=float(fluid.uplink_utilization.max()),
            key_setup_pps=fluid.key_setup_pps,
            clients_remapped=remapped,
            ring_moved_fraction=ring_moved,
            warm_started=reused or solved.allocation.warm_started,
            solver_iterations=0 if reused else solved.allocation.iterations,
            solve_seconds=solve_seconds,
            sites_in_service=n_in_service,
            sites_warming=n_warming,
            autoscale_actions=actions,
            provision_cost=provision_cost,
            latency_p50_seconds=recorded_latency[0],
            latency_p95_seconds=recorded_latency[1],
            latency_p99_seconds=recorded_latency[2],
            latency_slo_violations=recorded_latency[3],
            demand_bps_by_class={
                name: float(offered_by_class[index])
                for index, name in enumerate(population.mix.names)
            },
            discriminated_share=(move.discriminated_share
                                 if move is not None else 0.0),
            adoption_fraction=adoption,
            clients_rekeyed=move.clients_rekeyed if move is not None else 0,
            adversary_events=move.events if move is not None else (),
            neutralized_latency_p95=neutralized_p95,
            exposed_latency_p95=exposed_p95,
        ))

        if self.telemetry.events is not None:
            # Per-site served capacity: the in-service flag times the
            # degradation scale — the availability signal the black-hole
            # detector runs CUSUM over.  ``site_active`` masks out
            # drained/warming sites (not commissioned to serve), so
            # scale-downs are never mistaken for faults.
            if capacity_scale is None:
                site_served = [1.0 if flag else 0.0 for flag in in_service]
            else:
                site_served = [float(scale) if flag else 0.0
                               for flag, scale
                               in zip(in_service, capacity_scale)]
            self.telemetry.events.emit(
                "epoch",
                epoch=epoch,
                delivered_fraction=float(delivered),
                demand_multiplier=float(demand_multiplier),
                latency_p95_seconds=float(recorded_latency[1]),
                latency_slo_violations=float(recorded_latency[3]),
                sites_in_service=n_in_service,
                sites_warming=n_warming,
                site_served=site_served,
                site_active=[bool(site.active) for site in self.fleet.sites],
            )
