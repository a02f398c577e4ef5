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
* each epoch reuses what it can: the flow structure is a cached
  :class:`repro.scale.scenario.ProblemTemplate` (rebuilt incrementally, in
  O(ring points × bins), only when the ring actually changes), every solve
  is cold and so a function of its problem alone, and a small per-run memo
  recalls the answer of any problem the run already solved, so an epoch
  costs a few vectorized passes over per-flow vectors, independent of
  population size.

The result is a :class:`TimelineResult`: per-epoch goodput, delivered
fraction, per-site utilization matrices, serving-site counts, provisioning
cost, and remap churn (clients moved plus the hash-space fraction the ring
diff says changed owner).
"""

from __future__ import annotations

import copy
import math
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import WorkloadError
from .adversary import (
    AdoptionModel,
    AdversaryEpoch,
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


DAY_SECONDS = 86_400.0

#: Distinct epoch problems one run keeps the answers of, least recently
#: used out first.  On the benchmark's E14, E15 and E16 campaigns (10^6
#: clients, seed 81, ``tools/epoch_split.py``) 256, 283 and 143 derived
#: epochs pose a problem their replica already solved; eight entries
#: recall 247, 279 and all 143 of them, one entry 39, 90 and 5.
SOLVE_MEMO_SIZE = 8


def _key_bytes(scale: Optional[np.ndarray]) -> Optional[bytes]:
    """A scale vector as memo-key bytes; adding 0.0 turns -0.0 into 0.0,
    so two vectors give equal bytes exactly when ``np.array_equal``."""
    return None if scale is None else (scale + 0.0).tobytes()


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

    def _require_finite(self) -> None:
        """Refuse a NaN or infinite number among the curve's parameters."""
        for item in fields(self):
            value = getattr(self, item.name)
            if isinstance(value, (int, float)) and not math.isfinite(value):
                raise WorkloadError(f"{type(self).__name__}.{item.name} must "
                                    f"be finite, got {value!r}")


@dataclass(frozen=True)
class ConstantLoad(LoadCurve):
    """Flat demand at ``level`` times nominal."""

    level: float = 1.0

    def __post_init__(self) -> None:
        self._require_finite()
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
        self._require_finite()
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
        self._require_finite()
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
        self._require_finite()
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
    #: Key-space fraction whose owner changed entering this epoch (0 if none).
    ring_moved_fraction: float
    #: Whether the epoch took the previous epoch's answer outright (the
    #: same problem on the same template), with ``solver_iterations`` 0.
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


def _recorded_again(record: EpochRecord, epoch: int, t_seconds: float,
                    solve_seconds: float) -> EpochRecord:
    """``record`` under another epoch, time and solve seconds, with dicts
    of its own: a copy of the frozen record, not a second ``__init__``."""
    again = copy.copy(record)
    for name, value in (("epoch", epoch), ("t_seconds", t_seconds),
                        ("solve_seconds", solve_seconds)):
        object.__setattr__(again, name, value)
    for name in ("goodput_bps_by_class", "demand_bps_by_class",
                 "neutralized_latency_p95", "exposed_latency_p95"):
        object.__setattr__(again, name, dict(getattr(record, name)))
    return again


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
        """Fraction of epochs that took the previous epoch's answer outright.

        Counts :attr:`EpochRecord.warm_started`: the epoch posed the
        previous epoch's problem on the same template.  The E13 report
        prints it as ``reuse frac``.
        """
        if not self.records:
            return 0.0
        return sum(record.warm_started for record in self.records) / len(self.records)

    @property
    def fast_fraction(self) -> float:
        """Fraction of epochs that skipped the fill entirely (iterations 0).

        Covers both fast paths: the demand certificate (uncongested epochs,
        with ``warm_start`` on or off) and reuse of the previous epoch's
        answer.
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
            epoch = 0
            while epoch < self.epochs:
                with telemetry.span("epoch", epoch=epoch):
                    state.step(epoch)
                epoch = state.stretch(epoch + 1)
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

    Every solve is cold, so everything after ``problem`` — the allocation,
    the interpreted fluid result and the latency metrics — is a function
    of the problem alone: :attr:`answer` is what the run's solve memo keeps
    (see :meth:`_TimelineRun.solve`).  The template and the problem stay
    out of the memo; a recalled answer is paired with the current
    template's fresh instantiation.
    """

    template: ProblemTemplate
    problem: EpochProblem
    allocation: Allocation
    fluid: FluidResult
    latency_result: Optional[LatencyResult]
    #: Fleet-path (P50, P95, P99, SLO-violation fraction); zeros without a
    #: latency model.
    latency: Tuple[float, float, float, float]

    @property
    def answer(self) -> tuple:
        """``(allocation, fluid, latency_result, latency)``: the memo entry."""
        return self.allocation, self.fluid, self.latency_result, self.latency


@dataclass(frozen=True, eq=False)
class _DerivedEpoch:
    """Everything one epoch derived from its inputs, kept for the next one.

    A resting epoch (see :meth:`_TimelineRun.step`) takes it back whole.
    Every record copies its dicts, so no two records share one.
    """

    #: The rest key: the template, the live windows and a copy of the
    #: regional load multipliers (a load curve may refill one buffer).
    template: ProblemTemplate
    throttles: Tuple[DiscriminationToggle, ...]
    degradations: Tuple[CapacityDegradation, ...]
    regional: np.ndarray
    offered_scale: np.ndarray
    #: The served scale before the adversary's access multiplier.
    served_scale: np.ndarray
    capacity_scale: Optional[np.ndarray]
    move: Optional[AdversaryEpoch]
    solved: SolvedEpoch
    #: (latency, neutralized P95, exposed P95) as the record quotes them.
    quoted: tuple
    #: The record fields fixed by the solve and the offered demand.
    demand_bps: float
    demand_bps_by_class: Dict[str, float]
    demand_multiplier: float
    delivered_fraction: float
    peak_cpu_utilization: float
    peak_uplink_utilization: float


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
        #: The universe-arc owners of the ring last accounted for churn.
        #: The fleet replaces (never mutates) the array on every ring
        #: derivation, so holding the reference is the snapshot.
        self.arc_owners = fleet.universe_arcs()[2]
        self.template: Optional[ProblemTemplate] = None
        self.base_demand_bps = 0.0
        #: Demand-weighted per-region weights for the autoscaler's forecast.
        self.region_demand: Optional[np.ndarray] = None
        self.last_metrics: Optional[EpochMetrics] = None
        #: The last epoch's derivation, taken back by a resting epoch.
        self.derived: Optional[_DerivedEpoch] = None
        #: The solve memo: :meth:`problem_key` -> :attr:`SolvedEpoch.answer`,
        #: at most :data:`SOLVE_MEMO_SIZE` entries, most recent last.  One
        #: per run, so a campaign unit's answers never depend on which
        #: worker ran the units before it.  A timeline with ``warm_start``
        #: off has none, so every epoch solves.
        self.memo: Optional[OrderedDict] = (OrderedDict() if timeline.warm_start
                                            else None)
        #: Committed-capacity sums (``epoch_cost`` keywords), cached while
        #: the fleet state they were summed under, ``committed_key``, holds.
        self.committed_key = None
        self.committed: Dict[str, float] = {}
        #: Whether the last stepped epoch rested (see :meth:`step`).
        self.rested = False
        #: The last ``epoch`` event's payload, when the run emits events.
        self.epoch_event: Optional[dict] = None
        self.records: List[EpochRecord] = []
        self.cpu_util = np.zeros((timeline.epochs, fleet.n_sites))
        self.uplink_util = np.zeros((timeline.epochs, fleet.n_sites))
        self.clients_matrix = np.zeros((timeline.epochs, fleet.n_sites),
                                       dtype=np.int64)

    def step(self, epoch: int) -> None:
        """Solve one epoch: the pipeline, one stage per call.

        The epoch *rests* when warm start is on, no event fired, the
        template, the live windows and the load multipliers are last
        epoch's, and the game's tick moved nothing after a move that moved
        nothing.  Everything an epoch derives is a deterministic function
        of those inputs, so a resting epoch takes back last epoch's
        :class:`_DerivedEpoch`; any other epoch derives it afresh (still
        inputs with a moving game keep only the demand and capacity scales).
        """
        timeline = self.timeline
        t = epoch * timeline.epoch_seconds
        fired = self.fire_events(epoch)
        actions = self.autoscale_step(epoch, t)
        remapped, ring_moved = self.remap_ring()
        regional = timeline.load.multipliers(t, self.population.regions)
        throttles, degradations = tuple(self.throttles), tuple(self.degradations)
        last = self.derived
        still = (timeline.warm_start and not fired and last is not None
                 and last.template is self.template
                 and last.throttles == throttles
                 and last.degradations == degradations
                 and np.array_equal(last.regional, regional))
        if still:
            offered, served, capacity = (last.offered_scale, last.served_scale,
                                         last.capacity_scale)
        else:
            offered, served = self.demand_scale(t, regional)
            capacity = self.capacity_scale()
        rests = still and (last.move is None or not last.move.events)
        move = None
        if self.adversary is not None:
            with self.telemetry.span("adversary_step"):
                moved = self.adversary.tick(epoch)
                rests = rests and not moved
                move = last.move if rests else self.adversary.flag(
                    self.template, offered, timeline.epoch_seconds)
            if self.telemetry.events is not None and move.events:
                self.telemetry.events.emit("adversary", epoch=epoch,
                                           events=list(move.events))
        if rests:
            reused, solve_seconds = True, self.reuse_solve()
        else:
            access, extra_setups = served, None
            if move is not None:
                access = served * move.served_multiplier
                extra_setups = move.extra_setups_per_flow
            solved, reused, solve_seconds = self.solve(access, capacity,
                                                       extra_setups)
            self.derived = _DerivedEpoch(
                self.template, throttles, degradations, regional.copy(),
                offered, served, capacity, move, solved,
                self.quoted_latency(solved, move),
                *self.demand_fields(solved, offered))
        provision_cost = self.bill(remapped)
        self.record(epoch, t, fired, actions, remapped, ring_moved,
                    self.derived, reused, solve_seconds, provision_cost)
        self.rested = rests

    def rest_end(self, start: int) -> int:
        """The first epoch from ``start`` on that must run :meth:`step`.

        ``start`` follows the last stepped epoch.  When that epoch rested,
        every epoch before the returned one would rest the same way: no
        event is due, no live window expires (expiry changes the rest key),
        neither the autoscaler nor the game could move (each answers for
        itself), and the load curve returns the resting multipliers — up to
        ``forecast_lead`` epochs further for a policy that reads the
        forecast.  An equal array needs no :meth:`check_load`; the first
        unequal one, or a load call that raises, ends the stretch before
        the epoch that reads it, which then steps and raises as it would.
        """
        if not self.rested:
            return start
        timeline = self.timeline
        ends = [timeline.epochs]
        if self.pending:
            ends.append(self.pending[0].at_epoch)
        ends += [window.until_epoch
                 for window in (*self.throttles, *self.degradations)]
        lead = 0
        if self.autoscale is not None:
            ends.append(self.autoscale.next_move())
            lead = self.autoscale.spec.policy.forecast_lead
        if self.adversary is not None:
            ends.append(self.adversary.next_move(start - 1))
        end = min(bound for bound in ends if bound is not None)
        if end <= start:
            return start
        regional = self.derived.regional
        for epoch in range(start, end + lead):
            try:
                same = np.array_equal(timeline.load.multipliers(
                    epoch * timeline.epoch_seconds, self.population.regions),
                    regional)
            except Exception:
                # Whatever the curve raises, stepping the epoch that reads
                # this load raises it again, after the same trail.
                same = False
            if not same:
                return max(start, min(end, epoch - lead))
        return end

    def stretch(self, start: int) -> int:
        """Advance over the resting stretch from ``start``; returns its end.

        Every epoch :meth:`rest_end` proves resting leaves only the trail a
        resting :meth:`step` leaves: its ``epoch`` span holding the stage
        spans in step order (``autoscale_step``, ``ring_remap``,
        ``adversary_step``, ``solve`` with ``reused=True``), the same
        counter increments, the last record again under its own epoch,
        time and solve seconds (with its own dicts), its matrix rows and
        its ``epoch`` event.  Every decision the stretch holds constant —
        the autoscaler's policy, the event scan, the ring check, the game's
        tick, billing and the controller's metrics — is not taken again.
        """
        end = self.rest_end(start)
        if end <= start:
            return start
        telemetry = self.telemetry
        # The stage spans (in step order) and counter increments of a
        # resting step; empty stage spans are only worth opening into a trace.
        stages = ["autoscale_step"] if self.autoscale is not None else []
        stages.append("ring_remap")
        counts = [("timeline.epochs", 1), ("timeline.clients_remapped", 0)]
        if self.autoscale is not None:
            counts.append(("autoscale.actions", 0))
        if self.adversary is not None:
            stages.append("adversary_step")
            counts += [("adversary.steps", 1), ("adversary.events", 0),
                       ("adversary.clients_rekeyed", 0)]
        if telemetry.tracer is None:
            stages = []
        for matrix in (self.cpu_util, self.uplink_util, self.clients_matrix):
            matrix[start:end] = matrix[start - 1]
        epoch_seconds = self.timeline.epoch_seconds
        last = self.records[-1]
        event = self.epoch_event
        for epoch in range(start, end):
            with telemetry.span("epoch", epoch=epoch):
                for name in stages:
                    with telemetry.span(name):
                        pass
                for name, amount in counts:
                    telemetry.inc(name, amount)
                self.records.append(_recorded_again(
                    last, epoch, epoch * epoch_seconds, self.reuse_solve()))
                if event is not None:
                    telemetry.events.emit("epoch", **{
                        **event, "epoch": epoch,
                        "site_served": list(event["site_served"]),
                        "site_active": list(event["site_active"])})
        return end

    # -- the stages, in step() order -----------------------------------------------

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
                self.fleet.fail_site(event.site)
            elif isinstance(event, SiteRecovery):
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
            fleet.activate_site(name)
            if autoscale is not None:
                autoscale.note_external_activation(name)
        for name in event.drain_sites:
            if autoscale is not None:
                autoscale.note_external_drain(name)
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
        t = t_now + lead * self.timeline.epoch_seconds
        future = self.timeline.load.multipliers(t, self.population.regions)
        self.check_load(future, t)
        if region_demand is None or region_demand.sum() <= 0:
            return float(future.mean())
        return float((future * region_demand).sum() / region_demand.sum())

    def check_load(self, regional: np.ndarray, t: float) -> None:
        """Fail loudly, naming the regions and ``t``, on a load curve's
        wrong-shaped, non-finite or negative ``regional`` multipliers."""
        if regional.shape != (self.population.regions,):
            raise WorkloadError("load curve returned the wrong number of regions")
        bad = np.flatnonzero(~np.isfinite(regional))
        if bad.size:
            raise WorkloadError(
                f"load curve returned non-finite multiplier(s) "
                f"{regional[bad].tolist()} for region(s) {bad.tolist()} "
                f"at t={t:g} s")
        if np.any(regional < 0):
            raise WorkloadError("load curve returned a negative multiplier")

    def autoscale_step(self, epoch: int, t: float) -> Tuple[str, ...]:
        """One controller tick; returns its action labels."""
        if self.autoscale is None:
            return ()
        with self.telemetry.span("autoscale_step"):
            actions = tuple(self.autoscale.step(
                epoch, self.last_metrics, partial(self.forecast, t)))
        if self.telemetry.events is not None and actions:
            self.telemetry.events.emit("autoscale", epoch=epoch,
                                       actions=list(actions))
        return actions

    def remap_ring(self) -> Tuple[int, float]:
        """Bring the template up to the current ring.

        Returns the remap churn entering this epoch: the clients and the
        key-space fraction of the universe arcs whose owner differs from
        the ring last accounted (:meth:`ProblemTemplate.churn_since`).
        """
        with self.telemetry.span("ring_remap"):
            self.template = template = self.scenario.build_template()
            remapped, ring_moved = 0, 0.0
            if template.arc_owners is not self.arc_owners:
                remapped, ring_moved = template.churn_since(self.arc_owners)
                self.arc_owners = template.arc_owners
        self.telemetry.inc("timeline.clients_remapped", remapped)
        if self.region_demand is None:
            per_flow_bps = template.base_demands * template.group_clients
            self.base_demand_bps = float(per_flow_bps.sum())
            self.region_demand = np.bincount(
                template.region_of, weights=per_flow_bps,
                minlength=self.population.regions,
            )
        return remapped, ring_moved

    def demand_scale(self, t: float, regional: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-flow (offered, served) demand multipliers for this epoch.

        The load curve's ``regional`` multipliers scale what clients
        *offer*; discrimination throttles further cap what the access ISP
        lets through.  Delivered fraction is judged against the offered
        demand, so a rollout shows up as harm rather than as demand
        conveniently disappearing.
        """
        template = self.template
        population = self.population
        self.check_load(regional, t)
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

    def problem_key(self, served_scale: np.ndarray,
                    capacity_scale: Optional[np.ndarray],
                    extra_setups: Optional[np.ndarray]) -> tuple:
        """The solve memo's key: everything this epoch's problem depends on.

        Within one run the population, the site specs, the cost model, the
        region uplink and the latency model are fixed.  Events and the
        autoscaler change the fleet only through which sites serve
        (``ReconfigEvent`` only flips ``active``), and the ring — hence the
        template's flows, usage matrix and site capacities — is a function
        of that in-service set.  So the in-service mask and the three scale
        vectors determine the instantiated problem, and a cold solve's
        answer with it.
        """
        return (self.fleet.in_service_mask().tobytes(),
                _key_bytes(served_scale), _key_bytes(capacity_scale),
                _key_bytes(extra_setups))

    def solve(self, served_scale: np.ndarray,
              capacity_scale: Optional[np.ndarray],
              extra_setups: Optional[np.ndarray],
              ) -> Tuple[SolvedEpoch, bool, float]:
        """This epoch's :class:`SolvedEpoch`, whether reused, and its seconds.

        A problem this run has solved is recalled from the memo, not
        solved again.  It counts as *reused* (``EpochRecord.warm_started``,
        zero solver iterations) only when it is the previous epoch's
        problem on the same template object; an older one is recorded as
        the solve it stands for.  ``step`` keeps the result in the next
        ``derived``.
        """
        timeline = self.timeline
        telemetry = self.telemetry
        template = self.template
        memo = self.memo
        key = answer = None
        if memo is not None:
            key = self.problem_key(served_scale, capacity_scale, extra_setups)
            answer = memo.get(key)
        if answer is not None:
            memo.move_to_end(key)
            last = self.derived.solved
            if last.template is template and last.allocation is answer[0]:
                # The previous epoch's problem: its answer IS the answer.
                return last, True, self.reuse_solve()
        instantiate_span = telemetry.span("template_instantiate")
        with instantiate_span:
            problem = template.instantiate(served_scale, capacity_scale,
                                           extra_setups)
        if answer is not None:
            return (SolvedEpoch(template, problem, *answer), False,
                    instantiate_span.seconds + self.reuse_solve())
        solve_span = telemetry.span("solve")
        with solve_span:
            allocation = solve_allocation(problem.problem, telemetry=telemetry)
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
        solved = SolvedEpoch(template, problem, allocation, fluid,
                             latency_result, latency)
        if memo is not None:
            memo[key] = solved.answer
            if len(memo) > SOLVE_MEMO_SIZE:
                memo.popitem(last=False)
        return solved, False, (instantiate_span.seconds
                               + solve_span.seconds + latency_seconds)

    def reuse_solve(self) -> float:
        """The ``solve`` span of an epoch whose answer this run already had."""
        reuse_span = self.telemetry.span("solve", reused=True)
        with reuse_span:
            self.telemetry.inc("timeline.epochs_reused")
        return reuse_span.seconds

    def quoted_latency(self, solved: SolvedEpoch,
                       move: Optional[AdversaryEpoch]):
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
        return (experienced_latency(solved.template, solved.latency_result,
                                    move, self.timeline.latency_slo_seconds),
                *split_latency_by_class(solved.template,
                                        solved.latency_result, move))

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

    def demand_fields(self, solved: SolvedEpoch, offered_scale: np.ndarray):
        """The record fields ``solved`` and ``offered_scale`` fix, in
        :class:`_DerivedEpoch` order from ``demand_bps`` on."""
        template = solved.template
        fluid = solved.fluid
        offered_flow_bps = (template.base_demands * offered_scale
                            * template.group_clients)
        offered_bps = float(offered_flow_bps.sum())
        offered_by_class = np.bincount(
            template.class_of, weights=offered_flow_bps,
            minlength=self.population.n_classes,
        )
        return (
            offered_bps,
            {name: float(offered_by_class[index])
             for index, name in enumerate(self.population.mix.names)},
            offered_bps / self.base_demand_bps if self.base_demand_bps else 0.0,
            (fluid.total_goodput_bps / offered_bps
             if offered_bps > 0 else 1.0),
            float(fluid.cpu_utilization.max()),
            float(fluid.uplink_utilization.max()),
        )

    def record(self, epoch: int, t: float, fired: List[str],
               actions: Tuple[str, ...], remapped: int, ring_moved: float,
               derived: _DerivedEpoch, reused: bool, solve_seconds: float,
               provision_cost: float) -> None:
        """Append the :class:`EpochRecord`, fill the matrices, feed the
        controller its metrics, and emit the ``epoch`` event."""
        solved = derived.solved
        fluid = solved.fluid
        move = derived.move
        capacity_scale = derived.capacity_scale
        demand_multiplier = derived.demand_multiplier
        delivered = derived.delivered_fraction
        recorded_latency, neutralized_p95, exposed_p95 = derived.quoted
        self.telemetry.inc("timeline.epochs")

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
            demand_bps=derived.demand_bps,
            goodput_bps=fluid.total_goodput_bps,
            goodput_bps_by_class=dict(fluid.goodput_bps),
            delivered_fraction=delivered,
            peak_cpu_utilization=derived.peak_cpu_utilization,
            peak_uplink_utilization=derived.peak_uplink_utilization,
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
            demand_bps_by_class=dict(derived.demand_bps_by_class),
            discriminated_share=(move.discriminated_share
                                 if move is not None else 0.0),
            adoption_fraction=adoption,
            clients_rekeyed=move.clients_rekeyed if move is not None else 0,
            adversary_events=move.events if move is not None else (),
            # Resting epochs quote one cached split: copy it, so no two
            # records share a dict.
            neutralized_latency_p95=dict(neutralized_p95),
            exposed_latency_p95=dict(exposed_p95),
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
            self.epoch_event = dict(
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
            self.telemetry.events.emit("epoch", **self.epoch_event)
