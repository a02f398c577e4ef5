"""Queueing-latency proxy: from utilization to per-class delay distributions.

The fluid solver answers "what fraction of demand is served"; the paper's
neutrality argument is also about *service quality* — a neutral domain must
deliver comparable delay to every client, and at hypergrowth scale the
latency tail, not the mean throughput, is the binding SLO.  This module maps
a solved allocation to per-flow path delays with an M/G/1-PS-style proxy:

* every shared resource (regional uplink, site uplink, site CPU) is treated
  as a single queueing station whose mean service time comes from the
  traffic actually crossing it (mean wire bits per packet over the link
  rate; the calibrated per-packet CPU cost over the site's cores) and whose
  waiting time follows the Pollaczek–Khinchine shape
  ``rho x (1 + cv^2) / (2 (1 - rho))`` — processor sharing is insensitive to
  the service distribution (``service_cv=1`` recovers the exact M/M/1-PS
  sojourn), and the configurable ``service_cv`` lets the proxy interpolate
  toward deterministic (``cv=0``, fixed-size packets through a FIFO) or
  heavy-tailed service;
* every flow composes its path: a deterministic base RTT from region/site
  *geometry* (regions and sites placed on a circle — a stand-in for the
  continental spread the catalogue's fleets imply) plus the queueing delays
  of the regional uplink, the site uplink, and the site CPU it crosses;
* the result is a client-weighted delay distribution per demand class —
  percentiles, means, and the fraction of clients whose path delay violates
  a latency SLO.

Everything is a vectorized O(resources + flows) pass over the solved
allocation, so recording latency percentiles per epoch adds nothing
measurable to a timeline solve.  Utilization is clamped below 1 by
``max_utilization``: the fluid solver drives saturated resources to exactly
``rho = 1``, where an open queueing formula diverges; the clamp turns "the
solver says saturated" into "the proxy says tens of service times deep",
which is the regime the SLO-violation metric is meant to flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import WorkloadError

#: Seconds of one-way propagation across the modelled geography (a
#: continental half-circumference at fiber speed, ~60 ms RTT coast to coast).
DEFAULT_GEOGRAPHY_SECONDS = 0.030
#: Floor RTT between a region and its closest site (last-mile + peering).
DEFAULT_MIN_RTT_SECONDS = 0.002


def allen_cunneen_factor(utilization, arrival_cv: float, service_cv: float,
                         max_utilization: float):
    """Mean G/G/1 wait (Allen–Cunneen) in units of the mean service time.

    ``rho (ca^2 + cs^2) / (2 (1 - rho))`` with ``rho`` clamped at
    ``max_utilization`` — monotone increasing in load and in both
    variability parameters, zero at zero load, finite at saturation.  The
    classic two-moment approximation: exact at the M/G/1 point
    (``ca = 1``, where it reduces to Pollaczek–Khinchine) and a standard
    engineering estimate for bursty (``ca > 1``) or smoothed (``ca < 1``)
    arrivals and heavy-tailed service (large ``cs``).  The single source of
    truth for the proxy's queueing shape:
    :meth:`LatencyModel.queueing_factor` evaluates it and
    :class:`repro.scale.autoscale.TargetLatencyPolicy` inverts it, so the
    two can never drift apart.
    """
    rho = np.clip(utilization, 0.0, max_utilization)
    return rho * (arrival_cv ** 2 + service_cv ** 2) / (2.0 * (1.0 - rho))


def pollaczek_khinchine_factor(utilization, service_cv: float,
                               max_utilization: float):
    """Mean P-K wait in units of the mean service time (M/G/1 arrivals).

    The Poisson-arrival (``arrival_cv = 1``) point of
    :func:`allen_cunneen_factor`, kept as the named default shape.
    """
    return allen_cunneen_factor(utilization, 1.0, service_cv, max_utilization)


@dataclass(frozen=True)
class LatencyModel:
    """Configuration of the utilization → delay proxy.

    ``service_cv`` is the coefficient of variation of resource service
    times (1.0 = exponential/PS-insensitive, 0.0 = deterministic; its
    square is the service-time SCV of the G/G/1 literature — large values
    model heavy-tailed service); ``arrival_cv`` is the arrival-process CV
    (1.0 = Poisson, the default, which keeps the proxy exactly the
    M/G/1-PS Pollaczek–Khinchine shape; > 1 models bursty arrivals via the
    Allen–Cunneen G/G/1 approximation); ``max_utilization`` clamps the
    queueing formula's ``rho`` so saturated resources report a large finite
    delay instead of infinity; ``geography_seconds`` scales the
    deterministic region↔site base RTT derived from ring geometry, and
    ``min_rtt_seconds`` is its floor.  ``region_site_rtt_seconds``
    overrides the geometry with an explicit ``(regions, sites)`` base-RTT
    matrix.
    """

    service_cv: float = 1.0
    arrival_cv: float = 1.0
    max_utilization: float = 0.98
    geography_seconds: float = DEFAULT_GEOGRAPHY_SECONDS
    min_rtt_seconds: float = DEFAULT_MIN_RTT_SECONDS
    region_site_rtt_seconds: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.service_cv < 0:
            raise WorkloadError("service-time CV must be non-negative")
        if self.arrival_cv < 0:
            raise WorkloadError("arrival-process CV must be non-negative")
        if not 0 < self.max_utilization < 1:
            raise WorkloadError("the utilization clamp must be in (0, 1)")
        if self.geography_seconds < 0 or self.min_rtt_seconds < 0:
            raise WorkloadError("geometry delays must be non-negative")
        if self.region_site_rtt_seconds is not None:
            matrix = np.asarray(self.region_site_rtt_seconds, dtype=np.float64)
            if matrix.ndim != 2 or (matrix < 0).any():
                raise WorkloadError("base-RTT override must be a non-negative matrix")
            object.__setattr__(self, "region_site_rtt_seconds", matrix)

    def queueing_factor(self, utilization: np.ndarray) -> np.ndarray:
        """Mean wait in units of the mean service time, Allen–Cunneen shaped.

        See :func:`allen_cunneen_factor` (clamped at this model's
        ``max_utilization``), monotone increasing, zero at zero load; at
        the default ``arrival_cv = 1`` it is exactly the P-K factor earlier
        releases computed, bit for bit.
        """
        return allen_cunneen_factor(utilization, self.arrival_cv,
                                    self.service_cv, self.max_utilization)

    @classmethod
    def heavy_tailed(cls, *, service_scv: float = 16.0, **kwargs) -> "LatencyModel":
        """A G/G/1 proxy with heavy-tailed service (SCV ``service_scv``).

        ``service_scv`` is the *squared* CV of service times — 16 is a
        reasonable stand-in for the mice-and-elephants wire mix where a few
        huge transfers dominate the second moment.  Everything else passes
        through to the constructor.
        """
        if service_scv < 0:
            raise WorkloadError("the service-time SCV must be non-negative")
        return cls(service_cv=math.sqrt(service_scv), **kwargs)

    def base_rtt_matrix(self, regions: int, sites: int) -> np.ndarray:
        """Deterministic base RTT (seconds) between every region and site.

        Regions and sites are placed at staggered angles on a circle; the
        RTT is the floor plus the round-trip arc distance scaled by
        ``geography_seconds``.  Pure geometry — no randomness — so the same
        fleet shape always yields the same matrix.
        """
        if regions <= 0 or sites <= 0:
            raise WorkloadError("geometry needs at least one region and one site")
        if self.region_site_rtt_seconds is not None:
            matrix = self.region_site_rtt_seconds
            if matrix.shape != (regions, sites):
                raise WorkloadError(
                    f"base-RTT override is {matrix.shape}, scenario has "
                    f"({regions}, {sites})"
                )
            return matrix
        region_angle = (np.arange(regions) + 0.5) / regions
        site_angle = (np.arange(sites) + 0.25) / sites
        distance = np.abs(region_angle[:, np.newaxis] - site_angle[np.newaxis, :])
        distance = np.minimum(distance, 1.0 - distance)  # shorter way around
        return self.min_rtt_seconds + 2.0 * distance * self.geography_seconds


def _weighted_percentiles(values: np.ndarray, weights: np.ndarray,
                          quantiles: Sequence[float],
                          order: Optional[np.ndarray] = None) -> List[float]:
    """Percentiles of a client-weighted discrete distribution.

    Each flow is a group of identical clients sharing one delay, so the
    distribution is a weighted step function; the q-percentile is the
    smallest delay whose cumulative client share reaches q.  ``order`` is
    an optional precomputed ``argsort`` of ``values`` — callers evaluating
    several weightings of the same values pay for one sort.
    """
    if values.size == 0:
        return [0.0 for _ in quantiles]
    if order is None:
        order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    cumulative = np.cumsum(weights[order])
    total = cumulative[-1]
    if total <= 0:
        return [0.0 for _ in quantiles]
    picks = np.searchsorted(cumulative, np.asarray(quantiles) * total, side="left")
    picks = np.minimum(picks, values.size - 1)
    return [float(sorted_values[p]) for p in picks]


@dataclass(frozen=True)
class ClassLatency:
    """One demand class's client-weighted delay summary (seconds)."""

    name: str
    clients: int
    mean_seconds: float
    p50_seconds: float
    p95_seconds: float
    p99_seconds: float
    worst_seconds: float


@dataclass(frozen=True)
class LatencyResult:
    """Per-flow path delays plus the distributions campaigns report.

    ``flow_delay_seconds`` aligns with the template's flow arrays; the
    per-resource queueing delays are kept for diagnostics (which stage of
    the path is eating the budget).
    """

    flow_delay_seconds: np.ndarray
    group_clients: np.ndarray
    class_of: np.ndarray
    class_names: Tuple[str, ...]
    #: Queueing+service delay per resource, in capacity-vector order.
    resource_delay_seconds: np.ndarray

    @property
    def total_clients(self) -> int:
        """Clients covered by the distribution."""
        return int(self.group_clients.sum())

    def percentile(self, quantile: float) -> float:
        """Client-weighted path-delay percentile across every class."""
        return _weighted_percentiles(
            self.flow_delay_seconds, self.group_clients, [quantile]
        )[0]

    def percentiles(self, quantiles: Sequence[float]) -> List[float]:
        """Several client-weighted percentiles in one sorted pass."""
        return _weighted_percentiles(
            self.flow_delay_seconds, self.group_clients, quantiles
        )

    @property
    def mean_seconds(self) -> float:
        """Client-weighted mean path delay."""
        total = self.group_clients.sum()
        if total <= 0:
            return 0.0
        return float((self.flow_delay_seconds * self.group_clients).sum() / total)

    def slo_violation_fraction(self, slo_seconds: float) -> float:
        """Fraction of clients whose mean path delay exceeds the SLO."""
        if slo_seconds <= 0:
            raise WorkloadError("a latency SLO must be positive")
        total = self.group_clients.sum()
        if total <= 0:
            return 0.0
        over = self.flow_delay_seconds > slo_seconds
        return float(self.group_clients[over].sum() / total)

    def by_class(self) -> Dict[str, ClassLatency]:
        """Client-weighted delay summaries, one per demand class.

        The neutrality check in numbers: a neutral domain shows comparable
        per-class rows; a discriminated class shows a displaced tail.
        """
        out: Dict[str, ClassLatency] = {}
        for index, name in enumerate(self.class_names):
            members = self.class_of == index
            delays = self.flow_delay_seconds[members]
            clients = self.group_clients[members]
            total = clients.sum()
            if total <= 0:
                out[name] = ClassLatency(name, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
                continue
            p50, p95, p99 = _weighted_percentiles(delays, clients, (0.50, 0.95, 0.99))
            out[name] = ClassLatency(
                name=name,
                clients=int(total),
                mean_seconds=float((delays * clients).sum() / total),
                p50_seconds=p50,
                p95_seconds=p95,
                p99_seconds=p99,
                worst_seconds=float(delays.max()),
            )
        return out


def resource_delays(model: LatencyModel, utilization: np.ndarray,
                    service_seconds: np.ndarray) -> np.ndarray:
    """Mean sojourn (service + P-K wait) per resource, vectorized.

    ``service_seconds`` is each resource's mean service time; zero-service
    resources (nothing crossing them) contribute zero delay.
    """
    return service_seconds * (1.0 + model.queueing_factor(utilization))


def evaluate_latency(template, epoch, allocation, model: LatencyModel) -> LatencyResult:
    """Compose per-flow path delays from one solved epoch.

    ``template`` is the :class:`repro.scale.scenario.ProblemTemplate` the
    epoch was instantiated from, ``epoch`` its
    :class:`repro.scale.scenario.EpochProblem`, ``allocation`` the solved
    :class:`repro.scale.solver.Allocation`.  One O(resources + flows) pass:

    * per-resource utilization from the allocation;
    * per-resource mean service times from the traffic mix actually
      crossing each resource (packet-weighted mean wire bits over the link
      rate for uplinks; the calibrated per-packet cost over the cores for
      site CPUs);
    * per-flow delay = base RTT(region, site) + regional-uplink sojourn +
      site-uplink sojourn + site-CPU sojourn.
    """
    problem = epoch.problem
    regions, sites = template.regions, template.sites
    utilization = allocation.utilization(problem)

    # Packets/s each flow pushes (rate is bps per client; group size scales).
    flow_pps = allocation.rates * template.group_clients / template.bits_per_packet
    flow_bps = allocation.rates * template.group_clients

    def mean_service(bps_by: np.ndarray, pps_by: np.ndarray,
                     capacity: np.ndarray) -> np.ndarray:
        """Mean packet transmission time on a link: mean bits / rate."""
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_bits = np.where(pps_by > 0, bps_by / pps_by, 0.0)
            service = np.where(capacity > 0, mean_bits / capacity, 0.0)
        return service

    region_bps = np.bincount(template.region_of, weights=flow_bps, minlength=regions)
    region_pps = np.bincount(template.region_of, weights=flow_pps, minlength=regions)
    site_bps = np.bincount(template.site_of, weights=flow_bps, minlength=sites)
    site_pps = np.bincount(template.site_of, weights=flow_pps, minlength=sites)

    capacities = problem.capacities
    region_capacity = capacities[:regions]
    uplink_capacity = capacities[regions:regions + sites]
    cpu_capacity = capacities[regions + sites:]

    with np.errstate(divide="ignore", invalid="ignore"):
        # CPU: the calibrated per-packet cost over the site's core budget.
        cpu_service = np.where(
            cpu_capacity > 0,
            template.fleet.cost_model.data_packet_cost_seconds
            / np.where(cpu_capacity > 0, cpu_capacity, 1.0),
            0.0,
        )
    service = np.concatenate([
        mean_service(region_bps, region_pps, region_capacity),
        mean_service(site_bps, site_pps, uplink_capacity),
        cpu_service,
    ])
    per_resource = resource_delays(model, utilization, service)

    base_rtt = model.base_rtt_matrix(regions, sites)
    flow_delay = (
        base_rtt[template.region_of, template.site_of]
        + per_resource[template.region_of]
        + per_resource[regions + template.site_of]
        + per_resource[regions + sites + template.site_of]
    )
    return LatencyResult(
        flow_delay_seconds=flow_delay,
        group_clients=template.group_clients,
        class_of=template.class_of,
        class_names=tuple(template.population.mix.names),
        resource_delay_seconds=per_resource,
    )
