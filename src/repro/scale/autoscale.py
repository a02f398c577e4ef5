"""Closed-loop autoscaling of the neutralizer fleet.

The paper's scaling story (§4 of the HotNets paper: per-box crypto cost ×
anycast spread) is usually read as a *static* provisioning exercise; this
module closes the loop instead.  A fleet is built with spare, drained sites
(:func:`elastic_fleet`), and each epoch of a
:class:`repro.scale.timeline.FluidTimeline` run the controller observes the
previous epoch's utilization and commissions or drains sites through the
consistent-hash ring — paying real churn (remapped clients re-do key setup)
and real dollars (:class:`repro.scale.costmodel.ProvisioningCostModel`) for
every decision.

Three stock policies cover the classic control shapes:

:class:`TargetUtilizationPolicy`
    Proportional control toward a utilization set point, with a deadband so
    steady load does not flap.
:class:`StepPolicy`
    Threshold/hysteresis control: step up above ``high``, step down below
    ``low``, hold inside the band.
:class:`PredictiveLoadPolicy`
    Feed-forward from the scenario's load curve: scales the observed
    utilization by the forecast demand ``lead_epochs`` ahead, so capacity
    lands when the diurnal peak does rather than one warm-up late.
:class:`TargetLatencyPolicy`
    Set-point control on the *latency SLO itself*: inverts the queueing
    proxy of :mod:`repro.scale.latency` to find the utilization at which
    the observed P95 path delay would sit on target, and sizes the fleet
    for it.

The split between :class:`Autoscaler` (the frozen configuration: policy,
bounds, warm-up and cooldown) and :class:`AutoscaleRun` (the mutable per-run
state: the warming queue, the activation order, the cooldown clock) keeps
timelines re-runnable — ``FluidTimeline.run()`` builds a fresh
:class:`AutoscaleRun` every time, exactly as it restores fleet health.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from ..exceptions import WorkloadError
from .costmodel import CryptoCostModel
from .fleet import FleetSite, NeutralizerFleet
from .population import ClientPopulation
from .telemetry import NULL, Telemetry

#: A demand forecast: offered-demand multiplier (1.0 = the population's
#: nominal busy instant) ``lead`` epochs ahead of the current one.
Forecast = Callable[[int], float]


@dataclass(frozen=True)
class EpochMetrics:
    """The solved operating point of one epoch, as the controller measures it.

    Produced by the timeline after every solve and consumed one epoch later
    (real controllers read yesterday's telemetry too).  Utilization is the
    per-site max of CPU and uplink load, summarized over the
    ``served_sites`` that were actually in service when it was measured.
    """

    served_sites: int
    mean_utilization: float
    peak_utilization: float
    delivered_fraction: float
    #: Offered demand relative to the population's nominal busy instant.
    demand_multiplier: float
    #: Client-weighted P95 path delay of the measured epoch (0.0 when the
    #: timeline runs without a latency model).
    latency_p95_seconds: float = 0.0
    #: Neutralizer-adoption fraction in effect in the measured epoch (0.0
    #: without an adversary game) — adoption waves bring key-setup load, so
    #: capacity policies may want to see them coming.
    adoption_fraction: float = 0.0


@dataclass(frozen=True)
class AutoscaleObservation:
    """What a policy decides from: lagged measurements plus current commitment.

    ``served_sites`` and the utilizations describe the *previous* epoch's
    operating point (the basis for inverting toward a utilization target);
    ``committed`` is the *current* paid-for fleet — in-service plus warming —
    which is what "hold" decisions should return, so capacity already on its
    way is not ordered twice.
    """

    epoch: int
    #: Sites that served the measured epoch (basis of the utilizations).
    served_sites: int
    #: Sites currently paid for: in service plus warming.
    committed: int
    #: Mean over serving sites of max(CPU, uplink) utilization.
    mean_utilization: float
    #: Max over serving sites of max(CPU, uplink) utilization.
    peak_utilization: float
    delivered_fraction: float
    #: Offered demand relative to the population's nominal busy instant.
    demand_multiplier: float
    #: Client-weighted P95 path delay of the measured epoch (0.0 = no
    #: latency model; latency-aware policies must hold in that case).
    latency_p95_seconds: float = 0.0
    #: Neutralizer-adoption fraction of the measured epoch (0.0 = no
    #: adversary game running).
    adoption_fraction: float = 0.0


class AutoscalePolicy:
    """Strategy interface: how many sites should be committed next epoch."""

    #: The furthest lead, in epochs, at which :meth:`desired_sites` reads
    #: its forecast; 0 for a policy that never calls it.
    forecast_lead = 0

    def desired_sites(self, observation: AutoscaleObservation,
                      forecast: Forecast) -> int:
        """Target committed-site count (clamped to bounds by the engine).

        The contract every policy keeps: the answer is a function of the
        observation less its ``epoch``, and of the forecast only when
        :attr:`forecast_lead` says so (then of ``forecast(lead)`` for leads
        up to it).  Two ticks that observe the same fleet, the same lagged
        metrics and the same forecast therefore decide the same, which is
        what lets a timeline advance over a resting stretch without asking
        again.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class TargetUtilizationPolicy(AutoscalePolicy):
    """Drive mean utilization toward ``target``, ignoring a ``deadband``.

    The set-point inversion ``in_service × utilization / target`` is exact
    for the homogeneous fleets :func:`elastic_fleet` builds (consistent
    hashing spreads clients near-uniformly); the deadband keeps steady load
    from flapping one site up and down around the fixed point.
    """

    target: float = 0.6
    deadband: float = 0.08

    def __post_init__(self) -> None:
        if not 0 < self.target <= 1:
            raise WorkloadError("utilization target must be in (0, 1]")
        if not 0 <= self.deadband < self.target:
            raise WorkloadError("deadband must be non-negative and below the target")

    def desired_sites(self, observation: AutoscaleObservation,
                      forecast: Forecast) -> int:
        utilization = observation.mean_utilization
        if abs(utilization - self.target) <= self.deadband:
            return observation.committed
        return math.ceil(observation.served_sites * utilization / self.target)


@dataclass(frozen=True)
class StepPolicy(AutoscalePolicy):
    """Hysteresis control: ``step`` up above ``high``, down below ``low``.

    The band between the thresholds is the hysteresis that keeps the fleet
    from oscillating when load sits near one threshold; peak (not mean)
    utilization is used so a single hot site is enough to trigger growth.
    """

    high: float = 0.8
    low: float = 0.35
    step: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.low < self.high:
            raise WorkloadError("step policy needs 0 <= low < high")
        if self.step < 1:
            raise WorkloadError("step size must be at least one site")

    def desired_sites(self, observation: AutoscaleObservation,
                      forecast: Forecast) -> int:
        if observation.peak_utilization > self.high:
            return observation.committed + self.step
        if observation.peak_utilization < self.low:
            return observation.committed - self.step
        return observation.committed


@dataclass(frozen=True)
class PredictiveLoadPolicy(AutoscalePolicy):
    """Feed-forward from the load curve: provision for ``lead_epochs`` ahead.

    Reactive policies are always one warm-up late on a rising edge; this one
    multiplies the observed utilization by the forecast demand ratio so the
    scale-up is issued *before* the peak arrives.  With ``lead_epochs`` equal
    to the autoscaler's warm-up, capacity lands exactly when the load does.
    """

    target: float = 0.6
    lead_epochs: int = 2
    deadband: float = 0.05

    def __post_init__(self) -> None:
        if not 0 < self.target <= 1:
            raise WorkloadError("utilization target must be in (0, 1]")
        if self.lead_epochs < 1:
            raise WorkloadError("predictive policy needs lead_epochs >= 1")
        if not 0 <= self.deadband < self.target:
            raise WorkloadError("deadband must be non-negative and below the target")

    @property
    def forecast_lead(self) -> int:
        """The policy reads ``forecast(lead_epochs)``."""
        return self.lead_epochs

    def desired_sites(self, observation: AutoscaleObservation,
                      forecast: Forecast) -> int:
        current = max(observation.demand_multiplier, 1e-9)
        expected = observation.mean_utilization * forecast(self.lead_epochs) / current
        if abs(expected - self.target) <= self.deadband:
            return observation.committed
        return math.ceil(observation.served_sites * expected / self.target)


@dataclass(frozen=True)
class TargetLatencyPolicy(AutoscalePolicy):
    """Drive the client-weighted P95 path delay toward a target.

    Queueing delay is convex in utilization, so the controller works in
    utilization space: from the observed (P95 delay, mean utilization) pair
    it infers the epoch's base (uncongestible) delay under the proxy's
    M/G/1 shape, inverts the same shape to find the utilization at which
    the P95 would sit exactly on target, and scales the serving-site count
    proportionally — the latency twin of
    :class:`TargetUtilizationPolicy`'s set-point inversion.
    ``utilization_ceiling`` refuses scale-downs that would push utilization
    into the saturated regime even when the latency headroom looks large
    (base-delay-dominated paths tolerate high utilization right up until
    they do not); ``deadband_fraction`` keeps on-target epochs from
    flapping.  Without latency telemetry (no model attached) the policy
    holds the committed fleet.
    """

    target_p95_seconds: float = 0.08
    deadband_fraction: float = 0.15
    utilization_ceiling: float = 0.9
    #: Service-time/arrival CVs and utilization clamp assumed by the
    #: inversion; match the timeline's
    #: :class:`repro.scale.latency.LatencyModel` (its ``service_cv`` /
    #: ``arrival_cv`` / ``max_utilization``) for an exact inverse — a
    #: mismatched clamp mis-splits the observed P95 into base vs queueing
    #: exactly in the saturated regime the policy exists to escape.
    service_cv: float = 1.0
    arrival_cv: float = 1.0
    max_utilization: float = 0.98
    #: Actuator deadband: corrections of at most this many sites are held.
    #: Ring membership itself moves the measured P95 (reassigned clients
    #: change their geometric base RTT), so single-site nudges can chase
    #: their own tail forever on small or noisy fleets.
    hold_sites: int = 1
    #: Fraction of the computed correction applied per action.  The
    #: utilization inversion ignores the *geometric* response of the P95 to
    #: membership (more sites = shorter base RTTs), so a full-gain
    #: correction overshoots and limit-cycles; half-gain converges on the
    #: same fixed point without the ringing.
    gain: float = 0.5

    def __post_init__(self) -> None:
        if self.target_p95_seconds <= 0:
            raise WorkloadError("the latency target must be positive")
        if not 0 <= self.deadband_fraction < 1:
            raise WorkloadError("the deadband must be a fraction in [0, 1)")
        if not 0 < self.utilization_ceiling < 1:
            raise WorkloadError("the utilization ceiling must be in (0, 1)")
        if self.service_cv < 0:
            raise WorkloadError("service-time CV must be non-negative")
        if self.arrival_cv < 0:
            raise WorkloadError("arrival-process CV must be non-negative")
        if not 0 < self.max_utilization < 1:
            raise WorkloadError("the utilization clamp must be in (0, 1)")
        if self.hold_sites < 0:
            raise WorkloadError("the actuator deadband must be non-negative")
        if not 0 < self.gain <= 1:
            raise WorkloadError("the controller gain must be in (0, 1]")

    @classmethod
    def for_model(cls, model, **kwargs) -> "TargetLatencyPolicy":
        """A policy calibrated to a :class:`repro.scale.latency.LatencyModel`.

        Copies the model's ``service_cv``, ``arrival_cv`` and
        ``max_utilization`` so the inversion is the exact inverse of the
        proxy that produced the telemetry; every other knob passes through
        ``kwargs``.
        """
        return cls(service_cv=model.service_cv,
                   arrival_cv=getattr(model, "arrival_cv", 1.0),
                   max_utilization=model.max_utilization, **kwargs)

    def _queue_factor(self, rho: float) -> float:
        from .latency import allen_cunneen_factor

        return float(allen_cunneen_factor(
            rho, self.arrival_cv, self.service_cv, self.max_utilization
        ))

    def desired_sites(self, observation: AutoscaleObservation,
                      forecast: Forecast) -> int:
        observed = observation.latency_p95_seconds
        if observed <= 0:
            return observation.committed  # no telemetry: hold, never guess
        rho = min(max(observation.mean_utilization, 0.0), self.max_utilization)
        # Split the observed P95 into base delay and queueing under the
        # proxy's shape: observed = base x (1 + qf(rho)) approximately,
        # since queueing delay scales with the same service times that set
        # the transmission part of the base.
        base = observed / (1.0 + self._queue_factor(rho))
        target = self.target_p95_seconds
        if abs(observed - target) <= target * self.deadband_fraction:
            return observation.committed
        if target <= base:
            # The target is below what geography alone costs: run at the
            # ceiling — more sites cannot shorten the speed of light.
            rho_star = self.utilization_ceiling
        else:
            # Invert qf(rho*) = target/base - 1 for the utilization that
            # lands the P95 on target, then cap at the ceiling.
            need = target / base - 1.0
            shape = (self.arrival_cv ** 2 + self.service_cv ** 2) / 2.0
            rho_star = min(need / (need + shape), self.utilization_ceiling)
        rho_star = max(rho_star, 1e-3)
        desired = math.ceil(observation.served_sites * rho / rho_star)
        correction = round((desired - observation.committed) * self.gain)
        if abs(correction) <= self.hold_sites:
            return observation.committed
        return observation.committed + correction


@dataclass(frozen=True)
class Autoscaler:
    """The frozen controller configuration a timeline runs with.

    ``min_sites``/``max_sites`` bound the *committed* fleet (in-service plus
    warming); ``warmup_epochs`` is the provisioning lag between a scale-up
    decision and the site joining the ring (0 = instant); ``cooldown_epochs``
    is how many epochs the controller holds still after acting, the standard
    guard against control-loop ringing.  ``max_sites=None`` means the whole
    fleet (every site, drained spares included) is available.
    """

    policy: AutoscalePolicy
    min_sites: int = 1
    max_sites: Optional[int] = None
    warmup_epochs: int = 1
    cooldown_epochs: int = 0

    def __post_init__(self) -> None:
        if self.min_sites < 1:
            raise WorkloadError("autoscaler needs min_sites >= 1")
        if self.max_sites is not None and self.max_sites < self.min_sites:
            raise WorkloadError("autoscaler needs max_sites >= min_sites")
        if self.warmup_epochs < 0 or self.cooldown_epochs < 0:
            raise WorkloadError("warm-up and cooldown must be non-negative")


class AutoscaleRun:
    """Mutable controller state for one timeline run.

    Owns the warming queue (site → epoch it becomes ready), the LIFO
    activation order used to pick drain victims, and the cooldown clock.
    Created by ``FluidTimeline.run()`` so that re-running a timeline starts
    from a clean controller, mirroring the fleet-health restore.
    """

    def __init__(self, spec: Autoscaler, fleet: NeutralizerFleet,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.spec = spec
        self.fleet = fleet
        #: Observation only: counts actions by kind, never steers them.
        self.telemetry = telemetry if telemetry is not None else NULL
        self.max_sites = min(spec.max_sites or fleet.n_sites, fleet.n_sites)
        self.min_sites = min(spec.min_sites, self.max_sites)
        #: site name -> epoch at which its warm-up completes.
        self.warming: Dict[str, int] = {}
        #: Active sites, oldest first; drains pop from the end (LIFO).
        self.active_order: List[str] = [
            site.name for site in fleet.sites if site.active
        ]
        self.cooldown_until = 0
        #: What the last tick leaves for :meth:`next_move`.
        self._quiet_until: Optional[int] = 0

    # -- bookkeeping -----------------------------------------------------------------

    @property
    def committed(self) -> int:
        """Sites being paid for: in service, plus warming ones."""
        return self._in_service_count() + len(self.warming)

    def _in_service_count(self) -> int:
        return self.fleet.n_in_service

    def _spare_candidates(self) -> List[str]:
        """Healthy, drained, not-yet-warming sites, in stable site order."""
        return [
            site.name for site in self.fleet.sites
            if site.healthy and not site.active and site.name not in self.warming
        ]

    # -- live reconfiguration --------------------------------------------------------

    def reconfigure(self, *, policy: Optional[AutoscalePolicy] = None,
                    min_sites: Optional[int] = None,
                    max_sites: Optional[int] = None) -> None:
        """Swap the policy and/or bounds mid-run (a committed reconfig event).

        The spec is rebuilt through :class:`Autoscaler`'s own validators, so
        an inconsistent swap (``min_sites > max_sites``) fails before any
        state changes; the effective bounds are re-clamped to the fleet like
        at construction.  Warming queue, activation order and the cooldown
        clock carry over — an operator retunes the controller, not the fleet.
        """
        updates: Dict[str, object] = {}
        if policy is not None:
            updates["policy"] = policy
        if min_sites is not None:
            updates["min_sites"] = min_sites
        if max_sites is not None:
            updates["max_sites"] = max_sites
        if not updates:
            return
        spec = replace(self.spec, **updates)
        self.spec = spec
        self.max_sites = min(spec.max_sites or self.fleet.n_sites,
                             self.fleet.n_sites)
        self.min_sites = min(spec.min_sites, self.max_sites)

    def note_external_activation(self, name: str) -> None:
        """Register a site an operator activated outside the controller."""
        self.warming.pop(name, None)
        if name not in self.active_order:
            self.active_order.append(name)

    def note_external_drain(self, name: str) -> None:
        """Register a site an operator drained outside the controller."""
        self.warming.pop(name, None)
        if name in self.active_order:
            self.active_order.remove(name)

    # -- the control step ------------------------------------------------------------

    def step(self, epoch: int, metrics: Optional[EpochMetrics],
             forecast: Forecast) -> List[str]:
        """One controller tick at the top of ``epoch``.

        Completes due warm-ups, then (outside cooldown, once a previous
        epoch's :class:`EpochMetrics` exists) asks the policy for a
        committed-site target and commissions or drains toward it.  Returns
        human-readable action labels for the epoch record.
        """
        actions: List[str] = []
        for name in [n for n, ready in self.warming.items() if epoch >= ready]:
            del self.warming[name]
            # A spare that failed while warming is still commissioned (it is
            # paid for and counts toward committed once repaired), but it
            # does not enter the ring, so the action log must not claim it
            # went live.
            healthy = self.fleet.site(name).healthy
            self.fleet.activate_site(name)
            self.active_order.append(name)
            actions.append(f"up {name} live" if healthy else f"up {name} failed")

        if metrics is None or epoch < self.cooldown_until:
            # The policy is not asked: the next epoch, once it has metrics,
            # or the cooldown's end may act.
            self._quiet_until = (epoch + 1 if actions or self.warming
                                 or metrics is None else self.cooldown_until)
            self._count_actions(actions)
            return actions

        observation = AutoscaleObservation(
            epoch=epoch,
            served_sites=metrics.served_sites,
            committed=self.committed,
            mean_utilization=metrics.mean_utilization,
            peak_utilization=metrics.peak_utilization,
            delivered_fraction=metrics.delivered_fraction,
            demand_multiplier=metrics.demand_multiplier,
            latency_p95_seconds=metrics.latency_p95_seconds,
            adoption_fraction=metrics.adoption_fraction,
        )
        desired = self.spec.policy.desired_sites(observation, forecast)
        desired = max(self.min_sites, min(desired, self.max_sites))
        committed = self.committed
        decided = len(actions)  # warm-up completions don't restart cooldown
        if desired > committed:
            self._scale_up(epoch, desired - committed, actions)
        elif desired < committed:
            self._scale_down(committed - desired, actions)
        if len(actions) > decided:
            self.cooldown_until = epoch + 1 + self.spec.cooldown_epochs
        # A policy that held would hold again on the same observation.
        self._quiet_until = epoch + 1 if actions or self.warming else None
        self._count_actions(actions)
        return actions

    def next_move(self) -> Optional[int]:
        """The first epoch at which the controller could act again, if
        every tick from its last one on observes what that one did.

        A tick that asked the policy and held would hold again (see
        :meth:`AutoscalePolicy.desired_sites`), so that is ``None``: never.
        A tick in cooldown answers the cooldown's end; one that acted, that
        left a site warming or that had no metrics answers the next epoch.
        """
        return self._quiet_until

    def _count_actions(self, actions: List[str]) -> None:
        telemetry = self.telemetry
        telemetry.inc("autoscale.actions", len(actions))
        for label in actions:
            if label.startswith("up "):
                telemetry.inc("autoscale.scale_ups")
            elif label.startswith("drain "):
                telemetry.inc("autoscale.drains")
            elif label.startswith("cancel "):
                telemetry.inc("autoscale.cancels")

    def _scale_up(self, epoch: int, count: int, actions: List[str]) -> None:
        for name in self._spare_candidates()[:count]:
            if self.spec.warmup_epochs == 0:
                self.fleet.activate_site(name)
                self.active_order.append(name)
                actions.append(f"up {name} live")
            else:
                self.warming[name] = epoch + self.spec.warmup_epochs
                actions.append(f"up {name} warming")

    def _scale_down(self, count: int, actions: List[str]) -> None:
        # Cancelling a warm-up is free (the site never joined the ring), so
        # newest warm-ups go first; then drain serving sites LIFO, failed
        # ones first — they contribute nothing, so dropping them costs no
        # churn and frees budget for a healthy replacement.
        for name in list(reversed(self.warming))[:count]:
            del self.warming[name]
            actions.append(f"cancel {name}")
            count -= 1
        if count <= 0:
            return
        failed_active = [name for name in self.active_order
                         if not self.fleet.site(name).healthy]
        healthy_active = [name for name in self.active_order
                          if self.fleet.site(name).healthy]
        victims = (failed_active[::-1] + healthy_active[::-1])[:count]
        for name in victims:
            if self._in_service_count() <= 1 and self.fleet.site(name).in_service:
                break  # never drain the last serving site
            self.fleet.drain_site(name)
            self.active_order.remove(name)
            actions.append(f"drain {name}")


def elastic_fleet(
    population: ClientPopulation,
    max_sites: int,
    *,
    nominal_sites: int,
    at_utilization: float = 0.65,
    cost_model: Optional[CryptoCostModel] = None,
) -> NeutralizerFleet:
    """A homogeneous fleet with drained spares, sized for autoscaling.

    Each site's CPU and uplink budget is fixed so that ``nominal_sites``
    in-service sites carry the population's nominal busy-instant demand at
    ``at_utilization`` — the autoscaler's working range, provisioned relative
    to the population like :func:`repro.scale.catalogue.provisioned_fleet`.
    The first ``nominal_sites`` sites start active; the rest are drained
    spares the controller can commission.
    """
    from .catalogue import nominal_demand

    if max_sites <= 0 or not 0 < nominal_sites <= max_sites:
        raise WorkloadError("elastic fleet needs 0 < nominal_sites <= max_sites")
    if not 0 < at_utilization <= 1:
        raise WorkloadError("nominal operating utilization must be in (0, 1]")
    model = cost_model or CryptoCostModel.default()
    total_bps, total_pps = nominal_demand(population)
    per_site_uplink = total_bps / (nominal_sites * at_utilization)
    per_site_cores = total_pps * model.data_packet_cost_seconds / (
        nominal_sites * at_utilization
    )
    sites = [
        FleetSite(
            f"site{i:02d}",
            cores=max(per_site_cores, 1e-6),
            uplink_bps=max(per_site_uplink, 1.0),
            active=i < nominal_sites,
        )
        for i in range(max_sites)
    ]
    return NeutralizerFleet(sites, cost_model=model)
