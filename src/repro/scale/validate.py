"""Cross-validation of the fluid model against the packet-level simulator.

Both simulators run the *same* small scenario — the neutralized dumbbell of
:func:`repro.analysis.scenarios.build_scale_validation_scenario`: N clients
behind one access ISP, a shared bottleneck, one server behind the
neutralizer.  Two quantities are checked:

*Goodput* (:func:`cross_validate`): the packet-level run measures
steady-state goodput at the server; the fluid side builds the equivalent
one-resource :class:`repro.scale.solver.CapacityProblem` using the
*measured* wire bytes per packet (so shim and envelope overhead enter both
models identically) and solves it with max-min fairness.  Agreement within
10 % on both the congested and the uncongested regime is an acceptance
criterion of the subsystem — it is what licenses extrapolating the fluid
model to populations the event engine cannot touch.

*Latency* (:func:`cross_validate_latency`): Poisson client sources run the
same dumbbell below saturation while every data packet's one-way delay is
measured at the server (send times matched FIFO per source — the path is
order-preserving and the regime is loss-free, which the harness asserts).
The proxy side composes the same path from per-hop transmission and
propagation plus the :class:`repro.scale.latency.LatencyModel`
Pollaczek–Khinchine term at each hop's measured utilization.  Agreement
within 15 % on a lightly- and a heavily-loaded transient is the acceptance
criterion of the latency subsystem (PR 4) — the queueing term is what is
being validated, so the loaded arm is tuned to make it a material share of
the path delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..analysis.report import ExperimentReport
from ..exceptions import WorkloadError
from ..packet.builder import udp_packet
from ..packet.headers import IPV4_HEADER_LEN, UDP_HEADER_LEN
from ..units import BITS_PER_BYTE
from .latency import LatencyModel
from .solver import CapacityProblem, max_min_allocation

#: Server port the validation traffic targets.
_VALIDATION_PORT = 46000
#: Settling time before and measurement guard after the sources run.
_PRIME_SECONDS = 1.0
_WARMUP_SECONDS = 0.5
_DRAIN_SECONDS = 2.0


class _ToleranceReporting:
    """Shared tolerance/failure plumbing of both validation results.

    Subclasses carry ``arms`` (each with ``relative_error`` and
    ``describe_disagreement(tolerance)``) and an acceptance ``tolerance``;
    everything downstream — the worst error, the pass/fail verdict, and
    the per-arm failure descriptions naming the arm and the side that is
    off — is identical between the goodput and the latency validation and
    lives here once.
    """

    @property
    def max_relative_error(self) -> float:
        """Worst disagreement across arms (acceptance: ≤ ``tolerance``)."""
        return max(arm.relative_error for arm in self.arms)

    @property
    def within_tolerance(self) -> bool:
        """Whether every arm agreed within the acceptance bound."""
        return self.max_relative_error <= self.tolerance

    @property
    def failures(self) -> List[str]:
        """Per-arm descriptions of every tolerance violation (empty = pass),
        each naming the arm and which side was high or low."""
        return [arm.describe_disagreement(self.tolerance) for arm in self.arms
                if arm.relative_error > self.tolerance]

    def failure_message(self) -> str:
        """One line summarizing which arm(s) exceeded tolerance and how."""
        return "; ".join(self.failures)

    def note_failures(self) -> None:
        """Append one report note per tolerance violation."""
        for failure in self.failures:
            self.report.add_note(f"TOLERANCE EXCEEDED: {failure}")


@dataclass
class ValidationArm:
    """One regime of the shared scenario, measured both ways."""

    name: str
    offered_pps: float
    packet_goodput_pps: float
    fluid_goodput_pps: float
    wire_bytes_per_packet: float

    @property
    def relative_error(self) -> float:
        """|packet − fluid| over the packet-level measurement.

        A zero measurement is a broken scenario, not a disagreement: the
        error is undefined, and silently returning infinity used to bury
        the real problem under a tolerance failure.
        """
        if self.packet_goodput_pps <= 0:
            raise WorkloadError(
                f"{self.name} arm of the scale-validation dumbbell scenario "
                f"measured zero packet-level goodput (offered "
                f"{self.offered_pps:g} pps) — the relative error would "
                f"divide by zero; raise the offered rate or the run duration"
            )
        return abs(self.packet_goodput_pps - self.fluid_goodput_pps) / self.packet_goodput_pps

    def describe_disagreement(self, tolerance: float) -> str:
        """Name the arm *and the side that is off* — 'rel. error 0.13' alone
        does not say whether the fluid model over- or under-shot which
        regime, which is the first thing a debugging session needs."""
        side = ("fluid high" if self.fluid_goodput_pps > self.packet_goodput_pps
                else "fluid low")
        return (
            f"{self.name} arm: packet-level {self.packet_goodput_pps:.1f} pps "
            f"vs fluid {self.fluid_goodput_pps:.1f} pps ({side} by "
            f"{self.relative_error:.1%}, tolerance {tolerance:.0%})"
        )


@dataclass
class CrossValidationResult(_ToleranceReporting):
    """Both arms plus the rendered comparison table."""

    arms: List[ValidationArm]
    report: ExperimentReport
    #: Acceptance bound on the per-arm relative error.
    tolerance: float = 0.10


def _run_packet_arm(*, clients: int, rate_pps: float, payload_bytes: int,
                    bottleneck_rate_bps: float, duration_seconds: float,
                    seed: int) -> ValidationArm:
    """Run one regime through the event engine and measure steady goodput."""
    from ..analysis.scenarios import build_scale_validation_scenario
    from ..apps.workloads import ConstantRateSource

    scenario = build_scale_validation_scenario(
        clients=clients, bottleneck_rate_bps=bottleneck_rate_bps, seed=seed
    )
    topology = scenario.topology
    server = scenario.server

    arrivals: List[float] = []
    server.register_port_handler(
        _VALIDATION_PORT, lambda packet, host: arrivals.append(host.sim.now)
    )

    # Prime every client's key setup so the measurement window sees only the
    # steady data path (the fluid model has no notion of setup transients).
    for name in scenario.client_names:
        host = topology.host(name)
        host.send(udp_packet(host.address, server.address, b"prime",
                             destination_port=_VALIDATION_PORT))
    topology.run(_PRIME_SECONDS)

    stats = scenario.bottleneck_stats()
    packets_before, bytes_before = stats.packets_sent, stats.bytes_sent
    primed = len(arrivals)

    sources = [
        ConstantRateSource(
            topology.host(name), server.address, packets_per_second=rate_pps,
            payload_bytes=payload_bytes, destination_port=_VALIDATION_PORT,
            flow_id=f"fluid-check-{name}",
        )
        for name in scenario.client_names
    ]
    for source in sources:
        source.start(duration_seconds)
    start_time = topology.sim.now
    topology.run(duration_seconds + _DRAIN_SECONDS)

    wire_packets = stats.packets_sent - packets_before
    wire_bytes = stats.bytes_sent - bytes_before
    if wire_packets <= 0:
        raise WorkloadError("no validation traffic crossed the bottleneck")
    wire_bytes_per_packet = wire_bytes / wire_packets

    # Steady-state window: skip the pipeline-fill transient, stop when the
    # sources stop (queued packets past that point belong to no rate).
    window_start = start_time + _WARMUP_SECONDS
    window_end = start_time + duration_seconds
    delivered = sum(1 for at in arrivals[primed:] if window_start < at <= window_end)
    goodput_pps = delivered / (window_end - window_start)

    fluid_goodput = _solve_fluid_arm(
        clients=clients, rate_pps=rate_pps,
        wire_bits=wire_bytes_per_packet * 8.0,
        bottleneck_rate_bps=bottleneck_rate_bps,
    )
    return ValidationArm(
        name="congested" if rate_pps * clients * wire_bytes_per_packet * 8.0
             > bottleneck_rate_bps else "unloaded",
        offered_pps=rate_pps * clients,
        packet_goodput_pps=goodput_pps,
        fluid_goodput_pps=fluid_goodput,
        wire_bytes_per_packet=wire_bytes_per_packet,
    )


def _solve_fluid_arm(*, clients: int, rate_pps: float, wire_bits: float,
                     bottleneck_rate_bps: float) -> float:
    """The same scenario as a one-bottleneck max-min problem."""
    problem = CapacityProblem(
        demands=np.full(clients, rate_pps),
        usage=np.full((1, clients), wire_bits),
        capacities=np.array([bottleneck_rate_bps]),
        flow_labels=[f"client{i}" for i in range(clients)],
        resource_labels=["bottleneck"],
    )
    allocation = max_min_allocation(problem)
    goodput = float(allocation.rates.sum())
    if goodput <= 0:
        raise WorkloadError(
            f"the fluid arm of the scale-validation dumbbell scenario served "
            f"zero demand ({clients} clients at {rate_pps:g} pps against "
            f"{bottleneck_rate_bps:g} b/s) — nothing to validate against; "
            f"check the offered rate and the bottleneck capacity"
        )
    return goodput


def cross_validate(
    *, duration_seconds: float = 4.0, seed: int = 2006
) -> CrossValidationResult:
    """Run both regimes both ways and tabulate the agreement.

    Four clients send 200 B payloads across a 600 kb/s bottleneck, at
    25 pps each (unloaded) and at 90 pps each (congested).
    """
    arms = [
        _run_packet_arm(
            clients=4, rate_pps=rate, payload_bytes=200,
            bottleneck_rate_bps=600_000.0,
            duration_seconds=duration_seconds, seed=seed,
        )
        for rate in (25.0, 90.0)
    ]
    report = ExperimentReport(
        "E12v", "Fluid vs packet-level goodput on the shared dumbbell scenario"
    )
    report.add_table(
        ["regime", "offered pps", "packet-level pps", "fluid pps",
         "wire B/pkt", "rel. error"],
        [[arm.name, arm.offered_pps, arm.packet_goodput_pps, arm.fluid_goodput_pps,
          arm.wire_bytes_per_packet, arm.relative_error] for arm in arms],
    )
    report.add_note(
        "the fluid model uses the measured wire bytes per packet, so shim and "
        "envelope overhead cancel; agreement within 10 % licenses the "
        "million-client extrapolation"
    )
    result = CrossValidationResult(arms=arms, report=report)
    result.note_failures()
    return result


# ---------------------------------------------------------------------------
# Latency proxy vs packet-level delay (PR 4 acceptance: within 15 %)
# ---------------------------------------------------------------------------


class _TimestampedPoissonSource:
    """A Poisson UDP packet train that logs every send time.

    Deliberately local to the validation harness: the stock workload
    sources do not expose per-packet send times, and the FIFO matching
    below needs them.  Exponential gaps come from a seeded numpy stream,
    so the arm is deterministic.
    """

    def __init__(self, host, destination, *, packets_per_second: float,
                 payload_bytes: int, destination_port: int,
                 rng: np.random.Generator, send_log: List[float]) -> None:
        self.host = host
        self.destination = destination
        self.packets_per_second = packets_per_second
        self.payload_bytes = payload_bytes
        self.destination_port = destination_port
        self.rng = rng
        self.send_log = send_log

    def start(self, duration_seconds: float) -> int:
        elapsed = 0.0
        count = 0
        while True:
            elapsed += float(self.rng.exponential(1.0 / self.packets_per_second))
            if elapsed > duration_seconds:
                return count
            self.host.sim.schedule(elapsed, self._send_one)
            count += 1

    def _send_one(self) -> None:
        self.send_log.append(self.host.sim.now)
        self.host.send(udp_packet(
            self.host.address, self.destination, b"d" * self.payload_bytes,
            destination_port=self.destination_port,
        ))


@dataclass
class LatencyValidationArm:
    """One load level of the dumbbell, delay measured both ways."""

    name: str
    bottleneck_utilization: float
    samples: int
    measured_mean_seconds: float
    predicted_mean_seconds: float

    @property
    def relative_error(self) -> float:
        """|measured − predicted| over the packet-level measurement.

        Like the goodput twin: a nonpositive measured delay means the arm
        never measured anything, which must fail loudly instead of
        poisoning the tolerance check with infinity.
        """
        if self.measured_mean_seconds <= 0:
            raise WorkloadError(
                f"{self.name} arm of the scale-validation dumbbell scenario "
                f"measured no positive packet delay ({self.samples} samples) "
                f"— the relative error would divide by zero; check the "
                f"utilization target and run duration"
            )
        return (abs(self.measured_mean_seconds - self.predicted_mean_seconds)
                / self.measured_mean_seconds)

    def describe_disagreement(self, tolerance: float) -> str:
        """Name the arm and the side that is off, like the goodput twin."""
        side = ("proxy high" if self.predicted_mean_seconds > self.measured_mean_seconds
                else "proxy low")
        return (
            f"{self.name} arm: packet-level {self.measured_mean_seconds * 1e3:.2f} ms "
            f"vs proxy {self.predicted_mean_seconds * 1e3:.2f} ms ({side} by "
            f"{self.relative_error:.1%}, tolerance {tolerance:.0%})"
        )


@dataclass
class LatencyValidationResult(_ToleranceReporting):
    """Both load arms plus the rendered comparison table."""

    arms: List[LatencyValidationArm]
    report: ExperimentReport
    tolerance: float = 0.15


def _run_latency_arm(*, name: str, clients: int, utilization_target: float,
                     payload_bytes: int, bottleneck_rate_bps: float,
                     duration_seconds: float, seed: int,
                     model: LatencyModel) -> LatencyValidationArm:
    """Measure per-packet one-way delay and predict it with the proxy."""
    from ..analysis.scenarios import build_scale_validation_scenario

    scenario = build_scale_validation_scenario(
        clients=clients, bottleneck_rate_bps=bottleneck_rate_bps, seed=seed
    )
    topology = scenario.topology
    server = scenario.server

    # Send times per source address, matched FIFO at the server: the path
    # is a fixed order-preserving chain of FIFO links, so packet k in is
    # packet k out as long as nothing is dropped (asserted below).
    send_logs: dict = {}
    pending: dict = {}
    delays: List[float] = []

    def on_arrival(packet, host) -> None:
        queue = pending.get(str(packet.ip.source))
        if queue:
            delays.append(host.sim.now - queue.pop(0))

    server.register_port_handler(_VALIDATION_PORT, on_arrival)

    for client in scenario.client_names:
        host = topology.host(client)
        host.send(udp_packet(host.address, server.address, b"prime",
                             destination_port=_VALIDATION_PORT))
    topology.run(_PRIME_SECONDS)

    stats = scenario.bottleneck_stats()
    packets_before, bytes_before = stats.packets_sent, stats.bytes_sent
    delays.clear()

    # A rough wire estimate just to hit the utilization target; the proxy's
    # prediction below uses the *measured* wire size instead.
    est_wire_bits = (payload_bytes + 80) * BITS_PER_BYTE
    rate_pps = utilization_target * bottleneck_rate_bps / (est_wire_bits * clients)
    streams = np.random.SeedSequence([seed, len(name)]).spawn(clients)
    sent = 0
    for index, client in enumerate(scenario.client_names):
        host = topology.host(client)
        log: List[float] = []
        send_logs[client] = log
        pending[str(host.address)] = log
        source = _TimestampedPoissonSource(
            host, server.address,
            packets_per_second=rate_pps, payload_bytes=payload_bytes,
            destination_port=_VALIDATION_PORT,
            rng=np.random.default_rng(streams[index]), send_log=log,
        )
        sent += source.start(duration_seconds)
    topology.run(duration_seconds + _DRAIN_SECONDS)

    if len(delays) != sent:
        raise WorkloadError(
            f"latency arm {name!r} lost {sent - len(delays)} of {sent} packets; "
            f"the FIFO send/arrival matching is only valid loss-free — lower "
            f"the utilization target"
        )
    if not delays:
        raise WorkloadError(f"latency arm {name!r} measured no packets")

    wire_packets = stats.packets_sent - packets_before
    wire_bytes = stats.bytes_sent - bytes_before
    wire_bits = wire_bytes / max(wire_packets, 1) * BITS_PER_BYTE
    offered_bps = rate_pps * clients * wire_bits
    rho_bottleneck = offered_bps / bottleneck_rate_bps

    # The proxy's prediction: per-hop transmission + P-K wait at the hop's
    # utilization (the LatencyModel formula under test), plus propagation.
    # Topology constants from build_dumbbell: 100 Mb/s / 1 ms access links,
    # the bottleneck at 10 ms.
    access_bps, access_delay, bottleneck_delay = 100e6, 1e-3, 10e-3
    hops = (
        (access_bps, access_delay, rate_pps * wire_bits / access_bps),
        (bottleneck_rate_bps, bottleneck_delay, rho_bottleneck),
        (access_bps, access_delay, offered_bps / access_bps),
    )
    predicted = 0.0
    for rate_bps, propagation, rho in hops:
        service = wire_bits / rate_bps
        predicted += propagation + service * (
            1.0 + float(model.queueing_factor(np.asarray(rho)))
        )
    return LatencyValidationArm(
        name=name,
        bottleneck_utilization=rho_bottleneck,
        samples=len(delays),
        measured_mean_seconds=float(np.mean(delays)),
        predicted_mean_seconds=predicted,
    )


def cross_validate_latency(
    *, duration_seconds: float = 6.0, seed: int = 2006
) -> LatencyValidationResult:
    """Run both load levels both ways and tabulate the delay agreement.

    Six clients send 200 B payloads across a 600 kb/s bottleneck held at
    35 % (light) and 75 % (loaded) utilization.  Deterministic packet-size
    service means the proxy is exercised at ``service_cv = 0`` (the M/D/1
    point of the P-K family), which is also what the packet arm's
    fixed-size packets realize.
    """
    model = LatencyModel(service_cv=0.0)
    arms = [
        _run_latency_arm(
            name=name, clients=6, utilization_target=target,
            payload_bytes=200, bottleneck_rate_bps=600_000.0,
            duration_seconds=duration_seconds, seed=seed, model=model,
        )
        for name, target in (("light", 0.35), ("loaded", 0.75))
    ]
    report = ExperimentReport(
        "E15v", "Latency proxy vs packet-level delay on the shared dumbbell"
    )
    report.add_table(
        ["regime", "bottleneck util", "samples", "measured ms", "proxy ms",
         "rel. error"],
        [[arm.name, arm.bottleneck_utilization, arm.samples,
          arm.measured_mean_seconds * 1e3, arm.predicted_mean_seconds * 1e3,
          arm.relative_error] for arm in arms],
    )
    report.add_note(
        "Poisson arrivals against fixed-size service: the proxy's P-K term "
        "is evaluated at service_cv=0 (M/D/1), matching what the event "
        "engine realizes; agreement within 15 % licenses quoting fluid "
        "latency distributions at fleet scale"
    )
    result = LatencyValidationResult(arms=arms, report=report)
    result.note_failures()
    return result


# ---------------------------------------------------------------------------
# Adversary epoch vs packet-level discrimination (PR 5 acceptance: within 10 %)
# ---------------------------------------------------------------------------


@dataclass
class AdversaryValidationArm:
    """One adoption level, delivered fraction measured both ways."""

    name: str
    adoption: float
    throttle_factor: float
    offered_pps: float
    packet_delivered_fraction: float
    fluid_delivered_fraction: float

    @property
    def relative_error(self) -> float:
        """|packet − fluid| over the packet-level measurement."""
        if self.packet_delivered_fraction <= 0:
            raise WorkloadError(
                f"{self.name} arm of the adversary-validation dumbbell "
                f"scenario delivered nothing at the packet level (offered "
                f"{self.offered_pps:g} pps) — the relative error would "
                f"divide by zero; loosen the throttle or raise the rate"
            )
        return (abs(self.packet_delivered_fraction - self.fluid_delivered_fraction)
                / self.packet_delivered_fraction)

    def describe_disagreement(self, tolerance: float) -> str:
        """Name the arm and the side that is off, like its two siblings."""
        side = ("fluid high"
                if self.fluid_delivered_fraction > self.packet_delivered_fraction
                else "fluid low")
        return (
            f"{self.name} arm: packet-level {self.packet_delivered_fraction:.3f} "
            f"delivered vs fluid {self.fluid_delivered_fraction:.3f} ({side} by "
            f"{self.relative_error:.1%}, tolerance {tolerance:.0%})"
        )


@dataclass
class AdversaryValidationResult(_ToleranceReporting):
    """All adoption arms plus the rendered comparison table."""

    arms: List[AdversaryValidationArm]
    report: ExperimentReport
    tolerance: float = 0.10


def _run_adversary_packet_arm(*, name: str, clients: int, adopters: int,
                              rate_pps: float, payload_bytes: int,
                              bottleneck_rate_bps: float,
                              throttle_factor: float,
                              duration_seconds: float,
                              seed: int) -> Tuple[float, float]:
    """Measure delivered fraction under a destination-matched throttle.

    The first ``adopters`` clients run through the neutralizer (their wire
    packets carry the anycast destination, so the ISP's rule cannot match
    them); the rest send plain UDP to the server, which the discriminatory
    access ISP throttles to ``throttle_factor`` of its offered rate with a
    THROTTLE rule — :mod:`repro.discrimination` semantics end to end.
    Returns (delivered fraction, offered pps).
    """
    from ..analysis.scenarios import build_dumbbell
    from ..apps.workloads import ConstantRateSource
    from ..core.api import neutralize_isp
    from ..crypto.randomness import DeterministicRandom
    from ..discrimination.classifier import criteria_for_destination
    from ..discrimination.isp import install_policy
    from ..discrimination.policy import (
        Action,
        DiscriminationPolicy,
        DiscriminationRule,
    )
    from ..packet.addresses import ip

    topology = build_dumbbell(
        clients=clients, servers=1, bottleneck_rate_bps=bottleneck_rate_bps,
        seed=seed,
    )
    rng = DeterministicRandom(seed)
    deployment = neutralize_isp(topology, "right", ip("10.200.0.9"), rng=rng)
    server = topology.host("server0")
    deployment.attach_server(server)
    client_names = [f"client{index}" for index in range(clients)]
    for client in client_names[:adopters]:
        deployment.attach_client(topology.host(client))
        deployment.bootstrap_client(client, "server0")

    exposed = clients - adopters
    if exposed > 0 and throttle_factor < 1.0:
        plain_wire_bits = (payload_bytes + IPV4_HEADER_LEN
                           + UDP_HEADER_LEN) * BITS_PER_BYTE
        exposed_offered_bps = exposed * rate_pps * plain_wire_bits
        policy = DiscriminationPolicy(
            name="throttle-classifiable",
            rules=[DiscriminationRule(
                criteria=criteria_for_destination(
                    server.address, name="throttle plain traffic to server0"),
                action=Action.THROTTLE,
                throttle_rate_bps=throttle_factor * exposed_offered_bps,
                intent="squeeze the class we can still classify",
            )],
        )
        install_policy(topology, "left", policy, rng=rng)

    arrivals: List[float] = []
    server.register_port_handler(
        _VALIDATION_PORT, lambda packet, host: arrivals.append(host.sim.now)
    )
    # Prime key setups (adopters) and the policer (exposed traffic drains
    # the token bucket's initial burst before the measurement window).
    for client in client_names:
        host = topology.host(client)
        host.send(udp_packet(host.address, server.address, b"prime",
                             destination_port=_VALIDATION_PORT))
    topology.run(_PRIME_SECONDS)

    sources = [
        ConstantRateSource(
            topology.host(client), server.address, packets_per_second=rate_pps,
            payload_bytes=payload_bytes, destination_port=_VALIDATION_PORT,
            flow_id=f"adversary-check-{client}",
        )
        for client in client_names
    ]
    for source in sources:
        source.start(duration_seconds)
    start_time = topology.sim.now
    topology.run(duration_seconds + _DRAIN_SECONDS)

    window_start = start_time + _WARMUP_SECONDS
    window_end = start_time + duration_seconds
    delivered = sum(1 for at in arrivals if window_start < at <= window_end)
    offered_pps = rate_pps * clients
    delivered_fraction = delivered / (offered_pps * (window_end - window_start))
    return delivered_fraction, offered_pps


def _solve_adversary_fluid_arm(*, clients: int, adoption: float,
                               rate_pps: float, payload_bytes: int,
                               bottleneck_rate_bps: float,
                               throttle_factor: float,
                               seed: int) -> float:
    """The same epoch through the real fluid adversary machinery.

    One single-class population against one oversized site, the shared
    bottleneck as the regional uplink, and an :class:`AdversaryRun` with a
    perfect classifier (TP 1, FP 0, no leakage) pinned at the packet arm's
    adoption and throttle factor — exactly the confusion-model semantics
    under test, solved through ``ProblemTemplate.instantiate`` like any
    timeline epoch.
    """
    from .adversary import AdoptionModel, AdversaryGame, AdversaryRun
    from .adversary import ClassifierModel, IspStrategy
    from .fleet import FleetSite, NeutralizerFleet
    from .population import ClientPopulation, DemandClass, PopulationMix
    from .scenario import ScaleScenario
    from .solver import solve_allocation

    wire_bytes = payload_bytes + IPV4_HEADER_LEN + UDP_HEADER_LEN
    mix = PopulationMix(
        classes=(DemandClass(
            name="probe", packets_per_second=rate_pps,
            packet_bytes=wire_bytes, duty_cycle=1.0, key_setups_per_hour=0.0,
        ),),
        fractions=(1.0,),
    )
    population = ClientPopulation(clients, mix=mix, regions=1, seed=seed)
    fleet = NeutralizerFleet(
        [FleetSite("site00", cores=1e3, uplink_bps=1e12)]
    )
    template = ScaleScenario(
        population, fleet, region_uplink_bps=bottleneck_rate_bps,
    ).build_template()

    game = AdversaryGame(
        isp=IspStrategy(
            target_classes=("probe",), budget_fraction=1.0,
            classifier=ClassifierModel(true_positive=1.0, false_positive=0.0,
                                       neutralized_leakage=0.0),
        ),
        adoption=AdoptionModel(initial_adoption=adoption),
    )
    run = AdversaryRun(game, population)
    run.factor = throttle_factor  # pin the severity the packet arm enforces
    run.tick(0)
    adv = run.flag(template, np.ones(template.base_demands.shape), 3600.0)
    epoch = template.instantiate(adv.served_multiplier)
    allocation = solve_allocation(epoch.problem)
    delivered_pps = float(
        (allocation.rates * template.group_clients / template.bits_per_packet).sum()
    )
    offered_pps = rate_pps * clients
    if offered_pps <= 0:
        raise WorkloadError(
            "the fluid arm of the adversary-validation dumbbell scenario "
            "offers zero demand — nothing to validate against"
        )
    return delivered_pps / offered_pps


def cross_validate_adversary(
    *, duration_seconds: float = 4.0, seed: int = 2006
) -> AdversaryValidationResult:
    """Cross-check one fluid adversary epoch against the packet-level path.

    Both arms realize the same situation: a discriminatory access ISP
    throttles everything it can classify toward the server to 30 % of its
    rate, while an adoption share of clients (none, then half) has
    deployed the neutralizer and become unclassifiable.  Six clients send
    200 B payloads at 25 pps each across a 2 Mb/s bottleneck.  The packet
    arm runs :mod:`repro.discrimination` rules against real (partly
    neutralized) traffic through :mod:`repro.netsim`; the fluid arm runs
    the same epoch through :class:`repro.scale.adversary.AdversaryRun` and
    the solver.  Delivered fractions must agree within 10 % at every
    adoption level — the license for quoting E16 frontiers at fleet scale.
    """
    clients, payload_bytes, bottleneck_rate_bps = 6, 200, 2_000_000.0
    rate_pps, throttle_factor = 25.0, 0.3
    arms: List[AdversaryValidationArm] = []
    for adoption in (0.0, 0.5):
        adopters = int(round(clients * adoption))
        packet_fraction, offered_pps = _run_adversary_packet_arm(
            name=f"adoption {adoption:g}", clients=clients, adopters=adopters,
            rate_pps=rate_pps, payload_bytes=payload_bytes,
            bottleneck_rate_bps=bottleneck_rate_bps,
            throttle_factor=throttle_factor,
            duration_seconds=duration_seconds, seed=seed,
        )
        fluid_fraction = _solve_adversary_fluid_arm(
            clients=clients, adoption=adopters / clients, rate_pps=rate_pps,
            payload_bytes=payload_bytes,
            bottleneck_rate_bps=bottleneck_rate_bps,
            throttle_factor=throttle_factor, seed=seed,
        )
        arms.append(AdversaryValidationArm(
            name=f"adoption {adoption:g}",
            adoption=adoption,
            throttle_factor=throttle_factor,
            offered_pps=offered_pps,
            packet_delivered_fraction=packet_fraction,
            fluid_delivered_fraction=fluid_fraction,
        ))
    report = ExperimentReport(
        "E16v", "Fluid adversary epoch vs packet-level discrimination on the "
                "shared dumbbell"
    )
    report.add_table(
        ["arm", "adoption", "throttle", "packet delivered", "fluid delivered",
         "rel. error"],
        [[arm.name, arm.adoption, arm.throttle_factor,
          arm.packet_delivered_fraction, arm.fluid_delivered_fraction,
          arm.relative_error] for arm in arms],
    )
    report.add_note(
        "the packet arm throttles classifiable (non-neutralized) traffic "
        "with a repro.discrimination THROTTLE rule; neutralized traffic "
        "carries the anycast destination and cannot match — agreement "
        "licenses the E16 confusion-model semantics at fleet scale"
    )
    result = AdversaryValidationResult(arms=arms, report=report)
    result.note_failures()
    return result
