"""The seven workloads: what one round runs, what it checks, what it traces.

Every workload is a closed loop driven from this one process.  A *round* is
one full pass over the workload's inputs with telemetry off; ``traced_round``
is the same pass under ``Telemetry(trace=True)`` inside a harness
``bench.round`` span; ``probe`` times direct calls into single layers on the
same inputs.  ``--seed`` draws the clients (and packet contents) the work is
done on; the campaigns' event streams stay on ``SCENARIO_SEED`` so that every
seed holds the same *amount* of work (see catalogue.SCENARIO_SEED).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional
from urllib.request import urlopen

import numpy as np

from repro.analysis.experiments import (
    make_key_setup_packet,
    make_neutralized_data_packet,
    run_datapath_throughput,
    run_key_setup_throughput,
)
from repro.analysis.scenarios import build_scale_validation_scenario
from repro.apps.workloads import ConstantRateSource
from repro.core.neutralizer import NeutralizerConfig, NeutralizerDomain
from repro.crypto.backend import fast_backend_available, get_cipher
from repro.crypto.randomness import DeterministicRandom
from repro.crypto.rsa import generate_keypair
from repro.packet.addresses import Prefix, ip
from repro.packet.builder import udp_packet
from repro.scale import (
    AdversaryCampaignRunner,
    CapacityProblem,
    ClientPopulation,
    DiurnalLoad,
    EventLog,
    FluidTimeline,
    LatencyCampaignRunner,
    LatencyModel,
    MonitorServer,
    NeutralizerFleet,
    ProcessPoolCampaignExecutor,
    RunTable,
    ScaleScenario,
    SharedPopulationPack,
    StochasticCampaignRunner,
    Telemetry,
    alpha_fair_allocation,
    attach_detectors,
    canonical_result_bytes,
    compile_events,
    cross_validate,
    default_processes,
    elastic_fleet,
    elastic_mix,
    evaluate_latency,
    max_min_allocation,
    provisioned_fleet,
    solve_allocation,
    verdicts,
    verify_alpha_fair,
    verify_max_min,
)

import catalogue as cat
from harness import (
    COUNTER_METRICS,
    ROUND_SPAN,
    TMP_ROOT,
    Prober,
    RoundLog,
    layer_rows,
    median,
    percentile,
    repeat,
    sha256_hex,
    shm_segments,
)

_EPS = 1e-9
#: The port cross_validate's dumbbell traffic is addressed to.
_XVAL_PORT = 46000


@dataclass(frozen=True)
class Scale:
    """How much one round holds.  ``full`` is the instrument; ``smoke`` only
    proves the plumbing (selftest) and its numbers mean nothing."""

    name: str
    clients: int
    epochs: int            # E14-E16 campaign length
    e13_epochs: int
    replicas: int          # E14/E15 replicas; E16 runs replicas // 8 per grid point
    packets: int           # per path, per packet_path round
    xval_seconds: float
    probe_calls: int
    traced_rounds: int


FULL = Scale("full", clients=1_000_000, epochs=200, e13_epochs=100, replicas=32,
             packets=6_000, xval_seconds=4.0, probe_calls=20, traced_rounds=2)
SMOKE = Scale("smoke", clients=2_000, epochs=8, e13_epochs=8, replicas=2,
              packets=200, xval_seconds=1.0, probe_calls=3, traced_rounds=1)
SCALES = {scale.name: scale for scale in (FULL, SMOKE)}


class Workload:
    """Base: bookkeeping shared by all seven."""

    name = ""

    def __init__(self, seed: int, scale: Scale, log: RoundLog) -> None:
        self.seed = int(seed)
        self.scale = scale
        self.log = log
        #: Harness-side probe spans; each traced round's tracer (program spans
        #: under one ``bench.round``) is kept in ``round_traces``.
        self.harness = Telemetry(trace=True, metrics=False)
        self.round_traces: List[object] = []
        self.layer_means: Dict[str, float] = {}
        self.traced_wall_s = 0.0

    # -- the three passes ------------------------------------------------------------

    def round(self, index: int) -> None:
        """One timed round, telemetry off; samples and checks go to the log."""
        raise NotImplementedError

    def lean_round(self, index: int) -> None:
        """A timed round cut down to the arm ``campaign_wall_s`` comes from.

        Runs on a time budget that report only the driver's end-to-end metrics
        use it, so that the budget buys samples of what is reported: the
        reference arm (serial, bare) ran in the warm-up round and the result
        digest it left is what every lean round is checked against.
        """
        self.round(index)

    def traced_round(self, index: int):
        """One round under tracing; returns ``(tracer, registry_or_None)``."""
        raise NotImplementedError

    def probe(self, prober: Prober) -> Dict[str, float]:
        """Direct-call layer timings on this workload's inputs."""
        return {}

    def untraced_walls(self) -> List[float]:
        """The timed walls a traced round's wall is compared against."""
        return self.log.samples.get("campaign_wall_s", [])

    # -- shared reductions -----------------------------------------------------------

    def traced_pass(self, rounds: int, budget_s: Optional[float]) -> Dict[str, float]:
        """Run traced rounds and reduce them to the per-layer metrics.

        Rows are the mean over the traced rounds, so rows + ``unattributed_s``
        still equal the (mean) traced wall exactly.
        """
        log = self.log
        totals: Dict[str, float] = {}
        walls: List[float] = []
        remap_ms: List[float] = []
        calls: Dict[str, int] = {}
        counters: Dict[str, float] = {}
        for index in repeat(rounds, budget_s):
            with log.round():
                tracer, registry = self.traced_round(index)
                tracer.assert_well_formed()
                rows, durations, wall = layer_rows(tracer.spans)
                log.check(abs(sum(rows.values()) - wall) <= 1e-6 * max(wall, 1.0),
                          f"layer rows {sum(rows.values()):.6f}s != traced wall {wall:.6f}s")
                if registry is not None:
                    for name in COUNTER_METRICS:
                        counters[name] = registry.counter_value(name)
                        if name in cat.GATED_COUNTERS:
                            log.count(name, counters[name])
            for row, seconds in rows.items():
                totals[row] = totals.get(row, 0.0) + seconds
            walls.append(wall)
            remap_ms.extend(d * 1e3 for d in durations.get("ring_remap", []))
            calls = {name: len(values) for name, values in durations.items()}
            self.round_traces.append(tracer)
        out = {row: seconds / len(walls) for row, seconds in totals.items()}
        self.layer_means = dict(out)
        self.traced_wall_s = sum(walls) / len(walls)
        out["unattributed_share"] = (out["unattributed_s"] / self.traced_wall_s
                                     if self.traced_wall_s > 0 else 0.0)
        untraced = self.untraced_walls()
        out["telemetry.trace_overhead_ratio"] = (
            median(walls) / median(untraced) if untraced else 0.0)
        # Extras a workload does not declare are dropped by the reducer.
        out["fleet.ring_remap_p95_ms"] = percentile(remap_ms, 0.95) if remap_ms else 0.0
        out["scenario.instantiate_calls"] = calls.get("template_instantiate", 0)
        out["latency.proxy_calls"] = calls.get("latency_proxy", 0)
        out.update(counters)
        epochs = counters.get("timeline.epochs", 0.0)
        out["timeline.reuse_ratio"] = (
            counters.get("timeline.epochs_reused", 0.0) / epochs if epochs else 0.0)
        return out

    @property
    def result_sha256(self) -> str:
        return self.log.digests.get("result_sha256", "")


def _ordered(distribution) -> bool:
    """P50/P95/P99/worst run towards the tail the distribution names."""
    chain = (distribution.p50, distribution.p95, distribution.p99, distribution.worst)
    if distribution.tail == "low":
        return all(a >= b - _EPS for a, b in zip(chain, chain[1:]))
    return all(a <= b + _EPS for a, b in zip(chain, chain[1:]))


# -- E13: one diurnal timeline -------------------------------------------------------------


class DiurnalTimeline(Workload):
    name = cat.E13
    _SITES = 16
    _HEADROOM = 1.1

    def _load(self) -> DiurnalLoad:
        return DiurnalLoad(trough=0.35, peak=1.05)

    def _run(self, telemetry: Optional[Telemetry] = None):
        population = ClientPopulation(self.scale.clients, seed=self.seed)
        fleet = provisioned_fleet(population, self._SITES, headroom=self._HEADROOM)
        return FluidTimeline(population, fleet, epochs=self.scale.e13_epochs,
                             load=self._load(), telemetry=telemetry).run()

    def _check(self, result) -> None:
        log = self.log
        log.same_digest("result_sha256", sha256_hex(canonical_result_bytes(result)))
        log.check(result.epochs == self.scale.e13_epochs, "E13 epoch count")
        log.check(bool((result.goodput_bps <= result.demand_bps * (1 + _EPS)).all()),
                  "E13 goodput exceeds demand on some epoch")

    def round(self, index: int) -> None:
        started = time.perf_counter()
        result = self._run()
        self.log.add("campaign_wall_s", time.perf_counter() - started)
        self._check(result)

    def traced_round(self, index: int):
        telemetry = Telemetry(trace=True)
        with telemetry.span(ROUND_SPAN, workload=self.name, round=index):
            result = self._run(telemetry)
        self._check(result)
        return telemetry.tracer, telemetry.metrics

    def probe(self, prober: Prober) -> Dict[str, float]:
        clients, seed, log = self.scale.clients, self.seed, self.log
        out = {
            "population.build_s": prober.seconds(
                "population.build", lambda: ClientPopulation(clients, seed=seed)),
            "population.ring_sorted_s": prober.seconds(
                "population.ring_sorted", lambda fresh: fresh.ring_sorted(),
                setup=lambda: ClientPopulation(clients, seed=seed)),
        }
        population = ClientPopulation(clients, seed=seed)
        fleet = provisioned_fleet(population, self._SITES, headroom=self._HEADROOM)
        out["fleet.assign_sites_s"] = prober.seconds(
            "fleet.assign_sites", lambda: fleet.assign_sites(population.ring_positions))
        out["scenario.template_build_s"] = prober.seconds(
            "scenario.template_build", lambda fresh: fresh.build_template(),
            setup=lambda: ScaleScenario(population, fleet))

        # The busiest epoch of the diurnal day, as the timeline instantiates it.
        template = ScaleScenario(population, fleet).build_template()
        load = self._load()
        regional = max(
            (load.multipliers(epoch * 3600.0, population.regions)
             for epoch in range(self.scale.e13_epochs)),
            key=lambda multipliers: float(multipliers.sum()))
        problem = template.instantiate(regional[template.region_of].astype(np.float64)).problem
        cold = max_min_allocation(problem)
        warm = max_min_allocation(problem, warm_start=cold.rates)
        log.check(verify_max_min(problem, cold.rates) is not None,
                  "max-min certificate rejects the cold solve")
        log.check(bool(np.array_equal(warm.rates, cold.rates)),
                  "max-min warm start differs from the cold solve")
        out["solver.max_min_cold_ms"] = 1e3 * prober.seconds(
            "solver.max_min_cold", lambda: max_min_allocation(problem))
        out["solver.max_min_warm_ms"] = 1e3 * prober.seconds(
            "solver.max_min_warm",
            lambda: max_min_allocation(problem, warm_start=cold.rates))
        out["solver.verify_max_min_ms"] = 1e3 * prober.seconds(
            "solver.verify_max_min", lambda: verify_max_min(problem, cold.rates))
        return out


# -- E14-E16: the Monte-Carlo campaigns ----------------------------------------------------


class Campaign(Workload):
    """A unit-decomposed campaign run serially; subclasses pick the runner."""

    def _population(self) -> ClientPopulation:
        return ClientPopulation(self.scale.clients, seed=self.seed)

    def _runner(self, population: ClientPopulation, telemetry: Optional[Telemetry]):
        raise NotImplementedError

    def _construct(self, telemetry: Optional[Telemetry] = None):
        """Population build + runner construction: what every user pays."""
        return self._runner(self._population(), telemetry)

    def _check(self, result) -> str:
        """Simulation-level checks (E14/E15 shape); returns the canonical digest."""
        log = self.log
        digest = sha256_hex(canonical_result_bytes(result))
        log.check(len(result.records) == self.scale.replicas, "replica count")
        log.check(all(record.worst_delivered <= record.mean_delivered + _EPS
                      and record.mean_delivered <= 1.0 + _EPS
                      for record in result.records),
                  "a replica delivered more than was demanded")
        log.check(all(_ordered(dist) for dist in result.distributions.values()),
                  "availability/latency percentiles out of order")
        return digest

    def round(self, index: int) -> None:
        started = time.perf_counter()
        result = self._construct().run()
        self.log.add("campaign_wall_s", time.perf_counter() - started)
        self.log.same_digest("result_sha256", self._check(result))

    def traced_round(self, index: int):
        telemetry = Telemetry(trace=True)
        with telemetry.span(ROUND_SPAN, workload=self.name, round=index):
            result = self._construct(telemetry).run()
        self.log.same_digest("result_sha256", self._check(result))
        return telemetry.tracer, telemetry.metrics

    def _probe_compile_events(self, prober: Prober, n_sites: int) -> float:
        site_names = [f"site{index}" for index in range(n_sites)]
        processes = default_processes()
        return 1e3 * prober.seconds(
            "stochastic.compile_events",
            lambda: compile_events(processes, seed=cat.SCENARIO_SEED,
                                   epochs=self.scale.epochs, site_names=site_names))


class StochasticCampaign(Campaign):
    name = cat.E14

    def _runner(self, population, telemetry):
        return StochasticCampaignRunner(
            clients=self.scale.clients, epochs=self.scale.epochs,
            replicas=self.scale.replicas, seed=cat.SCENARIO_SEED,
            population=population, telemetry=telemetry)

    def probe(self, prober: Prober) -> Dict[str, float]:
        population = self._population()
        runner = self._runner(population, None)
        fleet = elastic_fleet(population, runner.max_sites,
                              nominal_sites=runner.nominal_sites,
                              at_utilization=runner.at_utilization)
        positions = population.ring_sorted()[0]
        template = ScaleScenario(population, fleet).build_template()
        victim = fleet.in_service_names[0]

        def fail_restore() -> None:
            fleet.fail_site(victim)
            fleet.assignment_segments(positions)
            fleet.restore_site(victim)

        before = fleet.ring_state()
        fleet.fail_site(victim)
        after = fleet.ring_state()
        rebuilt = template.rebuilt()
        self.log.check(rebuilt.remapped_from_parent > 0,
                       "failing a site remapped no client")
        out = {
            "scenario.template_rebuilt_us": 1e6 * prober.seconds(
                "scenario.template_rebuilt", template.rebuilt),
            "anycast.snapshot_diff_us": 1e6 * prober.seconds(
                "anycast.snapshot_diff",
                lambda: NeutralizerFleet.ring_moved_fraction(before, after), batch=10),
        }
        fleet.restore_site(victim)
        out["fleet.fail_restore_us"] = 1e6 * prober.seconds(
            "fleet.fail_restore", fail_restore)
        out["stochastic.compile_events_ms"] = self._probe_compile_events(
            prober, fleet.n_sites)
        return out


class LatencyCampaign(Campaign):
    name = cat.E15

    def _population(self) -> ClientPopulation:
        return ClientPopulation(self.scale.clients, mix=elastic_mix(), seed=self.seed)

    def _runner(self, population, telemetry):
        return LatencyCampaignRunner(
            clients=self.scale.clients, epochs=self.scale.epochs,
            replicas=self.scale.replicas, seed=cat.SCENARIO_SEED,
            population=population, telemetry=telemetry)

    def probe(self, prober: Prober) -> Dict[str, float]:
        log = self.log
        population = self._population()
        runner = self._runner(population, None)
        fleet = elastic_fleet(population, runner.max_sites,
                              nominal_sites=runner.nominal_sites,
                              at_utilization=runner.at_utilization)
        template = ScaleScenario(population, fleet).build_template()
        # Busy-hour demand against half the capacity: congested, so neither
        # solver can leave through the demand certificate.
        epoch = template.instantiate(
            site_capacity_scale=np.full(fleet.n_sites, 0.5))
        mixed = epoch.problem
        mask = mixed.elastic
        elastic = CapacityProblem(
            demands=mixed.demands[mask], usage=mixed.usage[:, mask],
            capacities=mixed.capacities,
            weights=None if mixed.weights is None else mixed.weights[mask],
            alpha=mixed.alpha[mask], elastic=np.ones(int(mask.sum()), dtype=bool))
        cold = alpha_fair_allocation(elastic)
        warm = alpha_fair_allocation(elastic, warm_start=cold.rates,
                                     warm_prices=cold.prices)
        log.check(cold.iterations > 0, "alpha-fair probe problem is not congested")
        log.check(verify_alpha_fair(elastic, cold.rates, cold.prices) is not None,
                  "alpha-fair KKT certificate rejects the cold solve")
        log.check(warm.warm_started and bool(np.array_equal(warm.rates, cold.rates)),
                  "alpha-fair warm start differs from the cold solve")
        allocation = solve_allocation(mixed)
        model = LatencyModel()
        return {
            "solver.alpha_fair_cold_ms": 1e3 * prober.seconds(
                "solver.alpha_fair_cold", lambda: alpha_fair_allocation(elastic)),
            "solver.alpha_fair_warm_ms": 1e3 * prober.seconds(
                "solver.alpha_fair_warm",
                lambda: alpha_fair_allocation(elastic, warm_start=cold.rates,
                                              warm_prices=cold.prices)),
            "latency.evaluate_ms": 1e3 * prober.seconds(
                "latency.evaluate",
                lambda: evaluate_latency(template, epoch, allocation, model)),
            "stochastic.compile_events_ms": self._probe_compile_events(
                prober, fleet.n_sites),
        }


class AdversaryCampaign(Campaign):
    name = cat.E16

    def _runner(self, population, telemetry):
        return AdversaryCampaignRunner(
            clients=self.scale.clients, epochs=self.scale.epochs,
            replicas_per_point=max(self.scale.replicas // 8, 1),
            seed=cat.SCENARIO_SEED, population=population, telemetry=telemetry)

    def _check(self, result) -> str:
        log = self.log
        digest = sha256_hex(canonical_result_bytes(result))
        log.check(all(-_EPS <= point.equilibrium_target_delivered <= 1.0 + _EPS
                      for point in result.points),
                  "a grid point delivered more than was demanded")
        log.check(all(point.exposed_p95_seconds >= 0
                      and point.neutralized_p95_seconds >= 0
                      for point in result.points), "negative latency percentile")
        if self.scale is FULL:
            log.check(len(result.self_defeating_points()) > 0,
                      "E16 found no self-defeating point")
        return digest

    def probe(self, prober: Prober) -> Dict[str, float]:
        return {"stochastic.compile_events_ms": self._probe_compile_events(
            prober, AdversaryCampaignRunner().n_sites)}


# -- E14 through the pool, with checkpoints ------------------------------------------------


def _first_unit_clock(telemetry: Telemetry, started: float) -> List[float]:
    """Subscribe a one-shot stopwatch for the first ``unit_complete`` event."""
    first_unit: List[float] = []

    def on_event(event) -> None:
        if event.kind == "unit_complete" and not first_unit:
            first_unit.append(time.perf_counter() - started)

    telemetry.events.subscribe(on_event)
    return first_unit


class PoolCheckpoint(StochasticCampaign):
    name = cat.POOL
    _WORKERS = 2
    _RESUMES = 2

    def __init__(self, seed: int, scale: Scale, log: RoundLog) -> None:
        super().__init__(seed, scale, log)
        #: The traced round's pooled arm and the checkpoint it leaves standing
        #: for the probes to read.
        self._last: Dict[str, object] = {}
        self._kept: Optional[Path] = None

    def _pooled(self, checkpoint: Path, telemetry: Telemetry) -> Dict[str, object]:
        """One pooled (or resuming) run over ``checkpoint``."""
        started = time.perf_counter()
        first_unit = _first_unit_clock(telemetry, started)
        executor = ProcessPoolCampaignExecutor(
            self._construct(telemetry), n_workers=self._WORKERS,
            checkpoint_dir=checkpoint)
        result = executor.run()
        wall = time.perf_counter() - started
        return {"result": result, "wall": wall, "executor": executor,
                "first_unit": first_unit[0] if first_unit else wall,
                "digest": self._check(result)}

    @contextlib.contextmanager
    def _checkpoint(self, *, keep: bool = False):
        """A fresh checkpoint directory; nothing may outlive the block but
        the directory itself when ``keep`` hands it to the probes."""
        self._release_kept()
        segments_before = shm_segments()
        TMP_ROOT.mkdir(parents=True, exist_ok=True)
        checkpoint = TMP_ROOT / f"ckpt-{time.time_ns()}"
        try:
            yield checkpoint
        finally:
            if keep:
                self._kept = checkpoint
            else:
                shutil.rmtree(checkpoint, ignore_errors=True)
                self.log.check(not checkpoint.exists(), "checkpoint directory left behind")
            self.log.check(shm_segments() <= segments_before,
                           "a /dev/shm segment outlived the pooled run")

    def _release_kept(self) -> None:
        if self._kept is not None:
            shutil.rmtree(self._kept, ignore_errors=True)
            self._kept = None

    def round(self, index: int) -> None:
        """Serial, pooled into a fresh checkpoint, then two resumes of it."""
        log = self.log
        started = time.perf_counter()
        serial = self._construct().run()
        serial_wall = time.perf_counter() - started
        digests = {self._check(serial)}
        with self._checkpoint() as checkpoint:
            pooled = self._pooled(checkpoint, Telemetry(trace=False, events=True))
            units = len(pooled["result"].records)
            log.check(pooled["executor"].units_resumed == 0,
                      "a fresh checkpoint resumed units")
            digests.add(pooled["digest"])
            for _ in range(self._RESUMES):
                resumed = self._pooled(checkpoint, Telemetry(trace=False, events=True))
                log.add("resume_wall_s", resumed["wall"])
                log.check(resumed["executor"].units_resumed == units,
                          f"resume re-ran units: "
                          f"{resumed['executor'].units_resumed}/{units} resumed")
                digests.add(resumed["digest"])
        log.check(len(digests) == 1, "serial, pooled and resumed results differ")
        log.same_digest("result_sha256", pooled["digest"])
        log.add("campaign_wall_s", pooled["wall"])
        log.add("first_unit_s", pooled["first_unit"])
        log.add("pool_speedup", serial_wall / pooled["wall"])

    def lean_round(self, index: int) -> None:
        """Pooled into a fresh checkpoint, nothing else."""
        with self._checkpoint() as checkpoint:
            pooled = self._pooled(checkpoint, Telemetry(trace=False, events=True))
        self.log.check(pooled["executor"].units_resumed == 0,
                       "a fresh checkpoint resumed units")
        self.log.same_digest("result_sha256", pooled["digest"])
        self.log.add("campaign_wall_s", pooled["wall"])
        self.log.add("first_unit_s", pooled["first_unit"])

    def traced_round(self, index: int):
        """The pooled arm alone, under the parent's tracer."""
        telemetry = Telemetry(trace=True, events=True)
        with self._checkpoint(keep=True) as checkpoint:
            with telemetry.span(ROUND_SPAN, workload=self.name, round=index):
                pooled = self._pooled(checkpoint, telemetry)
            pooled["checkpoint_kb"] = sum(
                path.stat().st_size for path in checkpoint.glob("unit-*.json")) / 1024.0
        self.log.same_digest("result_sha256", pooled["digest"])
        self._last = pooled
        return telemetry.tracer, telemetry.metrics

    def probe(self, prober: Prober) -> Dict[str, float]:
        last = self._last
        population = self._population()
        population.ring_sorted()
        packs: List[SharedPopulationPack] = []
        try:
            create_s = prober.seconds(
                "parallel.shared_pack_create",
                lambda: packs.append(SharedPopulationPack.create(population)))
            pack_mb = packs[0].nbytes / 1e6
        finally:
            for pack in packs:
                pack.close()
                pack.unlink()

        # The traced round's own checkpoint, through the public RunTable.
        runner = self._runner(population, None)
        units = runner.unit_specs()
        try:
            table = RunTable.open(self._kept, run_id=runner.run_id,
                                  total_units=len(units))
            outcomes = table.completed_outcomes()
            self.log.check(len(outcomes) == len(units), "checkpoint is not full")
            ordered = [outcomes[unit.index] for unit in units]
            pending = itertools.cycle(units)

            def write_one() -> None:
                unit = next(pending)
                table.record_outcome(unit, outcomes[unit.index])

            write_s = prober.seconds("parallel.checkpoint_write", write_one)
            read_s = prober.seconds("parallel.checkpoint_read", table.completed_outcomes)
        finally:
            self._release_kept()
        merge_s = prober.seconds(
            "parallel.merge",
            lambda: runner.merge_units(ordered, started_at=0.0, duration_seconds=1.0))
        busy = sum(last["executor"].phase_durations.get("replica", []))
        return {
            "parallel.shared_pack_create_ms": 1e3 * create_s,
            "parallel.shared_pack_mb": pack_mb,
            "parallel.worker_busy_s": busy,
            "parallel.pool_overhead_s": self._WORKERS * last["wall"] - busy,
            "parallel.merge_ms": 1e3 * merge_s,
            "parallel.canonical_bytes_ms": 1e3 * prober.seconds(
                "parallel.canonical_bytes",
                lambda: canonical_result_bytes(last["result"])),
            "parallel.checkpoint_write_ms": 1e3 * write_s,
            "parallel.checkpoint_read_ms": 1e3 * read_s,
            "parallel.checkpoint_kb": last["checkpoint_kb"],
        }


# -- E14 bare vs fully observed ------------------------------------------------------------


def _drain_stream(url: str, box: Dict[str, int]) -> None:
    """The one SSE client: count canonical frames until the campaign ends."""
    frames = 0
    ended = False
    with urlopen(url + "/stream", timeout=120) as response:
        for raw in response:
            line = raw.decode("utf-8")
            if line.startswith("id: "):
                frames += 1
            elif line.startswith("event: campaign_complete"):
                ended = True
            elif ended and line == "\n":
                break
    box["frames"] = frames


class ObservedCampaign(StochasticCampaign):
    name = cat.OBSERVED

    def __init__(self, seed: int, scale: Scale, log: RoundLog) -> None:
        super().__init__(seed, scale, log)
        self._last: Dict[str, object] = {}

    def untraced_walls(self) -> List[float]:
        # The observed arm traces by design; its untraced twin is the bare arm.
        return self.log.samples.get("bare_wall_s", [])

    def _observed(self, *, span=None) -> Dict[str, object]:
        """E14 with trace + events + detectors + monitor + one SSE reader."""
        log = self.log
        started = time.perf_counter()
        telemetry = Telemetry(trace=True, events=True)
        attach_detectors(telemetry.events)
        first_unit = _first_unit_clock(telemetry, started)
        box: Dict[str, int] = {}
        # A traced round wraps the arm in the harness's bench.round span.
        scope = telemetry.span(ROUND_SPAN, **span) if span else contextlib.nullcontext()
        with scope:
            runner = self._construct(telemetry)
            monitor = MonitorServer.attach(telemetry, runner=runner)
            reader = threading.Thread(target=_drain_stream, args=(monitor.url, box),
                                      name="bench-sse-reader", daemon=True)
            reader.start()
            try:
                result = runner.run()
            except BaseException:
                monitor.close()
                raise
        wall = time.perf_counter() - started
        try:
            reader.join(timeout=60)
            log.check(not reader.is_alive(), "SSE reader never saw campaign_complete")
        finally:
            monitor.close()
        ndjson = telemetry.events.to_ndjson()
        lines = len(ndjson.splitlines())
        log.check(box.get("frames") == lines,
                  f"SSE frames {box.get('frames')} != NDJSON lines {lines}")
        log.same_digest("ndjson_sha256", sha256_hex(ndjson.encode("utf-8")))
        return {"result": result, "wall": wall, "telemetry": telemetry,
                "first_unit": first_unit[0] if first_unit else wall,
                "runner": runner, "ndjson": ndjson, "frames": box.get("frames", 0)}

    def _bare(self):
        started = time.perf_counter()
        result = self._construct().run()
        return time.perf_counter() - started, self._check(result)

    def round(self, index: int) -> None:
        log = self.log
        # Alternate which arm goes first so drift lands on both sides.
        if index % 2 == 0:
            bare_wall, bare_digest = self._bare()
            observed = self._observed()
        else:
            observed = self._observed()
            bare_wall, bare_digest = self._bare()
        log.check(self._check(observed["result"]) == bare_digest,
                  "observed result differs from the bare one")
        log.same_digest("result_sha256", bare_digest)
        log.add("campaign_wall_s", observed["wall"])
        log.add("first_unit_s", observed["first_unit"])
        log.add("obs_overhead_ratio", observed["wall"] / bare_wall)
        log.add("bare_wall_s", bare_wall)

    def lean_round(self, index: int) -> None:
        """The observed arm, nothing else."""
        observed = self._observed()
        self.log.same_digest("result_sha256", self._check(observed["result"]))
        self.log.add("campaign_wall_s", observed["wall"])
        self.log.add("first_unit_s", observed["first_unit"])

    def traced_round(self, index: int):
        observed = self._observed(span={"workload": self.name, "round": index})
        self.log.same_digest("result_sha256", self._check(observed["result"]))
        self.log.count("obs.events_emitted", len(observed["telemetry"].events))
        # Only a traced arm is kept for the probes: a timed round that held on
        # to 9,000 events and 45,000 spans would tax the next round's GC.
        self._last = observed
        return observed["telemetry"].tracer, observed["telemetry"].metrics

    def probe(self, prober: Prober) -> Dict[str, float]:
        last = self._last
        telemetry: Telemetry = last["telemetry"]
        recorded = [event for event in telemetry.events if event.kind != "detector"]

        def replay() -> None:
            log = EventLog()
            attach_detectors(log)
            for event in recorded:
                log.emit(event.kind, **event.payload)

        traced = Telemetry(trace=True, metrics=False)

        def thousand_spans() -> None:
            for _ in range(1000):
                with traced.span("probe"):
                    pass
            traced.tracer.spans.clear()

        # A mounted (never started) monitor answers its views without a socket.
        monitor = MonitorServer().mount(telemetry, runner=last["runner"])
        try:
            progress_s = prober.seconds("monitor.progress", monitor.progress)
            metrics_s = prober.seconds("monitor.metrics", monitor.metrics_text)
        finally:
            monitor.detach()
        return {
            "obs.events_emitted": len(telemetry.events),
            "obs.verdicts": len(verdicts(telemetry.events)),
            "obs.emit_us": 1e6 * prober.seconds("obs.emit", replay) / max(len(recorded), 1),
            "obs.to_ndjson_ms": 1e3 * prober.seconds("obs.to_ndjson",
                                                     telemetry.events.to_ndjson),
            "obs.ndjson_kb": len(last["ndjson"].encode("utf-8")) / 1024.0,
            "telemetry.span_us": 1e6 * prober.seconds("telemetry.span",
                                                      thousand_spans) / 1000,
            "telemetry.prometheus_text_ms": 1e3 * prober.seconds(
                "telemetry.prometheus_text", telemetry.metrics.prometheus_text),
            "monitor.frames_streamed": last["frames"],
            "monitor.progress_ms": 1e3 * progress_s,
            "monitor.metrics_ms": 1e3 * metrics_s,
        }


# -- the paper's packet path ---------------------------------------------------------------


class PacketPath(Workload):
    name = cat.PACKET

    def _pass(self, telemetry: Telemetry) -> Dict[str, float]:
        """Key-setup, data path at 64 and 1400 B, one cross-validation.

        The four calls run inside harness spans: the packet path carries no
        spans of its own, so under a traced round they all land in
        ``unattributed_s`` — which is the honest reading until it does.
        """
        log, packets = self.log, self.scale.packets
        started = time.perf_counter()
        # Key material stays on SCENARIO_SEED: an RSA prime search takes up to
        # 3x longer on one seed than another, and --seed must not change the
        # amount of work.  It draws the data path's master key and nonces.
        with telemetry.span("bench.keysetup", workload=self.name):
            keysetup = run_key_setup_throughput(packets, seed=cat.SCENARIO_SEED)
        with telemetry.span("bench.datapath", workload=self.name, payload=64):
            small = run_datapath_throughput(packets, payload_bytes=64,
                                            seed=self.seed + 1)
        with telemetry.span("bench.datapath", workload=self.name, payload=1400):
            large = run_datapath_throughput(packets, payload_bytes=1400,
                                            seed=self.seed + 2)
        xval_span = telemetry.span("bench.xval", workload=self.name)
        with xval_span:
            xval = cross_validate(seed=cat.SCENARIO_SEED,
                                  duration_seconds=self.scale.xval_seconds)
        wall = time.perf_counter() - started
        for measured in (keysetup.throughput, small.neutralized, small.vanilla,
                         large.neutralized, large.vanilla):
            log.check(measured.operations == packets and measured.elapsed_seconds > 0,
                      f"{measured.label}: {measured.operations}/{packets} packets timed")
        log.check(xval.within_tolerance,
                  f"fluid vs packet disagree: {xval.failure_message()}")
        arms = [[arm.name, arm.offered_pps, arm.packet_goodput_pps,
                 arm.fluid_goodput_pps, arm.wire_bytes_per_packet]
                for arm in xval.arms]
        log.same_digest("result_sha256", sha256_hex(json.dumps(arms).encode("utf-8")))
        return {
            "campaign_wall_s": wall,
            "keysetup_pps": keysetup.throughput.per_second,
            "datapath_pps": small.neutralized.per_second,
            "datapath_rel_vanilla": small.relative_throughput,
            "xval_wall_s": xval_span.seconds,
            "xval_rel_err_max": xval.max_relative_error,
        }

    def round(self, index: int) -> None:
        log = self.log
        for name, value in self._pass(Telemetry(trace=False, metrics=False)).items():
            log.add(name, value)
        errors = log.samples["xval_rel_err_max"]
        log.check(errors[0] == errors[-1],
                  f"xval_rel_err_max did not repeat: {errors[0]!r} -> {errors[-1]!r}")

    def traced_round(self, index: int):
        telemetry = Telemetry(trace=True, metrics=False)
        with telemetry.span(ROUND_SPAN, workload=self.name, round=index):
            self._pass(telemetry)
        return telemetry.tracer, None

    def probe(self, prober: Prober) -> Dict[str, float]:
        log, batch = self.log, 50
        backend = "fast" if fast_backend_available() else None
        source, destination = ip("10.1.0.9"), ip("10.3.0.5")
        domain = NeutralizerDomain(
            NeutralizerConfig(anycast_address=ip("10.200.0.1"),
                              served_prefix=Prefix.parse("10.3.0.0/16"),
                              backend=backend),
            rng=DeterministicRandom(self.seed))
        box = domain.create_neutralizer("probe")
        rng = DeterministicRandom(cat.SCENARIO_SEED)
        request = make_key_setup_packet(ip("10.1.0.7"), domain.anycast_address, rng)
        small = make_neutralized_data_packet(domain, source, destination, 64, backend)
        large = make_neutralized_data_packet(domain, source, destination, 1400, backend)

        out = {
            "core.keysetup_us": 1e6 * prober.seconds(
                "core.keysetup", lambda: box.process(request), batch=batch),
            "core.datapath_us": 1e6 * prober.seconds(
                "core.datapath", lambda: box.process(small), batch=batch),
            "core.datapath_1400_us": 1e6 * prober.seconds(
                "core.datapath_1400", lambda: box.process(large), batch=batch),
        }
        sent = prober.calls * batch
        singles = []
        forwarded = 0
        for _ in range(sent):
            started = time.perf_counter()
            outputs = box.process(small)
            singles.append(time.perf_counter() - started)
            forwarded += len(outputs)
        out["core.datapath_p99_us"] = 1e6 * percentile(singles, 0.99)
        counters = box.counters
        log.check(forwarded == sent
                  and counters["key_setup_responses"] == sent
                  and counters["data_packets_forwarded"] == 3 * sent
                  and counters["tag_failures"] == counters["malformed"] == 0,
                  f"packets sent were not all forwarded: {counters}")

        cipher = get_cipher(rng.random_bytes(16), backend=backend)
        block = rng.random_bytes(16)
        keypair = generate_keypair(512, rng)
        payload = rng.random_bytes(24)
        out["crypto.aes_block_us"] = 1e6 * prober.seconds(
            "crypto.aes_block", lambda: cipher.encrypt_block(block), batch=batch * 10)
        out["crypto.rsa_encrypt_us"] = 1e6 * prober.seconds(
            "crypto.rsa_encrypt", lambda: keypair.public.encrypt(payload, rng),
            batch=batch)

        events, seconds = self._netsim_events()
        log.count("netsim.events", events)
        out["netsim.events"] = events
        out["netsim.events_per_s"] = events / seconds
        return out

    def _netsim_events(self):
        """cross_validate's congested arm, replayed on the public scenario
        builder so the engine's event count can be read off the simulator."""
        scenario = build_scale_validation_scenario(
            clients=4, bottleneck_rate_bps=600_000.0, seed=cat.SCENARIO_SEED)
        topology, server = scenario.topology, scenario.server
        server.register_port_handler(_XVAL_PORT, lambda packet, host: None)
        span = self.harness.span("probe.netsim", workload=self.name)
        with span:
            for name in scenario.client_names:
                host = topology.host(name)
                host.send(udp_packet(host.address, server.address, b"prime",
                                     destination_port=_XVAL_PORT))
            topology.run(1.0)
            for name in scenario.client_names:
                ConstantRateSource(
                    topology.host(name), server.address, packets_per_second=90.0,
                    payload_bytes=200, destination_port=_XVAL_PORT,
                    flow_id=f"probe-{name}").start(self.scale.xval_seconds)
            topology.run(self.scale.xval_seconds + 2.0)
        return topology.sim.processed_events, span.seconds


WORKLOADS = {cls.name: cls for cls in (
    DiurnalTimeline, StochasticCampaign, LatencyCampaign, AdversaryCampaign,
    PoolCheckpoint, ObservedCampaign, PacketPath,
)}
