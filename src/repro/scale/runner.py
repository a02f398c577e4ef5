"""Campaign runners: fleet-scale sweeps, timeline catalogues, Monte Carlo.

Each runner owns one configured campaign and is one :class:`CampaignRunner`
— data plus ``unit_specs`` / ``run_unit`` / ``merge_units`` — run by the one
engine in :mod:`repro.scale.parallel`: ``run()`` is that engine at one
worker and produces a frozen result object with a run id, timing, per-point
records, and a rendered report.  ``prepare()`` builds what the units share
— the population and, for E14–E16, the fleet, the arc histogram and the
first problem template, after which a replica reads no per-client array —
once, in the parent; units (in this process or a pool worker's) take the
prepared runner as it is.  For live progress, attach an event log
(``Telemetry(events=True)``) and subscribe to its stream (:mod:`repro.scale.obs`) —
the campaign emits ``campaign_started`` / ``unit_started`` /
``unit_complete`` / ``campaign_complete`` lifecycle events, so consumers
never need a poll loop; ``get_current_state()`` remains as a passive
snapshot for callers without an event log.
:class:`FleetScaleRunner` sweeps population sizes against one fleet shape
(E12, the paper's §4 scaling argument as a curve);
:class:`TimelineCampaignRunner` runs the named scenarios of
:mod:`repro.scale.catalogue` through the time-stepped fluid simulator
(E13); :class:`StochasticCampaignRunner` runs Monte-Carlo replicas of one
autoscaled scenario against seeded stochastic event sequences and
aggregates availability/churn/cost *distributions* (E14), with
:func:`run_churn_slo_frontier` sweeping the autoscaler's operating point;
:class:`LatencyCampaignRunner` is the queueing-latency variant (E15) — an
elastic demand mix, per-epoch latency percentiles through the
:mod:`repro.scale.latency` proxy, a latency-aware autoscaler, and
:func:`run_latency_cost_frontier` charting dollars against delay.
Everything the *simulation* produces is deterministic from the seed; only
the wall-clock fields reflect the machine the campaign ran on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.report import ExperimentReport, format_series
from ..exceptions import WorkloadError
from ..units import gbps
from .adversary import AdoptionModel, AdversaryGame, IspStrategy
from .autoscale import (
    Autoscaler,
    TargetLatencyPolicy,
    TargetUtilizationPolicy,
    elastic_fleet,
)
from .costmodel import CryptoCostModel
from .fleet import NeutralizerFleet
from .latency import LatencyModel
from .parallel import (
    CampaignProgress,
    CampaignUnit,
    ProcessPoolCampaignExecutor,
)
from .population import ClientPopulation, PopulationMix, default_mix, elastic_mix
from .scenario import FluidResult, ScaleScenario
from .stochastic import (
    EventProcess,
    antithetic_uniforms,
    compile_events,
    default_processes,
    rotated_uniforms,
)
from .telemetry import Telemetry
from .timeline import FluidTimeline, TimelineResult

#: Monte-Carlo seed-allocation schemes for the campaign runners.
VARIANCE_SCHEMES = ("iid", "stratified", "antithetic")


def _default_telemetry() -> Telemetry:
    """A runner's out-of-the-box telemetry: work counters, no span trace.

    Work counters must function without any opt-in (``/metrics`` and the
    perf tooling read them), but span collection on a long campaign is a
    memory commitment the caller should make explicitly by passing a
    tracing :class:`Telemetry`.
    """
    return Telemetry(trace=False)


@dataclass(frozen=True)
class _RotationTransform:
    """A picklable rng transform applying :func:`rotated_uniforms`.

    Stratified campaigns used to build this as a closure, which cannot cross
    a process boundary; campaign units carry their transform to worker
    processes, so it is a frozen dataclass with ``__call__`` instead.
    """

    offset: float

    def __call__(self, rng):
        return rotated_uniforms(rng, self.offset)


def replica_seed_draws(seed: int, replicas: int,
                       variance_reduction: str) -> List[Tuple[int, object]]:
    """Per-replica (event seed, rng transform) under the chosen scheme.

    ``iid`` spawns one independent substream per replica (the classic
    allocation, bit-compatible with earlier campaigns).  ``stratified``
    shares ONE substream and rotates its uniforms by ``r / replicas`` —
    systematic sampling over the hazard quantile space.  ``antithetic``
    spawns one substream per *pair*; the second member mirrors every
    hazard draw.  All three are deterministic from the campaign seed, and
    every draw is picklable so campaign units can ship to worker processes.
    """
    if variance_reduction == "stratified":
        common = np.random.SeedSequence(seed).spawn(1)[0]
        common_seed = int(common.generate_state(1)[0])
        return [
            (common_seed, (None if replica == 0 else
                           _RotationTransform(replica / replicas)))
            for replica in range(replicas)
        ]
    if variance_reduction == "antithetic":
        pairs = (replicas + 1) // 2
        streams = np.random.SeedSequence(seed).spawn(pairs)
        draws: List[Tuple[int, object]] = []
        for replica in range(replicas):
            stream = streams[replica // 2]
            draws.append(
                (int(stream.generate_state(1)[0]),
                 antithetic_uniforms if replica % 2 else None)
            )
        return draws
    streams = np.random.SeedSequence(seed).spawn(replicas)
    return [(int(stream.generate_state(1)[0]), None) for stream in streams]


def _mean_of(records: Sequence[object], name: str) -> float:
    """The mean of one field over a set of replica records."""
    return float(np.mean([getattr(record, name) for record in records]))


def _reject_repeats(what: str, values: Sequence[object], key=None) -> None:
    """Refuse a sweep that lists one value twice, before any unit runs.

    Results are keyed by sweep value (and frontier checkpoints by point
    name, ``key``), so a repeat would silently collapse two points into one
    entry, or let the second resume the first's outcomes.
    """
    first: Dict[object, object] = {}
    for value in values:
        name = value if key is None else key(value)
        if name in first:
            if first[name] == value:
                raise WorkloadError(f"{what} lists {value!r} twice")
            raise WorkloadError(f"{what} lists {first[name]!r} and {value!r}, "
                                f"which share the point name {name!r}")
        first[name] = value


#: The default campaign sweep: three decades up to a million clients.
DEFAULT_CLIENT_COUNTS: Tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000)


class CampaignRunner:
    """One configured campaign: data plus three functions, run by one engine.

    A campaign is a deterministic list of independent work units
    (:meth:`unit_specs`), a per-unit simulation whose outcome depends only
    on the unit and the campaign configuration (:meth:`run_unit`), and a
    merge that always consumes outcomes in unit-index order
    (:meth:`merge_units`) — so *completion* order can never change a
    result.  :class:`repro.scale.parallel.ProcessPoolCampaignExecutor` is
    the only lifecycle: :meth:`run` is that executor at one worker with no
    checkpoint, :meth:`run_parallel` the same executor with more of either.
    The engine owns progress and the lifecycle events and calls only the
    public names of this class.

    A subclass ``__init__`` sets ``run_id``, ``experiment_id``,
    ``experiment_name``, ``total_units`` and what describes its population
    (``clients``, ``seed``, ``mix``, ``regions``), then calls this one.
    """

    #: "points" or "replicas": names the progress counter
    #: (``campaign.<noun>_completed``) and the campaign span's unit count.
    unit_noun = "replicas"

    def __init__(self, *, telemetry: Optional[Telemetry],
                 population: Optional[ClientPopulation] = None) -> None:
        self.telemetry = telemetry if telemetry is not None else _default_telemetry()
        self.progress = CampaignProgress(total=self.total_units)
        self._population: Optional[ClientPopulation] = None
        if population is not None:
            self.adopt_population(population)

    # -- campaign decomposition (per-runner) -----------------------------------------

    def unit_specs(self) -> List[CampaignUnit]:
        """The campaign's work units, in canonical (index) order."""
        raise NotImplementedError

    def run_unit(self, unit: CampaignUnit) -> object:
        """Simulate one unit; the outcome must be picklable."""
        raise NotImplementedError

    def merge_units(self, outcomes: Sequence[object], *, started_at: float,
                    duration_seconds: float) -> object:
        """Assemble the campaign result from outcomes in unit order."""
        raise NotImplementedError

    # -- what the engine calls around the units ---------------------------------------

    def prepare(self) -> None:
        """Build, once, what every unit shares — here the drawn population.

        Where a campaign's shared O(n_clients) work lives: the engine calls
        it in the parent, inside the ``campaign`` span, and hands the
        prepared runner to pool workers as it is (they never call it);
        calling it again is a memo hit.
        """
        self.shared_population()

    def begin_campaign(self) -> None:
        """Campaign-scoped accounting that runs inside the campaign span."""

    def unit_state(self, unit: CampaignUnit) -> Tuple[int, Optional[str]]:
        """(population size, label) a progress snapshot quotes for ``unit``."""
        return self.clients, unit.label

    @property
    def progress_counter(self) -> str:
        """Telemetry counter incremented once per completed unit."""
        return f"campaign.{self.unit_noun}_completed"

    def get_current_state(self) -> ScaleExperimentState:
        """Snapshot the engine's progress record (poll-safe, cheap); the
        current point is the lowest-index unit in flight."""
        progress = self.progress
        in_flight = dict(progress.in_flight)
        clients, label = ((None, None) if not in_flight
                          else self.unit_state(in_flight[min(in_flight)][0]))
        return ScaleExperimentState(
            completed_points=progress.completed,
            total_points=progress.total,
            current_clients=clients,
            current_label=label,
        )

    def _result_header(self, started_at: float,
                       duration_seconds: float) -> Dict[str, object]:
        """This campaign's :class:`CampaignResult` fields, as keywords."""
        completed_at = started_at + duration_seconds
        return dict(run_id=self.run_id, experiment_name=self.experiment_name,
                    started_at=started_at, completed_at=completed_at,
                    duration_seconds=completed_at - started_at)

    # -- the shared population --------------------------------------------------------

    def shared_population(self) -> ClientPopulation:
        """The one population every unit shares: supplied, adopted, or built.

        Built at most once; it is deterministic from (clients, mix, regions,
        seed), so the memo never changes a result — it only removes an
        O(n_clients) rebuild per unit and per run.
        """
        if self._population is None:
            self._population = ClientPopulation(
                self.clients, mix=self.mix, regions=self.regions, seed=self.seed)
        return self._population

    def adopt_population(self, population: ClientPopulation) -> None:
        """Make a caller-built population the shared one.

        It must be the population this campaign describes — same size, same
        region count, and the runner's mix when the runner states one (a
        runner whose ``mix`` is ``None`` takes the population's) — or the
        report would be titled for a workload that did not run.  Seeds are
        deliberately not compared: drawing the clients on one seed and the
        events on another is legitimate.
        """
        stated = {"n_clients": self.clients, "regions": self.regions}
        if self.mix is not None:
            stated["mix"] = self.mix
        for name, value in stated.items():
            if getattr(population, name) != value:
                raise WorkloadError(
                    f"shared population does not match the campaign's {name}")
        self._population = population

    # -- worker transport -------------------------------------------------------------

    def __getstate__(self):
        # Telemetry holds thread locks; workers get a fresh registry.  What
        # prepare() built travels whole — a spawn-started worker unpickles
        # one population (1 B/client of bins, its arc tables) and the
        # template, and makes no O(n_clients) pass of its own.
        return {**self.__dict__, "telemetry": None}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.telemetry = _default_telemetry()

    # -- the two entry points, one engine ---------------------------------------------

    def run(self):
        """Run the campaign in this process: the engine at one worker."""
        return ProcessPoolCampaignExecutor(self, n_workers=1).run()

    def run_parallel(self, *, n_workers: Optional[int] = None,
                     checkpoint_dir=None, trace_dir=None, monitor=None):
        """Run this campaign through the process-pool executor.

        Convenience for ``ProcessPoolCampaignExecutor(self, ...).run()``;
        see :mod:`repro.scale.parallel` for the determinism contract.
        ``monitor`` mounts a :class:`repro.scale.monitor.MonitorServer`
        on this campaign's telemetry for the duration of the run: live
        ``/metrics``, ``/progress``, ``/stream``, and out-of-band worker
        heartbeats, without changing a single campaign number or
        canonical event byte (see docs/observability.md).
        """
        return ProcessPoolCampaignExecutor(
            self, n_workers=n_workers, checkpoint_dir=checkpoint_dir,
            trace_dir=trace_dir, monitor=monitor,
        ).run()


@dataclass(frozen=True)
class SweepRecord:
    """One sweep point: a solved population size against the fleet."""

    clients: int
    wall_seconds: float
    solver_iterations: int
    goodput_bps: Dict[str, float]
    demand_bps: Dict[str, float]
    delivered_fraction: float
    peak_cpu_utilization: float
    peak_uplink_utilization: float
    key_setup_pps: float


@dataclass(frozen=True)
class ScaleExperimentState:
    """Progress snapshot of a running campaign."""

    completed_points: int
    total_points: int
    #: Population size of the in-flight point; ``None`` when no unit is in
    #: flight (always, in an unmonitored pool).
    current_clients: Optional[int]
    #: Human-readable label of the in-flight point (e.g. the scenario name
    #: of a timeline campaign); ``None`` when idle or for plain sweeps.
    current_label: Optional[str] = None

    @property
    def done(self) -> bool:
        """Whether every sweep point has been solved."""
        return self.completed_points >= self.total_points


@dataclass(frozen=True)
class CampaignResult:
    """The identity and timing fields every campaign result starts with.

    Filled by :meth:`CampaignRunner._result_header`; the timing fields are
    wall clock, so :func:`repro.scale.parallel.canonical_result_bytes`
    drops them.
    """

    run_id: str
    experiment_name: str
    started_at: float
    completed_at: float
    duration_seconds: float


@dataclass(frozen=True)
class FleetScaleResult(CampaignResult):
    """Final result of one E12 sweep."""

    records: Tuple[SweepRecord, ...]
    report: ExperimentReport

    @property
    def largest_point(self) -> SweepRecord:
        """The record with the most clients (the headline number)."""
        return max(self.records, key=lambda record: record.clients)


class FleetScaleRunner(CampaignRunner):
    """Sweeps client counts against a neutralizer fleet and tabulates results.

    One unit per client count; each builds its own population, so the
    sweep shares only the fleet.
    """

    unit_noun = "points"

    def __init__(
        self,
        *,
        client_counts: Sequence[int] = DEFAULT_CLIENT_COUNTS,
        n_sites: int = 16,
        cores_per_site: float = 8.0,
        uplink_bps: float = gbps(10),
        regions: int = 8,
        cost_model: Optional[CryptoCostModel] = None,
        failed_sites: Sequence[str] = (),
        seed: int = 2006,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not client_counts or min(client_counts) <= 0:
            raise WorkloadError("the sweep needs at least one positive client count")
        _reject_repeats("client counts", client_counts)
        self.client_counts = tuple(sorted(client_counts))
        self.n_sites = n_sites
        self.cores_per_site = cores_per_site
        self.regions = regions
        self.mix = default_mix()
        self.cost_model = cost_model or CryptoCostModel.default()
        self.failed_sites = tuple(failed_sites)
        self.seed = seed
        self.run_id = f"fleet-scale-{seed:08x}-{n_sites}x{len(self.client_counts)}"
        self.experiment_name = "fleet_scale_sweep"
        self.experiment_id = "E12"
        self.total_units = len(self.client_counts)
        # One fleet for every sweep point: its ring and capacity arrays do
        # not depend on the population.  A bad ``failed_sites`` entry (an
        # unknown site, or one that would fail them all) is refused here.
        self.fleet = NeutralizerFleet.build(
            n_sites, cores=cores_per_site, uplink_bps=uplink_bps,
            cost_model=self.cost_model,
        )
        for name in self.failed_sites:
            self.fleet.fail_site(name)
        super().__init__(telemetry=telemetry)

    # -- campaign decomposition -------------------------------------------------------

    def prepare(self) -> None:
        """Nothing to share up front: every point draws its own population."""

    def unit_state(self, unit: CampaignUnit) -> Tuple[int, Optional[str]]:
        return unit.point, None

    def unit_specs(self) -> List[CampaignUnit]:
        return [
            CampaignUnit(index=index, point=clients, replica=0, label=str(clients))
            for index, clients in enumerate(self.client_counts)
        ]

    def solve_point(self, clients: int) -> Tuple[FluidResult, float]:
        """Solve one sweep point; returns the fluid result and its wall time."""
        telemetry = self.telemetry
        point_span = telemetry.span("point", clients=clients)
        with point_span:
            with telemetry.span("population_build"):
                population = ClientPopulation(
                    clients, mix=self.mix, regions=self.regions, seed=self.seed
                )
                scenario = ScaleScenario(population, self.fleet)
            with telemetry.span("solve"):
                result = scenario.solve(telemetry=telemetry)
        return result, point_span.seconds

    def run_unit(self, unit: CampaignUnit) -> SweepRecord:
        fluid, wall = self.solve_point(unit.point)
        return SweepRecord(
            clients=unit.point,
            wall_seconds=wall,
            solver_iterations=fluid.solver_iterations,
            goodput_bps=dict(fluid.goodput_bps),
            demand_bps=dict(fluid.demand_bps),
            delivered_fraction=fluid.delivered_fraction,
            peak_cpu_utilization=float(fluid.cpu_utilization.max()),
            peak_uplink_utilization=float(fluid.uplink_utilization.max()),
            key_setup_pps=fluid.key_setup_pps,
        )

    def merge_units(self, outcomes: Sequence[SweepRecord], *, started_at: float,
                    duration_seconds: float) -> FleetScaleResult:
        return FleetScaleResult(
            **self._result_header(started_at, duration_seconds),
            records=tuple(outcomes),
            report=self._render_report(list(outcomes)),
        )

    def _render_report(self, records: List[SweepRecord]) -> ExperimentReport:
        report = ExperimentReport(
            "E12",
            f"Fleet-scale fluid sweep ({self.n_sites} sites x "
            f"{self.cores_per_site:g} cores, seed {self.seed})",
        )
        class_names = self.mix.names
        counts = [record.clients for record in records]
        series = {
            f"{name} goodput Mb/s": [record.goodput_bps[name] / 1e6 for record in records]
            for name in class_names
        }
        series["delivered fraction"] = [record.delivered_fraction for record in records]
        report.tables.append(format_series("clients", counts, series,
                                           title="goodput vs population size"))
        report.add_table(
            ["clients", "peak cpu util", "peak uplink util", "key setups/s",
             "solver passes", "wall s"],
            [[record.clients, record.peak_cpu_utilization, record.peak_uplink_utilization,
              record.key_setup_pps, record.solver_iterations, record.wall_seconds]
             for record in records],
        )
        if self.failed_sites:
            report.add_note(f"failed sites: {', '.join(self.failed_sites)}")
        report.add_note(
            "fluid model: max-min fair allocation over regional uplinks, site "
            "uplinks and site CPUs; absolute capacity comes from the calibrated "
            "crypto cost model, so the shape (where the knee sits) is the claim"
        )
        return report


# ---------------------------------------------------------------------------
# E13: the timeline scenario catalogue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimelineCampaignRecord:
    """Summary of one catalogue scenario's solved timeline."""

    scenario: str
    title: str
    epochs: int
    wall_seconds: float
    solve_seconds: float
    min_delivered_fraction: float
    mean_delivered_fraction: float
    total_clients_remapped: int
    peak_remap_epoch: Optional[int]
    warm_fraction: float
    fast_fraction: float
    peak_cpu_utilization: float
    peak_uplink_utilization: float


@dataclass(frozen=True)
class TimelineCampaignResult(CampaignResult):
    """Final result of one E13 catalogue run."""

    records: Tuple[TimelineCampaignRecord, ...]
    #: Full per-epoch results, keyed by scenario name.
    timelines: Dict[str, TimelineResult]
    report: ExperimentReport

    @property
    def worst_scenario(self) -> TimelineCampaignRecord:
        """The scenario with the deepest delivered-fraction dip."""
        return min(self.records, key=lambda record: record.min_delivered_fraction)


@dataclass(frozen=True)
class TimelineUnitOutcome:
    """One E13 unit's outcome: the summary record plus the full timeline."""

    record: TimelineCampaignRecord
    timeline: TimelineResult


class TimelineCampaignRunner(CampaignRunner):
    """Runs every named catalogue scenario through the fluid timeline (E13).

    One unit per scenario, all on one shared population: the catalogue
    re-derives only the fleet and events per scenario.
    """

    unit_noun = "points"

    def __init__(
        self,
        *,
        scenarios: Optional[Sequence[str]] = None,
        clients: int = 100_000,
        seed: int = 2006,
        cost_model: Optional[CryptoCostModel] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        from .catalogue import CATALOGUE, scenario_names

        self.scenario_names = list(scenarios) if scenarios is not None else scenario_names()
        if not self.scenario_names:
            raise WorkloadError("the campaign needs at least one scenario")
        unknown = [name for name in self.scenario_names if name not in CATALOGUE]
        if unknown:
            # Fail fast: a typo'd last entry must not surface only after the
            # earlier scenarios have been fully solved.
            raise WorkloadError(
                f"unknown scenario(s) {', '.join(unknown)}; "
                f"catalogue has {', '.join(CATALOGUE)}"
            )
        _reject_repeats("scenarios", self.scenario_names)
        if clients <= 0:
            raise WorkloadError("the campaign needs a positive population size")
        self.clients = int(clients)
        self.seed = seed
        #: The shared population is the default draw; a scenario that needs
        #: another mix builds its own (:class:`repro.scale.config.PopulationSpec`).
        self.mix: Optional[PopulationMix] = None
        self.regions = 8
        self.cost_model = cost_model
        self.run_id = f"timeline-{seed:08x}-{self.clients}x{len(self.scenario_names)}"
        self.experiment_name = "timeline_catalogue"
        self.experiment_id = "E13"
        self.total_units = len(self.scenario_names)
        super().__init__(telemetry=telemetry)

    # -- campaign decomposition -------------------------------------------------------

    def unit_specs(self) -> List[CampaignUnit]:
        return [
            CampaignUnit(index=index, point=name, replica=0, label=name)
            for index, name in enumerate(self.scenario_names)
        ]

    def run_unit(self, unit: CampaignUnit) -> TimelineUnitOutcome:
        from .catalogue import CATALOGUE, build_scenario

        telemetry = self.telemetry
        name = unit.point
        population = self.shared_population()
        with telemetry.span("point", scenario=name):
            timeline = build_scenario(
                name, clients=self.clients, seed=self.seed,
                cost_model=self.cost_model, population=population,
                telemetry=telemetry,
            )
            result = timeline.run()
        record = TimelineCampaignRecord(
            scenario=name,
            title=CATALOGUE[name].title,
            epochs=result.epochs,
            wall_seconds=result.wall_seconds,
            solve_seconds=result.solve_seconds_total,
            min_delivered_fraction=result.min_delivered_fraction,
            mean_delivered_fraction=result.mean_delivered_fraction,
            total_clients_remapped=result.total_clients_remapped,
            peak_remap_epoch=result.peak_remap_epoch,
            warm_fraction=result.warm_fraction,
            fast_fraction=result.fast_fraction,
            peak_cpu_utilization=float(result.cpu_utilization.max()),
            peak_uplink_utilization=float(result.uplink_utilization.max()),
        )
        return TimelineUnitOutcome(record=record, timeline=result)

    def merge_units(self, outcomes: Sequence[TimelineUnitOutcome], *,
                    started_at: float,
                    duration_seconds: float) -> TimelineCampaignResult:
        records = [outcome.record for outcome in outcomes]
        timelines = {outcome.record.scenario: outcome.timeline
                     for outcome in outcomes}
        return TimelineCampaignResult(
            **self._result_header(started_at, duration_seconds),
            records=tuple(records),
            timelines=timelines,
            report=self._render_report(records, timelines),
        )

    def _render_report(self, records: List[TimelineCampaignRecord],
                       timelines: Dict[str, TimelineResult]) -> ExperimentReport:
        report = ExperimentReport(
            "E13",
            f"Timeline scenario catalogue ({self.clients:,} clients, seed {self.seed})",
        )
        report.add_table(
            ["scenario", "epochs", "min deliv", "mean deliv", "remapped",
             "reuse frac", "fast frac", "peak cpu", "wall s"],
            [[record.scenario, record.epochs, record.min_delivered_fraction,
              record.mean_delivered_fraction, record.total_clients_remapped,
              record.warm_fraction, record.fast_fraction,
              record.peak_cpu_utilization,
              record.wall_seconds] for record in records],
            title="scenario summaries",
        )
        # The flagship is the first scenario the campaign ran.
        name = self.scenario_names[0]
        flagship = timelines[name]
        report.tables.append(format_series(
            "epoch", [record.epoch for record in flagship.records],
            flagship.series(), title=f"flagship timeline: {name}", max_rows=16,
        ))
        report.add_note(
            "each scenario provisions its fleet relative to the population's "
            "nominal demand, so the shapes are population-size invariant"
        )
        report.add_note(
            "reuse frac: epochs that posed the previous epoch's problem and "
            "took its answer outright — steady load, no event; fast frac: "
            "all epochs that skipped the fill, the reused ones and the "
            "uncongested epochs certified directly from the demands vector"
        )
        return report


# ---------------------------------------------------------------------------
# E14: Monte-Carlo stochastic availability campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricDistribution:
    """P50/P95/P99 summary of one campaign metric.

    ``tail`` records which direction is the risk: for availability-like
    metrics (``'low'``) the P95/P99 columns are the values *exceeded by* 95%
    and 99% of samples (the 5th and 1st percentiles — tail risk), while for
    cost-like metrics (``'high'``) they are the classic upper percentiles.
    ``worst`` is the corresponding extreme.
    """

    metric: str
    tail: str
    p50: float
    p95: float
    p99: float
    mean: float
    worst: float
    samples: int

    @classmethod
    def from_samples(cls, metric: str, samples: Sequence[float],
                     *, tail: str = "high") -> "MetricDistribution":
        if tail not in ("low", "high"):
            raise WorkloadError("distribution tail must be 'low' or 'high'")
        values = np.asarray(list(samples), dtype=np.float64)
        if values.size == 0:
            raise WorkloadError(f"metric {metric!r} has no samples")
        if tail == "low":
            p95, p99, worst = (np.percentile(values, 5), np.percentile(values, 1),
                               values.min())
        else:
            p95, p99, worst = (np.percentile(values, 95), np.percentile(values, 99),
                               values.max())
        return cls(metric=metric, tail=tail, p50=float(np.percentile(values, 50)),
                   p95=float(p95), p99=float(p99), mean=float(values.mean()),
                   worst=float(worst), samples=int(values.size))


@dataclass(frozen=True)
class StochasticReplicaRecord:
    """One Monte-Carlo replica: a full stochastic timeline, summarized."""

    replica: int
    #: Seed the replica's event sequence was compiled from.
    event_seed: int
    events_fired: int
    mean_delivered: float
    worst_delivered: float
    #: Fraction of epochs at or above the campaign's SLO threshold.
    slo_attainment: float
    clients_remapped: int
    autoscale_actions: int
    peak_sites: int
    trough_sites: int
    #: Per-epoch mean of the serving-site count (the operating point).
    mean_sites: float
    provision_cost: float
    wall_seconds: float
    #: Latency telemetry (zeros when the campaign runs without a model).
    mean_latency_p95_seconds: float = 0.0
    worst_latency_p95_seconds: float = 0.0
    #: Mean over epochs of the client fraction violating the latency SLO.
    latency_slo_violations: float = 0.0
    #: Fraction of epochs keeping violations within the campaign's budget.
    latency_slo_attainment: float = 1.0


@dataclass(frozen=True)
class StochasticCampaignResult(CampaignResult):
    """Final result of one E14 (or E15) Monte-Carlo campaign."""

    slo: float
    records: Tuple[StochasticReplicaRecord, ...]
    #: Named P50/P95/P99 summaries; see the runner for the metric set.
    distributions: Dict[str, MetricDistribution]
    report: ExperimentReport

    @property
    def availability(self) -> MetricDistribution:
        """The headline distribution: per-epoch delivered fraction, pooled."""
        return self.distributions["availability"]

    @property
    def worst_replica(self) -> StochasticReplicaRecord:
        """The replica with the deepest availability dip."""
        return min(self.records, key=lambda record: record.worst_delivered)

    def churn_slo_points(self) -> List[Tuple[int, float]]:
        """Per-replica (churn, SLO attainment) pairs — the raw frontier cloud."""
        return [(record.clients_remapped, record.slo_attainment)
                for record in self.records]


@dataclass(frozen=True)
class StochasticUnitOutcome:
    """One E14/E15 unit's outcome: the record plus pooled per-epoch arrays."""

    record: StochasticReplicaRecord
    delivered_fraction: np.ndarray
    latency_p95: Optional[np.ndarray]


class _ReplicaCampaign(CampaignRunner):
    """What E14–E16 share: seeded event replicas over one elastic fleet.

    A subclass sets the fleet shape (``max_sites``, ``nominal_sites``,
    ``at_utilization``), the horizon (``epochs``), the event ``processes``
    and the timeline's controllers (``autoscaler``, ``latency_model``,
    ``latency_slo_seconds``).
    """

    def __init__(self, *, variance_reduction: str, **kwargs) -> None:
        if variance_reduction not in VARIANCE_SCHEMES:
            # Fail here, not after the expensive population build inside run().
            raise WorkloadError(
                f"unknown variance-reduction scheme {variance_reduction!r}; "
                f"pick one of {', '.join(VARIANCE_SCHEMES)}"
            )
        self.variance_reduction = variance_reduction
        self._scenario: Optional[ScaleScenario] = None
        super().__init__(**kwargs)

    def begin_campaign(self) -> None:
        self.telemetry.inc(f"campaign.variance_mode.{self.variance_reduction}")

    def prepare(self) -> None:
        """Population → fleet → scenario → arc histogram → template, once:
        the only O(n_clients) code of an E14–E16 campaign."""
        self.shared_scenario().build_template()

    def shared_scenario(self) -> ScaleScenario:
        """One fleet + scenario shared by every replica of this campaign.

        Replicas only ever mutate the fleet through timeline runs, which
        restore its pre-run state, so the fleet's hashed ring points and the
        scenario's O(n_clients) problem template are paid for once, in
        :meth:`prepare`; each replica refreshes the stale template
        incrementally over zero moved arcs.
        """
        population = self.shared_population()
        if self._scenario is None or self._scenario.population is not population:
            fleet = elastic_fleet(
                population, self.max_sites, nominal_sites=self.nominal_sites,
                at_utilization=self.at_utilization,
            )
            self._scenario = ScaleScenario(population, fleet)
        return self._scenario

    def run_replica(self, event_seed: int, rng_transform=None, *,
                    adversary: Optional[AdversaryGame] = None) -> TimelineResult:
        """One stochastic timeline: compiled events + controllers, solved.

        ``adversary`` is the game this replica plays, if any.
        """
        scenario = self.shared_scenario()
        fleet = scenario.fleet
        events = compile_events(
            self.processes, seed=event_seed, epochs=self.epochs,
            site_names=[site.name for site in fleet.sites],
            rng_transform=rng_transform,
        )
        return FluidTimeline(
            scenario.population, fleet,
            epochs=self.epochs, epoch_seconds=900.0, events=events,
            autoscaler=self.autoscaler,
            latency=self.latency_model,
            latency_slo_seconds=self.latency_slo_seconds,
            adversary=adversary,
            scenario=scenario,
            telemetry=self.telemetry,
        ).run()

    def _timed_replica(self, unit: CampaignUnit, adversary=None,
                       **span_attrs) -> Tuple[TimelineResult, float]:
        """``unit``'s timeline under its ``replica`` span, and the span's wall."""
        replica_span = self.telemetry.span("replica", replica=unit.replica,
                                           **span_attrs)
        with replica_span:
            result = self.run_replica(unit.event_seed, unit.rng_transform,
                                      adversary=adversary)
        return result, replica_span.seconds


class StochasticCampaignRunner(_ReplicaCampaign):
    """E14: Monte-Carlo availability campaigns over stochastic fleets.

    Runs ``replicas`` independent timelines of the same scenario — one
    shared population, one autoscaled elastic fleet shape, one load curve —
    each with a freshly drawn stochastic event sequence (Poisson site
    failures, correlated regional outages, DoS attack onsets), and
    aggregates the per-replica and per-epoch metrics into P50/P95/P99
    distributions plus churn-vs-SLO numbers.  Everything is deterministic
    from ``seed``: replica event streams are spawned from it, so the same
    seed always reproduces the identical distributions, bit for bit.
    """

    def __init__(
        self,
        *,
        clients: int = 1_000_000,
        epochs: int = 200,
        replicas: int = 32,
        seed: int = 2006,
        regions: int = 8,
        max_sites: int = 40,
        nominal_sites: int = 32,
        at_utilization: float = 0.65,
        slo: float = 0.95,
        processes: Optional[Sequence[EventProcess]] = None,
        mix: Optional[PopulationMix] = None,
        population: Optional[ClientPopulation] = None,
        variance_reduction: str = "iid",
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if clients <= 0 or epochs <= 0 or replicas <= 0:
            raise WorkloadError("campaign needs positive clients, epochs and replicas")
        if not 0 < slo <= 1:
            raise WorkloadError("SLO threshold must be in (0, 1]")
        self.clients = int(clients)
        self.epochs = int(epochs)
        self.replicas = int(replicas)
        self.seed = seed
        self.regions = regions
        self.max_sites = max_sites
        self.nominal_sites = nominal_sites
        self.at_utilization = at_utilization
        self.slo = slo
        self.processes = tuple(processes) if processes is not None else default_processes()
        self.autoscaler = Autoscaler(
            TargetUtilizationPolicy(target=at_utilization, deadband=0.08),
            min_sites=max(nominal_sites // 2, 1),
            warmup_epochs=1,
            cooldown_epochs=1,
        )
        self.mix = mix
        #: E14 charts availability only; E15 attaches a latency model.
        self.latency_model: Optional[LatencyModel] = None
        self.latency_slo_seconds = 0.1
        self.latency_violation_budget = 0.05
        self.run_id = f"stochastic-{seed:08x}-{self.clients}x{self.replicas}"
        self.experiment_name = "stochastic_availability"
        self.experiment_id = "E14"
        self.total_units = self.replicas
        super().__init__(variance_reduction=variance_reduction,
                         telemetry=telemetry, population=population)

    # -- campaign decomposition -------------------------------------------------------

    def unit_specs(self) -> List[CampaignUnit]:
        draws = replica_seed_draws(self.seed, self.replicas,
                                   self.variance_reduction)
        return [
            CampaignUnit(index=replica, point=None, replica=replica,
                         label=f"replica {replica}", event_seed=event_seed,
                         rng_transform=rng_transform)
            for replica, (event_seed, rng_transform) in enumerate(draws)
        ]

    def run_unit(self, unit: CampaignUnit) -> StochasticUnitOutcome:
        result, wall = self._timed_replica(unit, event_seed=unit.event_seed)
        latency_p95 = None
        latency_fields = {}
        if self.latency_model is not None:
            latency_p95 = result.latency_p95_seconds
            latency_fields = dict(
                mean_latency_p95_seconds=float(latency_p95.mean()),
                worst_latency_p95_seconds=float(latency_p95.max()),
                latency_slo_violations=result.mean_latency_slo_violations,
                latency_slo_attainment=result.latency_slo_attainment(
                    self.latency_violation_budget),
            )
        record = StochasticReplicaRecord(
            replica=unit.replica,
            event_seed=unit.event_seed,
            events_fired=sum(len(record.events)
                             for record in result.records),
            mean_delivered=result.mean_delivered_fraction,
            worst_delivered=result.min_delivered_fraction,
            slo_attainment=result.slo_attainment(self.slo),
            clients_remapped=result.total_clients_remapped,
            autoscale_actions=result.total_autoscale_actions,
            peak_sites=int(result.sites_in_service.max()),
            trough_sites=int(result.sites_in_service.min()),
            mean_sites=float(result.sites_in_service.mean()),
            provision_cost=result.total_provision_cost,
            wall_seconds=wall,
            **latency_fields,
        )
        return StochasticUnitOutcome(record=record,
                                     delivered_fraction=result.delivered_fraction,
                                     latency_p95=latency_p95)

    def merge_units(self, outcomes: Sequence[StochasticUnitOutcome], *,
                    started_at: float,
                    duration_seconds: float) -> StochasticCampaignResult:
        records = [outcome.record for outcome in outcomes]
        pooled_delivered = [outcome.delivered_fraction for outcome in outcomes]
        pooled_latency_p95 = [outcome.latency_p95 for outcome in outcomes
                              if outcome.latency_p95 is not None]

        # (metric, samples, which tail is the risk), in report order.
        rows = [
            ("availability", np.concatenate(pooled_delivered), "low"),
            ("replica availability",
             [record.mean_delivered for record in records], "low"),
            ("worst-epoch availability",
             [record.worst_delivered for record in records], "low"),
            (f"slo attainment (>= {self.slo:g})",
             [record.slo_attainment for record in records], "low"),
            ("remap churn (client-moves)",
             [float(record.clients_remapped) for record in records], "high"),
            ("provision cost (usd)",
             [record.provision_cost for record in records], "high"),
        ]
        if self.latency_model is not None:
            # Latency percentiles are upper-tail risks: the P99 row is the
            # per-epoch P95 delay only 1% of epochs exceed.
            rows += [
                ("latency p95 (ms)",
                 np.concatenate(pooled_latency_p95) * 1e3, "high"),
                ("replica worst p95 (ms)",
                 [record.worst_latency_p95_seconds * 1e3 for record in records],
                 "high"),
                (f"latency slo attainment (<= "
                 f"{self.latency_violation_budget:g} viol)",
                 [record.latency_slo_attainment for record in records], "low"),
            ]
        distributions = {
            metric: MetricDistribution.from_samples(metric, samples, tail=tail)
            for metric, samples, tail in rows
        }
        return StochasticCampaignResult(
            **self._result_header(started_at, duration_seconds),
            slo=self.slo,
            records=tuple(records),
            distributions=distributions,
            report=self._render_report(records, distributions),
        )

    def _campaign_title(self) -> str:
        return (f"Stochastic availability campaign ({self.clients:,} clients, "
                f"{self.replicas} replicas x {self.epochs} epochs, seed {self.seed})")

    def _render_report(self, records: List[StochasticReplicaRecord],
                       distributions: Dict[str, MetricDistribution]) -> ExperimentReport:
        report = ExperimentReport(self.experiment_id, self._campaign_title())
        report.add_table(
            ["metric", "p50", "p95", "p99", "mean", "worst", "samples"],
            [[dist.metric, dist.p50, dist.p95, dist.p99, dist.mean, dist.worst,
              dist.samples] for dist in distributions.values()],
            title="distributions (availability-like rows quote tail-risk percentiles)",
        )
        if self.latency_model is not None:
            report.add_table(
                ["replica", "events", "mean deliv", "p95 ms", "worst p95 ms",
                 "lat slo att", "churn", "sites lo-hi", "cost usd"],
                [[record.replica, record.events_fired, record.mean_delivered,
                  record.mean_latency_p95_seconds * 1e3,
                  record.worst_latency_p95_seconds * 1e3,
                  record.latency_slo_attainment,
                  record.clients_remapped,
                  f"{record.trough_sites}-{record.peak_sites}",
                  record.provision_cost] for record in records],
                title="latency vs cost, replica by replica",
            )
            report.add_note(
                f"latency proxy: M/G/1-PS with service CV "
                f"{self.latency_model.service_cv:g}, geometry base RTT; SLO "
                f"{self.latency_slo_seconds * 1e3:g} ms at a "
                f"{self.latency_violation_budget:g} client-violation budget"
            )
        report.add_table(
            ["replica", "events", "mean deliv", "worst deliv", "slo att",
             "churn", "actions", "sites lo-hi", "cost usd"],
            [[record.replica, record.events_fired, record.mean_delivered,
              record.worst_delivered, record.slo_attainment,
              record.clients_remapped, record.autoscale_actions,
              f"{record.trough_sites}-{record.peak_sites}",
              record.provision_cost] for record in records],
            title="churn vs SLO, replica by replica",
        )
        report.add_note(
            f"elastic fleet: {self.nominal_sites} nominal of {self.max_sites} max "
            f"sites at {self.at_utilization:g} target utilization; autoscaler "
            f"policy {type(self.autoscaler.policy).__name__}, warm-up "
            f"{self.autoscaler.warmup_epochs} epoch(s), cooldown "
            f"{self.autoscaler.cooldown_epochs}"
        )
        report.add_note(
            "every replica replays the same load against a fresh seeded event "
            "sequence (Poisson failures, correlated outages, attack onsets); "
            "identical campaign seeds reproduce identical distributions"
        )
        if self.variance_reduction != "iid":
            report.add_note(
                f"replica seeds allocated with the {self.variance_reduction!r} "
                f"variance-reduction scheme (marginals exact, replicas "
                f"correlated to sharpen the estimator)"
            )
        return report


def _sweep_frontier(runner_class, knob: str, values: Sequence[float],
                    slug: str, point_class, columns: Dict[str, object], *,
                    n_workers: int, checkpoint_dir, **campaign_kwargs) -> tuple:
    """One full campaign per ``knob`` value, all on ONE shared population.

    The first point's runner builds the population and every later point
    adopts it; with the campaign seed reused too, the sweep isolates the
    knob from the noise.  Each point is one engine run with its own
    checkpoint subdirectory ``{slug}-{value:g}`` (one run-table per
    campaign), so values whose names coincide are refused up front.
    ``columns`` maps each ``point_class`` field after the knob to a
    replica-record field (its mean over the point's replicas) or a function
    of the campaign result.
    """
    def point_name(value: float) -> str:
        return f"{slug}-{value:g}"

    _reject_repeats(f"the {knob} sweep", values, key=point_name)
    population = None
    points = []
    for value in values:
        runner = runner_class(population=population, **{knob: value},
                              **campaign_kwargs)
        population = runner.shared_population()
        point_dir = (None if checkpoint_dir is None
                     else Path(checkpoint_dir) / point_name(value))
        campaign = runner.run_parallel(n_workers=n_workers,
                                       checkpoint_dir=point_dir)
        points.append(point_class(value, **{
            name: (column(campaign) if callable(column)
                   else _mean_of(campaign.records, column))
            for name, column in columns.items()}))
    return tuple(points)


@dataclass(frozen=True)
class FrontierPoint:
    """One autoscaler operating point on the churn-vs-SLO frontier."""

    target_utilization: float
    availability_p50: float
    availability_p99: float
    mean_slo_attainment: float
    mean_churn: float
    mean_cost_usd: float


@dataclass(frozen=True)
class FrontierResult:
    """The churn-vs-SLO frontier swept over autoscaler utilization targets."""

    points: Tuple[FrontierPoint, ...]
    report: ExperimentReport


#: The churn-vs-SLO frontier table, column by column — one definition
#: shared by the E14 report (quoted in EXPERIMENTS.md) and the live
#: dashboard (``tools/watch_campaign.py``), via
#: :func:`repro.analysis.report.format_frontier_table`.
CHURN_SLO_FRONTIER_COLUMNS: Tuple[Tuple[str, object], ...] = (
    ("target util", "target_utilization"),
    ("avail p50", "availability_p50"),
    ("avail p99", "availability_p99"),
    ("slo att", "mean_slo_attainment"),
    ("mean churn", "mean_churn"),
    ("mean cost usd", "mean_cost_usd"),
)


def run_churn_slo_frontier(
    *,
    targets: Sequence[float] = (0.45, 0.6, 0.75, 0.9),
    clients: int = 200_000,
    epochs: int = 96,
    replicas: int = 8,
    seed: int = 2006,
    slo: float = 0.95,
    n_workers: int = 1,
    checkpoint_dir=None,
    **campaign_kwargs,
) -> FrontierResult:
    """Sweep the autoscaler's utilization target and chart churn against SLO.

    Running hotter (higher target) saves sites and dollars but eats the
    headroom that absorbs failures — SLO attainment falls; running colder
    buys availability with money and scale churn.  One shared population
    feeds every point; each point is a full (smaller) E14 campaign with the
    same seed, so the frontier isolates the policy knob from the noise.
    ``n_workers``/``checkpoint_dir`` route each point through the
    process-pool executor (deterministic and resumable; see
    docs/parallel.md) without changing any number in the table.
    """
    if not targets:
        raise WorkloadError("the frontier needs at least one utilization target")
    points = _sweep_frontier(
        StochasticCampaignRunner, "at_utilization", targets, "target",
        FrontierPoint, {
            "availability_p50": lambda campaign: campaign.availability.p50,
            "availability_p99": lambda campaign: campaign.availability.p99,
            "mean_slo_attainment": "slo_attainment",
            "mean_churn": "clients_remapped",
            "mean_cost_usd": "provision_cost",
        },
        n_workers=n_workers, checkpoint_dir=checkpoint_dir, clients=clients,
        seed=seed, epochs=epochs, replicas=replicas, slo=slo, **campaign_kwargs,
    )
    report = ExperimentReport(
        "E14",
        f"Churn-vs-SLO frontier ({clients:,} clients, {replicas} replicas "
        f"per target, seed {seed})",
    )
    report.add_frontier_table(
        CHURN_SLO_FRONTIER_COLUMNS, points,
        title=f"frontier (SLO threshold {slo:g})",
    )
    report.add_note(
        "hotter fleets are cheaper but lose SLO headroom to the same failure "
        "sequences; the elbow is where the deployment should sit"
    )
    return FrontierResult(points=points, report=report)


# ---------------------------------------------------------------------------
# E15: Monte-Carlo queueing-latency campaigns (elastic mix, latency SLO)
# ---------------------------------------------------------------------------


class LatencyCampaignRunner(StochasticCampaignRunner):
    """E15: Monte-Carlo latency campaigns on an elastic-demand fleet.

    The same machinery as E14 — seeded stochastic event sequences against an
    autoscaled fleet, many replicas, distributions — but the question is
    *delay*, not delivered fraction: the population mixes TCP-like elastic
    web/video with inelastic VoIP (:func:`repro.scale.population.elastic_mix`),
    every epoch maps utilization to client-weighted path-delay percentiles
    through the :class:`repro.scale.latency.LatencyModel` proxy, and the
    controller is the latency-aware
    :class:`repro.scale.autoscale.TargetLatencyPolicy` holding the P95 on
    target, against an SLO of 1.5× that target.  Results add pooled
    P50/P95/P99 latency distributions and per-replica latency-SLO attainment
    next to the availability numbers.  Every other keyword is E14's; the
    ``mix`` is elastic unless one is stated.
    """

    def __init__(
        self,
        *,
        target_p95_seconds: float = 0.06,
        nominal_sites: int = 32,
        max_sites: int = 40,
        **kwargs,
    ) -> None:
        if target_p95_seconds <= 0:
            raise WorkloadError("the latency target must be positive")
        kwargs.setdefault("mix", elastic_mix())
        super().__init__(nominal_sites=nominal_sites, max_sites=max_sites,
                         **kwargs)
        self.target_p95_seconds = target_p95_seconds
        self.latency_model = LatencyModel()
        self.latency_slo_seconds = target_p95_seconds * 1.5
        # Latency control wants a calm loop: queueing delay reacts
        # nonlinearly to every site added or drained, so the controller
        # holds two epochs between actions.
        self.autoscaler = Autoscaler(
            TargetLatencyPolicy.for_model(
                self.latency_model, target_p95_seconds=target_p95_seconds,
            ),
            min_sites=max(nominal_sites // 2, 1),
            warmup_epochs=1,
            cooldown_epochs=2,
        )
        self.run_id = f"latency-{self.seed:08x}-{self.clients}x{self.replicas}"
        self.experiment_name = "latency_slo"
        self.experiment_id = "E15"

    def _campaign_title(self) -> str:
        return (f"Queueing-latency campaign ({self.clients:,} clients, "
                f"{self.replicas} replicas x {self.epochs} epochs, elastic mix, "
                f"P95 target {self.target_p95_seconds * 1e3:g} ms, seed {self.seed})")


@dataclass(frozen=True)
class LatencyFrontierPoint:
    """One latency-target operating point on the latency-vs-cost frontier."""

    target_p95_seconds: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    mean_slo_attainment: float
    mean_sites: float
    mean_cost_usd: float


@dataclass(frozen=True)
class LatencyFrontierResult:
    """The latency-vs-cost frontier swept over P95 delay targets."""

    points: Tuple[LatencyFrontierPoint, ...]
    report: ExperimentReport


#: The latency-vs-cost frontier table; same shared-definition contract
#: as :data:`CHURN_SLO_FRONTIER_COLUMNS`.
LATENCY_COST_FRONTIER_COLUMNS: Tuple[Tuple[str, object], ...] = (
    ("target ms", lambda point: point.target_p95_seconds * 1e3),
    ("p50 ms", "latency_p50_ms"),
    ("p95 ms", "latency_p95_ms"),
    ("p99 ms", "latency_p99_ms"),
    ("lat slo att", "mean_slo_attainment"),
    ("mean sites", "mean_sites"),
    ("mean cost usd", "mean_cost_usd"),
)


def run_latency_cost_frontier(
    *,
    targets_p95_seconds: Sequence[float] = (0.045, 0.055, 0.07, 0.1),
    clients: int = 200_000,
    epochs: int = 96,
    replicas: int = 8,
    seed: int = 2006,
    n_workers: int = 1,
    checkpoint_dir=None,
    **campaign_kwargs,
) -> LatencyFrontierResult:
    """Sweep the latency-aware autoscaler's P95 target: dollars vs delay.

    A tight delay target forces the controller to hold utilization low —
    queueing delay is convex, so the last few milliseconds are bought with
    disproportionately many sites; a loose target lets the fleet run hot
    and cheap until the tail blows through the SLO.  One shared population
    feeds every point; each point is a full (smaller) E15 campaign with the
    same seed, so the frontier isolates the latency knob from the noise.
    """
    if not targets_p95_seconds:
        raise WorkloadError("the frontier needs at least one latency target")

    def pooled(quantile: str):
        return lambda campaign: getattr(
            campaign.distributions["latency p95 (ms)"], quantile)

    points = _sweep_frontier(
        LatencyCampaignRunner, "target_p95_seconds", targets_p95_seconds, "p95",
        LatencyFrontierPoint, {
            "latency_p50_ms": pooled("p50"),
            "latency_p95_ms": pooled("p95"),
            "latency_p99_ms": pooled("p99"),
            "mean_slo_attainment": "latency_slo_attainment",
            "mean_sites": "mean_sites",
            "mean_cost_usd": "provision_cost",
        },
        n_workers=n_workers, checkpoint_dir=checkpoint_dir, clients=clients,
        seed=seed, epochs=epochs, replicas=replicas, **campaign_kwargs,
    )
    report = ExperimentReport(
        "E15",
        f"Latency-vs-cost frontier ({clients:,} clients, {replicas} replicas "
        f"per target, seed {seed})",
    )
    report.add_frontier_table(
        LATENCY_COST_FRONTIER_COLUMNS, points,
        title="frontier (per-epoch pooled P95 path delay)",
    )
    report.add_note(
        "queueing delay is convex in utilization: the last milliseconds of "
        "P95 cost disproportionately many sites — the elbow prices the SLO"
    )
    return LatencyFrontierResult(points=points, report=report)


# ---------------------------------------------------------------------------
# Variance-reduction measurement (stratified / antithetic vs iid)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarianceComparisonResult:
    """Measured estimator spread of each Monte-Carlo seed-allocation scheme."""

    #: Per scheme: std over batches of the campaign's mean-availability
    #: estimate (lower = sharper at the same replica budget).
    mean_estimator_std: Dict[str, float]
    #: Per scheme: std over batches of the pooled tail-risk (P95) estimate.
    tail_estimator_std: Dict[str, float]
    report: ExperimentReport

    def reduction_vs_iid(self, scheme: str) -> float:
        """Std of ``scheme``'s mean estimator relative to iid (1.0 = no gain)."""
        if scheme not in self.mean_estimator_std:
            raise WorkloadError(
                f"scheme {scheme!r} was not part of this comparison "
                f"(ran: {', '.join(self.mean_estimator_std)})"
            )
        base = self.mean_estimator_std["iid"]
        if base <= 0:
            return 1.0  # zero iid spread: nothing left to reduce
        return self.mean_estimator_std[scheme] / base


def compare_variance_reduction(
    *,
    clients: int = 20_000,
    epochs: int = 60,
    replicas: int = 8,
    batches: int = 6,
    seed: int = 2006,
    **campaign_kwargs,
) -> VarianceComparisonResult:
    """Measure what stratified seeds and antithetic pairs actually buy.

    Runs ``batches`` independent campaigns per scheme of
    :data:`VARIANCE_SCHEMES` (each a full, smaller E14) and compares the
    spread of the *estimators* across batches: the campaign's mean
    availability and its pooled tail-risk P95.  A scheme whose estimator
    spread is smaller delivers sharper availability tails at the same
    replica budget — the measured numbers EXPERIMENTS.md quotes.
    One shared population feeds every campaign, so the schemes differ only
    in how replica randomness is allocated.
    """
    if batches < 2:
        raise WorkloadError("variance comparison needs at least two batches")
    # Built by the first runner (batch 0 runs on ``seed``), adopted by the rest.
    population = None
    mean_estimates: Dict[str, List[float]] = {scheme: [] for scheme in VARIANCE_SCHEMES}
    tail_estimates: Dict[str, List[float]] = {scheme: [] for scheme in VARIANCE_SCHEMES}
    for scheme in VARIANCE_SCHEMES:
        for batch in range(batches):
            runner = StochasticCampaignRunner(
                clients=clients, epochs=epochs, replicas=replicas,
                seed=seed + 1009 * batch, population=population,
                variance_reduction=scheme, **campaign_kwargs,
            )
            population = runner.shared_population()
            campaign = runner.run()
            mean_estimates[scheme].append(
                _mean_of(campaign.records, "mean_delivered"))
            tail_estimates[scheme].append(campaign.availability.p95)
    mean_std = {scheme: float(np.std(values, ddof=1))
                for scheme, values in mean_estimates.items()}
    tail_std = {scheme: float(np.std(values, ddof=1))
                for scheme, values in tail_estimates.items()}

    report = ExperimentReport(
        "E14v",
        f"Variance-reduction comparison ({clients:,} clients, {replicas} "
        f"replicas x {batches} batches per scheme, seed {seed})",
    )
    report.add_table(
        ["scheme", "mean avail (avg)", "est. std", "tail p95 est. std",
         "std vs iid"],
        [[scheme,
          float(np.mean(mean_estimates[scheme])),
          mean_std[scheme],
          tail_std[scheme],
          # nan, not 1.0: "no baseline" must not read as "no gain".
          mean_std[scheme] / mean_std["iid"] if mean_std.get("iid")
          else float("nan")]
         for scheme in VARIANCE_SCHEMES],
        title="estimator spread across batches (lower std = sharper)",
    )
    report.add_note(
        "each scheme keeps every replica's marginal distribution exact; "
        "stratified rotation covers the hazard quantile space systematically, "
        "antithetic pairs cancel hazard noise within a pair"
    )
    return VarianceComparisonResult(
        mean_estimator_std=mean_std, tail_estimator_std=tail_std, report=report,
    )


# ---------------------------------------------------------------------------
# E16: adaptive ISP discrimination vs. neutralizer adoption (the arms race)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversaryReplicaRecord:
    """One Monte-Carlo replica of one (aggressiveness, sensitivity) point."""

    replica: int
    event_seed: int
    final_adoption: float
    mean_discriminated_share: float
    #: Equilibrium (last-quarter mean) delivered fraction of target classes
    #: against their offered demand — the ISP's achieved suppression.
    equilibrium_target_delivered: float
    clients_rekeyed: int
    #: Last-epoch P95 path delay of the first target class, split.
    exposed_p95_seconds: float
    neutralized_p95_seconds: float
    wall_seconds: float


@dataclass(frozen=True)
class AdversaryPointRecord:
    """One (aggressiveness, sensitivity) sweep point, replicas aggregated."""

    aggressiveness: float
    sensitivity: float
    replicas: int
    final_adoption: float
    mean_discriminated_share: float
    equilibrium_target_delivered: float
    #: 1 - equilibrium_target_delivered: the harm the ISP actually lands.
    equilibrium_target_harm: float
    total_clients_rekeyed: float
    exposed_p95_seconds: float
    neutralized_p95_seconds: float


def self_defeating_points(
    points: Sequence[AdversaryPointRecord],
) -> List[AdversaryPointRecord]:
    """The sweep points where throttling harder LOWERED the harm landed."""
    by_sensitivity: Dict[float, List[AdversaryPointRecord]] = {}
    for point in points:
        by_sensitivity.setdefault(point.sensitivity, []).append(point)
    out: List[AdversaryPointRecord] = []
    for sensitivity in sorted(by_sensitivity):
        best_below = 0.0
        for point in sorted(by_sensitivity[sensitivity],
                            key=lambda p: p.aggressiveness):
            if point.equilibrium_target_harm < best_below - 1e-9:
                out.append(point)
            best_below = max(best_below, point.equilibrium_target_harm)
    return out


@dataclass(frozen=True)
class AdversaryCampaignResult(CampaignResult):
    """Final result of one E16 arms-race campaign."""

    points: Tuple[AdversaryPointRecord, ...]
    #: Per-point replica records, keyed by (aggressiveness, sensitivity).
    records: Dict[Tuple[float, float], Tuple[AdversaryReplicaRecord, ...]]
    report: ExperimentReport

    def frontier(self, sensitivity: float) -> List[AdversaryPointRecord]:
        """The sweep points of one adoption sensitivity, by aggressiveness."""
        return sorted(
            [point for point in self.points if point.sensitivity == sensitivity],
            key=lambda point: point.aggressiveness,
        )

    def self_defeating_points(self) -> List[AdversaryPointRecord]:
        """Points where throttling harder LOWERED the harm the ISP landed.

        The paper's qualitative claim as a set: a point is self-defeating
        when some *less* aggressive point of the same adoption sensitivity
        achieved strictly more equilibrium target-class harm — escalation
        bought adoption instead of suppression.
        """
        return self_defeating_points(self.points)


class AdversaryCampaignRunner(_ReplicaCampaign):
    """E16: the discrimination arms race swept over both sides' dispositions.

    Sweeps ISP ``aggressiveness`` × client adoption ``sensitivities`` on one
    shared population and fleet; each grid point runs ``replicas_per_point``
    Monte-Carlo replicas against seeded stochastic failure/attack sequences
    (the arms race does not get a quiet fleet to play on).  Per point it
    reports the equilibrium adoption fraction, the discriminated traffic
    share, the harm actually landed on the target classes, and the
    exposed-vs-neutralized P95 split — the calibrated frontier behind the
    paper's claim that discrimination becomes self-defeating once
    neutralization is cheap.  Deterministic from ``seed``.
    """

    def __init__(
        self,
        *,
        clients: int = 1_000_000,
        epochs: int = 200,
        aggressiveness: Sequence[float] = (0.0, 0.35, 0.7, 1.0),
        sensitivities: Sequence[float] = (2.0, 12.0),
        replicas_per_point: int = 4,
        seed: int = 2006,
        n_sites: int = 24,
        isp: Optional[IspStrategy] = None,
        population: Optional[ClientPopulation] = None,
        variance_reduction: str = "iid",
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if clients <= 0 or epochs <= 0 or replicas_per_point <= 0:
            raise WorkloadError("campaign needs positive clients, epochs and replicas")
        if not aggressiveness or not sensitivities:
            raise WorkloadError("the sweep needs aggressiveness and sensitivity values")
        _reject_repeats("aggressiveness", aggressiveness)
        _reject_repeats("sensitivities", sensitivities)
        self.clients = int(clients)
        self.epochs = int(epochs)
        self.aggressiveness = tuple(aggressiveness)
        self.sensitivities = tuple(sensitivities)
        self.replicas_per_point = int(replicas_per_point)
        self.seed = seed
        self.regions = 8
        self.n_sites = n_sites
        # The arms race plays on a statically provisioned fleet with no
        # spares and no controller: an autoscaler would otherwise hide
        # throttling harm behind capacity moves.
        self.max_sites = self.nominal_sites = n_sites
        self.at_utilization = 1.0 / 1.3
        self.autoscaler = None
        #: Per-point strategies/models are derived from these bases with the
        #: swept knob replaced, so every other disposition stays fixed
        #: across the grid (:meth:`_game`).  The frontier isolates
        #: classifier-targeted discrimination: the blanket endgame is a
        #: catalogue scenario, not a sweep axis.
        self.base_isp = isp if isp is not None else IspStrategy(
            target_classes=("video", "web"), allow_blanket=False,
        )
        self.base_adoption = AdoptionModel(adoption_cost=0.05)
        self.target_classes = self.base_isp.target_classes
        self.latency_model = LatencyModel()
        self.latency_slo_seconds = 0.08
        self.processes = default_processes()
        self.mix = None
        self.total_replicas = (len(self.aggressiveness) * len(self.sensitivities)
                               * self.replicas_per_point)
        self.total_units = self.total_replicas
        self.run_id = f"adversary-{seed:08x}-{self.clients}x{self.total_replicas}"
        self.experiment_name = "adversary_arms_race"
        self.experiment_id = "E16"
        super().__init__(variance_reduction=variance_reduction,
                         telemetry=telemetry, population=population)

    def _game(self, aggressiveness: float, sensitivity: float) -> AdversaryGame:
        from dataclasses import replace

        return AdversaryGame(
            isp=replace(self.base_isp, aggressiveness=aggressiveness),
            adoption=replace(self.base_adoption, sensitivity=sensitivity),
        )

    def _grid(self) -> List[Tuple[float, float]]:
        """The (aggressiveness, sensitivity) points, in unit and report order."""
        return [(aggressiveness, sensitivity)
                for sensitivity in self.sensitivities
                for aggressiveness in self.aggressiveness]

    # -- campaign decomposition -------------------------------------------------------

    def unit_specs(self) -> List[CampaignUnit]:
        # Draws depend only on (seed, replicas_per_point, scheme), so every
        # grid point replays the same event sequences — the sweep isolates
        # the dispositions from the noise.
        draws = replica_seed_draws(self.seed, self.replicas_per_point,
                                   self.variance_reduction)
        units: List[CampaignUnit] = []
        for aggressiveness, sensitivity in self._grid():
            for replica, (event_seed, rng_transform) in enumerate(draws):
                units.append(CampaignUnit(
                    index=len(units),
                    point=(aggressiveness, sensitivity),
                    replica=replica,
                    label=(f"agg {aggressiveness:g} x sens "
                           f"{sensitivity:g} replica {replica}"),
                    event_seed=event_seed,
                    rng_transform=rng_transform,
                ))
        return units

    def run_unit(self, unit: CampaignUnit) -> AdversaryReplicaRecord:
        aggressiveness, sensitivity = unit.point
        # One fleet + template serves every grid point: the fleet shape does
        # not depend on the game, only the replica's timeline does.
        result, wall = self._timed_replica(
            unit, self._game(aggressiveness, sensitivity),
            aggressiveness=aggressiveness, sensitivity=sensitivity)
        tail = max(self.epochs // 4, 1)
        target_class = self.target_classes[0]
        target_delivered = result.class_delivered_fraction(self.target_classes)
        last = result.records[-1]
        return AdversaryReplicaRecord(
            replica=unit.replica,
            event_seed=unit.event_seed,
            final_adoption=result.final_adoption_fraction,
            mean_discriminated_share=float(
                result.discriminated_share.mean()),
            equilibrium_target_delivered=float(
                target_delivered[-tail:].mean()),
            clients_rekeyed=result.total_clients_rekeyed,
            exposed_p95_seconds=last.exposed_latency_p95.get(
                target_class, 0.0),
            neutralized_p95_seconds=last.neutralized_latency_p95.get(
                target_class, 0.0),
            wall_seconds=wall,
        )

    def merge_units(self, outcomes: Sequence[AdversaryReplicaRecord], *,
                    started_at: float,
                    duration_seconds: float) -> AdversaryCampaignResult:
        points: List[AdversaryPointRecord] = []
        records: Dict[Tuple[float, float], Tuple[AdversaryReplicaRecord, ...]] = {}
        per_point = self.replicas_per_point
        for number, (aggressiveness, sensitivity) in enumerate(self._grid()):
            replica_records = tuple(
                outcomes[number * per_point:(number + 1) * per_point])
            records[(aggressiveness, sensitivity)] = replica_records
            delivered = _mean_of(replica_records, "equilibrium_target_delivered")
            points.append(AdversaryPointRecord(
                aggressiveness=aggressiveness,
                sensitivity=sensitivity,
                replicas=per_point,
                equilibrium_target_delivered=delivered,
                equilibrium_target_harm=1.0 - delivered,
                total_clients_rekeyed=_mean_of(replica_records, "clients_rekeyed"),
                **{name: _mean_of(replica_records, name) for name in (
                    "final_adoption", "mean_discriminated_share",
                    "exposed_p95_seconds", "neutralized_p95_seconds")},
            ))
        return AdversaryCampaignResult(
            **self._result_header(started_at, duration_seconds),
            points=tuple(points),
            records=records,
            report=self._render_report(points),
        )

    def _render_report(self, points: List[AdversaryPointRecord]) -> ExperimentReport:
        report = ExperimentReport(
            self.experiment_id,
            f"Adversary arms-race campaign ({self.clients:,} clients, "
            f"{len(self.aggressiveness)}x{len(self.sensitivities)} grid x "
            f"{self.replicas_per_point} replicas x {self.epochs} epochs, "
            f"seed {self.seed})",
        )
        report.add_table(
            ["aggressiveness", "sensitivity", "adoption", "discr share",
             "target harm", "exposed p95 ms", "neutral p95 ms", "rekeyed"],
            [[point.aggressiveness, point.sensitivity, point.final_adoption,
              point.mean_discriminated_share, point.equilibrium_target_harm,
              point.exposed_p95_seconds * 1e3,
              point.neutralized_p95_seconds * 1e3,
              point.total_clients_rekeyed] for point in points],
            title="adoption-vs-aggressiveness frontier (equilibrium = last "
                  "quarter of epochs)",
        )
        defeated = self_defeating_points(points)
        if defeated:
            labels = ", ".join(
                f"(agg {point.aggressiveness:g}, sens {point.sensitivity:g})"
                for point in defeated
            )
            report.add_note(
                f"SELF-DEFEATING at {labels}: harm fell as aggressiveness rose"
            )
        report.add_note(
            f"ISP: targets {', '.join(self.target_classes)}, budget "
            f"{self.base_isp.budget_fraction:g} of regional traffic, "
            f"classifier TP {self.base_isp.classifier.true_positive:g} / FP "
            f"{self.base_isp.classifier.false_positive:g} / leakage "
            f"{self.base_isp.classifier.neutralized_leakage:g}; adoption cost "
            f"{self.base_adoption.adoption_cost:g}"
        )
        report.add_note(
            "the self-defeating regime: once adoption is cheap (high "
            "sensitivity), escalating the throttle buys adoption instead of "
            "suppression — the discriminated share collapses to the "
            "classifier's leakage floor and the target classes recover"
        )
        return report
