"""repro.scale — flow-level (fluid) simulation of fleet-scale deployments.

The packet-level simulator in :mod:`repro.netsim` replays every packet through
every queue, which is the right tool for protocol correctness and per-call
quality but tops out at thousands of packets.  The paper's scaling claim is
about a different regime entirely — "heavy traffic from millions of users"
against an ISP's neutralizer fleet — so this package models *populations* of
clients as aggregate fluid demand instead:

``population``
    Client populations as vectorized numpy arrays: per-client application
    class (VoIP/web/video mixes whose rates mirror the :mod:`repro.apps`
    models), access region, and a hash position used for
    consistent-hash assignment to neutralizer sites.
``costmodel``
    CPU cost of the neutralizer fast path (AES blocks, Ks derivations, RSA
    encryptions per operation), calibrated against the same primitives that
    ``benchmarks/bench_crypto.py`` times.
``fleet``
    A neutralizer fleet: per-site capacity and health layered on the
    consistent-hash ring it defines, with vectorized client-to-site
    assignment and failover.
``solver``
    Fair capacity allocation over shared links and site CPUs: max-min for
    inelastic (CBR) flows by a numpy-vectorized progressive-filling fixed
    point, capped alpha-fair (TCP-like) rates for elastic flows by projected
    Newton on the dual prices, composed for mixed populations —
    each with a verified (certificate-checked) warm-start fast path for
    sequences of nearby problems.
``latency``
    The utilization → queueing-delay proxy: M/G/1-PS-shaped sojourn per
    resource, deterministic region↔site base RTT from ring geometry,
    client-weighted per-class delay percentiles and latency-SLO violation
    fractions — all O(resources + flows) per epoch.
``scenario``
    Glue that turns (population, fleet, access network) into a solver
    problem and interprets the allocation as per-class goodput and
    per-site utilization; the O(n_clients) structure is cached in a
    :class:`ProblemTemplate` reused across epochs and sweep points, and a
    ring change rebuilds it *incrementally* in O(ring points × bins) from
    the template's per-arc client histogram, touching no per-client array.
``timeline``
    The time-stepped fluid simulator: load curves (diurnal, flash crowd,
    ramp), fleet events (failure/recovery, degradation, discrimination
    toggles), warm-started epoch solves, closed-loop autoscaling, and
    remap-churn plus dollar-cost accounting.
``autoscale``
    The closed-loop controller: target-utilization, step/hysteresis and
    predictive policies, warm-up and cooldown, elastic fleets with drained
    spares commissioned and drained through the hash ring mid-run.
``stochastic``
    Seeded stochastic event processes — Poisson site failures, correlated
    regional outages, DoS attack onsets — compiled to fleet-event lists so
    availability can be measured as a distribution, not a curve; with
    antithetic-pair and stratified-rotation seed allocation for sharper
    Monte-Carlo tails at the same replica budget.
``adversary``
    The paper's core tension as a closed-loop game: an adaptive,
    budget-constrained ISP strategy (classifier confusion model,
    escalation/backoff, the §3.6 blanket endgame) against per-region
    logistic neutralizer adoption driven by experienced harm, stepped by
    the timeline each epoch with adopters re-keying through the hash ring.
``catalogue``
    Named timeline scenarios — flash crowd, regional outage, diurnal week,
    heterogeneous fleet, cascading overload, discrimination rollout,
    autoscaled diurnal, stochastic unreliable month, elastic web mix,
    latency-SLO fleet, adaptive throttler, neutralizer arms race, targeted
    class SLO — each provisioned relative to the population so any size is
    interesting.
``telemetry``
    Process-local observability: a deterministic :class:`MetricsRegistry`
    (counters, gauges, fixed-bucket histograms), a hierarchical
    :class:`Tracer` whose nested spans mirror the campaign → replica →
    epoch → solve structure, JSONL and Prometheus text exporters, and a
    zero-overhead :data:`NULL` default — telemetry observes the
    simulation, it never participates, so enabling it cannot change a
    single allocation.
``runner``
    Experiment-campaign runners, all one :class:`CampaignRunner` contract
    (units → simulate → merge in unit order) run by the one engine in
    ``parallel`` — ``run()`` is that engine at one worker:
    the E12 population sweep, the E13 timeline-catalogue campaign, the
    E14 Monte-Carlo stochastic-availability campaign with its
    churn-vs-SLO frontier, the E15 queueing-latency campaign (elastic
    mix, latency-aware autoscaler) with its latency-vs-cost frontier, and
    the E16 adversary arms-race campaign sweeping ISP aggressiveness ×
    adoption sensitivity into the self-defeating-discrimination frontier,
    all rendering :class:`repro.analysis.report.ExperimentReport` tables.
``validate``
    Cross-validation of the fluid model against the packet-level simulator
    on a small shared scenario (goodput within 10 %, latency proxy within
    15 %, adversary epoch vs. discrimination rules within 10 %).

A million-client, 16-site solve completes in well under a second; a
100-epoch, million-client timeline solves end-to-end in well under a
second; a 200-epoch, 32-replica, million-client Monte-Carlo campaign
completes in a few seconds — all deterministic from their seeds.
"""

from .adversary import (
    AdoptionModel,
    AdversaryGame,
    AdversaryRun,
    ClassifierModel,
    IspStrategy,
    split_latency_by_class,
)
from .autoscale import (
    Autoscaler,
    AutoscaleObservation,
    AutoscalePolicy,
    PredictiveLoadPolicy,
    StepPolicy,
    TargetLatencyPolicy,
    TargetUtilizationPolicy,
    elastic_fleet,
)
from .latency import (
    ClassLatency,
    LatencyModel,
    LatencyResult,
    allen_cunneen_factor,
    evaluate_latency,
)
from .catalogue import (
    build_scenario,
    nominal_demand,
    provisioned_fleet,
    run_scenario,
    scenario_names,
)
from .config import (
    ConfigError,
    ConfigTransaction,
    FieldChange,
    FleetSpec,
    PopulationSpec,
    ScenarioConfig,
    SiteSpec,
    diff_configs,
    dump_config,
    load_config,
)
from .costmodel import CryptoCostModel, ProvisioningCostModel
from .fleet import FleetSite, NeutralizerFleet
from .obs import (
    EVENT_SCHEMA_VERSION,
    AutoscaleOscillationDetector,
    BlackHoleDetector,
    Event,
    EventLog,
    SloBreachDetector,
    attach_detectors,
    verdicts,
)
from .stochastic import (
    AttackOnset,
    CorrelatedRegionalOutage,
    EventProcess,
    PoissonSiteFailures,
    antithetic_uniforms,
    compile_events,
    compile_schedule,
    default_processes,
    rotated_uniforms,
)
from .parallel import (
    CampaignUnit,
    ProcessPoolCampaignExecutor,
    RunTable,
    SharedPopulationPack,
    canonical_result_bytes,
)
from .population import (
    ClientPopulation,
    DemandClass,
    PopulationMix,
    default_mix,
    elastic_mix,
    video_class,
    voip_class,
    web_class,
)
from .runner import (
    AdversaryCampaignResult,
    AdversaryCampaignRunner,
    CampaignRunner,
    FleetScaleRunner,
    FrontierPoint,
    FrontierResult,
    LatencyCampaignRunner,
    LatencyFrontierPoint,
    LatencyFrontierResult,
    MetricDistribution,
    replica_seed_draws,
    StochasticCampaignResult,
    StochasticCampaignRunner,
    TimelineCampaignRunner,
    compare_variance_reduction,
    run_churn_slo_frontier,
    run_latency_cost_frontier,
)
from .scenario import EpochProblem, FluidResult, ProblemTemplate, ScaleScenario
from .telemetry import (
    DEFAULT_BUCKET_EDGES,
    NULL,
    MetricsRegistry,
    NullTelemetry,
    Span,
    Telemetry,
    Tracer,
    format_phase_table,
    phase_breakdown,
)
from .solver import (
    Allocation,
    CapacityProblem,
    alpha_fair_allocation,
    max_min_allocation,
    solve_allocation,
    verify_alpha_fair,
    verify_max_min,
)
from .timeline import (
    CapacityDegradation,
    CompositeLoad,
    ConstantLoad,
    DiscriminationToggle,
    DiurnalLoad,
    EpochRecord,
    FlashCrowdLoad,
    FleetEvent,
    FluidTimeline,
    LinearRampLoad,
    LoadCurve,
    ReconfigEvent,
    SiteFailure,
    SiteRecovery,
    TimelineResult,
)
from .validate import (
    CrossValidationResult,
    LatencyValidationResult,
    cross_validate,
    cross_validate_adversary,
    cross_validate_latency,
)


def __getattr__(name):
    # PEP 562: the HTTP monitor pulls in http.server, so it loads on first
    # use of the name, not with every campaign, tool and pool worker.
    if name == "MonitorServer":
        from .monitor import MonitorServer

        return MonitorServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdoptionModel",
    "AdversaryCampaignResult",
    "AdversaryCampaignRunner",
    "AdversaryGame",
    "AdversaryRun",
    "Allocation",
    "AttackOnset",
    "AutoscaleObservation",
    "AutoscaleOscillationDetector",
    "AutoscalePolicy",
    "Autoscaler",
    "BlackHoleDetector",
    "CampaignRunner",
    "CampaignUnit",
    "CapacityDegradation",
    "CapacityProblem",
    "ClassLatency",
    "ClassifierModel",
    "ClientPopulation",
    "CompositeLoad",
    "ConfigError",
    "ConfigTransaction",
    "ConstantLoad",
    "CorrelatedRegionalOutage",
    "CrossValidationResult",
    "CryptoCostModel",
    "DEFAULT_BUCKET_EDGES",
    "DemandClass",
    "DiscriminationToggle",
    "DiurnalLoad",
    "EVENT_SCHEMA_VERSION",
    "EpochProblem",
    "EpochRecord",
    "Event",
    "EventLog",
    "EventProcess",
    "FieldChange",
    "FlashCrowdLoad",
    "FleetEvent",
    "FleetScaleRunner",
    "FleetSite",
    "FleetSpec",
    "FluidResult",
    "FluidTimeline",
    "FrontierPoint",
    "FrontierResult",
    "IspStrategy",
    "LatencyCampaignRunner",
    "LatencyFrontierPoint",
    "LatencyFrontierResult",
    "LatencyModel",
    "LatencyResult",
    "LatencyValidationResult",
    "LinearRampLoad",
    "LoadCurve",
    "MetricDistribution",
    "MetricsRegistry",
    "MonitorServer",
    "NULL",
    "NeutralizerFleet",
    "NullTelemetry",
    "PoissonSiteFailures",
    "PopulationMix",
    "PopulationSpec",
    "PredictiveLoadPolicy",
    "ProblemTemplate",
    "ProcessPoolCampaignExecutor",
    "ProvisioningCostModel",
    "ReconfigEvent",
    "RunTable",
    "ScaleScenario",
    "ScenarioConfig",
    "SharedPopulationPack",
    "SiteFailure",
    "SiteRecovery",
    "SiteSpec",
    "SloBreachDetector",
    "Span",
    "StepPolicy",
    "StochasticCampaignResult",
    "StochasticCampaignRunner",
    "TargetLatencyPolicy",
    "TargetUtilizationPolicy",
    "Telemetry",
    "TimelineCampaignRunner",
    "TimelineResult",
    "Tracer",
    "allen_cunneen_factor",
    "alpha_fair_allocation",
    "antithetic_uniforms",
    "attach_detectors",
    "build_scenario",
    "canonical_result_bytes",
    "compare_variance_reduction",
    "compile_events",
    "compile_schedule",
    "cross_validate",
    "cross_validate_adversary",
    "cross_validate_latency",
    "default_mix",
    "default_processes",
    "diff_configs",
    "dump_config",
    "elastic_fleet",
    "elastic_mix",
    "evaluate_latency",
    "format_phase_table",
    "load_config",
    "max_min_allocation",
    "nominal_demand",
    "phase_breakdown",
    "provisioned_fleet",
    "replica_seed_draws",
    "rotated_uniforms",
    "run_churn_slo_frontier",
    "run_latency_cost_frontier",
    "run_scenario",
    "scenario_names",
    "solve_allocation",
    "split_latency_by_class",
    "verdicts",
    "verify_alpha_fair",
    "verify_max_min",
    "video_class",
    "voip_class",
    "web_class",
]
