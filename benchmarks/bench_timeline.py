"""E13 — time-stepped fluid timelines (acceptance: 10^6 clients, 100 epochs, < 5 s).

``SCALE_BENCH_CLIENTS`` scales the headline population down for CI smoke
runs (e.g. ``SCALE_BENCH_CLIENTS=2000``); the default is the full million.
The catalogue benchmark is parametrized over every named scenario, so a
scenario added to the catalogue is exercised by CI automatically.
"""

import os

import pytest

from repro.scale import (
    ClientPopulation,
    ConstantLoad,
    DiurnalLoad,
    FluidTimeline,
    Telemetry,
    TimelineCampaignRunner,
    provisioned_fleet,
)
from repro.scale.catalogue import run_scenario, scenario_names

from conftest import emit

_CLIENTS = int(os.environ.get("SCALE_BENCH_CLIENTS", "1000000"))
_SEED = 81
_EPOCHS = 100


def _diurnal_timeline(warm_start=True, telemetry=None):
    population = ClientPopulation(_CLIENTS, seed=_SEED)
    fleet = provisioned_fleet(population, 16, headroom=1.1)
    return FluidTimeline(
        population, fleet, epochs=_EPOCHS,
        load=DiurnalLoad(trough=0.35, peak=1.05),
        warm_start=warm_start, telemetry=telemetry,
    )


def _congested_timeline(warm_start=True):
    """Steady congested load: every epoch after the first poses the
    previous epoch's problem and takes its answer (diurnal epochs change
    every demand, so they rarely repeat one; the demand certificate covers
    their troughs instead)."""
    population = ClientPopulation(_CLIENTS, seed=_SEED)
    fleet = provisioned_fleet(population, 16, headroom=0.85)
    return FluidTimeline(
        population, fleet, epochs=_EPOCHS,
        load=ConstantLoad(1.0),
        warm_start=warm_start,
    )


def test_e13_diurnal_timeline_end_to_end(once):
    """The acceptance target: population + fleet + 100 epochs in < 5 s."""
    result = once(lambda: _diurnal_timeline().run())
    assert result.epochs == _EPOCHS
    assert result.n_clients == _CLIENTS
    assert result.wall_seconds < 5.0
    # Most epochs skip the fill via a verification fast path.
    assert result.fast_fraction > 0.5


def test_e13_telemetry_overhead(once):
    """The observability guard: tracing costs <= 5% wall on the timeline.

    The absolute 50 ms floor keeps smoke-scale runs (millisecond walls)
    from flaking on scheduler noise; at the full-scale configuration the
    5% term dominates.
    """
    disabled = _diurnal_timeline().run()
    telemetry = Telemetry()
    enabled = once(lambda: _diurnal_timeline(telemetry=telemetry).run())
    assert enabled.wall_seconds <= disabled.wall_seconds * 1.05 + 0.05
    # Telemetry observes, never participates: identical solver work.
    assert ([record.solver_iterations for record in enabled.records]
            == [record.solver_iterations for record in disabled.records])


def test_e13_obs_overhead(once):
    """The event-stream guard: obs + detectors cost <= 5% wall.

    Same shape as the telemetry guard above: the structured event stream
    with the full detector suite attached must stay within 5% of the
    bare run (plus the 50 ms smoke-scale noise floor), and the stream
    must observe without participating — identical solver work.
    """
    from repro.scale import attach_detectors

    disabled = _diurnal_timeline().run()
    telemetry = Telemetry(trace=False, events=True)
    attach_detectors(telemetry.events)
    enabled = once(lambda: _diurnal_timeline(telemetry=telemetry).run())
    assert enabled.wall_seconds <= disabled.wall_seconds * 1.05 + 0.05
    assert ([record.solver_iterations for record in enabled.records]
            == [record.solver_iterations for record in disabled.records])
    # One epoch event per epoch plus the lifecycle pair.
    assert len(telemetry.events) >= _EPOCHS + 2


def test_e13_monitor_overhead(once):
    """The live-monitor guard: an attached HTTP/SSE monitor costs <= 5% wall.

    The monitor is notified of every canonical event while the timeline
    runs, so this bounds the subscription cost on top of the full
    observability stack (trace + events + detectors).
    Same noise floor as the guards above; same observe-don't-participate
    assertion — identical solver work, byte-identical canonical stream.
    """
    from repro.scale import MonitorServer, attach_detectors

    disabled = _diurnal_timeline().run()
    telemetry = Telemetry(trace=True, events=True)
    attach_detectors(telemetry.events)
    with MonitorServer.attach(telemetry) as monitor:
        enabled = once(lambda: _diurnal_timeline(telemetry=telemetry).run())
        served = monitor.progress()["events"]["total"]
    assert enabled.wall_seconds <= disabled.wall_seconds * 1.05 + 0.05
    assert ([record.solver_iterations for record in enabled.records]
            == [record.solver_iterations for record in disabled.records])
    # The monitor serves the whole canonical stream, live.
    assert served == len(telemetry.events)
    assert served >= _EPOCHS + 2


def test_e13_epoch_solves_warm(benchmark):
    """Per-epoch throughput when epochs reuse the previous answer."""
    timeline = _congested_timeline(warm_start=True)
    result = benchmark(timeline.run)
    assert result.warm_fraction > 0.9


def test_e13_epoch_solves_cold(benchmark):
    """The same congested timeline solved every epoch, for the ratio."""
    timeline = _congested_timeline(warm_start=False)
    result = benchmark(timeline.run)
    assert result.warm_fraction == 0.0


def test_e13_warm_start_is_faster_in_solver_time(once):
    """Reuse must measurably beat solving every epoch in solver work."""
    warm = _congested_timeline(warm_start=True).run()
    cold = once(lambda: _congested_timeline(warm_start=False).run())
    # Every epoch after the first takes the previous epoch's answer; the
    # cold run solves all of them.  Deterministic, so no wall-clock assert
    # (sub-millisecond timings flake on shared CI runners) — the
    # e13_epoch_solves_warm/cold benchmarks record the time ratio.
    assert warm.warm_fraction > 0.9
    warm_passes = sum(record.solver_iterations for record in warm.records)
    cold_passes = sum(record.solver_iterations for record in cold.records)
    assert warm_passes < cold_passes / 10
    print(f"\nsolver time: warm {warm.solve_seconds_total * 1e3:.1f} ms "
          f"({warm_passes} fill passes) vs cold "
          f"{cold.solve_seconds_total * 1e3:.1f} ms ({cold_passes} passes)")


@pytest.mark.parametrize("scenario", scenario_names())
def test_e13_catalogue_scenario(once, scenario):
    """Every named catalogue scenario must run and conserve at bench scale."""
    result = once(run_scenario, scenario, clients=min(_CLIENTS, 100_000), seed=_SEED)
    assert result.epochs > 0
    assert (result.goodput_bps <= result.demand_bps * (1 + 1e-9)).all()


def test_e13_report(once):
    """Regenerate the E13 campaign tables (the rows EXPERIMENTS.md quotes)."""
    runner = TimelineCampaignRunner(clients=min(_CLIENTS, 100_000), seed=_SEED)
    result = once(runner.run)
    emit(result.report)
    for timeline in result.timelines.values():
        assert (timeline.goodput_bps <= timeline.demand_bps * (1 + 1e-9)).all()
    assert len(result.records) >= 6
