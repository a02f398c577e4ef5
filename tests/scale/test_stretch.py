"""A resting stretch is advanced in one step and leaves what stepping would.

After an epoch rests, ``_TimelineRun.stretch`` advances over every epoch
``_TimelineRun.rest_end`` proves would rest the same way, replaying only a
resting epoch's trail.  Forcing ``rest_end`` to return its start makes every
epoch step; the result, NDJSON, span-tree and metrics digests must then be
unchanged.  Each bound on a stretch is exercised by a timeline whose
behaviour changes exactly at that bound: a cooldown's end, a warm-up's
completion, a window's expiry, a predictive policy's lead before a load
step and the end of the game strategy's cooldown; and a load curve that
fails mid-stretch fails at the same epoch, after the same events.
"""

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.scale import (
    AdoptionModel,
    AdversaryGame,
    Autoscaler,
    CapacityDegradation,
    ClientPopulation,
    ConstantLoad,
    DiscriminationToggle,
    FlashCrowdLoad,
    FluidTimeline,
    IspStrategy,
    LatencyModel,
    LoadCurve,
    PredictiveLoadPolicy,
    StepPolicy,
    TargetUtilizationPolicy,
    elastic_fleet,
    provisioned_fleet,
)
from repro.scale.timeline import _TimelineRun

from test_campaign_golden import (
    CLIENTS,
    REST_PATH_RUNS,
    make_e14,
    make_e15,
    make_e16,
    observed_digests,
    observed_telemetry,
)

#: Runs whose every digest must not depend on whether stretches are skipped.
STRETCH_RUNS = {**REST_PATH_RUNS, "E14": make_e14, "E15": make_e15}
#: Runs on which resting stretches must actually be skipped.
SKIPPING = ("E14", "E15", "E16", "rest_breakers", "flash_crowd")

EPOCH_SECONDS = 900.0


def step_every_epoch(monkeypatch):
    """Make every stretch end where it starts: each epoch runs ``step``."""
    monkeypatch.setattr(_TimelineRun, "rest_end", lambda run, start: start)


def observed_run(factory):
    """(result, (result, NDJSON, span tree, metrics) digests) of one run."""
    telemetry = observed_telemetry()
    result = factory(telemetry=telemetry).run()
    return result, observed_digests(result, telemetry)


def count_skipped(monkeypatch):
    """Wrap ``stretch``; the returned list collects each stretch's length."""
    stretch = _TimelineRun.stretch
    skipped = []

    def counting(run, start):
        end = stretch(run, start)
        skipped.append(end - start)
        return end

    monkeypatch.setattr(_TimelineRun, "stretch", counting)
    return skipped


def same_as_stepping(factory, monkeypatch):
    """The run's result, after checking it skipped epochs and that its
    digests equal those of a run that steps every epoch."""
    with monkeypatch.context() as patch:
        skipped = count_skipped(patch)
        result, stretched = observed_run(factory)
    assert sum(skipped) > 0, "no stretch was skipped"
    with monkeypatch.context() as patch:
        step_every_epoch(patch)
        assert observed_run(factory)[1] == stretched
    return result


@pytest.mark.parametrize("name", sorted(STRETCH_RUNS))
def test_a_stretch_leaves_what_stepping_leaves(name, monkeypatch):
    stretched = observed_run(STRETCH_RUNS[name])[1]
    step_every_epoch(monkeypatch)
    assert observed_run(STRETCH_RUNS[name])[1] == stretched


@pytest.mark.parametrize("name", SKIPPING)
def test_resting_stretches_are_skipped(name, monkeypatch):
    factory = {"E14": make_e14, "E15": make_e15, "E16": make_e16,
               **REST_PATH_RUNS}[name]
    skipped = count_skipped(monkeypatch)
    observed_run(factory)
    assert sum(skipped) > 0


def flat_timeline(telemetry, *, epochs=40, load=None, events=(),
                  autoscaler=None, adversary=None, fleet=None):
    population = ClientPopulation(CLIENTS, seed=48)
    return FluidTimeline(
        population,
        fleet(population) if fleet else provisioned_fleet(population, 6,
                                                          headroom=1.4),
        epochs=epochs, epoch_seconds=EPOCH_SECONDS,
        load=load or ConstantLoad(1.0), events=events, autoscaler=autoscaler,
        adversary=adversary, latency=LatencyModel(), latency_slo_seconds=0.08,
        telemetry=telemetry)


def acting_epochs(result):
    return [record.epoch for record in result.records
            if record.autoscale_actions]


def test_a_stretch_ends_when_the_cooldown_does(monkeypatch):
    # Load sits below the low threshold: the controller drains one site each
    # time its cooldown lets it, and the epochs in between rest.
    def factory(telemetry):
        return flat_timeline(
            telemetry, load=ConstantLoad(0.4),
            fleet=lambda population: elastic_fleet(population, 6,
                                                   nominal_sites=6),
            autoscaler=Autoscaler(StepPolicy(high=0.99, low=0.9),
                                  min_sites=3, cooldown_epochs=6))

    result = same_as_stepping(factory, monkeypatch)
    drains = acting_epochs(result)
    assert len(drains) >= 3
    assert all(later - earlier == 7
               for earlier, later in zip(drains, drains[1:]))


@pytest.mark.parametrize("autoscaler", [
    Autoscaler(StepPolicy(high=0.8, low=0.1), warmup_epochs=5,
               cooldown_epochs=8),
    Autoscaler(TargetUtilizationPolicy(target=0.6, deadband=0.05),
               warmup_epochs=5),
], ids=["in_cooldown", "policy_holds"])
def test_a_stretch_ends_when_a_warm_up_completes(autoscaler, monkeypatch):
    # Load sits far above target: each scale-up warms for five epochs, in
    # which the controller either cools down or counts the warming sites
    # as committed and holds, so the epochs in between rest.
    def factory(telemetry):
        return flat_timeline(
            telemetry, load=ConstantLoad(1.5),
            fleet=lambda population: elastic_fleet(population, 8,
                                                   nominal_sites=4),
            autoscaler=autoscaler)

    result = same_as_stepping(factory, monkeypatch)
    completions = [record.epoch for record in result.records
                   if any(action.endswith(" live")
                          for action in record.autoscale_actions)]
    assert completions
    assert all(result.records[epoch - 1].warm_started
               for epoch in completions)


@pytest.mark.parametrize("window", [
    DiscriminationToggle(at_epoch=3, region=0, factor=0.5, until_epoch=17),
    CapacityDegradation(at_epoch=3, site="site00", factor=0.5,
                        until_epoch=17),
], ids=["throttle", "degradation"])
def test_a_stretch_ends_when_a_window_expires(window, monkeypatch):
    result = same_as_stepping(
        lambda telemetry: flat_timeline(telemetry, events=[window]),
        monkeypatch)
    records = result.records
    assert records[16].warm_started and not records[17].warm_started
    assert records[17].delivered_fraction != records[16].delivered_fraction


def test_a_predictive_stretch_stops_its_lead_before_a_load_step(monkeypatch):
    lead, step_epoch = 3, 24

    def factory(telemetry):
        return flat_timeline(
            telemetry,
            load=FlashCrowdLoad(base=1.0, spike=2.0, ramp_seconds=0.0,
                                start_seconds=step_epoch * EPOCH_SECONDS,
                                hold_seconds=1e9),
            fleet=lambda population: elastic_fleet(population, 8,
                                                   nominal_sites=4),
            autoscaler=Autoscaler(
                PredictiveLoadPolicy(target=0.65, lead_epochs=lead,
                                     deadband=0.2),
                warmup_epochs=lead))

    result = same_as_stepping(factory, monkeypatch)
    assert acting_epochs(result)[0] == step_epoch - lead
    assert result.records[step_epoch - lead - 1].warm_started


def test_a_stretch_ends_when_the_strategy_cooldown_does(monkeypatch):
    # The ISP escalates whenever its cooldown ends; adoption settles within
    # a few epochs of each escalation, so the epochs in between rest.
    game = AdversaryGame(
        isp=IspStrategy(aggressiveness=1.0, allow_blanket=False,
                        escalate_evasion=0.01, cooldown_epochs=8),
        adoption=AdoptionModel(sensitivity=4.0, adopt_rate=1.0,
                               churn_rate=1.0))
    result = same_as_stepping(
        lambda telemetry: flat_timeline(telemetry, adversary=game),
        monkeypatch)
    escalations = [record.epoch for record in result.records
                   if any(event.startswith("escalate")
                          for event in record.adversary_events)]
    assert len(escalations) >= 2
    assert all(result.records[epoch - 1].warm_started
               for epoch in escalations[1:])


class BreakingLoad(LoadCurve):
    """Flat load until ``epoch``, then a non-finite multiplier or a raise."""

    def __init__(self, epoch, *, raises):
        self.t_break = epoch * EPOCH_SECONDS
        self.raises = raises

    def multipliers(self, t_seconds, regions):
        if t_seconds < self.t_break:
            return np.ones(regions)
        if self.raises:
            raise ValueError(f"no load past t={t_seconds:g} s")
        return np.full(regions, np.nan)


@pytest.mark.parametrize("raises", [False, True], ids=["non_finite", "raise"])
def test_a_stretch_ends_before_the_epoch_that_raises(raises, monkeypatch):
    def failure():
        telemetry = observed_telemetry()
        timeline = flat_timeline(telemetry,
                                 load=BreakingLoad(20, raises=raises))
        with pytest.raises((WorkloadError, ValueError)) as caught:
            timeline.run()
        return str(caught.value), telemetry.events.to_ndjson()

    with monkeypatch.context() as patch:
        skipped = count_skipped(patch)
        stretched = failure()
    assert sum(skipped) > 0
    assert "t=18000" in stretched[0]
    step_every_epoch(monkeypatch)
    assert failure() == stretched
