"""The adversary game layer: confusion model, budget, adoption, E16."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import WorkloadError
from repro.scale import (
    AdoptionModel,
    AdversaryCampaignRunner,
    AdversaryGame,
    AdversaryRun,
    ClassifierModel,
    ClientPopulation,
    ConstantLoad,
    FluidTimeline,
    IspStrategy,
    LatencyModel,
    ReconfigEvent,
    Telemetry,
    cross_validate_adversary,
    provisioned_fleet,
)
from repro.scale.scenario import ScaleScenario
from repro.scale.timeline import _TimelineRun


def small_population(clients=6_000, seed=9):
    return ClientPopulation(clients, seed=seed)


def small_timeline(population=None, *, game, epochs=40, latency=True,
                   headroom=1.4, sites=8, **kwargs):
    population = population or small_population()
    fleet = provisioned_fleet(population, sites, headroom=headroom)
    return FluidTimeline(
        population, fleet,
        epochs=epochs, epoch_seconds=900.0,
        load=ConstantLoad(1.0),
        adversary=game,
        latency=LatencyModel() if latency else None,
        latency_slo_seconds=0.08,
        **kwargs,
    )


def stepped(game, population=None, *, offered=1.0):
    """One raw game tick and flag against a fresh template (unit-level access)."""
    population = population or small_population()
    fleet = provisioned_fleet(population, 8, headroom=1.4)
    template = ScaleScenario(population, fleet).build_template()
    run = AdversaryRun(game, population)
    scale = np.full(template.base_demands.shape, offered)
    run.tick(0)
    return run, template, run.flag(template, scale, 900.0)


class TestConfigurationValidation:
    def test_classifier_fractions(self):
        with pytest.raises(WorkloadError):
            ClassifierModel(true_positive=1.2)
        with pytest.raises(WorkloadError):
            ClassifierModel(false_positive=-0.1)
        with pytest.raises(WorkloadError):
            ClassifierModel(neutralized_leakage=2.0)

    def test_strategy_knobs(self):
        with pytest.raises(WorkloadError):
            IspStrategy(aggressiveness=1.5)
        with pytest.raises(WorkloadError):
            IspStrategy(target_classes=())
        with pytest.raises(WorkloadError):
            IspStrategy(budget_fraction=0.0)
        with pytest.raises(WorkloadError):
            IspStrategy(escalate_evasion=0.9, blanket_evasion=0.5)
        with pytest.raises(WorkloadError):
            IspStrategy(cooldown_epochs=-1)

    def test_adoption_knobs(self):
        with pytest.raises(WorkloadError):
            AdoptionModel(sensitivity=0.0)
        with pytest.raises(WorkloadError):
            AdoptionModel(adopt_rate=0.0)
        with pytest.raises(WorkloadError):
            AdoptionModel(initial_adoption=1.5)

    def test_unknown_target_class_fails_at_construction(self):
        game = AdversaryGame(isp=IspStrategy(target_classes=("gopher",)))
        with pytest.raises(WorkloadError, match="gopher"):
            small_timeline(game=game)

    def test_factor_trajectory_bounds(self):
        strategy = IspStrategy(aggressiveness=0.6, throttle_floor=0.2)
        assert strategy.initial_factor == pytest.approx(1.0 - 0.3 * 0.8)
        assert strategy.min_factor == pytest.approx(1.0 - 0.6 * 0.8)
        assert not IspStrategy(aggressiveness=0.0).enabled


class TestBudgetConservation:
    def test_flagged_share_never_exceeds_budget_per_region(self):
        # A classifier that wants to flag nearly everything: the budget
        # must clamp coverage pro rata, per region, every epoch.
        game = AdversaryGame(
            isp=IspStrategy(
                aggressiveness=1.0, budget_fraction=0.25,
                classifier=ClassifierModel(true_positive=1.0,
                                           false_positive=0.9,
                                           neutralized_leakage=0.9),
            ),
            adoption=AdoptionModel(initial_adoption=0.5),
        )
        run, template, epoch = stepped(game)
        assert (epoch.flagged_bps_by_region
                <= 0.25 * epoch.offered_bps_by_region + 1e-6).all()
        assert epoch.discriminated_share <= 0.25 + 1e-9

    def test_under_budget_flagging_is_untouched(self):
        game = AdversaryGame(isp=IspStrategy(
            aggressiveness=1.0, budget_fraction=1.0,
            classifier=ClassifierModel(true_positive=0.5, false_positive=0.0,
                                       neutralized_leakage=0.0),
        ))
        run, template, epoch = stepped(game)
        target = np.isin(template.class_of,
                         [template.population.mix.names.index(name)
                          for name in game.isp.target_classes])
        assert epoch.exposed_hit[target] == pytest.approx(0.5)
        assert epoch.exposed_hit[~target] == pytest.approx(0.0)

    def test_timeline_respects_budget_every_epoch(self):
        game = AdversaryGame(
            isp=IspStrategy(aggressiveness=0.9, budget_fraction=0.3),
            adoption=AdoptionModel(sensitivity=10.0),
        )
        result = small_timeline(game=game).run()
        shares = result.discriminated_share
        assert (shares <= 0.3 + 1e-9).all()
        assert shares.max() > 0  # the throttler actually engaged

    def test_served_multiplier_bounds(self):
        game = AdversaryGame(isp=IspStrategy(aggressiveness=1.0))
        run, template, epoch = stepped(game)
        assert (epoch.served_multiplier <= 1.0 + 1e-12).all()
        assert (epoch.served_multiplier >= epoch.throttle_factor - 1e-12).all()


class TestDisabledAdversaryEquivalence:
    def test_none_adversary_is_bit_identical(self):
        """The acceptance criterion: adversary=None reproduces PR 4 results
        bit for bit (the analogue of the solver's alpha=inf delegation)."""
        population = small_population()
        fleet = provisioned_fleet(population, 8, headroom=1.4)
        kwargs = dict(epochs=24, epoch_seconds=900.0,
                      latency=LatencyModel(), latency_slo_seconds=0.08)
        plain = FluidTimeline(population, fleet, **kwargs).run()
        disabled = FluidTimeline(population, fleet, adversary=None,
                                 **kwargs).run()
        strip = lambda record: replace(record, solve_seconds=0.0)
        assert ([strip(r) for r in plain.records]
                == [strip(r) for r in disabled.records])

    def test_inert_game_changes_no_fluid_quantity(self):
        population = small_population()
        fleet = provisioned_fleet(population, 8, headroom=1.4)
        kwargs = dict(epochs=24, epoch_seconds=900.0)
        plain = FluidTimeline(population, fleet, **kwargs).run()
        inert = FluidTimeline(
            population, fleet,
            adversary=AdversaryGame(isp=IspStrategy(aggressiveness=0.0)),
            **kwargs).run()
        for a, b in zip(plain.records, inert.records):
            assert a.goodput_bps == b.goodput_bps
            assert a.delivered_fraction == b.delivered_fraction
            assert a.demand_bps == b.demand_bps
            assert b.discriminated_share == 0.0


class TestGameDynamics:
    def test_throttle_harms_target_classes_and_displaces_exposed_tail(self):
        game = AdversaryGame(
            isp=IspStrategy(aggressiveness=0.8, allow_blanket=False),
            adoption=AdoptionModel(sensitivity=6.0),
        )
        result = small_timeline(game=game).run()
        target = result.class_delivered_fraction(("video", "web"))
        bystander = result.class_delivered_fraction(("voip",))
        assert target.min() < 0.95
        assert bystander.min() > target.min()
        # The split: an epoch with active throttling shows the exposed tail
        # displaced while the neutralized twin stays near the base curve.
        throttled = [r for r in result.records
                     if r.discriminated_share > 0 and r.exposed_latency_p95]
        assert throttled
        record = throttled[len(throttled) // 2]
        assert (record.exposed_latency_p95["video"]
                >= record.neutralized_latency_p95["video"])

    def test_escalation_reacts_to_evasion_and_stops_at_min_factor(self):
        game = AdversaryGame(
            isp=IspStrategy(aggressiveness=1.0, throttle_floor=0.2,
                            allow_blanket=False, cooldown_epochs=0),
            adoption=AdoptionModel(sensitivity=20.0, adoption_cost=0.01),
        )
        result = small_timeline(game=game).run()
        escalations = [event for record in result.records
                       for event in record.adversary_events
                       if event.startswith("escalate")]
        assert escalations
        # The last escalation lands exactly on min_factor.
        assert escalations[-1].endswith(f"x{game.isp.min_factor:g}")

    def test_adoption_rekeys_through_the_ring(self):
        game = AdversaryGame(
            isp=IspStrategy(aggressiveness=0.9),
            adoption=AdoptionModel(sensitivity=12.0),
        )
        result = small_timeline(game=game).run()
        assert result.final_adoption_fraction > 0.5
        # Joining re-keys; a client that lapses and re-adopts re-keys again,
        # so the total is bounded by a few population multiples, not one.
        population = result.n_clients
        assert 0 < result.total_clients_rekeyed <= population * 3
        # The re-key wave shows up as key-setup load at the fleet.
        rekey_epochs = [r for r in result.records if r.clients_rekeyed > 0]
        quiet_epochs = [r for r in result.records if r.clients_rekeyed == 0]
        assert rekey_epochs and quiet_epochs
        assert (max(r.key_setup_pps for r in rekey_epochs)
                > min(r.key_setup_pps for r in quiet_epochs))

    def test_blanket_cycle_backs_off_on_collateral(self):
        game = AdversaryGame(
            isp=IspStrategy(aggressiveness=1.0, allow_blanket=True,
                            blanket_evasion=0.5, backoff_collateral=0.25),
            adoption=AdoptionModel(sensitivity=16.0, adoption_cost=0.02),
        )
        result = small_timeline(game=game, epochs=60).run()
        events = [event for record in result.records
                  for event in record.adversary_events]
        assert any(event == "blanket on" for event in events)
        assert any(event == "blanket off" for event in events)

    def test_recorded_latency_is_the_experienced_mixture(self):
        # The headline latency fields must agree with the game's own harm
        # ledger: flagged clients sit in the policer queue, so a heavily
        # throttled epoch shows SLO violations even though the fleet-path
        # proxy alone stays comfortably under the SLO.
        game = AdversaryGame(
            isp=IspStrategy(aggressiveness=1.0, allow_blanket=False),
            # Adoption priced out: everyone stays exposed to the throttle.
            adoption=AdoptionModel(adoption_cost=10.0),
        )
        result = small_timeline(game=game, epochs=16).run()
        throttled = [r for r in result.records if r.discriminated_share > 0.1]
        assert throttled
        record = throttled[-1]
        assert record.latency_slo_violations > 0.05
        assert record.latency_p99_seconds > 0.1  # policer tail, not base RTT

    def test_series_includes_adversary_columns(self):
        game = AdversaryGame(isp=IspStrategy(aggressiveness=0.7))
        result = small_timeline(game=game, epochs=12).run()
        series = result.series()
        assert "adoption" in series and "discr share" in series
        assert result.has_adversary


class TestAdoptionBoundsProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        aggressiveness=st.floats(0.0, 1.0),
        sensitivity=st.floats(0.5, 30.0),
        cost=st.floats(0.0, 0.5),
        adopt_rate=st.floats(0.05, 1.0),
        churn_rate=st.floats(0.05, 1.0),
        initial=st.floats(0.0, 1.0),
    )
    def test_adoption_fraction_stays_in_unit_interval(
            self, aggressiveness, sensitivity, cost, adopt_rate, churn_rate,
            initial):
        population = ClientPopulation(800, seed=3)
        fleet = provisioned_fleet(population, 4, headroom=1.1)
        game = AdversaryGame(
            isp=IspStrategy(aggressiveness=aggressiveness),
            adoption=AdoptionModel(
                sensitivity=sensitivity, adoption_cost=cost,
                adopt_rate=adopt_rate, churn_rate=churn_rate,
                initial_adoption=initial,
            ),
        )
        timeline = FluidTimeline(population, fleet, epochs=10,
                                 epoch_seconds=900.0, adversary=game)
        result = timeline.run()
        fractions = result.adoption_fraction
        assert (fractions >= 0.0).all() and (fractions <= 1.0).all()
        assert (result.discriminated_share >= 0.0).all()
        assert (result.discriminated_share <= 1.0).all()

    @settings(max_examples=40, deadline=None)
    @given(harm=st.floats(-2.0, 2.0), sensitivity=st.floats(0.5, 50.0),
           cost=st.floats(0.0, 1.0))
    def test_adoption_target_is_a_fraction(self, harm, sensitivity, cost):
        model = AdoptionModel(sensitivity=sensitivity, adoption_cost=cost)
        target = model.target(np.array([harm]))
        assert 0.0 <= target[0] <= 1.0


class TestE16Campaign:
    def small_runner(self, seed=7, **kwargs):
        kwargs.setdefault("clients", 15_000)
        kwargs.setdefault("epochs", 50)
        kwargs.setdefault("replicas_per_point", 2)
        kwargs.setdefault("aggressiveness", (0.0, 0.5, 1.0))
        kwargs.setdefault("sensitivities", (2.0, 12.0))
        return AdversaryCampaignRunner(seed=seed, **kwargs)

    def test_same_seed_same_distributions(self):
        strip = lambda records: {
            key: tuple(replace(r, wall_seconds=0.0) for r in value)
            for key, value in records.items()
        }
        first = self.small_runner().run()
        second = self.small_runner().run()
        assert first.points == second.points
        assert strip(first.records) == strip(second.records)
        different = self.small_runner(seed=8).run()
        assert different.points != first.points

    def test_frontier_shows_the_self_defeating_regime(self):
        result = self.small_runner().run()
        defeated = result.self_defeating_points()
        assert defeated, "cheap adoption must make escalation backfire"
        assert all(point.sensitivity == 12.0 for point in defeated)
        # At the cheap-adoption end, full aggressiveness lands less harm
        # than the moderate point, and the discriminated share collapses.
        frontier = result.frontier(12.0)
        moderate = next(p for p in frontier if p.aggressiveness == 0.5)
        maximal = next(p for p in frontier if p.aggressiveness == 1.0)
        assert maximal.final_adoption > moderate.final_adoption
        assert maximal.equilibrium_target_harm < moderate.equilibrium_target_harm
        assert (maximal.mean_discriminated_share
                < moderate.mean_discriminated_share)
        assert "SELF-DEFEATING" in result.report.render()

    def test_zero_aggressiveness_point_is_clean(self):
        result = self.small_runner().run()
        for sensitivity in (2.0, 12.0):
            base = next(p for p in result.frontier(sensitivity)
                        if p.aggressiveness == 0.0)
            assert base.mean_discriminated_share == 0.0
            assert base.final_adoption == 0.0

    def test_progress_snapshot(self):
        runner = self.small_runner()
        state = runner.get_current_state()
        assert not state.done and state.total_points == 12
        runner.run()
        assert runner.get_current_state().done

    def test_custom_isp_drives_the_harm_ledger(self):
        # An explicit strategy overrides the scalar convenience knobs: the
        # measured harm and the report must describe the game that ran.
        runner = self.small_runner(
            isp=IspStrategy(target_classes=("voip",), allow_blanket=False),
            aggressiveness=(0.0, 1.0), sensitivities=(2.0,),
        )
        assert runner.target_classes == ("voip",)
        assert "targets voip" in runner.run().report.render()

    def test_bad_variance_scheme_fails_at_construction(self):
        with pytest.raises(WorkloadError, match="variance-reduction"):
            self.small_runner(variance_reduction="qmc")


class TestRestingGame:
    def resting_game(self):
        # Full-rate adoption settles into an exact fixed point within a few
        # epochs; the high escalation threshold keeps the ISP still.
        return AdversaryGame(
            isp=IspStrategy(aggressiveness=0.6, allow_blanket=False,
                            escalate_evasion=0.6),
            adoption=AdoptionModel(sensitivity=4.0, adopt_rate=1.0,
                                   churn_rate=1.0))

    def run_watched(self, monkeypatch, timeline):
        """(result, resting epochs, flagged epochs) of one traced run.

        An epoch rests when the ``solve`` span under its ``epoch`` span took
        back last epoch's answer (``reused=True``), stepped or stretched.
        """
        step, flag = _TimelineRun.step, AdversaryRun.flag
        flagged, current = set(), []

        def watched_step(run, epoch):
            current.append(epoch)
            step(run, epoch)

        def watched_flag(game, *args):
            flagged.add(current[-1])
            return flag(game, *args)

        monkeypatch.setattr(_TimelineRun, "step", watched_step)
        monkeypatch.setattr(AdversaryRun, "flag", watched_flag)
        timeline.telemetry = Telemetry(trace=True, metrics=False)
        result = timeline.run()
        spans = timeline.telemetry.tracer.spans
        epoch_of = {span.id: span.attrs["epoch"] for span in spans
                    if span.name == "epoch"}
        rested = sorted(epoch_of[span.parent] for span in spans
                        if span.name == "solve"
                        and (span.attrs or {}).get("reused"))
        return result, rested, flagged

    def test_a_resting_game_passes_no_flag_and_holds_adoption(self, monkeypatch):
        result, rested, flagged = self.run_watched(
            monkeypatch, small_timeline(game=self.resting_game(), epochs=24))
        assert len(rested) >= 10, "the game never rested"
        assert flagged == set(range(24)) - set(rested)
        for epoch in rested:
            assert result.records[epoch].adversary_events == ()
            assert (result.records[epoch].adoption_fraction
                    == result.records[epoch - 1].adoption_fraction)

    def test_a_retune_ends_the_rest(self, monkeypatch):
        retune = ReconfigEvent(at_epoch=16, adoption=AdoptionModel(
            sensitivity=12.0, adopt_rate=1.0, churn_rate=1.0))
        result, rested, flagged = self.run_watched(
            monkeypatch, small_timeline(game=self.resting_game(), epochs=24,
                                        events=[retune]))
        assert {13, 14, 15} <= set(rested)
        assert 16 not in rested and 16 in flagged
        assert result.records[16].adversary_events
        assert result.adoption_fraction[16] > result.adoption_fraction[15]


class TestEpochRecordsOwnTheirDicts:
    def test_no_two_records_of_a_run_share_a_dict(self):
        # A resting E16 game reuses its solve epoch after epoch; each record
        # must still own its per-class dicts, or a caller editing one epoch's
        # split would silently rewrite its neighbours'.
        runner = AdversaryCampaignRunner(
            clients=2_000, epochs=60, aggressiveness=(1.0,),
            sensitivities=(12.0,), replicas_per_point=1, seed=16)
        unit = runner.unit_specs()[0]
        game = AdversaryGame(
            isp=replace(runner.base_isp, aggressiveness=1.0),
            adoption=replace(runner.base_adoption, sensitivity=12.0))
        records = runner.run_replica(unit.event_seed, unit.rng_transform,
                                     adversary=game).records
        names = [field.name for field in fields(records[0])
                 if isinstance(getattr(records[0], field.name), dict)]
        dicts = [getattr(record, name) for record in records for name in names]
        assert len({id(value) for value in dicts}) == len(dicts)

        resting = [index for index in range(1, len(records))
                   if records[index].neutralized_latency_p95
                   == records[index - 1].neutralized_latency_p95]
        assert resting, "the run must rest for the test to mean anything"
        last = resting[-1]
        kept = {name: dict(getattr(records[last], name)) for name in names}
        for name in names:
            getattr(records[last - 1], name).clear()
        assert {name: getattr(records[last], name) for name in names} == kept


class TestAdversaryCrossValidation:
    def test_fluid_adversary_matches_packet_level_within_10_percent(self):
        result = cross_validate_adversary(duration_seconds=3.0)
        assert result.within_tolerance, result.failure_message()
        adoptions = [arm.adoption for arm in result.arms]
        assert adoptions == [0.0, 0.5]
        # More adoption, more delivered: the neutralized share ducks the rule.
        assert (result.arms[1].packet_delivered_fraction
                > result.arms[0].packet_delivered_fraction)
        assert "E16v" in result.report.render()
