"""Closed-loop autoscaling: policies, bounds, warm-up, churn, and dollars."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import WorkloadError
from repro.scale import (
    Autoscaler,
    AutoscaleObservation,
    ClientPopulation,
    ConstantLoad,
    DiurnalLoad,
    FlashCrowdLoad,
    FluidTimeline,
    LinearRampLoad,
    LoadCurve,
    PredictiveLoadPolicy,
    ProvisioningCostModel,
    SiteFailure,
    SiteRecovery,
    StepPolicy,
    TargetLatencyPolicy,
    TargetUtilizationPolicy,
    elastic_fleet,
)


def observation(*, served=10, committed=10, mean=0.6, peak=0.7,
                delivered=1.0, multiplier=1.0, epoch=5):
    return AutoscaleObservation(
        epoch=epoch, served_sites=served, committed=committed,
        mean_utilization=mean, peak_utilization=peak,
        delivered_fraction=delivered, demand_multiplier=multiplier,
    )


def autoscaled_timeline(*, clients=8_000, max_sites=12, nominal=8,
                        epochs=24, seed=3, policy=None, load=None,
                        events=(), min_sites=2, warmup=1, cooldown=0):
    population = ClientPopulation(clients, seed=seed)
    fleet = elastic_fleet(population, max_sites, nominal_sites=nominal,
                          at_utilization=0.6)
    autoscaler = Autoscaler(
        policy or TargetUtilizationPolicy(target=0.6, deadband=0.05),
        min_sites=min_sites, warmup_epochs=warmup, cooldown_epochs=cooldown,
    )
    return FluidTimeline(population, fleet, epochs=epochs, load=load,
                         events=events, autoscaler=autoscaler)


class TestPolicies:
    def test_target_utilization_inverts_toward_the_set_point(self):
        policy = TargetUtilizationPolicy(target=0.5, deadband=0.05)
        # Running at 1.0 with 10 serving sites: need 20 to sit at 0.5.
        assert policy.desired_sites(observation(mean=1.0), lambda lead: 1.0) == 20
        # Running cold: shed capacity.
        assert policy.desired_sites(observation(mean=0.25), lambda lead: 1.0) == 5

    def test_target_utilization_deadband_holds_committed(self):
        policy = TargetUtilizationPolicy(target=0.6, deadband=0.1)
        held = policy.desired_sites(
            observation(mean=0.65, committed=13), lambda lead: 1.0)
        assert held == 13

    def test_step_policy_hysteresis(self):
        policy = StepPolicy(high=0.8, low=0.3, step=2)
        grow = policy.desired_sites(observation(peak=0.9, committed=10), None)
        hold = policy.desired_sites(observation(peak=0.5, committed=10), None)
        shrink = policy.desired_sites(observation(peak=0.2, committed=10), None)
        assert (grow, hold, shrink) == (12, 10, 8)

    def test_predictive_policy_uses_the_forecast(self):
        policy = PredictiveLoadPolicy(target=0.6, lead_epochs=2, deadband=0.02)
        # Flat forecast at current load: util already on target, hold.
        hold = policy.desired_sites(
            observation(mean=0.6, committed=10), lambda lead: 1.0)
        # Demand doubling in two epochs: provision for it now.
        grow = policy.desired_sites(
            observation(mean=0.6, committed=10), lambda lead: 2.0)
        assert hold == 10
        assert grow == 20

    def test_invalid_policies_rejected(self):
        with pytest.raises(WorkloadError):
            TargetUtilizationPolicy(target=0.0)
        with pytest.raises(WorkloadError):
            TargetUtilizationPolicy(target=0.5, deadband=0.6)
        with pytest.raises(WorkloadError):
            StepPolicy(high=0.3, low=0.8)
        with pytest.raises(WorkloadError):
            PredictiveLoadPolicy(lead_epochs=0)
        with pytest.raises(WorkloadError):
            Autoscaler(StepPolicy(), min_sites=0)
        with pytest.raises(WorkloadError):
            Autoscaler(StepPolicy(), min_sites=5, max_sites=4)
        with pytest.raises(WorkloadError):
            TargetLatencyPolicy(target_p95_seconds=0.0)
        with pytest.raises(WorkloadError):
            TargetLatencyPolicy(utilization_ceiling=1.0)
        with pytest.raises(WorkloadError):
            TargetLatencyPolicy(deadband_fraction=1.0)


class TestTargetLatencyPolicy:
    def test_holds_without_latency_telemetry(self):
        policy = TargetLatencyPolicy(target_p95_seconds=0.06)
        obs = observation(committed=9)  # latency_p95_seconds defaults to 0
        assert policy.desired_sites(obs, lambda lead: 1.0) == 9

    def test_scales_up_when_the_p95_blows_the_target(self):
        policy = TargetLatencyPolicy(target_p95_seconds=0.04,
                                     deadband_fraction=0.1)
        slow = AutoscaleObservation(
            epoch=5, served_sites=10, committed=10, mean_utilization=0.85,
            peak_utilization=0.9, delivered_fraction=1.0,
            demand_multiplier=1.0, latency_p95_seconds=0.12,
        )
        assert policy.desired_sites(slow, lambda lead: 1.0) > 10

    def test_sheds_capacity_when_far_below_target(self):
        policy = TargetLatencyPolicy(target_p95_seconds=0.2,
                                     deadband_fraction=0.1,
                                     utilization_ceiling=0.9)
        fast = AutoscaleObservation(
            epoch=5, served_sites=12, committed=12, mean_utilization=0.3,
            peak_utilization=0.35, delivered_fraction=1.0,
            demand_multiplier=1.0, latency_p95_seconds=0.05,
        )
        assert policy.desired_sites(fast, lambda lead: 1.0) < 12

    def test_ceiling_limits_shedding_when_target_is_unreachable(self):
        # The target is below what geography alone costs: the policy must
        # settle at the utilization ceiling, not divide by a negative need.
        policy = TargetLatencyPolicy(target_p95_seconds=0.001,
                                     utilization_ceiling=0.8, gain=1.0)
        obs = AutoscaleObservation(
            epoch=5, served_sites=10, committed=10, mean_utilization=0.4,
            peak_utilization=0.45, delivered_fraction=1.0,
            demand_multiplier=1.0, latency_p95_seconds=0.05,
        )
        # rho/rho_ceiling = 0.4/0.8: the policy wants half the fleet, and
        # never fewer than the ceiling allows.
        assert policy.desired_sites(obs, lambda lead: 1.0) == 5

    def test_default_gain_damps_the_correction(self):
        # Same observation at the default half gain: only half the gap is
        # taken per action, the anti-hunting behaviour the geometry needs.
        policy = TargetLatencyPolicy(target_p95_seconds=0.001,
                                     utilization_ceiling=0.8)
        obs = AutoscaleObservation(
            epoch=5, served_sites=10, committed=10, mean_utilization=0.4,
            peak_utilization=0.45, delivered_fraction=1.0,
            demand_multiplier=1.0, latency_p95_seconds=0.05,
        )
        assert policy.desired_sites(obs, lambda lead: 1.0) == 8
        # Tiny corrections are held outright (actuator deadband).
        near = AutoscaleObservation(
            epoch=5, served_sites=10, committed=6, mean_utilization=0.4,
            peak_utilization=0.45, delivered_fraction=1.0,
            demand_multiplier=1.0, latency_p95_seconds=0.05,
        )
        assert policy.desired_sites(near, lambda lead: 1.0) == 6
        with pytest.raises(WorkloadError):
            TargetLatencyPolicy(gain=0.0)

    def test_deadband_holds(self):
        policy = TargetLatencyPolicy(target_p95_seconds=0.05,
                                     deadband_fraction=0.2)
        near = AutoscaleObservation(
            epoch=5, served_sites=10, committed=11, mean_utilization=0.6,
            peak_utilization=0.65, delivered_fraction=1.0,
            demand_multiplier=1.0, latency_p95_seconds=0.055,
        )
        assert policy.desired_sites(near, lambda lead: 1.0) == 11

    @settings(max_examples=15, deadline=None)
    @given(
        target_ms=st.floats(min_value=30.0, max_value=120.0),
        trough=st.floats(min_value=0.2, max_value=0.8),
        peak=st.floats(min_value=0.9, max_value=1.6),
        warmup=st.integers(min_value=0, max_value=2),
    )
    def test_latency_autoscaler_bounds_hold(self, target_ms, trough, peak,
                                            warmup):
        """Property: the latency controller never breaches min/max either."""
        from repro.scale import LatencyModel

        population = ClientPopulation(3_000, seed=3)
        fleet = elastic_fleet(population, 9, nominal_sites=5,
                              at_utilization=0.6)
        autoscaler = Autoscaler(
            TargetLatencyPolicy(target_p95_seconds=target_ms / 1e3),
            min_sites=3, max_sites=9, warmup_epochs=warmup,
        )
        result = FluidTimeline(
            population, fleet, epochs=18,
            load=DiurnalLoad(trough=trough, peak=peak),
            autoscaler=autoscaler, latency=LatencyModel(),
        ).run()
        for record in result.records:
            committed = record.sites_in_service + record.sites_warming
            assert 3 <= committed <= 9


class TestClosedLoop:
    def test_diurnal_scaling_tracks_the_load(self):
        result = autoscaled_timeline(
            epochs=48, load=DiurnalLoad(trough=0.3, peak=1.2),
            policy=TargetUtilizationPolicy(target=0.6, deadband=0.05),
        ).run()
        sites = result.sites_in_service
        # The fleet breathes: more sites at peak than at trough.
        assert sites.max() > sites.min()
        assert result.total_autoscale_actions > 0
        # Scale events moved clients through the ring.
        assert result.total_clients_remapped > 0

    def test_flash_crowd_triggers_scale_up(self):
        result = autoscaled_timeline(
            epochs=24,
            load=FlashCrowdLoad(base=0.9, spike=3.0, start_seconds=6 * 3600.0,
                                ramp_seconds=3600.0, hold_seconds=6 * 3600.0),
        ).run()
        spike_sites = result.sites_in_service[10:16].max()
        assert spike_sites > result.sites_in_service[0]

    def test_bounds_are_never_violated(self):
        result = autoscaled_timeline(
            epochs=36, min_sites=4, nominal=6, max_sites=10,
            load=DiurnalLoad(trough=0.1, peak=2.0),
        ).run()
        for record in result.records:
            committed = record.sites_in_service + record.sites_warming
            assert 4 <= committed <= 10

    @settings(max_examples=15, deadline=None)
    @given(
        trough=st.floats(min_value=0.05, max_value=0.9),
        spread=st.floats(min_value=1.0, max_value=3.0),
        warmup=st.integers(min_value=0, max_value=3),
        cooldown=st.integers(min_value=0, max_value=2),
        target=st.floats(min_value=0.3, max_value=0.9),
    )
    def test_bounds_hold_for_any_diurnal_and_controller(self, trough, spread,
                                                        warmup, cooldown, target):
        """Property: no load curve or controller tuning breaches min/max."""
        result = autoscaled_timeline(
            clients=3_000, epochs=18, min_sites=3, nominal=5, max_sites=9,
            warmup=warmup, cooldown=cooldown,
            policy=TargetUtilizationPolicy(target=target, deadband=0.04),
            load=DiurnalLoad(trough=trough, peak=min(trough * spread, 1.0)),
        ).run()
        for record in result.records:
            committed = record.sites_in_service + record.sites_warming
            assert 3 <= committed <= 9

    def test_warmup_delays_capacity_arrival(self):
        # A step up at epoch e becomes serving capacity at e + warmup.
        result = autoscaled_timeline(
            epochs=20, warmup=3, cooldown=5,
            load=FlashCrowdLoad(base=0.8, spike=4.0, start_seconds=5 * 3600.0,
                                ramp_seconds=1.0, hold_seconds=10 * 3600.0),
        ).run()
        first_order = next(i for i, record in enumerate(result.records)
                           if any(label.startswith("up") for label in
                                  record.autoscale_actions))
        arrival = next(i for i, record in enumerate(result.records)
                       if any(label.endswith("live") for label in
                              record.autoscale_actions))
        assert arrival == first_order + 3
        warming = result.records[first_order].sites_warming
        assert warming > 0
        # Ordering capacity does not make it serve yet.
        assert result.records[first_order].sites_in_service <= \
            result.records[first_order - 1].sites_in_service

    def test_instant_warmup_activates_same_epoch(self):
        result = autoscaled_timeline(
            epochs=12, warmup=0,
            load=FlashCrowdLoad(base=0.8, spike=4.0, start_seconds=3 * 3600.0,
                                ramp_seconds=1.0, hold_seconds=6 * 3600.0),
        ).run()
        ordered = [record for record in result.records
                   if record.autoscale_actions]
        assert ordered
        assert all(label.endswith("live")
                   for record in ordered for label in record.autoscale_actions
                   if label.startswith("up"))

    def test_instant_scale_up_records_its_key_space_churn(self):
        def ramp(warmup):
            population = ClientPopulation(2_000, seed=3)
            fleet = elastic_fleet(population, 12, nominal_sites=4,
                                  at_utilization=0.9)
            return FluidTimeline(
                population, fleet, epochs=12,
                load=LinearRampLoad(0.8, 2.0, 0.0, 12 * 3600.0),
                autoscaler=Autoscaler(
                    TargetUtilizationPolicy(0.6, deadband=0.05),
                    min_sites=2, warmup_epochs=warmup),
            ).run()

        instant, warmed = ramp(0).records, ramp(1).records
        assert instant[1].autoscale_actions == ("up site04 live",)
        assert warmed[2].autoscale_actions[0] == "up site04 live"
        # The same site joining the same ring moves the same clients and
        # the same key space, whether or not it warmed up first.
        assert instant[1].clients_remapped == warmed[2].clients_remapped == 405
        assert instant[1].ring_moved_fraction == warmed[2].ring_moved_fraction \
            == 0.20044883519213172
        for record in instant:
            assert (record.clients_remapped > 0) == \
                (record.ring_moved_fraction > 0), record.epoch

    def test_forecast_of_a_non_finite_load_fails_naming_regions_and_time(self):
        class BrokenLoad(LoadCurve):
            def multipliers(self, t_seconds, regions):
                return np.full(regions, 1.0 if t_seconds < 6 * 3600.0
                               else float("nan"))

        # The policy reads the curve two epochs ahead, so the first bad
        # value reaches it through the forecast, before any epoch's demand.
        timeline = autoscaled_timeline(
            epochs=8, load=BrokenLoad(),
            policy=PredictiveLoadPolicy(target=0.6, lead_epochs=2))
        with pytest.raises(WorkloadError,
                           match=r"region\(s\) \[0, 1, .*7\] at t=21600 s"):
            timeline.run()

    def test_cooldown_spaces_actions(self):
        result = autoscaled_timeline(
            epochs=30, cooldown=4,
            load=DiurnalLoad(trough=0.2, peak=1.4),
        ).run()
        decision_epochs = [
            record.epoch for record in result.records
            if any(not label.endswith("live") or label.startswith("drain")
                   for label in record.autoscale_actions)
            and any(label.startswith(("up", "drain", "cancel"))
                    and not label.endswith("live")
                    for label in record.autoscale_actions)
        ]
        assert all(b - a >= 5 for a, b in zip(decision_epochs, decision_epochs[1:]))

    def test_determinism(self):
        first = autoscaled_timeline(load=DiurnalLoad(), seed=11).run()
        second = autoscaled_timeline(load=DiurnalLoad(), seed=11).run()
        assert np.array_equal(first.goodput_bps, second.goodput_bps)
        assert np.array_equal(first.sites_in_service, second.sites_in_service)
        assert first.total_provision_cost == second.total_provision_cost

    def test_rerun_restores_fleet_and_controller_state(self):
        timeline = autoscaled_timeline(load=DiurnalLoad(trough=0.2, peak=1.5))
        snapshot = timeline.fleet.health_snapshot()
        first = timeline.run()
        assert timeline.fleet.health_snapshot() == snapshot
        second = timeline.run()
        assert np.array_equal(first.sites_in_service, second.sites_in_service)


class TestDrainWhileFailed:
    """Churn accounting when failures and autoscaling collide."""

    @staticmethod
    def spike_then_collapse(events, epochs=16):
        # Load rides at 1.1x for five hours (failure happens there), then
        # collapses to 0.5x: the step controller drains one site per epoch,
        # and the failed-but-active site05 must be the first victim.  The
        # high threshold sits above the failure-epoch peak so no scale-up
        # pipeline muddies the drain accounting.
        return autoscaled_timeline(
            epochs=epochs, nominal=8, min_sites=6, warmup=1,
            policy=StepPolicy(high=0.97, low=0.45, step=1),
            load=FlashCrowdLoad(base=0.5, spike=2.2, start_seconds=-3600.0,
                                ramp_seconds=1.0, hold_seconds=6 * 3600.0),
            events=events,
        ).run()

    def test_scale_down_prefers_failed_sites_and_costs_no_churn(self):
        result = self.spike_then_collapse([SiteFailure(3, "site05")])
        drains = [(record.epoch, label)
                  for record in result.records
                  for label in record.autoscale_actions
                  if label.startswith("drain")]
        assert drains, "demand collapse should have triggered drains"
        first_drain_epoch, first_drain = drains[0]
        # The dead site goes first, and dropping it never touches the ring.
        assert first_drain == "drain site05"
        assert result.records[first_drain_epoch].clients_remapped == 0
        assert result.records[first_drain_epoch].ring_moved_fraction == 0.0
        # Later drains retire serving sites, which does move clients.
        later = [epoch for epoch, label in drains[1:]]
        assert any(result.records[epoch].clients_remapped > 0 for epoch in later)

    def test_recovery_of_drained_site_does_not_rejoin_ring(self):
        result = self.spike_then_collapse(
            [SiteFailure(3, "site05"), SiteRecovery(12, "site05")]
        )
        drained_first = any(label == "drain site05"
                            for record in result.records[:12]
                            for label in record.autoscale_actions)
        assert drained_first
        # The recovery epoch moves no clients: the site stays drained.
        assert result.records[12].clients_remapped == 0
        assert result.records[12].ring_moved_fraction == 0.0
        assert result.records[12].sites_in_service == \
            result.records[11].sites_in_service


class TestProvisioningCost:
    def test_epoch_cost_charges_capacity_and_churn(self):
        model = ProvisioningCostModel(core_hour_usd=1.0, gbps_hour_usd=0.0,
                                      site_hour_usd=0.0,
                                      remap_usd_per_thousand=5.0)
        cost = model.epoch_cost(cores=10.0, uplink_bps=0.0, sites=3,
                                epoch_seconds=1800.0, clients_remapped=2000)
        assert cost == pytest.approx(10.0 * 0.5 + 5.0 * 2.0)

    def test_negative_prices_rejected(self):
        with pytest.raises(WorkloadError):
            ProvisioningCostModel(core_hour_usd=-1.0)

    def test_autoscaled_run_is_cheaper_than_static_peak_fleet(self):
        population = ClientPopulation(8_000, seed=3)
        load = DiurnalLoad(trough=0.25, peak=1.1)
        scaled = autoscaled_timeline(load=load, epochs=48).run()
        static_fleet = elastic_fleet(population, 12, nominal_sites=12,
                                     at_utilization=0.6)
        static = FluidTimeline(population, static_fleet, epochs=48,
                               load=load).run()
        assert scaled.total_provision_cost < static.total_provision_cost

    def test_cost_is_recorded_without_an_autoscaler(self):
        population = ClientPopulation(2_000, seed=3)
        fleet = elastic_fleet(population, 4, nominal_sites=4)
        result = FluidTimeline(population, fleet, epochs=6,
                               load=ConstantLoad(0.8)).run()
        assert result.total_provision_cost > 0
        assert all(record.sites_in_service == 4 for record in result.records)
