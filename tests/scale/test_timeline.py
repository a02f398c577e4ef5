"""Timeline properties: conservation, warm-start equivalence, failover churn."""

import gc
import weakref

import numpy as np
import pytest

import repro.scale.timeline as timeline_module

from repro.exceptions import WorkloadError
from repro.scale import (
    CapacityDegradation,
    ClientPopulation,
    CompositeLoad,
    ConstantLoad,
    DiscriminationToggle,
    DiurnalLoad,
    FlashCrowdLoad,
    FluidTimeline,
    LinearRampLoad,
    LoadCurve,
    NeutralizerFleet,
    ScaleScenario,
    SiteFailure,
    SiteRecovery,
    build_scenario,
    canonical_result_bytes,
)
from repro.scale.solver import solve_allocation
from repro.scale.timeline import _TimelineRun
from repro.units import mbps


def small_timeline(clients=10_000, sites=5, *, epochs=12, seed=31, **kwargs):
    population = ClientPopulation(clients, seed=seed)
    fleet = NeutralizerFleet.build(sites, cores=0.5, uplink_bps=mbps(700))
    return FluidTimeline(population, fleet, epochs=epochs, **kwargs)


class TestLoadCurves:
    def test_constant(self):
        assert (ConstantLoad(0.7).multipliers(0.0, 4) == 0.7).all()

    def test_diurnal_bounds_and_period(self):
        curve = DiurnalLoad(trough=0.3, peak=1.2, timezone_spread=0.0)
        samples = np.array([curve.multipliers(t, 1)[0]
                            for t in np.linspace(0, 86_400, 97)])
        assert samples.min() == pytest.approx(0.3, abs=1e-6)
        assert samples.max() == pytest.approx(1.2, abs=1e-6)
        # Periodicity: one full day later the multiplier repeats.
        assert curve.multipliers(3_600.0, 3) == pytest.approx(
            curve.multipliers(3_600.0 + 86_400.0, 3)
        )

    def test_diurnal_timezone_spread_staggers_regions(self):
        curve = DiurnalLoad(timezone_spread=0.25)
        values = curve.multipliers(0.0, 8)
        assert len(set(np.round(values, 9))) > 1

    def test_flash_crowd_shape(self):
        curve = FlashCrowdLoad(base=1.0, spike=5.0, start_seconds=100.0,
                               ramp_seconds=100.0, hold_seconds=200.0,
                               regions_hit=(1,))
        assert curve.multipliers(0.0, 3)[1] == pytest.approx(1.0)
        assert curve.multipliers(200.0, 3)[1] == pytest.approx(5.0)  # peak
        assert curve.multipliers(350.0, 3)[1] == pytest.approx(5.0)  # holding
        assert curve.multipliers(1_000.0, 3)[1] == pytest.approx(1.0)  # decayed
        # Untouched regions stay at base throughout.
        assert curve.multipliers(200.0, 3)[0] == pytest.approx(1.0)

    def test_ramp_clamps_outside_window(self):
        curve = LinearRampLoad(start_level=1.0, end_level=3.0,
                               t0_seconds=0.0, t1_seconds=100.0)
        assert curve.multipliers(-50.0, 2)[0] == pytest.approx(1.0)
        assert curve.multipliers(50.0, 2)[0] == pytest.approx(2.0)
        assert curve.multipliers(500.0, 2)[0] == pytest.approx(3.0)

    def test_composite_multiplies(self):
        combined = ConstantLoad(2.0) * ConstantLoad(0.5)
        assert isinstance(combined, CompositeLoad)
        assert combined.multipliers(0.0, 3) == pytest.approx([1.0, 1.0, 1.0])

    def test_invalid_curves_rejected(self):
        with pytest.raises(WorkloadError):
            ConstantLoad(-1.0)
        with pytest.raises(WorkloadError):
            DiurnalLoad(trough=2.0, peak=1.0)
        with pytest.raises(WorkloadError):
            FlashCrowdLoad(spike=0.5)
        with pytest.raises(WorkloadError):
            LinearRampLoad(t0_seconds=10.0, t1_seconds=10.0)


    @pytest.mark.parametrize("make", [
        lambda: ConstantLoad(float("inf")),
        lambda: ConstantLoad(float("nan")),
        lambda: DiurnalLoad(peak=float("inf")),
        lambda: DiurnalLoad(period_seconds=float("nan")),
        lambda: FlashCrowdLoad(spike=float("inf")),
        lambda: FlashCrowdLoad(hold_seconds=float("nan")),
        lambda: LinearRampLoad(end_level=float("inf")),
        lambda: LinearRampLoad(t1_seconds=float("inf")),
    ], ids=["constant-inf", "constant-nan", "diurnal-peak-inf",
            "diurnal-period-nan", "flash-spike-inf", "flash-hold-nan",
            "ramp-end-inf", "ramp-t1-inf"])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(WorkloadError, match="must be finite"):
            make()


class TestConservation:
    """Property: no epoch ever delivers more than is offered or is feasible."""

    @pytest.mark.parametrize("load", [
        ConstantLoad(1.0),
        DiurnalLoad(trough=0.3, peak=1.3),
        FlashCrowdLoad(base=0.8, spike=8.0, start_seconds=3 * 3600.0,
                       ramp_seconds=3600.0, hold_seconds=2 * 3600.0),
        LinearRampLoad(start_level=0.5, end_level=2.5, t0_seconds=0.0,
                       t1_seconds=12 * 3600.0),
    ])
    def test_goodput_never_exceeds_demand(self, load):
        result = small_timeline(load=load).run()
        assert (result.goodput_bps <= result.demand_bps * (1 + 1e-9)).all()
        assert (result.delivered_fraction <= 1 + 1e-9).all()
        assert (result.cpu_utilization <= 1 + 1e-6).all()
        assert (result.uplink_utilization <= 1 + 1e-6).all()

    def test_every_epoch_accounts_every_client(self):
        result = small_timeline(
            events=[SiteFailure(4, "site01"), SiteRecovery(8, "site01")]
        ).run()
        assert (result.clients_per_site.sum(axis=1) == result.n_clients).all()

    def test_payload_nbytes_tracks_the_epoch_matrices(self):
        result = small_timeline(epochs=6).run()
        expected = (result.cpu_utilization.nbytes
                    + result.uplink_utilization.nbytes
                    + result.clients_per_site.nbytes)
        assert result.payload_nbytes == expected > 0
        # Grows with the timeline: double the epochs, double the payload a
        # campaign unit ships back from its worker process.
        longer = small_timeline(epochs=12).run()
        assert longer.payload_nbytes == 2 * result.payload_nbytes

    def test_capacity_loss_is_monotone_non_increasing(self):
        # Identical demand, progressively degraded fleet: goodput can only fall.
        goodputs = []
        for factor in (1.0, 0.6, 0.3, 0.1):
            events = [] if factor == 1.0 else [
                CapacityDegradation(0, site=f"site{i:02d}", factor=factor)
                for i in range(5)
            ]
            result = small_timeline(epochs=2, events=events).run()
            goodputs.append(result.records[-1].goodput_bps)
        assert all(a >= b - 1e-6 for a, b in zip(goodputs, goodputs[1:]))
        assert goodputs[0] > goodputs[-1]

    def test_degradation_window_restores_capacity(self):
        result = small_timeline(
            epochs=9,
            events=[CapacityDegradation(3, site="site00", factor=0.2, until_epoch=6)],
        ).run()
        before, during, after = (result.records[2], result.records[4],
                                 result.records[7])
        assert during.goodput_bps <= before.goodput_bps + 1e-6
        assert after.goodput_bps == pytest.approx(before.goodput_bps, rel=1e-9)


class TestFailover:
    def test_failed_then_recovered_site_gets_exactly_its_old_clients(self):
        population = ClientPopulation(15_000, seed=5)
        fleet = NeutralizerFleet.build(6, cores=0.5, uplink_bps=mbps(700))
        before = fleet.assign_sites(population.ring_positions).copy()
        timeline = FluidTimeline(
            population, fleet, epochs=10,
            events=[SiteFailure(3, "site02"), SiteRecovery(7, "site02")],
        )
        result = timeline.run()
        after = fleet.assign_sites(population.ring_positions)
        # The ring's contract, observed through a whole timeline: recovery
        # hands back exactly the pre-failure assignment.
        assert np.array_equal(before, after)
        # During the outage the failed site is empty and only its clients moved.
        failed_count = int((before == 2).sum())
        assert (result.clients_per_site[3:7, 2] == 0).all()
        assert result.records[3].clients_remapped == failed_count
        assert result.records[7].clients_remapped == failed_count
        assert result.records[3].ring_moved_fraction > 0
        # Off-event epochs have zero churn.
        for epoch in (1, 2, 5, 9):
            assert result.records[epoch].clients_remapped == 0
            assert result.records[epoch].ring_moved_fraction == 0.0

    def test_remap_churn_matches_ring_diff_scale(self):
        result = small_timeline(
            clients=20_000, events=[SiteFailure(5, "site03")]
        ).run()
        record = result.records[5]
        # Clients are hashed uniformly, so the moved-client share tracks the
        # moved hash-space share (loose bound: within a factor of two).
        moved_share = record.clients_remapped / result.n_clients
        assert record.ring_moved_fraction > 0
        assert 0.5 < moved_share / record.ring_moved_fraction < 2.0

    def test_epoch_zero_failure_counts_the_same_churn_as_epoch_one(self):
        from repro.scale import provisioned_fleet

        population = ClientPopulation(5_000, seed=3)
        fleet = provisioned_fleet(population, 8)
        site = fleet.sites[2].name

        def churn(at_epoch):
            result = FluidTimeline(population, fleet, epochs=3,
                                   events=[SiteFailure(at_epoch, site)]).run()
            record = result.records[at_epoch]
            return (record.clients_remapped, record.ring_moved_fraction,
                    record.provision_cost, result.total_clients_remapped)

        # No template exists before epoch 0's first ring change; the run must
        # still count the clients that failure moved, not report a moved
        # hash-space fraction beside zero moved clients.
        at_zero = churn(0)
        assert at_zero == churn(1)
        assert at_zero[0] > 0

    def test_epoch_zero_churn_is_counted_against_the_runs_initial_ring(self):
        from repro.scale import ScaleScenario

        population = ClientPopulation(6_000, seed=9)
        fleet = NeutralizerFleet.build(6, cores=0.5, uplink_bps=mbps(700))
        scenario = ScaleScenario(population, fleet)
        initial = fleet.ring_state()
        assigned = fleet.assign_sites(population.ring_positions)
        fleet.fail_site("site04")
        failed = fleet.ring_state()
        moved = int((fleet.assign_sites(population.ring_positions)
                     != assigned).sum())
        fleet.restore_site("site04")

        def epoch_zero(events):
            return FluidTimeline(population, fleet, epochs=2, events=events,
                                 scenario=scenario).run().records[0]

        # A failure at epoch 0 moves what it moved from the ring the run
        # started on, although no template existed before it.
        record = epoch_zero([SiteFailure(0, "site04")])
        assert record.clients_remapped == moved > 0
        assert record.ring_moved_fraction == \
            NeutralizerFleet.ring_moved_fraction(initial, failed) > 0
        # That run left the shared scenario's template on the failed ring.
        # The next replica refreshes it to the restored ring at epoch 0: the
        # template moves clients from its parent, but nothing moved against
        # the ring that replica started on.
        assert scenario._template.stale
        record = epoch_zero([])
        assert (record.clients_remapped, record.ring_moved_fraction) == (0, 0.0)
        assert scenario.build_template().remapped_from_parent == moved


class TestWarmStart:
    @staticmethod
    def congested_timeline(*, epochs=12, seed=11, warm_start=True, events=()):
        """Steady congested load: the regime where hint reuse fires."""
        from repro.scale import provisioned_fleet

        population = ClientPopulation(12_000, seed=seed)
        fleet = provisioned_fleet(population, 5, headroom=0.8)
        return FluidTimeline(population, fleet, epochs=epochs,
                             load=ConstantLoad(1.0), events=events,
                             warm_start=warm_start)

    def test_warm_and_cold_timelines_agree_exactly_enough(self):
        def build(warm):
            return small_timeline(
                clients=12_000, seed=11,
                load=DiurnalLoad(trough=0.3, peak=1.4),
                events=[SiteFailure(6, "site00"), SiteRecovery(9, "site00")],
                warm_start=warm,
            )
        warm = build(True).run()
        cold = build(False).run()
        assert np.allclose(warm.goodput_bps, cold.goodput_bps, rtol=1e-6)
        assert np.allclose(warm.delivered_fraction, cold.delivered_fraction,
                           rtol=1e-6)
        # The demand certificate is mode-independent, so quiet epochs skip
        # the fill in both runs.
        assert warm.fast_fraction > 0.3
        assert cold.warm_fraction == 0.0

    def test_steady_congestion_reuses_the_previous_allocation(self):
        warm = self.congested_timeline(warm_start=True).run()
        cold = self.congested_timeline(warm_start=False).run()
        # Every epoch after the first certifies the previous allocation.
        assert warm.warm_fraction == pytest.approx(11 / 12)
        assert all(record.solver_iterations == 0
                   for record in warm.records if record.warm_started)
        assert cold.warm_fraction == 0.0
        assert np.allclose(warm.goodput_bps, cold.goodput_bps, rtol=1e-6)
        # Congested epochs can't use the demand certificate, so the cold run
        # really refills each one.
        assert all(record.solver_iterations > 0 for record in cold.records)

    def test_uncongested_epochs_use_the_demand_certificate_in_any_mode(self):
        for warm_start in (True, False):
            result = small_timeline(load=ConstantLoad(0.5),
                                    warm_start=warm_start).run()
            assert all(record.solver_iterations == 0 for record in result.records)
            assert result.fast_fraction == 1.0
            if warm_start:
                # Steady bit-identical epochs reuse the previous allocation
                # outright (same problem, same answer) — every epoch after
                # the first counts as warm.
                assert result.warm_fraction == pytest.approx(11 / 12)
            else:
                assert result.warm_fraction == 0.0  # demands cert only

    def test_a_curve_refilling_one_buffer_gives_the_same_bytes(self):
        # A resting epoch is keyed on the regional multipliers, so the key
        # must hold a copy: a curve handing out one refilled buffer would
        # otherwise compare equal to itself and freeze its demand.
        class RefillingLoad(LoadCurve):
            def __init__(self, curve):
                self.curve = curve
                self.buffer = None

            def multipliers(self, t_seconds, regions):
                if self.buffer is None:
                    self.buffer = np.empty(regions)
                self.buffer[:] = self.curve.multipliers(t_seconds, regions)
                return self.buffer

        curve = FlashCrowdLoad(spike=3.0, start_seconds=7_200.0,
                               ramp_seconds=3_600.0, hold_seconds=3_600.0)
        fresh = small_timeline(load=curve).run()
        refilled = small_timeline(load=RefillingLoad(curve)).run()
        assert len(set(fresh.demand_bps)) > 1
        assert (canonical_result_bytes(refilled)
                == canonical_result_bytes(fresh))

    def test_event_epoch_falls_back_to_cold(self):
        result = self.congested_timeline(
            events=[SiteFailure(4, "site01")]
        ).run()
        assert result.records[3].warm_started
        # The remap changes the flow structure: a new problem, solved cold.
        assert not result.records[4].warm_started
        assert result.records[4].solver_iterations > 0


class TestSolveMemo:
    def test_a_timeline_solve_takes_no_hint(self, monkeypatch):
        calls = []

        def recording(problem, **kwargs):
            calls.append(kwargs)
            return solve_allocation(problem, **kwargs)

        monkeypatch.setattr(timeline_module, "solve_allocation", recording)
        for name in ("regional_outage", "elastic_web_mix"):
            build_scenario(name, clients=2000, seed=7).run()
        assert calls
        assert all(kwargs.get("warm_start") is None
                   and kwargs.get("warm_prices") is None for kwargs in calls)

    def test_the_key_tells_two_fleet_states_apart(self):
        # Site 1 out, then site 2 out: under a flat load the two rings pose
        # equal scale vectors over as many flows, yet different problems.
        def run(warm_start):
            return small_timeline(
                epochs=8, load=ConstantLoad(1.0), warm_start=warm_start,
                events=[SiteFailure(2, "site01"), SiteRecovery(4, "site01"),
                        SiteFailure(6, "site02")]).run()

        remembered, cold = run(True), run(False)
        assert not np.array_equal(remembered.cpu_utilization[2],
                                  remembered.cpu_utilization[6])
        assert np.array_equal(remembered.cpu_utilization, cold.cpu_utilization)

    def test_the_memo_is_bounded_and_pins_no_template(self, monkeypatch):
        runs, templates = [], []
        init = _TimelineRun.__init__
        build = ScaleScenario.build_template

        def keeping(run, timeline):
            init(run, timeline)
            runs.append(run)

        def watched(scenario):
            template = build(scenario)
            if not templates or templates[-1]() is not template:
                templates.append(weakref.ref(template))
            return template

        monkeypatch.setattr(_TimelineRun, "__init__", keeping)
        monkeypatch.setattr(ScaleScenario, "build_template", watched)
        bound = timeline_module.SOLVE_MEMO_SIZE
        epochs = 3 * bound
        # A ramp poses a new problem every epoch; the failure and recovery
        # replace the template twice.
        timeline = small_timeline(
            epochs=epochs,
            load=LinearRampLoad(0.5, 1.5, 0.0, epochs * 3600.0),
            events=[SiteFailure(2, "site01"), SiteRecovery(4, "site01")])
        collecting = gc.isenabled()
        gc.disable()
        try:
            timeline.run()
            assert len(runs[0].memo) == bound
            assert len(templates) == 3
            assert [ref() is None for ref in templates] == [True, True, False]
        finally:
            if collecting:
                gc.enable()


class TestDiscrimination:
    def test_throttle_cuts_delivery_and_repeal_restores_it(self):
        result = small_timeline(
            clients=20_000, epochs=9,
            events=[DiscriminationToggle(3, region=0, factor=0.1,
                                         until_epoch=6)],
        ).run()
        before, during, after = (result.records[2], result.records[4],
                                 result.records[7])
        assert during.delivered_fraction < before.delivered_fraction
        assert after.delivered_fraction == pytest.approx(
            before.delivered_fraction, rel=1e-9
        )
        # Offered demand is unchanged by the throttle: the ISP drops traffic,
        # clients do not stop wanting it.
        assert during.demand_bps == pytest.approx(before.demand_bps, rel=1e-9)

    def test_class_scoped_throttle_spares_other_classes(self):
        result = small_timeline(
            clients=20_000, epochs=4,
            events=[DiscriminationToggle(1, region=0, factor=0.0,
                                         class_names=("video",))],
        ).run()
        before, during = result.records[0], result.records[2]
        assert during.goodput_bps_by_class["video"] < before.goodput_bps_by_class["video"]
        assert during.goodput_bps_by_class["voip"] == pytest.approx(
            before.goodput_bps_by_class["voip"], rel=1e-6
        )


class TestValidation:
    def test_bad_timeline_parameters_rejected(self):
        population = ClientPopulation(1_000, seed=1)
        fleet = NeutralizerFleet.build(2)
        with pytest.raises(WorkloadError):
            FluidTimeline(population, fleet, epochs=0)
        with pytest.raises(WorkloadError):
            FluidTimeline(population, fleet, epochs=4, epoch_seconds=0.0)

    def test_event_beyond_horizon_rejected(self):
        with pytest.raises(WorkloadError, match="horizon"):
            small_timeline(epochs=4, events=[SiteFailure(9, "site00")])

    def test_unknown_site_rejected(self):
        with pytest.raises(WorkloadError, match="unknown site"):
            small_timeline(events=[SiteFailure(1, "nope")])

    def test_unknown_region_and_class_rejected(self):
        with pytest.raises(WorkloadError, match="region"):
            small_timeline(events=[DiscriminationToggle(1, region=99)])
        with pytest.raises(WorkloadError, match="classes"):
            small_timeline(events=[DiscriminationToggle(
                1, region=0, class_names=("carrier-pigeon",))])

    def test_bad_events_rejected(self):
        with pytest.raises(WorkloadError):
            CapacityDegradation(4, site="site00", factor=1.5)
        with pytest.raises(WorkloadError):
            CapacityDegradation(4, site="site00", factor=0.5, until_epoch=3)
        with pytest.raises(WorkloadError):
            DiscriminationToggle(-1, region=0)

    def test_determinism(self):
        first = small_timeline(load=DiurnalLoad(), seed=13).run()
        second = small_timeline(load=DiurnalLoad(), seed=13).run()
        assert np.array_equal(first.goodput_bps, second.goodput_bps)
        assert np.array_equal(first.clients_per_site, second.clients_per_site)

    def test_rerun_after_unrecovered_failure_is_identical(self):
        # run() must restore fleet health, so a timeline whose events leave a
        # site down can be re-run (benchmark-style) without drifting.
        timeline = small_timeline(events=[SiteFailure(4, "site01")])
        first = timeline.run()
        assert timeline.fleet.site("site01").healthy
        second = timeline.run()
        assert np.array_equal(first.goodput_bps, second.goodput_bps)
        assert np.array_equal(first.clients_per_site, second.clients_per_site)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_multiplier_fails_naming_region_and_time(self, value):
        class BrokenLoad(LoadCurve):
            def multipliers(self, t_seconds, regions):
                out = np.ones(regions)
                if t_seconds >= 7_200.0:
                    out[1] = value
                return out

        timeline = small_timeline(load=BrokenLoad(), epoch_seconds=3_600.0)
        with pytest.raises(WorkloadError,
                           match=r"region\(s\) \[1\] at t=7200 s"):
            timeline.run()

    def test_flash_crowd_hitting_missing_region_fails_loudly(self):
        timeline = small_timeline(
            load=FlashCrowdLoad(spike=4.0, regions_hit=(99,))
        )
        with pytest.raises(WorkloadError, match="region"):
            timeline.run()
        with pytest.raises(WorkloadError):
            FlashCrowdLoad(regions_hit=(-1,))
