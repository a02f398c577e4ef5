"""The latency subsystem: proxy shape, composition, timelines, E15 campaigns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import WorkloadError
from repro.scale import (
    ClientPopulation,
    ConstantLoad,
    DiurnalLoad,
    FluidTimeline,
    LatencyCampaignRunner,
    LatencyModel,
    evaluate_latency,
    provisioned_fleet,
    run_latency_cost_frontier,
)
from repro.scale.latency import _weighted_percentiles
from repro.scale.population import elastic_mix
from repro.scale.scenario import ScaleScenario
from repro.scale.solver import solve_allocation


def solved_epoch(clients=8_000, sites=4, *, mult=1.0, seed=9, mix=None,
                 headroom=1.2):
    population = ClientPopulation(clients, mix=mix, seed=seed)
    fleet = provisioned_fleet(population, sites, headroom=headroom)
    template = ScaleScenario(population, fleet).build_template()
    epoch = template.instantiate(np.full(template.base_demands.shape, mult))
    allocation = solve_allocation(epoch.problem)
    return template, epoch, allocation


class TestLatencyModel:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            LatencyModel(service_cv=-1.0)
        with pytest.raises(WorkloadError):
            LatencyModel(max_utilization=1.0)
        with pytest.raises(WorkloadError):
            LatencyModel(geography_seconds=-0.1)
        with pytest.raises(WorkloadError):
            LatencyModel(region_site_rtt_seconds=np.array([[-1.0]]))

    def test_queueing_factor_shape(self):
        model = LatencyModel(service_cv=0.0)
        assert model.queueing_factor(np.array(0.0)) == 0.0
        # M/D/1 at rho = 0.5: half a service time of mean wait.
        assert model.queueing_factor(np.array(0.5)) == pytest.approx(0.5)
        # cv=1 doubles the P-K wait.
        assert LatencyModel(service_cv=1.0).queueing_factor(
            np.array(0.5)) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(rho1=st.floats(0.0, 1.5), rho2=st.floats(0.0, 1.5),
           cv=st.floats(0.0, 3.0))
    def test_queueing_factor_monotone_and_finite(self, rho1, rho2, cv):
        model = LatencyModel(service_cv=cv)
        lo, hi = sorted((rho1, rho2))
        f_lo = float(model.queueing_factor(np.array(lo)))
        f_hi = float(model.queueing_factor(np.array(hi)))
        assert 0.0 <= f_lo <= f_hi
        assert np.isfinite(f_hi)  # the clamp keeps saturated queues finite

    def test_allen_cunneen_defaults_to_pollaczek_khinchine(self):
        # The G/G/1 generalization must change nothing at arrival_cv=1:
        # the default proxy stays the M/G/1-PS shape, bit for bit.
        from repro.scale.latency import (
            allen_cunneen_factor,
            pollaczek_khinchine_factor,
        )

        rho = np.linspace(0.0, 1.2, 25)
        for cv in (0.0, 0.7, 1.0, 2.5):
            assert np.array_equal(
                allen_cunneen_factor(rho, 1.0, cv, 0.98),
                pollaczek_khinchine_factor(rho, cv, 0.98),
            )
        assert np.array_equal(
            LatencyModel(service_cv=cv).queueing_factor(rho),
            pollaczek_khinchine_factor(rho, cv, 0.98),
        )

    @settings(max_examples=60, deadline=None)
    @given(rho=st.floats(0.0, 1.5),
           ca1=st.floats(0.0, 4.0), ca2=st.floats(0.0, 4.0),
           cs1=st.floats(0.0, 6.0), cs2=st.floats(0.0, 6.0))
    def test_allen_cunneen_monotone_in_both_variabilities(self, rho, ca1, ca2,
                                                          cs1, cs2):
        # The heavy-tailed option's property: more variability (arrival or
        # service) never shortens the wait, at any load.
        from repro.scale.latency import allen_cunneen_factor

        ca_lo, ca_hi = sorted((ca1, ca2))
        cs_lo, cs_hi = sorted((cs1, cs2))
        lo = float(allen_cunneen_factor(np.array(rho), ca_lo, cs_lo, 0.98))
        hi = float(allen_cunneen_factor(np.array(rho), ca_hi, cs_hi, 0.98))
        assert 0.0 <= lo <= hi
        assert np.isfinite(hi)

    def test_heavy_tailed_constructor(self):
        model = LatencyModel.heavy_tailed(service_scv=16.0)
        assert model.service_cv == pytest.approx(4.0)
        # Heavy tails deepen every queue relative to the default proxy.
        rho = np.array(0.6)
        assert model.queueing_factor(rho) > LatencyModel().queueing_factor(rho)
        with pytest.raises(WorkloadError):
            LatencyModel.heavy_tailed(service_scv=-1.0)
        with pytest.raises(WorkloadError):
            LatencyModel(arrival_cv=-0.5)

    def test_latency_policy_inverts_the_allen_cunneen_shape(self):
        # for_model must copy arrival_cv so the controller's inversion is
        # the exact inverse of a bursty-arrival proxy too.
        from repro.scale.autoscale import TargetLatencyPolicy

        model = LatencyModel(service_cv=0.5, arrival_cv=2.0)
        policy = TargetLatencyPolicy.for_model(model, target_p95_seconds=0.06)
        assert policy.arrival_cv == 2.0
        rho = 0.55
        assert policy._queue_factor(rho) == pytest.approx(
            float(model.queueing_factor(np.array(rho))))

    def test_base_rtt_geometry_is_deterministic_and_bounded(self):
        model = LatencyModel()
        first = model.base_rtt_matrix(8, 16)
        second = model.base_rtt_matrix(8, 16)
        assert np.array_equal(first, second)
        assert first.shape == (8, 16)
        assert (first >= model.min_rtt_seconds).all()
        assert (first <= model.min_rtt_seconds + model.geography_seconds).all()

    def test_base_rtt_override_must_match_shape(self):
        model = LatencyModel(region_site_rtt_seconds=np.zeros((2, 3)))
        assert model.base_rtt_matrix(2, 3).shape == (2, 3)
        with pytest.raises(WorkloadError):
            model.base_rtt_matrix(3, 2)


class TestWeightedPercentiles:
    def test_simple_weighted_median(self):
        values = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 1.0, 8.0])
        p50, p99 = _weighted_percentiles(values, weights, (0.5, 0.99))
        assert p50 == 3.0 and p99 == 3.0

    def test_uniform_weights_match_steps(self):
        values = np.array([10.0, 20.0, 30.0, 40.0])
        weights = np.ones(4)
        p25, p75 = _weighted_percentiles(values, weights, (0.25, 0.75))
        assert p25 == 10.0 and p75 == 30.0

    def test_empty_is_zero(self):
        assert _weighted_percentiles(np.array([]), np.array([]), (0.5,)) == [0.0]


class TestEvaluateLatency:
    def test_covers_every_client_and_stays_positive(self):
        template, epoch, allocation = solved_epoch()
        result = evaluate_latency(template, epoch, allocation, LatencyModel())
        assert result.total_clients == template.population.n_clients
        assert (result.flow_delay_seconds > 0).all()
        by_class = result.by_class()
        assert set(by_class) == set(template.population.mix.names)
        assert sum(c.clients for c in by_class.values()) == result.total_clients
        for summary in by_class.values():
            assert (summary.p50_seconds <= summary.p95_seconds
                    <= summary.p99_seconds <= summary.worst_seconds)

    @settings(max_examples=20, deadline=None)
    @given(lo=st.floats(0.2, 1.0), hi=st.floats(1.0, 2.5))
    def test_latency_monotone_in_utilization(self, lo, hi):
        # The property the proxy exists for: more load through the same
        # structure can only raise every percentile of the delay.
        template, epoch_lo, alloc_lo = solved_epoch(mult=lo)
        _, epoch_hi, alloc_hi = solved_epoch(mult=hi)
        model = LatencyModel()
        low = evaluate_latency(template, epoch_lo, alloc_lo, model)
        high = evaluate_latency(template, epoch_hi, alloc_hi, model)
        for quantile in (0.5, 0.95, 0.99):
            assert high.percentile(quantile) >= low.percentile(quantile) - 1e-12
        assert high.mean_seconds >= low.mean_seconds - 1e-12

    def test_slo_violations_monotone_in_threshold(self):
        template, epoch, allocation = solved_epoch(mult=1.5, headroom=0.9)
        result = evaluate_latency(template, epoch, allocation, LatencyModel())
        fractions = [result.slo_violation_fraction(slo)
                     for slo in (0.02, 0.04, 0.08, 0.5)]
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert fractions == sorted(fractions, reverse=True)
        with pytest.raises(WorkloadError):
            result.slo_violation_fraction(0.0)

    def test_congestion_displaces_the_tail(self):
        template, epoch_lo, alloc_lo = solved_epoch(mult=0.5, headroom=0.9)
        _, epoch_hi, alloc_hi = solved_epoch(mult=2.0, headroom=0.9)
        model = LatencyModel()
        quiet = evaluate_latency(template, epoch_lo, alloc_lo, model)
        busy = evaluate_latency(template, epoch_hi, alloc_hi, model)
        assert busy.percentile(0.95) > quiet.percentile(0.95)


class TestTimelineLatency:
    def timeline(self, *, latency=None, slo=0.05, clients=8_000, mix=None):
        population = ClientPopulation(clients, mix=mix, seed=3)
        fleet = provisioned_fleet(population, 4, headroom=1.0)
        return FluidTimeline(
            population, fleet, epochs=10,
            load=DiurnalLoad(trough=0.5, peak=1.3),
            latency=latency, latency_slo_seconds=slo,
        )

    def test_no_model_records_zeros(self):
        result = self.timeline().run()
        assert not result.has_latency
        assert (result.latency_p95_seconds == 0.0).all()
        assert "p95 ms" not in result.series()

    def test_model_records_percentiles_and_series(self):
        result = self.timeline(latency=LatencyModel()).run()
        assert result.has_latency
        assert (result.latency_p95_seconds > 0).all()
        for record in result.records:
            assert (record.latency_p50_seconds <= record.latency_p95_seconds
                    <= record.latency_p99_seconds)
            assert 0.0 <= record.latency_slo_violations <= 1.0
        series = result.series()
        assert "p95 ms" in series and "slo viol" in series
        assert result.worst_latency_p95_seconds == result.latency_p95_seconds.max()
        assert 0.0 <= result.latency_slo_attainment() <= 1.0

    def test_latency_identical_warm_and_cold(self):
        warm = self.timeline(latency=LatencyModel()).run()
        cold_timeline = self.timeline(latency=LatencyModel())
        cold_timeline.warm_start = False
        cold = cold_timeline.run()
        assert np.allclose(warm.latency_p95_seconds, cold.latency_p95_seconds,
                           rtol=1e-9)

    def test_elastic_mix_timeline_is_deterministic(self):
        first = self.timeline(latency=LatencyModel(), mix=elastic_mix()).run()
        second = self.timeline(latency=LatencyModel(), mix=elastic_mix()).run()
        assert np.array_equal(first.latency_p95_seconds,
                              second.latency_p95_seconds)
        assert np.array_equal(first.goodput_bps, second.goodput_bps)

    def test_bad_slo_rejected(self):
        with pytest.raises(WorkloadError):
            self.timeline(slo=0.0)


class TestLatencyCampaign:
    def test_e15_smoke(self):
        runner = LatencyCampaignRunner(clients=6_000, epochs=30, replicas=3,
                                       seed=11, nominal_sites=6, max_sites=8)
        result = runner.run()
        assert result.run_id.startswith("latency-")
        assert result.report.experiment_id == "E15"
        assert "latency p95 (ms)" in result.distributions
        assert "replica worst p95 (ms)" in result.distributions
        pooled = result.distributions["latency p95 (ms)"]
        assert pooled.samples == 3 * 30
        assert pooled.p50 > 0
        for record in result.records:
            assert record.mean_latency_p95_seconds > 0
            assert 0.0 <= record.latency_slo_attainment <= 1.0
        rendered = result.report.render()
        assert "latency vs cost" in rendered

    def test_e15_deterministic(self):
        make = lambda: LatencyCampaignRunner(
            clients=6_000, epochs=24, replicas=3, seed=13,
            nominal_sites=6, max_sites=8).run()
        assert make().distributions == make().distributions

    def test_latency_cost_frontier_orders_costs(self):
        kwargs = dict(targets_p95_seconds=(0.045, 0.2), clients=6_000, epochs=24,
                      replicas=2, seed=11, nominal_sites=6, max_sites=10)
        frontier = run_latency_cost_frontier(**kwargs)
        assert len(frontier.points) == 2
        tight, loose = frontier.points
        # A tighter delay target can never be cheaper to hold.
        assert tight.mean_cost_usd >= loose.mean_cost_usd
        assert "E15" == frontier.report.experiment_id
        # The mix feeds both the shared population and every point's runner;
        # stating the default one explicitly changes nothing.
        explicit = run_latency_cost_frontier(mix=elastic_mix(), **kwargs)
        assert explicit.points == frontier.points

    def test_bad_target_rejected(self):
        with pytest.raises(WorkloadError):
            LatencyCampaignRunner(target_p95_seconds=0.0)
