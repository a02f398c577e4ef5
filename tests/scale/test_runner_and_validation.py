"""Scenario solving, the campaign runner, and fluid-vs-packet cross-validation."""

import re

import numpy as np
import pytest

from repro.analysis.report import ExperimentReport
from repro.exceptions import TopologyError, WorkloadError
from repro.scale import (
    AdversaryCampaignRunner,
    ClientPopulation,
    CryptoCostModel,
    FleetScaleRunner,
    NeutralizerFleet,
    ScaleScenario,
    TimelineCampaignRunner,
    compare_variance_reduction,
    cross_validate,
    cross_validate_latency,
    run_churn_slo_frontier,
)
from repro.units import mbps


def small_scenario(clients=5_000, sites=4, **kwargs):
    population = ClientPopulation(clients, seed=21)
    fleet = NeutralizerFleet.build(sites, **kwargs)
    return ScaleScenario(population, fleet)


class TestScenario:
    def test_uncongested_demand_is_met(self):
        result = small_scenario().solve()
        assert result.delivered_fraction == pytest.approx(1.0)
        assert result.total_goodput_bps == pytest.approx(result.total_demand_bps)
        assert (result.cpu_utilization <= 1.0 + 1e-9).all()

    def test_tiny_fleet_congests_and_stays_feasible(self):
        # One weak site for thousands of video-heavy clients: the solver must
        # shed demand, never exceed capacity.
        result = small_scenario(clients=20_000, sites=1, cores=0.25,
                                uplink_bps=mbps(200)).solve()
        assert result.delivered_fraction < 1.0
        assert (result.cpu_utilization <= 1.0 + 1e-9).all()
        assert (result.uplink_utilization <= 1.0 + 1e-9).all()
        assert max(result.cpu_utilization.max(),
                   result.uplink_utilization.max()) == pytest.approx(1.0, abs=1e-6)

    def test_site_failure_redistributes_and_costs_capacity(self):
        population = ClientPopulation(30_000, seed=5)
        fleet = NeutralizerFleet.build(4, cores=0.5, uplink_bps=mbps(500))
        healthy = ScaleScenario(population, fleet).solve()
        fleet.fail_site("site01")
        degraded = ScaleScenario(population, fleet).solve()
        assert degraded.clients_per_site[1] == 0
        assert degraded.clients_per_site.sum() == population.n_clients
        assert degraded.total_goodput_bps < healthy.total_goodput_bps
        assert healthy.clients_per_site[1] > 0

    def test_congestion_is_fair_per_client_not_per_group(self):
        # Regression: groups are different sizes (regions are deliberately
        # uneven), and max-min must equalize what each *client* gets, not
        # what each group aggregate gets — a 10x larger group behind the same
        # bottleneck must not end up with 10x less per client.
        from repro.scale import PopulationMix, voip_class
        from repro.scale.solver import max_min_allocation

        population = ClientPopulation(
            30_000, mix=PopulationMix(classes=(voip_class(),), fractions=(1.0,)),
            regions=6, seed=8,
        )
        fleet = NeutralizerFleet.build(1, uplink_bps=mbps(20))
        scenario = ScaleScenario(population, fleet)
        problem = scenario.build_problem()
        allocation = max_min_allocation(problem)
        satisfaction = allocation.satisfaction(problem)
        assert satisfaction[0] < 0.99  # genuinely congested
        assert np.allclose(satisfaction, satisfaction[0], rtol=1e-6)
        sizes = np.bincount(population.region_index)
        assert sizes.max() > 2 * sizes.min()  # groups really are uneven

    def test_solve_is_deterministic(self):
        first = small_scenario().solve()
        second = small_scenario().solve()
        assert first.goodput_bps == second.goodput_bps
        assert np.array_equal(first.clients_per_site, second.clients_per_site)


class TestRunner:
    def test_sweep_records_and_state(self):
        runner = FleetScaleRunner(client_counts=(500, 2_000), n_sites=2, seed=3)
        assert not runner.get_current_state().done
        result = runner.run()
        assert runner.get_current_state().done
        assert [record.clients for record in result.records] == [500, 2_000]
        assert result.largest_point.clients == 2_000
        assert result.run_id.startswith("fleet-scale-")
        assert "E12" == result.report.experiment_id
        assert "E12" in result.report.render()

    def test_goodput_grows_with_population_until_saturation(self):
        runner = FleetScaleRunner(client_counts=(1_000, 8_000, 64_000),
                                  n_sites=2, cores_per_site=0.5,
                                  uplink_bps=mbps(300), seed=3)
        result = runner.run()
        goodputs = [sum(record.goodput_bps.values()) for record in result.records]
        assert goodputs[0] < goodputs[1]
        # The largest point must be capacity-bound, not demand-bound.
        assert result.records[-1].delivered_fraction < 1.0

    def test_sweep_is_deterministic_from_seed(self):
        make = lambda: FleetScaleRunner(client_counts=(500, 4_000), n_sites=3, seed=17).run()
        first, second = make(), make()
        for a, b in zip(first.records, second.records):
            assert a.goodput_bps == b.goodput_bps
            assert a.delivered_fraction == b.delivered_fraction

    def test_failed_sites_option(self):
        runner = FleetScaleRunner(client_counts=(2_000,), n_sites=3,
                                  failed_sites=("site00",), seed=3)
        record = runner.run().records[0]
        assert record.delivered_fraction <= 1.0

    @pytest.mark.parametrize("failed_sites, message", [
        (("site07",), "unknown site 'site07'"),
        (("site00", "site01", "site02"), "last serving site"),
    ])
    def test_bad_failed_sites_are_refused_at_construction(self, failed_sites,
                                                          message):
        with pytest.raises(TopologyError, match=message):
            FleetScaleRunner(client_counts=(500,), n_sites=3,
                             failed_sites=failed_sites, seed=3)

    def test_calibrated_cost_model_plugs_in(self):
        model = CryptoCostModel.calibrated(iterations=10)
        runner = FleetScaleRunner(client_counts=(1_000,), n_sites=2,
                                  cost_model=model, seed=3)
        assert runner.run().records[0].goodput_bps

    @pytest.mark.parametrize("sweep, repeated", [
        (lambda checkpoint_dir: FleetScaleRunner(
            client_counts=(500, 500), n_sites=4, regions=4, seed=1),
         "500 twice"),
        (lambda checkpoint_dir: TimelineCampaignRunner(
            scenarios=("flash_crowd", "flash_crowd"), clients=1_000),
         "'flash_crowd' twice"),
        (lambda checkpoint_dir: AdversaryCampaignRunner(
            aggressiveness=(0.3, 0.3), sensitivities=(2.0,), clients=1_000),
         "0.3 twice"),
        (lambda checkpoint_dir: run_churn_slo_frontier(
            targets=(0.6, 0.6000001), clients=1_000, epochs=4, replicas=2,
            checkpoint_dir=checkpoint_dir),
         "0.6 and 0.6000001, which share the point name 'target-0.6'"),
    ], ids=["e12-client-counts", "e13-scenarios", "e16-grid", "frontier-points"])
    def test_repeated_sweep_value_is_refused_before_any_unit_runs(
            self, tmp_path, sweep, repeated):
        # A repeat would collapse two points into one result entry, or
        # resume one frontier point from the other's checkpoint.
        with pytest.raises(WorkloadError, match=re.escape(repeated)):
            sweep(tmp_path / "ck")
        assert not (tmp_path / "ck").exists()


class TestCrossValidation:
    def test_fluid_matches_packet_level_within_10_percent(self):
        # The subsystem's acceptance criterion: both regimes of the shared
        # dumbbell scenario agree between the event engine and the fluid model.
        result = cross_validate(duration_seconds=3.0)
        assert result.within_tolerance, result.failure_message()
        assert result.failures == []
        names = [arm.name for arm in result.arms]
        assert "unloaded" in names and "congested" in names
        congested = next(arm for arm in result.arms if arm.name == "congested")
        assert congested.packet_goodput_pps < congested.offered_pps

    def test_failures_name_the_arm_and_the_side(self):
        # The satellite fix: a tolerance breach must say which arm broke
        # and whether the fluid side was high or low, not just the error.
        from repro.scale.validate import CrossValidationResult, ValidationArm

        high = ValidationArm(name="congested", offered_pps=100.0,
                             packet_goodput_pps=50.0, fluid_goodput_pps=70.0,
                             wire_bytes_per_packet=250.0)
        low = ValidationArm(name="unloaded", offered_pps=100.0,
                            packet_goodput_pps=100.0, fluid_goodput_pps=99.0,
                            wire_bytes_per_packet=250.0)
        result = CrossValidationResult(
            arms=[high, low], report=ExperimentReport("E12v", "t"))
        assert not result.within_tolerance
        assert len(result.failures) == 1
        message = result.failure_message()
        assert "congested" in message and "fluid high" in message
        assert "40.0%" in message and "unloaded" not in message

    def test_latency_proxy_matches_packet_level_within_15_percent(self):
        # The PR 4 acceptance criterion: mean path delay agrees between the
        # event engine and the M/G/1 proxy on a light and a loaded transient.
        result = cross_validate_latency(duration_seconds=4.0)
        assert result.within_tolerance, result.failures
        names = [arm.name for arm in result.arms]
        assert names == ["light", "loaded"]
        light, loaded = result.arms
        assert light.bottleneck_utilization < loaded.bottleneck_utilization
        # The loaded arm must have a material queueing share, otherwise the
        # test only validates propagation arithmetic.
        assert loaded.measured_mean_seconds > light.measured_mean_seconds * 1.2
        assert all(arm.samples > 100 for arm in result.arms)
        assert "E15v" in result.report.render()

    def test_latency_validation_failure_names_the_arm(self):
        from repro.scale.validate import (
            LatencyValidationArm,
            LatencyValidationResult,
        )

        arm = LatencyValidationArm(name="loaded", bottleneck_utilization=0.8,
                                   samples=500, measured_mean_seconds=0.020,
                                   predicted_mean_seconds=0.030)
        result = LatencyValidationResult(
            arms=[arm], report=ExperimentReport("E15v", "t"))
        assert not result.within_tolerance
        assert "loaded" in result.failures[0]
        assert "proxy high" in result.failures[0]

    def test_zero_goodput_arm_raises_a_named_error_not_a_division(self):
        # The satellite bugfix: a zero packet-level measurement used to
        # surface as an infinite relative error; it must instead fail
        # loudly, naming the arm and the scenario.
        from repro.exceptions import WorkloadError
        from repro.scale.validate import ValidationArm

        arm = ValidationArm(name="congested", offered_pps=360.0,
                            packet_goodput_pps=0.0, fluid_goodput_pps=100.0,
                            wire_bytes_per_packet=250.0)
        with pytest.raises(WorkloadError) as excinfo:
            _ = arm.relative_error
        message = str(excinfo.value)
        assert "congested" in message and "dumbbell" in message

    def test_zero_delay_latency_arm_raises_a_named_error(self):
        from repro.exceptions import WorkloadError
        from repro.scale.validate import LatencyValidationArm

        arm = LatencyValidationArm(name="light", bottleneck_utilization=0.3,
                                   samples=0, measured_mean_seconds=0.0,
                                   predicted_mean_seconds=0.010)
        with pytest.raises(WorkloadError) as excinfo:
            _ = arm.relative_error
        message = str(excinfo.value)
        assert "light" in message and "dumbbell" in message

    def test_zero_demand_fluid_arm_raises_a_named_error(self):
        from repro.exceptions import WorkloadError
        from repro.scale.validate import _solve_fluid_arm

        with pytest.raises(WorkloadError, match="fluid arm.*dumbbell"):
            _solve_fluid_arm(clients=4, rate_pps=0.0, wire_bits=2000.0,
                             bottleneck_rate_bps=600_000.0)
