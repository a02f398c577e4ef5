"""The scenario catalogue and the E13 campaign runner."""

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.scale import (
    ClientPopulation,
    TimelineCampaignRunner,
    build_scenario,
    nominal_demand,
    provisioned_fleet,
    run_scenario,
    scenario_names,
)
from repro.scale.catalogue import CATALOGUE

SMOKE_CLIENTS = 2_000


class TestProvisioning:
    def test_fleet_carries_headroom_times_nominal(self):
        population = ClientPopulation(5_000, seed=2)
        total_bps, total_pps = nominal_demand(population)
        fleet = provisioned_fleet(population, 8, headroom=1.5)
        assert sum(site.uplink_bps for site in fleet.sites) == pytest.approx(
            total_bps * 1.5
        )
        cost = fleet.cost_model.data_packet_cost_seconds
        assert sum(site.cores for site in fleet.sites) == pytest.approx(
            total_pps * cost * 1.5
        )

    def test_heterogeneous_split_is_three_to_one(self):
        population = ClientPopulation(5_000, seed=2)
        fleet = provisioned_fleet(population, 8, heterogeneous=True)
        cores = [site.cores for site in fleet.sites]
        assert cores[0] == pytest.approx(3 * cores[-1])

    def test_provisioning_scales_with_population(self):
        small = provisioned_fleet(ClientPopulation(1_000, seed=2), 4)
        large = provisioned_fleet(ClientPopulation(100_000, seed=2), 4)
        assert large.sites[0].uplink_bps > 50 * small.sites[0].uplink_bps

    def test_invalid_provisioning_rejected(self):
        population = ClientPopulation(1_000, seed=2)
        with pytest.raises(WorkloadError):
            provisioned_fleet(population, 0)
        with pytest.raises(WorkloadError):
            provisioned_fleet(population, 4, headroom=0.0)


class TestCatalogue:
    def test_catalogue_has_the_promised_scenarios(self):
        names = scenario_names()
        assert len(names) >= 6
        for expected in ("flash_crowd", "regional_outage", "diurnal_week",
                         "heterogeneous_fleet", "cascading_overload",
                         "discrimination_rollout"):
            assert expected in names
        for spec in CATALOGUE.values():
            assert spec.title and spec.description

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_scenario_runs_and_conserves(self, name):
        result = run_scenario(name, clients=SMOKE_CLIENTS, seed=7)
        assert result.epochs > 0
        assert (result.goodput_bps <= result.demand_bps * (1 + 1e-9)).all()
        assert (result.cpu_utilization <= 1 + 1e-6).all()
        assert (result.uplink_utilization <= 1 + 1e-6).all()
        assert (result.clients_per_site.sum(axis=1) == SMOKE_CLIENTS).all()

    def test_flash_crowd_actually_congests(self):
        result = run_scenario("flash_crowd", clients=SMOKE_CLIENTS, seed=7)
        assert result.min_delivered_fraction < 0.9
        assert result.records[0].delivered_fraction == pytest.approx(1.0)

    def test_regional_outage_churns_and_recovers(self):
        result = run_scenario("regional_outage", clients=SMOKE_CLIENTS, seed=7)
        assert result.total_clients_remapped > 0
        assert result.peak_remap_epoch in (8, 20)
        assert result.records[-1].delivered_fraction == pytest.approx(
            result.records[0].delivered_fraction, rel=1e-6
        )

    def test_diurnal_week_mostly_skips_the_fill(self):
        result = run_scenario("diurnal_week", clients=SMOKE_CLIENTS, seed=7)
        assert result.fast_fraction > 0.5

    def test_discrimination_rollout_harms_then_repeals(self):
        result = run_scenario("discrimination_rollout", clients=SMOKE_CLIENTS, seed=7)
        assert result.min_delivered_fraction < 0.8
        assert result.records[-1].delivered_fraction == pytest.approx(1.0)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(WorkloadError, match="unknown scenario"):
            build_scenario("black_swan")

    def test_deterministic_from_seed(self):
        first = run_scenario("cascading_overload", clients=SMOKE_CLIENTS, seed=5)
        second = run_scenario("cascading_overload", clients=SMOKE_CLIENTS, seed=5)
        assert np.array_equal(first.goodput_bps, second.goodput_bps)


class TestCampaignRunner:
    def test_campaign_over_subset(self):
        runner = TimelineCampaignRunner(
            scenarios=("flash_crowd", "regional_outage"),
            clients=SMOKE_CLIENTS, seed=7,
        )
        assert not runner.get_current_state().done
        result = runner.run()
        assert runner.get_current_state().done
        assert [record.scenario for record in result.records] == [
            "flash_crowd", "regional_outage"]
        assert set(result.timelines) == {"flash_crowd", "regional_outage"}
        assert result.report.experiment_id == "E13"
        assert "flagship timeline" in result.report.render()
        assert result.worst_scenario.scenario == "flash_crowd"

    def test_empty_campaign_rejected(self):
        with pytest.raises(WorkloadError):
            TimelineCampaignRunner(scenarios=())

    def test_typoed_names_fail_fast_at_construction(self):
        with pytest.raises(WorkloadError, match="unknown scenario"):
            TimelineCampaignRunner(scenarios=("flash_crowd", "diurnal_weak"))

    def test_flagship_is_the_first_scenario_run(self):
        # Whichever scenario runs first is charted, so a campaign without
        # flash_crowd still gets its flagship timeline table.
        result = TimelineCampaignRunner(
            scenarios=("regional_outage",), clients=500, seed=1).run()
        assert "flagship timeline: regional_outage" in result.report.render()

    def test_shared_population_matches_per_scenario_build(self):
        shared = ClientPopulation(SMOKE_CLIENTS, seed=7)
        with_shared = run_scenario("flash_crowd", clients=SMOKE_CLIENTS,
                                   seed=7, population=shared)
        without = run_scenario("flash_crowd", clients=SMOKE_CLIENTS, seed=7)
        assert np.array_equal(with_shared.goodput_bps, without.goodput_bps)

    def test_e13_result_conserves_and_reports(self):
        result = TimelineCampaignRunner(
            clients=SMOKE_CLIENTS, seed=7,
            scenarios=("discrimination_rollout",),
        ).run()
        for timeline in result.timelines.values():
            assert (timeline.goodput_bps <= timeline.demand_bps * (1 + 1e-9)).all()
        rendered = result.report.render()
        assert "E13" in rendered and "discrimination_rollout" in rendered
