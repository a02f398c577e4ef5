"""The typed control plane: schema validation, diffs, and live transactions."""

import pytest

from repro.exceptions import WorkloadError
from repro.scale.adversary import AdoptionModel, AdversaryGame, IspStrategy
from repro.scale.autoscale import Autoscaler, StepPolicy, TargetUtilizationPolicy
from repro.scale.catalogue import build_scenario, provisioned_fleet
from repro.scale.config import (
    ConfigError,
    ConfigTransaction,
    FieldChange,
    FleetSpec,
    PopulationSpec,
    ScenarioConfig,
    SiteSpec,
    diff_configs,
)
from repro.scale.costmodel import ProvisioningCostModel
from repro.scale.parallel import canonical_result_bytes
from repro.scale.population import ClientPopulation
from repro.scale.timeline import ConstantLoad, DiurnalLoad, ReconfigEvent

CLIENTS = 300
SEED = 11


def small_config(**overrides) -> ScenarioConfig:
    base = dict(
        name="unit",
        population=PopulationSpec(regions=4),
        fleet=FleetSpec(mode="provisioned", n_sites=4, headroom=1.4),
        epochs=8,
        epoch_seconds=600.0,
        load=ConstantLoad(1.0),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def autoscaled_config(**overrides) -> ScenarioConfig:
    base = dict(
        fleet=FleetSpec(mode="elastic", max_sites=6, nominal_sites=4,
                        at_utilization=0.6),
        load=DiurnalLoad(trough=0.4, peak=1.2),
        autoscaler=Autoscaler(TargetUtilizationPolicy(target=0.6),
                              min_sites=2, warmup_epochs=1),
    )
    base.update(overrides)
    return small_config(**base)


# -- schema validation ---------------------------------------------------------------


class TestValidation:
    def test_bad_fleet_mode_has_field_path(self):
        with pytest.raises(ConfigError, match="mode") as excinfo:
            FleetSpec(mode="imaginary")
        assert excinfo.value.field_path == "mode"

    def test_bad_nested_value_decodes_with_full_path(self):
        data = small_config().to_dict()
        data["fleet"]["headroom"] = -2.0
        with pytest.raises(ConfigError, match="fleet.headroom") as excinfo:
            ScenarioConfig.from_dict(data)
        assert excinfo.value.field_path == "fleet.headroom"

    def test_wrong_type_has_leaf_path(self):
        data = small_config().to_dict()
        data["fleet"]["n_sites"] = "many"
        with pytest.raises(ConfigError, match="integer") as excinfo:
            ScenarioConfig.from_dict(data)
        assert excinfo.value.field_path == "fleet.n_sites"

    def test_configerror_is_a_workloaderror(self):
        assert issubclass(ConfigError, WorkloadError)

    def test_unknown_scenario_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            build_scenario("definitely_not_a_scenario", clients=CLIENTS)

    def test_site_tier_validated(self):
        with pytest.raises(ConfigError, match="tier") as excinfo:
            SiteSpec(name="a", cores=1.0, uplink_bps=1e9, tier="gold")
        assert excinfo.value.field_path == "tier"

    def test_weights_and_heterogeneous_are_exclusive(self):
        with pytest.raises(ConfigError, match="site_weights"):
            FleetSpec(mode="provisioned", n_sites=2, heterogeneous=True,
                      site_weights=(1.0, 2.0))

    def test_infinite_load_parameter_fails_at_decode(self):
        # JSON's Infinity decodes to a float; the curve must refuse it here,
        # not leave the solver to fail on it epochs later.
        text = build_scenario("diurnal_week", clients=CLIENTS).config.to_json()
        assert '"peak": 1.05' in text
        with pytest.raises(ConfigError, match="peak must be finite") as excinfo:
            ScenarioConfig.from_json(text.replace('"peak": 1.05',
                                                  '"peak": Infinity'))
        assert excinfo.value.field_path == "load"

    def test_active_sites_must_be_known(self):
        with pytest.raises(ConfigError, match="unknown site") as excinfo:
            FleetSpec(mode="provisioned", n_sites=2,
                      active_sites=("site00", "siteXX"))
        assert excinfo.value.field_path == "active_sites"


# -- heterogeneous sizes and cost tiers ----------------------------------------------


class TestSitesAndTiers:
    def test_site_weights_shape_the_fleet(self):
        population = ClientPopulation(CLIENTS, seed=SEED)
        fleet = provisioned_fleet(population, 3, site_weights=(2.0, 1.0, 1.0))
        cores = [site.cores for site in fleet.sites]
        assert cores[0] == pytest.approx(2 * cores[1])
        assert cores[1] == cores[2]

    def test_weights_must_match_n_sites(self):
        population = ClientPopulation(CLIENTS, seed=SEED)
        with pytest.raises(WorkloadError, match="weights"):
            provisioned_fleet(population, 3, site_weights=(1.0, 2.0))

    def test_spot_tier_is_cheaper_same_physics(self):
        mixed = small_config(fleet=FleetSpec(
            mode="provisioned", n_sites=4, headroom=1.4,
            tiers=("reserved", "reserved", "spot", "spot")))
        reserved = small_config()
        run_mixed = mixed.build(clients=CLIENTS, seed=SEED).run()
        run_reserved = reserved.build(clients=CLIENTS, seed=SEED).run()
        assert run_mixed.total_provision_cost < run_reserved.total_provision_cost
        assert [rec.goodput_bps for rec in run_mixed.records] == \
            [rec.goodput_bps for rec in run_reserved.records]

    def test_spot_multiplier_prices_the_difference(self):
        model = ProvisioningCostModel()
        split = model.epoch_cost(cores=10.0, uplink_bps=1e9, sites=1,
                                 epoch_seconds=3600.0,
                                 spot_cores=10.0, spot_uplink_bps=1e9,
                                 spot_sites=1)
        full = model.epoch_cost(cores=20.0, uplink_bps=2e9, sites=2,
                                epoch_seconds=3600.0)
        assert split == pytest.approx(
            full / 2 * (1 + model.spot_multiplier))

    def test_explicit_sites_carry_tiers(self):
        config = small_config(fleet=FleetSpec(mode="explicit", sites=(
            SiteSpec(name="metro", cores=8.0, uplink_bps=5e9),
            SiteSpec(name="edge", cores=2.0, uplink_bps=1e9, tier="spot"),
        )))
        fleet = config.fleet.build(ClientPopulation(CLIENTS, seed=SEED), None)
        assert [site.tier for site in fleet.sites] == ["reserved", "spot"]


# -- diffs ---------------------------------------------------------------------------


class TestDiff:
    def test_no_changes_no_diff(self):
        config = small_config()
        assert diff_configs(config, config) == ()

    def test_leaf_change_diffs_with_path(self):
        base = autoscaled_config()
        changed = autoscaled_config(
            autoscaler=Autoscaler(TargetUtilizationPolicy(target=0.6),
                                  min_sites=3, warmup_epochs=1))
        changes = diff_configs(base, changed)
        assert changes == (FieldChange("autoscaler.min_sites", 2, 3),)

    def test_kind_change_is_one_atomic_swap(self):
        base = autoscaled_config()
        changed = autoscaled_config(
            autoscaler=Autoscaler(StepPolicy(high=0.9, low=0.3, step=1),
                                  min_sites=2, warmup_epochs=1))
        changes = diff_configs(base, changed)
        assert [change.path for change in changes] == ["autoscaler.policy"]


# -- transactions --------------------------------------------------------------------


class TestTransaction:
    def test_timeline_without_config_is_rejected(self):
        population = ClientPopulation(CLIENTS, seed=SEED)
        fleet = provisioned_fleet(population, 4)
        from repro.scale.timeline import FluidTimeline
        timeline = FluidTimeline(population, fleet, epochs=4)
        with pytest.raises(ConfigError, match="no ScenarioConfig"):
            ConfigTransaction(timeline, at_epoch=2)

    def test_at_epoch_bounds_checked(self):
        timeline = small_config().build(clients=CLIENTS, seed=SEED)
        with pytest.raises(ConfigError, match="epoch boundary") as excinfo:
            ConfigTransaction(timeline, at_epoch=99)
        assert excinfo.value.field_path == "at_epoch"

    def test_non_whitelisted_change_rejected_with_path(self):
        timeline = small_config().build(clients=CLIENTS, seed=SEED)
        txn = ConfigTransaction(timeline, at_epoch=2)
        txn.set("epochs", 20)
        before = tuple(timeline.events)
        with pytest.raises(ConfigError, match="not reconfigurable") as excinfo:
            txn.commit()
        assert excinfo.value.field_path == "epochs"
        assert tuple(timeline.events) == before
        assert timeline.config == small_config()

    def test_invalid_staged_document_rejected_with_path(self):
        timeline = small_config().build(clients=CLIENTS, seed=SEED)
        txn = ConfigTransaction(timeline, at_epoch=2)
        txn.set("fleet.headroom", -1.0)
        with pytest.raises(ConfigError) as excinfo:
            txn.commit()
        assert excinfo.value.field_path == "fleet.headroom"
        assert tuple(timeline.events) == ()

    def test_policy_swap_commits_one_reconfig_event(self):
        timeline = autoscaled_config().build(clients=CLIENTS, seed=SEED)
        txn = ConfigTransaction(timeline, at_epoch=3)
        txn.set("autoscaler.policy",
                StepPolicy(high=0.9, low=0.3, step=1))
        changes = txn.commit()
        assert [change.path for change in changes] == ["autoscaler.policy"]
        scheduled = [event for event in timeline.events
                     if isinstance(event, ReconfigEvent)]
        assert len(scheduled) == 1
        assert scheduled[0].at_epoch == 3
        result = timeline.run()
        fired = [rec.events for rec in result.records if rec.events]
        assert any("reconfig policy=StepPolicy" in label
                   for labels in fired for label in labels)

    def test_budget_change_alters_the_run(self):
        config = autoscaled_config()
        baseline = config.build(clients=CLIENTS, seed=SEED).run()
        timeline = config.build(clients=CLIENTS, seed=SEED)
        txn = ConfigTransaction(timeline, at_epoch=2)
        txn.set("autoscaler.min_sites", 6)
        txn.commit()
        changed = timeline.run()
        assert (canonical_result_bytes(changed)
                != canonical_result_bytes(baseline))
        # from the commit epoch on, the floor binds
        assert all(rec.sites_in_service >= 6
                   for rec in changed.records[4:])

    def test_region_add_and_drain(self):
        config = autoscaled_config()
        timeline = config.build(clients=CLIENTS, seed=SEED)
        txn = ConfigTransaction(timeline, at_epoch=4)
        txn.set("fleet.active_sites",
                ["site00", "site01", "site04", "site05"])
        changes = txn.commit()
        assert [change.path for change in changes] == ["fleet.active_sites"]
        event = [event for event in timeline.events
                 if isinstance(event, ReconfigEvent)][0]
        assert event.activate_sites == ("site04", "site05")
        assert event.drain_sites == ("site02", "site03")
        result = timeline.run()
        assert result is not None

    def test_adversary_sensitivity_retune(self):
        config = small_config(adversary=AdversaryGame(
            isp=IspStrategy(aggressiveness=0.8, allow_blanket=False),
            adoption=AdoptionModel(sensitivity=4.0),
        ))
        baseline = config.build(clients=CLIENTS, seed=SEED).run()
        timeline = config.build(clients=CLIENTS, seed=SEED)
        txn = ConfigTransaction(timeline, at_epoch=2)
        txn.set("adversary.adoption.sensitivity", 20.0)
        txn.commit()
        changed = timeline.run()
        assert (changed.records[-1].adoption_fraction
                != baseline.records[-1].adoption_fraction)

    def test_adoption_change_without_adversary_rejected(self):
        timeline = autoscaled_config().build(clients=CLIENTS, seed=SEED)
        txn = ConfigTransaction(timeline, at_epoch=2)
        with pytest.raises(ConfigError, match="no such field"):
            txn.set("adversary.adoption.sensitivity", 20.0)

    def test_rollback_restores_schedule_and_config(self):
        config = autoscaled_config()
        timeline = config.build(clients=CLIENTS, seed=SEED)
        baseline = canonical_result_bytes(timeline.run())
        txn = ConfigTransaction(timeline, at_epoch=2)
        txn.set("autoscaler.min_sites", 5)
        txn.commit()
        txn.rollback()
        assert timeline.config == config
        assert not any(isinstance(event, ReconfigEvent)
                       for event in timeline.events)
        assert canonical_result_bytes(timeline.run()) == baseline

    def test_commit_rollback_commit_converges(self):
        config = autoscaled_config()
        timeline = config.build(clients=CLIENTS, seed=SEED)
        txn = ConfigTransaction(timeline, at_epoch=2)
        txn.set("autoscaler.min_sites", 5)
        txn.commit()
        once = canonical_result_bytes(timeline.run())
        txn.rollback()
        txn.set("autoscaler.min_sites", 5)
        txn.commit()
        assert canonical_result_bytes(timeline.run()) == once

    def test_noop_commit_schedules_nothing(self):
        config = autoscaled_config()
        timeline = config.build(clients=CLIENTS, seed=SEED)
        baseline = canonical_result_bytes(timeline.run())
        txn = ConfigTransaction(timeline, at_epoch=2)
        assert txn.commit() == ()
        assert tuple(timeline.events) == ()
        assert canonical_result_bytes(timeline.run()) == baseline

    def test_cosmetic_change_commits_without_event(self):
        timeline = small_config().build(clients=CLIENTS, seed=SEED)
        txn = ConfigTransaction(timeline, at_epoch=2)
        txn.set("title", "renamed mid-flight")
        changes = txn.commit()
        assert [change.path for change in changes] == ["title"]
        assert tuple(timeline.events) == ()
        assert timeline.config.title == "renamed mid-flight"

    def test_double_commit_rejected(self):
        timeline = autoscaled_config().build(clients=CLIENTS, seed=SEED)
        txn = ConfigTransaction(timeline, at_epoch=2)
        txn.set("autoscaler.min_sites", 3)
        txn.commit()
        with pytest.raises(ConfigError, match="already committed"):
            txn.commit()

    def test_draining_everything_is_rejected_at_run_time(self):
        config = small_config(fleet=FleetSpec(mode="provisioned", n_sites=2,
                                              headroom=1.4))
        timeline = config.build(clients=CLIENTS, seed=SEED)
        txn = ConfigTransaction(timeline, at_epoch=2)
        with pytest.raises(ConfigError, match="at least one site"):
            txn.set("fleet.active_sites", [])
            txn.commit()
