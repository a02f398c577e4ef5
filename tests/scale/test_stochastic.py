"""Stochastic event processes and the E14 Monte-Carlo campaign runner."""

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.scale import (
    AttackOnset,
    CorrelatedRegionalOutage,
    PoissonSiteFailures,
    SiteFailure,
    SiteRecovery,
    StochasticCampaignRunner,
    compile_events,
    default_processes,
    run_churn_slo_frontier,
)
from repro.scale.stochastic import (
    SampledEvents,
    _geometric_epochs,
    antithetic_uniforms,
)
from repro.scale.timeline import CapacityDegradation

SITES = [f"site{i:02d}" for i in range(10)]


def compiled(processes=None, *, seed=42, epochs=80, site_names=None):
    return compile_events(
        processes if processes is not None else default_processes(
            failure_rate=0.02, outage_rate=0.03, attack_rate=0.04),
        seed=seed, epochs=epochs,
        site_names=site_names or SITES,
    )


class TestEventProcesses:
    def test_compiled_events_are_deterministic_from_seed(self):
        first, second = compiled(seed=9), compiled(seed=9)
        assert first == second
        assert first != compiled(seed=10)

    def test_events_stay_within_horizon_and_sites(self):
        events = compiled(epochs=50)
        assert events, "rates this high must produce events"
        for event in events:
            assert 0 <= event.at_epoch < 50
            assert event.site in SITES

    def test_failures_and_recoveries_are_well_formed(self):
        """Per site: alternating fail/recover, strictly ordered, no overlap."""
        events = compiled(epochs=120)
        state = {name: True for name in SITES}  # True = up
        for event in sorted(events, key=lambda e: e.at_epoch):
            if isinstance(event, SiteFailure):
                assert state[event.site], f"{event.site} failed while down"
                state[event.site] = False
            elif isinstance(event, SiteRecovery):
                assert not state[event.site], f"{event.site} recovered while up"
                state[event.site] = True

    def test_overlapping_windows_merge_across_processes(self):
        # Two identical heavy processes: windows must still merge cleanly.
        heavy = PoissonSiteFailures(failures_per_site_epoch=0.2,
                                    mean_downtime_epochs=5.0)
        events = compiled((heavy, heavy), epochs=60)
        per_site = {}
        for event in events:
            per_site.setdefault(event.site, []).append(event)
        for site_events in per_site.values():
            kinds = [type(e) for e in sorted(site_events, key=lambda e: e.at_epoch)]
            for first, second in zip(kinds, kinds[1:]):
                assert first != second, "fail/recover must alternate"

    def test_regional_outage_is_correlated(self):
        outage_only = (CorrelatedRegionalOutage(
            outages_per_epoch=0.1, group_fraction=0.3, mean_downtime_epochs=3.0),)
        events = compiled(outage_only, epochs=60)
        failures = [e for e in events if isinstance(e, SiteFailure)]
        assert failures
        by_epoch = {}
        for event in failures:
            by_epoch.setdefault(event.at_epoch, []).append(event.site)
        # At least one epoch lost a whole 3-site block at once.
        assert any(len(sites) >= 3 for sites in by_epoch.values())

    def test_attack_compiles_to_degradation_windows(self):
        attack_only = (AttackOnset(attacks_per_epoch=0.1, severity=0.4,
                                   mean_duration_epochs=3.0,
                                   sites_hit_fraction=0.5),)
        events = compiled(attack_only, epochs=60)
        assert events
        for event in events:
            assert isinstance(event, CapacityDegradation)
            assert event.factor == 0.4
            assert event.until_epoch > event.at_epoch

    def test_compiled_events_run_through_a_timeline(self):
        from repro.scale import ClientPopulation, FluidTimeline, provisioned_fleet

        population = ClientPopulation(5_000, seed=3)
        fleet = provisioned_fleet(population, 10, headroom=1.4)
        events = compile_events(
            default_processes(failure_rate=0.01, outage_rate=0.02,
                              attack_rate=0.03),
            seed=11, epochs=40,
            site_names=[site.name for site in fleet.sites],
        )
        result = FluidTimeline(population, fleet, epochs=40,
                               events=events).run()
        assert (result.goodput_bps <= result.demand_bps * (1 + 1e-9)).all()
        assert (result.clients_per_site.sum(axis=1) == 5_000).all()

    def test_invalid_processes_rejected(self):
        with pytest.raises(WorkloadError):
            PoissonSiteFailures(failures_per_site_epoch=1.5)
        with pytest.raises(WorkloadError):
            PoissonSiteFailures(mean_downtime_epochs=0.5)
        with pytest.raises(WorkloadError):
            CorrelatedRegionalOutage(group_fraction=0.0)
        with pytest.raises(WorkloadError):
            AttackOnset(severity=1.5)
        with pytest.raises(WorkloadError):
            compile_events((), seed=1, epochs=0, site_names=SITES)
        with pytest.raises(WorkloadError):
            compile_events((), seed=1, epochs=5, site_names=[])


def poisson_sample_loop(process, rng, *, epochs, site_names):
    """:meth:`PoissonSiteFailures.sample` as the double loop over every
    (site, epoch) cell it replaced."""
    windows = []
    n_sites = len(site_names)
    draws = rng.random((n_sites, epochs))
    for site in range(n_sites):
        up_at = 1
        for epoch in range(1, epochs):
            if epoch < up_at or draws[site, epoch] >= process.failures_per_site_epoch:
                continue
            up_at = epoch + _geometric_epochs(rng, process.mean_downtime_epochs)
            windows.append((site, epoch, up_at))
    return SampledEvents(downtime=tuple(windows))


def outage_sample_loop(process, rng, *, epochs, site_names):
    """:meth:`CorrelatedRegionalOutage.sample` as the loop over every epoch
    it replaced."""
    windows = []
    n_sites = len(site_names)
    group = max(1, int(round(n_sites * process.group_fraction)))
    draws = rng.random(epochs)
    for epoch in range(1, epochs):
        if draws[epoch] >= process.outages_per_epoch:
            continue
        start = int(rng.integers(n_sites))
        until = epoch + _geometric_epochs(rng, process.mean_downtime_epochs)
        for offset in range(group):
            windows.append(((start + offset) % n_sites, epoch, until))
    return SampledEvents(downtime=tuple(windows))


def attack_sample_loop(process, rng, *, epochs, site_names):
    """:meth:`AttackOnset.sample` as the loop over every epoch it replaced."""
    events = []
    n_sites = len(site_names)
    hit = max(1, int(round(n_sites * process.sites_hit_fraction)))
    draws = rng.random(epochs)
    for epoch in range(1, epochs):
        if draws[epoch] >= process.attacks_per_epoch:
            continue
        until = epoch + _geometric_epochs(rng, process.mean_duration_epochs)
        targets = rng.choice(n_sites, size=hit, replace=False)
        for site in sorted(int(s) for s in targets):
            events.append(CapacityDegradation(
                epoch, site=site_names[site], factor=process.severity,
                until_epoch=until,
            ))
    return SampledEvents(events=tuple(events))


class TestSamplingLoops:
    """Each process's ``sample`` visits only the draws that fire, against
    the per-cell loop it replaced: the same contribution, the same draws
    consumed (the generator's next draw agrees), for plain and antithetic
    generators."""

    HAZARDS = (0.0, 0.001, 0.05, 1.0)
    TRANSFORMS = (lambda rng: rng, antithetic_uniforms)

    def assert_same_sample(self, process, reference, seed, transform, *,
                           epochs, n_sites):
        ours_rng = transform(np.random.default_rng(seed))
        their_rng = transform(np.random.default_rng(seed))
        sites = [f"site{i:02d}" for i in range(n_sites)]
        ours = process.sample(ours_rng, epochs=epochs, site_names=sites)
        theirs = reference(process, their_rng, epochs=epochs, site_names=sites)
        assert ours == theirs
        for window in ours.downtime:
            assert all(type(value) is int for value in window)
        assert ours_rng.random() == their_rng.random()
        return ours

    def test_poisson_failures_equal_the_double_loop(self):
        fired = 0
        for seed in range(40):
            for hazard in self.HAZARDS:
                for mean in (1.0, 3.0):
                    for transform in self.TRANSFORMS:
                        process = PoissonSiteFailures(
                            failures_per_site_epoch=hazard,
                            mean_downtime_epochs=mean)
                        sample = self.assert_same_sample(
                            process, poisson_sample_loop, seed, transform,
                            epochs=1 + seed % 7 * 30, n_sites=1 + seed % 13)
                        fired += len(sample.downtime)
        assert fired > 1_000

    def test_outages_and_attacks_equal_the_epoch_loop(self):
        for seed in range(30):
            for hazard in self.HAZARDS:
                for transform in self.TRANSFORMS:
                    shape = dict(epochs=1 + seed % 5 * 40, n_sites=2 + seed % 9)
                    self.assert_same_sample(
                        CorrelatedRegionalOutage(outages_per_epoch=hazard,
                                                 mean_downtime_epochs=3.0),
                        outage_sample_loop, seed, transform, **shape)
                    self.assert_same_sample(
                        AttackOnset(attacks_per_epoch=hazard,
                                    mean_duration_epochs=1.0 + seed % 3),
                        attack_sample_loop, seed, transform, **shape)


def smoke_campaign(**overrides):
    config = dict(clients=6_000, epochs=40, replicas=5, seed=17,
                  max_sites=12, nominal_sites=8, slo=0.95)
    config.update(overrides)
    return StochasticCampaignRunner(**config)


class TestStochasticCampaign:
    def test_identical_seeds_reproduce_identical_distributions(self):
        first = smoke_campaign().run()
        second = smoke_campaign().run()
        assert first.distributions == second.distributions
        for a, b in zip(first.records, second.records):
            # Everything but wall clock must match bit for bit.
            assert a.event_seed == b.event_seed
            assert a.mean_delivered == b.mean_delivered
            assert a.clients_remapped == b.clients_remapped
            assert a.provision_cost == b.provision_cost

    def test_different_seeds_differ(self):
        first = smoke_campaign().run()
        other = smoke_campaign(seed=18).run()
        assert first.distributions != other.distributions

    def test_distribution_percentiles_are_ordered(self):
        result = smoke_campaign().run()
        for dist in result.distributions.values():
            if dist.tail == "low":
                assert dist.p50 >= dist.p95 >= dist.p99 >= dist.worst
            else:
                assert dist.p50 <= dist.p95 <= dist.p99 <= dist.worst

    def test_campaign_emits_availability_and_churn_vs_slo(self):
        result = smoke_campaign().run()
        assert result.availability.samples == 5 * 40
        assert 0 <= result.availability.p99 <= 1
        points = result.churn_slo_points()
        assert len(points) == 5
        rendered = result.report.render()
        assert "E14" in rendered
        assert "churn vs SLO" in rendered
        assert result.worst_replica.worst_delivered <= result.availability.p50

    def test_progress_state(self):
        runner = smoke_campaign()
        assert not runner.get_current_state().done
        runner.run()
        state = runner.get_current_state()
        assert state.done and state.total_points == 5

    def test_shared_population_must_match(self):
        from repro.scale import (ClientPopulation, LatencyCampaignRunner,
                                 elastic_mix)

        with pytest.raises(WorkloadError, match="n_clients"):
            StochasticCampaignRunner(
                clients=100, population=ClientPopulation(200, seed=1))
        # A default-mix population under E15's "elastic mix" report would
        # be a plausible-looking wrong table: the runner's own mix (explicit
        # or runner-default) and region count must be the population's.
        with pytest.raises(WorkloadError, match="mix"):
            LatencyCampaignRunner(clients=100, population=ClientPopulation(100))
        with pytest.raises(WorkloadError, match="mix"):
            StochasticCampaignRunner(
                clients=100, mix=elastic_mix(), population=ClientPopulation(100))
        with pytest.raises(WorkloadError, match="regions"):
            StochasticCampaignRunner(
                clients=100, population=ClientPopulation(100, regions=4))
        # A runner that states no mix takes the population's, and seeds are
        # not compared (clients on one seed, events on another is legitimate).
        elastic = ClientPopulation(100, mix=elastic_mix(), seed=9)
        runner = StochasticCampaignRunner(clients=100, seed=1, population=elastic)
        assert runner.shared_population() is elastic

    def test_invalid_campaign_rejected(self):
        with pytest.raises(WorkloadError):
            StochasticCampaignRunner(replicas=0)
        with pytest.raises(WorkloadError):
            StochasticCampaignRunner(slo=0.0)


class TestFrontier:
    def test_frontier_sweeps_targets_deterministically(self):
        kwargs = dict(targets=(0.5, 0.8), clients=4_000, epochs=24,
                      replicas=3, seed=13, max_sites=10, nominal_sites=6)
        first = run_churn_slo_frontier(**kwargs)
        second = run_churn_slo_frontier(**kwargs)
        assert first.points == second.points
        assert [point.target_utilization for point in first.points] == [0.5, 0.8]
        assert "frontier" in first.report.render()

    def test_hotter_fleets_cost_less(self):
        result = run_churn_slo_frontier(
            targets=(0.4, 0.9), clients=4_000, epochs=24, replicas=3,
            seed=13, max_sites=10, nominal_sites=6,
        )
        cold, hot = result.points
        assert hot.mean_cost_usd < cold.mean_cost_usd

    def test_empty_targets_rejected(self):
        with pytest.raises(WorkloadError):
            run_churn_slo_frontier(targets=())


class TestVarianceReduction:
    def test_uniform_transforms_preserve_marginals(self):
        from repro.scale import antithetic_uniforms, rotated_uniforms

        rng = np.random.default_rng(11)
        mirrored = antithetic_uniforms(np.random.default_rng(11))
        draws = rng.random(5000)
        flipped = mirrored.random(5000)
        assert np.allclose(draws, 1.0 - flipped)
        rotated = rotated_uniforms(np.random.default_rng(11), 0.3)
        spun = rotated.random(5000)
        assert ((spun >= 0.0) & (spun < 1.0)).all()
        assert abs(spun.mean() - 0.5) < 0.02  # still uniform
        # Non-uniform draws delegate untouched (durations stay geometric).
        assert mirrored.geometric(0.5) >= 1
        with pytest.raises(WorkloadError):
            rotated_uniforms(np.random.default_rng(1), 1.5)

    def test_schemes_are_deterministic_and_distinct(self):
        def campaign(scheme, seed=17):
            return StochasticCampaignRunner(
                clients=3_000, epochs=30, replicas=6, seed=seed,
                max_sites=8, nominal_sites=6, variance_reduction=scheme,
            ).run()

        for scheme in ("iid", "stratified", "antithetic"):
            first, second = campaign(scheme), campaign(scheme)
            assert first.distributions == second.distributions, scheme
        # The schemes allocate randomness differently, so the realized
        # event sequences (and hence distributions) differ between them.
        assert (campaign("iid").distributions
                != campaign("antithetic").distributions)

    def test_iid_default_matches_previous_allocation(self):
        # The default must stay bit-compatible: explicitly passing "iid"
        # is a no-op relative to not passing anything.
        default = StochasticCampaignRunner(
            clients=3_000, epochs=24, replicas=4, seed=19,
            max_sites=8, nominal_sites=6,
        ).run()
        explicit = StochasticCampaignRunner(
            clients=3_000, epochs=24, replicas=4, seed=19,
            max_sites=8, nominal_sites=6, variance_reduction="iid",
        ).run()
        assert default.distributions == explicit.distributions

    def test_unknown_scheme_rejected(self):
        with pytest.raises(WorkloadError, match="variance-reduction"):
            StochasticCampaignRunner(variance_reduction="qmc")

    def test_antithetic_pairs_are_negatively_correlated(self):
        # The mechanism itself, deterministically: within a pair, epochs
        # that fail in one member tend not to fail in the mirror, so the
        # spread of pair-mean event counts is below the iid replica spread.
        def event_counts(scheme):
            campaign = StochasticCampaignRunner(
                clients=3_000, epochs=40, replicas=8, seed=23,
                max_sites=8, nominal_sites=6, variance_reduction=scheme,
            ).run()
            return np.array([record.events_fired
                             for record in campaign.records], dtype=float)

        anti = event_counts("antithetic")
        iid = event_counts("iid")
        pair_means = anti.reshape(-1, 2).mean(axis=1)
        iid_pair_means = iid.reshape(-1, 2).mean(axis=1)
        assert pair_means.std() < iid_pair_means.std()

    def test_compare_variance_reduction_runs_and_reports(self):
        from repro.scale import compare_variance_reduction

        result = compare_variance_reduction(
            clients=2_000, epochs=20, replicas=4, batches=3, seed=29,
            max_sites=8, nominal_sites=6,
        )
        assert set(result.mean_estimator_std) == {"iid", "stratified",
                                                  "antithetic"}
        assert all(std >= 0 for std in result.mean_estimator_std.values())
        assert result.reduction_vs_iid("iid") == pytest.approx(1.0)
        assert "estimator spread" in result.report.render()
        with pytest.raises(WorkloadError):
            compare_variance_reduction(batches=1)
