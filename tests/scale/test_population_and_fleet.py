"""Population vectors, demand classes, and consistent-hash fleet assignment."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.anycast import ConsistentHashRing
from repro.exceptions import TopologyError, WorkloadError
from repro.scale import (
    ClientPopulation,
    CryptoCostModel,
    DemandClass,
    FleetSite,
    NeutralizerFleet,
    PopulationMix,
    default_mix,
    voip_class,
)
from repro.scale.population import neutralized_wire_bytes


class TestDemandClasses:
    def test_voip_class_matches_apps_codec(self):
        voip = voip_class()
        # 20 ms frames → 50 packets/s, 160-byte payload plus wire overhead.
        assert voip.packets_per_second == pytest.approx(50.0)
        assert voip.packet_bytes == neutralized_wire_bytes(160)

    def test_wire_overhead_exceeds_plain_udp(self):
        # The shim adds the epoch/nonce/address/tag fields on top of IP+UDP.
        assert neutralized_wire_bytes(100) > 20 + 8 + 100

    def test_invalid_class_rejected(self):
        with pytest.raises(WorkloadError):
            DemandClass(name="bad", packets_per_second=0.0, packet_bytes=100)
        with pytest.raises(WorkloadError):
            DemandClass(name="bad", packets_per_second=1.0, packet_bytes=100, duty_cycle=1.5)

    def test_mix_fractions_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            PopulationMix(classes=(voip_class(),), fractions=(0.5,))


class TestPopulation:
    def test_deterministic_from_seed(self):
        one = ClientPopulation(5_000, seed=42)
        two = ClientPopulation(5_000, seed=42)
        assert np.array_equal(one.class_index, two.class_index)
        assert np.array_equal(one.region_index, two.region_index)
        assert np.array_equal(one.ring_positions, two.ring_positions)
        other = ClientPopulation(5_000, seed=43)
        assert not np.array_equal(one.class_index, other.class_index)

    def test_mix_fractions_respected(self):
        population = ClientPopulation(50_000, seed=1)
        fractions = population.class_counts() / population.n_clients
        for measured, expected in zip(fractions, default_mix().fractions):
            assert measured == pytest.approx(expected, abs=0.02)

    def test_group_counts_cover_every_client(self):
        population = ClientPopulation(10_000, regions=4, seed=9)
        fleet = NeutralizerFleet.build(5)
        sites = fleet.assign_sites(population.ring_positions)
        counts = population.group_counts(sites, fleet.n_sites)
        assert counts.shape == (4, population.n_classes, 5)
        assert counts.sum() == population.n_clients

    def test_empty_population_rejected(self):
        with pytest.raises(WorkloadError):
            ClientPopulation(0)


class TestFleet:
    def test_assignment_matches_scalar_ring_lookup(self):
        fleet = NeutralizerFleet.build(4)
        population = ClientPopulation(300, seed=3)
        assigned = fleet.assign_sites(population.ring_positions)
        for position, site_index in zip(population.ring_positions[:50], assigned[:50]):
            expected = fleet.ring.site_for(int(position).to_bytes(8, "big"))
            # site_for hashes its key; compare via the ring table instead.
            positions, owners = fleet.ring.table()
            slot = np.searchsorted(np.asarray(positions, dtype=np.uint64), position)
            if slot == len(positions):
                slot = 0
            assert fleet.sites[site_index].name == owners[slot]
            assert expected in [site.name for site in fleet.sites]

    def test_assignment_is_roughly_balanced(self):
        fleet = NeutralizerFleet.build(8, replicas=128)
        population = ClientPopulation(80_000, seed=11)
        counts = np.bincount(fleet.assign_sites(population.ring_positions), minlength=8)
        assert counts.min() > 0.4 * counts.mean()
        assert counts.max() < 2.0 * counts.mean()

    def test_failover_moves_only_failed_sites_clients(self):
        fleet = NeutralizerFleet.build(6)
        population = ClientPopulation(20_000, seed=13)
        before = fleet.assign_sites(population.ring_positions)
        fleet.fail_site("site02")
        after = fleet.assign_sites(population.ring_positions)
        failed_index = [site.name for site in fleet.sites].index("site02")
        moved = before != after
        assert (before[moved] == failed_index).all()
        assert failed_index not in after
        # Restoring brings exactly the old assignment back.
        fleet.restore_site("site02")
        assert np.array_equal(fleet.assign_sites(population.ring_positions), before)

    def test_capacity_reflects_health(self):
        fleet = NeutralizerFleet.build(3, cores=4.0)
        assert fleet.data_capacity_pps().sum() == pytest.approx(
            3 * fleet.cost_model.data_packets_per_second(4.0)
        )
        fleet.fail_site("site01")
        assert fleet.data_capacity_pps()[1] == 0.0

    def test_all_sites_down_rejected(self):
        fleet = NeutralizerFleet.build(1)
        with pytest.raises(TopologyError):
            fleet.fail_site("site00")

    def test_duplicate_site_names_rejected(self):
        with pytest.raises(TopologyError):
            NeutralizerFleet([FleetSite("a"), FleetSite("a")])

    def test_unknown_site_name_rejected(self):
        fleet = NeutralizerFleet.build(2)
        with pytest.raises(TopologyError, match="unknown site"):
            fleet.fail_site("site99")


class TestCostModel:
    def test_capacity_scales_with_cores(self):
        model = CryptoCostModel.default()
        assert model.data_packets_per_second(8.0) == pytest.approx(
            8 * model.data_packets_per_second(1.0)
        )

    def test_data_path_is_cheaper_than_key_setup(self):
        # The paper's design point: per-packet symmetric work must cost far
        # less than the per-source RSA encryption.
        model = CryptoCostModel.default()
        assert model.data_packet_cost_seconds < model.key_setup_cost_seconds

    def test_scaled_speeds_everything_up(self):
        model = CryptoCostModel.default()
        faster = model.scaled(2.0)
        assert faster.data_packets_per_second() == pytest.approx(
            2 * model.data_packets_per_second()
        )

    def test_calibrated_measures_positive_rates(self):
        model = CryptoCostModel.calibrated(iterations=20)
        assert model.aes_blocks_per_second > 0
        assert model.rsa512_encryptions_per_second > 0
        assert model.data_packet_cost_seconds > 0


class TestSegmentAssignment:
    """The sorted-segment view must agree exactly with per-client lookup."""

    def test_segments_match_assign_sites(self):
        fleet = NeutralizerFleet.build(7, replicas=32)
        population = ClientPopulation(30_000, seed=17)
        positions, _ = population.ring_sorted()
        cuts, owners = fleet.assignment_segments(positions)
        via_segments = np.repeat(owners, np.diff(cuts))
        order = np.argsort(population.ring_positions, kind="stable")
        via_lookup = fleet.assign_sites(population.ring_positions)[order]
        assert np.array_equal(via_segments, via_lookup)

    def test_segments_cover_every_client_once(self):
        fleet = NeutralizerFleet.build(5)
        population = ClientPopulation(8_000, seed=21)
        positions, _ = population.ring_sorted()
        cuts, owners = fleet.assignment_segments(positions)
        assert cuts[0] == 0 and cuts[-1] == population.n_clients
        assert (np.diff(cuts) >= 0).all()
        assert owners.size == cuts.size - 1

    def test_ring_sorted_is_cached_and_consistent(self):
        population = ClientPopulation(1_000, seed=5)
        first = population.ring_sorted()
        second = population.ring_sorted()
        assert first[0] is second[0]  # same arrays, not recomputed
        assert (np.diff(first[0].astype(object)) >= 0).all()

    def test_ring_sorted_is_two_columns_and_fills_the_count_memos(self, monkeypatch):
        population = ClientPopulation(5_000, seed=23)
        positions, region_class = population.ring_sorted()
        order = np.argsort(population.ring_positions, kind="stable")
        assert np.array_equal(positions, population.ring_positions[order])
        assert np.array_equal(
            region_class,
            population.region_index[order].astype(np.int64) * population.n_classes
            + population.class_index[order])
        classes = np.bincount(population.class_index, minlength=population.n_classes)
        regions = np.bincount(population.region_index, minlength=population.regions)
        # The sort pass was the last per-client read the counts needed.
        monkeypatch.setattr(population, "class_index", None)
        monkeypatch.setattr(population, "region_index", None)
        assert np.array_equal(population.class_counts(), classes)
        assert np.array_equal(population.region_counts(), regions)
        assert population.class_counts() is population.class_counts()


class TestIncrementalTemplate:
    """rebuilt() must be indistinguishable from building from scratch."""

    @staticmethod
    def assert_equivalent(incremental, fresh):
        assert np.array_equal(incremental.counts3d, fresh.counts3d)
        assert np.array_equal(incremental.clients_per_site, fresh.clients_per_site)
        assert np.array_equal(incremental.group_clients, fresh.group_clients)
        assert np.array_equal(incremental.region_of, fresh.region_of)
        assert np.array_equal(incremental.class_of, fresh.class_of)
        assert np.array_equal(incremental.site_of, fresh.site_of)
        assert np.array_equal(incremental.usage, fresh.usage)
        assert np.array_equal(incremental.cuts, fresh.cuts)
        assert np.array_equal(incremental.seg_owners, fresh.seg_owners)
        for ours, reference in zip(incremental.class_members, fresh.class_members):
            assert np.array_equal(ours, reference)

    def test_rebuild_after_failure_and_recovery(self):
        from repro.scale.scenario import ProblemTemplate, ScaleScenario

        population = ClientPopulation(25_000, seed=23)
        fleet = NeutralizerFleet.build(8)
        scenario = ScaleScenario(population, fleet)
        original = scenario.build_template()

        fleet.fail_site("site05")
        incremental = scenario.build_template()
        fresh = ProblemTemplate.build(
            population, fleet, region_uplink_bps=scenario.region_uplink_bps
        )
        self.assert_equivalent(incremental, fresh)
        # Exactly the failed site's clients moved.
        assert incremental.remapped_from_parent == original.clients_per_site[5]
        assert incremental.clients_per_site[5] == 0

        fleet.restore_site("site05")
        restored = scenario.build_template()
        self.assert_equivalent(restored, original)
        assert restored.remapped_from_parent == incremental.remapped_from_parent

    def test_payload_nbytes_counts_the_template_arrays(self):
        from repro.scale.scenario import ScaleScenario

        population = ClientPopulation(10_000, seed=23)
        template = ScaleScenario(population, NeutralizerFleet.build(6)).build_template()
        expected = sum(
            a.nbytes
            for a in (
                template.arc_cuts, template.arc_hist, template.arc_owners,
                template.cuts, template.seg_owners, template.counts3d,
                template.clients_per_site, template.region_of,
                template.class_of, template.site_of, template.group_clients,
                template.base_demands, template.bits_per_packet,
                template.base_setups_per_flow, template.usage,
                *template.class_members,
            )
        )
        if template.elastic_flows is not None:
            expected += template.elastic_flows.nbytes
        if template.flow_alpha is not None:
            expected += template.flow_alpha.nbytes
        assert template.payload_nbytes == expected > 0
        # The footprint is per-flow/per-site/per-ring-point state, not
        # O(n_clients): the parallel engine keeps the population in shared
        # memory precisely because the per-worker template cache stays small
        # beside it.  The arc table is (points + 1) × (regions·classes)
        # int64 whatever the population, so 4× the clients adds no byte.
        points = 6 * 64
        assert template.arc_hist.nbytes == (points + 1) * 8 * 3 * 8 < 1 << 20
        assert template.arc_cuts.nbytes == (points + 2) * 8
        larger = ScaleScenario(
            ClientPopulation(40_000, seed=23), NeutralizerFleet.build(6)
        ).build_template()
        assert larger.payload_nbytes == template.payload_nbytes

    def test_rebuild_through_many_membership_changes(self):
        from repro.scale.scenario import ProblemTemplate, ScaleScenario

        population = ClientPopulation(12_000, seed=29)
        fleet = NeutralizerFleet.build(10)
        scenario = ScaleScenario(population, fleet)
        scenario.build_template()
        for action, name in [
            ("fail", "site02"), ("fail", "site07"), ("drain", "site04"),
            ("restore", "site02"), ("activate", "site04"), ("drain", "site09"),
            ("restore", "site07"),
        ]:
            getattr(fleet, {"fail": "fail_site", "restore": "restore_site",
                            "drain": "drain_site", "activate": "activate_site"}[action])(name)
            incremental = scenario.build_template()
            fresh = ProblemTemplate.build(
                population, fleet, region_uplink_bps=scenario.region_uplink_bps
            )
            self.assert_equivalent(incremental, fresh)
        assert population.n_clients == incremental.counts3d.sum()

    def test_rebuilt_reads_nothing_per_client(self, monkeypatch):
        """Pins the rebuild's complexity without a clock: once the first
        template exists, the population's per-client arrays are off limits."""
        from repro.scale.scenario import ProblemTemplate, ScaleScenario

        population, twin = (ClientPopulation(6_000, seed=31) for _ in range(2))
        fleet, twin_fleet = (NeutralizerFleet.build(7, replicas=16) for _ in range(2))
        scenario = ScaleScenario(population, fleet)
        scenario.build_template()

        def off_limits():
            raise AssertionError("rebuilt() went back to the sorted population")

        monkeypatch.setattr(population, "ring_sorted", off_limits)
        for name in ("ring_positions", "class_index", "region_index", "_ring_sorted"):
            monkeypatch.setattr(population, name, None)
        for action, site in [("fail_site", "site02"), ("drain_site", "site05"),
                             ("restore_site", "site02")]:
            getattr(fleet, action)(site)
            getattr(twin_fleet, action)(site)
            incremental = scenario.build_template()
            assert incremental.remapped_from_parent > 0
            fresh = ProblemTemplate.build(
                twin, twin_fleet, region_uplink_bps=scenario.region_uplink_bps
            )
            self.assert_equivalent(incremental, fresh)


RING_FUZZ = dict(
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)

ring_actions = st.lists(
    st.tuples(
        st.sampled_from(["fail_site", "restore_site", "drain_site", "activate_site"]),
        st.integers(0, 11),
    ),
    min_size=1, max_size=10,
)


def reference_ring(fleet):
    """The ring as it was built before the universe mask: concatenate the
    serving sites' (sorted) points in site order, stable argsort."""
    hasher = ConsistentHashRing([], replicas=fleet.replicas)
    positions, owners = [], []
    for index, site in enumerate(fleet.sites):
        if site.in_service:
            positions.append(np.sort(np.array(
                [hasher._position(f"{site.name}#{replica}".encode())
                 for replica in range(fleet.replicas)], dtype=np.uint64)))
            owners.append(np.full(fleet.replicas, index, dtype=np.int64))
    positions, owners = np.concatenate(positions), np.concatenate(owners)
    order = np.argsort(positions, kind="stable")
    return positions[order], owners[order]


def reference_moved_fraction(before, after):
    """:func:`repro.core.anycast.arc_moved_fraction` as the per-arc loop it
    replaced — exact Python ints, so the comparison below is ``==``."""
    space = 1 << 64
    boundaries = np.sort(np.concatenate([before[0], after[0]]), kind="stable")
    moved = 0
    for index in range(boundaries.size):
        upper = boundaries[(index + 1) % boundaries.size]
        owners = []
        for positions, ring_owners in (before, after):
            slot = int(np.searchsorted(positions, upper, side="left"))
            owners.append(ring_owners[slot % positions.size])
        if owners[0] != owners[1]:
            moved += int(upper) - int(boundaries[index])
            moved += space if index == boundaries.size - 1 else 0
    return moved / space


def check_ring_walk(population, fleet, actions):
    """Drive ``actions`` through ``fleet``; after each, the masked ring, the
    incremental template and the churn figures must equal their from-scratch
    references."""
    from repro.scale.scenario import ProblemTemplate, ScaleScenario

    scenario = ScaleScenario(population, fleet)
    template = scenario.build_template()
    sorted_positions = population.ring_sorted()[0]
    for action, site in actions:
        ring_before = fleet.ring_state()
        assigned_before = fleet.assign_sites(population.ring_positions)
        try:
            getattr(fleet, action)(fleet.sites[site % fleet.n_sites].name)
        except TopologyError:  # the last serving site refuses to leave
            assert fleet.ring_state()[0] is ring_before[0]
            continue
        # (a) the masked universe is the old concatenate-and-argsort ring.
        for ours, reference in zip(fleet.ring_state(), reference_ring(fleet)):
            assert ours.dtype == reference.dtype and np.array_equal(ours, reference)
        assert NeutralizerFleet.ring_moved_fraction(ring_before, fleet.ring_state()) \
            == reference_moved_fraction(ring_before, fleet.ring_state())
        # (b) rebuilt() is indistinguishable from a from-scratch build.
        parent, template = template, scenario.build_template()
        fresh = ProblemTemplate.build(
            population, fleet, region_uplink_bps=scenario.region_uplink_bps
        )
        TestIncrementalTemplate.assert_equivalent(template, fresh)
        for ours, reference in zip((template.cuts, template.seg_owners),
                                   fleet.assignment_segments(sorted_positions)):
            assert ours.dtype == reference.dtype and np.array_equal(ours, reference)
        assigned = fleet.assign_sites(population.ring_positions)
        assert np.array_equal(
            template.counts3d, population.group_counts(assigned, fleet.n_sites)
        )
        # (c) the churn figure counts exactly the clients whose site changed.
        if template is not parent:
            assert template.remapped_from_parent == np.count_nonzero(
                assigned != assigned_before
            )


class TestRingUniverse:
    """Every ring is a mask of one sorted point universe, every template a
    re-crediting of one arc histogram — against the constructions they
    replaced, over random fleets, populations and membership walks."""

    @settings(**RING_FUZZ)
    @given(n_sites=st.integers(1, 12), replicas=st.integers(1, 64),
           n_clients=st.integers(1, 400), regions=st.integers(1, 5),
           seed=st.integers(0, 2**16), actions=ring_actions)
    def test_masked_ring_and_arc_histogram_match_their_references(
            self, n_sites, replicas, n_clients, regions, seed, actions):
        fleet = NeutralizerFleet.build(n_sites, replicas=replicas)
        for ours, reference in zip(fleet.ring_state(), reference_ring(fleet)):
            assert np.array_equal(ours, reference)
        population = ClientPopulation(n_clients, regions=regions, seed=seed)
        check_ring_walk(population, fleet, actions)

    def test_two_sites_hashing_to_one_point(self, monkeypatch):
        """A hash collision: the tie goes to the lower site index while both
        serve, and to whichever is left when one fails — for clients sitting
        exactly on the shared point too."""
        collide = {b"site00#1": 1 << 40, b"site02#0": 1 << 40, b"site01#2": 1 << 40}
        hashed = ConsistentHashRing._position
        monkeypatch.setattr(
            ConsistentHashRing, "_position",
            lambda self, data: collide.get(data, hashed(self, data)),
        )
        fleet = NeutralizerFleet.build(3, replicas=4)
        positions, owners = fleet.ring_state()
        shared = np.flatnonzero(positions == np.uint64(1 << 40))
        assert owners[shared].tolist() == [0, 1, 2]
        # Clients on, just below and just above every ring point.
        points = np.unique(positions)
        ring_positions = np.concatenate([points, points - np.uint64(1),
                                         points + np.uint64(1)])
        rng = np.random.default_rng(5)
        population = ClientPopulation.from_arrays(
            mix=None, regions=2, seed=0, ring_positions=ring_positions,
            class_index=rng.integers(0, 3, ring_positions.size).astype(np.int32),
            region_index=rng.integers(0, 2, ring_positions.size).astype(np.int32),
        )
        on_shared = np.flatnonzero(ring_positions == np.uint64(1 << 40))
        assert fleet.assign_sites(ring_positions)[on_shared].tolist() == [0]
        check_ring_walk(population, fleet, [
            ("fail_site", 0), ("drain_site", 1), ("restore_site", 0),
            ("fail_site", 2), ("activate_site", 1), ("restore_site", 2),
        ])
        fleet.fail_site("site00")
        assert fleet.assign_sites(ring_positions)[on_shared].tolist() == [1]


class TestDrainLifecycle:
    def test_drained_site_leaves_the_ring_and_capacity(self):
        fleet = NeutralizerFleet.build(4, cores=2.0)
        generation = fleet.generation
        fleet.drain_site("site03")
        assert fleet.generation == generation + 1
        assert "site03" not in fleet.in_service_names
        assert "site03" in fleet.healthy_site_names  # drained, not failed
        assert fleet.cpu_capacity_cores()[3] == 0.0
        fleet.activate_site("site03")
        assert "site03" in fleet.in_service_names

    def test_drain_while_failed_does_not_touch_the_ring(self):
        fleet = NeutralizerFleet.build(4)
        fleet.fail_site("site01")
        generation = fleet.generation
        state = fleet.ring_state()
        fleet.drain_site("site01")  # already out of the ring: no rebuild
        assert fleet.generation == generation
        assert NeutralizerFleet.ring_moved_fraction(state, fleet.ring_state()) == 0.0
        # Recovery of a drained site must NOT rejoin the ring...
        fleet.restore_site("site01")
        assert fleet.generation == generation
        assert "site01" not in fleet.in_service_names
        # ...until it is explicitly re-activated.
        fleet.activate_site("site01")
        assert fleet.generation == generation + 1
        assert "site01" in fleet.in_service_names

    def test_last_serving_site_cannot_be_drained(self):
        fleet = NeutralizerFleet.build(2)
        fleet.drain_site("site01")
        with pytest.raises(TopologyError):
            fleet.drain_site("site00")

    def test_health_snapshot_round_trips_both_flags(self):
        fleet = NeutralizerFleet.build(4)
        snapshot = fleet.health_snapshot()
        fleet.fail_site("site00")
        fleet.drain_site("site02")
        assert fleet.health_snapshot() != snapshot
        fleet.restore_health(snapshot)
        assert fleet.health_snapshot() == snapshot
        assert fleet.in_service_names == [f"site{i:02d}" for i in range(4)]

    def test_restore_health_refuses_an_all_down_snapshot_untouched(self):
        fleet = NeutralizerFleet.build(4)
        fleet.fail_site("site01")
        fleet.drain_site("site03")
        health, generation = fleet.health_snapshot(), fleet.generation
        active_version, ring = fleet.active_version, fleet.ring_state()
        capacity = fleet.cpu_capacity_cores().copy()
        # Failed everywhere: no site would be left in service.
        with pytest.raises(TopologyError, match="no site in service"):
            fleet.restore_health(((False, True),) * 4)
        assert fleet.health_snapshot() == health
        assert (fleet.generation, fleet.active_version) == (generation, active_version)
        assert fleet.ring_state()[0] is ring[0] and fleet.ring_state()[1] is ring[1]
        assert fleet.n_in_service == 2
        assert np.array_equal(fleet.cpu_capacity_cores(), capacity)

    def test_moved_fraction_of_one_snapshot_is_exactly_zero(self, monkeypatch):
        from repro.core import anycast

        fleet = NeutralizerFleet.build(3)
        monkeypatch.setattr(anycast, "arc_moved_fraction",
                            lambda *args: pytest.fail("diffed a ring with itself"))
        moved = NeutralizerFleet.ring_moved_fraction(fleet.ring_state(), fleet.ring_state())
        assert moved == 0.0 and isinstance(moved, float)

    def test_moved_fraction_matches_snapshot_diff(self):
        fleet = NeutralizerFleet.build(6)
        before_state = fleet.ring_state()
        before_snapshot = fleet.ring_snapshot()
        fleet.fail_site("site04")
        fast = NeutralizerFleet.ring_moved_fraction(before_state, fleet.ring_state())
        slow = before_snapshot.diff(fleet.ring_snapshot()).moved_fraction
        assert fast == pytest.approx(slow, abs=1e-12)
        assert fast > 0
