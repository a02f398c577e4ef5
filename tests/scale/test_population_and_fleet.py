"""Population vectors, demand classes, and consistent-hash fleet assignment."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.anycast import ConsistentHashRing, ring_locate
from repro.exceptions import TopologyError, WorkloadError
from repro.scale import (
    ClientPopulation,
    CryptoCostModel,
    DemandClass,
    FleetSite,
    NeutralizerFleet,
    PopulationMix,
    default_mix,
    elastic_mix,
    voip_class,
)
from repro.scale.population import _CHUNK_CLIENTS, neutralized_wire_bytes


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


def reference_splitmix64(value):
    """splitmix64 of one identity, in Python ints."""
    mask = 2**64 - 1
    z = (value + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


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

    def test_large_seed_is_silent_and_a_bad_seed_is_named(self):
        """The identity offset wraps modulo 2^64 by design: no overflow
        warning on the way, and the same bits as ever."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            population = ClientPopulation(10, seed=2**63)
            ClientPopulation(10, seed=2**64 - 1)
        assert population.ring_positions[:2].tolist() == [
            5196802822362493915, 15864479691206154794]
        for seed in (-1, 2**64):
            with pytest.raises(WorkloadError, match=r"seed must be in \[0, 2\*\*64\)"):
                ClientPopulation(10, seed=seed)

    @pytest.mark.parametrize("mix", [default_mix, elastic_mix])
    @pytest.mark.parametrize("n_clients", [
        1, 1000, _CHUNK_CLIENTS - 1, _CHUNK_CLIENTS, _CHUNK_CLIENTS + 1,
        3 * _CHUNK_CLIENTS + 5])
    def test_chunked_draw_is_the_two_choice_calls_it_replaced(self, n_clients, mix):
        """Two cursors on one stream, a chunk at a time ≡ ``rng.choice`` ×2."""
        population = ClientPopulation(n_clients, mix=mix(), regions=8, seed=29)
        rng = np.random.default_rng(29)
        classes = rng.choice(3, size=n_clients, p=np.asarray(mix().fractions))
        weights = 1.0 / (np.arange(8, dtype=np.float64) + 1.0)
        regions = rng.choice(8, size=n_clients, p=weights / weights.sum())
        for ours, reference in ((population.class_index, classes),
                                (population.region_index, regions)):
            assert ours.dtype == np.int32 and np.array_equal(ours, reference)
        assert np.array_equal(population.class_counts(), np.bincount(classes, minlength=3))
        assert np.array_equal(population.region_counts(), np.bincount(regions, minlength=8))
        # The last chunk hashes identities start..n-1, not 0..: scalar check.
        assert population.ring_positions.dtype == np.uint64
        assert population.ring_positions[-2:].tolist() == [
            reference_splitmix64(identity + 29 * 0x1000003)
            for identity in range(n_clients)[-2:]]


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
        # The draw counted as it went: the memo needs no per-client read.
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


def reference_arc_table(population, fleet):
    """``(arc_cuts, arc_hist)`` as ``ProblemTemplate.build()`` computed them
    before the counting pass: cut the ring-sorted population at the universe
    points, label every sorted client with its arc, one ``bincount``."""
    positions, region_class = population.ring_sorted()
    universe = fleet.universe_arcs()[0]
    bins = population.regions * population.n_classes
    arc_cuts = np.concatenate([
        [0], np.searchsorted(positions, universe, side="right"), [positions.size],
    ]).astype(np.int64)
    arcs = arc_cuts.size - 1
    arc_sorted = np.repeat(np.arange(arcs), np.diff(arc_cuts))
    arc_hist = np.bincount(
        arc_sorted * bins + region_class, minlength=arcs * bins
    ).reshape(arcs, bins)
    return arc_cuts, arc_hist


def reference_counts3d(population, fleet):
    """Clients per (region, class, site) read off the sorted segments."""
    positions, region_class = population.ring_sorted()
    cuts, owners = fleet.assignment_segments(positions)
    site_sorted = np.repeat(owners, np.diff(cuts))
    shape = (population.regions, population.n_classes, fleet.n_sites)
    return np.bincount(region_class * fleet.n_sites + site_sorted,
                       minlength=int(np.prod(shape))).reshape(shape)


def check_ring_walk(population, fleet, actions):
    """Drive ``actions`` through ``fleet``; after each, the masked ring, the
    incremental template and the churn figures must equal their from-scratch
    references."""
    from repro.scale.scenario import ProblemTemplate, ScaleScenario

    scenario = ScaleScenario(population, fleet)
    template = scenario.build_template()
    sorted_positions = population.ring_sorted()[0]
    for ours, reference in zip((template.arc_cuts, template.arc_hist),
                               reference_arc_table(population, fleet)):
        assert ours.dtype == reference.dtype and np.array_equal(ours, reference)
    assert np.array_equal(template.counts3d, reference_counts3d(population, fleet))
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
        assert np.array_equal(template.counts3d, reference_counts3d(population, fleet))
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

    @pytest.mark.parametrize("shape", ["E13-16x64", "E14-24x64"])
    def test_acceptance_fleets_match_the_sorted_formula(self, shape):
        """The sort-free build against the sorted one it replaced, on the
        acceptance runs' fleet shapes (E14's has drained spares: universe ≠
        ring) and through a fail / restore / drain chain."""
        from repro.scale.autoscale import elastic_fleet
        from repro.scale.catalogue import provisioned_fleet

        population = ClientPopulation(20_000, seed=37)
        fleet = (provisioned_fleet(population, 16, headroom=1.1) if shape.startswith("E13")
                 else elastic_fleet(population, 24, nominal_sites=16))
        assert fleet.universe_arcs()[0].size == fleet.n_sites * 64
        check_ring_walk(population, fleet, [
            ("fail_site", 3), ("fail_site", 9), ("restore_site", 3),
            ("drain_site", 5), ("activate_site", 20), ("restore_site", 9),
            ("activate_site", 5),
        ])

    def test_one_histogram_per_distinct_universe(self):
        """A second scenario on the same population and ring points shares
        the first one's read-only table; another universe gets its own."""
        from repro.scale.scenario import ScaleScenario

        population = ClientPopulation(3_000, seed=41)
        fleet, same, other = (NeutralizerFleet.build(n) for n in (5, 5, 6))
        same.fail_site("site02")    # ring state differs, universe does not
        first = ScaleScenario(population, fleet).build_template()
        second = ScaleScenario(population, same).build_template()
        third = ScaleScenario(population, other).build_template()
        assert second.arc_hist is first.arc_hist
        assert third.arc_hist is not first.arc_hist
        assert not first.arc_hist.flags.writeable


def locate_cases():
    """Pinned rings × keys for :func:`ring_locate`: sizes from 0 to 4,096
    points, uniform / clustered / duplicated points, and keys on, just below
    and just above every point and at both ends of the space."""
    top = np.uint64(2**64 - 1)
    rng = np.random.default_rng(2006)
    rings = [
        np.empty(0, dtype=np.uint64),
        np.array([0], dtype=np.uint64),
        np.array([top], dtype=np.uint64),
        np.array([0, 0, top, top], dtype=np.uint64),
        # 50 consecutive points, one bucket (and one straddling a bucket edge).
        np.uint64(0xABCD << 48) + np.arange(50, dtype=np.uint64),
        np.uint64(0xABCD << 48) - np.uint64(25) + np.arange(50, dtype=np.uint64),
    ]
    for case in range(50):
        size = int(rng.choice([1, 2, 7, 64, 1024, 1536, 4096]))
        points = rng.integers(0, 2**64, size, dtype=np.uint64)
        if case % 3 == 1:       # a third of the rings repeat points
            points[size // 2:] = points[:size - size // 2]
        if case % 5 == 2:       # some crowd into one or two buckets
            points = (points >> np.uint64(50)) + np.uint64(int(rng.integers(0, 2**62)))
        rings.append(np.sort(points))
    for points in rings:
        near = np.concatenate([points, points - np.uint64(1), points + np.uint64(1)])
        keys = np.concatenate([
            near, np.array([0, 1, top - np.uint64(1), top], dtype=np.uint64),
            rng.integers(0, 2**64, 2_000, dtype=np.uint64),
            # Non-uniform keys: everything in the buckets the points occupy.
            (near >> np.uint64(48) << np.uint64(48)) + np.uint64(12345),
        ])
        yield points, keys


class TestRingLocate:
    def test_equals_searchsorted_left(self):
        cases = 0
        for points, keys in locate_cases():
            located = ring_locate(points, keys)
            reference = np.searchsorted(points, keys, side="left")
            assert located.dtype == reference.dtype
            assert np.array_equal(located, reference)
            cases += 1
        assert cases >= 50

    def test_assign_sites_wraps_past_the_last_point(self):
        fleet = NeutralizerFleet.build(3, replicas=8)
        positions, owners = fleet.ring_state()
        keys = np.array([0, positions[0], positions[-1],
                         positions[-1] + np.uint64(1), 2**64 - 1], dtype=np.uint64)
        assert fleet.assign_sites(keys).tolist() == [
            owners[0], owners[0], owners[-1], owners[0], owners[0]]


class TestPrepareFootprint:
    """prepare() is one bounded-memory pass: nothing population-sized is
    allocated beyond the three client columns, and no path sorts them."""

    def test_million_client_build_stays_within_its_columns(self):
        from repro.scale.scenario import ScaleScenario

        clients = 10**6
        tracemalloc.start()
        try:
            population = ClientPopulation(clients, seed=81)
            template = ScaleScenario(population, NeutralizerFleet.build(16)).build_template()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert template.counts3d.sum() == clients
        # 16 B/client of columns (int32 + int32 + uint64) and O(chunk) beside.
        assert retained <= 17 * clients + (1 << 20)
        assert peak <= 24 * clients + (4 << 20)

    def test_campaign_paths_never_sort_the_population(self, monkeypatch):
        from repro.scale import FluidTimeline, StochasticCampaignRunner
        from repro.scale.catalogue import provisioned_fleet
        from repro.scale.parallel import canonical_result_bytes

        def campaign_unit():
            runner = StochasticCampaignRunner(
                clients=1500, nominal_sites=4, max_sites=6, epochs=10,
                replicas=2, seed=7)
            runner.prepare()
            return canonical_result_bytes(runner.run_unit(runner.unit_specs()[0]))

        def bare_timeline():
            population = ClientPopulation(2_000, seed=7)
            fleet = provisioned_fleet(population, 6)
            return canonical_result_bytes(
                FluidTimeline(population, fleet, epochs=12).run())

        untouched = campaign_unit(), bare_timeline()

        def off_limits(self):
            raise AssertionError("a campaign path sorted the population")

        monkeypatch.setattr(ClientPopulation, "ring_sorted", off_limits)
        assert (campaign_unit(), bare_timeline()) == untouched


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
