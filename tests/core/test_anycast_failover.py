"""Anycast deployment failover and the consistent-hash ring."""

from fractions import Fraction

import numpy as np
import pytest

from repro.analysis.scenarios import build_figure1
from repro.exceptions import TopologyError
from repro.packet import ip, udp_packet
from repro.scale.fleet import ConsistentHashRing, arc_moved_fraction, ring_locate


class TestAnycastFailover:
    def build(self):
        scenario = build_figure1(neutralized=True, seed=99)
        deployment = scenario.deployment.deployment
        return scenario, deployment

    def test_each_border_router_hosts_a_box(self):
        _, deployment = self.build()
        assert sorted(deployment.router_names) == ["cogent-br-east", "cogent-br-west"]
        assert len(deployment.neutralizers) == 2
        assert "2 boxes" in deployment.describe()

    def test_traffic_enters_at_nearest_border(self):
        scenario, deployment = self.build()
        topology = scenario.topology
        ann = topology.host("ann")
        google = topology.host("google")
        received = []
        google.register_port_handler(8080, lambda p, h: received.append(p))
        ann.send(udp_packet(ann.address, google.address, b"x" * 50,
                            destination_port=8080))
        topology.run(2.0)
        assert received
        east, west = deployment.neutralizers
        by_name = {n.name: n.counters["data_packets_forwarded"]
                   for n in (east, west)}
        # Ann sits in AT&T, whose peering lands on Cogent's east border.
        assert by_name["neutralizer@cogent-br-east"] > 0
        assert by_name["neutralizer@cogent-br-west"] == 0

    def test_failover_reroutes_to_surviving_member_under_load(self):
        # Withdraw the nearest member mid-run (site removal under load): the
        # rebuilt anycast routes must deliver follow-up traffic via the
        # surviving box, invisibly to the application.
        scenario, deployment = self.build()
        topology = scenario.topology
        ann = topology.host("ann")
        google = topology.host("google")
        received = []
        google.register_port_handler(8080, lambda p, h: received.append(p))

        ann.send(udp_packet(ann.address, google.address, b"before",
                            destination_port=8080))
        topology.run(1.0)
        assert len(received) == 1

        group = topology.anycast_groups[deployment.anycast_address]
        group.remove_member("cogent-br-east")
        topology.build_routes()

        ann.send(udp_packet(ann.address, google.address, b"after",
                            destination_port=8080))
        topology.run(2.0)
        assert len(received) == 2
        west = next(n for n in deployment.neutralizers
                    if n.name == "neutralizer@cogent-br-west")
        assert west.counters["data_packets_forwarded"] > 0


class TestConsistentHashRing:
    def test_deterministic_and_stable(self):
        one = ConsistentHashRing(["a", "b", "c"])
        two = ConsistentHashRing(["c", "a", "b"])
        keys = [f"client-{i}" for i in range(200)]
        assert [one.site_for(k) for k in keys] == [two.site_for(k) for k in keys]

    def test_covers_all_sites_roughly_evenly(self):
        ring = ConsistentHashRing(["a", "b", "c", "d"], replicas=128)
        counts = {name: 0 for name in "abcd"}
        for i in range(4_000):
            counts[ring.site_for(f"key{i}")] += 1
        assert min(counts.values()) > 0.4 * 1_000
        assert max(counts.values()) < 2.0 * 1_000

    def test_removal_moves_only_the_removed_sites_keys(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        keys = [f"key{i}" for i in range(500)]
        before = {k: ring.site_for(k) for k in keys}
        ring.remove_site("b")
        after = {k: ring.site_for(k) for k in keys}
        for key in keys:
            if before[key] != "b":
                assert after[key] == before[key]
            else:
                assert after[key] != "b"

    def test_add_is_idempotent_and_readdition_restores(self):
        ring = ConsistentHashRing(["a", "b"])
        size = len(ring)
        ring.add_site("a")
        assert len(ring) == size
        keys = [f"key{i}" for i in range(300)]
        before = {k: ring.site_for(k) for k in keys}
        ring.remove_site("a")
        ring.add_site("a")
        assert {k: ring.site_for(k) for k in keys} == before

    def test_empty_ring_rejects_lookup(self):
        ring = ConsistentHashRing()
        with pytest.raises(TopologyError):
            ring.site_for("anything")
        with pytest.raises(TopologyError):
            ConsistentHashRing(replicas=0)

    def test_table_is_sorted_for_vectorized_lookup(self):
        ring = ConsistentHashRing(["x", "y", "z"])
        positions, owners = ring.table()
        assert positions == sorted(positions)
        assert len(positions) == len(owners) == 3 * ring.replicas
        assert set(owners) == {"x", "y", "z"}


def owned_fraction(table, name):
    """Key space ``name`` owns in a ``ConsistentHashRing.table()`` result,
    exactly: each point owns the arc back to its predecessor, the first
    point also the arc that wraps past the last one."""
    positions, owners = table
    space = 1 << ConsistentHashRing._SPACE_BITS
    owned = sum((position - positions[index - 1]) % space
                for index, (position, owner) in enumerate(zip(positions, owners))
                if owner == name)
    return Fraction(owned, space)


def table_moved_fraction(before, after):
    """``arc_moved_fraction`` over two ``table()`` results, owners mapped to
    integer ids shared by both rings."""
    ids = {name: index for index, name in enumerate(sorted(set(before[1]) | set(after[1])))}

    def arrays(table):
        positions, owners = table
        return (np.array(positions, dtype=np.uint64),
                np.array([ids[owner] for owner in owners], dtype=np.int64))

    return arc_moved_fraction(*arrays(before), *arrays(after),
                              1 << ConsistentHashRing._SPACE_BITS)


class TestRingSnapshot:
    """``ConsistentHashRing.table()`` as a snapshot of the ring, and
    ``arc_moved_fraction`` as the diff of two snapshots."""

    def test_snapshot_is_frozen_against_later_changes(self):
        ring = ConsistentHashRing(["a", "b"])
        snapshot = ring.table()
        held = (list(snapshot[0]), list(snapshot[1]))
        ring.remove_site("b")
        assert snapshot == held
        assert set(snapshot[1]) == {"a", "b"}
        assert set(ring.table()[1]) == {"a"}
        assert ring.site_names == ["a"]

    def test_owned_fractions_partition_the_space(self):
        ring = ConsistentHashRing(["a", "b", "c"], replicas=64)
        snapshot = ring.table()
        assert sum(owned_fraction(snapshot, name) for name in "abc") == 1
        for name in "abc":
            assert 0.1 < owned_fraction(snapshot, name) < 0.6

    def test_removal_diff_equals_owned_fraction(self):
        # Consistent hashing's contract, stated on snapshots: removing one
        # site moves exactly the key space that site owned, nothing else.
        ring = ConsistentHashRing(["a", "b", "c", "d"])
        before = ring.table()
        owned = owned_fraction(before, "c")
        ring.remove_site("c")
        after = ring.table()
        assert table_moved_fraction(before, after) == float(owned) > 0
        assert ring.site_names == ["a", "b", "d"]
        for name in "abd":
            assert owned_fraction(after, name) >= owned_fraction(before, name)

    def test_readdition_diff_restores_and_identity_diff_is_empty(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        before = ring.table()
        ring.remove_site("a")
        ring.add_site("a")
        restored = ring.table()
        assert restored == before
        assert table_moved_fraction(before, restored) == 0.0
        assert table_moved_fraction(before, before) == 0.0

    def test_owner_at_matches_ring_lookup(self):
        # The vectorized lookup the fleet does over a table: the first point
        # at or after each key's position, wrapping past the last point.
        ring = ConsistentHashRing(["a", "b", "c"])
        positions, owners = ring.table()
        keys = [f"key{i}" for i in range(100)]
        slots = ring_locate(np.array(positions, dtype=np.uint64),
                            np.array([ring.key_position(k) for k in keys], dtype=np.uint64))
        slots[slots == len(positions)] = 0
        assert [owners[slot] for slot in slots] == [ring.site_for(k) for k in keys]
