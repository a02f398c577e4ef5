"""The neutralizer fleet: sites, capacity, health, and the hash ring.

This is the supply side of the paper's §4 scaling argument (neutralizer
boxes at the neutral ISP's borders, reached by anycast).  A *site* is one
anycast entry point into the neutral domain — in the packet-level
simulator, one :class:`repro.core.neutralizer.Neutralizer` on a border
router; here, a CPU budget (cores × the calibrated per-packet cost) plus an
uplink.  Clients are spread over healthy sites with the
:class:`ConsistentHashRing` defined here, evaluated vectorized: the ring's
points are hashed into numpy arrays once and a million clients are assigned
with a single :func:`ring_locate`.  Failing a site withdraws its ring
points, so exactly the failed site's clients move — the fleet-level
analogue of a router withdrawing its anycast route.  The sites are fixed at
construction, so every point they can contribute is hashed and sorted once
(the *universe*) and each in-service ring is a boolean mask of it: a
membership change flips one element of the per-site in-service mask, and
the mask is applied to the universe — O(ring points), with no re-hash and
no re-sort — on the ring's first read after it.  The
ring needs only numpy and :mod:`hashlib`; nothing here imports the
packet-level simulator.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..exceptions import TopologyError
from ..units import gbps
from .costmodel import CryptoCostModel


_LOW_32 = np.uint64(0xFFFFFFFF)


def _exact_sum(values: np.ndarray) -> int:
    """The exact sum of uint64 ``values`` as a Python int.

    Summed as two uint64 totals of the 32-bit halves, which cannot wrap
    below 2^32 terms, and joined in Python ints.
    """
    high = int((values >> np.uint64(32)).sum(dtype=np.uint64))
    low = int((values & _LOW_32).sum(dtype=np.uint64))
    return (high << 32) + low


def arc_moved_fraction(positions_a: np.ndarray, owners_a: np.ndarray,
                       positions_b: np.ndarray, owners_b: np.ndarray,
                       space: int) -> float:
    """Key-space fraction whose owner differs between two ring states.

    What :meth:`NeutralizerFleet.ring_moved_fraction` computes over two of
    the fleet's point lists: every arc between consecutive boundary points
    (the union of both rings' points) has one owner per ring — probe each
    arc's upper end (inclusive successor semantics, wrapping the final arc
    past the last point to the first) and sum the lengths of arcs whose
    owners disagree.  Owner arrays are integer
    ids shared between the two rings; arc lengths are summed exactly
    (:func:`_exact_sum`), so an identity diff is exactly 0.0.
    """
    boundaries = np.concatenate([positions_a, positions_b])
    boundaries.sort(kind="stable")
    probes = np.concatenate([boundaries[1:], boundaries[:1]])

    def owners_at(positions: np.ndarray, owners: np.ndarray) -> np.ndarray:
        slots = np.searchsorted(positions, probes, side="left")
        slots[slots == positions.size] = 0
        return owners[slots]

    changed = np.flatnonzero(
        owners_at(positions_a, owners_a) != owners_at(positions_b, owners_b)
    )
    # An arc runs from its boundary up to its probe; the final one wraps
    # past the last point to the first, so its probe is ``space`` short.
    moved = _exact_sum(probes[changed]) - _exact_sum(boundaries[changed])
    if changed.size and changed[-1] == boundaries.size - 1:
        moved += space
    return moved / space


#: Leading key bits :func:`ring_locate` tables: 2^16 buckets against ~10^3
#: ring points leave ~98 % of the buckets — and so of uniformly hashed keys —
#: with no point inside, and the table (512 KB) still sits in cache.
_LOCATE_TABLE_BITS = 16


def ring_locate(points: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(points, keys, side="left")`` for hashed uint64 keys.

    ``points`` is a sorted uint64 ring, ``keys`` any uint64 positions; the
    result counts, per key, the ring points strictly below it.  The key
    space is cut into ``2**_LOCATE_TABLE_BITS`` equal buckets by the
    leading bits.  A key whose bucket holds no ring point has every point
    of a lower bucket below it and every other point above it, so its
    answer is one table read; only a key sharing its bucket with a point is
    binary-searched.  Exact for any keys and any points (ties, duplicates,
    the ends of the space, an empty ring) — the key distribution changes
    only how many keys take the table read.
    """
    shift = np.uint64(ConsistentHashRing._SPACE_BITS - _LOCATE_TABLE_BITS)
    # Bucket numbers fit 16 bits, so the uint64 → int64 view is a free cast.
    per_bucket = np.bincount((points >> shift).view(np.int64),
                             minlength=1 << _LOCATE_TABLE_BITS)
    table = np.cumsum(per_bucket) - per_bucket      # points in lower buckets
    table[per_bucket > 0] = -1
    slots = table[(keys >> shift).view(np.int64)]
    shared = np.flatnonzero(slots < 0)
    slots[shared] = np.searchsorted(points, keys[shared], side="left")
    return slots


class ConsistentHashRing:
    """Consistent hashing of opaque keys onto named sites.

    IP anycast gives *topological* nearest-entry routing; inside a domain the
    operators still need a stable way to spread sources over boxes so caches
    and rate-limit state stay warm.  This ring hashes each site name onto
    ``replicas`` points of the 2^64 circle (blake2b keyed with a fixed salt) and
    assigns a key to the first site point at or after the key's position.
    Removing a site moves only that site's keys — the property fleet failover
    relies on.  :class:`NeutralizerFleet` hashes its points through this
    class and does the same lookup vectorized, so a ring built from the
    fleet's in-service site names is the scalar reference for it.
    """

    _SPACE_BITS = 64
    _SALT = b"neutralizer-ring"

    def __init__(self, site_names: Optional[List[str]] = None, *,
                 replicas: int = 64) -> None:
        if replicas <= 0:
            raise TopologyError("ring replicas must be positive")
        self.replicas = replicas
        self._points: List[Tuple[int, str]] = []
        for name in site_names or []:
            self.add_site(name)

    def _position(self, data: bytes) -> int:
        digest = hashlib.blake2b(data, digest_size=8, key=self._SALT).digest()
        return int.from_bytes(digest, "big")

    def add_site(self, name: str) -> None:
        """Insert ``replicas`` points for ``name`` (idempotent)."""
        if any(owner == name for _, owner in self._points):
            return
        for replica in range(self.replicas):
            point = (self._position(f"{name}#{replica}".encode()), name)
            self._points.insert(bisect_left(self._points, point), point)

    def remove_site(self, name: str) -> None:
        """Withdraw every point of ``name`` (simulated failure or drain)."""
        self._points = [point for point in self._points if point[1] != name]

    @property
    def site_names(self) -> List[str]:
        """Distinct member sites, sorted."""
        return sorted({owner for _, owner in self._points})

    def __len__(self) -> int:
        return len(self._points)

    def key_position(self, key: Union[str, bytes]) -> int:
        """Ring position of ``key`` (same space as :meth:`table` positions)."""
        data = key.encode() if isinstance(key, str) else key
        return self._position(data)

    def site_for(self, key: Union[str, bytes]) -> str:
        """The site owning ``key``: first point clockwise from its position."""
        if not self._points:
            raise TopologyError("hash ring has no sites")
        index = bisect_left(self._points, (self.key_position(key), ""))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def table(self) -> Tuple[List[int], List[str]]:
        """Sorted ring positions and their owning sites."""
        positions = [position for position, _ in self._points]
        owners = [owner for _, owner in self._points]
        return positions, owners


@dataclass
class FleetSite:
    """One neutralizer site: a point of presence with CPU and uplink budgets.

    Two independent flags gate whether the site serves clients: ``healthy``
    is involuntary (failures and recoveries, flipped by fleet events) and
    ``active`` is voluntary (commissioned vs drained, flipped by the
    autoscaler).  A site is *in service* — present in the hash ring,
    contributing capacity — only when both are true, so a drained site that
    fails, recovers, and is reactivated passes through every state exactly
    once.
    """

    name: str
    cores: float = 8.0
    uplink_bps: float = gbps(10)
    healthy: bool = True
    active: bool = True
    #: Billing tier: ``"reserved"`` (full price) or ``"spot"`` (discounted
    #: by the provisioning model's ``spot_multiplier``).  Purely a cost
    #: label — capacity and ring behavior are tier-blind.
    tier: str = "reserved"

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.uplink_bps <= 0:
            raise TopologyError(f"site {self.name!r} needs positive cores and uplink")
        if self.tier not in ("reserved", "spot"):
            raise TopologyError(
                f"site {self.name!r} tier must be 'reserved' or 'spot'"
            )

    @property
    def in_service(self) -> bool:
        """Whether the site currently serves clients (healthy AND active)."""
        return self.healthy and self.active


class NeutralizerFleet:
    """A set of sites plus the consistent-hash ring that spreads clients."""

    def __init__(
        self,
        sites: List[FleetSite],
        *,
        cost_model: Optional[CryptoCostModel] = None,
        replicas: int = 64,
    ) -> None:
        if not sites:
            raise TopologyError("a fleet needs at least one site")
        names = [site.name for site in sites]
        if len(set(names)) != len(names):
            raise TopologyError("site names must be unique")
        self.sites = list(sites)
        self.cost_model = cost_model or CryptoCostModel.default()
        self.replicas = replicas
        self._index_by_name: Dict[str, int] = {name: i for i, name in enumerate(names)}
        # The sites are fixed, so every ring point that can ever exist is
        # hashed once here (through an empty ring, so the hash stays the
        # single source of truth) and sorted once, stably, in site order:
        # the *universe*.  Every in-service ring is a boolean mask of it,
        # applied on the ring's first read after a membership change: one
        # pass over ~10^3 points, no re-hashing, no re-sorting.
        hasher = ConsistentHashRing([], replicas=replicas)
        points = np.fromiter(
            (hasher._position(f"{name}#{replica}".encode())
             for name in names for replica in range(replicas)),
            dtype=np.uint64, count=len(names) * replicas,
        )
        order = np.argsort(points, kind="stable")
        self._universe_positions = points[order]
        self._universe_owner = order // replicas
        self._cpu_capacity: Optional[np.ndarray] = None
        self._uplink_capacity: Optional[np.ndarray] = None
        #: Bumped whenever any site's ``active`` flag flips — unlike
        #: :attr:`generation` this moves even when the ring does not (e.g.
        #: draining an already-failed site), so billing caches can key on it.
        self.active_version = 0
        #: Bumped on every membership change, so cached client assignments
        #: and problem templates know when they are stale.
        self.generation = 0
        self._ring_arrays: Optional[Tuple[np.ndarray, ...]] = None
        self._set_service_mask(
            np.array([site.in_service for site in self.sites], dtype=bool))

    @classmethod
    def build(cls, n_sites: int, *, cores: float = 8.0, uplink_bps: float = gbps(10),
              cost_model: Optional[CryptoCostModel] = None,
              replicas: int = 64) -> "NeutralizerFleet":
        """A homogeneous fleet of ``n_sites`` identical sites."""
        sites = [FleetSite(f"site{i:02d}", cores=cores, uplink_bps=uplink_bps)
                 for i in range(n_sites)]
        return cls(sites, cost_model=cost_model, replicas=replicas)

    # -- health and commissioning ----------------------------------------------------

    def _set_service_mask(self, serving: np.ndarray) -> None:
        """Adopt a new in-service set; the ring follows on its first read."""
        if not serving.any():
            raise TopologyError("every site of the fleet is out of service")
        self._service_mask = serving
        self._ring_arrays = None
        self._cpu_capacity = None
        self._uplink_capacity = None
        self.generation += 1

    def _ring(self) -> Tuple[np.ndarray, ...]:
        """``(positions, owner index, in_ring, arc_owners)`` of the ring now.

        Derived from the in-service mask by whichever reader asks first
        after a membership change, so a run of flips that nothing reads in
        between costs no ring pass.  Each derivation allocates fresh
        arrays, which is what keeps earlier snapshots valid.
        """
        ring = self._ring_arrays
        if ring is None:
            in_ring = self._service_mask[self._universe_owner]
            positions = self._universe_positions[in_ring]
            owner_index = self._universe_owner[in_ring]
            # Universe arc i (keys after point i-1 up to point i; the last
            # arc wraps) belongs to the first in-ring point at or after i:
            # ring slot "in-ring points before i", wrapping to 0 when none
            # is left.
            slots = np.concatenate([[0], np.cumsum(in_ring)])
            arc_owners = owner_index[slots % positions.size]
            ring = self._ring_arrays = (positions, owner_index, in_ring, arc_owners)
        return ring

    def _set_site_state(self, name: str, *, healthy: Optional[bool] = None,
                        active: Optional[bool] = None) -> None:
        """Flip one site's flags; a membership change flips one mask element.

        A drain of an already-failed site (or a recovery of a drained one)
        leaves the in-service set untouched, so cached problem templates stay
        valid and no churn is charged — the ring moves only when a site
        actually enters or leaves service.
        """
        index = self.index_of_site(name)
        site = self.sites[index]
        was_serving = site.in_service
        will_be_healthy = site.healthy if healthy is None else healthy
        will_be_active = site.active if active is None else active
        will_serve = will_be_healthy and will_be_active
        # Refuse before mutating anything: a rejected transition must leave
        # the flags, the ring, and every cached array exactly as they were.
        if was_serving and not will_serve and self.n_in_service == 1:
            raise TopologyError(
                f"refusing to take {name!r} out of service: it is the "
                f"fleet's last serving site"
            )
        if will_be_active != site.active:
            self.active_version += 1
        site.healthy = will_be_healthy
        site.active = will_be_active
        if will_serve != was_serving:
            # A copy, so a mask handed out earlier keeps the old state.
            serving = self._service_mask.copy()
            serving[index] = will_serve
            self._set_service_mask(serving)

    def ring_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ring's (positions, owner indices) arrays, cheap to snapshot.

        Every derivation allocates fresh arrays, so holding the returned
        references across a membership change is a valid zero-copy
        snapshot.  With :meth:`ring_moved_fraction` it is the reference the
        universe-arc churn (:meth:`universe_arc_fraction`) is checked
        against.
        """
        positions, owner_index, _, _ = self._ring()
        return positions, owner_index

    @staticmethod
    def ring_moved_fraction(before: Tuple[np.ndarray, np.ndarray],
                            after: Tuple[np.ndarray, np.ndarray]) -> float:
        """Hash-space fraction whose owner differs between two ring states.

        :func:`arc_moved_fraction` over the position/owner-index arrays of
        two :meth:`ring_state` results: the key space whose owner moved,
        read off the two rings' points rather than the universe arcs.
        """
        if before[0] is after[0] and before[1] is after[1]:
            return 0.0  # the same snapshot: no membership change in between
        return arc_moved_fraction(
            before[0], before[1], after[0], after[1],
            1 << ConsistentHashRing._SPACE_BITS,
        )

    def site(self, name: str) -> FleetSite:
        """Look up one site by name."""
        return self.sites[self.index_of_site(name)]

    def index_of_site(self, name: str) -> int:
        """A site's index into :attr:`sites` (stable across failures)."""
        try:
            return self._index_by_name[name]
        except KeyError:
            raise TopologyError(
                f"unknown site {name!r}; fleet has {', '.join(self._index_by_name)}"
            ) from None

    def fail_site(self, name: str) -> None:
        """Take a site down; its ring points are withdrawn immediately."""
        self._set_site_state(name, healthy=False)

    def restore_site(self, name: str) -> None:
        """Bring a failed site back; it reclaims exactly its old ring points
        (unless it was drained meanwhile, in which case it stays out)."""
        self._set_site_state(name, healthy=True)

    def drain_site(self, name: str) -> None:
        """Decommission a site voluntarily (autoscaler scale-down)."""
        self._set_site_state(name, active=False)

    def activate_site(self, name: str) -> None:
        """Commission a site (autoscaler scale-up after its warm-up)."""
        self._set_site_state(name, active=True)

    def health_snapshot(self) -> Tuple[Tuple[bool, bool], ...]:
        """Per-site ``(healthy, active)`` flags, in :attr:`sites` order."""
        return tuple((site.healthy, site.active) for site in self.sites)

    def restore_health(self, snapshot: Tuple[Tuple[bool, bool], ...]) -> None:
        """Reset every site's flags to ``snapshot`` (one membership change at most).

        The undo operation for a sequence of failures/recoveries/autoscale
        actions — timeline runs use it to hand the fleet back in its pre-run
        state.
        """
        if len(snapshot) != len(self.sites):
            raise TopologyError("health snapshot does not match the fleet's sites")
        if snapshot == self.health_snapshot():
            return
        # Refuse before mutating anything, like ``_set_site_state``.
        if not any(healthy and active for healthy, active in snapshot):
            raise TopologyError(
                "refusing a health snapshot that leaves no site in service"
            )
        if any(site.active != active for site, (_, active) in zip(self.sites, snapshot)):
            self.active_version += 1
        for site, (healthy, active) in zip(self.sites, snapshot):
            site.healthy = healthy
            site.active = active
        serving = np.array([site.in_service for site in self.sites], dtype=bool)
        if not np.array_equal(serving, self._service_mask):
            self._set_service_mask(serving)

    @property
    def healthy_site_names(self) -> List[str]:
        """Names of healthy sites (failed excluded; drained ones included)."""
        return [site.name for site in self.sites if site.healthy]

    @property
    def in_service_names(self) -> List[str]:
        """Names of sites currently in the ring (healthy AND active)."""
        return [site.name for site in self.sites if site.in_service]

    def in_service_mask(self) -> np.ndarray:
        """Boolean per-site in-service flags, in :attr:`sites` order.

        Replaced (never mutated) on every membership change — read-only.
        """
        return self._service_mask

    @property
    def n_in_service(self) -> int:
        """Number of sites currently serving."""
        return int(self.in_service_mask().sum())

    # -- vectorized assignment -------------------------------------------------------

    def assign_sites(self, ring_positions: np.ndarray) -> np.ndarray:
        """Map client ring positions to site indices (into :attr:`sites`).

        The successor lookup of :meth:`ConsistentHashRing.site_for`, done for
        the whole population at once with
        :func:`ring_locate` (wrapping past the last ring
        point back to the first).
        """
        points, owner_index, _, _ = self._ring()
        slots = ring_locate(points, ring_positions)
        slots[slots == len(points)] = 0
        return owner_index[slots]

    def assignment_segments(self, positions_sorted: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ring assignment of *sorted* client positions, as segments.

        Instead of looking up every client (O(n_clients log ring)), invert
        the lookup: ``searchsorted`` the ring's points into the sorted client
        positions, which costs O(ring points × log n_clients) and describes
        the whole assignment as contiguous segments.  Returns ``(cuts,
        owners)`` where clients ``cuts[i]:cuts[i + 1]`` of the sorted order
        belong to site index ``owners[i]`` (the final segment wraps past the
        last ring point back to the first).  Equivalent to
        :meth:`assign_sites` on the same positions, verified by tests.
        """
        points, owner_index, _, _ = self._ring()
        bounds = np.searchsorted(positions_sorted, points, side="right")
        cuts = np.concatenate([
            np.zeros(1, dtype=np.int64),
            bounds.astype(np.int64),
            np.array([positions_sorted.size], dtype=np.int64),
        ])
        owners = np.concatenate([owner_index, owner_index[:1]])
        return cuts, owners

    def universe_arcs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The current ring as a mask of the fleet's fixed point universe.

        Returns ``(positions, in_ring, arc_owners)``: every point the sites
        can ever contribute, sorted (fixed for the fleet's lifetime); which
        of them are in the ring now; and the site index owning each of the
        ``len(positions) + 1`` arcs they cut the key space into (arc ``i``
        ends at point ``i``, the last one wraps).  Read-only; a
        :class:`repro.scale.scenario.ProblemTemplate` counts clients per arc
        once, so a ring change is a diff of two ``arc_owners`` arrays.
        """
        _, _, in_ring, arc_owners = self._ring()
        return self._universe_positions, in_ring, arc_owners

    def universe_arc_fraction(self, arcs: np.ndarray) -> float:
        """Key-space fraction covered by the sorted universe arcs ``arcs``.

        Arc ``i`` holds the keys above point ``i - 1`` up to point ``i``;
        arc 0 starts at key 0 and the last arc ends at the top key.  The
        lengths are summed exactly (:func:`_exact_sum`), as in
        :func:`arc_moved_fraction`, so the moved arcs of
        two ring states give that function's fraction bit for bit.
        """
        points = self._universe_positions
        ends = arcs[arcs < points.size]
        starts = arcs[arcs > 0] - 1
        space = 1 << ConsistentHashRing._SPACE_BITS
        keys = (_exact_sum(points[ends]) - _exact_sum(points[starts])
                + (arcs.size - ends.size) * (space - 1)
                + (arcs.size - starts.size))
        return keys / space

    # -- capacity --------------------------------------------------------------------

    @property
    def n_sites(self) -> int:
        """Number of sites, healthy or not (indices are stable across failures)."""
        return len(self.sites)

    def cpu_capacity_cores(self) -> np.ndarray:
        """Per-site CPU budget in cores (zero when failed or drained).

        Cached per ring state and rebuilt lazily; epoch loops call this
        every step, so treat the returned array as read-only.
        """
        if self._cpu_capacity is None:
            self._cpu_capacity = np.array(
                [site.cores if site.in_service else 0.0 for site in self.sites],
                dtype=np.float64,
            )
        return self._cpu_capacity

    def uplink_capacity_bps(self) -> np.ndarray:
        """Per-site uplink budget in bits/s (zero when failed or drained).

        Cached per ring state, like :meth:`cpu_capacity_cores`.
        """
        if self._uplink_capacity is None:
            self._uplink_capacity = np.array(
                [site.uplink_bps if site.in_service else 0.0 for site in self.sites],
                dtype=np.float64,
            )
        return self._uplink_capacity

    def data_capacity_pps(self) -> np.ndarray:
        """Per-site data-path forwarding budget in packets/s."""
        return self.cpu_capacity_cores() / self.cost_model.data_packet_cost_seconds
