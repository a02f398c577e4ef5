"""Deploying the neutralizer service into a topology.

The paper places neutralizers "at the boundary of [the neutral ISP's] domain";
"these neutralizers can either be inline boxes or part of a border router's
functionality", and "we use an anycast address to represent the neutralizer
service of an ISP".  :func:`deploy_neutralizer_service` does exactly that for
a simulated topology: it creates a :class:`NeutralizerDomain` with a shared
master key, instantiates one :class:`Neutralizer` per border router of the
named ISP, binds each to the anycast address as a router-local service, joins
them to the anycast group, and rebuilds routing so every other ISP routes the
anycast address to its *nearest* entry point into the neutral domain.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from ..crypto.randomness import DEFAULT_SOURCE, RandomSource
from ..exceptions import TopologyError
from ..netsim.topology import Topology
from ..packet.addresses import IPv4Address
from ..qos.intserv import DynamicAddressPool
from .master_key import MasterKeyManager
from .neutralizer import Neutralizer, NeutralizerConfig, NeutralizerDomain


def arc_moved_fraction(positions_a: np.ndarray, owners_a: np.ndarray,
                       positions_b: np.ndarray, owners_b: np.ndarray,
                       space: int) -> float:
    """Key-space fraction whose owner differs between two ring states.

    What :meth:`repro.scale.fleet.NeutralizerFleet.ring_moved_fraction`
    computes over two of the fleet's point lists: every arc between
    consecutive boundary points (the union of both rings' points) has one
    owner per ring — probe each arc's upper end (inclusive successor
    semantics, wrapping the final arc past the last point to the first) and
    sum the lengths of arcs whose owners disagree.  Owner arrays are integer
    ids shared between the two rings; arc lengths are summed in exact Python
    ints, so an identity diff is exactly 0.0.
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
    moved = sum(probes[changed].tolist()) - sum(boundaries[changed].tolist())
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
    ``replicas`` points of the 2^64 circle (blake2b keyed with ``salt``) and
    assigns a key to the first site point at or after the key's position.
    Removing a site moves only that site's keys — the property fleet failover
    relies on.  :mod:`repro.scale.fleet` hashes its points through this
    class and does the same lookup vectorized, so a ring built from the
    fleet's in-service site names is the scalar reference for it.
    """

    _SPACE_BITS = 64

    def __init__(self, site_names: Optional[List[str]] = None, *, replicas: int = 64,
                 salt: bytes = b"neutralizer-ring") -> None:
        if replicas <= 0:
            raise TopologyError("ring replicas must be positive")
        self.replicas = replicas
        self.salt = salt
        self._points: List[Tuple[int, str]] = []
        for name in site_names or []:
            self.add_site(name)

    def _position(self, data: bytes) -> int:
        digest = hashlib.blake2b(data, digest_size=8, key=self.salt).digest()
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
class NeutralizerDeployment:
    """The result of deploying the service for one ISP."""

    isp_name: str
    domain: NeutralizerDomain
    neutralizers: List[Neutralizer] = field(default_factory=list)
    router_names: List[str] = field(default_factory=list)

    @property
    def anycast_address(self) -> IPv4Address:
        """The anycast address the ISP's customers publish in DNS."""
        return self.domain.anycast_address

    def total_counters(self) -> dict:
        """Aggregate protocol counters across the deployed boxes."""
        return self.domain.total_counters()

    def describe(self) -> str:
        """One-line summary used by examples and reports."""
        return (
            f"neutralizer service of {self.isp_name}: anycast {self.anycast_address}, "
            f"{len(self.neutralizers)} boxes on {', '.join(self.router_names)}"
        )


def deploy_neutralizer_service(
    topology: Topology,
    isp_name: str,
    anycast_address: IPv4Address,
    *,
    rng: Optional[RandomSource] = None,
    backend: Optional[str] = None,
    master_key_lifetime_seconds: Optional[float] = None,
    verify_tags: bool = True,
    dynamic_address_count: int = 0,
    rebuild_routes: bool = True,
) -> NeutralizerDeployment:
    """Deploy neutralizers on every border router of ``isp_name``."""
    isp = topology.isps.get(isp_name)
    router_names = isp.border_router_names or isp.router_names
    if not router_names:
        raise TopologyError(f"ISP {isp_name!r} has no routers to host neutralizers")
    random_source = rng or DEFAULT_SOURCE

    master_keys = None
    if master_key_lifetime_seconds is not None:
        master_keys = MasterKeyManager(
            random_source, lifetime_seconds=master_key_lifetime_seconds
        )

    dynamic_pool = None
    if dynamic_address_count > 0:
        dynamic_pool = DynamicAddressPool(
            [isp.allocate_address() for _ in range(dynamic_address_count)]
        )

    config = NeutralizerConfig(
        anycast_address=anycast_address,
        served_prefix=isp.prefix,
        backend=backend,
        verify_tags=verify_tags,
    )
    domain = NeutralizerDomain(
        config,
        master_keys=master_keys,
        rng=random_source,
        dynamic_address_pool=dynamic_pool,
    )
    isp.supports_neutralizer = True

    deployment = NeutralizerDeployment(isp_name=isp_name, domain=domain)
    for router_name in router_names:
        router = topology.router(router_name)
        neutralizer = domain.create_neutralizer(name=f"neutralizer@{router_name}")
        neutralizer.attach_to_router(router)
        topology.join_anycast_group(anycast_address, router_name)
        deployment.neutralizers.append(neutralizer)
        deployment.router_names.append(router_name)

    if rebuild_routes:
        topology.build_routes()
    return deployment
