"""The neutralizer fleet: sites, capacity, health, and client assignment.

This is the supply side of the paper's §4 scaling argument (neutralizer
boxes at the neutral ISP's borders, reached by anycast).  A *site* is one
anycast entry point into the neutral domain — in the
packet-level simulator, one :class:`repro.core.neutralizer.Neutralizer` on a
border router; here, a CPU budget (cores × the calibrated per-packet cost)
plus an uplink.  Clients are spread over healthy sites with the
:class:`repro.core.anycast.ConsistentHashRing`, evaluated vectorized: the
ring's position table is pulled into numpy arrays once and a million clients
are assigned with a single :func:`repro.core.anycast.ring_locate`.  Failing a
site withdraws its ring points, so exactly the failed site's clients move —
the fleet-level analogue of a router withdrawing its anycast route.  The
sites are fixed at construction, so every point they can contribute is hashed
and sorted once (the *universe*) and each in-service ring is a boolean mask
of it: a membership change is O(ring points), with no re-hash and no re-sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.anycast import ConsistentHashRing, NeutralizerDeployment, ring_locate
from ..exceptions import TopologyError
from ..units import gbps
from .costmodel import CryptoCostModel


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
        # the *universe*.  Every in-service ring is a boolean mask of it, so
        # a membership change costs one pass over ~10^3 points — no
        # re-hashing, no re-sorting.
        hasher = ConsistentHashRing([], replicas=replicas)
        points = np.fromiter(
            (hasher._position(f"{name}#{replica}".encode())
             for name in names for replica in range(replicas)),
            dtype=np.uint64, count=len(names) * replicas,
        )
        order = np.argsort(points, kind="stable")
        self._universe_positions = points[order]
        self._universe_owner = order // replicas
        self._ring_object: Optional[ConsistentHashRing] = None
        self._cpu_capacity: Optional[np.ndarray] = None
        self._uplink_capacity: Optional[np.ndarray] = None
        #: Bumped whenever any site's ``active`` flag flips — unlike
        #: :attr:`generation` this moves even when the ring does not (e.g.
        #: draining an already-failed site), so billing caches can key on it.
        self.active_version = 0
        #: Bumped on every ring rebuild, so cached client assignments and
        #: problem templates know when they are stale.
        self.generation = 0
        self._rebuild_ring()

    @classmethod
    def build(cls, n_sites: int, *, cores: float = 8.0, uplink_bps: float = gbps(10),
              cost_model: Optional[CryptoCostModel] = None,
              replicas: int = 64) -> "NeutralizerFleet":
        """A homogeneous fleet of ``n_sites`` identical sites."""
        sites = [FleetSite(f"site{i:02d}", cores=cores, uplink_bps=uplink_bps)
                 for i in range(n_sites)]
        return cls(sites, cost_model=cost_model, replicas=replicas)

    @classmethod
    def from_deployment(
        cls,
        deployment: NeutralizerDeployment,
        *,
        cores: float = 8.0,
        uplink_bps: float = gbps(10),
        cost_model: Optional[CryptoCostModel] = None,
        replicas: int = 64,
    ) -> "NeutralizerFleet":
        """Mirror a packet-level anycast deployment: one site per deployed box."""
        sites = [FleetSite(name, cores=cores, uplink_bps=uplink_bps)
                 for name in deployment.router_names]
        return cls(sites, cost_model=cost_model, replicas=replicas)

    # -- health and commissioning ----------------------------------------------------

    def _rebuild_ring(self) -> None:
        serving = np.array([site.in_service for site in self.sites], dtype=bool)
        if not serving.any():
            raise TopologyError("every site of the fleet is out of service")
        in_ring = serving[self._universe_owner]
        self._ring_positions = self._universe_positions[in_ring]
        self._ring_owner_index = self._universe_owner[in_ring]
        # Universe arc i (keys after point i-1 up to point i; the last arc
        # wraps) belongs to the first in-ring point at or after i: ring
        # slot "in-ring points before i", wrapping to 0 when none is left.
        slots = np.concatenate([[0], np.cumsum(in_ring)])
        self._arc_owners = self._ring_owner_index[slots % self._ring_positions.size]
        self._in_ring = in_ring
        self._service_mask = serving
        self._ring_object = None
        self._cpu_capacity = None
        self._uplink_capacity = None
        self.generation += 1

    @property
    def ring(self) -> ConsistentHashRing:
        """The in-service consistent-hash ring as a full ring object.

        The vectorized paths use the cached position table directly; this
        object form (built lazily, for ``site_for``-style point lookups)
        always agrees with it because both hash the same site names.
        """
        if self._ring_object is None:
            self._ring_object = ConsistentHashRing(
                self.in_service_names, replicas=self.replicas
            )
        return self._ring_object

    def _set_site_state(self, name: str, *, healthy: Optional[bool] = None,
                        active: Optional[bool] = None) -> None:
        """Flip one site's flags, rebuilding the ring only on membership change.

        A drain of an already-failed site (or a recovery of a drained one)
        leaves the in-service set untouched, so cached problem templates stay
        valid and no churn is charged — the ring moves only when a site
        actually enters or leaves service.
        """
        site = self.site(name)
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
            self._rebuild_ring()

    def ring_snapshot(self):
        """Freeze the current ring state (see :meth:`ConsistentHashRing.snapshot`)."""
        from ..core.anycast import RingSnapshot

        return RingSnapshot(
            positions=tuple(int(p) for p in self._ring_positions),
            owners=tuple(self.sites[i].name for i in self._ring_owner_index),
        )

    def ring_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ring's (positions, owner indices) arrays, cheap to snapshot.

        Rebuilds allocate fresh arrays, so holding the returned references
        across a membership change is a valid zero-copy snapshot — the fast
        path timelines use for per-epoch churn accounting (the tuple-based
        :meth:`ring_snapshot` stays for API/diagnostic use).
        """
        return self._ring_positions, self._ring_owner_index

    @staticmethod
    def ring_moved_fraction(before: Tuple[np.ndarray, np.ndarray],
                            after: Tuple[np.ndarray, np.ndarray]) -> float:
        """Hash-space fraction whose owner differs between two ring states.

        Same arc semantics as :meth:`repro.core.anycast.RingSnapshot.diff` —
        both delegate to :func:`repro.core.anycast.arc_moved_fraction` —
        but operating directly on the position/owner-index arrays from
        :meth:`ring_state`, with no tuple conversion.
        """
        from ..core.anycast import ConsistentHashRing, arc_moved_fraction

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
        """Reset every site's flags to ``snapshot`` (at most one ring rebuild).

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
        before = [site.in_service for site in self.sites]
        for site, (healthy, active) in zip(self.sites, snapshot):
            site.healthy = healthy
            site.active = active
        if [site.in_service for site in self.sites] != before:
            self._rebuild_ring()

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

        Built with the ring on every membership change — read-only.
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
        :func:`repro.core.anycast.ring_locate` (wrapping past the last ring
        point back to the first).
        """
        slots = ring_locate(self._ring_positions, ring_positions)
        slots[slots == len(self._ring_positions)] = 0
        return self._ring_owner_index[slots]

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
        bounds = np.searchsorted(positions_sorted, self._ring_positions, side="right")
        cuts = np.concatenate([
            np.zeros(1, dtype=np.int64),
            bounds.astype(np.int64),
            np.array([positions_sorted.size], dtype=np.int64),
        ])
        owners = np.concatenate([self._ring_owner_index, self._ring_owner_index[:1]])
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
        return self._universe_positions, self._in_ring, self._arc_owners

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

    def describe(self) -> str:
        """One-line summary used by reports and examples."""
        serving = self.in_service_names
        per_site = self.cost_model.data_packets_per_second(self.sites[0].cores)
        return (
            f"fleet of {len(self.sites)} sites ({len(serving)} in service), "
            f"~{per_site:,.0f} pkt/s per site data path"
        )
