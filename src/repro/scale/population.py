"""Client populations as vectorized aggregate demand.

This is the demand side of the paper's §4 scaling argument ("an ISP with
millions of subscribers"): a population is millions of clients, each
belonging to one *demand class*
(VoIP, web, video — rates and packet sizes mirroring the corresponding
:mod:`repro.apps` models, the VoIP codec read from :mod:`repro.units`, plus
the neutralizer's wire overhead from :mod:`repro.packet.headers`) and one access
*region* (an aggregate of access links sharing a regional uplink).  Nothing
is simulated per client; the population keeps one byte per client — the
fused ``region * n_classes + class`` bin, drawn deterministically from a
seed — and derives each client's ring position from its identity (seed and
index) whenever a pass needs it, the way the paper's neutralizer derives
per-source state with a stateless KDF instead of keeping a table.  A million
clients fit in 1 MB and aggregate in milliseconds; they are drawn, hashed
and counted in fixed-size chunks, so nothing else of population size is
ever allocated.  The one per-client pass a campaign needs
(:meth:`ClientPopulation.arc_histogram`) runs once per (population, ring
universe), after which ring changes are served from that per-arc histogram
and touch no per-client data.  Clients are placed
with the fleet's :func:`repro.scale.fleet.ring_locate`; nothing here imports
the packet-level simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import WorkloadError
from ..packet.headers import IPV4_HEADER_LEN, UDP_HEADER_LEN, expected_data_overhead_bytes
from ..units import BITS_PER_BYTE, DEFAULT_PACKET_INTERVAL, DEFAULT_PAYLOAD_BYTES
from .fleet import ring_locate

#: Bytes the neutralized data shim adds on the wire, straight from the shim
#: layout so the fluid model can never drift from the packet-level one.
SHIM_DATA_OVERHEAD_BYTES = expected_data_overhead_bytes()

#: Clients per step of every per-client pass (draw, hash, count, histogram):
#: the temporaries of one step are ~1 MB each and stay in cache, and no pass
#: allocates anything that grows with the population.
_CHUNK_CLIENTS = 1 << 17


def neutralized_wire_bytes(payload_bytes: int) -> int:
    """On-the-wire size of a neutralized UDP payload of ``payload_bytes``."""
    return IPV4_HEADER_LEN + SHIM_DATA_OVERHEAD_BYTES + UDP_HEADER_LEN + payload_bytes


@dataclass(frozen=True)
class DemandClass:
    """Aggregate traffic description of one application class.

    ``packets_per_second`` and ``packet_bytes`` describe one *active* client;
    ``duty_cycle`` is the fraction of subscribed clients active at the busy
    instant, so a class's fluid demand is ``clients × duty × rate``.

    ``elastic`` marks a congestion-controlled (TCP-like) class: its rate is
    the *peak* one client takes when uncongested, and under congestion the
    class backs off to the alpha-fair share (``alpha`` ~2 is TCP-like, 1 is
    proportional fairness, ``math.inf`` is max-min) instead of having its
    fixed offered rate shed max-min by the domain.
    """

    name: str
    packets_per_second: float
    packet_bytes: int
    duty_cycle: float = 1.0
    #: Fresh key setups per client-hour (sessions, refreshes, mobility).
    key_setups_per_hour: float = 4.0
    #: Whether the class adapts to congestion (TCP-like) or offers a fixed
    #: rate (CBR media).
    elastic: bool = False
    #: Fairness parameter of an elastic class's congestion response.
    alpha: float = 2.0

    def __post_init__(self) -> None:
        if self.packets_per_second <= 0 or self.packet_bytes <= 0:
            raise WorkloadError("demand class rate and packet size must be positive")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise WorkloadError("duty cycle must be in (0, 1]")
        if self.alpha <= 0:
            raise WorkloadError("alpha must be positive")

    @property
    def mean_packets_per_second(self) -> float:
        """Busy-instant mean rate of one subscribed client (duty applied)."""
        return self.packets_per_second * self.duty_cycle


def voip_class() -> DemandClass:
    """G.711-like VoIP: the codec of :mod:`repro.apps.voip`, always on-call."""
    return DemandClass(
        name="voip",
        packets_per_second=1.0 / DEFAULT_PACKET_INTERVAL,
        packet_bytes=neutralized_wire_bytes(DEFAULT_PAYLOAD_BYTES),
        duty_cycle=0.05,
        key_setups_per_hour=6.0,
    )


def web_class() -> DemandClass:
    """Bursty page fetches: the paced 1200-byte responses of :mod:`repro.apps.web`."""
    return DemandClass(
        name="web",
        packets_per_second=40.0,
        packet_bytes=neutralized_wire_bytes(1200),
        duty_cycle=0.08,
        key_setups_per_hour=12.0,
    )


def video_class() -> DemandClass:
    """CBR streaming: the 2 Mb/s, 1200-byte segments of :mod:`repro.apps.video`."""
    segment_bytes = 1200
    bitrate_bps = 2_000_000.0
    return DemandClass(
        name="video",
        packets_per_second=bitrate_bps / (segment_bytes * BITS_PER_BYTE),
        packet_bytes=neutralized_wire_bytes(segment_bytes),
        duty_cycle=0.10,
        key_setups_per_hour=2.0,
    )


@dataclass(frozen=True)
class PopulationMix:
    """Named demand classes plus the fraction of clients subscribed to each."""

    classes: Tuple[DemandClass, ...]
    fractions: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.classes) != len(self.fractions) or not self.classes:
            raise WorkloadError("mix needs one fraction per class")
        total = sum(self.fractions)
        if abs(total - 1.0) > 1e-9 or min(self.fractions) < 0:
            raise WorkloadError(f"mix fractions must be non-negative and sum to 1, got {total}")

    @property
    def names(self) -> List[str]:
        """Class names in mix order."""
        return [cls.name for cls in self.classes]


def default_mix() -> PopulationMix:
    """The default subscriber mix: mostly web, a video tail, some VoIP."""
    return PopulationMix(
        classes=(voip_class(), web_class(), video_class()),
        fractions=(0.2, 0.5, 0.3),
    )


def elastic_mix() -> PopulationMix:
    """The default mix with TCP-like web and video, CBR VoIP kept inelastic.

    The realistic split: page fetches and streaming ride congestion control
    (their rates are peaks they back off from, at alpha = 2), while the VoIP
    codec keeps emitting at its fixed rate and the domain sheds its excess
    max-min.
    """
    return PopulationMix(
        classes=(
            voip_class(),
            replace(web_class(), elastic=True, alpha=2.0),
            replace(video_class(), elastic=True, alpha=2.0),
        ),
        fractions=(0.2, 0.5, 0.3),
    )


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 mixer over a scratch uint64 array, in place: uniform
    ring positions."""
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _choice_cdf(fractions: np.ndarray) -> np.ndarray:
    """The table ``Generator.choice(k, p=fractions)`` searches: ``choice``
    *is* ``cdf.searchsorted(random(n), side="right")`` on this cdf."""
    cdf = np.cumsum(np.asarray(fractions, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf


class ClientPopulation:
    """A seeded population of clients: one stored bin per client, ring
    positions derived from identity."""

    def __init__(
        self,
        n_clients: int,
        *,
        mix: Optional[PopulationMix] = None,
        regions: int = 8,
        seed: int = 2006,
    ) -> None:
        if n_clients <= 0:
            raise WorkloadError("population must have at least one client")
        if regions <= 0:
            raise WorkloadError("population needs at least one access region")
        if not 0 <= int(seed) < 2**64:
            raise WorkloadError("population seed must be in [0, 2**64)")
        self._describe(n_clients, mix, regions, seed)

        # The classes and regions are ``rng.choice(classes, n, p=fractions)``
        # then ``rng.choice(regions, n, p=weights)`` on one
        # ``default_rng(seed)`` stream, drawn a chunk at a time: ``choice``
        # spends one uniform per client, so a second cursor on the same
        # seed, advanced past the class column's n draws, yields the region
        # column bit for bit.  Each client keeps only the fused bin.
        class_rng = np.random.default_rng(self.seed)
        region_rng = np.random.default_rng(self.seed)
        region_rng.bit_generator.advance(self.n_clients)
        class_cdf = _choice_cdf(self.mix.fractions)
        # Regions are deliberately uneven (metro vs rural): weights 1/(k+1).
        weights = 1.0 / (np.arange(self.regions, dtype=np.float64) + 1.0)
        region_cdf = _choice_cdf(weights / weights.sum())

        self._bins = np.empty(self.n_clients, dtype=self._bin_dtype())
        bin_counts = np.zeros(self.regions * self.n_classes, dtype=np.int64)
        for start in range(0, self.n_clients, _CHUNK_CLIENTS):
            stop = min(start + _CHUNK_CLIENTS, self.n_clients)
            fused = region_cdf.searchsorted(region_rng.random(stop - start), side="right")
            fused *= self.n_classes
            fused += class_cdf.searchsorted(class_rng.random(stop - start), side="right")
            self._bins[start:stop] = fused
            bin_counts += np.bincount(fused, minlength=bin_counts.size)
        self._positions: Optional[np.ndarray] = None
        self._set_counts(bin_counts)

    @classmethod
    def from_arrays(
        cls,
        *,
        mix: Optional[PopulationMix],
        regions: int,
        seed: int,
        class_index: np.ndarray,
        region_index: np.ndarray,
        ring_positions: np.ndarray,
    ) -> "ClientPopulation":
        """A population of given clients, no RNG draw.

        How a test puts clients at chosen ring positions (on, just below
        and just above the fleet's ring points): the positions are adopted
        as-is, in place of the identity derivation, and the class and
        region columns are fused into the stored bins.  ``seed`` is
        recorded, not used: only a seeded :class:`ClientPopulation` build
        carries its determinism guarantees.
        """
        if class_index.shape != region_index.shape or \
                class_index.shape != ring_positions.shape:
            raise WorkloadError("population arrays must have matching shapes")
        population = cls.__new__(cls)
        population._describe(class_index.size, mix, regions, seed)
        fused = region_index.astype(np.int64) * population.n_classes + class_index
        population._bins = fused.astype(population._bin_dtype())
        population._positions = ring_positions
        population._set_counts(np.bincount(
            fused, minlength=population.regions * population.n_classes))
        return population

    def _describe(self, n_clients: int, mix: Optional[PopulationMix],
                  regions: int, seed: int) -> None:
        """The recipe: what the population is drawn from."""
        self.n_clients = int(n_clients)
        self.mix = mix or default_mix()
        self.regions = int(regions)
        self.seed = int(seed)
        self._arc_histograms: Dict[bytes, np.ndarray] = {}

    def _bin_dtype(self) -> np.dtype:
        """The smallest unsigned dtype that holds every bin (uint8 for 8 × 3)."""
        return np.min_scalar_type(self.regions * self.n_classes - 1)

    def _set_counts(self, bin_counts: np.ndarray) -> None:
        """Clients per class and per region, from clients per bin; read-only."""
        grid = bin_counts.reshape(self.regions, self.n_classes)
        self._class_counts = grid.sum(axis=0)
        self._region_counts = grid.sum(axis=1)
        for counts in (self._class_counts, self._region_counts):
            counts.setflags(write=False)

    def _ring_positions(self, start: int, stop: int) -> np.ndarray:
        """Ring positions of clients ``start..stop-1``, a fresh uint64 array.

        A position comes from client identity, not the rng stream, so a
        client keeps its site when the population is re-drawn larger: the
        splitmix64 of its index plus a seed offset, which wraps modulo 2^64
        like the identities it is added to.
        """
        if self._positions is not None:
            return self._positions[start:stop]
        identities = np.arange(start, stop, dtype=np.uint64)
        identities += np.uint64((self.seed * 0x1000003) & (2**64 - 1))
        return _splitmix64(identities)

    # -- per-client views, built on demand and kept by nobody ---------------------

    @property
    def class_index(self) -> np.ndarray:
        """Per client, its demand class (int32); built on each read."""
        return (self._bins % self.n_classes).astype(np.int32)

    @property
    def region_index(self) -> np.ndarray:
        """Per client, its access region (int32); built on each read."""
        return (self._bins // self.n_classes).astype(np.int32)

    @property
    def ring_positions(self) -> np.ndarray:
        """Per client, its uint64 ring position; built on each read."""
        positions = np.empty(self.n_clients, dtype=np.uint64)
        for start in range(0, self.n_clients, _CHUNK_CLIENTS):
            stop = min(start + _CHUNK_CLIENTS, self.n_clients)
            positions[start:stop] = self._ring_positions(start, stop)
        return positions

    # -- aggregation -----------------------------------------------------------------

    @property
    def n_classes(self) -> int:
        """Number of demand classes in the mix."""
        return len(self.mix.classes)

    def class_counts(self) -> np.ndarray:
        """Subscribed clients per demand class (counted while drawing)."""
        return self._class_counts

    def region_counts(self) -> np.ndarray:
        """Subscribed clients per access region (counted while drawing)."""
        return self._region_counts

    def group_counts(self, site_index: np.ndarray, n_sites: int) -> np.ndarray:
        """Client counts per (region, class, site) given a site assignment.

        Returns a dense ``(regions, classes, sites)`` array computed by one
        ``bincount`` over a fused index — the only per-client pass needed to
        build a fluid problem.
        """
        if site_index.shape != (self.n_clients,):
            raise WorkloadError("site assignment must cover every client")
        fused = self._bins.astype(np.int64) * n_sites + site_index
        counts = np.bincount(fused, minlength=self.regions * self.n_classes * n_sites)
        return counts.reshape(self.regions, self.n_classes, n_sites)

    def arc_histogram(self, universe: np.ndarray) -> np.ndarray:
        """Clients per (arc of ``universe``, region×class bin): the one
        per-client pass a campaign makes.

        ``universe`` is a sorted uint64 array of ring points
        (:meth:`repro.scale.fleet.NeutralizerFleet.universe_arcs`); a client
        lies in arc ``i`` iff exactly ``i`` of them are below its position
        (the last arc wraps), and a bin is the fused ``region * n_classes +
        class`` index.  Returns a read-only ``(len(universe) + 1, regions *
        n_classes)`` int64 table, counted in chunks — derive positions,
        locate, add the stored bins, ``bincount`` — so the pass is
        O(n_clients) time and O(chunk) extra memory, with no sort.
        Memoised per distinct universe: every scenario, timeline and
        Monte-Carlo replica whose fleet hashes to the same points shares one
        table, and fleet membership changes cost O(ring points × bins) and
        never come back here.
        """
        key = universe.tobytes()
        histogram = self._arc_histograms.get(key)
        if histogram is None:
            bins = self.regions * self.n_classes
            flat = np.zeros((universe.size + 1) * bins, dtype=np.int64)
            for start in range(0, self.n_clients, _CHUNK_CLIENTS):
                stop = min(start + _CHUNK_CLIENTS, self.n_clients)
                fused = ring_locate(universe, self._ring_positions(start, stop))
                fused *= bins
                fused += self._bins[start:stop]
                flat += np.bincount(fused, minlength=flat.size)
            histogram = flat.reshape(universe.size + 1, bins)
            histogram.setflags(write=False)
            self._arc_histograms[key] = histogram
        return histogram

    def ring_sorted(self) -> Tuple[np.ndarray, np.ndarray]:
        """The population reordered by ring position, built on each call.

        Returns ``(positions, region_class)``, both in ascending
        ring-position order; ``region_class`` is the fused
        ``region * n_classes + class`` index (int64) used for group
        counting.  With clients sorted this way, a consistent-hash
        assignment is a *segment structure* — ``searchsorted`` of the ring's
        points into the client positions
        (:meth:`repro.scale.fleet.NeutralizerFleet.assignment_segments`).
        A view for diagnostics and tests, on no campaign path: it costs an
        O(n log n) sort and two population-sized columns, which the
        population does not keep, where :meth:`arc_histogram` gives a
        campaign the same counts without either.
        """
        positions = self.ring_positions
        order = np.argsort(positions, kind="stable")
        return positions[order], self._bins[order].astype(np.int64)

    def demand_pps_per_client(self) -> np.ndarray:
        """Busy-instant packets/s of one subscribed client, per class."""
        return np.array([cls.mean_packets_per_second for cls in self.mix.classes])

    def packet_bits(self) -> np.ndarray:
        """Wire bits per packet, per class."""
        return np.array(
            [cls.packet_bytes * BITS_PER_BYTE for cls in self.mix.classes], dtype=np.float64
        )

    def key_setup_rate_per_client(self) -> np.ndarray:
        """Key-setup requests per second of one subscribed client, per class."""
        return np.array([cls.key_setups_per_hour / 3600.0 for cls in self.mix.classes])

    def class_elastic(self) -> np.ndarray:
        """Per-class elasticity flags (True = TCP-like congestion response)."""
        return np.array([cls.elastic for cls in self.mix.classes], dtype=bool)

    def class_alpha(self) -> np.ndarray:
        """Per-class alpha-fairness parameters."""
        return np.array([cls.alpha for cls in self.mix.classes], dtype=np.float64)
