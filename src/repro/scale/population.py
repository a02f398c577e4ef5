"""Client populations as vectorized aggregate demand.

This is the demand side of the paper's §4 scaling argument ("an ISP with
millions of subscribers"): a population is millions of clients, each
belonging to one *demand class*
(VoIP, web, video — rates and packet sizes taken from the corresponding
:mod:`repro.apps` models plus the neutralizer's wire overhead) and one access
*region* (an aggregate of access links sharing a regional uplink).  Nothing
is simulated per client; the population is three numpy arrays — class index,
region index, ring position — drawn deterministically from a seed, and every
downstream consumer (fleet assignment, demand aggregation) is a vectorized
reduction over them.  A million clients fit in 16 MB and aggregate in
milliseconds; they are drawn, hashed and counted in fixed-size chunks, so
nothing else of population size is ever allocated.  The one per-client
pass a campaign needs (:meth:`ClientPopulation.arc_histogram`) runs once
per (population, ring universe), after which ring changes are served from
that per-arc histogram and touch no per-client array.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..apps.voip import DEFAULT_PACKET_INTERVAL, DEFAULT_PAYLOAD_BYTES
from ..core.anycast import ring_locate
from ..core.shim import expected_data_overhead_bytes
from ..exceptions import WorkloadError
from ..packet.headers import IPV4_HEADER_LEN, UDP_HEADER_LEN
from ..units import BITS_PER_BYTE

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
    def bits_per_second(self) -> float:
        """Wire bits per second of one active client."""
        return self.packets_per_second * self.packet_bytes * BITS_PER_BYTE

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


def elastic_mix(*, web_alpha: float = 2.0, video_alpha: float = 2.0) -> PopulationMix:
    """The default mix with TCP-like web and video, CBR VoIP kept inelastic.

    The realistic split: page fetches and streaming ride congestion control
    (their rates are peaks they back off from), while the VoIP codec keeps
    emitting at its fixed rate and the domain sheds its excess max-min.
    """
    return PopulationMix(
        classes=(
            voip_class(),
            replace(web_class(), elastic=True, alpha=web_alpha),
            replace(video_class(), elastic=True, alpha=video_alpha),
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
    """A seeded population of clients, materialized as numpy arrays."""

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
        self.n_clients = int(n_clients)
        self.mix = mix or default_mix()
        self.regions = int(regions)
        self.seed = int(seed)

        # The columns are ``rng.choice(classes, n, p=fractions)`` then
        # ``rng.choice(regions, n, p=weights)`` on one ``default_rng(seed)``
        # stream, drawn a chunk at a time: ``choice`` spends one uniform per
        # client, so a second cursor on the same seed, advanced past the
        # class column's n draws, yields the region column bit for bit.
        class_rng = np.random.default_rng(self.seed)
        region_rng = np.random.default_rng(self.seed)
        region_rng.bit_generator.advance(self.n_clients)
        class_cdf = _choice_cdf(self.mix.fractions)
        # Regions are deliberately uneven (metro vs rural): weights 1/(k+1).
        weights = 1.0 / (np.arange(self.regions, dtype=np.float64) + 1.0)
        region_cdf = _choice_cdf(weights / weights.sum())
        # Ring positions come from client identity, not the rng stream, so a
        # client keeps its site when the population is re-drawn larger.  The
        # offset wraps modulo 2^64 like the identities it is added to.
        offset = np.uint64((self.seed * 0x1000003) & (2**64 - 1))

        self.class_index = np.empty(self.n_clients, dtype=np.int32)
        self.region_index = np.empty(self.n_clients, dtype=np.int32)
        self.ring_positions = np.empty(self.n_clients, dtype=np.uint64)
        class_counts = np.zeros(len(self.mix.classes), dtype=np.int64)
        region_counts = np.zeros(self.regions, dtype=np.int64)
        for start in range(0, self.n_clients, _CHUNK_CLIENTS):
            stop = min(start + _CHUNK_CLIENTS, self.n_clients)
            for column, counts, cdf, rng in (
                    (self.class_index, class_counts, class_cdf, class_rng),
                    (self.region_index, region_counts, region_cdf, region_rng)):
                drawn = cdf.searchsorted(rng.random(stop - start), side="right")
                column[start:stop] = drawn
                counts += np.bincount(drawn, minlength=counts.size)
            identities = np.arange(start, stop, dtype=np.uint64)
            identities += offset
            self.ring_positions[start:stop] = _splitmix64(identities)
        for counts in (class_counts, region_counts):
            counts.setflags(write=False)
        self._client_counts: Optional[Tuple[np.ndarray, np.ndarray]] = (
            class_counts, region_counts)
        self._ring_sorted: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._arc_histograms: Dict[bytes, np.ndarray] = {}

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
        ring_sorted: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> "ClientPopulation":
        """A population wrapping already-materialized arrays, no RNG draw.

        Same clients, same ring positions, zero drawing or copying — how a
        process that maps another's arrays (the shared-memory pack in
        :mod:`repro.scale.parallel`) gets its view of them.  ``ring_sorted``
        optionally pre-seeds the ``(positions, region_class)`` cache of
        :meth:`ring_sorted`, skipping the O(n log n) sort.  The arrays are
        adopted as-is (typically read-only views); callers must pass the
        exact arrays a seeded :class:`ClientPopulation` build produced, or
        downstream determinism guarantees are off.
        """
        if class_index.shape != region_index.shape or \
                class_index.shape != ring_positions.shape:
            raise WorkloadError("population arrays must have matching shapes")
        population = cls.__new__(cls)
        population.n_clients = int(class_index.size)
        population.mix = mix or default_mix()
        population.regions = int(regions)
        population.seed = int(seed)
        population.class_index = class_index
        population.region_index = region_index
        population.ring_positions = ring_positions
        population._ring_sorted = ring_sorted
        population._client_counts = None
        population._arc_histograms = {}
        return population

    # -- aggregation -----------------------------------------------------------------

    @property
    def n_classes(self) -> int:
        """Number of demand classes in the mix."""
        return len(self.mix.classes)

    def _counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Clients per (class, region), counted once and handed out read-only.

        A drawn population counts while it draws; one adopted through
        :meth:`from_arrays` counts here, on first use.  Deterministic from
        the constructor arguments, so the memo needs no invalidation.
        """
        if self._client_counts is None:
            self._client_counts = (
                np.bincount(self.class_index, minlength=self.n_classes),
                np.bincount(self.region_index, minlength=self.regions))
            for counts in self._client_counts:
                counts.setflags(write=False)
        return self._client_counts

    def class_counts(self) -> np.ndarray:
        """Subscribed clients per demand class."""
        return self._counts()[0]

    def region_counts(self) -> np.ndarray:
        """Subscribed clients per access region."""
        return self._counts()[1]

    def _region_class(self) -> np.ndarray:
        """Per client, the fused ``region * n_classes + class`` index (int64)."""
        return self.region_index.astype(np.int64) * self.n_classes + self.class_index

    def group_counts(self, site_index: np.ndarray, n_sites: int) -> np.ndarray:
        """Client counts per (region, class, site) given a site assignment.

        Returns a dense ``(regions, classes, sites)`` array computed by one
        ``bincount`` over a fused index — the only per-client pass needed to
        build a fluid problem.
        """
        if site_index.shape != (self.n_clients,):
            raise WorkloadError("site assignment must cover every client")
        fused = self._region_class() * n_sites + site_index.astype(np.int64)
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
        n_classes)`` int64 table, counted in chunks — locate, fuse,
        ``bincount`` — so the pass is O(n_clients) time and O(chunk) extra
        memory, with no sort.  Memoised per distinct universe: every
        scenario, timeline and Monte-Carlo replica whose fleet hashes to
        the same points shares one table, and fleet membership changes cost
        O(ring points × bins) and never come back here.
        """
        key = universe.tobytes()
        histogram = self._arc_histograms.get(key)
        if histogram is None:
            bins = self.regions * self.n_classes
            flat = np.zeros((universe.size + 1) * bins, dtype=np.int64)
            for start in range(0, self.n_clients, _CHUNK_CLIENTS):
                chunk = slice(start, start + _CHUNK_CLIENTS)
                fused = ring_locate(universe, self.ring_positions[chunk])
                fused *= bins
                fused += self.region_index[chunk] * self.n_classes
                fused += self.class_index[chunk]
                flat += np.bincount(fused, minlength=flat.size)
            histogram = flat.reshape(universe.size + 1, bins)
            histogram.setflags(write=False)
            self._arc_histograms[key] = histogram
        return histogram

    def ring_sorted(self) -> Tuple[np.ndarray, np.ndarray]:
        """The population reordered by ring position, cached after first use.

        Returns ``(positions, region_class)``, both in ascending
        ring-position order; ``region_class`` is the fused
        ``region * n_classes + class`` index used for group counting.  With
        clients sorted this way, a consistent-hash assignment is a *segment
        structure* — ``searchsorted`` of the ring's points into the client
        positions
        (:meth:`repro.scale.fleet.NeutralizerFleet.assignment_segments`).
        A lazy view for diagnostics and tests, on no campaign path: it costs
        an O(n log n) sort and two population-sized columns, where
        :meth:`arc_histogram` gives a campaign the same counts without
        either.
        """
        if self._ring_sorted is None:
            order = np.argsort(self.ring_positions, kind="stable")
            self._ring_sorted = (self.ring_positions[order],
                                 self._region_class()[order])
        return self._ring_sorted

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

    def describe(self) -> str:
        """One-line summary used by reports and examples."""
        per_class = ", ".join(
            f"{name}={count}" for name, count in zip(self.mix.names, self.class_counts())
        )
        return (
            f"population of {self.n_clients} clients over {self.regions} regions "
            f"(seed {self.seed}): {per_class}"
        )
