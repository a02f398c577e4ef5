"""CPU cost model of the neutralizer fast path, in crypto operations.

The fluid simulator needs one number per site: how many neutralized data
packets (and key setups) a box can push per second.  The paper derives that
from primitive rates (2.35 M AES ops/s on the evaluation Opteron); the
reproduction does the same against its own substrate.  The per-packet
operation counts mirror :class:`repro.core.neutralizer.Neutralizer`'s data
path — one Ks derivation, one address decryption (a single AES-CTR block),
and a tag verification — and the per-setup count is one RSA-512 encryption
plus one Ks derivation.

:meth:`CryptoCostModel.default` carries rates measured once with
``benchmarks/bench_crypto.py`` on the development container (fast AES
backend); :meth:`CryptoCostModel.calibrated` re-measures them in-process with
the same :func:`repro.analysis.metrics.measure_throughput` harness, so a
scale experiment can be pinned to the hardware it actually runs on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..exceptions import WorkloadError


@dataclass(frozen=True)
class CryptoCostModel:
    """Primitive rates plus per-operation counts for the neutralizer fast path."""

    #: Single-block AES encryptions per second (one core).
    aes_blocks_per_second: float
    #: Stateless ``Ks = hash(KM, nonce, srcIP)`` derivations per second.
    kdf_ops_per_second: float
    #: RSA-512 public-key encryptions (e = 3) per second.
    rsa512_encryptions_per_second: float
    #: AES block operations on the data path (address decrypt + tag verify).
    aes_blocks_per_data_packet: float = 3.0
    #: Ks derivations per data packet (exactly one: statelessness).
    kdf_ops_per_data_packet: float = 1.0
    #: Ks derivations per key setup (nonce chosen, key derived once).
    kdf_ops_per_key_setup: float = 1.0
    #: RSA encryptions per key setup (the chosen cheap direction, §3.2).
    rsa_encryptions_per_key_setup: float = 1.0

    def __post_init__(self) -> None:
        if min(self.aes_blocks_per_second, self.kdf_ops_per_second,
               self.rsa512_encryptions_per_second) <= 0:
            raise WorkloadError("primitive rates must be positive")

    @property
    def data_packet_cost_seconds(self) -> float:
        """CPU seconds one core spends forwarding one neutralized data packet."""
        return (
            self.aes_blocks_per_data_packet / self.aes_blocks_per_second
            + self.kdf_ops_per_data_packet / self.kdf_ops_per_second
        )

    @property
    def key_setup_cost_seconds(self) -> float:
        """CPU seconds one core spends answering one key-setup request."""
        return (
            self.rsa_encryptions_per_key_setup / self.rsa512_encryptions_per_second
            + self.kdf_ops_per_key_setup / self.kdf_ops_per_second
        )

    def data_packets_per_second(self, cores: float = 1.0) -> float:
        """Sustainable data-path forwarding rate for ``cores`` dedicated cores."""
        return cores / self.data_packet_cost_seconds

    def scaled(self, factor: float) -> "CryptoCostModel":
        """A model whose primitives run ``factor`` times faster (what-if box)."""
        if factor <= 0:
            raise WorkloadError("speed factor must be positive")
        return replace(
            self,
            aes_blocks_per_second=self.aes_blocks_per_second * factor,
            kdf_ops_per_second=self.kdf_ops_per_second * factor,
            rsa512_encryptions_per_second=self.rsa512_encryptions_per_second * factor,
        )

    @classmethod
    def default(cls) -> "CryptoCostModel":
        """Rates measured once on the development container (fast AES backend).

        These are the same quantities ``benchmarks/bench_crypto.py`` times;
        use :meth:`calibrated` to re-measure on the current machine.
        """
        return cls(
            aes_blocks_per_second=1_700_000.0,
            kdf_ops_per_second=330_000.0,
            rsa512_encryptions_per_second=150_000.0,
        )

    @classmethod
    def calibrated(cls, *, iterations: int = 500) -> "CryptoCostModel":
        """Measure the primitive rates in-process on the current machine."""
        from ..analysis.metrics import measure_throughput
        from ..crypto.backend import fast_backend_available, get_cipher
        from ..crypto.kdf import derive_symmetric_key
        from ..crypto.randomness import DeterministicRandom
        from ..crypto.rsa import generate_keypair

        rng = DeterministicRandom(303)
        key = rng.random_bytes(16)
        block = rng.random_bytes(16)
        source = rng.random_bytes(4)
        nonce = rng.nonce()
        cipher = get_cipher(key, backend="fast" if fast_backend_available() else None)
        keypair = generate_keypair(512, rng)
        payload = rng.random_bytes(24)

        aes = measure_throughput(
            "aes block", lambda: cipher.encrypt_block(block), iterations=iterations * 4
        )
        kdf = measure_throughput(
            "ks derivation", lambda: derive_symmetric_key(key, nonce, source),
            iterations=iterations * 4,
        )
        rsa = measure_throughput(
            "rsa-512 encrypt", lambda: keypair.public.encrypt(payload, rng),
            iterations=iterations,
        )
        return cls(
            aes_blocks_per_second=aes.per_second,
            kdf_ops_per_second=kdf.per_second,
            rsa512_encryptions_per_second=rsa.per_second,
        )


@dataclass(frozen=True)
class ProvisioningCostModel:
    """Dollar cost of running (and churning) the fleet, per epoch.

    :class:`CryptoCostModel` prices the fast path in CPU seconds; this model
    prices the *deployment* in dollars, so autoscaling and Monte-Carlo
    campaigns can report a cost distribution next to availability instead of
    assuming capacity is free.  The defaults are commodity-cloud shaped
    (general-purpose core-hours, transit per Gb/s-hour, a fixed per-PoP
    overhead for space/power/peering) — the absolute level is a knob, the
    *ratios* are what make churn-vs-SLO frontiers meaningful.  Remapped
    clients are charged too: every client the hash ring moves performs a
    fresh key setup against its new site (the paper's stateless design makes
    the remap cheap, not free).
    """

    #: Dollars per provisioned core-hour (charged for in-service and
    #: warming sites alike — a box being provisioned is a box being paid for).
    core_hour_usd: float = 0.05
    #: Dollars per Gb/s-hour of provisioned uplink.
    gbps_hour_usd: float = 0.08
    #: Fixed dollars per site-hour (space, power, peering).
    site_hour_usd: float = 0.50
    #: Dollars per thousand remapped clients (fresh key setups at the new site).
    remap_usd_per_thousand: float = 0.01
    #: Price factor for spot-tier capacity relative to reserved.  Spot boxes
    #: ride the same ring at the same capacity — the discount is the whole
    #: point of mixing tiers, and what the cost frontier trades against the
    #: operational story of preemptible capacity.
    spot_multiplier: float = 0.6

    def __post_init__(self) -> None:
        if min(self.core_hour_usd, self.gbps_hour_usd, self.site_hour_usd,
               self.remap_usd_per_thousand) < 0:
            raise WorkloadError("provisioning prices must be non-negative")
        if self.spot_multiplier < 0:
            raise WorkloadError("the spot multiplier must be non-negative")

    def epoch_cost(self, *, cores: float, uplink_bps: float, sites: float,
                   epoch_seconds: float, clients_remapped: int = 0,
                   spot_cores: float = 0.0, spot_uplink_bps: float = 0.0,
                   spot_sites: float = 0.0) -> float:
        """Dollars one epoch costs for the committed capacity plus its churn.

        ``cores``/``uplink_bps``/``sites`` are the reserved-tier sums; the
        ``spot_*`` sums are billed at ``spot_multiplier`` of the same rates.
        """
        hours = epoch_seconds / 3600.0
        return (
            (self.core_hour_usd * cores
             + self.gbps_hour_usd * uplink_bps / 1e9
             + self.site_hour_usd * sites) * hours
            + self.spot_multiplier
            * (self.core_hour_usd * spot_cores
               + self.gbps_hour_usd * spot_uplink_bps / 1e9
               + self.site_hour_usd * spot_sites) * hours
            + self.remap_usd_per_thousand * clients_remapped / 1000.0
        )
