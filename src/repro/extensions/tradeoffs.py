"""Analytical security/cost tradeoffs for the key-setup design (§3.2).

Wraps the raw cost functions from :mod:`repro.crypto.rsa` into the
neutralizer-specific questions the paper raises: is the one-time key's
exposure window (two RTTs until ``Ks'`` arrives) comfortably below the time
an attacker needs to factor it, and how does the answer move with key size,
RTT, and attacker capability?  Used by experiment E7 and the keysize ablation
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.keysetup import attacker_window_seconds
from ..crypto.rsa import (
    encryption_cost_multiplications,
    estimate_factoring_cost,
    symmetric_equivalent_bits,
)


@dataclass(frozen=True)
class TradeoffPoint:
    """One (key size, RTT, attacker capability) evaluation."""

    rsa_bits: int
    rtt_seconds: float
    attacker_ops_per_second: float

    @property
    def exposure_window_seconds(self) -> float:
        """How long the weak key must resist (two RTTs, §3.2)."""
        return attacker_window_seconds(self.rtt_seconds)

    @property
    def factoring_seconds(self) -> float:
        """Estimated time for the attacker to factor the modulus."""
        return estimate_factoring_cost(self.rsa_bits, self.attacker_ops_per_second)

    @property
    def safety_margin(self) -> float:
        """Factoring time over exposure window (values >> 1 mean the design holds)."""
        if self.exposure_window_seconds <= 0:
            return float("inf")
        return self.factoring_seconds / self.exposure_window_seconds

    @property
    def is_safe(self) -> bool:
        """Conservative check: at least a 10^6x margin."""
        return self.safety_margin >= 1e6

    @property
    def neutralizer_cost_multiplications(self) -> int:
        """Modular multiplications per key setup at the neutralizer (e = 3)."""
        return encryption_cost_multiplications(3, self.rsa_bits)

    @property
    def symmetric_equivalent(self) -> float:
        """Symmetric-key-strength equivalent of the modulus size."""
        return symmetric_equivalent_bits(self.rsa_bits)


def sweep(
    key_sizes: Sequence[int] = (384, 512, 768, 1024),
    rtts: Sequence[float] = (0.02, 0.1, 0.5),
    attacker_ops_per_second: float = 1e12,
) -> List[TradeoffPoint]:
    """Evaluate the tradeoff over a grid of key sizes and RTTs."""
    return [
        TradeoffPoint(rsa_bits=bits, rtt_seconds=rtt,
                      attacker_ops_per_second=attacker_ops_per_second)
        for bits in key_sizes
        for rtt in rtts
    ]


def minimum_safe_key_bits(
    rtt_seconds: float,
    attacker_ops_per_second: float,
    candidates: Sequence[int] = (384, 512, 768, 1024, 1536, 2048),
) -> int:
    """Smallest candidate key size whose safety margin is acceptable."""
    for bits in sorted(candidates):
        point = TradeoffPoint(bits, rtt_seconds, attacker_ops_per_second)
        if point.is_safe:
            return bits
    return max(candidates)
