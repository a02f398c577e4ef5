"""Discrimination rules, actions, and policies.

A :class:`DiscriminationRule` pairs a :class:`MatchCriteria` with an action —
drop, delay, throttle, or deprioritize — and its parameters.  A
:class:`DiscriminationPolicy` is an ordered rule list evaluated first-match.
The policy object also keeps per-rule hit statistics, which the experiment
reports use to quantify how much traffic a rule touched (and, for neutralized
traffic, how much *collateral* traffic a blunt rule had to touch to affect its
intended victim — the §3.6 argument made measurable).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

from ..packet.dscp import Dscp
from ..packet.packet import Packet
from ..qos.schedulers import TokenBucket
from .classifier import MatchCriteria
from .dpi import InspectionReport, inspect


class Action(Enum):
    """What a matching rule does to a packet."""

    ALLOW = "allow"
    DROP = "drop"
    DELAY = "delay"
    THROTTLE = "throttle"
    DEPRIORITIZE = "deprioritize"


@dataclass
class DiscriminationRule:
    """One rule of a discriminatory ISP's policy."""

    criteria: MatchCriteria
    action: Action
    #: Extra one-way delay added by DELAY rules, in seconds.
    delay_seconds: float = 0.0
    #: Drop probability applied by DROP rules (1.0 = always drop).
    drop_probability: float = 1.0
    #: Rate cap enforced by THROTTLE rules, in bits per second.
    throttle_rate_bps: float = 0.0
    #: DSCP that DEPRIORITIZE rules rewrite to (scavenger class by default).
    deprioritize_dscp: int = int(Dscp.CS1)
    #: Free-form note describing the business intent (shown in reports).
    intent: str = ""

    def __post_init__(self) -> None:
        if self.action == Action.DELAY and self.delay_seconds <= 0:
            raise ValueError("DELAY rules need a positive delay_seconds")
        if self.action == Action.THROTTLE and self.throttle_rate_bps <= 0:
            raise ValueError("THROTTLE rules need a positive throttle_rate_bps")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be within [0, 1]")

    @property
    def name(self) -> str:
        """Rule display name (from its criteria)."""
        return self.criteria.name


@dataclass
class RuleStatistics:
    """Hit counters for one rule."""

    matched_packets: int = 0
    matched_bytes: int = 0
    dropped_packets: int = 0
    delayed_packets: int = 0
    deprioritized_packets: int = 0


class DiscriminationPolicy:
    """An ordered, first-match rule list with hit statistics."""

    def __init__(self, name: str, rules: Optional[List[DiscriminationRule]] = None) -> None:
        self.name = name
        self.rules: List[DiscriminationRule] = list(rules or [])
        self.statistics: Dict[str, RuleStatistics] = {
            rule.name: RuleStatistics() for rule in self.rules
        }
        #: Token buckets for THROTTLE rules, keyed by rule name.
        self._buckets: Dict[str, TokenBucket] = {}
        self.total_packets_seen = 0

    def evaluate(
        self, packet: Packet, report: Optional[InspectionReport] = None
    ) -> Optional[DiscriminationRule]:
        """Return the first matching rule, updating match statistics."""
        matches = self.evaluate_all(packet, report)
        return matches[0] if matches else None

    def evaluate_all(
        self, packet: Packet, report: Optional[InspectionReport] = None
    ) -> List[DiscriminationRule]:
        """Return every matching rule in order, updating match statistics."""
        self.total_packets_seen += 1
        report = report if report is not None else inspect(packet)
        matched: List[DiscriminationRule] = []
        for rule in self.rules:
            if rule.criteria.matches(packet, report):
                stats = self.statistics[rule.name]
                stats.matched_packets += 1
                stats.matched_bytes += packet.size_bytes
                matched.append(rule)
        return matched

    def bucket_for(self, rule: DiscriminationRule) -> TokenBucket:
        """Return (creating on first use) the token bucket of a THROTTLE rule."""
        if rule.name not in self._buckets:
            self._buckets[rule.name] = TokenBucket(
                rate_bytes_per_second=rule.throttle_rate_bps / 8.0,
                burst_bytes=max(3000, int(rule.throttle_rate_bps / 8.0 * 0.1)),
            )
        return self._buckets[rule.name]

    def stats_for(self, rule_name: str) -> RuleStatistics:
        """Return the statistics of the named rule."""
        return self.statistics[rule_name]

    def describe(self) -> str:
        """Multi-line summary for reports."""
        lines = [f"Policy {self.name!r} ({len(self.rules)} rules):"]
        for rule in self.rules:
            stats = self.statistics[rule.name]
            lines.append(
                f"  [{rule.action.value:>12}] {rule.name}: matched "
                f"{stats.matched_packets} pkts / {stats.matched_bytes} B"
                + (f"  # {rule.intent}" if rule.intent else "")
            )
        return "\n".join(lines)


# -- policies the paper talks about, as ready-made constructors ---------------------------


def degrade_competitor_policy(
    competitor_address, *, extra_delay_seconds: float = 0.150, drop_probability: float = 0.25,
    intent: str = "degrade competing VoIP so our own offering wins",
) -> DiscriminationPolicy:
    """The §1 scenario: intentionally degrade a competitor's service.

    Matches everything involving the competitor's address and both delays and
    randomly drops it — enough to ruin interactive applications while staying
    subtle ("a user ... might not bother to switch").
    """
    from .classifier import criteria_for_destination

    return DiscriminationPolicy(
        name="degrade-competitor",
        rules=[
            DiscriminationRule(
                criteria=criteria_for_destination(
                    competitor_address, name=f"delay competitor {competitor_address}"
                ),
                action=Action.DELAY,
                delay_seconds=extra_delay_seconds,
                intent=intent,
            ),
            DiscriminationRule(
                criteria=criteria_for_destination(
                    competitor_address, name=f"drop competitor {competitor_address}"
                ),
                action=Action.DROP,
                drop_probability=drop_probability,
                intent=intent,
            ),
        ],
    )


def delay_dns_policy(query_name: str, delay_seconds: float = 0.5) -> DiscriminationPolicy:
    """The §3.1 attack: delay cleartext DNS queries for a specific site."""
    from .classifier import criteria_for_dns_name

    return DiscriminationPolicy(
        name=f"delay-dns-{query_name}",
        rules=[
            DiscriminationRule(
                criteria=criteria_for_dns_name(query_name),
                action=Action.DELAY,
                delay_seconds=delay_seconds,
                intent=f"slow lookups of {query_name} (site did not pay)",
            )
        ],
    )


def throttle_neutral_isp_policy(prefix, rate_bps: float,
                                intent: str = "squeeze the neutral ISP as a whole") -> DiscriminationPolicy:
    """Residual §3.6 case 1: throttle everything to/from the neutral ISP's prefix."""
    from .classifier import criteria_for_prefix

    return DiscriminationPolicy(
        name="throttle-neutral-isp",
        rules=[
            DiscriminationRule(
                criteria=criteria_for_prefix(prefix),
                action=Action.THROTTLE,
                throttle_rate_bps=rate_bps,
                intent=intent,
            )
        ],
    )


def throttle_encrypted_policy(rate_bps: float) -> DiscriminationPolicy:
    """Residual §3.6 case 2: throttle encrypted traffic as a class."""
    from .classifier import criteria_for_encrypted_traffic

    return DiscriminationPolicy(
        name="throttle-encrypted",
        rules=[
            DiscriminationRule(
                criteria=criteria_for_encrypted_traffic(),
                action=Action.THROTTLE,
                throttle_rate_bps=rate_bps,
                intent="penalize traffic we cannot inspect",
            )
        ],
    )


def drop_key_setup_policy(drop_probability: float = 1.0) -> DiscriminationPolicy:
    """Residual §3.6 case 3: interfere with neutralizer key-setup packets."""
    from .classifier import criteria_for_key_setup

    return DiscriminationPolicy(
        name="drop-key-setup",
        rules=[
            DiscriminationRule(
                criteria=criteria_for_key_setup(),
                action=Action.DROP,
                drop_probability=drop_probability,
                intent="break the neutralizer bootstrap",
            )
        ],
    )
