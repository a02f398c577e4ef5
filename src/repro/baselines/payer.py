"""The "pay every access provider" non-solution, as an economics model.

Section 1 sketches the alternative to a technical fix: "individual innovators
that can afford to pay (say Google) might choose to pay every access provider
to avoid appearing slow to users.  However, it's unclear whether there is
sufficient market force to regulate the price Google needs to pay, because
once a user has chosen his access provider, that access provider becomes a
monopoly to Google."

This module turns that paragraph into a simple, explicit cost model so the E5
report can contrast the neutralizer (one-time engineering cost, no per-ISP
rent) with paying termination fees to every access monopoly.  The model is
deliberately transparent: every parameter is an input, nothing is fitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class AccessProvider:
    """One access ISP from the paying innovator's point of view."""

    name: str
    subscribers: int
    #: Monthly fee the ISP asks per subscriber reached at full speed.
    fee_per_subscriber: float
    #: Fraction of the innovator's users behind this ISP that churn away if
    #: the service appears slow (used for the "refuse to pay" branch).
    churn_if_degraded: float = 0.3


@dataclass
class PayerOutcome:
    """Cost and reach of one strategy."""

    strategy: str
    monthly_cost: float
    users_reached_full_speed: int
    users_lost: int


class PayEveryIspModel:
    """Compare paying every ISP vs deploying behind a neutral ISP."""

    def __init__(self, providers: List[AccessProvider],
                 *, neutral_transit_monthly_cost: float = 0.0) -> None:
        if not providers:
            raise ValueError("the model needs at least one access provider")
        self.providers = list(providers)
        self.neutral_transit_monthly_cost = neutral_transit_monthly_cost

    @property
    def total_subscribers(self) -> int:
        """All subscribers across providers."""
        return sum(provider.subscribers for provider in self.providers)

    def pay_everyone(self) -> PayerOutcome:
        """Pay each access monopoly the asking price."""
        cost = sum(p.subscribers * p.fee_per_subscriber for p in self.providers)
        return PayerOutcome(
            strategy="pay every access ISP",
            monthly_cost=cost,
            users_reached_full_speed=self.total_subscribers,
            users_lost=0,
        )

    def pay_none(self) -> PayerOutcome:
        """Refuse to pay: every discriminating ISP degrades, some users churn."""
        lost = sum(int(p.subscribers * p.churn_if_degraded) for p in self.providers)
        return PayerOutcome(
            strategy="pay no one (accept degradation)",
            monthly_cost=0.0,
            users_reached_full_speed=0,
            users_lost=lost,
        )

    def use_neutralizer(self) -> PayerOutcome:
        """Buy transit from a neutral ISP that runs the neutralizer service."""
        return PayerOutcome(
            strategy="neutral ISP + neutralizer",
            monthly_cost=self.neutral_transit_monthly_cost,
            users_reached_full_speed=self.total_subscribers,
            users_lost=0,
        )

    def monopoly_price_sensitivity(self, multipliers: List[float]) -> Dict[float, float]:
        """Total monthly cost of paying everyone as each ISP scales its ask.

        Demonstrates the "access provider becomes a monopoly to Google" point:
        there is no competitive ceiling on the fee, so the cost grows linearly
        with whatever the monopolies decide to charge.
        """
        base = self.pay_everyone().monthly_cost
        return {multiplier: base * multiplier for multiplier in multipliers}

    def compare(self) -> List[PayerOutcome]:
        """All three strategies side by side (rows of the E5 economics table)."""
        return [self.pay_everyone(), self.pay_none(), self.use_neutralizer()]
