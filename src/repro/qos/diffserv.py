"""Differentiated Services (RFC 2475) per-hop behaviours.

Section 3.4: "a discriminatory ISP can still offer differentiated services to
its customers, as a neutralizer will not modify the DSCP in a standard IP
header."  This module maps DSCPs to per-hop behaviours and builds the egress
schedulers that implement them, so experiment E9 can show tiered service
working end-to-end over neutralized traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict

from ..packet.dscp import Dscp, priority_of
from ..packet.packet import Packet
from .schedulers import (
    DeficitRoundRobinScheduler,
    FifoScheduler,
    PriorityScheduler,
    Scheduler,
)


class PerHopBehaviour(Enum):
    """The standard DiffServ PHB groups."""

    EXPEDITED_FORWARDING = "EF"
    ASSURED_FORWARDING = "AF"
    CLASS_SELECTOR = "CS"
    DEFAULT = "BE"


def phb_of(dscp: int) -> PerHopBehaviour:
    """Classify a DSCP value into its PHB group."""
    if dscp == Dscp.EF:
        return PerHopBehaviour.EXPEDITED_FORWARDING
    if dscp in (
        Dscp.AF11, Dscp.AF12, Dscp.AF13,
        Dscp.AF21, Dscp.AF22, Dscp.AF23,
        Dscp.AF31, Dscp.AF32, Dscp.AF33,
        Dscp.AF41, Dscp.AF42, Dscp.AF43,
    ):
        return PerHopBehaviour.ASSURED_FORWARDING
    if dscp in (Dscp.CS1, Dscp.CS2, Dscp.CS3, Dscp.CS4, Dscp.CS5, Dscp.CS6, Dscp.CS7):
        return PerHopBehaviour.CLASS_SELECTOR
    return PerHopBehaviour.DEFAULT


@dataclass(frozen=True)
class ServiceLevelAgreement:
    """A simple SLA a customer buys from its ISP.

    ``dscp`` is the marking the customer is entitled to use; ``rate_bps`` is
    the committed information rate the ISP polices at the access link.  The
    reproduction uses SLAs for the *legitimate* tiered-service experiments and
    to contrast them with non-neutral discrimination.
    """

    customer: str
    dscp: int
    rate_bps: float
    burst_bytes: int = 30_000

    def describe(self) -> str:
        return f"{self.customer}: DSCP {self.dscp} at {self.rate_bps/1e6:.1f} Mbps"


class DiffServDomain:
    """Per-ISP DiffServ configuration: SLAs and scheduler construction."""

    def __init__(self, isp_name: str) -> None:
        self.isp_name = isp_name
        self._slas: Dict[str, ServiceLevelAgreement] = {}

    def add_sla(self, sla: ServiceLevelAgreement) -> None:
        """Register (or replace) a customer's SLA."""
        self._slas[sla.customer] = sla

    def remark(self, packet: Packet, customer: str) -> Packet:
        """Re-mark a packet according to the customer's SLA (edge conditioning).

        Packets from customers without an SLA are re-marked to best effort —
        that is the legitimate DiffServ edge behaviour, as opposed to the
        non-neutral policies in :mod:`repro.discrimination`.
        """
        sla = self._slas.get(customer)
        target_dscp = sla.dscp if sla is not None else int(Dscp.BEST_EFFORT)
        if packet.dscp == target_dscp:
            return packet
        new = packet.copy()
        new.ip = type(new.ip)(
            source=new.ip.source,
            destination=new.ip.destination,
            protocol=new.ip.protocol,
            dscp=target_dscp,
            ecn=new.ip.ecn,
            identification=new.ip.identification,
            ttl=new.ip.ttl,
        )
        return new

    @staticmethod
    def build_scheduler(kind: str = "priority", **kwargs) -> Scheduler:
        """Build an egress scheduler implementing the domain's PHBs.

        ``kind`` is one of ``"fifo"``, ``"priority"``, ``"drr"``.
        """
        if kind == "fifo":
            return FifoScheduler(**kwargs)
        if kind == "priority":
            return PriorityScheduler(**kwargs)
        if kind == "drr":
            return DeficitRoundRobinScheduler(**kwargs)
        raise ValueError(f"unknown scheduler kind {kind!r}")


def expected_priority_order(dscps) -> bool:
    """Return ``True`` if the iterable of DSCPs is sorted from high to low priority.

    Experiment helpers use this to assert that observed per-class latencies
    respect the configured tiering.
    """
    priorities = [priority_of(d) for d in dscps]
    return all(a >= b for a, b in zip(priorities, priorities[1:]))
