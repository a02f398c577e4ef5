"""Integrated Services (RFC 1633) style per-flow reservations, RSVP-lite.

Section 3.4 notes a real tension: a discriminatory ISP "can no longer keep per
flow state (a flow refers to a source and a destination pair) to provide
guaranteed services to anonymized traffic", and offers two remedies:

1. the neutralizer assigns a **dynamic address** to the customer for the QoS
   session, so the ISP can identify a *flow* without mapping it to a customer;
2. the customer **opts out** of anonymization for that session.

This module models the reservation bookkeeping an ISP keeps (admission control
against link capacity) and the two remedies, so experiment E9's guaranteed-
service variant and the associated unit tests can exercise them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..exceptions import ReservationError
from ..packet.addresses import IPv4Address
from ..packet.packet import Packet


@dataclass(frozen=True)
class FlowSpec:
    """The (source, destination, rate) description of a guaranteed-service flow."""

    source: IPv4Address
    destination: IPv4Address
    rate_bps: float
    token_bucket_bytes: int = 30_000

    @property
    def flow_key(self) -> Tuple[IPv4Address, IPv4Address]:
        """The per-flow key an IntServ router keeps state under."""
        return (self.source, self.destination)


@dataclass
class Reservation:
    """An admitted reservation."""

    spec: FlowSpec
    reservation_id: int
    #: Whether the source address in the spec is a neutralizer-minted dynamic
    #: address (remedy 1) rather than the customer's real address.
    uses_dynamic_address: bool = False


class ReservationTable:
    """Per-router (or per-ISP) admission control and flow-state table."""

    def __init__(self, capacity_bps: float) -> None:
        if capacity_bps <= 0:
            raise ReservationError("capacity must be positive")
        self.capacity_bps = float(capacity_bps)
        self._reservations: Dict[Tuple[IPv4Address, IPv4Address], Reservation] = {}
        self._next_id = 1

    @property
    def reserved_bps(self) -> float:
        """Total rate currently admitted."""
        return sum(r.spec.rate_bps for r in self._reservations.values())

    @property
    def available_bps(self) -> float:
        """Capacity remaining for new reservations."""
        return self.capacity_bps - self.reserved_bps

    def admit(self, spec: FlowSpec, *, uses_dynamic_address: bool = False) -> Reservation:
        """Admit a flow or raise :class:`ReservationError` if capacity is lacking."""
        if spec.rate_bps <= 0:
            raise ReservationError("reservation rate must be positive")
        if spec.rate_bps > self.available_bps:
            raise ReservationError(
                f"insufficient capacity: requested {spec.rate_bps/1e6:.2f} Mbps, "
                f"available {self.available_bps/1e6:.2f} Mbps"
            )
        if spec.flow_key in self._reservations:
            raise ReservationError(f"flow {spec.flow_key} already has a reservation")
        reservation = Reservation(
            spec=spec,
            reservation_id=self._next_id,
            uses_dynamic_address=uses_dynamic_address,
        )
        self._next_id += 1
        self._reservations[spec.flow_key] = reservation
        return reservation

    def release(self, spec: FlowSpec) -> None:
        """Tear down a reservation."""
        if spec.flow_key not in self._reservations:
            raise ReservationError(f"no reservation for flow {spec.flow_key}")
        del self._reservations[spec.flow_key]

    def lookup(self, packet: Packet) -> Optional[Reservation]:
        """Return the reservation matching a packet's visible (src, dst) pair.

        This is exactly the operation that breaks under anonymization: for a
        neutralized packet the visible source is the neutralizer's anycast
        address, so no per-customer flow state can match unless a dynamic
        address (remedy 1) or an opt-out (remedy 2) is used.
        """
        return self._reservations.get((packet.source, packet.destination))

    def flows(self) -> List[Reservation]:
        """All admitted reservations."""
        return list(self._reservations.values())

    def __len__(self) -> int:
        return len(self._reservations)


class DynamicAddressPool:
    """Pool of pseudo-addresses a neutralizer mints for QoS sessions (remedy 1).

    The mapping from dynamic address to real customer address is known only to
    the neutralizer; the discriminatory ISP sees a stable per-flow address it
    can reserve resources for, but cannot tie it to a customer identity.
    """

    def __init__(self, addresses: List[IPv4Address]) -> None:
        if not addresses:
            raise ReservationError("dynamic address pool cannot be empty")
        self._free = list(addresses)
        self._assigned: Dict[IPv4Address, IPv4Address] = {}

    def assign(self, customer: IPv4Address) -> IPv4Address:
        """Assign a dynamic address to ``customer`` (idempotent per customer)."""
        for dynamic, owner in self._assigned.items():
            if owner == customer:
                return dynamic
        if not self._free:
            raise ReservationError("dynamic address pool exhausted")
        dynamic = self._free.pop(0)
        self._assigned[dynamic] = customer
        return dynamic

    def owner_of(self, dynamic: IPv4Address) -> Optional[IPv4Address]:
        """Return the customer behind a dynamic address (neutralizer-side only)."""
        return self._assigned.get(dynamic)

    def release(self, dynamic: IPv4Address) -> None:
        """Return a dynamic address to the pool."""
        if dynamic in self._assigned:
            del self._assigned[dynamic]
            self._free.append(dynamic)
