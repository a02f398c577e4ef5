"""ISP domains: address ownership, business relationships, and roles.

The paper's whole argument hinges on *who is whose customer*: an ISP may
differentiate among its own customers (market forces discipline that), but it
must not be able to target a non-customer.  :class:`ISP` therefore tracks a
prefix (address ownership), the set of member routers and attached customer
hosts, and its business relationships with other ISPs (customer / provider /
peer), which both the discrimination policies and the experiment reports
consult.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..exceptions import TopologyError
from ..packet.addresses import AddressAllocator, IPv4Address, Prefix


class Relationship(Enum):
    """Business relationship from this ISP's point of view."""

    CUSTOMER = "customer"
    PROVIDER = "provider"
    PEER = "peer"


@dataclass
class ISP:
    """An autonomous system participating in the simulated internetwork."""

    name: str
    asn: int
    prefix: Prefix
    #: ISPs that support the neutralizer service place boxes at their border.
    supports_neutralizer: bool = False
    #: ISPs intending to discriminate in a non-neutral manner (§2).
    discriminatory: bool = False
    router_names: List[str] = field(default_factory=list)
    host_names: List[str] = field(default_factory=list)
    border_router_names: List[str] = field(default_factory=list)
    relationships: Dict[str, Relationship] = field(default_factory=dict)
    _allocator: Optional[AddressAllocator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self._allocator is None:
            self._allocator = AddressAllocator(self.prefix)

    # -- address management -----------------------------------------------------

    def allocate_address(self) -> IPv4Address:
        """Allocate the next host address inside this ISP's prefix."""
        assert self._allocator is not None
        return self._allocator.allocate()

    def owns_address(self, address: IPv4Address) -> bool:
        """Return ``True`` if ``address`` falls inside this ISP's prefix."""
        return self.prefix.contains(address)

    # -- membership ----------------------------------------------------------------

    def add_router(self, name: str, border: bool = False) -> None:
        """Record a router as part of this ISP."""
        if name not in self.router_names:
            self.router_names.append(name)
        if border and name not in self.border_router_names:
            self.border_router_names.append(name)

    def add_host(self, name: str) -> None:
        """Record a directly attached customer host."""
        if name not in self.host_names:
            self.host_names.append(name)

    # -- relationships ----------------------------------------------------------------

    def set_relationship(self, other_isp: str, relationship: Relationship) -> None:
        """Declare the business relationship with another ISP."""
        self.relationships[other_isp] = relationship

    def is_peer_isp(self, other_isp: str) -> bool:
        """Return ``True`` if ``other_isp`` peers settlement-free with this ISP."""
        return self.relationships.get(other_isp) == Relationship.PEER

    def describe(self) -> str:
        """One-line description used by experiment reports."""
        role = []
        if self.discriminatory:
            role.append("discriminatory")
        if self.supports_neutralizer:
            role.append("neutral")
        role_text = "/".join(role) or "transit"
        return f"{self.name} (AS{self.asn}, {self.prefix}, {role_text})"


class IspRegistry:
    """All ISPs of a topology, with address-to-ISP resolution."""

    def __init__(self) -> None:
        self._isps: Dict[str, ISP] = {}

    def add(self, isp: ISP) -> ISP:
        """Register an ISP; names must be unique."""
        if isp.name in self._isps:
            raise TopologyError(f"duplicate ISP name {isp.name!r}")
        self._isps[isp.name] = isp
        return isp

    def get(self, name: str) -> ISP:
        """Return the ISP called ``name``."""
        try:
            return self._isps[name]
        except KeyError as exc:
            raise TopologyError(f"unknown ISP {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._isps

    def __iter__(self):
        return iter(self._isps.values())

    def __len__(self) -> int:
        return len(self._isps)

    def owner_of(self, address: IPv4Address) -> Optional[ISP]:
        """Return the ISP whose prefix contains ``address`` (longest match)."""
        best: Optional[ISP] = None
        for isp in self._isps.values():
            if isp.owns_address(address):
                if best is None or isp.prefix.length > best.prefix.length:
                    best = isp
        return best

    def names(self) -> List[str]:
        """Names of all registered ISPs."""
        return list(self._isps)
