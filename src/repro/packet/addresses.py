"""IPv4 addresses, prefixes, anycast groups and address allocation.

The neutralizer design is entirely about *which addresses are visible where*:
customers of the neutral ISP hide behind the neutralizer's **anycast**
address, and the discriminatory ISP can only key its policies on addresses it
can still see.  This module provides a compact address model tailored to the
simulator: addresses are small immutable wrappers over integers, prefixes
support containment tests (used by ISPs to recognize their own customers),
anycast groups name a service address shared by several boxes, and allocators
hand out host addresses inside an ISP's prefix deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

from ..exceptions import AddressError

_MAX_IPV4 = (1 << 32) - 1


def _parse_dotted_quad(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"malformed IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


@dataclass(frozen=True, order=True)
class IPv4Address:
    """An immutable IPv4 address.

    Stored as an integer; hashable so it can key forwarding tables, DNS zones
    and the neutralizer's (absent) per-source state in baseline comparisons.
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAX_IPV4:
            raise AddressError(f"address value {self.value} out of IPv4 range")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        """Parse a dotted-quad string."""
        return cls(_parse_dotted_quad(text))

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Address":
        """Build an address from 4 packed bytes (network byte order)."""
        if len(data) != 4:
            raise AddressError(f"packed IPv4 address must be 4 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    @property
    def packed(self) -> bytes:
        """The 4-byte network-order representation."""
        return self.value.to_bytes(4, "big")

    def __str__(self) -> str:
        return ".".join(str((self.value >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"


def ip(text: str) -> IPv4Address:
    """Shorthand constructor used throughout tests and examples."""
    return IPv4Address.parse(text)


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix (network address + mask length)."""

    network: IPv4Address
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length {self.length} out of range")
        if self.network.value & ~self._mask():
            raise AddressError(
                f"network {self.network} has host bits set for /{self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse CIDR notation such as ``10.1.0.0/16``."""
        if "/" not in text:
            raise AddressError(f"prefix {text!r} missing mask length")
        network_text, _, length_text = text.partition("/")
        if not length_text.isdigit():
            raise AddressError(f"malformed prefix length in {text!r}")
        return cls(IPv4Address.parse(network_text), int(length_text))

    def _mask(self) -> int:
        if self.length == 0:
            return 0
        return (_MAX_IPV4 << (32 - self.length)) & _MAX_IPV4

    def contains(self, address: IPv4Address) -> bool:
        """Return ``True`` if ``address`` falls inside this prefix."""
        return (address.value & self._mask()) == self.network.value

    @property
    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    def host(self, index: int) -> IPv4Address:
        """Return the ``index``-th host address inside the prefix (1-based usable)."""
        if not 0 < index < self.size:
            raise AddressError(f"host index {index} out of range for /{self.length}")
        return IPv4Address(self.network.value + index)

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"

    def __iter__(self) -> Iterator[IPv4Address]:
        for offset in range(self.size):
            yield IPv4Address(self.network.value + offset)


def prefix(text: str) -> Prefix:
    """Shorthand constructor for prefixes."""
    return Prefix.parse(text)


@dataclass
class AddressAllocator:
    """Deterministic sequential allocator of host addresses inside a prefix.

    Each ISP owns one allocator so that building the same topology twice
    yields identical addressing — a requirement for replayable experiments.
    """

    prefix: Prefix
    _next_index: int = field(default=1, init=False)

    def allocate(self) -> IPv4Address:
        """Return the next unused host address."""
        if self._next_index >= self.prefix.size - 1:
            raise AddressError(f"prefix {self.prefix} exhausted")
        address = self.prefix.host(self._next_index)
        self._next_index += 1
        return address


@dataclass(frozen=True)
class AnycastAddress:
    """An anycast service address.

    The paper uses one anycast address per neutral ISP: "We use an anycast
    address to represent the neutralizer service of an ISP.  All customers of
    an ISP use the same neutralizer address, regardless of where they are
    located."  Routing delivers packets for this address to the *nearest*
    member of the group (see :mod:`repro.netsim.routing`).
    """

    address: IPv4Address
    service: str = "neutralizer"

    def __str__(self) -> str:
        return f"{self.address} (anycast:{self.service})"


class AnycastGroup:
    """The set of nodes that answer for one anycast address."""

    def __init__(self, anycast: AnycastAddress) -> None:
        self.anycast = anycast
        self._members: List[str] = []

    @property
    def address(self) -> IPv4Address:
        """The shared anycast address."""
        return self.anycast.address

    @property
    def members(self) -> List[str]:
        """Names of member nodes (stable insertion order)."""
        return list(self._members)

    def add_member(self, node_name: str) -> None:
        """Register a node as answering for the anycast address."""
        if node_name not in self._members:
            self._members.append(node_name)

    def remove_member(self, node_name: str) -> None:
        """Withdraw a node from the group (e.g. simulated failure)."""
        if node_name in self._members:
            self._members.remove(node_name)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node_name: str) -> bool:
        return node_name in self._members


#: Well-known blocks used by the built-in topologies.  Keeping them here makes
#: example scripts and tests read like the paper's Figure 1.
WELL_KNOWN_BLOCKS = {
    "att": Prefix.parse("10.1.0.0/16"),
    "verizon": Prefix.parse("10.2.0.0/16"),
    "cogent": Prefix.parse("10.3.0.0/16"),
    "transit": Prefix.parse("10.9.0.0/16"),
    "anycast": Prefix.parse("10.200.0.0/24"),
}
