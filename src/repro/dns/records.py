"""DNS record types and wire encodings used by the bootstrap (§3.1).

The paper stores three things in a destination's DNS records: the
destination's IP address, its neutralizers' anycast addresses, and its public
key for end-to-end encryption.  We model them as three record types — ``A``,
``NEUT`` and ``KEY`` — plus ``NS`` for resolver discovery, and provide a
:class:`BootstrapInfo` bundle which is what the neutralizer client stack
actually consumes after a lookup.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Optional

from ..crypto.rsa import RsaPublicKey
from ..exceptions import DnsError
from ..packet.addresses import IPv4Address


class RecordType(IntEnum):
    """Supported DNS record types."""

    A = 1
    NS = 2
    KEY = 25
    #: Non-standard record carrying the neutralizer anycast addresses of the
    #: destination's provider(s) (one per provider for multi-homed sites, §3.5).
    NEUT = 65280


@dataclass(frozen=True)
class ResourceRecord:
    """A single DNS resource record."""

    name: str
    rtype: RecordType
    data: bytes
    ttl: int = 3600

    def __post_init__(self) -> None:
        if not self.name or len(self.name) > 255:
            raise DnsError("record name must be 1..255 characters")
        if self.ttl < 0:
            raise DnsError("TTL cannot be negative")

    # -- typed constructors ---------------------------------------------------

    @classmethod
    def a(cls, name: str, address: IPv4Address, ttl: int = 3600) -> "ResourceRecord":
        """Build an A record."""
        return cls(name=name, rtype=RecordType.A, data=address.packed, ttl=ttl)

    @classmethod
    def key(cls, name: str, public_key: RsaPublicKey, ttl: int = 3600) -> "ResourceRecord":
        """Build a KEY record carrying the host's end-to-end public key."""
        return cls(name=name, rtype=RecordType.KEY, data=public_key.wire_bytes(), ttl=ttl)

    @classmethod
    def neut(
        cls, name: str, neutralizer_addresses: List[IPv4Address], ttl: int = 3600
    ) -> "ResourceRecord":
        """Build a NEUT record listing neutralizer anycast addresses."""
        if not neutralizer_addresses:
            raise DnsError("a NEUT record needs at least one address")
        data = struct.pack("!B", len(neutralizer_addresses)) + b"".join(
            address.packed for address in neutralizer_addresses
        )
        return cls(name=name, rtype=RecordType.NEUT, data=data, ttl=ttl)

    # -- typed accessors ---------------------------------------------------------

    def as_address(self) -> IPv4Address:
        """Interpret the record data as a single IPv4 address (A / NS)."""
        if self.rtype not in (RecordType.A, RecordType.NS):
            raise DnsError(f"record type {self.rtype.name} does not carry one address")
        return IPv4Address.from_bytes(self.data)

    def as_public_key(self) -> RsaPublicKey:
        """Interpret the record data as an RSA public key (KEY)."""
        if self.rtype != RecordType.KEY:
            raise DnsError("not a KEY record")
        key, _consumed = RsaPublicKey.from_wire(self.data)
        return key

    def as_neutralizer_addresses(self) -> List[IPv4Address]:
        """Interpret the record data as a list of anycast addresses (NEUT)."""
        if self.rtype != RecordType.NEUT:
            raise DnsError("not a NEUT record")
        if not self.data:
            raise DnsError("empty NEUT record")
        count = self.data[0]
        expected = 1 + 4 * count
        if len(self.data) != expected:
            raise DnsError("malformed NEUT record")
        return [
            IPv4Address.from_bytes(self.data[1 + 4 * i:5 + 4 * i]) for i in range(count)
        ]

    # -- wire encoding -------------------------------------------------------------

    def pack(self) -> bytes:
        """Serialize for inclusion in a DNS response message."""
        name_bytes = self.name.encode("ascii")
        return (
            struct.pack("!B", len(name_bytes))
            + name_bytes
            + struct.pack("!HIH", int(self.rtype), self.ttl, len(self.data))
            + self.data
        )

    @classmethod
    def unpack(cls, data: bytes) -> tuple["ResourceRecord", int]:
        """Parse one record, returning it and the bytes consumed."""
        if len(data) < 1:
            raise DnsError("truncated record")
        name_len = data[0]
        header_len = 1 + name_len + 8
        if len(data) < header_len:
            raise DnsError("truncated record header")
        name = data[1:1 + name_len].decode("ascii")
        rtype, ttl, data_len = struct.unpack("!HIH", data[1 + name_len:header_len])
        total = header_len + data_len
        if len(data) < total:
            raise DnsError("truncated record data")
        return (
            cls(name=name, rtype=RecordType(rtype), data=data[header_len:total], ttl=ttl),
            total,
        )


@dataclass
class BootstrapInfo:
    """Everything a source needs before its first packet to a destination (§3.1)."""

    name: str
    address: Optional[IPv4Address] = None
    public_key: Optional[RsaPublicKey] = None
    neutralizer_addresses: List[IPv4Address] = field(default_factory=list)

    @property
    def is_neutralized(self) -> bool:
        """``True`` when the destination sits behind at least one neutralizer."""
        return bool(self.neutralizer_addresses)

    @property
    def is_complete(self) -> bool:
        """``True`` when the lookup produced at least an address."""
        return self.address is not None

    @classmethod
    def from_records(cls, name: str, records: List[ResourceRecord]) -> "BootstrapInfo":
        """Assemble bootstrap info from a record set."""
        info = cls(name=name)
        for record in records:
            if record.name != name:
                continue
            if record.rtype == RecordType.A and info.address is None:
                info.address = record.as_address()
            elif record.rtype == RecordType.KEY and info.public_key is None:
                info.public_key = record.as_public_key()
            elif record.rtype == RecordType.NEUT:
                info.neutralizer_addresses.extend(record.as_neutralizer_addresses())
        return info
