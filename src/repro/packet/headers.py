"""Wire-format headers: IPv4, UDP, and the generic shim container.

The paper assumes "each packet carries a standard IP header, and additional
fields needed by our design are carried in a shim layer between IP and an
upper layer.  The protocol field in an IP header is set to a fixed and known
value."  We model exactly that: a real 20-byte IPv4 header (with checksum), an
8-byte UDP header, and a generic shim container whose *body* formats are
defined by :mod:`repro.core.shim`.  Everything serializes to bytes so that
packet sizes in experiments (the 112-byte neutralized packet of §4) are
derived from actual encodings rather than constants.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Optional

from ..exceptions import HeaderError, TruncatedPacketError
from .addresses import IPv4Address
from .dscp import is_valid_dscp

# IP protocol numbers used by the simulator.
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ESP = 50
#: The "fixed and known value" the paper assigns to the neutralizer shim layer.
PROTO_NEUTRALIZER_SHIM = 253
#: Protocol number used by the onion-routing baseline's encapsulation.
PROTO_ONION = 254

IPV4_HEADER_LEN = 20
UDP_HEADER_LEN = 8
SHIM_FIXED_LEN = 4

DEFAULT_TTL = 64


def internet_checksum(data: bytes) -> int:
    """RFC 1071 Internet checksum (used by the IPv4 header)."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass(frozen=True)
class IPv4Header:
    """A standard 20-byte IPv4 header (no options)."""

    source: IPv4Address
    destination: IPv4Address
    protocol: int = PROTO_UDP
    dscp: int = 0
    ecn: int = 0
    identification: int = 0
    ttl: int = DEFAULT_TTL
    total_length: int = IPV4_HEADER_LEN

    def __post_init__(self) -> None:
        if not is_valid_dscp(self.dscp):
            raise HeaderError(f"DSCP {self.dscp} does not fit 6 bits")
        if not 0 <= self.ecn <= 3:
            raise HeaderError(f"ECN {self.ecn} does not fit 2 bits")
        if not 0 <= self.protocol <= 255:
            raise HeaderError(f"protocol {self.protocol} out of range")
        if not 0 <= self.ttl <= 255:
            raise HeaderError(f"TTL {self.ttl} out of range")
        if not 0 <= self.identification <= 0xFFFF:
            raise HeaderError("identification field out of range")
        if not IPV4_HEADER_LEN <= self.total_length <= 0xFFFF:
            raise HeaderError(f"total length {self.total_length} out of range")

    def with_total_length(self, total_length: int) -> "IPv4Header":
        """Return a copy with the total-length field set (builder use)."""
        return replace(self, total_length=total_length)

    def with_addresses(
        self, source: Optional[IPv4Address] = None, destination: Optional[IPv4Address] = None
    ) -> "IPv4Header":
        """Return a copy with rewritten addresses (the neutralizer's main move)."""
        return replace(
            self,
            source=source if source is not None else self.source,
            destination=destination if destination is not None else self.destination,
        )

    def decremented_ttl(self) -> "IPv4Header":
        """Return a copy with TTL decreased by one (router forwarding)."""
        if self.ttl <= 0:
            raise HeaderError("TTL already zero")
        return replace(self, ttl=self.ttl - 1)

    def pack(self) -> bytes:
        """Serialize to 20 bytes with a correct header checksum."""
        version_ihl = (4 << 4) | 5
        tos = (self.dscp << 2) | self.ecn
        without_checksum = struct.pack(
            "!BBHHHBBH4s4s",
            version_ihl,
            tos,
            self.total_length,
            self.identification,
            0,  # flags + fragment offset (fragmentation is not modelled)
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            self.source.packed,
            self.destination.packed,
        )
        checksum = internet_checksum(without_checksum)
        return without_checksum[:10] + struct.pack("!H", checksum) + without_checksum[12:]

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4Header":
        """Parse a 20-byte header, verifying version and checksum."""
        if len(data) < IPV4_HEADER_LEN:
            raise TruncatedPacketError("buffer shorter than an IPv4 header")
        (
            version_ihl,
            tos,
            total_length,
            identification,
            _flags_frag,
            ttl,
            protocol,
            checksum,
            src,
            dst,
        ) = struct.unpack("!BBHHHBBH4s4s", data[:IPV4_HEADER_LEN])
        if version_ihl >> 4 != 4:
            raise HeaderError("not an IPv4 packet")
        if version_ihl & 0x0F != 5:
            raise HeaderError("IPv4 options are not supported")
        if internet_checksum(data[:IPV4_HEADER_LEN]) != 0:
            raise HeaderError("IPv4 header checksum mismatch")
        return cls(
            source=IPv4Address.from_bytes(src),
            destination=IPv4Address.from_bytes(dst),
            protocol=protocol,
            dscp=tos >> 2,
            ecn=tos & 0x3,
            identification=identification,
            ttl=ttl,
            total_length=total_length,
        )


@dataclass(frozen=True)
class UdpHeader:
    """A standard 8-byte UDP header (checksum kept but not validated)."""

    source_port: int
    destination_port: int
    length: int = UDP_HEADER_LEN
    checksum: int = 0

    def __post_init__(self) -> None:
        for port in (self.source_port, self.destination_port):
            if not 0 <= port <= 0xFFFF:
                raise HeaderError(f"port {port} out of range")
        if not UDP_HEADER_LEN <= self.length <= 0xFFFF:
            raise HeaderError(f"UDP length {self.length} out of range")

    def with_length(self, length: int) -> "UdpHeader":
        """Return a copy with the length field set."""
        return replace(self, length=length)

    def pack(self) -> bytes:
        """Serialize to 8 bytes."""
        return struct.pack(
            "!HHHH", self.source_port, self.destination_port, self.length, self.checksum
        )

    @classmethod
    def unpack(cls, data: bytes) -> "UdpHeader":
        """Parse an 8-byte UDP header."""
        if len(data) < UDP_HEADER_LEN:
            raise TruncatedPacketError("buffer shorter than a UDP header")
        sport, dport, length, checksum = struct.unpack("!HHHH", data[:UDP_HEADER_LEN])
        return cls(sport, dport, length, checksum)


# Shim types carried in the generic container.  The core package interprets
# the bodies; the packet layer only frames them.
SHIM_TYPE_KEY_SETUP_REQUEST = 1
SHIM_TYPE_KEY_SETUP_RESPONSE = 2
SHIM_TYPE_NEUTRALIZED_DATA = 3
SHIM_TYPE_RETURN_DATA = 4
SHIM_TYPE_REVERSE_KEY_REQUEST = 5
SHIM_TYPE_ONION = 6

#: Widths of the clear-text nonce and the short per-packet integrity tag
#: (see kdf.integrity_tag) that the neutralizer bodies carry.
NONCE_LEN = 8
TAG_LEN = 4

#: Fixed layout of the forward data body: epoch, nonce, flags, encrypted
#: destination address, tag.  :class:`repro.core.shim.NeutralizedDataBody`
#: packs with it; the fluid model prices its wire size from it.
NEUTRALIZED_DATA_FIXED = struct.Struct(f"!H{NONCE_LEN}sB4s{TAG_LEN}s")


@dataclass(frozen=True)
class ShimHeader:
    """The shim layer between IP and the upper layer.

    Wire format: 1 byte shim type, 1 byte next protocol, 2 bytes body length,
    then the opaque body.  The IP protocol field is set to
    :data:`PROTO_NEUTRALIZER_SHIM` whenever a shim is present.
    """

    shim_type: int
    next_protocol: int
    body: bytes = field(default=b"")

    def __post_init__(self) -> None:
        if not 0 <= self.shim_type <= 255:
            raise HeaderError("shim type out of range")
        if not 0 <= self.next_protocol <= 255:
            raise HeaderError("next protocol out of range")
        if len(self.body) > 0xFFFF:
            raise HeaderError("shim body too long")

    @property
    def length(self) -> int:
        """Total serialized length of the shim (fixed part + body)."""
        return SHIM_FIXED_LEN + len(self.body)

    def pack(self) -> bytes:
        """Serialize the shim header and body."""
        return struct.pack("!BBH", self.shim_type, self.next_protocol, len(self.body)) + self.body

    @classmethod
    def unpack(cls, data: bytes) -> "ShimHeader":
        """Parse a shim header; raises if the body is truncated."""
        if len(data) < SHIM_FIXED_LEN:
            raise TruncatedPacketError("buffer shorter than a shim header")
        shim_type, next_protocol, body_len = struct.unpack("!BBH", data[:SHIM_FIXED_LEN])
        if len(data) < SHIM_FIXED_LEN + body_len:
            raise TruncatedPacketError("shim body truncated")
        return cls(shim_type, next_protocol, data[SHIM_FIXED_LEN:SHIM_FIXED_LEN + body_len])


def expected_data_overhead_bytes() -> int:
    """Shim overhead of a forward data packet as seen by the access ISP.

    Generic shim container (4) + epoch (2) + nonce (8) + flags (1) +
    encrypted destination (4) + tag (4) = 23 bytes.  Together with the
    20-byte IP header, an 8-byte folded transport header and a 64-byte
    payload this lands within a few bytes of the paper's 112-byte figure.
    """
    return SHIM_FIXED_LEN + NEUTRALIZED_DATA_FIXED.size
