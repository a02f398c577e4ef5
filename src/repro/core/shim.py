"""Wire formats of the neutralizer shim bodies (Figure 2).

The paper puts the protocol's extra fields "in a shim layer between IP and an
upper layer".  The generic container (type / next protocol / length) lives in
:mod:`repro.packet.headers`; this module defines the five body formats the
neutralizer protocol uses and their byte encodings:

* :class:`KeySetupRequestBody` — the source's short one-time RSA public key
  (Figure 2a, message 1).
* :class:`KeySetupResponseBody` — the neutralizer's reply carrying
  ``E_S(nonce, Ks)``; in the reverse direction (§3.3, requests from inside
  the trusted domain) the same body can carry the pair in clear text.
* :class:`NeutralizedDataBody` — forward data packets: clear-text nonce,
  encrypted destination address, a short integrity tag, a *key request* flag,
  and (only after the neutralizer stamps it, inside the neutral domain) a
  fresh ``(nonce', Ks')`` refresh block (Figure 2b, messages 3–4).
* :class:`ReturnDataBody` — return packets: the initiator's address (clear
  from the customer to the neutralizer, then swapped for the encrypted
  customer address toward the initiator) and the nonce identifying ``Ks``
  (Figure 2b, messages 5–6).
* :class:`ReverseKeyRequestBody` — an inside customer asking its neutralizer
  for a ``(nonce, Ks)`` pair bound to an outside peer (§3.3).

All encodings are fixed-layout ``struct`` formats so the benchmark harness can
report honest packet sizes (the paper's 112-byte neutralized packet, E2).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from ..crypto.rsa import RsaPublicKey
from ..exceptions import ShimError
from ..packet.addresses import IPv4Address
from ..packet.headers import (
    NEUTRALIZED_DATA_FIXED,
    NONCE_LEN,
    SHIM_TYPE_KEY_SETUP_REQUEST,
    SHIM_TYPE_KEY_SETUP_RESPONSE,
    SHIM_TYPE_NEUTRALIZED_DATA,
    SHIM_TYPE_RETURN_DATA,
    SHIM_TYPE_REVERSE_KEY_REQUEST,
    TAG_LEN,
    ShimHeader,
)

SYMMETRIC_KEY_LEN = 16

# Flag bits used by data/return bodies.
FLAG_KEY_REQUEST = 0x01
FLAG_REFRESH_PRESENT = 0x02
FLAG_REVERSE_HELLO = 0x04

# Flag bits used by the key-setup response body.
RESPONSE_FLAG_PLAINTEXT = 0x01


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ShimError(message)


@dataclass(frozen=True)
class KeySetupRequestBody:
    """Body of a key-setup request: the one-time RSA public key.

    ``offload_nonce``/``offload_key`` are only ever filled in by a neutralizer
    that is delegating the RSA encryption to a willing customer (§3.2): the
    neutralizer appends the chosen nonce and derived key so the helper can
    build the response without knowing the master key.  These fields never
    appear on packets crossing the discriminatory ISP.
    """

    public_key: RsaPublicKey
    epoch_hint: int = 0
    offload_nonce: Optional[bytes] = None
    offload_key: Optional[bytes] = None

    def pack(self) -> bytes:
        flags = 0x01 if self.offload_nonce is not None else 0x00
        head = struct.pack("!HB", self.epoch_hint, flags)
        body = head + self.public_key.wire_bytes()
        if self.offload_nonce is not None:
            _require(self.offload_key is not None, "offload nonce without key")
            _require(len(self.offload_nonce) == NONCE_LEN, "bad offload nonce length")
            _require(len(self.offload_key) == SYMMETRIC_KEY_LEN, "bad offload key length")
            body += self.offload_nonce + self.offload_key
        return body

    @classmethod
    def unpack(cls, data: bytes) -> "KeySetupRequestBody":
        _require(len(data) >= 3, "truncated key-setup request")
        epoch_hint, flags = struct.unpack("!HB", data[:3])
        public_key, consumed = RsaPublicKey.from_wire(data[3:])
        offset = 3 + consumed
        offload_nonce = None
        offload_key = None
        if flags & 0x01:
            _require(
                len(data) >= offset + NONCE_LEN + SYMMETRIC_KEY_LEN,
                "truncated offload fields",
            )
            offload_nonce = data[offset:offset + NONCE_LEN]
            offload_key = data[offset + NONCE_LEN:offset + NONCE_LEN + SYMMETRIC_KEY_LEN]
        return cls(
            public_key=public_key,
            epoch_hint=epoch_hint,
            offload_nonce=offload_nonce,
            offload_key=offload_key,
        )

    def to_shim(self) -> ShimHeader:
        """Wrap the body in the generic shim container."""
        return ShimHeader(SHIM_TYPE_KEY_SETUP_REQUEST, 0, self.pack())


@dataclass(frozen=True)
class KeySetupResponseBody:
    """Body of a key-setup response.

    Encrypted mode (the normal outside-source case) carries
    ``E_S(nonce || Ks)``.  Plaintext mode serves §3.3 reverse-direction
    requests from customers *inside* the trusted domain, where "the customer
    may simply request a nonce and a symmetric key from a neutralizer without
    encryption".
    """

    epoch: int
    ciphertext: Optional[bytes] = None
    plaintext_nonce: Optional[bytes] = None
    plaintext_key: Optional[bytes] = None

    @property
    def is_plaintext(self) -> bool:
        """``True`` for the reverse-direction plaintext variant."""
        return self.plaintext_nonce is not None

    def pack(self) -> bytes:
        if self.is_plaintext:
            _require(self.plaintext_key is not None, "plaintext response missing key")
            return (
                struct.pack("!HB", self.epoch, RESPONSE_FLAG_PLAINTEXT)
                + self.plaintext_nonce
                + self.plaintext_key
            )
        _require(self.ciphertext is not None, "encrypted response missing ciphertext")
        return (
            struct.pack("!HBH", self.epoch, 0, len(self.ciphertext)) + self.ciphertext
        )

    @classmethod
    def unpack(cls, data: bytes) -> "KeySetupResponseBody":
        _require(len(data) >= 3, "truncated key-setup response")
        epoch, flags = struct.unpack("!HB", data[:3])
        if flags & RESPONSE_FLAG_PLAINTEXT:
            expected = 3 + NONCE_LEN + SYMMETRIC_KEY_LEN
            _require(len(data) >= expected, "truncated plaintext key-setup response")
            return cls(
                epoch=epoch,
                plaintext_nonce=data[3:3 + NONCE_LEN],
                plaintext_key=data[3 + NONCE_LEN:expected],
            )
        _require(len(data) >= 5, "truncated encrypted key-setup response")
        length = struct.unpack("!H", data[3:5])[0]
        _require(len(data) >= 5 + length, "truncated key-setup ciphertext")
        return cls(epoch=epoch, ciphertext=data[5:5 + length])

    def to_shim(self) -> ShimHeader:
        """Wrap the body in the generic shim container."""
        return ShimHeader(SHIM_TYPE_KEY_SETUP_RESPONSE, 0, self.pack())


@dataclass(frozen=True)
class NeutralizedDataBody:
    """Body of a forward-direction neutralized data packet.

    On the wire between the source and the neutralizer (i.e. what the
    discriminatory ISP can see) the body is: epoch, nonce, flags, the
    destination address encrypted under ``Ks``, and a short integrity tag.
    The refresh block (``nonce'``, ``Ks'``) is appended by the neutralizer
    only on packets that carried the key-request flag, and only travels inside
    the neutral ISP toward the destination.
    """

    epoch: int
    nonce: bytes
    encrypted_destination: bytes
    tag: bytes
    flags: int = 0
    refresh_nonce: Optional[bytes] = None
    refresh_key: Optional[bytes] = None
    next_protocol: int = 0

    _FIXED = NEUTRALIZED_DATA_FIXED

    def __post_init__(self) -> None:
        _require(len(self.nonce) == NONCE_LEN, "nonce must be 8 bytes")
        _require(len(self.encrypted_destination) == 4, "encrypted destination must be 4 bytes")
        _require(len(self.tag) == TAG_LEN, f"tag must be {TAG_LEN} bytes")

    @property
    def wants_key_refresh(self) -> bool:
        """``True`` when the source asked for a fresh key (Figure 2b message 3)."""
        return bool(self.flags & FLAG_KEY_REQUEST)

    @property
    def has_refresh(self) -> bool:
        """``True`` once the neutralizer stamped ``(nonce', Ks')`` into the body."""
        return bool(self.flags & FLAG_REFRESH_PRESENT)

    def with_refresh(self, refresh_nonce: bytes, refresh_key: bytes) -> "NeutralizedDataBody":
        """Return a copy carrying the stamped refresh block."""
        return NeutralizedDataBody(
            epoch=self.epoch,
            nonce=self.nonce,
            encrypted_destination=self.encrypted_destination,
            tag=self.tag,
            flags=self.flags | FLAG_REFRESH_PRESENT,
            refresh_nonce=refresh_nonce,
            refresh_key=refresh_key,
            next_protocol=self.next_protocol,
        )

    def tag_input(self) -> bytes:
        """The bytes covered by the integrity tag (everything except the tag/refresh)."""
        return struct.pack(
            f"!H{NONCE_LEN}sB4s", self.epoch, self.nonce, self.flags & FLAG_KEY_REQUEST,
            self.encrypted_destination,
        )

    def pack(self) -> bytes:
        body = self._FIXED.pack(
            self.epoch, self.nonce, self.flags, self.encrypted_destination, self.tag
        )
        if self.has_refresh:
            _require(self.refresh_nonce is not None and self.refresh_key is not None,
                     "refresh flag set without refresh fields")
            body += self.refresh_nonce + self.refresh_key
        return body

    @classmethod
    def unpack(cls, data: bytes, next_protocol: int = 0) -> "NeutralizedDataBody":
        _require(len(data) >= cls._FIXED.size, "truncated neutralized data body")
        epoch, nonce, flags, encrypted_destination, tag = cls._FIXED.unpack(
            data[:cls._FIXED.size]
        )
        refresh_nonce = None
        refresh_key = None
        if flags & FLAG_REFRESH_PRESENT:
            needed = cls._FIXED.size + NONCE_LEN + SYMMETRIC_KEY_LEN
            _require(len(data) >= needed, "truncated refresh block")
            refresh_nonce = data[cls._FIXED.size:cls._FIXED.size + NONCE_LEN]
            refresh_key = data[cls._FIXED.size + NONCE_LEN:needed]
        return cls(
            epoch=epoch,
            nonce=nonce,
            encrypted_destination=encrypted_destination,
            tag=tag,
            flags=flags,
            refresh_nonce=refresh_nonce,
            refresh_key=refresh_key,
            next_protocol=next_protocol,
        )

    def to_shim(self, next_protocol: int = 0) -> ShimHeader:
        """Wrap the body in the generic shim container."""
        return ShimHeader(SHIM_TYPE_NEUTRALIZED_DATA, next_protocol, self.pack())


@dataclass(frozen=True)
class ReturnDataBody:
    """Body of a return-direction packet.

    From the customer to the neutralizer, ``address_field`` holds the
    *initiator's* address in clear text (the neutralizer needs it to recompute
    ``Ks`` statelessly and to set the outer destination).  From the
    neutralizer to the initiator, ``address_field`` holds the *customer's*
    address encrypted under ``Ks`` and ``tag`` authenticates the swap.
    The :data:`FLAG_REVERSE_HELLO` flag marks §3.3 reverse-direction first
    packets whose payload carries the key transport for the outside peer.
    """

    epoch: int
    nonce: bytes
    address_field: bytes
    tag: bytes = b"\x00" * TAG_LEN
    flags: int = 0

    _FORMAT = struct.Struct(f"!H{NONCE_LEN}sB4s{TAG_LEN}s")

    def __post_init__(self) -> None:
        _require(len(self.nonce) == NONCE_LEN, "nonce must be 8 bytes")
        _require(len(self.address_field) == 4, "address field must be 4 bytes")
        _require(len(self.tag) == TAG_LEN, f"tag must be {TAG_LEN} bytes")

    def tag_input(self) -> bytes:
        """The bytes covered by the integrity tag on the anonymized leg."""
        return struct.pack(
            f"!H{NONCE_LEN}sB4s", self.epoch, self.nonce, self.flags, self.address_field
        )

    def clear_address(self) -> IPv4Address:
        """Interpret the address field as a clear-text address (customer leg)."""
        return IPv4Address.from_bytes(self.address_field)

    def pack(self) -> bytes:
        return self._FORMAT.pack(self.epoch, self.nonce, self.flags, self.address_field, self.tag)

    @classmethod
    def unpack(cls, data: bytes) -> "ReturnDataBody":
        _require(len(data) >= cls._FORMAT.size, "truncated return data body")
        epoch, nonce, flags, address_field, tag = cls._FORMAT.unpack(data[:cls._FORMAT.size])
        return cls(epoch=epoch, nonce=nonce, address_field=address_field, tag=tag, flags=flags)

    def to_shim(self, next_protocol: int = 0) -> ShimHeader:
        """Wrap the body in the generic shim container."""
        return ShimHeader(SHIM_TYPE_RETURN_DATA, next_protocol, self.pack())


@dataclass(frozen=True)
class ReverseKeyRequestBody:
    """Body of a reverse-direction key request from an inside customer (§3.3).

    The customer names the outside peer it intends to talk to; the neutralizer
    binds the derived key to that peer's address so the later return traffic
    (peer → neutralizer → customer) can be processed statelessly.
    """

    peer_address: IPv4Address
    epoch_hint: int = 0

    _FORMAT = struct.Struct("!H4s")

    def pack(self) -> bytes:
        return self._FORMAT.pack(self.epoch_hint, self.peer_address.packed)

    @classmethod
    def unpack(cls, data: bytes) -> "ReverseKeyRequestBody":
        _require(len(data) >= cls._FORMAT.size, "truncated reverse key request")
        epoch_hint, peer = cls._FORMAT.unpack(data[:cls._FORMAT.size])
        return cls(peer_address=IPv4Address.from_bytes(peer), epoch_hint=epoch_hint)

    def to_shim(self) -> ShimHeader:
        """Wrap the body in the generic shim container."""
        return ShimHeader(SHIM_TYPE_REVERSE_KEY_REQUEST, 0, self.pack())


def parse_shim_body(shim: ShimHeader):
    """Dispatch a shim container to the right body parser."""
    parsers = {
        SHIM_TYPE_KEY_SETUP_REQUEST: KeySetupRequestBody.unpack,
        SHIM_TYPE_KEY_SETUP_RESPONSE: KeySetupResponseBody.unpack,
        SHIM_TYPE_RETURN_DATA: ReturnDataBody.unpack,
        SHIM_TYPE_REVERSE_KEY_REQUEST: ReverseKeyRequestBody.unpack,
    }
    if shim.shim_type == SHIM_TYPE_NEUTRALIZED_DATA:
        return NeutralizedDataBody.unpack(shim.body, next_protocol=shim.next_protocol)
    parser = parsers.get(shim.shim_type)
    if parser is None:
        raise ShimError(f"unknown shim type {shim.shim_type}")
    return parser(shim.body)
