"""ESP-like end-to-end payload protection.

The paper treats end-to-end encryption "as a black box" and points at IPsec.
Our black box is a small ESP-style encapsulation: an SPI identifying the
security association, a sequence number, an IV, AES-CBC ciphertext and an
HMAC integrity tag.  It hides packet contents and application types from every
on-path ISP — the first of the two techniques the design combines (§3) — while
the neutralizer hides the non-customer address, the second technique.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from ..crypto.backend import get_cipher
from ..crypto.kdf import constant_time_equal, hmac_sha256
from ..crypto.modes import cbc_decrypt, cbc_encrypt
from ..crypto.randomness import DEFAULT_SOURCE, RandomSource
from ..exceptions import DecryptionError, SignatureError

ESP_HEADER_LEN = 8  # SPI (4) + sequence number (4)
ESP_IV_LEN = 16
ESP_ICV_LEN = 12  # truncated HMAC-SHA256, as in RFC 4868 style truncation


@dataclass
class EspSecurityAssociation:
    """One direction of an ESP security association."""

    spi: int
    encryption_key: bytes
    integrity_key: bytes
    backend: Optional[str] = None
    _next_sequence: int = field(default=1, init=False)
    #: Highest sequence number accepted so far (simple anti-replay window).
    _highest_seen: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0 < self.spi <= 0xFFFFFFFF:
            raise ValueError("SPI must fit 32 bits and be non-zero")
        if len(self.encryption_key) != 16:
            raise ValueError("encryption key must be 16 bytes (AES-128)")
        if len(self.integrity_key) < 16:
            raise ValueError("integrity key must be at least 16 bytes")

    def protect(self, plaintext: bytes, rng: Optional[RandomSource] = None) -> bytes:
        """Encrypt and authenticate ``plaintext`` into an ESP payload."""
        source = rng or DEFAULT_SOURCE
        sequence = self._next_sequence
        self._next_sequence += 1
        iv = source.random_bytes(ESP_IV_LEN)
        cipher = get_cipher(self.encryption_key, backend=self.backend)
        ciphertext = cbc_encrypt(cipher, iv, plaintext)
        header = struct.pack("!II", self.spi, sequence)
        body = header + iv + ciphertext
        icv = hmac_sha256(self.integrity_key, body)[:ESP_ICV_LEN]
        return body + icv

    def unprotect(self, payload: bytes) -> bytes:
        """Verify and decrypt an ESP payload produced by :meth:`protect`."""
        minimum = ESP_HEADER_LEN + ESP_IV_LEN + ESP_ICV_LEN
        if len(payload) < minimum:
            raise DecryptionError("ESP payload too short")
        body, icv = payload[:-ESP_ICV_LEN], payload[-ESP_ICV_LEN:]
        expected = hmac_sha256(self.integrity_key, body)[:ESP_ICV_LEN]
        if not constant_time_equal(icv, expected):
            raise SignatureError("ESP integrity check failed")
        spi, sequence = struct.unpack("!II", body[:ESP_HEADER_LEN])
        if spi != self.spi:
            raise DecryptionError(f"ESP SPI mismatch: got {spi}, expected {self.spi}")
        if sequence <= self._highest_seen:
            raise DecryptionError(f"ESP replay detected (sequence {sequence})")
        self._highest_seen = sequence
        iv = body[ESP_HEADER_LEN:ESP_HEADER_LEN + ESP_IV_LEN]
        ciphertext = body[ESP_HEADER_LEN + ESP_IV_LEN:]
        cipher = get_cipher(self.encryption_key, backend=self.backend)
        return cbc_decrypt(cipher, iv, ciphertext)


def overhead_bytes() -> int:
    """Fixed per-packet overhead of the ESP encapsulation (excluding CBC padding)."""
    return ESP_HEADER_LEN + ESP_IV_LEN + ESP_ICV_LEN
