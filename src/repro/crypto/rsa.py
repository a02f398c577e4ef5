"""From-scratch RSA for the neutralizer key-setup protocol.

The paper's protocol (§3.2) uses RSA asymmetrically in an unusual direction:

* the **source** generates a *short one-time* key pair (512 bits suggested)
  and performs the slow private-key (decryption) operation;
* the **neutralizer** performs only the cheap public-key (encryption)
  operation — with exponent 3 that is about two modular multiplications —
  which is what makes a stateless line-rate box plausible.

This module provides exactly what that protocol needs: key generation at
small-to-normal sizes, raw ("textbook") modular exponentiation for cost
modelling, and a simple randomized padding mode for actually hiding the
``(nonce, Ks)`` payload.  It also exposes :func:`estimate_factoring_cost`
which backs the §3.2 security-window discussion (a 512-bit RSA key ~ 56-bit
symmetric key) and the E7 key-size tradeoff benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ..exceptions import DecryptionError, KeySizeError, PaddingError
from .primes import generate_safe_exponent_prime
from .randomness import DEFAULT_SOURCE, RandomSource

#: The fixed public exponent suggested by the paper ("as few as two
#: multiplications, if the exponent in the public key is 3").
DEFAULT_PUBLIC_EXPONENT = 3

#: Key sizes the library accepts.  512 is the paper's one-time key size;
#: 384 is allowed for cost-model sweeps, 1024/2048 for "strong" e2e keys.
SUPPORTED_KEY_BITS = (384, 512, 768, 1024, 1536, 2048)

#: Approximate symmetric-equivalent strength in bits, interpolated from the
#: usual NIST/Lenstra tables.  The paper states 512-bit RSA ~ 56-bit symmetric.
_SYMMETRIC_EQUIVALENT = {
    384: 45.0,
    512: 56.0,
    768: 67.0,
    1024: 80.0,
    1536: 96.0,
    2048: 112.0,
}


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key ``(n, e)``.

    The object is immutable so it can be embedded in packets and DNS records
    and shared between simulated hosts without defensive copying.
    """

    modulus: int
    exponent: int = DEFAULT_PUBLIC_EXPONENT

    @property
    def bits(self) -> int:
        """Modulus width in bits."""
        return self.modulus.bit_length()

    @property
    def byte_length(self) -> int:
        """Modulus width in whole bytes."""
        return (self.modulus.bit_length() + 7) // 8

    def encrypt_raw(self, message: int) -> int:
        """Textbook RSA encryption of an integer message (no padding)."""
        if not 0 <= message < self.modulus:
            raise ValueError("message out of range for this modulus")
        return pow(message, self.exponent, self.modulus)

    def encrypt(self, plaintext: bytes, rng: Optional[RandomSource] = None) -> bytes:
        """Encrypt ``plaintext`` with randomized PKCS#1-v1.5-style padding.

        The neutralizer calls this once per key-setup packet; with ``e = 3``
        the modular exponentiation costs two multiplications, which is the
        efficiency argument of §3.2.
        """
        source = rng or DEFAULT_SOURCE
        k = self.byte_length
        if len(plaintext) > k - 11:
            raise ValueError(
                f"plaintext of {len(plaintext)} bytes does not fit a "
                f"{self.bits}-bit modulus with padding"
            )
        pad_len = k - len(plaintext) - 3
        padding = bytearray()
        while len(padding) < pad_len:
            chunk = source.random_bytes(pad_len - len(padding))
            padding.extend(b for b in chunk if b != 0)
        block = b"\x00\x02" + bytes(padding) + b"\x00" + plaintext
        ciphertext_int = self.encrypt_raw(int.from_bytes(block, "big"))
        return ciphertext_int.to_bytes(k, "big")

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a signature produced by :meth:`RsaPrivateKey.sign`."""
        from .kdf import sha256

        if len(signature) != self.byte_length:
            return False
        recovered = self.encrypt_raw(int.from_bytes(signature, "big"))
        digest = recovered.to_bytes(self.byte_length, "big")[-32:]
        return digest == sha256(message)

    def wire_bytes(self) -> bytes:
        """Serialize the key for embedding in a key-setup packet."""
        n_bytes = self.modulus.to_bytes(self.byte_length, "big")
        e_bytes = self.exponent.to_bytes(4, "big")
        return len(n_bytes).to_bytes(2, "big") + n_bytes + e_bytes

    @classmethod
    def from_wire(cls, data: bytes) -> Tuple["RsaPublicKey", int]:
        """Parse a key serialized by :meth:`wire_bytes`.

        Returns the key and the number of bytes consumed so callers can parse
        keys embedded mid-packet.
        """
        if len(data) < 2:
            raise KeySizeError("truncated RSA public key")
        n_len = int.from_bytes(data[:2], "big")
        if len(data) < 2 + n_len + 4:
            raise KeySizeError("truncated RSA public key body")
        modulus = int.from_bytes(data[2:2 + n_len], "big")
        exponent = int.from_bytes(data[2 + n_len:2 + n_len + 4], "big")
        return cls(modulus=modulus, exponent=exponent), 2 + n_len + 4


@dataclass(frozen=True)
class RsaPrivateKey:
    """An RSA private key with CRT parameters for fast decryption."""

    modulus: int
    public_exponent: int
    private_exponent: int
    prime_p: int
    prime_q: int

    @property
    def bits(self) -> int:
        """Modulus width in bits."""
        return self.modulus.bit_length()

    @property
    def byte_length(self) -> int:
        """Modulus width in whole bytes."""
        return (self.modulus.bit_length() + 7) // 8

    @property
    def public_key(self) -> RsaPublicKey:
        """The matching public key."""
        return RsaPublicKey(modulus=self.modulus, exponent=self.public_exponent)

    def decrypt_raw(self, ciphertext: int) -> int:
        """Textbook RSA decryption using the CRT (about 4x faster than naive)."""
        if not 0 <= ciphertext < self.modulus:
            raise ValueError("ciphertext out of range for this modulus")
        p, q = self.prime_p, self.prime_q
        d_p = self.private_exponent % (p - 1)
        d_q = self.private_exponent % (q - 1)
        q_inv = pow(q, -1, p)
        m_p = pow(ciphertext % p, d_p, p)
        m_q = pow(ciphertext % q, d_q, q)
        h = (q_inv * (m_p - m_q)) % p
        return m_q + h * q

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt and strip the randomized padding added by ``encrypt``."""
        if len(ciphertext) != self.byte_length:
            raise DecryptionError(
                f"ciphertext length {len(ciphertext)} does not match "
                f"{self.byte_length}-byte modulus"
            )
        block_int = self.decrypt_raw(int.from_bytes(ciphertext, "big"))
        block = block_int.to_bytes(self.byte_length, "big")
        if block[0] != 0x00 or block[1] != 0x02:
            raise PaddingError("bad padding prefix")
        try:
            separator = block.index(b"\x00", 2)
        except ValueError as exc:
            raise PaddingError("padding separator missing") from exc
        if separator < 10:
            raise PaddingError("padding too short")
        return block[separator + 1:]

    def sign(self, message: bytes) -> bytes:
        """Produce a simple hash-then-raw-decrypt signature (for DNS records)."""
        from .kdf import sha256

        digest = int.from_bytes(sha256(message), "big")
        if digest >= self.modulus:
            digest %= self.modulus
        signature_int = self.decrypt_raw(digest)
        return signature_int.to_bytes(self.byte_length, "big")


@dataclass(frozen=True)
class RsaKeyPair:
    """Convenience bundle returned by :func:`generate_keypair`."""

    public: RsaPublicKey
    private: RsaPrivateKey

    @property
    def bits(self) -> int:
        return self.public.bits


def generate_keypair(
    bits: int = 512,
    rng: Optional[RandomSource] = None,
    public_exponent: int = DEFAULT_PUBLIC_EXPONENT,
) -> RsaKeyPair:
    """Generate an RSA key pair of ``bits`` modulus width.

    512 bits is the paper's one-time key size.  Generation retries until the
    modulus has exactly the requested width and the exponent is invertible.
    """
    if bits not in SUPPORTED_KEY_BITS:
        raise KeySizeError(
            f"unsupported RSA size {bits}; supported sizes: {SUPPORTED_KEY_BITS}"
        )
    source = rng or DEFAULT_SOURCE
    half = bits // 2
    while True:
        p = generate_safe_exponent_prime(half, public_exponent, source)
        q = generate_safe_exponent_prime(half, public_exponent, source)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if math.gcd(public_exponent, phi) != 1:
            continue
        d = pow(public_exponent, -1, phi)
        public = RsaPublicKey(modulus=n, exponent=public_exponent)
        private = RsaPrivateKey(
            modulus=n,
            public_exponent=public_exponent,
            private_exponent=d,
            prime_p=p,
            prime_q=q,
        )
        return RsaKeyPair(public=public, private=private)


def symmetric_equivalent_bits(rsa_bits: int) -> float:
    """Approximate symmetric-key strength of an RSA modulus of ``rsa_bits``.

    The paper's security argument leans on "a 512-bit RSA key is only as
    secure as a 56-bit symmetric key"; this function reproduces that mapping
    and interpolates between table entries for sweep experiments.
    """
    sizes = sorted(_SYMMETRIC_EQUIVALENT)
    if rsa_bits <= sizes[0]:
        return _SYMMETRIC_EQUIVALENT[sizes[0]]
    if rsa_bits >= sizes[-1]:
        return _SYMMETRIC_EQUIVALENT[sizes[-1]]
    for low, high in zip(sizes, sizes[1:]):
        if low <= rsa_bits <= high:
            frac = (rsa_bits - low) / (high - low)
            return _SYMMETRIC_EQUIVALENT[low] + frac * (
                _SYMMETRIC_EQUIVALENT[high] - _SYMMETRIC_EQUIVALENT[low]
            )
    raise AssertionError("unreachable")


def estimate_factoring_cost(rsa_bits: int, attacker_ops_per_second: float = 1e12) -> float:
    """Estimate the wall-clock seconds an attacker needs to factor a modulus.

    The estimate treats the symmetric-equivalent strength as an exhaustive
    search exponent (2^strength operations).  The neutralizer protocol only
    needs the one-time key to resist factoring for ~2 RTTs (until the strong
    key ``Ks'`` arrives), so even modest margins are large in relative terms;
    E7 sweeps this across key sizes.
    """
    strength = symmetric_equivalent_bits(rsa_bits)
    return (2.0 ** strength) / float(attacker_ops_per_second)


def encryption_cost_multiplications(public_exponent: int, bits: int) -> int:
    """Number of modular multiplications for one public-key encryption.

    Square-and-multiply costs ``floor(log2 e)`` squarings plus one
    multiplication per set bit (minus the leading one).  For ``e = 3`` this is
    2 — the figure the paper quotes.
    """
    if public_exponent < 2:
        raise ValueError("exponent must be >= 2")
    squarings = public_exponent.bit_length() - 1
    multiplications = bin(public_exponent).count("1") - 1
    return squarings + multiplications


def decryption_cost_multiplications(bits: int) -> int:
    """Approximate modular multiplications for one CRT private-key operation.

    Each half-size exponentiation costs ~1.5 * (bits/2) multiplications; CRT
    runs two of them.  Used by the analytical cost model that scales the
    measured benchmark numbers in EXPERIMENTS.md.
    """
    return int(2 * 1.5 * (bits / 2))
