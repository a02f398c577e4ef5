"""End-to-end session establishment on top of the ESP encapsulation.

The paper's bootstrap (§3.1) gives the source the destination's public key via
DNS; the source then runs "standard end-to-end encryption".  Our handshake is
one round trip: the initiator generates fresh key material, encrypts it under
the responder's (strong, e.g. 1024-bit) RSA public key, and both sides derive
a pair of unidirectional security associations from it.

The session object also carries the neutralizer *key-refresh piggyback*: when
the destination returns the fresh ``(nonce', Ks')`` the neutralizer stamped
into a key-request packet (§3.2), it does so inside the protected payload of
this session, which is why the short one-time RSA key only ever protects the
first symmetric key for a couple of round-trip times.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from ..crypto.kdf import hmac_sha256
from ..crypto.randomness import DEFAULT_SOURCE, RandomSource
from ..crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from ..exceptions import DecryptionError
from .ipsec import EspSecurityAssociation

#: Default size of the strong end-to-end RSA keys (the paper contrasts the
#: weak 512-bit one-time keys with "strong end-to-end encryption, e.g.
#: 1024-bit RSA encryption").
STRONG_KEY_BITS = 1024

_HANDSHAKE_SECRET_LEN = 32


def generate_host_keypair(
    bits: int = STRONG_KEY_BITS, rng: Optional[RandomSource] = None
) -> RsaKeyPair:
    """Generate a host's long-term key pair (published in DNS, §3.1)."""
    return generate_keypair(bits, rng)


def _derive_sas(secret: bytes, initiator_spi: int, responder_spi: int,
                backend: Optional[str] = None) -> Tuple[EspSecurityAssociation, EspSecurityAssociation]:
    """Derive the two unidirectional SAs from the handshake secret."""
    initiator_to_responder = EspSecurityAssociation(
        spi=initiator_spi,
        encryption_key=hmac_sha256(secret, b"i2r-enc")[:16],
        integrity_key=hmac_sha256(secret, b"i2r-int"),
        backend=backend,
    )
    responder_to_initiator = EspSecurityAssociation(
        spi=responder_spi,
        encryption_key=hmac_sha256(secret, b"r2i-enc")[:16],
        integrity_key=hmac_sha256(secret, b"r2i-int"),
        backend=backend,
    )
    return initiator_to_responder, responder_to_initiator


@dataclass
class E2eSession:
    """An established end-to-end session (one side's view)."""

    local_role: str  # "initiator" or "responder"
    send_sa: EspSecurityAssociation
    receive_sa: EspSecurityAssociation

    def protect(self, plaintext: bytes, rng: Optional[RandomSource] = None) -> bytes:
        """Encrypt application data for the peer."""
        return self.send_sa.protect(plaintext, rng)

    def unprotect(self, payload: bytes) -> bytes:
        """Decrypt application data from the peer."""
        return self.receive_sa.unprotect(payload)


class E2eInitiator:
    """The initiating side of the end-to-end handshake."""

    def __init__(self, rng: Optional[RandomSource] = None, backend: Optional[str] = None) -> None:
        self._rng = rng or DEFAULT_SOURCE
        self._backend = backend
        self._secret: Optional[bytes] = None
        self._spis: Optional[Tuple[int, int]] = None

    def create_handshake(self, responder_public_key: RsaPublicKey) -> bytes:
        """Build the handshake blob to send to the responder.

        The blob is ``RSA_responder(secret || spi_i || spi_r)``; it typically
        rides inside the first neutralized packet's payload.
        """
        secret = self._rng.random_bytes(_HANDSHAKE_SECRET_LEN)
        spi_i = self._rng.random_range(1, 0xFFFFFFFF)
        spi_r = self._rng.random_range(1, 0xFFFFFFFF)
        self._secret = secret
        self._spis = (spi_i, spi_r)
        plaintext = secret + struct.pack("!II", spi_i, spi_r)
        return responder_public_key.encrypt(plaintext, self._rng)

    def establish(self) -> E2eSession:
        """Return the initiator-side session (call after :meth:`create_handshake`)."""
        if self._secret is None or self._spis is None:
            raise DecryptionError("create_handshake must be called before establish")
        spi_i, spi_r = self._spis
        send_sa, receive_sa = _derive_sas(self._secret, spi_i, spi_r, self._backend)
        return E2eSession(local_role="initiator", send_sa=send_sa, receive_sa=receive_sa)


class E2eResponder:
    """The responding side of the end-to-end handshake."""

    def __init__(self, keypair: RsaKeyPair, backend: Optional[str] = None) -> None:
        self._keypair = keypair
        self._backend = backend

    @property
    def public_key(self) -> RsaPublicKey:
        """The public key to publish in DNS."""
        return self._keypair.public

    def accept_handshake(self, handshake: bytes) -> E2eSession:
        """Process the initiator's handshake blob and return the responder session."""
        plaintext = self._keypair.private.decrypt(handshake)
        if len(plaintext) != _HANDSHAKE_SECRET_LEN + 8:
            raise DecryptionError("malformed end-to-end handshake")
        secret = plaintext[:_HANDSHAKE_SECRET_LEN]
        spi_i, spi_r = struct.unpack("!II", plaintext[_HANDSHAKE_SECRET_LEN:])
        initiator_to_responder, responder_to_initiator = _derive_sas(
            secret, spi_i, spi_r, self._backend
        )
        return E2eSession(
            local_role="responder",
            send_sa=responder_to_initiator,
            receive_sa=initiator_to_responder,
        )


def sessions_from_secret(
    secret: bytes, backend: Optional[str] = None
) -> Tuple[E2eSession, E2eSession]:
    """Derive a deterministic session pair from a pre-shared secret.

    Used by the reverse-direction flow (§3.3): the inside customer already
    shares ``Ks`` with the neutralizer and transports it to the outside peer
    under that peer's public key, so both sides can derive matching security
    associations without a second handshake.  SPIs are derived from the secret
    so the two directions stay distinct.
    """
    if len(secret) < 16:
        raise DecryptionError("secret too short to derive a session")
    spi_i = 1 + (int.from_bytes(hmac_sha256(secret, b"spi-i")[:4], "big") % 0xFFFFFFFE)
    spi_r = 1 + (int.from_bytes(hmac_sha256(secret, b"spi-r")[:4], "big") % 0xFFFFFFFE)
    send_i, send_r = _derive_sas(secret, spi_i, spi_r, backend)
    initiator = E2eSession(local_role="initiator", send_sa=send_i, receive_sa=send_r)
    responder = E2eSession(local_role="responder", send_sa=send_r, receive_sa=send_i)
    return initiator, responder


def establish_pair(
    responder_keypair: RsaKeyPair, rng: Optional[RandomSource] = None,
    backend: Optional[str] = None,
) -> Tuple[E2eSession, E2eSession]:
    """Convenience helper: run the whole handshake in-process (for tests/apps)."""
    initiator = E2eInitiator(rng=rng, backend=backend)
    responder = E2eResponder(responder_keypair, backend=backend)
    handshake = initiator.create_handshake(responder_keypair.public)
    responder_session = responder.accept_handshake(handshake)
    initiator_session = initiator.establish()
    return initiator_session, responder_session
