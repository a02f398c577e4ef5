"""Source-side key-setup state machine (Figure 2a and the §3.2 refresh).

A source outside the neutral domain keeps one :class:`KeySetupContext` per
neutralizer (anycast address).  The context walks through three states:

``IDLE`` → ``PENDING`` (request sent, one-time RSA private key held) →
``ESTABLISHED`` (``Ks`` known; data packets can be built).

After establishment the context also tracks the *refreshed* key: the first
data packets carry the key-request flag, the neutralizer stamps ``(nonce',
Ks')`` toward the destination, and the destination echoes the pair back under
strong end-to-end encryption.  Once the echo arrives the context switches to
the refreshed key and stops requesting refreshes, which is the mechanism that
bounds the useful lifetime of the weak 512-bit one-time key to roughly two
round-trip times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from ..crypto.randomness import DEFAULT_SOURCE, RandomSource
from ..crypto.rsa import RsaKeyPair, generate_keypair
from ..exceptions import KeySetupError
from ..packet.addresses import IPv4Address
from ..packet.packet import Packet
from .shim import NONCE_LEN, SYMMETRIC_KEY_LEN, KeySetupRequestBody, KeySetupResponseBody

#: Size of the one-time key the paper suggests (512-bit RSA).
ONE_TIME_KEY_BITS = 512


class KeySetupState(Enum):
    """States of the source↔neutralizer key setup."""

    IDLE = "idle"
    PENDING = "pending"
    ESTABLISHED = "established"


@dataclass
class ActiveKey:
    """A usable (nonce, Ks) pair plus the epoch it belongs to."""

    nonce: bytes
    key: bytes
    epoch: int
    #: True when this pair was obtained through the strong e2e refresh rather
    #: than the weak one-time RSA exchange.
    refreshed: bool = False


@dataclass
class KeySetupContext:
    """Per-neutralizer key state kept by an outside source."""

    neutralizer_address: IPv4Address
    source_address: IPv4Address
    one_time_key_bits: int = ONE_TIME_KEY_BITS
    state: KeySetupState = KeySetupState.IDLE
    one_time_keypair: Optional[RsaKeyPair] = None
    active: Optional[ActiveKey] = None
    #: Packets the application tried to send before the key was ready.
    pending_packets: List[Packet] = field(default_factory=list)
    requests_sent: int = 0
    responses_received: int = 0
    refreshes_received: int = 0
    request_sent_at: float = 0.0

    # -- request construction -----------------------------------------------------

    def build_request(self, rng: Optional[RandomSource] = None) -> KeySetupRequestBody:
        """Generate the one-time key pair and the request body (Figure 2a, msg 1)."""
        source = rng or DEFAULT_SOURCE
        self.one_time_keypair = generate_keypair(self.one_time_key_bits, source)
        self.state = KeySetupState.PENDING
        self.requests_sent += 1
        return KeySetupRequestBody(public_key=self.one_time_keypair.public)

    # -- response processing ----------------------------------------------------------

    def process_response(self, body: KeySetupResponseBody) -> ActiveKey:
        """Decrypt/accept the neutralizer's response and establish the key."""
        if body.is_plaintext:
            nonce, key = body.plaintext_nonce, body.plaintext_key
        else:
            if self.one_time_keypair is None:
                raise KeySetupError("received a key-setup response without a pending request")
            plaintext = self.one_time_keypair.private.decrypt(body.ciphertext)
            if len(plaintext) != NONCE_LEN + SYMMETRIC_KEY_LEN:
                raise KeySetupError("malformed key-setup response plaintext")
            nonce, key = plaintext[:NONCE_LEN], plaintext[NONCE_LEN:]
        self.active = ActiveKey(nonce=nonce, key=key, epoch=body.epoch, refreshed=False)
        self.state = KeySetupState.ESTABLISHED
        self.responses_received += 1
        # The one-time key has served its purpose; drop it so nothing else can
        # be (mistakenly) protected with a 512-bit key.
        self.one_time_keypair = None
        return self.active

    def apply_refresh(self, refresh_nonce: bytes, refresh_key: bytes,
                      epoch: Optional[int] = None) -> ActiveKey:
        """Switch to the refreshed key echoed back by the destination (§3.2)."""
        if self.state != KeySetupState.ESTABLISHED or self.active is None:
            raise KeySetupError("cannot refresh a key before establishment")
        self.active = ActiveKey(
            nonce=refresh_nonce,
            key=refresh_key,
            epoch=self.active.epoch if epoch is None else epoch,
            refreshed=True,
        )
        self.refreshes_received += 1
        return self.active

    # -- queries -----------------------------------------------------------------------

    @property
    def is_established(self) -> bool:
        """``True`` when data packets can be built."""
        return self.state == KeySetupState.ESTABLISHED and self.active is not None

    @property
    def needs_refresh(self) -> bool:
        """``True`` while the active key still derives from the weak one-time exchange."""
        return self.is_established and not self.active.refreshed

    def queue_packet(self, packet: Packet) -> None:
        """Hold an application packet until the key is established."""
        self.pending_packets.append(packet)

    def drain_pending(self) -> List[Packet]:
        """Return and clear the queued packets (called on establishment)."""
        drained, self.pending_packets = self.pending_packets, []
        return drained

    def setup_rtt(self, now: float) -> float:
        """Elapsed time since the request was sent (for latency experiments)."""
        if self.request_sent_at == 0.0:
            return 0.0
        return now - self.request_sent_at


def attacker_window_seconds(rtt_seconds: float) -> float:
    """The time an attacker has to factor the one-time key before it is useless.

    "As long as a discriminatory ISP does not factor the short RSA key before
    K's is returned to the source (which takes two round trip times), the
    discriminatory ISP cannot decrypt the destination address" — so the window
    is two RTTs.  E7 compares this window against factoring-cost estimates.
    """
    return 2.0 * rtt_seconds
