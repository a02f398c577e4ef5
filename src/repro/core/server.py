"""The customer-side host stack for hosts inside the neutral domain.

:class:`NeutralizedServerStack` is what runs on Google/Yahoo/Vonage-style
customers of the neutral ISP.  Incoming neutralized packets are unwrapped
(e2e handshake accepted, transport header restored) before the application
sees them; outgoing replies are wrapped into return packets addressed to the
neutralizer's anycast address, carrying the initiator's address and nonce in
the shim so the stateless neutralizer can anonymize them (Figure 2b, messages
5–6).  When the neutralizer stamped a key refresh into a forward packet, the
stack echoes it back inside the end-to-end protected payload of the next
reply, completing the §3.2 refresh loop.

The stack also implements the reverse direction (§3.3): a customer can
*initiate* a connection to an outside host by requesting a ``(nonce, Ks)``
pair from its neutralizer (no encryption needed inside the trusted domain),
transporting the pair to the peer under the peer's public key, and then using
the ordinary return path for data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..crypto.randomness import DEFAULT_SOURCE, RandomSource
from ..crypto.rsa import RsaKeyPair, RsaPublicKey
from ..e2e.session import E2eResponder, E2eSession, sessions_from_secret
from ..exceptions import ShimError
from ..netsim.node import Host
from ..packet.addresses import IPv4Address
from ..packet.headers import (
    IPv4Header,
    PROTO_NEUTRALIZER_SHIM,
    PROTO_UDP,
    SHIM_TYPE_KEY_SETUP_RESPONSE,
    SHIM_TYPE_NEUTRALIZED_DATA,
)
from ..packet.packet import Packet
from .envelope import (
    ENVELOPE_DATA,
    ENVELOPE_HANDSHAKE_DATA,
    ENVELOPE_PLAINTEXT,
    ENVELOPE_REVERSE_HELLO,
    pack_envelope,
    pack_inner,
    parse_envelope,
    parse_inner,
)
from .shim import (
    FLAG_REVERSE_HELLO,
    KeySetupResponseBody,
    NeutralizedDataBody,
    ReturnDataBody,
    ReverseKeyRequestBody,
    TAG_LEN,
)


@dataclass
class _PeerContext:
    """State kept per outside peer."""

    peer_address: IPv4Address
    nonce: Optional[bytes] = None
    epoch: int = 0
    session: Optional[E2eSession] = None
    #: Refresh pair stamped by the neutralizer, waiting to be echoed back.
    pending_refresh: Optional[Tuple[bytes, bytes]] = None
    #: Reverse-direction state: the shared key and whether the hello was sent.
    reverse_key: Optional[bytes] = None
    reverse_hello_sent: bool = False
    reverse_peer_public_key: Optional[RsaPublicKey] = None
    #: Packets queued while the reverse key request is outstanding.
    pending_packets: List[Packet] = field(default_factory=list)
    packets_received: int = 0
    packets_sent: int = 0


class NeutralizedServerStack:
    """Transparent neutralizer + e2e server for one inside (customer) host."""

    def __init__(
        self,
        host: Host,
        keypair: RsaKeyPair,
        neutralizer_address: IPv4Address,
        *,
        rng: Optional[RandomSource] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.host = host
        self.keypair = keypair
        self.neutralizer_address = neutralizer_address
        self._rng = rng or DEFAULT_SOURCE
        self._backend = backend
        self._responder = E2eResponder(keypair, backend=backend)
        self._peers: Dict[IPv4Address, _PeerContext] = {}
        self.counters: Dict[str, int] = {
            "forward_packets_unwrapped": 0,
            "returns_sent": 0,
            "refresh_echoes_sent": 0,
            "reverse_requests_sent": 0,
            "reverse_hellos_sent": 0,
            "passed_through": 0,
            "undecodable": 0,
        }
        host.ingress_hooks.append(self._ingress_hook)
        host.egress_hooks.append(self._egress_hook)

    @property
    def public_key(self) -> RsaPublicKey:
        """The key the site publishes in its DNS KEY record."""
        return self.keypair.public

    # -- ingress: unwrap forward packets -------------------------------------------------

    def _ingress_hook(self, packet: Packet, host: Host) -> Optional[Packet]:
        if packet.shim is None:
            return packet
        if packet.shim.shim_type == SHIM_TYPE_NEUTRALIZED_DATA:
            return self._handle_forward(packet)
        if packet.shim.shim_type == SHIM_TYPE_KEY_SETUP_RESPONSE:
            handled = self._handle_reverse_key_response(packet)
            return None if handled else packet
        return packet

    def _handle_forward(self, packet: Packet) -> Optional[Packet]:
        try:
            body = NeutralizedDataBody.unpack(packet.shim.body, packet.shim.next_protocol)
        except ShimError:
            self.counters["undecodable"] += 1
            return None
        peer = self._peers.setdefault(packet.source, _PeerContext(peer_address=packet.source))
        peer.nonce = body.nonce
        peer.epoch = body.epoch
        if body.has_refresh and body.refresh_nonce is not None:
            peer.pending_refresh = (body.refresh_nonce, body.refresh_key)

        try:
            envelope = parse_envelope(packet.payload)
        except ShimError:
            self.counters["undecodable"] += 1
            return None
        inner_bytes = self._open_envelope(envelope, peer)
        if inner_bytes is None:
            self.counters["undecodable"] += 1
            return None
        inner = parse_inner(inner_bytes)
        peer.packets_received += 1
        self.counters["forward_packets_unwrapped"] += 1
        return Packet(
            ip=IPv4Header(
                source=packet.source,
                destination=self.host.address,
                protocol=PROTO_UDP if inner.udp is not None else 0,
                dscp=packet.dscp,
            ),
            udp=inner.udp,
            payload=inner.payload,
            meta=dict(packet.meta),
            hops=list(packet.hops),
        )

    def _open_envelope(self, envelope, peer: _PeerContext) -> Optional[bytes]:
        if envelope.envelope_type == ENVELOPE_PLAINTEXT:
            return envelope.body
        if envelope.envelope_type == ENVELOPE_HANDSHAKE_DATA:
            try:
                peer.session = self._responder.accept_handshake(envelope.prefix)
            except Exception:
                return None
            return self._unprotect(envelope.body, peer)
        if envelope.envelope_type == ENVELOPE_DATA:
            return self._unprotect(envelope.body, peer)
        return None

    def _unprotect(self, body: bytes, peer: _PeerContext) -> Optional[bytes]:
        if peer.session is None:
            return None
        try:
            return peer.session.unprotect(body)
        except Exception:
            return None

    # -- egress: wrap replies into return packets ----------------------------------------------

    def _egress_hook(self, packet: Packet, host: Host) -> Optional[Packet]:
        if packet.shim is not None:
            return packet
        peer = self._peers.get(packet.destination)
        if peer is None:
            self.counters["passed_through"] += 1
            return packet
        if peer.reverse_key is not None and peer.nonce is None:
            # Reverse key requested but response not here yet; queue.
            peer.pending_packets.append(packet)
            return None
        return self._wrap_return(packet, peer)

    def _wrap_return(self, packet: Packet, peer: _PeerContext) -> Packet:
        refresh = peer.pending_refresh
        peer.pending_refresh = None
        if refresh is not None:
            self.counters["refresh_echoes_sent"] += 1
        inner = pack_inner(packet.payload, udp=packet.udp, refresh=refresh)
        flags = 0
        if peer.session is not None:
            protected = peer.session.protect(inner, self._rng)
            if peer.reverse_key is not None and not peer.reverse_hello_sent:
                assert peer.reverse_peer_public_key is not None
                key_blob = peer.reverse_peer_public_key.encrypt(
                    peer.nonce + peer.reverse_key, self._rng
                )
                envelope = pack_envelope(ENVELOPE_REVERSE_HELLO, protected, prefix=key_blob)
                peer.reverse_hello_sent = True
                flags |= FLAG_REVERSE_HELLO
                self.counters["reverse_hellos_sent"] += 1
            else:
                envelope = pack_envelope(ENVELOPE_DATA, protected)
        else:
            envelope = pack_envelope(ENVELOPE_PLAINTEXT, inner)
        body = ReturnDataBody(
            epoch=peer.epoch,
            nonce=peer.nonce,
            address_field=peer.peer_address.packed,
            tag=b"\x00" * TAG_LEN,
            flags=flags,
        )
        wrapped = Packet(
            ip=IPv4Header(
                source=self.host.address,
                destination=self.neutralizer_address,
                protocol=PROTO_NEUTRALIZER_SHIM,
                dscp=packet.dscp,
                ttl=packet.ip.ttl,
            ),
            shim=body.to_shim(PROTO_UDP if packet.udp is not None else 0),
            payload=envelope,
            meta=dict(packet.meta),
        )
        peer.packets_sent += 1
        self.counters["returns_sent"] += 1
        return wrapped

    # -- reverse-direction initiation (§3.3) -----------------------------------------------------------

    def initiate_to(self, peer_address: IPv4Address, peer_public_key: RsaPublicKey) -> None:
        """Start a customer-initiated session toward an outside peer.

        The stack requests a ``(nonce, Ks)`` pair from the neutralizer; once
        it arrives, application packets queued for ``peer_address`` are sent
        with a reverse hello carrying the key under the peer's public key.
        """
        peer = self._peers.setdefault(peer_address, _PeerContext(peer_address=peer_address))
        peer.reverse_peer_public_key = peer_public_key
        peer.reverse_key = b""  # marks "requested, waiting for the response"
        request = ReverseKeyRequestBody(peer_address=peer_address)
        packet = Packet(
            ip=IPv4Header(
                source=self.host.address,
                destination=self.neutralizer_address,
                protocol=PROTO_NEUTRALIZER_SHIM,
            ),
            shim=request.to_shim(),
        )
        self.counters["reverse_requests_sent"] += 1
        self.host.send_raw(packet)

    def _handle_reverse_key_response(self, packet: Packet) -> bool:
        try:
            body = KeySetupResponseBody.unpack(packet.shim.body)
        except ShimError:
            return False
        if not body.is_plaintext:
            return False
        # Find the peer waiting for a reverse key (requested but not filled).
        waiting = [
            peer for peer in self._peers.values()
            if peer.reverse_key == b"" and peer.reverse_peer_public_key is not None
        ]
        if not waiting:
            return False
        peer = waiting[0]
        peer.reverse_key = body.plaintext_key
        peer.nonce = body.plaintext_nonce
        peer.epoch = body.epoch
        initiator_session, _responder_session = sessions_from_secret(
            body.plaintext_key, self._backend
        )
        peer.session = initiator_session
        pending, peer.pending_packets = peer.pending_packets, []
        for queued in pending:
            self.host.send(queued)
        return True
