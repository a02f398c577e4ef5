"""The source-side host stack for hosts outside the neutral domain.

:class:`NeutralizedClientStack` installs itself into a host's egress/ingress
hooks so applications stay unmodified: they keep sending ordinary UDP packets
to the destination's real address, and the stack transparently

* runs the key setup with the destination's neutralizer (queueing application
  packets until ``Ks`` is established),
* encrypts the destination address into the shim and readdresses the packet
  to the neutralizer's anycast address,
* folds the transport header and payload into the end-to-end encryption
  (piggybacking the e2e handshake on the first data packet),
* asks for and adopts the key refresh (§3.2) so the weak one-time RSA key is
  retired after roughly two round-trip times,
* unwraps return packets (recovering the real peer address from the encrypted
  shim field) and handles reverse-direction hellos from customers inside the
  neutral domain (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..crypto.kdf import constant_time_equal, integrity_tag
from ..crypto.randomness import DEFAULT_SOURCE, RandomSource
from ..crypto.rsa import RsaKeyPair, RsaPublicKey
from ..dns.records import BootstrapInfo
from ..e2e.session import E2eInitiator, E2eSession, sessions_from_secret
from ..exceptions import KeySetupError, NeutralizerError, ShimError
from ..netsim.node import Host
from ..packet.addresses import IPv4Address
from ..packet.headers import (
    IPv4Header,
    PROTO_NEUTRALIZER_SHIM,
    PROTO_UDP,
    SHIM_TYPE_KEY_SETUP_RESPONSE,
    SHIM_TYPE_NEUTRALIZED_DATA,
    SHIM_TYPE_RETURN_DATA,
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
from .keysetup import ActiveKey, KeySetupContext, KeySetupState
from .multihoming import FirstChoiceSelector, NeutralizerSelector
from .neutralizer import decrypt_address, encrypt_address
from .shim import (
    FLAG_KEY_REQUEST,
    NONCE_LEN,
    SYMMETRIC_KEY_LEN,
    TAG_LEN,
    KeySetupResponseBody,
    NeutralizedDataBody,
    ReturnDataBody,
)


@dataclass
class DestinationInfo:
    """What the client knows about a neutralized destination (from DNS, §3.1)."""

    address: IPv4Address
    neutralizer_addresses: List[IPv4Address] = field(default_factory=list)
    public_key: Optional[RsaPublicKey] = None
    name: str = ""

    @classmethod
    def from_bootstrap(cls, info: BootstrapInfo) -> "DestinationInfo":
        """Convert a DNS bootstrap result into destination info."""
        if info.address is None:
            raise NeutralizerError(f"bootstrap info for {info.name!r} has no address")
        return cls(
            address=info.address,
            neutralizer_addresses=list(info.neutralizer_addresses),
            public_key=info.public_key,
            name=info.name,
        )


@dataclass
class _PeerState:
    """Per-destination session state."""

    info: DestinationInfo
    neutralizer_address: Optional[IPv4Address] = None
    e2e_session: Optional[E2eSession] = None
    handshake_blob: Optional[bytes] = None
    #: Key override installed by a reverse-direction hello (§3.3): when set it
    #: is used instead of the per-neutralizer context key.
    key_override: Optional[ActiveKey] = None
    packets_sent: int = 0
    packets_received: int = 0


class NeutralizedClientStack:
    """Transparent neutralizer + e2e client for one outside host."""

    def __init__(
        self,
        host: Host,
        *,
        rng: Optional[RandomSource] = None,
        backend: Optional[str] = None,
        use_e2e: bool = True,
        selector: Optional[NeutralizerSelector] = None,
        one_time_key_bits: int = 512,
        host_keypair: Optional[RsaKeyPair] = None,
        key_setup_timeout_seconds: float = 1.0,
        key_setup_max_retries: int = 5,
    ) -> None:
        self.host = host
        self._rng = rng or DEFAULT_SOURCE
        self._backend = backend
        self.use_e2e = use_e2e
        self.selector = selector or FirstChoiceSelector()
        self.one_time_key_bits = one_time_key_bits
        self.key_setup_timeout_seconds = key_setup_timeout_seconds
        self.key_setup_max_retries = key_setup_max_retries
        #: The host's own long-term key pair, needed only to *receive*
        #: reverse-direction hellos (its public half is published in DNS).
        self.host_keypair = host_keypair
        self._destinations: Dict[IPv4Address, DestinationInfo] = {}
        self._peers: Dict[IPv4Address, _PeerState] = {}
        self._contexts: Dict[IPv4Address, KeySetupContext] = {}
        #: Every (neutralizer, nonce) -> key pair ever activated, so return
        #: packets keyed by an older nonce still decrypt after a refresh.
        self._nonce_keys: Dict[Tuple[IPv4Address, bytes], bytes] = {}
        self.counters: Dict[str, int] = {
            "packets_neutralized": 0,
            "packets_passed_through": 0,
            "packets_queued": 0,
            "key_setups_started": 0,
            "key_setups_completed": 0,
            "key_setup_retries": 0,
            "key_setups_abandoned": 0,
            "refreshes_adopted": 0,
            "returns_unwrapped": 0,
            "reverse_hellos_accepted": 0,
            "tag_failures": 0,
            "undecodable": 0,
        }
        host.egress_hooks.append(self._egress_hook)
        host.ingress_hooks.append(self._ingress_hook)

    # -- destination registration ---------------------------------------------------

    def register_destination(self, info: DestinationInfo) -> None:
        """Tell the stack that traffic to ``info.address`` must be neutralized."""
        if not info.neutralizer_addresses:
            raise NeutralizerError(
                f"destination {info.address} has no neutralizer addresses; "
                "traffic to it cannot be neutralized"
            )
        self._destinations[info.address] = info

    def register_from_bootstrap(self, bootstrap: BootstrapInfo) -> DestinationInfo:
        """Register a destination straight from a DNS bootstrap lookup."""
        info = DestinationInfo.from_bootstrap(bootstrap)
        self.register_destination(info)
        return info

    # -- key setup ------------------------------------------------------------------------

    def context_for(self, neutralizer_address: IPv4Address) -> KeySetupContext:
        """Return (creating if needed) the key context for one neutralizer."""
        if neutralizer_address not in self._contexts:
            self._contexts[neutralizer_address] = KeySetupContext(
                neutralizer_address=neutralizer_address,
                source_address=self.host.address,
                one_time_key_bits=self.one_time_key_bits,
            )
        return self._contexts[neutralizer_address]

    def _start_key_setup(self, context: KeySetupContext, *, attempt: int = 0) -> None:
        body = context.build_request(self._rng)
        context.request_sent_at = self.host.sim.now
        if attempt == 0:
            self.counters["key_setups_started"] += 1
        else:
            self.counters["key_setup_retries"] += 1
        request = Packet(
            ip=IPv4Header(
                source=self.host.address,
                destination=context.neutralizer_address,
                protocol=PROTO_NEUTRALIZER_SHIM,
            ),
            shim=body.to_shim(),
        )
        self.host.send_raw(request)
        # Key-setup packets can be lost (congestion, DoS floods, §3.6
        # discrimination against key setups); retry with a fixed timeout a
        # bounded number of times, then give up and report failure.
        self.host.sim.schedule(
            self.key_setup_timeout_seconds, self._maybe_retry_key_setup, context, attempt
        )

    def _maybe_retry_key_setup(self, context: KeySetupContext, attempt: int) -> None:
        if context.is_established or context.state != KeySetupState.PENDING:
            return
        if attempt + 1 >= self.key_setup_max_retries:
            self.counters["key_setups_abandoned"] += 1
            self.selector.record_outcome(context.neutralizer_address, failed=True)
            context.state = KeySetupState.IDLE
            context.pending_packets.clear()
            return
        self.selector.record_outcome(context.neutralizer_address, failed=True)
        self._start_key_setup(context, attempt=attempt + 1)

    def _handle_key_setup_response(self, packet: Packet) -> None:
        context = self._contexts.get(packet.source)
        if context is None or context.state != KeySetupState.PENDING:
            self.counters["undecodable"] += 1
            return
        body = KeySetupResponseBody.unpack(packet.shim.body)
        try:
            active = context.process_response(body)
        except KeySetupError:
            self.counters["undecodable"] += 1
            return
        self._nonce_keys[(context.neutralizer_address, active.nonce)] = active.key
        self.counters["key_setups_completed"] += 1
        self.selector.record_outcome(
            context.neutralizer_address, rtt=context.setup_rtt(self.host.sim.now)
        )
        for queued in context.drain_pending():
            self.host.send(queued)

    # -- egress path --------------------------------------------------------------------------

    def _egress_hook(self, packet: Packet, host: Host) -> Optional[Packet]:
        if packet.shim is not None or packet.destination not in self._destinations:
            self.counters["packets_passed_through"] += 1
            return packet
        info = self._destinations[packet.destination]
        peer = self._peers.setdefault(packet.destination, _PeerState(info=info))
        if peer.neutralizer_address is None:
            peer.neutralizer_address = self.selector.select(info.neutralizer_addresses)
        context = self.context_for(peer.neutralizer_address)

        if peer.key_override is None and not context.is_established:
            context.queue_packet(packet)
            self.counters["packets_queued"] += 1
            if context.state != KeySetupState.PENDING:
                self._start_key_setup(context)
            return None
        return self._wrap(packet, peer, context)

    def _wrap(self, packet: Packet, peer: _PeerState, context: KeySetupContext) -> Packet:
        active = peer.key_override or context.active
        assert active is not None
        envelope = self._build_envelope(packet, peer)
        flags = 0
        if peer.key_override is None and context.needs_refresh:
            flags |= FLAG_KEY_REQUEST
        encrypted_destination = encrypt_address(
            active.key, active.nonce, packet.destination, backend=self._backend
        )
        provisional = NeutralizedDataBody(
            epoch=active.epoch,
            nonce=active.nonce,
            encrypted_destination=encrypted_destination,
            tag=b"\x00" * TAG_LEN,
            flags=flags,
        )
        tag = integrity_tag(active.key, provisional.tag_input(), TAG_LEN)
        body = NeutralizedDataBody(
            epoch=active.epoch,
            nonce=active.nonce,
            encrypted_destination=encrypted_destination,
            tag=tag,
            flags=flags,
        )
        wrapped = Packet(
            ip=IPv4Header(
                source=self.host.address,
                destination=peer.neutralizer_address,
                protocol=PROTO_NEUTRALIZER_SHIM,
                dscp=packet.dscp,
                ttl=packet.ip.ttl,
            ),
            shim=body.to_shim(PROTO_UDP if packet.udp is not None else 0),
            payload=envelope,
            meta=dict(packet.meta),
        )
        peer.packets_sent += 1
        self.counters["packets_neutralized"] += 1
        return wrapped

    def _build_envelope(self, packet: Packet, peer: _PeerState) -> bytes:
        inner = pack_inner(packet.payload, udp=packet.udp)
        if not self.use_e2e or (peer.info.public_key is None and peer.e2e_session is None):
            return pack_envelope(ENVELOPE_PLAINTEXT, inner)
        if peer.e2e_session is None:
            initiator = E2eInitiator(rng=self._rng, backend=self._backend)
            peer.handshake_blob = initiator.create_handshake(peer.info.public_key)
            peer.e2e_session = initiator.establish()
        protected = peer.e2e_session.protect(inner, self._rng)
        if peer.handshake_blob is not None:
            blob, peer.handshake_blob = peer.handshake_blob, None
            return pack_envelope(ENVELOPE_HANDSHAKE_DATA, protected, prefix=blob)
        return pack_envelope(ENVELOPE_DATA, protected)

    # -- ingress path -------------------------------------------------------------------------------

    def _ingress_hook(self, packet: Packet, host: Host) -> Optional[Packet]:
        if packet.shim is None:
            return packet
        if packet.shim.shim_type == SHIM_TYPE_KEY_SETUP_RESPONSE:
            self._handle_key_setup_response(packet)
            return None
        if packet.shim.shim_type == SHIM_TYPE_RETURN_DATA:
            return self._handle_return_data(packet)
        if packet.shim.shim_type == SHIM_TYPE_NEUTRALIZED_DATA:
            # Outside hosts do not normally receive forward-direction packets;
            # leave them for other handlers (e.g. an offload helper).
            return packet
        return packet

    def _handle_return_data(self, packet: Packet) -> Optional[Packet]:
        try:
            body = ReturnDataBody.unpack(packet.shim.body)
        except ShimError:
            self.counters["undecodable"] += 1
            return None
        key = self._nonce_keys.get((packet.source, body.nonce))
        envelope = parse_envelope(packet.payload) if packet.payload else None

        if key is None and envelope is not None and (
            envelope.envelope_type == ENVELOPE_REVERSE_HELLO
        ):
            return self._handle_reverse_hello(packet, body, envelope)
        if key is None:
            self.counters["undecodable"] += 1
            return None

        expected = integrity_tag(key, body.tag_input(), TAG_LEN)
        if not constant_time_equal(expected, body.tag):
            self.counters["tag_failures"] += 1
            return None
        real_source = decrypt_address(
            key, body.nonce, body.address_field, return_direction=True, backend=self._backend
        )
        return self._deliver_inner(packet, envelope, real_source)

    def _deliver_inner(self, packet: Packet, envelope, real_source: IPv4Address) -> Optional[Packet]:
        peer = self._peers.get(real_source)
        if envelope is None:
            self.counters["undecodable"] += 1
            return None
        if envelope.envelope_type == ENVELOPE_PLAINTEXT:
            inner_bytes = envelope.body
        elif envelope.envelope_type in (ENVELOPE_DATA, ENVELOPE_HANDSHAKE_DATA):
            if peer is None or peer.e2e_session is None:
                self.counters["undecodable"] += 1
                return None
            inner_bytes = peer.e2e_session.unprotect(envelope.body)
        else:
            self.counters["undecodable"] += 1
            return None
        inner = parse_inner(inner_bytes)
        if inner.refresh is not None and peer is not None and peer.neutralizer_address is not None:
            self._adopt_refresh(peer.neutralizer_address, inner.refresh)
        if peer is not None:
            peer.packets_received += 1
        self.counters["returns_unwrapped"] += 1
        return self._rebuild_app_packet(packet, real_source, inner)

    def _adopt_refresh(self, neutralizer_address: IPv4Address,
                       refresh: Tuple[bytes, bytes]) -> None:
        context = self._contexts.get(neutralizer_address)
        if context is None or not context.is_established:
            return
        nonce, key = refresh
        if context.active is not None and context.active.nonce == nonce:
            return  # already adopted
        context.apply_refresh(nonce, key)
        self._nonce_keys[(neutralizer_address, nonce)] = key
        self.counters["refreshes_adopted"] += 1

    def _handle_reverse_hello(self, packet: Packet, body: ReturnDataBody, envelope) -> Optional[Packet]:
        """Accept a customer-initiated session (§3.3)."""
        if self.host_keypair is None:
            self.counters["undecodable"] += 1
            return None
        try:
            opened = self.host_keypair.private.decrypt(envelope.prefix)
        except Exception:
            self.counters["undecodable"] += 1
            return None
        if len(opened) != NONCE_LEN + SYMMETRIC_KEY_LEN:
            self.counters["undecodable"] += 1
            return None
        nonce, key = opened[:NONCE_LEN], opened[NONCE_LEN:]
        if nonce != body.nonce:
            self.counters["undecodable"] += 1
            return None
        real_source = decrypt_address(
            key, body.nonce, body.address_field, return_direction=True, backend=self._backend
        )
        # Register the peer so replies are neutralized via the same box/key.
        info = DestinationInfo(
            address=real_source, neutralizer_addresses=[packet.source]
        )
        self._destinations[real_source] = info
        _initiator_session, responder_session = sessions_from_secret(key, self._backend)
        peer = _PeerState(
            info=info,
            neutralizer_address=packet.source,
            e2e_session=responder_session,
            key_override=ActiveKey(nonce=nonce, key=key, epoch=body.epoch, refreshed=True),
        )
        self._peers[real_source] = peer
        self._nonce_keys[(packet.source, nonce)] = key
        self.counters["reverse_hellos_accepted"] += 1
        inner = parse_inner(responder_session.unprotect(envelope.body))
        peer.packets_received += 1
        return self._rebuild_app_packet(packet, real_source, inner)

    def _rebuild_app_packet(self, packet: Packet, real_source: IPv4Address, inner) -> Packet:
        rebuilt = Packet(
            ip=IPv4Header(
                source=real_source,
                destination=self.host.address,
                protocol=PROTO_UDP if inner.udp is not None else 0,
                dscp=packet.dscp,
            ),
            udp=inner.udp,
            payload=inner.payload,
            meta=dict(packet.meta),
            hops=list(packet.hops),
        )
        return rebuilt

    # -- introspection ---------------------------------------------------------------------------------

    def active_key_for(self, neutralizer_address: IPv4Address) -> Optional[ActiveKey]:
        """Return the currently active key for one neutralizer (or None)."""
        context = self._contexts.get(neutralizer_address)
        return context.active if context is not None else None
