"""Synthetic traffic generators: background load, key-setup floods, probe trains.

These are the paper's missing "production traces": the evaluation ran
synthetic UDP streams through a testbed, so the simulator equivalents are
constant-rate and Poisson packet sources plus the key-setup flood used by the
DoS experiments (E8, E11).
"""

from __future__ import annotations

from typing import Optional

from ..crypto.randomness import DEFAULT_SOURCE, RandomSource
from ..crypto.rsa import generate_keypair
from ..exceptions import WorkloadError
from ..netsim.node import Host
from ..packet.addresses import IPv4Address
from ..packet.builder import udp_packet
from ..packet.headers import IPv4Header, PROTO_NEUTRALIZER_SHIM
from ..packet.packet import Packet
from ..core.shim import KeySetupRequestBody


class ConstantRateSource:
    """Sends fixed-size UDP packets at a fixed rate from one host."""

    def __init__(
        self,
        host: Host,
        destination: IPv4Address,
        *,
        packets_per_second: float,
        payload_bytes: int = 1000,
        destination_port: int = 40000,
        dscp: int = 0,
        flow_id: Optional[str] = None,
    ) -> None:
        if packets_per_second <= 0 or payload_bytes < 0:
            raise WorkloadError("rate must be positive and payload non-negative")
        self.host = host
        self.destination = destination
        self.packets_per_second = packets_per_second
        self.payload_bytes = payload_bytes
        self.destination_port = destination_port
        self.dscp = dscp
        self.flow_id = flow_id
        self.packets_sent = 0

    def start(self, duration_seconds: float, delay: float = 0.0) -> int:
        """Schedule the packet train; returns the number of packets scheduled."""
        interval = 1.0 / self.packets_per_second
        count = int(duration_seconds * self.packets_per_second)
        for index in range(count):
            self.host.sim.schedule(delay + index * interval, self._send_one)
        return count

    def _send_one(self) -> None:
        packet = udp_packet(
            self.host.address,
            self.destination,
            b"b" * self.payload_bytes,
            destination_port=self.destination_port,
            dscp=self.dscp,
            flow_id=self.flow_id,
        )
        self.host.send(packet)
        self.packets_sent += 1


class PoissonSource(ConstantRateSource):
    """Same as :class:`ConstantRateSource` but with exponential inter-arrivals."""

    def __init__(self, *args, rng: Optional[RandomSource] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rng = rng or DEFAULT_SOURCE

    def start(self, duration_seconds: float, delay: float = 0.0) -> int:
        elapsed = 0.0
        count = 0
        while True:
            elapsed += self._rng.expovariate(self.packets_per_second)
            if elapsed > duration_seconds:
                break
            self.host.sim.schedule(delay + elapsed, self._send_one)
            count += 1
        return count


class KeySetupFlood:
    """An attacker flooding a neutralizer with key-setup requests (E8/E11).

    Each request carries a syntactically valid one-time public key so the
    neutralizer (or its offload helper) must spend a real RSA encryption per
    packet unless a defense intervenes.  A small pool of keys is pre-generated
    and reused: the *victim's* cost is identical, and the attacker is assumed
    to be resource-rich anyway.
    """

    def __init__(
        self,
        attacker: Host,
        neutralizer_address: IPv4Address,
        *,
        requests_per_second: float = 500.0,
        key_pool_size: int = 4,
        key_bits: int = 512,
        rng: Optional[RandomSource] = None,
        spoof_prefix=None,
    ) -> None:
        if requests_per_second <= 0:
            raise WorkloadError("flood rate must be positive")
        self.attacker = attacker
        self.neutralizer_address = neutralizer_address
        self.requests_per_second = requests_per_second
        self._rng = rng or DEFAULT_SOURCE
        self._spoof_prefix = spoof_prefix
        self._keys = [generate_keypair(key_bits, self._rng).public for _ in range(key_pool_size)]
        self.requests_sent = 0

    def start(self, duration_seconds: float, delay: float = 0.0) -> int:
        """Schedule the flood; returns the number of requests scheduled."""
        interval = 1.0 / self.requests_per_second
        count = int(duration_seconds * self.requests_per_second)
        for index in range(count):
            self.attacker.sim.schedule(delay + index * interval, self._send_one, index)
        return count

    def _send_one(self, index: int) -> None:
        body = KeySetupRequestBody(public_key=self._keys[index % len(self._keys)])
        source = self.attacker.address
        if self._spoof_prefix is not None:
            # Spoof within a prefix: pushback must work without trusting sources.
            offset = 1 + (index % max(1, self._spoof_prefix.size - 2))
            source = self._spoof_prefix.host(offset)
        packet = Packet(
            ip=IPv4Header(
                source=source,
                destination=self.neutralizer_address,
                protocol=PROTO_NEUTRALIZER_SHIM,
            ),
            shim=body.to_shim(),
        )
        self.attacker.send_raw(packet)
        self.requests_sent += 1
