"""VoIP application model with an E-model MOS score.

The paper's motivating scenario (§1) is a broadband ISP degrading Vonage-style
VoIP while favouring its own offering.  To make "degraded" measurable the
reproduction models a VoIP call as a constant-rate RTP-like stream and scores
the received stream with the ITU-T G.107 E-model (simplified to its delay and
loss impairments), producing the familiar 1–5 MOS.  Experiment E4 reports MOS
for the competitor's calls with and without discrimination, with and without
the neutralizer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import WorkloadError
from ..netsim.node import Host
from ..netsim.stats import LatencySampler
from ..packet.addresses import IPv4Address
from ..packet.builder import udp_packet
from ..packet.dscp import Dscp
from ..packet.packet import Packet
from ..units import DEFAULT_PACKET_INTERVAL, DEFAULT_PAYLOAD_BYTES

DEFAULT_VOIP_PORT = 16384


@dataclass
class VoipQualityReport:
    """Received-stream quality of one call direction."""

    packets_sent: int
    packets_received: int
    mean_latency_seconds: float
    p95_latency_seconds: float
    jitter_seconds: float

    @property
    def loss_rate(self) -> float:
        """Fraction of packets that never arrived."""
        if self.packets_sent == 0:
            return 0.0
        return 1.0 - self.packets_received / self.packets_sent

    @property
    def r_factor(self) -> float:
        """Simplified E-model transmission rating.

        R = R0 - Id(delay) - Ie_eff(loss) with R0 = 93.2.  The delay
        impairment follows the usual piecewise-linear approximation around the
        177.3 ms knee; the loss impairment uses G.711's equipment factor with
        random loss (Bpl = 25.1, Ie = 0).
        """
        one_way_ms = self.mean_latency_seconds * 1000.0
        delay_impairment = 0.024 * one_way_ms
        if one_way_ms > 177.3:
            delay_impairment += 0.11 * (one_way_ms - 177.3)
        loss_percent = self.loss_rate * 100.0
        loss_impairment = 0.0 + 95.0 * loss_percent / (loss_percent + 25.1)
        return 93.2 - delay_impairment - loss_impairment

    @property
    def mos(self) -> float:
        """Mean opinion score (1.0–4.5) derived from the R factor."""
        r = max(0.0, min(100.0, self.r_factor))
        if r <= 0:
            return 1.0
        mos = 1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6
        return max(1.0, min(4.5, mos))

    @property
    def is_usable(self) -> bool:
        """Rule of thumb: calls below MOS 3.1 are considered unusable."""
        return self.mos >= 3.1


class VoipReceiver:
    """Receives a VoIP stream on a host and records per-packet quality."""

    def __init__(self, host: Host, port: int = DEFAULT_VOIP_PORT) -> None:
        self.host = host
        self.port = port
        self.latency = LatencySampler()
        self.packets_received = 0
        self.bytes_received = 0
        host.register_port_handler(port, self._handle)

    def _handle(self, packet: Packet, host: Host) -> None:
        self.packets_received += 1
        self.bytes_received += len(packet.payload)
        sent_at = packet.meta.get("voip_sent_at")
        if sent_at is not None:
            self.latency.record(host.sim.now - sent_at)


class VoipCall:
    """One direction of a VoIP call (sender side drives the schedule)."""

    def __init__(
        self,
        caller: Host,
        callee_address: IPv4Address,
        receiver: VoipReceiver,
        *,
        name: str = "call",
        duration_seconds: float = 10.0,
        packet_interval: float = DEFAULT_PACKET_INTERVAL,
        payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
        dscp: int = int(Dscp.BEST_EFFORT),
        port: int = DEFAULT_VOIP_PORT,
    ) -> None:
        if duration_seconds <= 0 or packet_interval <= 0:
            raise WorkloadError("call duration and packet interval must be positive")
        self.caller = caller
        self.callee_address = callee_address
        self.receiver = receiver
        self.name = name
        self.duration_seconds = duration_seconds
        self.packet_interval = packet_interval
        self.payload_bytes = payload_bytes
        self.dscp = dscp
        self.port = port
        self.packets_sent = 0
        self._started = False

    @property
    def total_packets(self) -> int:
        """Number of packets the call will send."""
        return int(self.duration_seconds / self.packet_interval)

    def start(self, delay: float = 0.0) -> None:
        """Schedule the whole packet train starting ``delay`` seconds from now."""
        if self._started:
            raise WorkloadError(f"call {self.name} already started")
        self._started = True
        for index in range(self.total_packets):
            self.caller.sim.schedule(delay + index * self.packet_interval, self._send_one, index)

    def _send_one(self, index: int) -> None:
        payload = bytes([index % 251]) * self.payload_bytes
        packet = udp_packet(
            self.caller.address,
            self.callee_address,
            payload,
            source_port=self.port,
            destination_port=self.port,
            dscp=self.dscp,
            flow_id=self.name,
        )
        packet.meta["voip_sent_at"] = self.caller.sim.now
        self.caller.send(packet)
        self.packets_sent += 1

    def report(self) -> VoipQualityReport:
        """Quality report for the receiving side of this call."""
        return VoipQualityReport(
            packets_sent=self.packets_sent,
            packets_received=self.receiver.packets_received,
            mean_latency_seconds=self.receiver.latency.mean,
            p95_latency_seconds=self.receiver.latency.percentile(0.95),
            jitter_seconds=self.receiver.latency.jitter,
        )
