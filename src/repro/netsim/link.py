"""Interfaces and point-to-point links.

A :class:`Link` connects two :class:`Interface` objects and models
store-and-forward transmission: serialization delay (packet size over the link
rate), propagation delay, and an egress queue per direction.  The queue is a
pluggable scheduler (FIFO by default) so QoS experiments can install
priority/DRR/token-bucket disciplines on specific links without touching the
forwarding code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..exceptions import TopologyError
from ..packet.addresses import IPv4Address
from ..packet.packet import Packet
from ..qos.schedulers import FifoScheduler, Scheduler
from ..units import transmission_time
from .engine import Simulator
from .stats import LinkStats


class Interface:
    """A network interface belonging to a node, optionally addressed."""

    def __init__(self, node, name: str, address: Optional[IPv4Address] = None) -> None:
        self.node = node
        self.name = name
        self.address = address
        self.link: Optional[Link] = None

    @property
    def is_connected(self) -> bool:
        """``True`` when the interface is attached to a link."""
        return self.link is not None

    def transmit(self, packet: Packet) -> bool:
        """Hand a packet to the attached link; returns ``False`` if dropped."""
        if self.link is None:
            raise TopologyError(f"interface {self.name} of {self.node.name} is not connected")
        return self.link.transmit(self, packet)

    def deliver(self, packet: Packet) -> None:
        """Called by the link when a packet arrives at this interface."""
        self.node.receive(packet, self)

    @property
    def peer(self) -> Optional["Interface"]:
        """The interface at the other end of the link, if connected."""
        if self.link is None:
            return None
        return self.link.other_end(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Interface {self.node.name}.{self.name} addr={self.address}>"


@dataclass
class _Direction:
    """Per-direction transmission state."""

    scheduler: Scheduler
    busy: bool = False
    stats: LinkStats = field(default_factory=LinkStats)


class Link:
    """A bidirectional point-to-point link."""

    def __init__(
        self,
        sim: Simulator,
        end_a: Interface,
        end_b: Interface,
        *,
        rate_bps: float,
        delay_seconds: float,
        scheduler_a_to_b: Optional[Scheduler] = None,
        scheduler_b_to_a: Optional[Scheduler] = None,
        name: Optional[str] = None,
        loss_rate: float = 0.0,
        loss_decider: Optional[Callable[[Packet], bool]] = None,
    ) -> None:
        if rate_bps <= 0:
            raise TopologyError("link rate must be positive")
        if delay_seconds < 0:
            raise TopologyError("link delay cannot be negative")
        if not 0.0 <= loss_rate < 1.0:
            raise TopologyError("loss rate must be in [0, 1)")
        self.sim = sim
        self.ends = (end_a, end_b)
        self.rate_bps = float(rate_bps)
        self.delay_seconds = float(delay_seconds)
        self.loss_rate = loss_rate
        self._loss_decider = loss_decider
        self.name = name or f"{end_a.node.name}<->{end_b.node.name}"
        end_a.link = self
        end_b.link = self
        # Note: schedulers define __len__ and an empty queue is falsy, so the
        # presence test must be an explicit "is not None".
        self._directions: Dict[Interface, _Direction] = {
            end_a: _Direction(
                scheduler=scheduler_a_to_b if scheduler_a_to_b is not None else FifoScheduler()
            ),
            end_b: _Direction(
                scheduler=scheduler_b_to_a if scheduler_b_to_a is not None else FifoScheduler()
            ),
        }
        # Token-bucket schedulers need a clock; wire it up if they want one.
        for direction in self._directions.values():
            set_clock = getattr(direction.scheduler, "set_clock", None)
            if callable(set_clock):
                set_clock(lambda: self.sim.now)
        #: Optional observers called as (packet, from_iface) on every accepted send.
        self.observers: List[Callable[[Packet, Interface], None]] = []

    def other_end(self, interface: Interface) -> Interface:
        """Return the interface at the opposite end from ``interface``."""
        if interface is self.ends[0]:
            return self.ends[1]
        if interface is self.ends[1]:
            return self.ends[0]
        raise TopologyError(f"{interface!r} is not attached to {self.name}")

    def stats_from(self, interface: Interface) -> LinkStats:
        """Return the egress statistics for the direction leaving ``interface``."""
        return self._directions[interface].stats

    def set_scheduler(self, from_interface: Interface, scheduler: Scheduler) -> None:
        """Replace the egress scheduler of one direction (QoS experiments)."""
        direction = self._directions[from_interface]
        direction.scheduler = scheduler
        set_clock = getattr(scheduler, "set_clock", None)
        if callable(set_clock):
            set_clock(lambda: self.sim.now)

    # -- transmission ---------------------------------------------------------

    def transmit(self, from_interface: Interface, packet: Packet) -> bool:
        """Queue ``packet`` for transmission from ``from_interface``.

        Returns ``True`` if the packet was accepted (queued or sent), ``False``
        if the egress queue dropped it.
        """
        direction = self._directions[from_interface]
        for observer in self.observers:
            observer(packet, from_interface)
        if self._should_lose(packet):
            direction.stats.record_drop()
            return False
        if direction.busy:
            accepted = direction.scheduler.enqueue(packet)
            if not accepted:
                direction.stats.record_drop()
                return False
            direction.stats.record_queue_depth(len(direction.scheduler))
            return True
        self._start_transmission(from_interface, direction, packet)
        return True

    def _should_lose(self, packet: Packet) -> bool:
        if self._loss_decider is not None:
            return self._loss_decider(packet)
        if self.loss_rate <= 0.0:
            return False
        # Deterministic pseudo-loss keyed on the packet id keeps runs replayable.
        return (hash((self.name, packet.packet_id)) % 10_000) < self.loss_rate * 10_000

    def _start_transmission(
        self, from_interface: Interface, direction: _Direction, packet: Packet
    ) -> None:
        direction.busy = True
        tx_time = transmission_time(packet.size_bytes, self.rate_bps)
        direction.stats.record_sent(packet.size_bytes)
        self.sim.schedule(tx_time, self._transmission_complete, from_interface, packet)

    def _transmission_complete(self, from_interface: Interface, packet: Packet) -> None:
        direction = self._directions[from_interface]
        destination = self.other_end(from_interface)
        self.sim.schedule(self.delay_seconds, destination.deliver, packet)
        next_packet = direction.scheduler.dequeue()
        if next_packet is not None:
            self._start_transmission(from_interface, direction, next_packet)
        else:
            direction.busy = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.rate_bps/1e6:.1f}Mbps {self.delay_seconds*1e3:.1f}ms>"
