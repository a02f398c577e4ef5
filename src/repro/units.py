"""Unit-conversion helpers and the constants both simulators share.

The simulator keeps time in seconds (floats) and sizes in bytes (ints).  These
helpers exist so that experiment scripts read naturally (``mbps(100)``,
``msec(20)``) instead of sprinkling powers of ten around.  The module is a
leaf, so it also holds the VoIP codec's parameters: the packet-level call of
:mod:`repro.apps.voip` and the fluid VoIP class of
:mod:`repro.scale.population` read the same two numbers.
"""

from __future__ import annotations

#: Bits per byte; defined once so packet/rate conversions stay consistent.
BITS_PER_BYTE = 8

#: One kilo/mega/giga in SI form (network rates are SI, not binary).
KILO = 1_000
MEGA = 1_000_000
GIGA = 1_000_000_000

#: Default VoIP codec parameters, G.711-like: 50 packets/s, 160-byte frames.
DEFAULT_PACKET_INTERVAL = 0.020
DEFAULT_PAYLOAD_BYTES = 160


def mbps(value: float) -> float:
    """Return a rate expressed in megabits/second as bits/second."""
    return float(value) * MEGA


def gbps(value: float) -> float:
    """Return a rate expressed in gigabits/second as bits/second."""
    return float(value) * GIGA


def msec(value: float) -> float:
    """Return a duration expressed in milliseconds as seconds."""
    return float(value) / KILO


def seconds(value: float) -> float:
    """Identity helper; lets experiment configs be explicit about units."""
    return float(value)


def minutes(value: float) -> float:
    """Return a duration expressed in minutes as seconds."""
    return float(value) * 60.0


def hours(value: float) -> float:
    """Return a duration expressed in hours as seconds."""
    return float(value) * 3600.0


def kilobytes(value: float) -> int:
    """Return a size expressed in kilobytes as bytes."""
    return int(value * KILO)


def megabytes(value: float) -> int:
    """Return a size expressed in megabytes as bytes."""
    return int(value * MEGA)


def transmission_time(size_bytes: int, rate_bps: float) -> float:
    """Time in seconds to serialize ``size_bytes`` onto a link of ``rate_bps``.

    A zero or negative rate means an infinitely fast link (used by in-process
    benchmark fixtures), for which the transmission time is zero.
    """
    if rate_bps <= 0:
        return 0.0
    return (size_bytes * BITS_PER_BYTE) / float(rate_bps)
