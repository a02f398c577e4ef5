"""Exception hierarchy shared by every subpackage of :mod:`repro`.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch a single base class.  Subsystems define narrower classes here rather
than locally so that cross-subsystem code (the simulator driving the
neutralizer, the benchmark harness driving both) does not have to import deep
modules just to handle their errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the repro library."""


# ---------------------------------------------------------------------------
# Crypto
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeySizeError(CryptoError):
    """A key of an unsupported or insecure size was supplied."""


class PaddingError(CryptoError):
    """Ciphertext padding was malformed (wrong key or corrupted data)."""


class DecryptionError(CryptoError):
    """Decryption failed (wrong key, truncated or corrupted ciphertext)."""


class SignatureError(CryptoError):
    """A signature or integrity tag did not verify."""


# ---------------------------------------------------------------------------
# Packet model
# ---------------------------------------------------------------------------


class PacketError(ReproError):
    """Base class for packet construction and parsing failures."""


class HeaderError(PacketError):
    """A header field was out of range or a serialized header malformed."""


class AddressError(PacketError):
    """An IP address or prefix string could not be parsed or is invalid."""


class TruncatedPacketError(PacketError):
    """The byte buffer ended before the advertised length."""


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulator failures."""


class TopologyError(SimulationError):
    """The topology description is inconsistent (unknown node, no route...)."""


class RoutingError(SimulationError):
    """No route exists for a destination, or a routing table is malformed."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or the engine was misused."""


# ---------------------------------------------------------------------------
# DNS
# ---------------------------------------------------------------------------


class DnsError(ReproError):
    """Base class for DNS substrate failures."""


class NxDomainError(DnsError):
    """The queried name does not exist."""


# ---------------------------------------------------------------------------
# Neutralizer protocol
# ---------------------------------------------------------------------------


class NeutralizerError(ReproError):
    """Base class for neutralizer protocol failures."""


class KeySetupError(NeutralizerError):
    """The key-setup exchange failed (bad response, expired master key...)."""


class ShimError(NeutralizerError):
    """A shim header was missing, malformed, or failed to decrypt."""


class MasterKeyExpiredError(NeutralizerError):
    """A packet referenced a master-key epoch the neutralizer no longer holds."""


class OffloadError(NeutralizerError):
    """RSA offloading to a customer failed or no helper was available."""


# ---------------------------------------------------------------------------
# QoS
# ---------------------------------------------------------------------------


class QosError(ReproError):
    """Base class for QoS subsystem failures."""


class ReservationError(QosError):
    """An IntServ reservation could not be admitted or does not exist."""


# ---------------------------------------------------------------------------
# Applications / analysis
# ---------------------------------------------------------------------------


class WorkloadError(ReproError):
    """A workload generator was configured inconsistently."""
