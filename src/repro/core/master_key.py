"""Master-key management for a neutralizer domain.

Every neutralizer of a domain shares the master key ``KM`` so that "any
neutralizer can decrypt the destination address and forward the packet"
(§3.2) — this is what preserves the stateless, fault-tolerant character of IP
routing under anycast.  The paper assumes the master key expires periodically
("If we assume a neutralizer's master key lasts for an hour..."), bounding
both how long a derived ``Ks`` stays valid and how many key setups a source
needs per hour (the E1 calculation).

:class:`MasterKeyManager` keeps the current epoch's key plus a configurable
number of previous epochs for graceful rollover (packets in flight during a
rotation still decrypt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..crypto.kdf import derive_symmetric_key
from ..crypto.randomness import DEFAULT_SOURCE, RandomSource
from ..exceptions import MasterKeyExpiredError
from ..packet.addresses import IPv4Address
from ..units import hours

#: The paper's working assumption for the master-key lifetime.
DEFAULT_EPOCH_LIFETIME_SECONDS = hours(1)

MASTER_KEY_LEN = 16


@dataclass
class MasterKeyEpoch:
    """One epoch of the domain master key."""

    epoch: int
    key: bytes
    created_at: float


class MasterKeyManager:
    """Holds the rolling master key of one neutralizer domain."""

    def __init__(
        self,
        rng: Optional[RandomSource] = None,
        *,
        lifetime_seconds: float = DEFAULT_EPOCH_LIFETIME_SECONDS,
        retained_epochs: int = 1,
        initial_epoch: int = 1,
    ) -> None:
        if lifetime_seconds <= 0:
            raise ValueError("master key lifetime must be positive")
        if retained_epochs < 0:
            raise ValueError("retained_epochs cannot be negative")
        self._rng = rng or DEFAULT_SOURCE
        self.lifetime_seconds = float(lifetime_seconds)
        self.retained_epochs = retained_epochs
        self._epochs: Dict[int, MasterKeyEpoch] = {}
        self._current_epoch = initial_epoch
        self._epochs[initial_epoch] = MasterKeyEpoch(
            epoch=initial_epoch, key=self._rng.random_bytes(MASTER_KEY_LEN), created_at=0.0
        )

    # -- epoch management ----------------------------------------------------------

    @property
    def current_epoch(self) -> int:
        """The epoch number new key setups are issued under."""
        return self._current_epoch

    def key_for_epoch(self, epoch: int) -> bytes:
        """Return the master key of ``epoch`` or raise if it has been retired."""
        try:
            return self._epochs[epoch].key
        except KeyError as exc:
            raise MasterKeyExpiredError(
                f"master key epoch {epoch} is no longer available "
                f"(current epoch is {self._current_epoch})"
            ) from exc

    def rotate(self, now: float = 0.0) -> int:
        """Advance to a fresh epoch, discarding epochs beyond the retention window."""
        self._current_epoch += 1
        self._epochs[self._current_epoch] = MasterKeyEpoch(
            epoch=self._current_epoch,
            key=self._rng.random_bytes(MASTER_KEY_LEN),
            created_at=now,
        )
        minimum_kept = self._current_epoch - self.retained_epochs
        for epoch in [e for e in self._epochs if e < minimum_kept]:
            del self._epochs[epoch]
        return self._current_epoch

    def schedule_rotation(self, sim) -> None:
        """Install periodic rotation on a simulator (used by long experiments)."""

        def rotate_and_reschedule() -> None:
            self.rotate(now=sim.now)
            sim.schedule(self.lifetime_seconds, rotate_and_reschedule)

        sim.schedule(self.lifetime_seconds, rotate_and_reschedule)

    # -- key derivation -------------------------------------------------------------

    def derive_key(self, nonce: bytes, source_address: IPv4Address,
                   epoch: Optional[int] = None) -> bytes:
        """Derive ``Ks = hash(KM, nonce, srcIP)`` for the given (or current) epoch."""
        chosen = self._current_epoch if epoch is None else epoch
        master = self.key_for_epoch(chosen)
        return derive_symmetric_key(master, nonce, source_address.packed)

    def key_setups_per_source_per_day(self) -> float:
        """How many key setups one source needs per day given the lifetime.

        The E1 "88 million sources" figure follows from one setup per source
        per master-key lifetime; this helper makes the arithmetic explicit for
        the report generator.
        """
        return 86_400.0 / self.lifetime_seconds
