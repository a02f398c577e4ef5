"""Live campaign observability plane: event stream + streaming detectors.

This module is the *active* half of observability, layered on the passive
telemetry facade (:mod:`repro.scale.telemetry`).  It provides:

* :class:`EventLog` — an append-only, deterministic structured event
  stream.  Every event is a typed ``(seq, kind, payload)`` record with a
  schema version; the NDJSON export is canonical (sorted keys, fixed
  separators) so two logs are comparable byte-for-byte.  Payloads carry
  no wall-clock timestamps: like the rest of the telemetry plane, the
  stream observes the simulation but never participates in it, and the
  same campaign produces the same bytes on any machine and any worker
  count.
* An in-process pub/sub API — :meth:`EventLog.subscribe` — so a
  long-lived service can tail a live campaign without polling
  ``get_current_state()`` or touching the campaign's results.  The final
  ``campaign_complete`` event marks termination, so consumers never need
  a poll loop to detect the end of a run.
* Streaming health detectors over the event feed:
  :class:`BlackHoleDetector` (CUSUM change detection on per-site served
  capacity, naming the site and onset epoch of a persistent black hole),
  :class:`SloBreachDetector` (consecutive latency-SLO violations), and
  :class:`AutoscaleOscillationDetector` (rapid scale-direction flips).
  Detector verdicts are themselves events (``kind="detector"``) emitted
  into the same log, so they inherit the stream's determinism: identical
  input streams produce identical verdicts at identical positions.

Event kinds emitted by the simulator (all payload values are plain JSON
scalars/lists; see ``docs/observability.md`` for the full schema):

``campaign_started`` / ``campaign_complete``
    Campaign lifecycle, with ``experiment`` and ``units``.
``unit_started`` / ``unit_complete``
    Per-unit lifecycle with the unit index and a human-readable label.
``timeline_started`` / ``timeline_complete``
    Timeline lifecycle with the site roster and SLO parameters.
``epoch``
    One record per epoch: delivered fraction, latency percentile,
    per-site served capacity, and the commissioned-site mask.
``fleet_event`` / ``reconfig`` / ``autoscale`` / ``adversary``
    Scripted fleet events, control-plane transactions, autoscaler
    actions, and adversary moves, at the epoch they fire.
``detector``
    A detector verdict (never consumed by detectors themselves).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "AutoscaleOscillationDetector",
    "BlackHoleDetector",
    "DetectorSuite",
    "Event",
    "EventLog",
    "SloBreachDetector",
    "Subscription",
    "attach_detectors",
    "verdicts",
]

#: Version stamped into every exported event.  Bump when a payload field
#: changes meaning or type; additive fields do not require a bump.
EVENT_SCHEMA_VERSION = 1

#: Envelope keys an event payload may not shadow.
_RESERVED_KEYS = frozenset({"seq", "kind", "schema"})


class Event:
    """One immutable record in an :class:`EventLog`.

    ``seq`` is the event's position in its log (assigned at emit time),
    ``kind`` the event type, and ``payload`` the type-specific fields.
    """

    __slots__ = ("seq", "kind", "payload", "_json")

    def __init__(self, seq: int, kind: str, payload: Mapping[str, object]):
        self.seq = seq
        self.kind = kind
        self.payload = payload
        self._json: Optional[str] = None

    def to_json(self) -> str:
        """Canonical single-line JSON: sorted keys, no whitespace.

        The observation plane's only event encoder.  The line is built
        by the first reader that asks and kept, so the NDJSON export and
        the monitor's ``/events``, ``/verdicts`` and ``/stream`` all hand
        out the same ``str``; emitting an event encodes nothing.
        """
        line = self._json
        if line is None:
            record = dict(self.payload)
            record["seq"] = self.seq
            record["kind"] = self.kind
            record["schema"] = EVENT_SCHEMA_VERSION
            line = self._json = json.dumps(
                record, sort_keys=True, separators=(",", ":"))
        return line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(seq={self.seq}, kind={self.kind!r}, payload={dict(self.payload)!r})"


class Subscription:
    """Handle returned by :meth:`EventLog.subscribe`; call :meth:`cancel`
    (or use as a context manager) to stop receiving events."""

    __slots__ = ("_log", "_token")

    def __init__(self, log: "EventLog", token: int):
        self._log = log
        self._token = token

    @property
    def active(self) -> bool:
        return self._token in self._log._subscribers

    def cancel(self) -> None:
        self._log._subscribers.pop(self._token, None)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.cancel()


class EventLog:
    """Append-only deterministic event stream with in-process pub/sub.

    Events are assigned consecutive ``seq`` numbers at emit time and
    delivered synchronously to subscribers in subscription order.  A
    subscriber may itself emit (detectors emit verdicts while observing),
    in which case the nested event is appended — and delivered — before
    the outer notification loop resumes; the *log* order is therefore
    always the canonical order, even when callback delivery nests.

    Determinism contract: payloads must be pure functions of the
    simulation state (no wall-clock, no PIDs, no memory addresses), so
    :meth:`to_ndjson` is byte-identical across runs, machines, and
    worker counts.
    """

    __slots__ = ("events", "_subscribers", "_next_token")

    def __init__(self) -> None:
        self.events: List[Event] = []
        self._subscribers: Dict[int, Callable[[Event], None]] = {}
        self._next_token = 0

    # -- emission ------------------------------------------------------

    def emit(self, kind: str, **payload: object) -> Event:
        """Append an event and synchronously notify subscribers."""
        bad = _RESERVED_KEYS.intersection(payload)
        if bad:
            raise ValueError(f"payload may not shadow envelope keys: {sorted(bad)}")
        event = Event(len(self.events), kind, payload)
        self.events.append(event)
        for callback in list(self._subscribers.values()):
            callback(event)
        return event

    def extend_raw(self, batch: Iterable[Tuple[str, Mapping[str, object]]]) -> None:
        """Re-emit ``(kind, payload)`` pairs drained from a worker log.

        Sequence numbers are reassigned locally, so flushing worker
        batches in unit order reproduces the serial stream exactly.
        """
        for kind, payload in batch:
            self.emit(kind, **payload)

    def drain_raw(self) -> List[Tuple[str, Mapping[str, object]]]:
        """Return all events as ``(kind, payload)`` pairs and clear the log.

        Used on the worker side of the process pool: sequence numbers are
        parent-assigned, so only the kind/payload travel across.
        """
        batch = [(event.kind, event.payload) for event in self.events]
        self.events.clear()
        return batch

    # -- consumption ---------------------------------------------------

    def subscribe(self, callback: Callable[[Event], None], *,
                  replay: bool = False) -> Subscription:
        """Register ``callback`` for every future event.

        With ``replay=True`` the callback first receives all events
        already in the log, so late subscribers see the full stream.
        """
        if replay:
            for event in list(self.events):
                callback(event)
        token = self._next_token
        self._next_token += 1
        self._subscribers[token] = callback
        return Subscription(self, token)

    def tail(self, since_seq: int = -1) -> Tuple[Event, ...]:
        """Events strictly after ``since_seq``, in seq order.

        The cursor contract every paged/streaming consumer relies on
        (``/events?since_seq=N`` and SSE ``Last-Event-ID`` resume in
        :mod:`repro.scale.monitor`): pass the last ``seq`` you have
        consumed — ``-1`` (the default) for the whole stream — and
        receive every event with ``seq > since_seq``, exactly once, with
        no gaps and no duplicates.  This holds even when subscribers
        emit nested events mid-delivery, because ``seq`` is assigned in
        log order at emit time and the log is append-only; repeatedly
        calling ``tail(last_seen)`` and advancing the cursor to the last
        returned ``seq`` therefore reconstructs the exact canonical
        stream (the Hypothesis property test in
        ``tests/scale/test_obs.py`` pins this down).  A cursor at or
        past the last event yields an empty tuple, never an error.
        """
        start = since_seq + 1
        if start <= 0:
            return tuple(self.events)
        return tuple(self.events[start:])

    def to_ndjson(self) -> str:
        """The whole stream as canonical NDJSON (one event per line)."""
        return "".join(event.to_json() + "\n" for event in self.events)

    def write_ndjson(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_ndjson())

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)


def verdicts(log: Iterable[Event]) -> Tuple[Event, ...]:
    """All detector verdict events in ``log`` (an :class:`EventLog` or
    any slice of its events)."""
    return tuple(event for event in log if event.kind == "detector")


# ---------------------------------------------------------------------------
# Streaming detectors
# ---------------------------------------------------------------------------


class BlackHoleDetector:
    """CUSUM availability black-hole detector with per-site localization.

    Watches the per-site served-capacity series in ``epoch`` events.  A
    commissioned site's served capacity is its in-service flag times its
    capacity-degradation scale, so a healthy site reads 1.0, a degraded
    one reads its factor, and a black-holed (failed but commissioned)
    site reads 0.0.  Per site the detector keeps a one-sided CUSUM

        S <- max(0, S + (threshold - served))

    and emits one verdict per excursion the first epoch ``S`` reaches
    ``alarm``, naming the site, its index, and the onset epoch (the first
    epoch of the excursion).  With the defaults (``threshold = alarm =
    0.25``) a single fully-black-holed epoch alarms — outage downtimes
    can be one epoch long — while the catalogue's legitimate capacity
    degradations (factors >= 0.4) never do.

    False-positive contract: a verdict is emitted only for a
    *commissioned* site (drained and warming sites are masked out by the
    ``site_active`` field, so autoscaler scale-downs are never flagged)
    whose served capacity integrates at least ``alarm`` below
    ``threshold``.  On the scenario catalogue this fires exactly inside
    injected failure windows and nowhere else.

    When several sites alarm with the same onset epoch — the signature of
    a :class:`~repro.scale.stochastic.CorrelatedRegionalOutage` — a
    grouping verdict (``detector="black_hole_region"``) names the whole
    site block in addition to the per-site verdicts.
    """

    def __init__(self, *, threshold: float = 0.25, alarm: float = 0.25):
        self.threshold = threshold
        self.alarm = alarm
        self._sites: Tuple[str, ...] = ()
        self._cusum: List[float] = []
        self._onset: List[Optional[int]] = []
        self._alarmed: List[bool] = []

    def _reset(self, sites: Sequence[str]) -> None:
        self._sites = tuple(sites)
        self._cusum = [0.0] * len(self._sites)
        self._onset = [None] * len(self._sites)
        self._alarmed = [False] * len(self._sites)

    def observe(self, event: Event, log: EventLog) -> None:
        if event.kind == "timeline_started":
            self._reset(event.payload.get("sites", ()))  # type: ignore[arg-type]
            return
        if event.kind != "epoch" or not self._sites:
            return
        payload = event.payload
        served = payload.get("site_served")
        active = payload.get("site_active")
        if served is None or active is None:
            return
        epoch = payload["epoch"]
        new_alarms: List[Tuple[int, str, int]] = []
        for index, name in enumerate(self._sites):
            if not active[index]:
                # Not commissioned to serve (drained or still warming):
                # no expectation of capacity, so no excursion can run.
                self._cusum[index] = 0.0
                self._onset[index] = None
                self._alarmed[index] = False
                continue
            score = max(0.0, self._cusum[index] + (self.threshold - served[index]))
            if score > 0.0 and self._cusum[index] == 0.0:
                self._onset[index] = epoch
            if score == 0.0:
                self._onset[index] = None
                self._alarmed[index] = False
            # Cap at the alarm level: growing further adds no information
            # and would delay re-arming after recovery, hiding a second
            # outage that follows a long one closely.
            self._cusum[index] = min(score, self.alarm)
            if score >= self.alarm and not self._alarmed[index]:
                self._alarmed[index] = True
                onset = self._onset[index]
                onset = epoch if onset is None else onset
                new_alarms.append((index, name, onset))
                log.emit(
                    "detector",
                    detector="black_hole",
                    site=name,
                    site_index=index,
                    onset_epoch=onset,
                    epoch=epoch,
                    served=float(served[index]),
                )
        if len(new_alarms) >= 2:
            onsets = {onset for _, _, onset in new_alarms}
            if len(onsets) == 1:
                log.emit(
                    "detector",
                    detector="black_hole_region",
                    sites=[name for _, name, _ in new_alarms],
                    site_indices=[index for index, _, _ in new_alarms],
                    onset_epoch=new_alarms[0][2],
                    epoch=epoch,
                )


class SloBreachDetector:
    """Latency-SLO breach detector over the epoch latency percentile.

    Reads the SLO target from ``timeline_started`` and alarms once per
    breach episode after ``min_epochs`` *consecutive* epochs with
    ``latency_p95_seconds`` above the SLO — a single-epoch spike is not
    a breach.  The verdict names the onset epoch (first epoch of the
    episode); a below-SLO epoch closes the episode and re-arms the
    detector.
    """

    def __init__(self, *, min_epochs: int = 3):
        self.min_epochs = min_epochs
        self._slo: Optional[float] = None
        self._streak = 0
        self._onset: Optional[int] = None

    def observe(self, event: Event, log: EventLog) -> None:
        if event.kind == "timeline_started":
            self._slo = event.payload.get("latency_slo_seconds")  # type: ignore[assignment]
            self._streak = 0
            self._onset = None
            return
        if event.kind != "epoch" or self._slo is None:
            return
        p95 = event.payload.get("latency_p95_seconds")
        if p95 is None:
            return
        if p95 > self._slo:
            if self._streak == 0:
                self._onset = event.payload["epoch"]  # type: ignore[assignment]
            self._streak += 1
            if self._streak == self.min_epochs:
                log.emit(
                    "detector",
                    detector="slo_breach",
                    onset_epoch=self._onset,
                    epoch=event.payload["epoch"],
                    latency_p95_seconds=float(p95),
                    latency_slo_seconds=float(self._slo),
                    consecutive_epochs=self._streak,
                )
        else:
            self._streak = 0
            self._onset = None


class AutoscaleOscillationDetector:
    """Flags rapid scale-direction flip-flopping by the autoscaler.

    Each ``autoscale`` event's actions are reduced to a direction: +1 if
    the epoch only scales up (``up ...``), -1 if it only shrinks
    (``drain ...`` / ``cancel ...``), 0 if mixed.  A *flip* is an epoch
    whose direction opposes the previous non-zero direction.  When
    ``min_flips`` flips land within a ``window``-epoch sliding window,
    one oscillation verdict fires and the detector cools down until the
    window has fully drained, so a sustained oscillation yields one
    verdict per window rather than one per flip.
    """

    def __init__(self, *, window: int = 12, min_flips: int = 3):
        self.window = window
        self.min_flips = min_flips
        self._last_direction = 0
        self._flips: deque = deque()
        self._quiet_until = -1

    def observe(self, event: Event, log: EventLog) -> None:
        if event.kind == "timeline_started":
            self._last_direction = 0
            self._flips.clear()
            self._quiet_until = -1
            return
        if event.kind != "autoscale":
            return
        actions = event.payload.get("actions", ())
        epoch = event.payload["epoch"]
        ups = sum(1 for action in actions if action.startswith("up "))
        downs = sum(1 for action in actions
                    if action.startswith(("drain ", "cancel ")))
        direction = (ups > 0) - (downs > 0)
        if direction == 0:
            return
        while self._flips and self._flips[0] <= epoch - self.window:
            self._flips.popleft()
        if self._last_direction and direction != self._last_direction:
            self._flips.append(epoch)
        self._last_direction = direction
        if len(self._flips) >= self.min_flips and epoch >= self._quiet_until:
            log.emit(
                "detector",
                detector="autoscale_oscillation",
                onset_epoch=int(self._flips[0]),
                epoch=epoch,
                flips=len(self._flips),
                window_epochs=self.window,
            )
            self._quiet_until = epoch + self.window


class DetectorSuite:
    """A bundle of detectors attached to one :class:`EventLog`.

    Detectors receive every event except their own verdicts (``kind ==
    "detector"`` is filtered here, so a detector can never feed back into
    itself or its peers) and emit verdicts into the same log.
    """

    def __init__(self, detectors: Optional[Sequence[object]] = None):
        if detectors is None:
            detectors = (
                BlackHoleDetector(),
                SloBreachDetector(),
                AutoscaleOscillationDetector(),
            )
        self.detectors = tuple(detectors)
        self._subscriptions: Tuple[Subscription, ...] = ()

    def attach(self, log: EventLog) -> "DetectorSuite":
        subscriptions = []
        for detector in self.detectors:
            def callback(event: Event, detector=detector) -> None:
                if event.kind != "detector":
                    detector.observe(event, log)
            subscriptions.append(log.subscribe(callback))
        self._subscriptions = tuple(subscriptions)
        return self

    def detach(self) -> None:
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions = ()


def attach_detectors(log: EventLog,
                     detectors: Optional[Sequence[object]] = None) -> DetectorSuite:
    """Attach the default (or a custom) detector suite to ``log``."""
    return DetectorSuite(detectors).attach(log)
