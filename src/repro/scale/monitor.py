"""Live campaign monitor: an HTTP/SSE observability service.

This is the *serving* half of the observability plane: it mounts on a
running campaign's :class:`~repro.scale.telemetry.Telemetry` and exposes
the live event stream, metrics registry, and progress state to any HTTP
client — ``curl``, a Prometheus scraper, or ``tools/watch_campaign.py``.
Dependency-light by design: stdlib :class:`ThreadingHTTPServer`, no web
framework, no async runtime.

Endpoints (see ``docs/observability.md`` for the full reference):

``GET /healthz``
    Liveness probe: mount state, event count, uptime.
``GET /metrics``
    The live :class:`~repro.scale.telemetry.MetricsRegistry` in
    Prometheus text exposition format (``# HELP``/``# TYPE`` included).
``GET /events?since_seq=N&limit=M``
    Paged canonical NDJSON with a strictly-after cursor — the HTTP face
    of :meth:`EventLog.tail`.  ``X-Next-Seq`` carries the cursor to pass
    on the next request.
``GET /stream?since_seq=N&limit=M``
    Server-Sent Events tail of the canonical stream.  Every canonical
    event is framed with ``id: <seq>``; a client that reconnects with
    ``Last-Event-ID: <seq>`` resumes strictly after that cursor, so the
    canonical sequence is replayed exactly once, in order.  Heartbeat
    frames carry no ``id`` and never advance the cursor.
``GET /progress``
    The runner's progress record (units done/in flight, completion),
    elapsed and ETA, event counts and the phase breakdown.
``GET /verdicts``
    Detector verdict events only (``kind == "detector"``), as NDJSON.

Determinism contract — the monitor is an *observer*:

* It subscribes to the campaign's :class:`~repro.scale.obs.EventLog` and
  serves the mounted log up to a high-water mark — one integer, the
  highest ``seq`` it has been notified of plus one; it keeps no copy of
  an event and never emits into the log, so serial/parallel canonical
  NDJSON and ``canonical_result_bytes`` are byte-identical with the
  monitor on or off.  A subscriber's nested emit reaches the monitor
  before the event that triggered it, but both are already in the log by
  then, so ``log.events[:mark]`` is in canonical order by construction.
* Thread safety: ``EventLog.events`` is an append-only list, a request
  thread takes a slice of it in one step under the GIL, and the mark only
  moves under the condition that wakes SSE waiters.  The one call that
  shrinks a log, ``drain_raw()``, runs only in pool workers, which carry
  no monitor.
* ``/progress`` reads the runner's
  :class:`~repro.scale.parallel.CampaignProgress`, the one progress
  ledger, which the engine writes; without a runner its unit fields read
  null, zero, empty or false.
* Pool workers ship canonical events home only with finished units, so
  liveness between completions comes from an out-of-band
  ``multiprocessing`` heartbeat queue, which the engine drains and hands
  on to :meth:`MonitorServer.observe_heartbeat`.  Heartbeat records carry
  wall-clock and PIDs and are therefore *quarantined*: they feed
  ``/stream`` but are never merged into the canonical log or the NDJSON
  export.
* Wall-clock appears only in uptime, elapsed/ETA and quarantined
  heartbeats — never in anything canonical.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .obs import Event, EventLog, verdicts
from .telemetry import Telemetry, phase_breakdown

__all__ = ["MonitorServer"]

#: Event kind used for out-of-band worker liveness records.  Quarantined:
#: never emitted into (or merged into) a canonical :class:`EventLog`.
HEARTBEAT_KIND = "unit_heartbeat"

#: Longest a quiet ``/stream`` waits before it writes a keep-alive comment.
HEARTBEAT_SECONDS = 10.0

#: ``/events`` page size when the request carries no ``?limit=``.
PAGE_LIMIT = 500


def _json_bytes(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


class _MonitorHandler(BaseHTTPRequestHandler):
    """Request handler for the :class:`MonitorServer` its server carries."""

    protocol_version = "HTTP/1.0"
    server_version = "repro-monitor/1"

    # The default handler logs every request to stderr; a dashboard
    # polling at 1 Hz would drown the campaign's own output.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    @property
    def monitor(self) -> "MonitorServer":
        return self.server.monitor  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------

    def _send(self, status: int, content_type: str, body: bytes,
              extra_headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-cache")
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _query_int(self, params: Dict[str, List[str]], name: str,
                   default: int) -> int:
        values = params.get(name)
        if not values:
            return default
        try:
            return int(values[0])
        except ValueError:
            raise _BadRequest(f"{name} must be an integer, got {values[0]!r}")

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        params = parse_qs(parsed.query)
        try:
            route = {
                "/healthz": self._serve_healthz,
                "/metrics": self._serve_metrics,
                "/events": self._serve_events,
                "/stream": self._serve_stream,
                "/progress": self._serve_progress,
                "/verdicts": self._serve_verdicts,
            }.get(parsed.path)
            if route is None:
                self._send(404, "application/json",
                           _json_bytes({"error": f"no route {parsed.path}"}))
                return
            route(params)
        except _BadRequest as exc:
            self._send(400, "application/json", _json_bytes({"error": str(exc)}))
        except (BrokenPipeError, ConnectionResetError, OSError):
            # Client went away (or the server is being hard-closed while
            # we stream); either way there is nobody left to answer.
            pass

    # -- endpoints -----------------------------------------------------

    def _serve_healthz(self, params: Dict[str, List[str]]) -> None:
        self._send(200, "application/json",
                   _json_bytes(self.monitor.health()))

    def _serve_metrics(self, params: Dict[str, List[str]]) -> None:
        text = self.monitor.metrics_text()
        if text is None:
            self._send(503, "application/json",
                       _json_bytes({"error": "no metrics registry mounted"}))
            return
        self._send(200, "text/plain; version=0.0.4; charset=utf-8",
                   text.encode("utf-8"))

    def _serve_events(self, params: Dict[str, List[str]]) -> None:
        since_seq = self._query_int(params, "since_seq", -1)
        limit = self._query_int(params, "limit", PAGE_LIMIT)
        lines, next_seq, remaining = self.monitor.events_page(since_seq, limit)
        body = "".join(line + "\n" for line in lines).encode("utf-8")
        self._send(200, "application/x-ndjson", body, {
            "X-Next-Seq": str(next_seq),
            "X-Remaining": str(remaining),
        })

    def _serve_verdicts(self, params: Dict[str, List[str]]) -> None:
        since_seq = self._query_int(params, "since_seq", -1)
        lines = self.monitor.verdict_lines(since_seq)
        body = "".join(line + "\n" for line in lines).encode("utf-8")
        self._send(200, "application/x-ndjson", body)

    def _serve_progress(self, params: Dict[str, List[str]]) -> None:
        self._send(200, "application/json",
                   _json_bytes(self.monitor.progress()))

    def _serve_stream(self, params: Dict[str, List[str]]) -> None:
        monitor = self.monitor
        # Last-Event-ID (the SSE reconnect contract) wins over the
        # since_seq query parameter; both mean "resume strictly after".
        cursor = self._query_int(params, "since_seq", -1)
        header_id = self.headers.get("Last-Event-ID")
        if header_id is not None:
            try:
                cursor = int(header_id)
            except ValueError:
                raise _BadRequest(f"Last-Event-ID must be an integer, "
                                  f"got {header_id!r}")
        #: Close the stream after this many canonical events (0 = never);
        #: lets curl/CI capture a prefix without killing the connection.
        limit = self._query_int(params, "limit", 0)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        sent = 0
        live_cursor = monitor.live_len()
        while True:
            chunk, cursor, live, live_cursor, closing = monitor.wait_for_frames(
                cursor, live_cursor, timeout=HEARTBEAT_SECONDS)
            frames: List[bytes] = []
            for event in chunk:
                frames.append(f"id: {event.seq}\nevent: {event.kind}\n"
                              f"data: {event.to_json()}\n\n".encode("utf-8"))
                sent += 1
                if limit and sent >= limit:
                    break
            for record in live:
                # Heartbeats are live-only: no ``id`` line, so they never
                # advance the client's Last-Event-ID reconnect cursor.
                frames.append(
                    b"event: " + HEARTBEAT_KIND.encode() + b"\ndata: "
                    + json.dumps(record, sort_keys=True,
                                 separators=(",", ":")).encode("utf-8")
                    + b"\n\n")
            if not chunk and not live:
                # Idle keep-alive comment so proxies and clients can tell
                # a quiet campaign from a dead connection.
                frames.append(b": keep-alive\n\n")
            self.wfile.write(b"".join(frames))
            self.wfile.flush()
            if closing or (limit and sent >= limit):
                return


class _BadRequest(Exception):
    pass


class MonitorServer:
    """Mounts on a campaign's telemetry and serves it over HTTP/SSE.

    Typical use — attach to the telemetry before (or during) a run::

        telemetry = Telemetry(trace=False, events=True)
        attach_detectors(telemetry.events)
        runner = StochasticCampaignRunner(..., telemetry=telemetry)
        monitor = MonitorServer.attach(telemetry, runner=runner)
        print("watching at", monitor.url)
        result = runner.run_parallel(n_workers=4, monitor=monitor)
        monitor.close()

    Attaching, detaching, or hard-closing the monitor at any point —
    including mid-campaign — never changes a campaign number or a
    canonical event byte: the monitor only ever *reads* the telemetry it
    is mounted on.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._cond = threading.Condition()
        #: The mounted log and the high-water mark into it: every view
        #: serves ``_log.events[:_seen]``.  seq numbers are contiguous
        #: from 0 (the EventLog contract), so list index == seq.
        self._log: Optional[EventLog] = None
        self._seen = 0
        #: Quarantined live feed (heartbeats); plain dicts, never merged
        #: into the canonical log or any export.
        self._live: List[Dict[str, object]] = []
        self._telemetry: Optional[Telemetry] = None
        #: The runner whose progress record ``/progress`` reads.
        self._runner = None
        self._subscription = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._closing = False
        self._started_wall = time.time()

    # -- mounting ------------------------------------------------------

    @classmethod
    def attach(cls, telemetry: Telemetry, *, runner=None,
               host: str = "127.0.0.1", port: int = 0) -> "MonitorServer":
        """Create a monitor mounted on ``telemetry`` and start serving."""
        monitor = cls(host, port)
        monitor.mount(telemetry, runner=runner)
        monitor.start()
        return monitor

    def mount(self, telemetry: Telemetry, *, runner=None) -> "MonitorServer":
        """Mount on ``telemetry`` (idempotent for the same telemetry).

        Subscribes to the telemetry's event log with full replay, so a
        monitor attached mid-campaign still serves the stream from seq 0.
        A telemetry without an event log still gets ``/metrics``,
        ``/progress`` and ``/healthz``.  Every mount starts from nothing:
        whatever an earlier mount served is dropped, the live feed is
        empty, and there is no runner unless this call passes one.
        """
        if self._telemetry is telemetry and self._subscription is not None:
            if runner is not None:
                self._runner = runner
            return self
        self.detach()
        with self._cond:
            self._telemetry = telemetry
            self._runner = runner
            self._log = telemetry.events
            self._seen = 0
            self._live.clear()
        if telemetry.events is not None:
            self._subscription = telemetry.events.subscribe(
                self._observe, replay=True)
        return self

    def detach(self) -> None:
        """Stop observing the mounted event log (server keeps running).

        The mark freezes: the views keep serving the prefix seen so far,
        however far the log grows afterwards.
        """
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None

    # -- the observer (runs on the simulation thread) ------------------

    def _observe(self, event: Event) -> None:
        with self._cond:
            self._seen = max(self._seen, event.seq + 1)
            self._cond.notify_all()

    def observe_heartbeat(self, record: Dict[str, object]) -> None:
        """Append one quarantined worker heartbeat to the ``/stream`` feed."""
        with self._cond:
            self._live.append(record)
            self._cond.notify_all()

    # -- server lifecycle ----------------------------------------------

    def start(self) -> "MonitorServer":
        """Bind and serve on a daemon thread (idempotent)."""
        if self._server is not None:
            return self
        server = ThreadingHTTPServer((self.host, self.port), _MonitorHandler)
        # Handlers reach the monitor through their server, and close()
        # drops the server: nothing that outlives the server holds us.
        server.monitor = self  # type: ignore[attr-defined]
        server.daemon_threads = True  # hard close never joins SSE clients
        self._server = server
        self.port = server.server_address[1]
        self._closing = False
        self._server_thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.1},
            name="monitor-http", daemon=True)
        self._server_thread.start()
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Hard shutdown: detach and close the server.

        Safe at any point in a campaign — connected SSE clients are cut,
        the simulation thread is never blocked, and no canonical state is
        touched.  Idempotent.
        """
        self.detach()
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        server, thread = self._server, self._server_thread
        self._server = None
        self._server_thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MonitorServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- views the handler serves --------------------------------------

    def health(self) -> Dict[str, object]:
        with self._cond:
            return {
                "status": "ok",
                "mounted": self._telemetry is not None,
                "events": self._seen,
                "heartbeats": len(self._live),
                "uptime_seconds": round(time.time() - self._started_wall, 3),
            }

    def metrics_text(self) -> Optional[str]:
        telemetry = self._telemetry
        if telemetry is None or telemetry.metrics is None:
            return None
        # The registry lives on the simulation thread; a merge landing
        # mid-render can resize its dicts under us.  The render is pure,
        # so retry — the registry is append-mostly and settles instantly.
        for _ in range(8):
            try:
                return telemetry.metrics.prometheus_text()
            except RuntimeError:
                time.sleep(0.005)
        return telemetry.metrics.prometheus_text()

    def _served_locked(self, since_seq: int,
                       limit: Optional[int] = None
                       ) -> Tuple[List[Event], int]:
        """``(events, cursor)``: the served events strictly after
        ``since_seq``, at most ``limit`` of them, and the cursor as read.

        The one place a client cursor is read, for ``/events``,
        ``/verdicts``, ``/stream?since_seq=`` and ``Last-Event-ID`` alike:
        anything below -1 means -1 (the whole stream), so the returned
        cursor never counts events that do not exist, and a negative
        ``limit`` is 0.
        """
        cursor = max(-1, since_seq)
        start = cursor + 1
        stop = self._seen if limit is None else \
            min(self._seen, start + max(0, limit))
        events = [] if self._log is None else self._log.events[start:stop]
        return events, cursor

    def events_page(self, since_seq: int,
                    limit: int) -> Tuple[List[str], int, int]:
        """Canonical lines strictly after ``since_seq`` (paged).

        Returns ``(lines, next_seq, remaining)`` — the same strictly-after
        cursor contract as :meth:`EventLog.tail`.
        """
        with self._cond:
            page, cursor = self._served_locked(since_seq, limit)
            seen = self._seen
        next_seq = page[-1].seq if page else cursor
        remaining = max(0, seen - (next_seq + 1))
        return [event.to_json() for event in page], next_seq, remaining

    def verdict_lines(self, since_seq: int = -1) -> List[str]:
        with self._cond:
            events, _ = self._served_locked(since_seq)
        return [event.to_json() for event in verdicts(events)]

    def live_len(self) -> int:
        with self._cond:
            return len(self._live)

    def wait_for_frames(self, cursor: int, live_cursor: int, *,
                        timeout: float):
        """Block until there is something past either cursor (or timeout).

        Returns ``(canonical_chunk, new_cursor, live_chunk,
        new_live_cursor, closing)`` where ``canonical_chunk`` is the
        log's own events strictly after ``cursor``.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                chunk, cursor = self._served_locked(cursor)
                if (chunk or len(self._live) > live_cursor
                        or self._closing):
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            live = self._live[live_cursor:]
            closing = self._closing
        new_cursor = chunk[-1].seq if chunk else cursor
        return chunk, new_cursor, live, live_cursor + len(live), closing

    def progress(self) -> Dict[str, object]:
        """The ``/progress`` view: the runner's progress record, elapsed and
        ETA, the served events' counts and the phases.

        A runner-less mount has no unit fields (null, zero, empty or
        false).  Elapsed time stops at completion.  The ETA counts only
        the units run in this run: a restored unit cost nothing.
        """
        with self._cond:
            served, _ = self._served_locked(-1)
            heartbeats = len(self._live)
        runner = self._runner
        out: Dict[str, object] = {
            "experiment": None, "units_total": None, "units_done": 0,
            "units_in_flight": [], "complete": False,
            "heartbeats": heartbeats, "elapsed_seconds": None,
            "eta_seconds": None, "state": None,
            "events": {"total": len(served), "last_seq": len(served) - 1,
                       "by_kind": dict(sorted(Counter(
                           event.kind for event in served).items()))},
            "phases": self._phase_view(runner),
        }
        if runner is None:
            return out
        record = runner.progress
        total, done, complete = record.total, record.completed, record.complete
        ran = done - record.resumed
        started, finished = record.started_wall, record.finished_wall
        ended = time.time() if finished is None else finished
        elapsed = None if started is None else round(ended - started, 3)
        eta = 0.0 if complete else None
        if not complete and elapsed is not None and ran > 0:
            eta = round(elapsed / ran * (total - done), 3)
        in_flight = sorted(dict(record.in_flight).items())
        out.update(
            experiment=runner.experiment_name, units_total=total,
            units_done=done, complete=complete, elapsed_seconds=elapsed,
            eta_seconds=eta, state=asdict(runner.get_current_state()),
            units_in_flight=[{"unit": index, "label": unit.label, "pid": pid}
                             for index, (unit, pid) in in_flight])
        return out

    def _phase_view(self, runner) -> Dict[str, Dict[str, float]]:
        durations: Dict[str, List[float]] = {}
        telemetry = self._telemetry
        if telemetry is not None and telemetry.tracer is not None:
            for record in list(telemetry.tracer.spans):
                durations.setdefault(record.name, []).append(record.dur_s)
        if runner is not None:
            # Pool workers' spans, which the engine merges into the run's
            # progress record (the parent tracer never sees them).
            workers = runner.progress.phase_durations
            for name, values in dict(workers).items():
                durations.setdefault(name, []).extend(list(values))
        if not durations:
            return {}
        return phase_breakdown(durations)
