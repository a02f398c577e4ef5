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
    Units complete/in-flight, phase breakdown, elapsed and ETA.
``GET /verdicts``
    Detector verdict events only (``kind == "detector"``), as NDJSON.

Determinism contract — the monitor is an *observer*:

* It subscribes to the campaign's :class:`~repro.scale.obs.EventLog` and
  mirrors canonical events into its own buffer; it never emits into the
  log, so serial/parallel canonical NDJSON and ``canonical_result_bytes``
  are byte-identical with the monitor on or off.
* Pool workers ship canonical events home only with finished units, so
  liveness between completions comes from an out-of-band
  ``multiprocessing`` heartbeat queue (see
  :meth:`MonitorServer.watch_heartbeats`).  Heartbeat records carry
  wall-clock and PIDs and are therefore *quarantined*: they feed
  ``/progress`` and ``/stream`` but are never merged into the canonical
  log or the NDJSON export.
* Wall-clock appears only in monitor-local state (uptime, ETA) and in
  quarantined heartbeats — never in anything canonical.
"""

from __future__ import annotations

import json
import queue as queue_module
import threading
import time
from dataclasses import asdict, is_dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .telemetry import Telemetry, phase_breakdown

__all__ = ["MonitorServer"]

#: Event kind used for out-of-band worker liveness records.  Quarantined:
#: never emitted into (or merged into) a canonical :class:`EventLog`.
HEARTBEAT_KIND = "unit_heartbeat"


def _json_bytes(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


class _MonitorHandler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`MonitorServer` (class attr)."""

    monitor: "MonitorServer" = None  # type: ignore[assignment]
    protocol_version = "HTTP/1.0"
    server_version = "repro-monitor/1"

    # The default handler logs every request to stderr; a dashboard
    # polling at 1 Hz would drown the campaign's own output.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

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
        limit = self._query_int(params, "limit", self.monitor.page_limit)
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
                cursor, live_cursor, timeout=monitor.heartbeat_seconds)
            frames: List[bytes] = []
            for seq, kind, line in chunk:
                frames.append(f"id: {seq}\nevent: {kind}\ndata: {line}\n\n"
                              .encode("utf-8"))
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

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 heartbeat_seconds: float = 10.0,
                 page_limit: int = 500) -> None:
        self.host = host
        self.port = port
        self.heartbeat_seconds = float(heartbeat_seconds)
        self.page_limit = int(page_limit)
        self._cond = threading.Condition()
        #: Canonical mirror: ``(seq, kind, canonical_json_line)`` in seq
        #: order.  seq numbers are contiguous from 0 (the EventLog
        #: contract), so list index == seq.
        self._canonical: List[Tuple[int, str, str]] = []
        #: Events whose notification arrived ahead of a lower seq.  A
        #: detector's nested emit is delivered to later subscribers (this
        #: monitor) *before* the outer event that triggered it, so the
        #: mirror stages arrivals here and appends only the contiguous
        #: prefix — the served stream is always in canonical log order.
        self._out_of_order: Dict[int, Tuple[object, str]] = {}
        #: Quarantined live feed (heartbeats); plain dicts, never merged
        #: into the canonical mirror or any export.
        self._live: List[Dict[str, object]] = []
        self._telemetry: Optional[Telemetry] = None
        self._runner = None
        self._subscription = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._closing = False
        self._started_wall = time.time()
        # progress state (under self._cond)
        self._units_total: Optional[int] = None
        self._units_done_canonical = 0
        self._units_done_live = 0
        self._experiment: Optional[str] = None
        self._complete = False
        self._campaign_started_wall: Optional[float] = None
        self._in_flight: Dict[int, Dict[str, object]] = {}
        self._kind_counts: Dict[str, int] = {}
        # heartbeat drain (worker pools)
        self._hb_thread: Optional[threading.Thread] = None
        self._hb_stop: Optional[threading.Event] = None

    # -- mounting ------------------------------------------------------

    @classmethod
    def attach(cls, telemetry: Telemetry, *, runner=None,
               host: str = "127.0.0.1", port: int = 0,
               **kwargs) -> "MonitorServer":
        """Create a monitor mounted on ``telemetry`` and start serving."""
        monitor = cls(host, port, **kwargs)
        monitor.mount(telemetry, runner=runner)
        monitor.start()
        return monitor

    def mount(self, telemetry: Telemetry, *, runner=None) -> "MonitorServer":
        """Mount on ``telemetry`` (idempotent for the same telemetry).

        Subscribes to the telemetry's event log with full replay, so a
        monitor attached mid-campaign still serves the stream from seq 0.
        A telemetry without an event log still gets ``/metrics``,
        ``/progress`` (heartbeat-driven), and ``/healthz``.
        """
        if self._telemetry is telemetry and self._subscription is not None:
            if runner is not None:
                self._runner = runner
            return self
        self.detach()
        self._telemetry = telemetry
        if runner is not None:
            self._runner = runner
        if telemetry.events is not None:
            with self._cond:
                self._reset_locked()
            self._subscription = telemetry.events.subscribe(
                self._observe, replay=True)
        return self

    def detach(self) -> None:
        """Stop observing the mounted event log (server keeps running)."""
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None

    def _reset_locked(self) -> None:
        self._canonical.clear()
        self._out_of_order.clear()
        self._units_total = None
        self._units_done_canonical = 0
        self._experiment = None
        self._complete = False
        self._in_flight.clear()
        self._kind_counts.clear()

    # -- the observer (runs on the simulation thread) ------------------

    def _observe(self, event) -> None:
        line = event.to_json()
        with self._cond:
            self._out_of_order[event.seq] = (event, line)
            while len(self._canonical) in self._out_of_order:
                ready, ready_line = self._out_of_order.pop(
                    len(self._canonical))
                self._ingest_locked(ready, ready_line)
            self._cond.notify_all()

    def _ingest_locked(self, event, line: str) -> None:
        self._canonical.append((event.seq, event.kind, line))
        self._kind_counts[event.kind] = \
            self._kind_counts.get(event.kind, 0) + 1
        payload = event.payload
        if event.kind == "campaign_started":
            self._units_total = int(payload.get("units", 0))
            self._units_done_canonical = 0
            self._units_done_live = 0
            self._experiment = payload.get("experiment")
            self._complete = False
            self._in_flight.clear()
            self._campaign_started_wall = time.time()
        elif event.kind == "unit_started":
            self._in_flight[int(payload["unit"])] = {
                "unit": int(payload["unit"]),
                "label": payload.get("label"),
            }
        elif event.kind == "unit_complete":
            self._in_flight.pop(int(payload["unit"]), None)
            self._units_done_canonical += 1
        elif event.kind == "campaign_complete":
            self._complete = True
            self._in_flight.clear()

    # -- the heartbeat channel (worker pools) --------------------------

    def watch_heartbeats(self, heartbeat_queue) -> None:
        """Drain an out-of-band worker heartbeat queue into the live feed.

        ``heartbeat_queue`` is a manager queue the pool initializer hands
        to every worker; records land in the quarantined live feed (they
        carry PIDs and wall-clock) and update ``/progress`` between unit
        completions.  Called by the executor — one channel per pooled run.
        """
        self.unwatch_heartbeats()
        self._hb_stop = threading.Event()

        def drain(stop: threading.Event) -> None:
            while True:
                try:
                    record = heartbeat_queue.get(timeout=0.2)
                except queue_module.Empty:
                    if stop.is_set():
                        return
                    continue
                except (EOFError, OSError, ValueError):
                    # Manager gone (pool torn down mid-drain): nothing
                    # left to read.
                    return
                if isinstance(record, dict):
                    self.observe_heartbeat(record)

        self._hb_thread = threading.Thread(
            target=drain, args=(self._hb_stop,),
            name="monitor-heartbeats", daemon=True)
        self._hb_thread.start()

    def unwatch_heartbeats(self) -> None:
        """Stop the heartbeat drainer (after draining what is queued)."""
        if self._hb_stop is not None:
            self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=5.0)
        self._hb_thread = None
        self._hb_stop = None

    def observe_heartbeat(self, record: Dict[str, object]) -> None:
        """Feed one quarantined liveness record into the live feed."""
        record = dict(record)
        record.setdefault("kind", HEARTBEAT_KIND)
        with self._cond:
            self._live.append(record)
            unit = record.get("unit")
            if unit is not None:
                if record.get("phase") == "started":
                    self._in_flight[int(unit)] = {
                        "unit": int(unit),
                        "label": record.get("label"),
                        "pid": record.get("pid"),
                    }
                elif record.get("phase") == "complete":
                    self._in_flight.pop(int(unit), None)
                    self._units_done_live += 1
            self._cond.notify_all()

    # -- server lifecycle ----------------------------------------------

    def start(self) -> "MonitorServer":
        """Bind and serve on a daemon thread (idempotent)."""
        if self._server is not None:
            return self
        handler = type("BoundMonitorHandler", (_MonitorHandler,),
                       {"monitor": self})
        server = ThreadingHTTPServer((self.host, self.port), handler)
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
        """Hard shutdown: detach, stop heartbeats, close the server.

        Safe at any point in a campaign — connected SSE clients are cut,
        the simulation thread is never blocked, and no canonical state is
        touched.  Idempotent.
        """
        self.detach()
        self.unwatch_heartbeats()
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
                "events": len(self._canonical),
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

    def events_page(self, since_seq: int,
                    limit: int) -> Tuple[List[str], int, int]:
        """Canonical lines strictly after ``since_seq`` (paged).

        Returns ``(lines, next_seq, remaining)`` — the same strictly-after
        cursor contract as :meth:`EventLog.tail`.
        """
        start = max(0, since_seq + 1)
        with self._cond:
            page = self._canonical[start:start + max(0, limit)]
            total = len(self._canonical)
        lines = [line for _, _, line in page]
        next_seq = page[-1][0] if page else since_seq
        remaining = max(0, total - (next_seq + 1))
        return lines, next_seq, remaining

    def verdict_lines(self, since_seq: int = -1) -> List[str]:
        start = max(0, since_seq + 1)
        with self._cond:
            return [line for _, kind, line in self._canonical[start:]
                    if kind == "detector"]

    def live_len(self) -> int:
        with self._cond:
            return len(self._live)

    def wait_for_frames(self, cursor: int, live_cursor: int, *,
                        timeout: float):
        """Block until there is something past either cursor (or timeout).

        Returns ``(canonical_chunk, new_cursor, live_chunk,
        new_live_cursor, closing)`` where ``canonical_chunk`` is
        ``(seq, kind, line)`` tuples strictly after ``cursor``.
        """
        start = max(0, cursor + 1)
        deadline = time.monotonic() + timeout
        with self._cond:
            while (len(self._canonical) <= start
                   and len(self._live) <= live_cursor
                   and not self._closing):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            chunk = self._canonical[start:]
            live = self._live[live_cursor:]
            closing = self._closing
        new_cursor = chunk[-1][0] if chunk else cursor
        return chunk, new_cursor, live, live_cursor + len(live), closing

    def progress(self) -> Dict[str, object]:
        """The ``/progress`` view: completion, in-flight units, ETA, phases."""
        with self._cond:
            total = self._units_total
            done = max(self._units_done_canonical, self._units_done_live)
            if total is not None:
                done = min(done, total)
            in_flight = sorted(self._in_flight.values(),
                               key=lambda rec: rec["unit"])
            out: Dict[str, object] = {
                "experiment": self._experiment,
                "units_total": total,
                "units_done": done,
                "units_in_flight": in_flight,
                "complete": self._complete,
                "events": {
                    "total": len(self._canonical),
                    "last_seq": (self._canonical[-1][0]
                                 if self._canonical else -1),
                    "by_kind": dict(sorted(self._kind_counts.items())),
                },
                "heartbeats": len(self._live),
            }
            started = self._campaign_started_wall
            complete = self._complete
        elapsed = (time.time() - started) if started is not None else None
        out["elapsed_seconds"] = (round(elapsed, 3)
                                  if elapsed is not None else None)
        eta = 0.0 if complete else None
        if (not complete and elapsed is not None and total
                and 0 < done < total):
            eta = round(elapsed / done * (total - done), 3)
        out["eta_seconds"] = eta
        out["phases"] = self._phase_view()
        runner = self._runner
        if runner is not None:
            try:
                state = runner.get_current_state()
                out["state"] = (asdict(state) if is_dataclass(state)
                                else state)
            except Exception:
                # Progress must stay servable even while the runner is
                # mid-mutation on the simulation thread.
                out["state"] = None
        return out

    def _phase_view(self) -> Dict[str, Dict[str, float]]:
        durations: Dict[str, List[float]] = {}
        telemetry = self._telemetry
        if telemetry is not None and telemetry.tracer is not None:
            for record in list(telemetry.tracer.spans):
                durations.setdefault(record.name, []).append(record.dur_s)
        if self._runner is not None:
            # Pool workers' spans, which the engine merges into the run's
            # progress record (the parent tracer never sees them).
            workers = self._runner.progress.phase_durations
            for name, values in dict(workers).items():
                durations.setdefault(name, []).extend(list(values))
        if not durations:
            return {}
        return phase_breakdown(durations)
