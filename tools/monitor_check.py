#!/usr/bin/env python3
"""Monitor-smoke gate: serve a live checkpointed E14 campaign over HTTP/SSE.

Launches a checkpointed :class:`StochasticCampaignRunner` campaign
through the process-pool executor with a
:class:`repro.scale.monitor.MonitorServer` attached, then plays the
operator role over plain HTTP while the campaign runs:

* ``/healthz``, ``/metrics``, and ``/progress`` must answer live with
  well-formed payloads (Prometheus text lines, JSON progress shape);
* the first N SSE events captured from ``/stream`` must be canonical
  envelopes (``seq``/``kind``/``schema``) with ``id:`` frames numbered
  strictly from 0, and a reconnect with ``Last-Event-ID`` must replay
  the remaining canonical sequence exactly once, in order;
* after completion, ``/events`` must serve bytes identical to
  ``EventLog.to_ndjson()`` — in one page, and stitched from 97-event
  pages walked from ``since_seq=-5`` until ``X-Remaining: 0`` — and
  ``/verdicts`` must filter to ``kind == "detector"``;
* resume leg: with half the unit files removed, the campaign re-runs into
  the same checkpoint under the same monitor, and ``/progress`` must count
  every unit — ``units_done == units_total ==`` restored + re-run units —
  and read ``complete``.

The captured SSE stream is written to ``--out`` for upload as a CI
artifact.  Run from the repo root::

    PYTHONPATH=src python tools/monitor_check.py --clients 20000 \
        --out MONITOR_stream.ndjson

Exit status: 0 when every check passes, 1 on the first failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
from pathlib import Path
from urllib.request import Request, urlopen

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.scale import (  # noqa: E402  (path bootstrap above)
    EVENT_SCHEMA_VERSION,
    MonitorServer,
    StochasticCampaignRunner,
    Telemetry,
    attach_detectors,
)

_failures = 0


def check(condition: bool, message: str) -> None:
    global _failures
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        _failures += 1


def get(url: str, *, headers=None, timeout=30):
    with urlopen(Request(url, headers=headers or {}), timeout=timeout) as r:
        return r.status, dict(r.headers), r.read().decode()


def parse_sse(text: str):
    """SSE frames -> (canonical [(id, data)], heartbeat count)."""
    canonical, heartbeats = [], 0
    for frame in text.strip().split("\n\n"):
        fields = {}
        for line in frame.splitlines():
            if ": " in line and not line.startswith(":"):
                key, value = line.split(": ", 1)
                fields[key] = value
        if "id" in fields:
            canonical.append((int(fields["id"]), fields["data"]))
        elif fields.get("event") == "unit_heartbeat":
            heartbeats += 1
    return canonical, heartbeats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=20_000)
    parser.add_argument("--replicas", type=int, default=6)
    parser.add_argument("--epochs", type=int, default=24)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--sse-events", type=int, default=8,
                        help="canonical SSE events to capture live")
    parser.add_argument("--out", default="MONITOR_stream.ndjson",
                        help="captured SSE data lines (CI artifact)")
    args = parser.parse_args(argv)

    telemetry = Telemetry(trace=False, events=True)
    attach_detectors(telemetry.events)
    runner = StochasticCampaignRunner(
        clients=args.clients, epochs=args.epochs, replicas=args.replicas,
        seed=args.seed, nominal_sites=4, max_sites=8, telemetry=telemetry,
    )
    monitor = MonitorServer.attach(telemetry, runner=runner)
    print(f"monitor serving at {monitor.url}")

    result_box = {}
    checkpoint = tempfile.TemporaryDirectory()

    def drive() -> None:
        result_box["result"] = runner.run_parallel(
            n_workers=args.workers, checkpoint_dir=checkpoint.name,
            monitor=monitor)

    campaign = threading.Thread(target=drive, name="campaign", daemon=True)
    campaign.start()

    print("live endpoints (campaign running):")
    status, _, body = get(monitor.url + "/healthz")
    health = json.loads(body)
    check(status == 200 and health.get("status") == "ok",
          f"/healthz answers ok: {body.strip()}")

    status, _, metrics = get(monitor.url + "/metrics")
    check(status == 200, "/metrics answers 200")
    sample_lines = [line for line in metrics.splitlines()
                    if line and not line.startswith("#")]
    check(all(len(line.rsplit(None, 1)) == 2 for line in sample_lines),
          f"/metrics sample lines are '<name> <value>' ({len(sample_lines)} samples)")

    status, _, body = get(monitor.url + "/progress")
    progress = json.loads(body)
    check(status == 200 and {"units_total", "units_done", "complete",
                             "events", "eta_seconds"} <= set(progress),
          f"/progress has the live shape (units_done={progress.get('units_done')})")

    # Capture the first N canonical SSE events while units are in flight.
    status, _, stream_text = get(
        monitor.url + f"/stream?limit={args.sse_events}", timeout=600)
    captured, heartbeats = parse_sse(stream_text)
    check(len(captured) == args.sse_events,
          f"captured {len(captured)}/{args.sse_events} live SSE events "
          f"(+{heartbeats} heartbeat frames)")
    check(heartbeats >= 1,
          "at least one worker heartbeat reached /stream")
    check([seq for seq, _ in captured] == list(range(args.sse_events)),
          "SSE ids are the canonical seqs, dense from 0")
    envelopes = [json.loads(data) for _, data in captured]
    check(all(event.get("schema") == EVENT_SCHEMA_VERSION
              and isinstance(event.get("seq"), int)
              and isinstance(event.get("kind"), str)
              for event in envelopes),
          "every SSE data line is a canonical envelope (seq/kind/schema)")
    check(envelopes[0]["kind"] == "campaign_started",
          f"stream opens with campaign_started (got {envelopes[0]['kind']!r})")

    campaign.join(timeout=600)
    check(not campaign.is_alive() and "result" in result_box,
          "campaign completed under the monitor")

    # Reconnect with Last-Event-ID: the rest of the stream, exactly once.
    expected = telemetry.events.to_ndjson().splitlines()
    remaining = len(expected) - len(captured)
    status, _, resumed_text = get(
        monitor.url + f"/stream?limit={remaining}",
        headers={"Last-Event-ID": str(captured[-1][0])}, timeout=600)
    resumed, _ = parse_sse(resumed_text)
    replayed = captured + resumed
    check([seq for seq, _ in replayed] == list(range(len(expected))),
          f"Last-Event-ID resume replays seqs exactly once "
          f"({len(replayed)} events)")
    check([data for _, data in replayed] == expected,
          "SSE data lines byte-match the canonical NDJSON export")

    status, headers, body = get(monitor.url + "/events?since_seq=-1&limit=100000")
    check(body == telemetry.events.to_ndjson(),
          "/events serves the canonical NDJSON byte-identically")
    check(headers.get("X-Remaining") == "0",
          "/events cursor reports nothing remaining")

    # The operator's poll loop, started below the stream: small pages of
    # the log itself until the server says there is nothing left.
    pages, cursor = [], -5
    while len(pages) <= len(expected):
        _, headers, body = get(
            monitor.url + f"/events?since_seq={cursor}&limit=97")
        pages.append(body)
        cursor = int(headers["X-Next-Seq"])
        if headers.get("X-Remaining") == "0":
            break
    check(headers.get("X-Remaining") == "0",
          f"paging from since_seq=-5 ends on X-Remaining: 0 "
          f"({len(pages)} pages of 97)")
    check("".join(pages) == telemetry.events.to_ndjson(),
          "the stitched pages byte-match the canonical NDJSON export")

    status, _, body = get(monitor.url + "/verdicts")
    verdict_events = [json.loads(line) for line in body.splitlines() if line]
    check(all(event["kind"] == "detector" for event in verdict_events),
          f"/verdicts filters to detector events ({len(verdict_events)} verdicts)")

    check("unit_heartbeat" not in telemetry.events.to_ndjson(),
          "heartbeats stayed quarantined out of the canonical log")

    out_path = Path(args.out)
    out_path.write_text("".join(data + "\n" for _, data in replayed))
    print(f"captured stream: {out_path} ({len(replayed)} events)")

    print("resume leg (same checkpoint, half the unit files removed):")
    unit_files = sorted(Path(checkpoint.name).glob("unit-*.json"))
    for path in unit_files[:len(unit_files) // 2]:
        path.unlink()
    restored = len(list(Path(checkpoint.name).glob("unit-*.json")))
    telemetry = Telemetry(trace=False, events=True)
    attach_detectors(telemetry.events)
    runner = StochasticCampaignRunner(
        clients=args.clients, epochs=args.epochs, replicas=args.replicas,
        seed=args.seed, nominal_sites=4, max_sites=8, telemetry=telemetry,
    )
    runner.run_parallel(n_workers=args.workers,
                        checkpoint_dir=checkpoint.name, monitor=monitor)
    checkpoint.cleanup()
    rerun = sum(event.kind == "unit_complete" for event in telemetry.events)
    check(rerun == len(unit_files) - restored > 0,
          f"the resume re-ran the {rerun} removed units")
    status, _, body = get(monitor.url + "/progress")
    progress = json.loads(body)
    check(progress.get("units_done") == progress.get("units_total")
          == restored + rerun,
          f"/progress counts restored + re-run units "
          f"({progress.get('units_done')}/{progress.get('units_total')} "
          f"= {restored} + {rerun})")
    check(progress.get("complete") is True, "/progress reads complete")

    monitor.close()
    if _failures:
        print(f"monitor_check: {_failures} check(s) FAILED")
        return 1
    print("monitor_check: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
