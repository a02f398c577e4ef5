"""The live campaign monitor: byte-identity, SSE replay, endpoint shapes.

The load-bearing contract is negative: attaching a
:class:`repro.scale.monitor.MonitorServer` to a campaign — or tearing it
down mid-run, gracefully or not — must leave ``canonical_result_bytes``
and the canonical NDJSON event stream byte-identical to the monitor-less
run.  The monitor subscribes; it never writes — and it keeps no copy:
every view is a slice of the mounted ``EventLog`` up to a high-water mark.
"""

import json
import sys
import threading
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.scale import (
    EVENT_SCHEMA_VERSION,
    MonitorServer,
    StochasticCampaignRunner,
    Telemetry,
    attach_detectors,
    canonical_result_bytes,
)


def make_e14(**kwargs):
    kwargs.setdefault("clients", 900)
    kwargs.setdefault("nominal_sites", 4)
    kwargs.setdefault("max_sites", 6)
    kwargs.setdefault("epochs", 6)
    kwargs.setdefault("replicas", 4)
    kwargs.setdefault("seed", 7)
    telemetry = kwargs.setdefault("telemetry", Telemetry(trace=False, events=True))
    attach_detectors(telemetry.events)
    return StochasticCampaignRunner(**kwargs)


def http_get(url, *, headers=None, timeout=60):
    request = Request(url, headers=headers or {})
    with urlopen(request, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read().decode()


def sse_frames(text):
    """Parsed SSE stream -> (canonical [(id, kind, data)], heartbeat datas)."""
    canonical, heartbeats = [], []
    for frame in text.strip().split("\n\n"):
        fields = {}
        for line in frame.splitlines():
            if line.startswith(":"):
                continue
            key, value = line.split(": ", 1)
            fields[key] = value
        if "id" in fields:
            canonical.append((int(fields["id"]), fields["event"], fields["data"]))
        elif "data" in fields:
            heartbeats.append(fields["data"])
    return canonical, heartbeats


def nested_emitting_telemetry():
    """A telemetry whose log answers every ``epoch`` with a nested verdict,
    from a subscriber registered before any monitor mounts."""
    telemetry = Telemetry(trace=False, events=True)
    log = telemetry.events

    def fake_detector(event):
        if event.kind == "epoch":
            log.emit("detector", detector="fake",
                     epoch=event.payload["epoch"])

    log.subscribe(fake_detector)
    return telemetry


@pytest.fixture(scope="module")
def baseline():
    """Monitor-less E14: the bytes every monitored run must reproduce."""
    runner = make_e14()
    result = runner.run()
    return canonical_result_bytes(result), runner.telemetry.events.to_ndjson()


class TestMonitorIdentity:
    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_monitored_run_is_byte_identical(self, baseline, n_workers):
        runner = make_e14()
        with MonitorServer.attach(runner.telemetry, runner=runner) as monitor:
            result = runner.run_parallel(n_workers=n_workers, monitor=monitor)
            assert canonical_result_bytes(result) == baseline[0]
            assert runner.telemetry.events.to_ndjson() == baseline[1]

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_detach_mid_campaign_is_byte_identical(self, baseline, n_workers):
        runner = make_e14()
        monitor = MonitorServer.attach(runner.telemetry, runner=runner)
        seen = []

        def detach_on_second_unit(event):
            if event.kind == "unit_complete":
                seen.append(event.seq)
                if len(seen) == 2:
                    monitor.detach()

        runner.telemetry.events.subscribe(detach_on_second_unit)
        try:
            result = runner.run_parallel(n_workers=n_workers, monitor=monitor)
        finally:
            monitor.close()
        assert len(seen) == 4
        assert canonical_result_bytes(result) == baseline[0]
        assert runner.telemetry.events.to_ndjson() == baseline[1]

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_hard_shutdown_mid_campaign_is_byte_identical(self, baseline,
                                                          n_workers):
        """monitor.close() mid-run — server gone, campaign unharmed."""
        runner = make_e14()
        monitor = MonitorServer.attach(runner.telemetry, runner=runner)
        url = monitor.url

        def kill_on_first_unit(event):
            if event.kind == "unit_complete":
                monitor.close()

        runner.telemetry.events.subscribe(kill_on_first_unit)
        result = runner.run_parallel(n_workers=n_workers, monitor=monitor)
        assert canonical_result_bytes(result) == baseline[0]
        assert runner.telemetry.events.to_ndjson() == baseline[1]
        with pytest.raises(OSError):
            http_get(url + "/healthz", timeout=5)

    def test_nested_detector_emits_serve_in_canonical_order(self):
        """Detectors subscribe before the monitor and emit *nested* events,
        so the monitor hears a verdict before the event that triggered it;
        the served stream must still be in canonical log order."""
        telemetry = nested_emitting_telemetry()
        log = telemetry.events
        with MonitorServer.attach(telemetry) as monitor:
            log.emit("campaign_started", experiment="X", units=1)
            log.emit("epoch", epoch=0)
            log.emit("epoch", epoch=1)
            log.emit("campaign_complete", experiment="X", units=1)
            _, _, body = http_get(
                monitor.url + "/events?since_seq=-1&limit=100")
            assert body == log.to_ndjson()
            kinds = [json.loads(line)["kind"]
                     for line in body.splitlines()]
            assert kinds == ["campaign_started", "epoch", "detector",
                             "epoch", "detector", "campaign_complete"]

    def test_heartbeats_are_quarantined(self, baseline):
        runner = make_e14()
        with MonitorServer.attach(runner.telemetry, runner=runner) as monitor:
            runner.run_parallel(n_workers=4, monitor=monitor)
            # started + complete per unit, on the live feed only.
            assert monitor.live_len() == 2 * 4
            progress = monitor.progress()
            assert progress["heartbeats"] == 2 * 4
        ndjson = runner.telemetry.events.to_ndjson()
        assert "unit_heartbeat" not in ndjson
        assert ndjson == baseline[1]


class TestServesTheLog:
    """The monitor has no event store of its own: log + one integer."""

    def test_served_lines_are_the_logs_own_strings(self):
        telemetry = nested_emitting_telemetry()
        log = telemetry.events
        monitor = MonitorServer().mount(telemetry)
        log.emit("epoch", epoch=0)
        log.emit("epoch", epoch=1)
        lines, next_seq, remaining = monitor.events_page(-1, 100)
        assert (next_seq, remaining) == (3, 0)
        assert len(lines) == 4
        for line, event in zip(lines, log.events):
            assert line is event.to_json()
        for line, event in zip(monitor.verdict_lines(), log.events[1::2]):
            assert line is event.to_json()

    def test_cursor_below_minus_one_reads_as_minus_one(self):
        telemetry = Telemetry(trace=False, events=True)
        monitor = MonitorServer().mount(telemetry)
        # Nothing to read must say so, wherever the client starts.
        assert monitor.events_page(-5, 500) == ([], -1, 0)
        telemetry.events.emit("a", x=1)
        telemetry.events.emit("b", x=2)
        assert monitor.events_page(-7, 0) == ([], -1, 2)
        assert monitor.events_page(-7, -3) == ([], -1, 2)
        lines, next_seq, remaining = monitor.events_page(-7, 1)
        assert (len(lines), next_seq, remaining) == (1, 0, 1)
        assert monitor.verdict_lines(-7) == []
        chunk, cursor, _, _, _ = monitor.wait_for_frames(-9, 0, timeout=0.0)
        assert [event.seq for event in chunk] == [0, 1] and cursor == 1

    def test_small_pages_from_below_minus_one_stitch_to_ndjson(self):
        telemetry = nested_emitting_telemetry()
        log = telemetry.events
        with MonitorServer.attach(telemetry) as monitor:
            for epoch in range(5):
                log.emit("epoch", epoch=epoch)
            stitched, cursor, pages = [], -5, 0
            while True:
                _, headers, body = http_get(
                    monitor.url + f"/events?since_seq={cursor}&limit=3")
                stitched.append(body)
                cursor = int(headers["X-Next-Seq"])
                pages += 1
                assert pages <= 4, "X-Remaining never reached 0"
                if headers["X-Remaining"] == "0":
                    break
            assert "".join(stitched) == log.to_ndjson()
            assert pages == 4
            # The SSE cursor goes through the same clamp, by query and by
            # reconnect header.
            for url, headers in (("/stream?since_seq=-9&limit=10", {}),
                                 ("/stream?limit=10", {"Last-Event-ID": "-9"})):
                _, _, text = http_get(monitor.url + url, headers=headers)
                canonical, _ = sse_frames(text)
                assert [seq for seq, _, _ in canonical] == list(range(10))

    def test_detach_freezes_the_prefix_and_remount_serves_from_zero(self):
        telemetry = nested_emitting_telemetry()
        log = telemetry.events
        monitor = MonitorServer().mount(telemetry)
        log.emit("campaign_started", experiment="X", units=2)
        log.emit("epoch", epoch=0)
        frozen = log.to_ndjson()
        monitor.detach()
        log.emit("epoch", epoch=1)
        log.emit("campaign_complete", experiment="X", units=2)
        lines, next_seq, remaining = monitor.events_page(-1, 100)
        assert "".join(line + "\n" for line in lines) == frozen
        assert (next_seq, remaining) == (2, 0)
        assert monitor.health()["events"] == 3
        progress = monitor.progress()
        assert progress["events"] == {
            "total": 3, "last_seq": 2,
            "by_kind": {"campaign_started": 1, "detector": 1, "epoch": 1}}
        assert progress["complete"] is False
        monitor.mount(telemetry)
        lines, next_seq, remaining = monitor.events_page(-1, 100)
        assert "".join(line + "\n" for line in lines) == log.to_ndjson()
        assert (next_seq, remaining) == (5, 0)
        assert monitor.progress()["complete"] is True

    def test_remount_on_a_telemetry_without_events_serves_nothing_stale(self):
        first = Telemetry(trace=False, events=True)
        monitor = MonitorServer().mount(first)
        first.events.emit("campaign_started", experiment="E14", units=4)
        first.events.emit("unit_started", unit=0, label="r0")
        assert monitor.health()["events"] == 2
        monitor.mount(Telemetry(trace=False))
        assert monitor.health()["events"] == 0
        assert monitor.events_page(-1, 100) == ([], -1, 0)
        progress = monitor.progress()
        assert progress["experiment"] is None
        assert progress["units_total"] is None
        assert progress["units_in_flight"] == []
        assert progress["events"] == {"total": 0, "last_seq": -1,
                                      "by_kind": {}}
        # ...and the first log no longer reaches the monitor.
        first.events.emit("unit_complete", unit=0, label="r0")
        assert monitor.health()["events"] == 0

    def test_paging_reader_races_a_nested_emitting_campaign(self):
        """An HTTP reader pages ``/events`` flat out while the emitting
        thread appends 5,000+ events, half of them nested: the stitched
        read is gap-free, duplicate-free, in order, and ends equal to the
        export."""
        telemetry = nested_emitting_telemetry()
        log = telemetry.events
        epochs = 2_500
        emitted = threading.Event()
        first_page = threading.Event()
        box = {"bodies": [], "pages_while_emitting": 0}

        with MonitorServer.attach(telemetry) as monitor:
            def reader():
                cursor = -5
                while True:
                    done = emitted.is_set()
                    _, headers, body = http_get(
                        monitor.url + f"/events?since_seq={cursor}&limit=64")
                    first_page.set()
                    box["bodies"].append(body)
                    box["pages_while_emitting"] += not done
                    cursor = int(headers["X-Next-Seq"])
                    if done and headers["X-Remaining"] == "0":
                        return

            client = threading.Thread(target=reader, daemon=True)
            client.start()
            assert first_page.wait(timeout=60)
            # Hand the GIL over far more often than the 5 ms default, so
            # requests land between an append and its notification.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                log.emit("campaign_started", experiment="X", units=1)
                for epoch in range(epochs):
                    log.emit("epoch", epoch=epoch)
                log.emit("campaign_complete", experiment="X", units=1)
            finally:
                sys.setswitchinterval(interval)
            emitted.set()
            client.join(timeout=120)
            assert not client.is_alive()

        assert len(log) == 2 * epochs + 2
        assert box["pages_while_emitting"] >= 1
        body = "".join(box["bodies"])
        seqs = [json.loads(line)["seq"] for line in body.splitlines()]
        assert seqs == list(range(len(log)))
        assert body == log.to_ndjson()


class TestEndpoints:
    @pytest.fixture(scope="class")
    def served(self):
        """A completed monitored campaign, server still up."""
        runner = make_e14()
        with MonitorServer.attach(runner.telemetry, runner=runner) as monitor:
            runner.run_parallel(n_workers=2, monitor=monitor)
            yield monitor, runner.telemetry

    def test_healthz(self, served):
        monitor, telemetry = served
        status, _, body = http_get(monitor.url + "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["mounted"] is True
        assert health["events"] == len(telemetry.events.events)

    def test_metrics_is_prometheus_text(self, served):
        monitor, telemetry = served
        status, headers, body = http_get(monitor.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert body == telemetry.metrics.prometheus_text()
        assert "# TYPE campaign_replicas_completed counter" in body

    def test_events_pages_with_strictly_after_cursor(self, served):
        monitor, telemetry = served
        expected = telemetry.events.to_ndjson()
        stitched, cursor = [], -1
        while True:
            _, headers, body = http_get(
                monitor.url + f"/events?since_seq={cursor}&limit=7")
            stitched.append(body)
            cursor = int(headers["X-Next-Seq"])
            if headers["X-Remaining"] == "0":
                break
        assert "".join(stitched) == expected

    def test_progress_shape(self, served):
        monitor, telemetry = served
        _, _, body = http_get(monitor.url + "/progress")
        progress = json.loads(body)
        assert progress["complete"] is True
        assert progress["units_done"] == progress["units_total"] == 4
        assert progress["units_in_flight"] == []
        assert progress["events"]["total"] == len(telemetry.events.events)
        assert progress["events"]["last_seq"] == \
            telemetry.events.events[-1].seq
        assert progress["eta_seconds"] == 0.0
        assert "epoch" in progress["events"]["by_kind"]

    def test_verdicts_filters_to_detector_events(self, served):
        monitor, telemetry = served
        _, _, body = http_get(monitor.url + "/verdicts")
        served_kinds = [json.loads(line)["kind"]
                        for line in body.splitlines() if line]
        expected = [event for event in telemetry.events.events
                    if event.kind == "detector"]
        assert all(kind == "detector" for kind in served_kinds)
        assert len(served_kinds) == len(expected)

    def test_unknown_path_is_404_and_bad_cursor_is_400(self, served):
        monitor, _ = served
        with pytest.raises(HTTPError) as missing:
            http_get(monitor.url + "/nope")
        assert missing.value.code == 404
        with pytest.raises(HTTPError) as bad:
            http_get(monitor.url + "/events?since_seq=banana")
        assert bad.value.code == 400


class TestStreamReplay:
    def test_last_event_id_resumes_exactly_once(self, baseline):
        """The ISSUE acceptance bar: reconnecting with ``Last-Event-ID``
        replays the canonical sequence exactly once, in order."""
        runner = make_e14()
        with MonitorServer.attach(runner.telemetry, runner=runner) as monitor:
            runner.run_parallel(n_workers=2, monitor=monitor)
            expected = runner.telemetry.events.to_ndjson().splitlines()

            first_n = 5
            _, _, text = http_get(monitor.url + f"/stream?limit={first_n}")
            first, _ = sse_frames(text)
            assert [seq for seq, _, _ in first] == list(range(first_n))

            _, _, text = http_get(
                monitor.url + f"/stream?limit={len(expected) - first_n}",
                headers={"Last-Event-ID": str(first[-1][0])})
            rest, _ = sse_frames(text)

        replayed = first + rest
        assert [seq for seq, _, _ in replayed] == list(range(len(expected)))
        assert [data for _, _, data in replayed] == expected
        assert [kind for _, kind, _ in replayed] == \
            [json.loads(line)["kind"] for line in expected]
        for _, _, data in replayed:
            assert json.loads(data)["schema"] == EVENT_SCHEMA_VERSION

    def test_stream_tails_a_live_campaign(self):
        """A client that connects before the run sees events as they land."""
        runner = make_e14()
        with MonitorServer.attach(runner.telemetry, runner=runner) as monitor:
            box = {}

            def tail():
                _, _, box["text"] = http_get(
                    monitor.url + "/stream?limit=3", timeout=120)

            client = threading.Thread(target=tail, daemon=True)
            client.start()
            runner.run_parallel(n_workers=2, monitor=monitor)
            client.join(timeout=120)
            assert not client.is_alive()
            canonical, _ = sse_frames(box["text"])
            assert [seq for seq, _, _ in canonical] == [0, 1, 2]
            assert json.loads(canonical[0][2])["kind"] == "campaign_started"
