"""Telemetry: determinism, span-tree discipline, exporters, progress.

The load-bearing property is that telemetry *observes* the simulation and
never participates: enabling a tracer + registry on any campaign must leave
every allocation, epoch record, and campaign output bit-identical to the
untraced run.  The bit-identity tests here pin that down for one campaign
of each experiment (E13–E16) at smoke scale.
"""

import dataclasses
import json
import re

import pytest

from repro.exceptions import WorkloadError
from repro.scale import (
    AdversaryCampaignRunner,
    LatencyCampaignRunner,
    MetricsRegistry,
    NullTelemetry,
    Span,
    StochasticCampaignRunner,
    Telemetry,
    TimelineCampaignRunner,
    Tracer,
    format_phase_table,
    phase_breakdown,
)
from repro.scale.catalogue import run_scenario
from repro.scale.telemetry import (
    NULL,
    Histogram,
    _escape_label_value,
    _prometheus_name,
)

_CLIENTS = 2_000
_SEED = 21


def _strip_timing(record):
    """A campaign record with its wall-derived fields zeroed for comparison."""
    return dataclasses.replace(record, wall_seconds=0.0, solve_seconds=0.0)


# -- the guarantee: telemetry never changes results --------------------------------


class TestBitIdentity:
    def test_e13_campaign_identical_with_tracing(self):
        scenarios = ["flash_crowd", "regional_outage"]
        plain = TimelineCampaignRunner(
            scenarios=scenarios, clients=_CLIENTS, seed=_SEED).run()
        traced = TimelineCampaignRunner(
            scenarios=scenarios, clients=_CLIENTS, seed=_SEED,
            telemetry=Telemetry()).run()
        assert ([_strip_timing(r) for r in traced.records]
                == [_strip_timing(r) for r in plain.records])

    def test_e14_campaign_identical_with_tracing(self):
        plain = StochasticCampaignRunner(
            clients=_CLIENTS, epochs=16, replicas=3, seed=_SEED).run()
        traced = StochasticCampaignRunner(
            clients=_CLIENTS, epochs=16, replicas=3, seed=_SEED,
            telemetry=Telemetry()).run()
        assert traced.distributions == plain.distributions

    def test_e15_campaign_identical_with_tracing(self):
        plain = LatencyCampaignRunner(
            clients=_CLIENTS, epochs=16, replicas=3, seed=_SEED).run()
        traced = LatencyCampaignRunner(
            clients=_CLIENTS, epochs=16, replicas=3, seed=_SEED,
            telemetry=Telemetry()).run()
        assert traced.distributions == plain.distributions

    def test_e16_campaign_identical_with_tracing(self):
        plain = AdversaryCampaignRunner(
            clients=_CLIENTS, epochs=12, replicas_per_point=1, seed=_SEED).run()
        traced = AdversaryCampaignRunner(
            clients=_CLIENTS, epochs=12, replicas_per_point=1, seed=_SEED,
            telemetry=Telemetry()).run()
        assert traced.points == plain.points

    def test_registry_snapshot_is_deterministic(self):
        """Two identical seeded runs record the exact same work metrics."""
        snapshots = []
        for _ in range(2):
            telemetry = Telemetry()
            StochasticCampaignRunner(
                clients=_CLIENTS, epochs=16, replicas=3, seed=_SEED,
                telemetry=telemetry).run()
            snapshots.append(telemetry.metrics.as_dict())
        assert snapshots[0] == snapshots[1]
        histogram = snapshots[0]["histograms"]["timeline.solver_iterations"]
        assert sum(histogram["counts"]) + histogram["inf"] == histogram["count"]
        assert histogram["count"] == 16 * 3 - snapshots[0]["counters"].get(
            "timeline.epochs_reused", 0)


# -- span trees --------------------------------------------------------------------


class TestSpans:
    def test_campaign_trace_is_well_formed(self):
        telemetry = Telemetry()
        run_scenario("flash_crowd", clients=_CLIENTS, seed=_SEED,
                     telemetry=telemetry)
        tracer = telemetry.tracer
        tracer.assert_well_formed()
        assert tracer.open_spans == []
        names = {record.name for record in tracer.spans}
        assert {"timeline", "epoch", "solve", "ring_remap"} <= names
        assert all(record.start_s >= 0.0 for record in tracer.spans)
        # Every epoch span is a child of the single timeline span.
        (timeline_span,) = tracer.by_name("timeline")
        assert all(record.parent == timeline_span.id
                   for record in tracer.by_name("epoch"))

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = Span("outer", tracer)
        inner = Span("inner", tracer)
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(WorkloadError, match="closed out of order"):
            outer.__exit__(None, None, None)

    def test_open_span_fails_well_formedness(self):
        tracer = Tracer()
        Span("dangling", tracer).__enter__()
        with pytest.raises(WorkloadError, match="open"):
            tracer.assert_well_formed()

    def test_null_telemetry_spans_still_time(self):
        span = NULL.span("anything", attr=1)
        with span:
            sum(range(1000))
        assert span.seconds > 0.0
        assert NULL.tracer is None and NULL.metrics is None
        assert not NullTelemetry().enabled

    def test_null_recording_calls_are_noops(self):
        NULL.inc("x")
        NULL.set_gauge("y", 2.0)
        NULL.observe("z", 1.0)
        assert NULL.counter_value("x") == 0.0


# -- registry + exporters ----------------------------------------------------------


class TestRegistry:
    def test_counters_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(WorkloadError, match="cannot decrease"):
            registry.inc("work", -1.0)

    def test_histogram_edges_are_fixed(self):
        with pytest.raises(WorkloadError, match="sorted"):
            Histogram(edges=(2.0, 1.0))
        registry = MetricsRegistry()
        registry.observe("iters", 3.0, edges=(0.0, 2.0, 4.0))
        with pytest.raises(WorkloadError, match="different bucket edges"):
            registry.observe("iters", 3.0, edges=(0.0, 8.0))

    def test_histogram_bucket_placement(self):
        histogram = Histogram(edges=(0.0, 1.0, 4.0))
        for value in (0.0, 0.5, 1.0, 3.0, 99.0):
            histogram.observe(value)
        assert histogram.counts == [1, 2, 1]
        assert histogram.inf_count == 1
        assert histogram.as_dict()["sum"] == pytest.approx(103.5)

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.inc("solver.fill_passes", 3)
        registry.set_gauge("fleet.sites", 4.5)
        registry.observe("timeline.solver_iterations", 3.0,
                         edges=(0.0, 2.0, 4.0))
        registry.observe("timeline.solver_iterations", 9.0,
                         edges=(0.0, 2.0, 4.0))
        text = registry.prometheus_text()
        assert "# TYPE solver_fill_passes counter\nsolver_fill_passes 3" in text
        assert "# TYPE fleet_sites gauge\nfleet_sites 4.5" in text
        # Buckets are cumulative and close with +Inf, _sum, _count.
        assert 'timeline_solver_iterations_bucket{le="4"} 1' in text
        assert 'timeline_solver_iterations_bucket{le="+Inf"} 2' in text
        assert "timeline_solver_iterations_sum 12" in text
        assert "timeline_solver_iterations_count 2" in text

    def test_jsonl_export_round_trips(self, tmp_path):
        telemetry = Telemetry()
        run_scenario("flash_crowd", clients=_CLIENTS, seed=_SEED,
                     telemetry=telemetry)
        path = tmp_path / "trace.jsonl"
        telemetry.tracer.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(telemetry.tracer.spans)
        spans = [json.loads(line) for line in lines]
        assert all({"id", "parent", "name", "start_s", "dur_s"} <= set(span)
                   for span in spans)


# -- strict Prometheus exposition grammar ------------------------------------------
#
# A scraper-grade re-parse of :meth:`MetricsRegistry.prometheus_text`: every
# family must carry ``# HELP`` + ``# TYPE`` in that order, every sample line
# must match the exposition grammar exactly (including label-value escaping),
# and the parsed values must round-trip back to the registry snapshot.

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_HELP_RE = re.compile(rf"^# HELP (?P<name>{_METRIC_NAME}) (?P<help>[^\n]*)$")
_TYPE_RE = re.compile(rf"^# TYPE (?P<name>{_METRIC_NAME})"
                      r" (?P<kind>counter|gauge|histogram)$")
_LABEL_BODY = r'(?:[^"\\\n]|\\\\|\\"|\\n)*'
_SAMPLE_RE = re.compile(
    rf'^(?P<name>{_METRIC_NAME})'
    rf'(?:\{{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*="{_LABEL_BODY}",?)*)\}})?'
    r' (?P<value>[-+]?(?:\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|Inf|NaN))$')
_LABEL_RE = re.compile(
    rf'(?P<label>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>{_LABEL_BODY})"')


def _unescape_label_value(text):
    out, i = [], 0
    while i < len(text):
        if text[i] == "\\":
            out.append({"\\": "\\", '"': '"', "n": "\n"}[text[i + 1]])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def parse_prometheus(text):
    """Strictly parse exposition text -> {family: {help, type, samples}}."""
    assert text.endswith("\n"), "exposition must end with a newline"
    families = {}
    current = None
    pending_help = None
    for line in text.splitlines():
        help_match = _HELP_RE.match(line)
        if help_match:
            assert pending_help is None, "HELP not followed by TYPE"
            pending_help = help_match
            continue
        type_match = _TYPE_RE.match(line)
        if type_match:
            assert pending_help is not None, "TYPE without a HELP line"
            assert pending_help["name"] == type_match["name"], \
                "HELP/TYPE name mismatch"
            name = type_match["name"]
            assert name not in families, f"duplicate family {name!r}"
            families[name] = {"help": pending_help["help"],
                              "type": type_match["kind"], "samples": []}
            current, pending_help = name, None
            continue
        assert pending_help is None, "HELP not followed by TYPE"
        sample = _SAMPLE_RE.match(line)
        assert sample is not None, f"unparseable sample line: {line!r}"
        assert current is not None, f"sample before any TYPE: {line!r}"
        name = sample["name"]
        if families[current]["type"] == "histogram":
            assert name in (f"{current}_bucket", f"{current}_sum",
                            f"{current}_count"), \
                f"sample {name!r} outside family {current!r}"
        else:
            assert name == current, \
                f"sample {name!r} outside family {current!r}"
        labels = {}
        if sample["labels"]:
            for match in _LABEL_RE.finditer(sample["labels"]):
                labels[match["label"]] = _unescape_label_value(match["value"])
        key = (name, tuple(sorted(labels.items())))
        seen = {(n, tuple(sorted(ls.items())))
                for n, ls, _ in families[current]["samples"]}
        assert key not in seen, f"duplicate sample {key}"
        families[current]["samples"].append((name, labels,
                                             float(sample["value"])))
    assert pending_help is None, "trailing HELP without TYPE"
    return families


class TestPrometheusStrictRoundTrip:
    @staticmethod
    def build_registry():
        registry = MetricsRegistry()
        registry.inc("solver.fill_passes", 3)
        registry.inc("campaign.cost usd/total", 2.5)  # charset-hostile name
        registry.set_gauge("fleet.sites", 4.5)
        registry.set_gauge("autoscale.error", -1.25)
        for value in (0.0, 0.5, 1.0, 3.0, 99.0):
            registry.observe("timeline.solver_iterations", value,
                             edges=(0.0, 1.0, 4.0))
        return registry

    def test_round_trip_matches_registry_snapshot(self):
        registry = self.build_registry()
        families = parse_prometheus(registry.prometheus_text())
        snapshot = registry.as_dict()
        assert len(families) == 5
        for kind_key, kind in (("counters", "counter"), ("gauges", "gauge")):
            for name, value in snapshot[kind_key].items():
                family = families[_prometheus_name(name)]
                assert family["type"] == kind
                # HELP names the original dotted metric the sanitizer lost.
                assert repr(name) in family["help"]
                ((sample_name, labels, parsed),) = family["samples"]
                assert sample_name == _prometheus_name(name)
                assert labels == {}
                assert parsed == pytest.approx(value)

    def test_histogram_buckets_are_cumulative_and_closed(self):
        registry = self.build_registry()
        families = parse_prometheus(registry.prometheus_text())
        summary = registry.as_dict()["histograms"]["timeline.solver_iterations"]
        family = families["timeline_solver_iterations"]
        assert family["type"] == "histogram"
        buckets = [(labels["le"], value)
                   for name, labels, value in family["samples"]
                   if name.endswith("_bucket")]
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)  # cumulative => monotone
        assert buckets[-1][0] == "+Inf"
        assert counts[-1] == summary["count"]
        assert [float(le) for le, _ in buckets[:-1]] == summary["edges"]
        ((total,),) = [[value] for name, _, value in family["samples"]
                       if name.endswith("_sum")]
        assert total == pytest.approx(summary["sum"])
        ((count,),) = [[value] for name, _, value in family["samples"]
                       if name.endswith("_count")]
        assert count == summary["count"]

    def test_label_escaping_round_trips(self):
        raw = 'a"b\nc\\d'
        escaped = _escape_label_value(raw)
        assert escaped == 'a\\"b\\nc\\\\d'
        text = ("# HELP demo histogram 'demo'\n"
                "# TYPE demo histogram\n"
                f'demo_bucket{{le="{escaped}"}} 1\n')
        ((_, labels, _),) = parse_prometheus(text)["demo"]["samples"]
        assert labels["le"] == raw

    def test_parser_rejects_malformed_exposition(self):
        with pytest.raises(AssertionError, match="sample before any TYPE"):
            parse_prometheus("orphan 1\n")
        with pytest.raises(AssertionError, match="HELP not followed"):
            parse_prometheus("# HELP a b\na 1\n")
        with pytest.raises(AssertionError, match="unparseable"):
            parse_prometheus('# HELP a b\n# TYPE a counter\n'
                             'a{x="unterminated} 1\n')
        with pytest.raises(AssertionError, match="outside family"):
            parse_prometheus("# HELP a b\n# TYPE a counter\nother 1\n")


# -- the perf-report surface -------------------------------------------------------


class TestPhaseBreakdown:
    def test_breakdown_sorted_by_total(self):
        telemetry = Telemetry()
        run_scenario("flash_crowd", clients=_CLIENTS, seed=_SEED,
                     telemetry=telemetry)
        phases = phase_breakdown(telemetry)
        assert "epoch" in phases and "solve" in phases
        totals = [row["total_s"] for row in phases.values()]
        assert totals == sorted(totals, reverse=True)
        for row in phases.values():
            assert row["count"] > 0
            assert 0.0 <= row["p50_s"] <= row["p95_s"] <= row["max_s"] + 1e-12
        table = format_phase_table(phases, title="smoke")
        assert "smoke" in table and "epoch" in table

    def test_breakdown_needs_a_tracer(self):
        with pytest.raises(WorkloadError, match="tracing"):
            phase_breakdown(Telemetry(trace=False))
        assert "(no phases recorded)" in format_phase_table({})


# -- progress from counters (the stale-window fix) ---------------------------------


class TestProgress:
    def test_progress_tracks_replica_counter(self):
        runner = StochasticCampaignRunner(
            clients=_CLIENTS, epochs=8, replicas=3, seed=_SEED)
        assert runner.get_current_state().completed_points == 0
        runner.run()
        state = runner.get_current_state()
        assert state.completed_points == state.total_points == 3
        assert runner.telemetry.counter_value("campaign.replicas_completed") == 3

    def test_second_run_does_not_double_count(self):
        runner = StochasticCampaignRunner(
            clients=_CLIENTS, epochs=8, replicas=3, seed=_SEED)
        runner.run()
        runner.run()
        # The counter keeps climbing across runs (it is cumulative), but
        # each run() starts a fresh progress record.
        assert runner.telemetry.counter_value("campaign.replicas_completed") == 6
        assert runner.get_current_state().completed_points == 3

    def test_progress_survives_metrics_less_telemetry(self):
        runner = TimelineCampaignRunner(
            scenarios=["flash_crowd"], clients=_CLIENTS, seed=_SEED,
            telemetry=Telemetry(trace=False, metrics=False))
        runner.run()
        state = runner.get_current_state()
        assert state.completed_points == state.total_points == 1


# -- overhead ----------------------------------------------------------------------


def test_tracing_overhead_is_modest():
    """The strict 5% guard lives in bench_timeline at the acceptance scale;
    this smoke-scale bound just catches pathological regressions (e.g. an
    accidental O(spans^2) tracer) without flaking on scheduler noise."""
    plain = run_scenario("flash_crowd", clients=_CLIENTS, seed=_SEED)
    traced = run_scenario("flash_crowd", clients=_CLIENTS, seed=_SEED,
                          telemetry=Telemetry())
    assert traced.wall_seconds <= plain.wall_seconds * 3.0 + 0.2
