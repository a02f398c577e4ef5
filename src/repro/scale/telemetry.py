"""Process-local telemetry: metrics registry, span tracer, exporters.

The campaign stack (timeline epochs, solver fast paths, autoscale and
adversary control loops, the E12–E16 runners) needs to explain *where its
time and work go* without perturbing what it computes.  This module is that
substrate, built around one hard guarantee: **telemetry observes, never
participates**.  Enabling it changes no allocation, no epoch record, no
campaign distribution — simulation results are bit-identical with telemetry
on or off (asserted in ``tests/scale/test_telemetry.py``).  Three parts:

:class:`MetricsRegistry`
    Counters, gauges, and fixed-bucket histograms.  Everything recorded is
    *work*, never wall time — solver passes, warm-start hits, reused
    epochs, controller actions — so ``as_dict()`` is deterministic from the
    seed and two identical runs produce identical registries.  Exported as
    Prometheus text exposition (:meth:`MetricsRegistry.prometheus_text`).

:class:`Tracer`
    Hierarchical spans (``campaign → replica → epoch → {template_instantiate,
    solve, latency_proxy, autoscale_step, adversary_step, ring_remap}``)
    with strict stack discipline: a child must close inside its parent, and
    :meth:`Tracer.assert_well_formed` proves the tree has no orphans.
    Exported as a JSONL trace dump (:meth:`Tracer.write_jsonl`) and reduced
    to per-phase P50/P95 run tables by :func:`phase_breakdown` (what
    ``tools/perf_report.py`` renders and ``BENCH_*.json`` artifacts embed).

:class:`Telemetry` / :data:`NULL`
    The facade the simulator threads through.  ``Telemetry(trace=...,
    metrics=...)`` enables either half independently; the module-level
    :data:`NULL` singleton (a :class:`Telemetry` with both halves off) is
    the default everywhere.  Crucially, even a null span still *times* its
    body — two ``perf_counter`` calls, exactly what the inline bookkeeping
    it replaced cost — so ``wall_seconds``/``solve_seconds`` result fields
    stay populated through one single timing code path.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import WorkloadError

#: Default histogram bucket edges: powers of two covering solver pass
#: counts.  Fixed edges keep the exported cumulative buckets deterministic.
DEFAULT_BUCKET_EDGES: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
)


class Histogram:
    """A fixed-bucket histogram (Prometheus-style cumulative on export).

    ``edges`` are the *upper* bounds of the finite buckets; observations
    above the last edge land in the implicit ``+Inf`` bucket.  Edges are
    fixed at creation so the exported output is deterministic regardless of
    the values observed.
    """

    __slots__ = ("edges", "counts", "inf_count", "total", "n")

    def __init__(self, edges: Sequence[float] = DEFAULT_BUCKET_EDGES) -> None:
        if not edges or list(edges) != sorted(edges):
            raise WorkloadError("histogram edges must be a sorted, non-empty sequence")
        self.edges: Tuple[float, ...] = tuple(float(edge) for edge in edges)
        self.counts: List[int] = [0] * len(self.edges)
        self.inf_count = 0
        self.total = 0.0
        self.n = 0

    def observe(self, value: float) -> None:
        """Record one observation into its (non-cumulative) bucket."""
        value = float(value)
        self.total += value
        self.n += 1
        for index, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[index] += 1
                return
        self.inf_count += 1

    def as_dict(self) -> Dict[str, object]:
        """Deterministic summary: per-edge counts, +Inf, sum, count."""
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "inf": self.inf_count,
            "sum": self.total,
            "count": self.n,
        }

    def merge_dict(self, other: Dict[str, object]) -> None:
        """Fold another histogram's :meth:`as_dict` summary into this one.

        Used when worker-process registries are merged back into the
        campaign's registry; both sides must share the same bucket edges —
        merging across layouts would silently mis-bucket the counts.
        """
        if tuple(float(edge) for edge in other["edges"]) != self.edges:
            raise WorkloadError(
                "cannot merge histograms with different bucket edges"
            )
        for index, count in enumerate(other["counts"]):
            self.counts[index] += int(count)
        self.inf_count += int(other["inf"])
        self.total += float(other["sum"])
        self.n += int(other["count"])


def _prometheus_name(name: str) -> str:
    """Sanitize a dotted metric name into the Prometheus charset."""
    out = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _format_value(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: object) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, LF."""
    return (str(value).replace("\\", "\\\\")
            .replace('"', '\\"').replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """Escape ``# HELP`` text per the exposition format: ``\\`` and LF."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


class MetricsRegistry:
    """Create-or-get counters, gauges, and histograms, fully deterministic.

    Metric names are dotted (``solver.warm_start_hits``); the Prometheus
    exporter sanitizes them.  The registry records *work*, not wall time:
    callers must never feed it ``perf_counter`` values, so two runs of the
    same seeded simulation produce identical :meth:`as_dict` output — the
    property the histogram-determinism tests pin down.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- recording -------------------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` (created at zero on first use)."""
        if amount < 0:
            raise WorkloadError(f"counter {name!r} cannot decrease")
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float,
                edges: Sequence[float] = DEFAULT_BUCKET_EDGES) -> None:
        """Record ``value`` into histogram ``name`` (created on first use).

        ``edges`` only applies at creation; observing into an existing
        histogram with different edges is an error — silently switching
        bucket layouts would make the export depend on call order.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(edges)
            self._histograms[name] = histogram
        elif histogram.edges != tuple(float(edge) for edge in edges):
            raise WorkloadError(
                f"histogram {name!r} already exists with different bucket edges"
            )
        histogram.observe(value)

    # -- reading ---------------------------------------------------------------------

    def counter_value(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 if never incremented)."""
        return self._counters.get(name, 0.0)

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Deterministic snapshot: sorted names, plain python values."""
        return {
            "counters": {name: self._counters[name]
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name]
                       for name in sorted(self._gauges)},
            "histograms": {name: self._histograms[name].as_dict()
                           for name in sorted(self._histograms)},
        }

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold another registry's :meth:`as_dict` snapshot into this one.

        Counters add, histograms merge bucket-wise (same edges required),
        gauges take the incoming value (last writer wins — a gauge is a
        level, not an accumulation).  This is how a multi-worker campaign
        presents ONE registry: each worker's per-unit delta is merged into
        the campaign's registry as its results arrive, so exporters read
        merged ``campaign.*``/``solver.*`` counters exactly as they would
        after a single-process run.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, float(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, float(value))
        for name, summary in snapshot.get("histograms", {}).items():
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(summary["edges"])
                self._histograms[name] = histogram
            histogram.merge_dict(summary)

    @staticmethod
    def snapshot_delta(before: Dict[str, Dict[str, object]],
                       after: Dict[str, Dict[str, object]],
                       ) -> Dict[str, Dict[str, object]]:
        """The work recorded between two :meth:`as_dict` snapshots.

        Counters and histogram bucket counts subtract; gauges report their
        ``after`` level.  The result is itself a snapshot, suitable for
        :meth:`merge_snapshot` — the unit-of-work currency a worker process
        ships back with each completed campaign unit.
        """
        counters: Dict[str, float] = {}
        for name, value in after.get("counters", {}).items():
            moved = float(value) - float(before.get("counters", {}).get(name, 0.0))
            if moved:
                counters[name] = moved
        histograms: Dict[str, Dict[str, object]] = {}
        for name, summary in after.get("histograms", {}).items():
            base = before.get("histograms", {}).get(name)
            if base is None:
                histograms[name] = summary
                continue
            moved_counts = [int(now) - int(then) for now, then
                            in zip(summary["counts"], base["counts"])]
            moved_n = int(summary["count"]) - int(base["count"])
            if moved_n:
                histograms[name] = {
                    "edges": list(summary["edges"]),
                    "counts": moved_counts,
                    "inf": int(summary["inf"]) - int(base["inf"]),
                    "sum": float(summary["sum"]) - float(base["sum"]),
                    "count": moved_n,
                }
        return {
            "counters": counters,
            "gauges": dict(after.get("gauges", {})),
            "histograms": histograms,
        }

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format.

        Strict-scraper compatible: every metric carries a ``# HELP`` line
        (naming the original dotted metric, which the charset sanitizer
        would otherwise lose) and a ``# TYPE`` line, and label values go
        through the exposition-format escaping rules (``\\`` ``"`` and
        newlines).  The round-trip test in ``tests/scale/test_telemetry``
        re-parses this output with a strict grammar.
        """
        lines: List[str] = []

        def head(name: str, prom: str, kind: str) -> None:
            help_text = _escape_help(f"{kind} {name!r} "
                                     f"(deterministic work metric)")
            lines.append(f"# HELP {prom} {help_text}")
            lines.append(f"# TYPE {prom} {kind}")

        for name in sorted(self._counters):
            prom = _prometheus_name(name)
            head(name, prom, "counter")
            lines.append(f"{prom} {_format_value(self._counters[name])}")
        for name in sorted(self._gauges):
            prom = _prometheus_name(name)
            head(name, prom, "gauge")
            lines.append(f"{prom} {_format_value(self._gauges[name])}")
        for name in sorted(self._histograms):
            prom = _prometheus_name(name)
            histogram = self._histograms[name]
            head(name, prom, "histogram")
            cumulative = 0
            for edge, count in zip(histogram.edges, histogram.counts):
                cumulative += count
                le = _escape_label_value(f"{edge:g}")
                lines.append(f'{prom}_bucket{{le="{le}"}} {cumulative}')
            cumulative += histogram.inf_count
            lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{prom}_sum {_format_value(histogram.total)}")
            lines.append(f"{prom}_count {histogram.n}")
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Spans and the tracer
# ---------------------------------------------------------------------------


class Span:
    """One timed region.  Always times; records into a tracer when given one.

    Used as a context manager.  After exit, :attr:`seconds` holds the
    elapsed wall time — the single timing code path behind every
    ``wall_seconds``/``solve_seconds`` field, so a null-telemetry span costs
    exactly the two ``perf_counter`` calls the inline bookkeeping it
    replaced used to make.
    """

    __slots__ = ("name", "attrs", "seconds", "_tracer", "_start", "_id", "_parent")

    def __init__(self, name: str, tracer: Optional["Tracer"] = None,
                 attrs: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.attrs = attrs
        self.seconds = 0.0
        self._tracer = tracer
        self._start = 0.0
        self._id = -1
        self._parent = -1

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._id, self._parent = self._tracer._open(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._start
        if self._tracer is not None:
            self._tracer._close(self)


class SpanRecord:
    """One closed span in a tracer's trace, preorder by open time."""

    __slots__ = ("id", "parent", "name", "start_s", "dur_s", "attrs")

    def __init__(self, id: int, parent: int, name: str, start_s: float,
                 dur_s: float, attrs: Optional[Dict[str, object]]) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.start_s = start_s
        self.dur_s = dur_s
        self.attrs = attrs

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """A hierarchical span collector with strict stack discipline.

    Spans open and close LIFO within one tracer (the simulator is
    single-threaded); closing a span that is not the innermost open one
    raises :class:`WorkloadError` — that is how the span-tree
    well-formedness tests catch instrumentation bugs at the source instead
    of in the export.  Span start offsets are relative to the tracer's
    first opened span, so traces are position-independent.
    """

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self._stack: List[Span] = []
        self._origin: Optional[float] = None
        self._next_id = 0

    # -- span lifecycle (driven by Span) ---------------------------------------------

    def _open(self, span: Span) -> Tuple[int, int]:
        if self._origin is None:
            # Anchor offsets just before the first span starts its clock,
            # so every recorded start_s is non-negative.
            self._origin = time.perf_counter()
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]._id if self._stack else -1
        self._stack.append(span)
        return span_id, parent

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise WorkloadError(
                f"span {span.name!r} closed out of order; open stack: "
                f"{[open_span.name for open_span in self._stack]}"
            )
        self._stack.pop()
        self.spans.append(SpanRecord(
            id=span._id,
            parent=span._parent,
            name=span.name,
            start_s=span._start - self._origin,
            dur_s=span.seconds,
            attrs=span.attrs,
        ))

    # -- inspection ------------------------------------------------------------------

    @property
    def open_spans(self) -> List[str]:
        """Names of spans currently open (innermost last)."""
        return [span.name for span in self._stack]

    def assert_well_formed(self) -> None:
        """Prove the recorded trace is a forest: every child nests in its parent.

        Raises :class:`WorkloadError` when any span is still open, when a
        parent reference points at an unknown or unclosed-before-child
        span, or when a child's time range escapes its parent's.
        """
        if self._stack:
            raise WorkloadError(
                f"trace has open spans: {[span.name for span in self._stack]}"
            )
        by_id = {record.id: record for record in self.spans}
        slack = 1e-9
        for record in self.spans:
            if record.parent == -1:
                continue
            parent = by_id.get(record.parent)
            if parent is None:
                raise WorkloadError(
                    f"span {record.name!r} has unknown parent id {record.parent}"
                )
            if (record.start_s < parent.start_s - slack
                    or record.start_s + record.dur_s
                    > parent.start_s + parent.dur_s + slack):
                raise WorkloadError(
                    f"span {record.name!r} escapes its parent {parent.name!r}"
                )

    def by_name(self, name: str) -> List[SpanRecord]:
        """All closed spans called ``name``, in open order."""
        return [record for record in self.spans if record.name == name]

    # -- export ----------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """The trace as JSON Lines, one span object per line, preorder."""
        return "\n".join(
            json.dumps(record.as_dict(), sort_keys=True) for record in self.spans
        ) + ("\n" if self.spans else "")

    def write_jsonl(self, path) -> None:
        """Write :meth:`to_jsonl` to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())


# ---------------------------------------------------------------------------
# The facade
# ---------------------------------------------------------------------------


class Telemetry:
    """What the simulator threads through: tracer + registry + event log.

    ``Telemetry()`` enables the passive halves; ``Telemetry(trace=False)``
    is the campaign runners' default (cheap counters for progress/work
    accounting, no span collection); ``Telemetry(trace=False,
    metrics=False)`` is the null object — see :data:`NULL`.  The third,
    opt-in half is the structured event stream: ``Telemetry(events=True)``
    attaches a fresh :class:`~repro.scale.obs.EventLog`, and passing an
    existing log shares it (how a campaign fans worker events into one
    stream).  Every recording method degrades to a no-op when its half is
    disabled, so instrumentation sites never branch.
    """

    __slots__ = ("tracer", "metrics", "events")

    def __init__(self, *, trace: bool = True, metrics: bool = True,
                 events=False) -> None:
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if metrics else None
        )
        if events is True:
            from .obs import EventLog
            self.events = EventLog()
        elif events is False or events is None:
            self.events = None
        else:
            # An existing EventLog to share (an empty one is falsy via
            # __len__, so identity checks above, never truthiness).
            self.events = events

    @property
    def enabled(self) -> bool:
        """Whether either passive half records anything."""
        return self.tracer is not None or self.metrics is not None

    def span(self, name: str, **attrs) -> Span:
        """A timed region; recorded into the tracer when tracing is on.

        The returned object always measures ``seconds`` (the single timing
        code path), and only additionally lands in the trace when this
        telemetry carries a tracer.
        """
        if self.tracer is None:
            return Span(name)
        return Span(name, tracer=self.tracer, attrs=attrs or None)

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter (no-op without a metrics registry)."""
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge (no-op without a metrics registry)."""
        if self.metrics is not None:
            self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float,
                edges: Sequence[float] = DEFAULT_BUCKET_EDGES) -> None:
        """Record a histogram observation (no-op without a registry)."""
        if self.metrics is not None:
            self.metrics.observe(name, value, edges)

    def counter_value(self, name: str) -> float:
        """Current counter value (0.0 without a registry)."""
        if self.metrics is None:
            return 0.0
        return self.metrics.counter_value(name)

    def emit(self, kind: str, **payload) -> None:
        """Emit a structured event (no-op without an event log)."""
        if self.events is not None:
            self.events.emit(kind, **payload)


class NullTelemetry(Telemetry):
    """The no-op default: no tracer, no registry, unmeasurable overhead.

    A :class:`Telemetry` whose halves are both off — spans still time their
    bodies (that is how result ``wall_seconds`` fields are populated), but
    nothing is collected and nothing can be exported.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(trace=False, metrics=False)


#: The module-level null singleton every instrumented call site defaults to.
NULL = NullTelemetry()


# ---------------------------------------------------------------------------
# Phase breakdown (the run-table reduction)
# ---------------------------------------------------------------------------


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


def phase_breakdown(source) -> Dict[str, Dict[str, float]]:
    """Per-phase wall statistics from a tracer's spans, grouped by name.

    ``source`` is a :class:`Tracer`, a :class:`Telemetry` carrying one, or a
    plain ``{phase: [durations]}`` mapping (how the monitor merges the
    parent trace with the span timings pool workers ship home).
    Returns ``{phase: {count, total_s, p50_s, p95_s, max_s}}`` sorted by
    total time descending — the rows ``tools/perf_report.py`` renders.
    """
    durations: Dict[str, List[float]] = {}
    if isinstance(source, dict):
        for name, values in source.items():
            durations.setdefault(name, []).extend(float(v) for v in values)
    else:
        tracer = source.tracer if isinstance(source, Telemetry) else source
        if tracer is None:
            raise WorkloadError("phase_breakdown needs tracing telemetry")
        for record in tracer.spans:
            durations.setdefault(record.name, []).append(record.dur_s)
    out: Dict[str, Dict[str, float]] = {}
    for name in sorted(durations, key=lambda n: -sum(durations[n])):
        ordered = sorted(durations[name])
        out[name] = {
            "count": len(ordered),
            "total_s": sum(ordered),
            "p50_s": _percentile(ordered, 0.50),
            "p95_s": _percentile(ordered, 0.95),
            "max_s": ordered[-1],
        }
    return out


def format_phase_table(phases: Dict[str, Dict[str, float]],
                       title: str = "phases") -> str:
    """Render a phase breakdown as the fixed-width run table perf_report prints."""
    header = f"{'phase':<24} {'count':>7} {'total s':>10} {'p50 ms':>9} {'p95 ms':>9} {'max ms':>9}"
    rule = "-" * len(header)
    lines = [title, rule, header, rule]
    for name, row in phases.items():
        lines.append(
            f"{name:<24} {int(row['count']):>7} {row['total_s']:>10.4f} "
            f"{row['p50_s'] * 1e3:>9.3f} {row['p95_s'] * 1e3:>9.3f} "
            f"{row['max_s'] * 1e3:>9.3f}"
        )
    if not phases:
        lines.append("(no phases recorded)")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_BUCKET_EDGES",
    "Histogram",
    "MetricsRegistry",
    "NULL",
    "NullTelemetry",
    "Span",
    "SpanRecord",
    "Telemetry",
    "Tracer",
    "format_phase_table",
    "phase_breakdown",
]
