"""Measurement plumbing shared by every workload: samples, checks, layer table.

Everything here observes the program from outside.  Spans come from the
``Telemetry(trace=True)`` tracer the program already exposes; the harness's
own spans (``bench.round`` around a traced round, ``probe.*`` around direct
calls into a layer) are recorded with the same public :class:`Tracer`, kept
in memory, and written out only when the run ends.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

SUITE_DIR = Path(__file__).resolve().parent
REPO = SUITE_DIR.parent.parent
#: Round-scoped scratch (checkpoints) lives inside the checkout, never /tmp.
TMP_ROOT = SUITE_DIR / ".tmp"

#: Span name -> the layer row its self time lands in.
SPAN_ROWS = {
    "campaign": "runner.campaign_self_s",
    "replica": "runner.replica_self_s",
    "timeline": "timeline.run_self_s",
    "epoch": "timeline.epoch_self_s",
    "ring_remap": "fleet.ring_remap_s",
    "template_instantiate": "scenario.instantiate_s",
    "solve": "solver.solve_s",
    "latency_proxy": "latency.proxy_s",
    "autoscale_step": "autoscale.step_s",
    "adversary_step": "adversary.step_s",
}
#: The harness span wrapped around one traced round; its self time, plus
#: the self time of any span the table above does not name, is nobody's.
ROUND_SPAN = "bench.round"

#: Registry counter -> per-layer metric reporting it.
COUNTER_METRICS = (
    "timeline.epochs", "timeline.epochs_reused", "timeline.clients_remapped",
    "solver.fill_passes", "solver.alpha_fair_iterations",
    "solver.warm_start_hits", "solver.warm_start_misses",
    "solver.demand_certificates", "solver.kkt_retries",
    "autoscale.actions", "adversary.events", "adversary.clients_rekeyed",
)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile (the median twice for fewer than 2 samples)."""
    if len(values) < 2:
        only = float(values[0])
        return only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return float(ordered[index])


def peak_rss_mb() -> float:
    """Max resident set of this process and of any child it has waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def shm_segments() -> set:
    """Names of the POSIX shared-memory segments python creates (``psm_*``)."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


class RoundLog:
    """Samples and correctness verdicts of one workload run.

    ``with log.round():`` scopes one attempted round; ``check`` records a
    failed check against it, and a round with any failed check counts once in
    ``failed``.  A check failing outside a round counts as one more attempted
    operation, so ``correct`` can never be true with a failure on the books.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.counters: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.digests: Dict[str, str] = {}
        self._round_failed = False
        self._in_round = False

    @contextlib.contextmanager
    def round(self):
        self.attempted += 1
        self._round_failed = False
        self._in_round = True
        try:
            yield
        finally:
            self._in_round = False

    def check(self, condition: bool, message: str) -> bool:
        if condition:
            return True
        self.failures.append(message)
        print(f"  [FAIL] {message}", flush=True)
        if not self._in_round:
            self.attempted += 1
            self.failed += 1
        elif not self._round_failed:
            self._round_failed = True
            self.failed += 1
        return False

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def same_digest(self, key: str, digest: str) -> None:
        """Every round must reproduce the first round's ``key`` digest."""
        first = self.digests.setdefault(key, digest)
        self.check(first == digest,
                   f"{key} changed between rounds: {first[:12]} -> {digest[:12]}")

    def count(self, name: str, value: float) -> None:
        """Record a deterministic work counter; it must repeat exactly."""
        seen = self.counters.setdefault(name, [])
        seen.append(float(value))
        self.check(seen[0] == seen[-1],
                   f"counter {name} drifted between rounds: {seen[0]:g} -> {seen[-1]:g}")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def repeat(rounds: int, budget_s: Optional[float]):
    """Yield round indices 0, 1, ...: ``rounds`` of them, or — given a time
    budget — until less than half of another round would fit in it."""
    started = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        if budget_s is None:
            if done >= rounds:
                return
        else:
            elapsed = time.perf_counter() - started
            if elapsed + 0.5 * elapsed / done >= budget_s:
                return


# -- process lifetime ----------------------------------------------------------------------

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the new parent of any descendant whose own parent
    ends (Linux ``PR_SET_CHILD_SUBREAPER``), so that it can wait for them."""
    try:
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass                            # not Linux: orphans go to init as ever


def children_end(within_s: float) -> bool:
    """Reap children as they end; true once this process has none left."""
    deadline = time.monotonic() + within_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)


# -- layer table ---------------------------------------------------------------------------


def self_times(spans: Iterable) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """Per-name self time (duration minus direct children) and raw durations."""
    spans = list(spans)
    child_total: Dict[int, float] = {}
    for record in spans:
        if record.parent != -1:
            child_total[record.parent] = child_total.get(record.parent, 0.0) + record.dur_s
    self_by_name: Dict[str, float] = {}
    durations: Dict[str, List[float]] = {}
    for record in spans:
        own = record.dur_s - child_total.get(record.id, 0.0)
        self_by_name[record.name] = self_by_name.get(record.name, 0.0) + own
        durations.setdefault(record.name, []).append(record.dur_s)
    return self_by_name, durations


def layer_rows(spans: Iterable) -> Tuple[Dict[str, float], Dict[str, List[float]], float]:
    """One traced round as layer rows.

    Returns ``(rows, durations, wall)``: ``rows`` maps each layer-row metric
    (and ``unattributed_s``) to seconds of self time, and sums to ``wall`` —
    the duration of the round's ``bench.round`` span — exactly, because every
    span's self time lands in exactly one row.
    """
    self_by_name, durations = self_times(spans)
    rows = {row: 0.0 for row in SPAN_ROWS.values()}
    rows["unattributed_s"] = 0.0
    for name, seconds in self_by_name.items():
        rows[SPAN_ROWS.get(name, "unattributed_s")] += seconds
    wall = sum(durations.get(ROUND_SPAN, [0.0]))
    return rows, durations, wall


def format_layer_table(title: str, rows: Dict[str, float], wall: float) -> str:
    header = f"{'layer row':<28} {'self s':>10} {'share':>8}"
    rule = "-" * len(header)
    lines = [title, rule, header, rule]
    for name, seconds in sorted(rows.items(), key=lambda item: -item[1]):
        if seconds == 0.0 and name != "unattributed_s":
            continue                    # a layer this workload never enters
        share = seconds / wall if wall > 0 else 0.0
        lines.append(f"{name:<28} {seconds:>10.4f} {share:>8.1%}")
    lines.append(rule)
    lines.append(f"{'sum of rows':<28} {sum(rows.values()):>10.4f}")
    lines.append(f"{'traced wall':<28} {wall:>10.4f}")
    return "\n".join(lines)


# -- probes --------------------------------------------------------------------------------


class Prober:
    """Times direct calls into one layer, one harness span per sample."""

    def __init__(self, telemetry, workload: str, calls: int) -> None:
        self.telemetry = telemetry
        self.workload = workload
        self.calls = calls

    def seconds(self, name: str, fn: Callable[[], object], *, batch: int = 1,
                setup: Optional[Callable[[], object]] = None) -> float:
        """Median seconds per call of ``fn`` over ``calls`` samples.

        ``batch`` calls share one span when a single call is too short to
        time on its own; ``setup`` runs untimed before each sample and its
        return value is handed to ``fn``.
        """
        samples = []
        for index in range(self.calls):
            call = fn if setup is None else functools.partial(fn, setup())
            span = self.telemetry.span(f"probe.{name}", workload=self.workload,
                                       round=index)
            with span:
                for _ in range(batch):
                    call()
            samples.append(span.seconds / batch)
        return median(samples)


# -- provenance ----------------------------------------------------------------------------


def _git(*args: str) -> str:
    try:
        out = subprocess.run(["git", *args], cwd=REPO, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, scale_name: str, rounds: Dict[str, int]) -> Dict[str, object]:
    """Which code, machine and settings produced a result file.

    Kept in its own block so nothing here is ever mistaken for a metric.
    """
    import numpy

    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(_git("status", "--porcelain")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
        "scale": scale_name,
        "rounds": dict(rounds),
        "command": " ".join(sys.argv),
        "unix_time": time.time(),
    }
