"""Deterministic multi-core campaign execution with checkpointed resume.

Every campaign (E12 sweep, E13 timeline catalogue, E14 stochastic, E15
latency, E16 adversary) decomposes into the same shape — a list of
independent :class:`CampaignUnit` work items, a pure per-unit simulation,
and an order-insensitive merge (:class:`repro.scale.runner.CampaignRunner`).
:class:`ProcessPoolCampaignExecutor` is the one campaign lifecycle: a
runner's ``run()`` is this executor at ``n_workers=1`` with no checkpoint,
and more workers farm the same units over processes without changing a
single number in any result:

**Determinism contract.**  Each unit's outcome depends only on the unit
spec and the campaign configuration (per-unit ``SeedSequence`` substreams;
timelines restore fleet state), and :class:`ProcessPoolCampaignExecutor`
always hands outcomes to ``merge_units`` in unit-index order, never in
completion order.  Consequences, asserted in ``tests/scale/test_parallel.py``
and the ``parallel-equivalence`` CI job: ``n_workers=1`` *is* the runner's
``run()``, and ``n_workers=N`` is bit-identical to it for any N.

**Inputs.**  A unit gets its inputs one way, serial or pooled: from the
runner ``prepare()`` left behind.  ``prepare()`` does what a campaign's
units share — for E14–E16 that is every O(n_clients) pass there is — once,
in the parent; the pool receives that runner as it is (``fork`` inherits it
copy-on-write, zero copies; ``spawn`` pickles it whole, one population per
worker) and a worker never prepares anything.

**Checkpointed resume.**  With a ``checkpoint_dir``, a :class:`RunTable`
directory records one JSON file per completed unit (written atomically:
temp file + ``os.replace``).  An interrupted campaign re-run with the same
directory loads completed outcomes and only executes the remainder — the
merged table is identical to an uninterrupted run's.

**Telemetry fan-in.**  Workers ship a per-unit metrics-registry delta and
their span durations home with each outcome; the parent merges deltas into
the campaign registry (so ``get_current_state()`` and Prometheus exports
read ONE registry) and accumulates span durations for
:func:`repro.scale.telemetry.phase_breakdown`.  With a ``trace_dir``, each
worker also appends its raw spans to ``worker-<pid>.jsonl``.  When the
parent telemetry carries an event log (:mod:`repro.scale.obs`), workers
collect their units' structured events locally and ship them home with
each outcome; the parent flushes batches into its log strictly in unit
order, so the merged event stream — and any detector verdicts derived
from it — is byte-identical to the serial run's for any worker count.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import multiprocessing
import os
import pickle
import signal
import time
import zlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import WorkloadError
from .population import ClientPopulation
from .telemetry import MetricsRegistry, Telemetry


# ---------------------------------------------------------------------------
# The campaign-unit contract
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignUnit:
    """One independent work item of a campaign, fully specified up front.

    Units are picklable by construction (the rng transform is a frozen
    dataclass or a module-level function, never a closure), so the same
    spec can run in-process or in a worker.  ``index`` is the unit's
    position in the campaign's canonical order — the merge order, the
    checkpoint key, and the tie that makes completion order irrelevant.
    """

    index: int
    #: Sweep-point identity (scenario name, grid tuple, ``None`` for E14).
    point: object
    replica: int
    label: str
    event_seed: Optional[int] = None
    rng_transform: object = None


@dataclass
class CampaignProgress:
    """One run's progress: the engine writes it; ``get_current_state()`` and
    a mounted monitor read it."""

    completed: int = 0
    #: The unit in flight (in-process) or last merged (pooled); ``None`` idle.
    current: Optional[CampaignUnit] = None
    #: Pool workers' span durations by phase name (empty for in-process runs).
    phase_durations: Dict[str, List[float]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared-memory population pack (not used by the engine)
# ---------------------------------------------------------------------------


class SharedPopulationPack:
    """One population's arrays in POSIX shared memory, attachable by name.

    The engine does not use this class — pool workers take the prepared
    runner as it is (module docstring, *Inputs*); it stays for the
    benchmark suite's ``parallel.shared_pack_*`` probe.  ``create`` packs a
    population's arrays (including the sorted-ring cache, so an attacher
    skips the O(n log n) sort); ``attach`` reconstructs a zero-copy
    :class:`ClientPopulation` view in another process.  The creator owns
    the segments: it must ``close()`` and ``unlink()`` them in a ``finally``.
    """

    def __init__(self, segments: Dict[str, shared_memory.SharedMemory],
                 manifest: Dict[str, object]) -> None:
        self._segments = segments
        self.manifest = manifest

    @classmethod
    def create(cls, population: ClientPopulation) -> "SharedPopulationPack":
        sorted_positions, sorted_region_class = population.ring_sorted()
        arrays = {
            "class_index": population.class_index,
            "region_index": population.region_index,
            "ring_positions": population.ring_positions,
            "ring_sorted_positions": sorted_positions,
            "ring_sorted_region_class": sorted_region_class,
        }
        segments: Dict[str, shared_memory.SharedMemory] = {}
        specs: Dict[str, Dict[str, object]] = {}
        try:
            for key, array in arrays.items():
                array = np.ascontiguousarray(array)
                segment = shared_memory.SharedMemory(create=True,
                                                     size=array.nbytes)
                view = np.ndarray(array.shape, dtype=array.dtype,
                                  buffer=segment.buf)
                view[:] = array
                segments[key] = segment
                specs[key] = {"name": segment.name,
                              "dtype": str(array.dtype),
                              "shape": tuple(array.shape)}
        except BaseException:
            for segment in segments.values():
                segment.close()
                segment.unlink()
            raise
        manifest = {
            "arrays": specs,
            "mix": population.mix,
            "regions": population.regions,
            "seed": population.seed,
        }
        return cls(segments, manifest)

    @property
    def nbytes(self) -> int:
        """Total shared bytes."""
        return sum(segment.size for segment in self._segments.values())

    @staticmethod
    def attach(manifest: Dict[str, object],
               ) -> Tuple[ClientPopulation, List[shared_memory.SharedMemory]]:
        """A population view over the creator's segments.

        Returns the population and the open segments; the caller must keep
        the segments referenced for the arrays' lifetime and ``close()``
        them when done.
        """
        segments: List[shared_memory.SharedMemory] = []
        views: Dict[str, np.ndarray] = {}
        for key, spec in manifest["arrays"].items():
            segment = shared_memory.SharedMemory(name=spec["name"])
            segments.append(segment)
            views[key] = np.ndarray(tuple(spec["shape"]),
                                    dtype=np.dtype(spec["dtype"]),
                                    buffer=segment.buf)
        population = ClientPopulation.from_arrays(
            mix=manifest["mix"],
            regions=manifest["regions"],
            seed=manifest["seed"],
            class_index=views["class_index"],
            region_index=views["region_index"],
            ring_positions=views["ring_positions"],
            ring_sorted=(views["ring_sorted_positions"],
                         views["ring_sorted_region_class"]),
        )
        return population, segments

    def close(self) -> None:
        for segment in self._segments.values():
            segment.close()

    def unlink(self) -> None:
        for segment in self._segments.values():
            try:
                segment.unlink()
            except FileNotFoundError:
                pass


# ---------------------------------------------------------------------------
# The checkpointed run table
# ---------------------------------------------------------------------------


def _atomic_write_json(path: Path, payload: Dict[str, object]) -> None:
    """Write JSON so readers only ever see absent or complete files."""
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


class RunTable:
    """A directory of per-unit checkpoint records with atomic appends.

    Layout: ``header.json`` identifies the campaign (run id, unit count,
    format version); each completed unit writes ``unit-<index>.json``
    carrying its pickled outcome (zlib + base64).  Every write goes through
    a temp file and ``os.replace``, so a SIGKILL mid-write leaves either no
    record or a complete one — never a torn file.  O(1) work per completed
    unit; resuming scans the directory once.
    """

    VERSION = 1

    def __init__(self, directory: Path, header: Dict[str, object]) -> None:
        self.directory = Path(directory)
        self.header = header

    @classmethod
    def open(cls, directory, *, run_id: str, total_units: int) -> "RunTable":
        """Create or re-open a run table, validating campaign identity."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        header = {"version": cls.VERSION, "run_id": run_id,
                  "total_units": int(total_units)}
        header_path = directory / "header.json"
        if header_path.exists():
            existing = json.loads(header_path.read_text())
            if existing != header:
                raise WorkloadError(
                    f"checkpoint at {directory} belongs to a different "
                    f"campaign (found {existing}, expected {header}); "
                    f"use a fresh checkpoint directory"
                )
        else:
            _atomic_write_json(header_path, header)
        return cls(directory, header)

    def unit_path(self, index: int) -> Path:
        return self.directory / f"unit-{index:05d}.json"

    def record_outcome(self, unit: CampaignUnit, outcome: object) -> None:
        """Checkpoint one completed unit (atomic; replaces any failure mark)."""
        payload = base64.b64encode(zlib.compress(
            pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        )).decode("ascii")
        _atomic_write_json(self.unit_path(unit.index), {
            "index": unit.index,
            "label": unit.label,
            "status": "ok",
            "payload": payload,
        })

    def record_failure(self, unit: CampaignUnit, error: str) -> None:
        """Mark one unit failed so the failure survives the process."""
        _atomic_write_json(self.unit_path(unit.index), {
            "index": unit.index,
            "label": unit.label,
            "status": "failed",
            "error": error,
        })

    def completed_outcomes(self) -> Dict[int, object]:
        """Outcomes of every cleanly completed unit, by index.

        Records that cannot be read back (truncated by outside interference
        or hand-edited) are treated as not-completed — the unit simply re-runs
        — so a damaged checkpoint degrades to extra work, never to a crash
        or a wrong merge.
        """
        out: Dict[int, object] = {}
        for path in sorted(self.directory.glob("unit-*.json")):
            try:
                record = json.loads(path.read_text())
                if record.get("status") != "ok":
                    continue
                outcome = pickle.loads(zlib.decompress(
                    base64.b64decode(record["payload"])))
            except Exception:
                continue
            out[int(record["index"])] = outcome
        return out

    def failed_units(self) -> Dict[int, str]:
        """Error strings of units whose last attempt failed, by index."""
        out: Dict[int, str] = {}
        for path in sorted(self.directory.glob("unit-*.json")):
            try:
                record = json.loads(path.read_text())
            except Exception:
                continue
            if record.get("status") == "failed":
                out[int(record["index"])] = str(record.get("error", ""))
        return out


# ---------------------------------------------------------------------------
# Canonical result bytes (the equivalence-gate currency)
# ---------------------------------------------------------------------------

#: Result fields that reflect the machine/run, not the simulation.
_WALL_FIELDS = frozenset({
    "started_at", "completed_at", "duration_seconds", "wall_seconds",
    "solve_seconds", "solve_seconds_total", "report",
})


def _canonical(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if field.name not in _WALL_FIELDS
        }
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return [_canonical(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def canonical_result_bytes(result: object) -> bytes:
    """A campaign result as deterministic bytes, wall-clock fields removed.

    Walks dataclasses/dicts/arrays into sorted-key JSON, dropping the
    fields that legitimately differ between two runs of the same seed
    (timestamps, wall durations, and the rendered report, which embeds
    wall columns).  Two results are simulation-identical iff their
    canonical bytes are equal — the byte-equality the parallel-equivalence
    CI gate compares.
    """
    return json.dumps(_canonical(result), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------------------
# Worker-side plumbing
# ---------------------------------------------------------------------------

#: Per-worker state installed by the pool initializer.
_WORKER: Optional[Dict[str, object]] = None


def _run_unit_logged(runner, unit: CampaignUnit) -> object:
    """``run_unit`` inside its lifecycle events (in-process loop and workers alike)."""
    telemetry = runner.telemetry
    telemetry.emit("unit_started", unit=unit.index, label=unit.label,
                   replica=unit.replica)
    outcome = runner.run_unit(unit)
    telemetry.emit("unit_complete", unit=unit.index, label=unit.label)
    return outcome


def _worker_init(runner, trace_dir: Optional[str],
                 collect_events: bool = False,
                 heartbeat_queue=None) -> None:
    """Install the campaign in a worker, as the parent prepared it, under a
    fresh telemetry.

    Workers ignore SIGINT so an interrupt lands only in the parent, which
    checkpoints and tears the pool down; the worker's telemetry always
    traces (spans are drained per unit and shipped home as durations) and
    always carries a registry (per-unit deltas merge into the campaign's).
    When the parent campaign carries an event log, ``collect_events``
    attaches a worker-local log whose per-unit batches ship home with each
    outcome and fan into the parent stream in unit order.
    ``heartbeat_queue`` (present only when a monitor is attached) is the
    out-of-band liveness channel: coarse ``unit_heartbeat`` records go
    straight to the parent's monitor and never touch the canonical log.
    """
    global _WORKER
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    runner.telemetry = Telemetry(trace=True, events=collect_events)
    _WORKER = {
        "runner": runner,
        "trace_dir": Path(trace_dir) if trace_dir else None,
        "heartbeat_queue": heartbeat_queue,
    }


def _worker_heartbeat(unit: CampaignUnit, phase: str) -> None:
    """Best-effort liveness record; a heartbeat may never fail a unit.

    The payload deliberately carries wall-clock and the worker PID — it
    is quarantined on the monitor side (``/progress`` and ``/stream``
    only) and never merged into the canonical event stream, which is how
    the byte-identity contract survives the monitor being attached.
    """
    heartbeat_queue = _WORKER.get("heartbeat_queue")
    if heartbeat_queue is None:
        return
    try:
        heartbeat_queue.put({
            "kind": "unit_heartbeat",
            "unit": unit.index,
            "label": unit.label,
            "replica": unit.replica,
            "phase": phase,
            "pid": os.getpid(),
            "wall_time": time.time(),
        })
    except Exception:
        pass


def _worker_run_unit(unit: CampaignUnit):
    """Run one unit here; returns (index, outcome, delta, spans, events)."""
    runner = _WORKER["runner"]
    trace_dir = _WORKER["trace_dir"]
    telemetry = runner.telemetry
    _worker_heartbeat(unit, "started")
    before = telemetry.metrics.as_dict()
    outcome = _run_unit_logged(runner, unit)
    _worker_heartbeat(unit, "complete")
    delta = MetricsRegistry.snapshot_delta(before, telemetry.metrics.as_dict())
    tracer = telemetry.tracer
    spans = [(record.name, record.dur_s) for record in tracer.spans]
    if trace_dir is not None:
        span_file = trace_dir / f"worker-{os.getpid()}.jsonl"
        with open(span_file, "a") as handle:
            for record in tracer.spans:
                handle.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
    tracer.spans.clear()
    # Sequence numbers are parent-assigned at fan-in, so only the raw
    # (kind, payload) pairs travel home.
    events = (telemetry.events.drain_raw()
              if telemetry.events is not None else [])
    return unit.index, outcome, delta, spans, events


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class ProcessPoolCampaignExecutor:
    """The campaign engine: one lifecycle, in this process or across a pool.

    prepare → ``unit_specs`` → campaign span → ``campaign_started`` →
    restore checkpointed outcomes → dispatch the pending units → merge in
    unit order → ``campaign_complete``.  With ``n_workers=1`` the units run
    in this process (no pool): that is every runner's
    ``run()`` and, with a ``checkpoint_dir``, the resume-capable serial
    mode.  More workers change where units run and nothing else — see the
    module docstring for the determinism contract.  The engine owns
    progress and the lifecycle events, and touches only the public names
    of :class:`repro.scale.runner.CampaignRunner`.

    Sizing ``n_workers``: units are CPU-bound numpy loops, so
    ``os.cpu_count()`` (the default) is the ceiling; past the number of
    *physical* cores the return is marginal.  Campaigns shorter than a few
    hundred milliseconds per unit amortize pool startup poorly — keep them
    serial.
    """

    def __init__(self, runner, *, n_workers: Optional[int] = None,
                 checkpoint_dir=None, trace_dir=None, monitor=None) -> None:
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if int(n_workers) < 1:
            raise WorkloadError("the executor needs at least one worker")
        self.runner = runner
        self.n_workers = int(n_workers)
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.trace_dir = Path(trace_dir) if trace_dir else None
        #: An attached :class:`repro.scale.monitor.MonitorServer` (or
        #: ``None``).  Purely observational: it reads the runner's
        #: telemetry and receives out-of-band worker heartbeats, so the
        #: campaign's numbers and canonical event bytes are identical
        #: with or without it.
        self.monitor = monitor
        self.units_resumed = 0

    @property
    def phase_durations(self) -> Dict[str, List[float]]:
        """The last run's worker span durations by phase name."""
        return self.runner.progress.phase_durations

    def run(self):
        """Run (or resume) the campaign and return its merged result."""
        runner = self.runner
        telemetry = runner.telemetry
        started_at = time.time()
        if self.monitor is not None:
            # Mount (idempotent) and start serving before the first unit.
            self.monitor.mount(telemetry, runner=runner)
            self.monitor.start()
        progress = runner.progress = CampaignProgress()
        self.units_resumed = 0
        units = runner.unit_specs()
        table: Optional[RunTable] = None
        restored: Dict[int, object] = {}
        if self.checkpoint_dir is not None:
            table = RunTable.open(self.checkpoint_dir, run_id=runner.run_id,
                                  total_units=len(units))
            restored = table.completed_outcomes()
        outcomes: List[Optional[object]] = [None] * len(units)
        campaign_span = telemetry.span(
            "campaign", experiment=runner.experiment_id,
            **{runner.unit_noun: len(units)})
        with campaign_span:
            runner.prepare()
            runner.begin_campaign()
            telemetry.emit("campaign_started",
                           experiment=runner.experiment_name, units=len(units))
            telemetry.set_gauge("parallel.n_workers", self.n_workers)
            for index, outcome in restored.items():
                if 0 <= index < len(units) and outcomes[index] is None:
                    outcomes[index] = outcome
                    telemetry.inc("parallel.units_resumed")
                    self.units_resumed += 1
                    self._unit_done()
            pending = [unit for unit in units if outcomes[unit.index] is None]
            if pending:
                if self.n_workers == 1:
                    self._run_in_process(pending, outcomes, table)
                else:
                    self._run_pool(pending, outcomes, table)
        progress.current = None
        result = runner.merge_units(outcomes, started_at=started_at,
                                    duration_seconds=campaign_span.seconds)
        telemetry.emit("campaign_complete",
                       experiment=runner.experiment_name, units=len(units))
        return result

    def _unit_done(self) -> None:
        """Count a unit as soon as it is simulated or restored, ahead of its checkpoint."""
        runner = self.runner
        runner.telemetry.inc(runner.progress_counter)
        runner.progress.completed += 1

    # -- in-process path (``run()``, and resume-only) ---------------------------------

    def _run_in_process(self, pending: List[CampaignUnit],
                        outcomes: List[Optional[object]],
                        table: Optional[RunTable]) -> None:
        runner = self.runner
        for unit in pending:
            runner.progress.current = unit
            try:
                outcome = _run_unit_logged(runner, unit)
            except Exception as exc:
                # KeyboardInterrupt is not an Exception: it propagates
                # untouched, with completed units already checkpointed.
                self._mark_failed(unit, table, exc)
                raise WorkloadError(
                    f"campaign unit {unit.label!r} failed: {exc}"
                ) from exc
            outcomes[unit.index] = outcome
            self._unit_done()
            if table is not None:
                table.record_outcome(unit, outcome)

    # -- pooled path ------------------------------------------------------------------

    def _run_pool(self, pending: List[CampaignUnit],
                  outcomes: List[Optional[object]],
                  table: Optional[RunTable]) -> None:
        runner = self.runner
        telemetry = runner.telemetry
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        # fork hands workers the prepared runner copy-on-write (cheap start,
        # no pickling); spawn is the portable fallback and pickles it whole
        # (the runners' __getstate__ path), one population per worker.
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        # Pool initargs reach a worker at process start — inherited under
        # fork, pickled while spawning otherwise — which is exactly when a
        # multiprocessing queue may cross.
        heartbeat_queue = context.Queue() if self.monitor is not None else None
        pool = ProcessPoolExecutor(
            max_workers=min(self.n_workers, len(pending)),
            mp_context=context,
            initializer=_worker_init,
            initargs=(runner,
                      str(self.trace_dir) if self.trace_dir else None,
                      telemetry.events is not None,
                      heartbeat_queue),
        )
        if self.monitor is not None:
            self.monitor.watch_heartbeats(heartbeat_queue)
        # Worker event batches arrive in completion order but fan into the
        # parent log strictly in unit order: each batch is buffered until
        # every earlier pending unit's batch has been flushed, so the merged
        # stream is byte-identical to the serial one for any worker count.
        elog = telemetry.events
        phase_durations = runner.progress.phase_durations
        event_batches: Dict[int, List] = {}
        flush_order = [unit.index for unit in pending]
        flush_pos = 0
        try:
            futures = {pool.submit(_worker_run_unit, unit): unit
                       for unit in pending}
            for future in as_completed(futures):
                unit = futures[future]
                try:
                    index, outcome, delta, spans, events = future.result()
                except BrokenProcessPool as exc:
                    raise WorkloadError(
                        f"worker pool died while campaign unit "
                        f"{unit.label!r} was in flight: {exc}"
                    ) from exc
                except Exception as exc:
                    self._mark_failed(unit, table, exc)
                    raise WorkloadError(
                        f"campaign unit {unit.label!r} failed in a "
                        f"worker: {exc}"
                    ) from exc
                outcomes[index] = outcome
                if telemetry.metrics is not None:
                    telemetry.metrics.merge_snapshot(delta)
                for name, duration in spans:
                    phase_durations.setdefault(name, []).append(duration)
                if elog is not None:
                    event_batches[index] = events
                    while (flush_pos < len(flush_order)
                           and flush_order[flush_pos] in event_batches):
                        elog.extend_raw(
                            event_batches.pop(flush_order[flush_pos]))
                        flush_pos += 1
                runner.progress.current = unit
                self._unit_done()
                if table is not None:
                    table.record_outcome(unit, outcome)
            pool.shutdown(wait=True)
        except BaseException:
            # Interrupt or failure: drop queued units and leave running
            # ones to drain — completed work is already checkpointed.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        finally:
            if self.monitor is not None:
                # Stops the drainer once it has read what is queued.
                self.monitor.unwatch_heartbeats()

    def _mark_failed(self, unit: CampaignUnit, table: Optional[RunTable],
                     exc: Exception) -> None:
        self.runner.telemetry.inc("parallel.units_failed")
        if table is not None:
            table.record_failure(unit, f"{type(exc).__name__}: {exc}")


__all__ = [
    "CampaignProgress",
    "CampaignUnit",
    "ProcessPoolCampaignExecutor",
    "RunTable",
    "SharedPopulationPack",
    "canonical_result_bytes",
]
