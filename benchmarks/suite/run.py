#!/usr/bin/env python3
"""The benchmark suite: one command, seven workloads, a layer table per run.

Whole suite, fixed rounds, timed pass then traced pass for every workload::

    PYTHONPATH=src python benchmarks/suite/run.py [--seed 81] [--out FILE]
                                                  [--trace-out DIR]

One workload (what the suite runs as a child, one at a time, and what the
driver calls)::

    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the timed pass only (telemetry off) and ends with the
end-to-end metrics; ``--trace 1`` runs a short timed pass, the traced pass and
the layer probes, and ends with the per-layer metrics.  Without ``--trace``
both passes run.  ``--seconds`` replaces the fixed round count by a time
budget.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is non-zero
when any correctness check failed.  See README.md beside this file.

The process the user starts measures nothing: it runs each workload in a
child (``--in-process``), adopts whatever that child leaves behind — the
``multiprocessing`` resource tracker outlives the process that made a shared
memory segment — and returns only when every descendant has ended.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()   # before the heavy imports: setup_s starts here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

SUITE_DIR = Path(__file__).resolve().parent
REPO = SUITE_DIR.parent.parent
sys.path.insert(0, str(REPO / "src"))

import catalogue as cat  # noqa: E402
import harness  # noqa: E402

#: Extra set-ups are measured in child processes (imports and the first-run
#: penalty only exist once per process).  A set-up is re-sampled while the
#: extra samples fit this budget; one that costs more is seconds long and
#: steady enough on its single sample.
_SETUP_RESAMPLE_BUDGET_S = 4.0
_SETUP_RESAMPLE_MAX = 2
#: Shares of ``--seconds`` the timed and traced passes get under ``--trace 1``.
_TRACE_MODE_SHARE = 0.35
#: How long a finished workload's leftovers get to end on their own.
_ORPHAN_GRACE_S = 10.0


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=cat.ALL,
                        help="run one workload in this process (default: all, "
                             "one child process each)")
    parser.add_argument("--seed", type=int, default=81)
    parser.add_argument("--seconds", type=float,
                        help="time budget of the measuring passes "
                             "(default: the fixed round counts)")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: timed pass only; 1: traced pass and probes "
                             "(default: both)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every input; selftest only")
    parser.add_argument("--out", help="write the results as JSON")
    parser.add_argument("--trace-out", help="directory for span dumps (JSONL)")
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- one workload, this process --------------------------------------------------------------


def _resample_setup(args: argparse.Namespace, own_setup_s: float) -> List[float]:
    """Set up again in fresh child processes; returns their ``setup_s``."""
    extra = min(_SETUP_RESAMPLE_MAX, int(_SETUP_RESAMPLE_BUDGET_S // own_setup_s))
    samples = []
    for _ in range(extra):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--scale", args.scale, "--in-process",
             "--setup-only"],
            capture_output=True, text=True, timeout=170)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stdout}\n{child.stderr}")
        samples.append(float(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def _summary(values: List[float], unit: str) -> Dict[str, object]:
    q1, q3 = harness.quartiles(values)
    return {"value": harness.median(values), "unit": unit, "n": len(values),
            "q1": q1, "q3": q3, "samples": list(values)}


def run_workload(args: argparse.Namespace) -> Dict[str, object]:
    """Set up, measure and check one workload; returns its result document."""
    from workloads import SCALES, WORKLOADS   # numpy and the program: part of set-up

    scale = SCALES[args.scale]
    name = args.workload
    log = harness.RoundLog()
    workload = WORKLOADS[name](args.seed, scale, log)
    traced = args.trace != "0"

    # Set-up: the imports above, then one untimed warm-up round (first-run
    # allocator/page-fault and pool start-up costs land here, not in a sample).
    with log.round():
        workload.round(0)
    log.samples.clear()
    setup_samples = [time.perf_counter() - _PROCESS_START]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_samples[0]}))
        raise SystemExit(0 if log.correct else 1)
    print(f"[{name}] seed {args.seed}, scale {scale.name}: set-up "
          f"{setup_samples[0]:.3f} s (imports + warm-up round)", flush=True)

    # Timed pass, telemetry off (a traced run needs untraced walls to compare).
    budget = args.seconds
    if budget is not None and args.trace == "1":
        budget *= _TRACE_MODE_SHARE
    # On a budget with only the driver's end-to-end metrics to report, all of
    # it goes to the arm they come from.
    lean = budget is not None and args.trace == "0"
    timed_round = workload.lean_round if lean else workload.round
    for index in harness.repeat(cat.rounds(scale.name)[name], budget):
        with log.round():
            timed_round(index + 1)
    peak_rss = harness.peak_rss_mb()
    if args.trace != "1":
        setup_samples += _resample_setup(args, setup_samples[0])

    # Traced pass and probes.
    layers: Dict[str, float] = {}
    if traced:
        layers = workload.traced_pass(
            scale.traced_rounds,
            None if args.seconds is None else args.seconds * _TRACE_MODE_SHARE)
        prober = harness.Prober(workload.harness, name, scale.probe_calls)
        with log.round():
            layers.update(workload.probe(prober))

    # Reduce.
    samples = dict(log.samples)
    samples["setup_s"] = setup_samples
    samples["peak_rss_mb"] = [peak_rss]
    samples["ops_failed_share"] = [log.failed / log.attempted]
    end_to_end = {m.name: _summary(samples[m.name], m.unit)
                  for m in cat.declared(name, cat.END_TO_END)
                  if m.name in samples or not lean}   # lean rounds skip some
    end_to_end["ops_failed_share"]["n"] = log.attempted
    per_layer = {}
    if traced:
        for metric in cat.declared(name, cat.PER_LAYER):
            if metric.name not in layers:
                log.check(False, f"layer metric {metric.name} was not measured")
                continue
            per_layer[metric.name] = {"value": float(layers[metric.name]),
                                      "unit": metric.unit}
    result = {
        "workload": name, "seed": args.seed, "scale": scale.name,
        "correct": log.correct, "attempted": log.attempted, "failed": log.failed,
        "failures": log.failures,
        "result_sha256": workload.result_sha256, "digests": dict(log.digests),
        "end_to_end": end_to_end, "per_layer": per_layer,
        "counters": {counter: values[0] for counter, values in log.counters.items()},
        "layer_table": {"rows": workload.layer_means,
                        "traced_wall_s": workload.traced_wall_s},
    }
    _print_workload(result)
    if args.trace_out:
        _write_traces(Path(args.trace_out), workload)
    return result


def _print_workload(result: Dict[str, object]) -> None:
    name = result["workload"]
    print(f"[{name}] end-to-end (timed pass, telemetry off; median [q1, q3] over n)")
    for metric, row in result["end_to_end"].items():
        print(f"  {metric:<34} {row['value']:>14.6g} {row['unit']:<6} "
              f"[{row['q1']:.6g}, {row['q3']:.6g}] n={row['n']}")
    if result["per_layer"]:
        print(f"[{name}] per-layer (traced pass and probes)")
        for metric, row in result["per_layer"].items():
            print(f"  {metric:<34} {row['value']:>14.6g} {row['unit']}")
        table = result["layer_table"]
        print(harness.format_layer_table(
            f"[{name}] layer table (mean self time per traced round)",
            table["rows"], table["traced_wall_s"]))
    print(f"[{name}] result_sha256 {result['result_sha256']}")
    print(f"[{name}] rounds attempted {result['attempted']}, failed {result['failed']}"
          f" -> {'ok' if result['correct'] else 'FAILED'}", flush=True)


def _write_traces(directory: Path, workload) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for index, tracer in enumerate(workload.round_traces):
        tracer.write_jsonl(directory / f"{workload.name}.round{index}.jsonl")
    workload.harness.tracer.write_jsonl(directory / f"{workload.name}.probes.jsonl")


def contract_line(result: Dict[str, object], trace: Optional[str]) -> str:
    """The driver's last line: every end-to-end (``--trace 0``) or every
    per-layer (``--trace 1``) metric of BENCHMARK.json; a layer this workload
    never enters reads 0.  Without ``--trace`` both sets are printed."""
    measured = {**result["end_to_end"], **result["per_layer"]}
    wanted = (cat.driver_metrics(False) + cat.driver_metrics(True) if trace is None
              else cat.driver_metrics(trace == "1"))
    metrics = {}
    for metric in wanted:
        row = measured.get(metric.name)
        metrics[metric.name] = {"value": row["value"] if row else 0,
                                "unit": metric.unit}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# -- supervision: nothing this command starts outlives it ------------------------------------


def _supervise(command: List[str]) -> int:
    """Run ``command`` in a process group of its own; return its exit code
    once it and everything it started have ended."""
    child = subprocess.Popen(command, start_new_session=True)
    try:
        code = child.wait()
        harness.children_end(_ORPHAN_GRACE_S)
        return code
    finally:
        # Normally nothing is left.  If this process was interrupted, or a
        # leftover would not end, ask as Ctrl-C would (the program unlinks its
        # shared memory on that path), then insist.
        for signum in (signal.SIGINT, signal.SIGKILL):
            if harness.children_end(0.0):
                break
            try:
                os.killpg(child.pid, signum)
            except ProcessLookupError:
                pass
            harness.children_end(_ORPHAN_GRACE_S)


# -- the whole suite, one child per workload -------------------------------------------------


def run_suite(args: argparse.Namespace) -> Dict[str, object]:
    """Run every workload in its own process, one at a time.

    A process per workload is what makes ``setup_s`` (imports included) and
    ``peak_rss_mb`` (a process-lifetime maximum) mean something per workload.
    """
    harness.TMP_ROOT.mkdir(parents=True, exist_ok=True)
    results: Dict[str, object] = {}
    exit_codes: Dict[str, int] = {}
    for name in cat.ALL:
        out = harness.TMP_ROOT / f"suite-{name}-{time.time_ns()}.json"
        command = [sys.executable, str(Path(__file__).resolve()), "--in-process",
                   "--workload", name, "--seed", str(args.seed), "--scale", args.scale,
                   "--out", str(out)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.trace is not None:
            command += ["--trace", args.trace]
        if args.trace_out:
            command += ["--trace-out", args.trace_out]
        try:
            exit_codes[name] = _supervise(command)
            if out.exists():
                results[name] = json.loads(out.read_text())
        finally:
            out.unlink(missing_ok=True)
    document = {
        "schema": 1,
        "provenance": harness.provenance(args.seed, args.scale, cat.rounds(args.scale)),
        "workloads": results,
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    missing = [name for name in cat.ALL if name not in results]
    correct = (not missing and all(code == 0 for code in exit_codes.values())
               and all(r["correct"] for r in results.values()))
    print("suite summary")
    for name, result in results.items():
        wall = result["end_to_end"]["campaign_wall_s"]
        print(f"  {name:<20} campaign_wall_s {wall['value']:>9.4f} s  n={wall['n']:<3} "
              f"rss {result['end_to_end']['peak_rss_mb']['value']:>7.1f} mb  "
              f"{'ok' if result['correct'] else 'FAILED'}")
    for name in missing:
        print(f"  {name:<20} produced no result (exit {exit_codes.get(name)})")
    document["summary"] = {"correct": correct, "attempted": max(attempted, 1),
                           "failed": failed + len(missing)}
    return document


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (REPO / "src" / "repro").is_dir():
        raise SystemExit(f"run.py: the program under test is missing ({REPO / 'src'})")
    if args.in_process:
        result = run_workload(args)
        if args.out:
            Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(contract_line(result, args.trace))
        return 0 if result["correct"] else 1
    harness.adopt_orphans()
    # SIGTERM becomes an exception, so that path out waits for them too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload is None:
        document = run_suite(args)
        if args.out:
            Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        summary = document["summary"]
        print(json.dumps({**summary, "metrics": {}}))
        return 0 if summary["correct"] else 1
    return _supervise([sys.executable, str(Path(__file__).resolve()), "--in-process",
                       *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
