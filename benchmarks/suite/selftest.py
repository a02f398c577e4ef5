#!/usr/bin/env python3
"""Prove the suite's plumbing in under 30 s: every workload, both passes, at
2,000 clients x 8 epochs x 2 replicas x 1 round, then the output schema.

    python benchmarks/suite/selftest.py

Checks that BENCHMARK.json obeys the driver's limits and agrees with
catalogue.py; that every workload emits exactly the metrics it declares, each
with its unit and nothing undeclared; that the last output line carries every
BENCHMARK.json name exactly once (all end-to-end names under ``--trace 0``,
all per-layer names under ``--trace 1``); that layer rows plus
``unattributed_s`` equal the traced wall; and that no process a command
started is left when it returns.  The numbers themselves mean nothing at
this scale.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from typing import Dict, List

import catalogue as cat
from harness import REPO, SPAN_ROWS, SUITE_DIR, TMP_ROOT, adopt_orphans

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_BUDGET_S = 30.0

_failures: List[str] = []


def check(condition: bool, message: str) -> None:
    print(f"  [{'ok' if condition else 'FAIL'}] {message}")
    if not condition:
        _failures.append(message)


def orphans() -> int:
    """Processes the commands run so far left to this one: every one that had
    ended unwaited-for, plus one if any is still running."""
    count = 0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return count
        count += 1
        if pid == 0:
            return count


def check_benchmark_json(doc: Dict[str, object]) -> None:
    """The driver's contract, and agreement with catalogue.py."""
    check(set(doc) == {"command", "paths", "run_seconds", "workloads",
                       "end_to_end", "per_layer"}, "BENCHMARK.json has exactly the six keys")
    check(doc["paths"] == ["benchmarks/suite"], "paths is [benchmarks/suite]")
    check(doc["command"] == ["python3", "benchmarks/suite/run.py"], "command runs run.py")
    check(isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60,
          "run_seconds is a whole number in 1..60")
    workloads, end_to_end, per_layer = doc["workloads"], doc["end_to_end"], doc["per_layer"]
    check(2 <= len(workloads) <= 8 and 1 <= len(end_to_end) <= 16
          and 1 <= len(per_layer) <= 128,
          f"{len(workloads)} workloads / {len(end_to_end)} end-to-end / "
          f"{len(per_layer)} per-layer within 8 / 16 / 128")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in workloads), "each workload is a name and a one-line why")
    check(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
              for m in end_to_end), "each end-to-end metric has a bound <= 0.25")
    check(all(set(m) == {"name", "unit", "better"} for m in per_layer),
          "each per-layer metric has exactly name, unit, better")
    names = [entry["name"] for entry in workloads + end_to_end + per_layer]
    check(len(names) == len(set(names)) and all(_NAME.match(n) for n in names),
          "every name is well-formed and used once")
    check(all(_UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
              for m in end_to_end + per_layer), "every unit and direction is well-formed")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in end_to_end), "setup_s is declared in seconds, lower is better")
    check({w["name"]: w["why"] for w in workloads} == cat.WORKLOADS,
          "workloads and reasons match catalogue.WORKLOADS")
    for listed, trace in ((end_to_end, False), (per_layer, True)):
        expected = [(m.name, m.unit, m.better) for m in cat.driver_metrics(trace)]
        check([(m["name"], m["unit"], m["better"]) for m in listed] == expected,
              f"{'per_layer' if trace else 'end_to_end'} matches catalogue.py "
              f"({len(expected)} metrics)")
    check({m["name"]: m["bound"] for m in end_to_end} == cat.DRIVER_BOUNDS,
          "end-to-end bounds match catalogue.DRIVER_BOUNDS")


def check_workload(name: str, result: Dict[str, object]) -> None:
    for kind in (cat.END_TO_END, cat.PER_LAYER):
        declared = {m.name: m.unit for m in cat.declared(name, kind)}
        emitted = {metric: row["unit"] for metric, row in result[kind].items()}
        check(emitted == declared,
              f"{name}: {len(emitted)} {kind} metrics, each declared, each with its unit")
    check(result["correct"] and result["failed"] == 0, f"{name}: every check passed")
    check(bool(result["result_sha256"]), f"{name}: result_sha256 printed")
    table = result["layer_table"]
    wall = table["traced_wall_s"]
    rows = [row for row in list(SPAN_ROWS.values()) + ["unattributed_s"]
            if row in result[cat.PER_LAYER]]
    total = sum(result[cat.PER_LAYER][row]["value"] for row in rows)
    check(wall > 0 and abs(total - wall) <= 1e-6 * max(wall, 1.0)
          and abs(sum(table["rows"].values()) - wall) <= 1e-6 * max(wall, 1.0),
          f"{name}: layer rows + unattributed_s == traced wall ({total:.6f} s)")


def contract_lines(stdout: str) -> List[Dict[str, object]]:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


def main() -> int:
    started = time.perf_counter()
    adopt_orphans()     # whatever a command leaves behind lands here, see orphans()
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    print("BENCHMARK.json")
    check_benchmark_json(benchmark)

    TMP_ROOT.mkdir(parents=True, exist_ok=True)
    out = TMP_ROOT / f"selftest-{time.time_ns()}.json"
    run = [sys.executable, str(SUITE_DIR / "run.py"), "--scale", "smoke"]
    print("suite at smoke scale")
    try:
        suite = subprocess.run(run + ["--out", str(out)], capture_output=True, text=True)
        check(suite.returncode == 0, "run.py --scale smoke exits 0")
        if suite.returncode != 0:
            print(suite.stdout[-3000:], suite.stderr[-3000:], sep="\n")
        document = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    finally:
        out.unlink(missing_ok=True)
    check(set(document["workloads"]) == set(cat.ALL), "all seven workloads reported")
    for name, result in document["workloads"].items():
        check_workload(name, result)
    check({"git_sha", "python", "numpy", "nproc", "cpu_model", "seed", "rounds"}
          <= set(document.get("provenance", {})), "provenance block is complete")

    every = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    lines = contract_lines(suite.stdout)
    check(len(lines) == len(cat.ALL) + 1, "one result line per workload and one summary")
    check(all(list(line["metrics"]) == every for line in lines[:-1]),
          "each workload's last line carries every BENCHMARK.json name exactly once")
    check(all(set(line) == {"correct", "attempted", "failed", "metrics"}
              and line["attempted"] >= 1 for line in lines),
          "result lines have exactly correct/attempted/failed/metrics")

    print("driver modes")
    for trace, listed in (("0", benchmark["end_to_end"]), ("1", benchmark["per_layer"])):
        child = subprocess.run(
            run + ["--workload", cat.E14, "--seed", "7", "--seconds", "1",
                   "--trace", trace], capture_output=True, text=True)
        last = child.stdout.strip().splitlines()[-1] if child.stdout.strip() else "{}"
        metrics = json.loads(last).get("metrics", {})
        check(child.returncode == 0
              and {k: v["unit"] for k, v in metrics.items()}
              == {m["name"]: m["unit"] for m in listed},
              f"--trace {trace} ends with exactly the {len(listed)} declared metrics")

    # The pool's shared-memory pack starts multiprocessing's resource tracker,
    # which ends only after the process that made it.
    child = subprocess.run(run + ["--workload", cat.POOL, "--seed", "7", "--seconds", "1",
                                  "--trace", "0"], capture_output=True, text=True)
    check(child.returncode == 0, "the pooled workload runs on a budget (lean rounds)")
    check(orphans() == 0, "no command left a process behind, running or unwaited-for")

    elapsed = time.perf_counter() - started
    check(elapsed < _BUDGET_S, f"selftest took {elapsed:.1f} s (< {_BUDGET_S:g} s)")
    check(not any(TMP_ROOT.iterdir()), "nothing left in the suite's scratch directory")
    if _failures:
        print(f"selftest: {len(_failures)} check(s) FAILED")
        return 1
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
