#!/usr/bin/env python3
"""The parallel-equivalence gate: byte-identity and interrupted resume.

Two modes, both exercised by the ``parallel-equivalence`` CI job:

``equivalence``
    Runs a tiny E12, E13, E14, E15 and E16 campaign with ``run()``, at
    ``n_workers=1``, and at ``n_workers=4``, and fails on any byte
    difference between their canonical aggregate tables (wall-clock fields
    excluded — everything else must match exactly).  One more arm runs E14
    at ``n_workers=2`` with ``fork`` masked out of the start methods, so
    the pickled-runner (``spawn``) path is executed too, and gates what
    that path ships: the prepared runner's pickle must stay within
    17 B/client + 2 MB (the three client columns and the template; no
    sorted copy of the population).

``resume``
    Launches a checkpointed frontier sweep in a child process, SIGINTs it
    mid-run, and asserts that (a) the interrupt left a partial checkpoint,
    (b) re-running completes from that checkpoint to a result
    byte-identical to an uninterrupted sweep, and (c) no finished unit was
    re-run (their checkpoint records are bit-for-bit untouched).

Run with:  PYTHONPATH=src python tools/parallel_check.py equivalence
           PYTHONPATH=src python tools/parallel_check.py resume
"""

import argparse
import contextlib
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scale import (  # noqa: E402
    AdversaryCampaignRunner,
    FleetScaleRunner,
    LatencyCampaignRunner,
    StochasticCampaignRunner,
    TimelineCampaignRunner,
    canonical_result_bytes,
    run_churn_slo_frontier,
)

CLIENTS = int(os.environ.get("PARALLEL_CHECK_CLIENTS", "20000"))
SEED = 2006

FRONTIER_KWARGS = dict(
    clients=CLIENTS, epochs=24, replicas=8, seed=SEED,
    targets=(0.85, 0.95),
)


def make_e12():
    return FleetScaleRunner(
        client_counts=(CLIENTS // 20, CLIENTS // 4, CLIENTS), n_sites=8,
        seed=SEED)


def make_e13():
    return TimelineCampaignRunner(
        scenarios=("flash_crowd", "regional_outage", "diurnal_week",
                   "elastic_web_mix"),
        clients=CLIENTS, seed=SEED)


def make_e14():
    return StochasticCampaignRunner(
        clients=CLIENTS, epochs=20, replicas=8, seed=SEED)


def make_e15():
    return LatencyCampaignRunner(
        clients=CLIENTS, epochs=16, replicas=6, seed=SEED)


def make_e16():
    return AdversaryCampaignRunner(
        clients=CLIENTS, epochs=16, replicas_per_point=2, seed=SEED,
        aggressiveness=(0.3, 0.8), sensitivities=(6.0,))


def check_equivalence() -> int:
    failures = 0
    for label, factory in (("E12", make_e12), ("E13", make_e13),
                           ("E14", make_e14), ("E15", make_e15),
                           ("E16", make_e16)):
        serial = canonical_result_bytes(factory().run())
        arms = [(f"n_workers={n_workers}", n_workers, contextlib.nullcontext())
                for n_workers in (1, 4)]
        if label == "E14":
            arms.append(("n_workers=2 with fork masked (spawn, pickled runner)",
                         2, mock.patch.object(
                             multiprocessing, "get_all_start_methods",
                             return_value=["spawn"])))
        for arm, n_workers, start_methods in arms:
            with start_methods:
                candidate = canonical_result_bytes(
                    factory().run_parallel(n_workers=n_workers))
            if candidate == serial:
                print(f"ok: {label} {arm} is byte-identical "
                      f"to serial ({len(serial):,} canonical bytes)")
            else:
                print(f"FAIL: {label} {arm} diverged from "
                      f"the serial result")
                failures += 1
    return failures + check_spawn_payload()


def check_spawn_payload() -> int:
    """What a spawned (or remote) worker is sent: the prepared runner, pickled."""
    runner = make_e14()
    runner.prepare()
    payload = len(pickle.dumps(runner))
    budget = 17 * CLIENTS + (2 << 20)
    verdict = "ok" if payload <= budget else "FAIL"
    print(f"{verdict}: E14 prepared runner pickles to {payload:,} bytes for "
          f"{CLIENTS:,} clients (budget 17 B/client + 2 MB = {budget:,})")
    return int(payload > budget)


def _run_frontier_child(checkpoint: str) -> None:
    """Child entry point: a checkpointed frontier sweep, interruptible."""
    run_churn_slo_frontier(**FRONTIER_KWARGS, n_workers=2,
                           checkpoint_dir=checkpoint)


def check_resume() -> int:
    baseline = canonical_result_bytes(run_churn_slo_frontier(**FRONTIER_KWARGS))
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "frontier"
        child = subprocess.Popen(
            [sys.executable, __file__, "_frontier-child", str(checkpoint)],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve()
                                                 .parent.parent / "src")},
        )
        # wait until at least one unit is checkpointed, then interrupt
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if len(list(checkpoint.glob("*/unit-*.json"))) >= 2:
                break
            if child.poll() is not None:
                print("FAIL: frontier child finished before it could be "
                      "interrupted — enlarge PARALLEL_CHECK_CLIENTS")
                return 1
            time.sleep(0.05)
        child.send_signal(signal.SIGINT)
        child.wait(timeout=120)
        completed = sorted(checkpoint.glob("*/unit-*.json"))
        total_units = FRONTIER_KWARGS["replicas"] * len(FRONTIER_KWARGS["targets"])
        if not completed:
            print("FAIL: SIGINT left no checkpointed units")
            return 1
        if len(completed) >= total_units:
            print("FAIL: child completed every unit before the interrupt — "
                  "nothing left to resume; enlarge PARALLEL_CHECK_CLIENTS")
            return 1
        print(f"interrupted with {len(completed)}/{total_units} units "
              f"checkpointed (child exit {child.returncode})")
        before = {path: path.read_bytes() for path in completed}

        resumed = run_churn_slo_frontier(**FRONTIER_KWARGS, n_workers=2,
                                         checkpoint_dir=checkpoint)
        if canonical_result_bytes(resumed) != baseline:
            print("FAIL: resumed frontier diverged from the uninterrupted run")
            return 1
        rewritten = [str(path) for path, content in before.items()
                     if path.read_bytes() != content]
        if rewritten:
            print(f"FAIL: resume re-ran finished units: {rewritten}")
            return 1
        print(f"ok: resume completed the remaining "
              f"{total_units - len(completed)} units and left all "
              f"{len(completed)} finished records untouched; aggregate "
              f"table byte-identical to the uninterrupted sweep")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode",
                        choices=("equivalence", "resume", "_frontier-child"))
    parser.add_argument("checkpoint", nargs="?")
    args = parser.parse_args()
    if args.mode == "_frontier-child":
        _run_frontier_child(args.checkpoint)
        return 0
    if args.mode == "equivalence":
        return 1 if check_equivalence() else 0
    return check_resume()


if __name__ == "__main__":
    sys.exit(main())
