"""Parallel campaign engine — scaling efficiency and equivalence at scale.

The acceptance configuration farms the E14 campaign (10^6 clients ×
200 epochs × 32 replicas) over 8 workers and must beat the serial run by
at least 3×; machines with fewer than 8 cores (CI smoke runners included)
measure whatever parallelism they have and skip the speedup assertion
rather than fail on hardware they don't own.  ``SCALE_BENCH_CLIENTS``
scales the population down for smoke runs, exactly like the other
campaign benchmarks.  Both arms run traced, so the pooled one also checks
that every worker's replica spans come home with its outcomes.
"""

import os
import time

from repro.scale import (
    ProcessPoolCampaignExecutor,
    StochasticCampaignRunner,
    Telemetry,
    canonical_result_bytes,
)

from conftest import emit

_CLIENTS = int(os.environ.get("SCALE_BENCH_CLIENTS", "1000000"))
_WORKERS = min(int(os.environ.get("SCALE_BENCH_WORKERS", "8")),
               os.cpu_count() or 1)
_SEED = 81


def _campaign():
    return StochasticCampaignRunner(
        clients=_CLIENTS, epochs=200, replicas=32, seed=_SEED,
        telemetry=Telemetry(),
    )


def test_parallel_campaign_scaling(once):
    """8-worker E14 must be >= 3x serial (asserted only on >= 8 cores)."""
    serial_start = time.perf_counter()
    serial_result = _campaign().run()
    serial_s = time.perf_counter() - serial_start

    executor = ProcessPoolCampaignExecutor(_campaign(), n_workers=_WORKERS)
    parallel_start = time.perf_counter()
    parallel_result = once(executor.run)
    parallel_s = time.perf_counter() - parallel_start

    assert canonical_result_bytes(parallel_result) == \
        canonical_result_bytes(serial_result)

    if _WORKERS > 1:
        assert len(executor.phase_durations["replica"]) == 32

    speedup = serial_s / parallel_s
    emit(parallel_result.report)
    print(f"\nparallel scaling: {_WORKERS} workers, "
          f"serial {serial_s:.2f}s -> parallel {parallel_s:.2f}s "
          f"({speedup:.2f}x, {speedup / _WORKERS:.0%} efficiency)")
    if (os.cpu_count() or 1) >= 8 and _WORKERS >= 8:
        assert speedup >= 3.0, (
            f"8-worker campaign only {speedup:.2f}x faster than serial")


def test_parallel_checkpoint_roundtrip(once, tmp_path):
    """A checkpointed run resumes to the identical table with zero re-work."""
    clients = min(_CLIENTS, 50_000)

    def runner():
        return StochasticCampaignRunner(
            clients=clients, epochs=60, replicas=8, seed=_SEED)

    baseline = canonical_result_bytes(runner().run())
    first = ProcessPoolCampaignExecutor(
        runner(), n_workers=_WORKERS, checkpoint_dir=tmp_path / "ck")
    assert canonical_result_bytes(first.run()) == baseline

    resume = ProcessPoolCampaignExecutor(
        runner(), n_workers=_WORKERS, checkpoint_dir=tmp_path / "ck")
    resumed = once(resume.run)
    assert canonical_result_bytes(resumed) == baseline
    assert resume.units_resumed == 8
