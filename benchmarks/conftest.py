"""Benchmark harness configuration.

Every benchmark prints the experiment's report table (the rows EXPERIMENTS.md
quotes) in addition to timing the underlying operation with pytest-benchmark.
Scenario-level experiments are timed with a single round — they are simulation
runs, not microbenchmarks — while the fast-path experiments (E1–E3) use real
repeated timing.  The timings are for the reader of one run: nothing here
writes or checks an artifact.  To compare two commits, use ``benchmarks/suite``.
"""

from __future__ import annotations

import pytest


def emit(report) -> None:
    """Print an ExperimentReport so it lands in the captured benchmark output."""
    print()
    print(report.render())


@pytest.fixture
def once(benchmark):
    """Run a whole-experiment callable exactly once under the benchmark timer."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
