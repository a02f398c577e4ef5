#!/usr/bin/env python3
"""A flash crowd rides up, saturates the fleet, and decays — in fluid time.

Two acts:

1. run the catalogue's ``flash_crowd`` scenario (a 6x demand spike in the
   two largest metro regions against a fleet provisioned with 40% headroom)
   and print the epoch-by-epoch story: demand climbing, the fleet pinning at
   its CPU/uplink knees, max-min fairness spreading the pain, and recovery;
2. rerun the same timeline cold (no warm starts) to show what the verified
   warm-start fast path is worth in solver time.

Run with:  PYTHONPATH=src python examples/flash_crowd_timeline.py
(set SCALE_EXAMPLE_CLIENTS to shrink or grow the population; CI smoke uses
a small value).
"""

import os

from repro.analysis.report import format_series
from repro.scale import build_scenario

CLIENTS = int(os.environ.get("SCALE_EXAMPLE_CLIENTS", "200000"))


def main() -> None:
    # 1. The flash crowd, epoch by epoch.
    timeline = build_scenario("flash_crowd", clients=CLIENTS, seed=2006)
    result = timeline.run()
    print(format_series(
        "epoch", [record.epoch for record in result.records], result.series(),
        title=f"flash crowd: {CLIENTS:,} clients, 16 sites, "
              f"{result.epoch_seconds / 60:.0f}-minute epochs",
        max_rows=16,
    ))
    print()
    trough = result.min_delivered_fraction
    worst = int(result.delivered_fraction.argmin())
    print(f"spike trough: epoch {worst} delivered {trough:.1%} of demand "
          f"(peak cpu {result.records[worst].peak_cpu_utilization:.0%}, "
          f"peak uplink {result.records[worst].peak_uplink_utilization:.0%})")
    print(f"untouched epochs stay at 100%: first epoch delivered "
          f"{result.records[0].delivered_fraction:.1%}")
    print(f"whole 48-epoch timeline solved in {result.wall_seconds:.2f}s wall "
          f"({result.fast_fraction:.0%} of epochs skipped the fill; "
          f"{result.warm_fraction:.0%} by reusing the previous allocation)\n")

    # 2. What the warm start buys on the congested spike plateau.
    cold = build_scenario("flash_crowd", clients=CLIENTS, seed=2006)
    cold.warm_start = False
    cold_result = cold.run()
    warm_passes = sum(record.solver_iterations for record in result.records)
    cold_passes = sum(record.solver_iterations for record in cold_result.records)
    print(f"solver work: warm {warm_passes} fill passes "
          f"({result.solve_seconds_total * 1e3:.1f} ms) vs cold {cold_passes} "
          f"({cold_result.solve_seconds_total * 1e3:.1f} ms)")


if __name__ == "__main__":
    main()
