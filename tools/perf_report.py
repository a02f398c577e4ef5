#!/usr/bin/env python3
"""Telemetry smoke: run one catalogue scenario traced, print its phase table.

Builds and runs one named catalogue scenario with tracing telemetry, prints
the per-phase breakdown (count, total wall, P50/P95/max), and optionally
exports the raw trace (``--trace out.jsonl``) and the metrics registry
(``--prom out.prom``, Prometheus text exposition).  Exits non-zero for an
unknown scenario or when the run records no phases — the CI telemetry
smoke step.  To compare two commits, use ``benchmarks/suite`` instead.

Run from the repo root::

    PYTHONPATH=src python tools/perf_report.py --scenario flash_crowd \
        --clients 5000 --trace trace.jsonl --prom metrics.prom
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.scale import (  # noqa: E402  (path bootstrap above)
    Telemetry,
    format_phase_table,
    phase_breakdown,
    run_scenario,
    scenario_names,
)


def run_smoke(args) -> int:
    """Run one catalogue scenario traced; print/export its phase table."""
    if args.scenario not in scenario_names():
        print(f"unknown scenario {args.scenario!r}; one of: "
              f"{', '.join(scenario_names())}", file=sys.stderr)
        return 1
    telemetry = Telemetry()
    result = run_scenario(args.scenario, clients=args.clients,
                          seed=args.seed, telemetry=telemetry)
    phases = phase_breakdown(telemetry)
    print(format_phase_table(
        phases,
        title=(f"{args.scenario} ({result.n_clients} clients, "
               f"{result.epochs} epochs, {result.wall_seconds * 1e3:.1f} ms)"),
    ))
    if args.trace:
        telemetry.tracer.write_jsonl(args.trace)
        print(f"trace: {args.trace} ({len(telemetry.tracer.spans)} spans)")
    if args.prom:
        with open(args.prom, "w") as handle:
            handle.write(telemetry.metrics.prometheus_text())
        print(f"metrics: {args.prom}")
    if not phases:
        print("scenario run recorded no phases", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True,
                        help="the catalogue scenario to run traced")
    parser.add_argument("--clients", type=int, default=5000,
                        help="population size for --scenario (default 5000)")
    parser.add_argument("--seed", type=int, default=2006,
                        help="scenario seed (default 2006)")
    parser.add_argument("--trace", help="write the span trace as JSONL here")
    parser.add_argument("--prom", help="write the metrics registry in "
                        "Prometheus text format here")
    return run_smoke(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
