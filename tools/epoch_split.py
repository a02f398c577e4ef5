#!/usr/bin/env python3
"""Per-stage cost of a timeline epoch, reused epochs against solved ones.

Runs one E14, E15 or E16 campaign serially with every stage method of the
timeline's per-run object (``repro.scale.timeline._TimelineRun``) wrapped in
a timer from outside — plus the adversary game's ``step`` and ``observe``,
shown under the stages that call them — and prints the mean microseconds
each stage costs per epoch, split by whether the epoch's solve was reused
(the bit-identical steady state) or solved afresh.  Nothing in ``src/`` is
touched and no span is added, so the numbers are the untraced code's, plus
one timer call per stage.

Run from the repo root::

    python tools/epoch_split.py --experiment E16 --clients 20000

``--clients 1000000`` with the default 200 epochs and replicas is the
benchmark suite's full-scale campaign.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.scale import (  # noqa: E402  (path bootstrap above)
    AdversaryCampaignRunner,
    LatencyCampaignRunner,
    StochasticCampaignRunner,
)
from repro.scale.adversary import AdversaryRun  # noqa: E402
from repro.scale.timeline import _TimelineRun  # noqa: E402

#: The epoch pipeline's stages, in ``_TimelineRun.step`` order.
STAGES = ("fire_events", "autoscale_step", "remap_ring", "demand_scale",
          "capacity_scale", "adversary_step", "solve", "quoted_latency",
          "bill", "record")
#: Methods timed inside a stage: (class, method, the stage that calls it).
NESTED = ((AdversaryRun, "step", "adversary_step"),
          (AdversaryRun, "observe", "quoted_latency"))


def make_runner(experiment: str, clients: int, epochs: int,
                replicas: int, seed: int):
    """The experiment's campaign runner at the requested scale."""
    if experiment == "E14":
        return StochasticCampaignRunner(clients=clients, epochs=epochs,
                                        replicas=replicas, seed=seed)
    if experiment == "E15":
        return LatencyCampaignRunner(clients=clients, epochs=epochs,
                                     replicas=replicas, seed=seed)
    # E16 sweeps a 4 x 2 grid; the benchmark runs replicas / 8 per point.
    return AdversaryCampaignRunner(clients=clients, epochs=epochs,
                                   replicas_per_point=max(replicas // 8, 1),
                                   seed=seed)


class EpochSplit:
    """Accumulates per-stage seconds, per epoch kind (reused or solved)."""

    def __init__(self) -> None:
        self.current = defaultdict(float)
        self.reused = False
        self.seconds = {"reused": defaultdict(float),
                        "solved": defaultdict(float)}
        self.epochs = {"reused": 0, "solved": 0}

    def timed(self, name: str, method):
        """``method`` with its wall added to this epoch's ``name`` row."""
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                self.current[name] += time.perf_counter() - start
        return wrapper

    def wrap_solve(self, method):
        """Time ``solve`` and note whether it reused the previous epoch."""
        timed = self.timed("solve", method)

        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            outcome = timed(*args, **kwargs)
            self.reused = outcome[1]
            return outcome
        return wrapper

    def wrap_step(self, method):
        """Time one whole epoch and file its stage rows under its kind."""
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            self.current = defaultdict(float)
            self.reused = False
            start = time.perf_counter()
            method(*args, **kwargs)
            self.current["step"] = time.perf_counter() - start
            kind = "reused" if self.reused else "solved"
            self.epochs[kind] += 1
            for name, seconds in self.current.items():
                self.seconds[kind][name] += seconds
        return wrapper

    def install(self) -> None:
        """Wrap the stage methods on their classes (for this process)."""
        for name in STAGES:
            method = getattr(_TimelineRun, name)
            wrapped = (self.wrap_solve(method) if name == "solve"
                       else self.timed(name, method))
            setattr(_TimelineRun, name, wrapped)
        for cls, name, _stage in NESTED:
            setattr(cls, name, self.timed(f"{cls.__name__}.{name}",
                                          getattr(cls, name)))
        _TimelineRun.step = self.wrap_step(_TimelineRun.step)

    def rows(self):
        """(label, reused µs/epoch, solved µs/epoch) in pipeline order."""
        def mean_us(kind: str, name: str) -> float:
            count = self.epochs[kind]
            return 1e6 * self.seconds[kind][name] / count if count else 0.0

        out = []
        for name in STAGES:
            out.append((name, mean_us("reused", name), mean_us("solved", name)))
            for cls, method, stage in NESTED:
                if stage == name:
                    label = f"{cls.__name__}.{method}"
                    out.append(("  " + label, mean_us("reused", label),
                                mean_us("solved", label)))
        unwrapped = {kind: mean_us(kind, "step")
                     - sum(mean_us(kind, name) for name in STAGES)
                     for kind in ("reused", "solved")}
        out.append(("step, outside the stages", unwrapped["reused"],
                    unwrapped["solved"]))
        out.append(("epoch total", mean_us("reused", "step"),
                    mean_us("solved", "step")))
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiment", choices=("E14", "E15", "E16"),
                        default="E16")
    parser.add_argument("--clients", type=int, default=20_000)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--replicas", type=int, default=32,
                        help="E14/E15 replicas; E16 runs replicas/8 per point")
    parser.add_argument("--seed", type=int, default=81)
    args = parser.parse_args(argv)

    runner = make_runner(args.experiment, args.clients, args.epochs,
                         args.replicas, args.seed)
    runner.prepare()
    split = EpochSplit()
    split.install()
    start = time.perf_counter()
    runner.run()
    wall = time.perf_counter() - start

    reused, solved = split.epochs["reused"], split.epochs["solved"]
    print(f"{args.experiment}: {args.clients:,} clients, {reused + solved:,} "
          f"epochs ({reused:,} reused, {solved:,} solved), "
          f"campaign {wall:.2f} s")
    width = max(len(label) for label, _, _ in split.rows())
    print(f"{'stage':<{width}}  {'reused µs':>10}  {'solved µs':>10}")
    for label, reused_us, solved_us in split.rows():
        print(f"{label:<{width}}  {reused_us:>10.1f}  {solved_us:>10.1f}")
    if not reused + solved:
        print("the campaign ran no epochs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
