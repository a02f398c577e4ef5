#!/usr/bin/env python3
"""Per-stage cost of a timeline epoch: resting, solved, recalled, stretched.

Runs one E14, E15 or E16 campaign serially with every stage method of the
timeline's per-run object (``repro.scale.timeline._TimelineRun``) and the
adversary game's ``tick``, ``flag`` and ``observe`` wrapped in a timer from
outside, and prints the mean microseconds each costs per epoch, split by
kind.  A stepped epoch rested (took back the previous epoch's derived
object whole) or derived everything afresh — and a derived epoch either
called the solver (*solved*) or took its answer from the run's solve memo
(*recalled*).  A *stretched* epoch was not stepped at all: the run advanced
over it in ``_TimelineRun.stretch``, whose wall (the stretch's bounds, then
its per-epoch trail) is shared among the epochs it advanced; a stretch of
no epochs is filed with the epoch stepped before it.  The four counts must
add up to epochs × replicas.  A footer line gives the one fixed cost each
replica pays before its first epoch: ``compile_events``, the draw of its
failure and attack events, in µs per replica.  Nothing in ``src/`` is
touched and no span is added, so the numbers are the untraced code's, plus
one timer call per method and one counter on the timeline's
``solve_allocation``.

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
import repro.scale.runner as runner_module  # noqa: E402
import repro.scale.timeline as timeline_module  # noqa: E402
from repro.scale.adversary import AdversaryRun  # noqa: E402
from repro.scale.timeline import _TimelineRun  # noqa: E402

#: Timed methods in ``_TimelineRun.step`` order: (class, method, indent).
#: A row times its method wherever it is called; an indented row runs
#: inside the row above it (``reuse_solve`` runs inside ``solve`` on a
#: recalled epoch and on its own on a resting or stretched one).
ROWS = ((_TimelineRun, "fire_events", 0),
        (_TimelineRun, "autoscale_step", 0),
        (_TimelineRun, "remap_ring", 0),
        (_TimelineRun, "demand_scale", 0),
        (_TimelineRun, "capacity_scale", 0),
        (AdversaryRun, "tick", 0),
        (AdversaryRun, "flag", 0),
        (_TimelineRun, "solve", 0),
        (_TimelineRun, "reuse_solve", 1),
        (_TimelineRun, "quoted_latency", 0),
        (AdversaryRun, "observe", 1),
        (_TimelineRun, "demand_fields", 0),
        (_TimelineRun, "bill", 0),
        (_TimelineRun, "record", 0))
#: The accumulator of outermost timed calls only, so rows nest without
#: counting twice in the remainder.
OUTERMOST = "outermost"
KINDS = ("rest", "solved", "recalled", "stretched")


def label(cls, method: str) -> str:
    """A row's name: the method, qualified when it is the game's."""
    return method if cls is _TimelineRun else f"{cls.__name__}.{method}"


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
    """Accumulates per-row seconds, per epoch kind (see :data:`KINDS`)."""

    def __init__(self) -> None:
        self.current = defaultdict(float)
        self.depth = 0
        #: Calls of the timeline's solver entry point so far.
        self.solves = 0
        self.seconds = {kind: defaultdict(float) for kind in KINDS}
        self.epochs = {kind: 0 for kind in KINDS}
        #: The kind of the last stepped epoch.
        self.stepped = KINDS[0]
        #: Calls and wall of the replicas' ``compile_events``.
        self.compiles = 0
        self.compile_seconds = 0.0

    def timed(self, name: str, method):
        """``method`` with its wall added to this epoch's ``name`` row."""
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            self.depth += 1
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.depth -= 1
                self.current[name] += elapsed
                if not self.depth:
                    self.current[OUTERMOST] += elapsed
        return wrapper

    def counted(self, function):
        """``function`` with its calls counted in :attr:`solves`."""
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self.solves += 1
            return function(*args, **kwargs)
        return wrapper

    def per_replica(self, function):
        """``function`` with its calls and wall kept in :attr:`compiles`
        and :attr:`compile_seconds`, apart from every epoch."""
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.compile_seconds += time.perf_counter() - start
                self.compiles += 1
        return wrapper

    def wrap_step(self, method):
        """Time one whole epoch and file its rows under its kind: it rested
        when the run kept the previous epoch's derived object, and a
        derived epoch that called no solver recalled its answer."""
        @functools.wraps(method)
        def wrapper(run, epoch):
            self.current = defaultdict(float)
            before, solves = run.derived, self.solves
            start = time.perf_counter()
            method(run, epoch)
            self.current["step"] = time.perf_counter() - start
            if run.derived is before:
                kind = "rest"
            else:
                kind = "solved" if self.solves > solves else "recalled"
            self.epochs[kind] += 1
            self.stepped = kind
            for name, seconds in self.current.items():
                self.seconds[kind][name] += seconds
        return wrapper

    def wrap_stretch(self, method):
        """Time one stretch and file its rows under ``stretched`` with the
        epochs it advanced over; one of no epochs joins the stepped epoch
        before it."""
        @functools.wraps(method)
        def wrapper(run, start):
            self.current = defaultdict(float)
            began = time.perf_counter()
            end = method(run, start)
            self.current["step"] = time.perf_counter() - began
            kind = "stretched" if end > start else self.stepped
            self.epochs["stretched"] += end - start
            for name, seconds in self.current.items():
                self.seconds[kind][name] += seconds
            return end
        return wrapper

    def install(self) -> None:
        """Wrap the timed methods on their classes (for this process)."""
        for cls, method, _indent in ROWS:
            setattr(cls, method, self.timed(label(cls, method),
                                            getattr(cls, method)))
        _TimelineRun.step = self.wrap_step(_TimelineRun.step)
        _TimelineRun.stretch = self.wrap_stretch(_TimelineRun.stretch)
        timeline_module.solve_allocation = self.counted(
            timeline_module.solve_allocation)
        runner_module.compile_events = self.per_replica(
            runner_module.compile_events)

    def rows(self):
        """(label, then µs/epoch per kind in :data:`KINDS` order) in
        pipeline order."""
        def mean_us(kind: str, name: str) -> float:
            count = self.epochs[kind]
            return 1e6 * self.seconds[kind][name] / count if count else 0.0

        def row(name: str, shown: str):
            return (shown, *(mean_us(kind, name) for kind in KINDS))

        out = [row(label(cls, method), "  " * indent + label(cls, method))
               for cls, method, indent in ROWS]
        out.append(("step, outside the timed rows",
                    *(mean_us(kind, "step") - mean_us(kind, OUTERMOST)
                      for kind in KINDS)))
        out.append(row("step", "epoch total"))
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

    epochs = split.epochs
    total = sum(epochs.values())
    derived = epochs["solved"] + epochs["recalled"]
    print(f"{args.experiment}: {args.clients:,} clients, {total:,} epochs "
          f"({epochs['stretched']:,} stretched, {epochs['rest']:,} rested, "
          f"{derived:,} derived: {epochs['solved']:,} solved, "
          f"{epochs['recalled']:,} recalled), campaign {wall:.2f} s")
    rows = split.rows()
    width = max(len(row[0]) for row in rows)
    print(f"{'stage':<{width}}"
          + "".join(f"  {kind + ' µs':>11}" for kind in KINDS))
    for shown, *per_kind in rows:
        print(f"{shown:<{width}}"
              + "".join(f"  {us:>11.1f}" for us in per_kind))
    per_replica = 1e6 * split.compile_seconds / max(split.compiles, 1)
    print(f"per replica: compile_events {per_replica:.1f} µs "
          f"({split.compiles:,} replicas)")
    expected = args.epochs * len(runner.unit_specs())
    if total != expected:
        print(f"the kinds count {total:,} epochs, the campaign ran "
              f"{expected:,}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
