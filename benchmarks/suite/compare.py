#!/usr/bin/env python3
"""Compare two result files of run.py: A is the base, B the candidate.

    python benchmarks/suite/compare.py A.json B.json

For every workload and end-to-end metric it prints both medians, the delta
with its base, the bound, and one verdict:

improved    every B sample beats every A sample, by more than the wider
            quartile spread (by more than the bound where a side has one sample)
unchanged   B is no worse than A by more than the bound
regressed   B is worse than A by more than the bound
unresolved  the run-to-run spread (the wider inter-quartile range of the two
            sides) exceeds the bound, and the two sides' samples overlap

It also flags every changed ``result_sha256`` and every changed deterministic
work counter.  Exit status is non-zero on any regression, and — when both
files come from the same commit — on any changed digest or counter, because
two runs of one program must agree on those to the last digit.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import catalogue as cat

#: xval_rel_err_max must repeat exactly and stay under cross_validate's own
#: acceptance tolerance.
_XVAL_TOLERANCE = 0.10


def _worse_by(metric: cat.Metric, base: float, new: float) -> float:
    """How much worse ``new`` reads than ``base`` (negative: better)."""
    return new - base if metric.better == "lower" else base - new


def verdict(metric: cat.Metric, a: Dict[str, object], b: Dict[str, object]) -> Tuple[str, str]:
    """``(verdict, bound text)`` for one metric on one workload."""
    base, new = float(a["value"]), float(b["value"])
    if metric.name == "xval_rel_err_max":
        ok = base == new and new <= _XVAL_TOLERANCE
        return ("unchanged" if ok else "regressed",
                f"exact, <= {_XVAL_TOLERANCE:g}")
    limit = metric.bound if metric.absolute else metric.bound * abs(base)
    bound_text = (f"{metric.bound:+g} abs" if metric.absolute
                  else f"{metric.bound:.0%} = {limit:.4g}")
    worse = _worse_by(metric, base, new)
    spread = max(float(a["q3"]) - float(a["q1"]), float(b["q3"]) - float(b["q1"]))
    samples_a, samples_b = list(a["samples"]), list(b["samples"])
    b_all_better = all(_worse_by(metric, x, y) < 0 for x in samples_a for y in samples_b)
    b_all_worse = all(_worse_by(metric, x, y) > 0 for x in samples_a for y in samples_b)
    if spread > limit > 0:
        if b_all_better:
            return "improved", bound_text
        if b_all_worse and worse > limit:
            return "regressed", bound_text
        return "unresolved", bound_text
    if worse > limit:
        return "regressed", bound_text
    # One sample a side says nothing about spread; only the bound can vouch.
    floor = spread if min(len(samples_a), len(samples_b)) >= 2 else limit
    if b_all_better and -worse > floor:
        return "improved", bound_text
    return "unchanged", bound_text


def _same_commit(a: Dict[str, object], b: Dict[str, object]) -> bool:
    sha_a = a.get("provenance", {}).get("git_sha")
    return bool(sha_a) and sha_a != "unknown" and sha_a == b.get("provenance", {}).get("git_sha")


def compare(a: Dict[str, object], b: Dict[str, object]) -> Tuple[List[str], int, int]:
    """Returns ``(report lines, regressions, identity breaks)``."""
    lines: List[str] = []
    regressions = 0
    identity_breaks = 0
    header = (f"{'workload':<19} {'metric':<22} {'A median':>12} {'B median':>12} "
              f"{'delta (of A)':>38}  {'bound':<18} verdict")
    lines += [header, "-" * len(header)]
    for name in cat.ALL:
        left = a["workloads"].get(name)
        right = b["workloads"].get(name)
        if left is None or right is None:
            lines.append(f"{name:<19} missing from {'A' if left is None else 'B'}")
            regressions += 1
            continue
        for metric in cat.declared(name, cat.END_TO_END):
            row_a = left["end_to_end"][metric.name]
            row_b = right["end_to_end"][metric.name]
            outcome, bound_text = verdict(metric, row_a, row_b)
            base, new = float(row_a["value"]), float(row_b["value"])
            share = f"{(new - base) / base:+.1%}" if base else "n/a"
            delta = f"{new - base:+.4g} {metric.unit} ({share} of {base:.4g})"
            lines.append(f"{name:<19} {metric.name:<22} {base:>12.5g} {new:>12.5g} "
                         f"{delta:>38}  {bound_text:<18} {outcome}")
            regressions += outcome == "regressed"
        if left["result_sha256"] != right["result_sha256"]:
            lines.append(f"{name:<19} result_sha256 CHANGED: "
                         f"{left['result_sha256'][:16]} -> {right['result_sha256'][:16]}")
            identity_breaks += 1
        for counter in cat.GATED_COUNTERS:
            before: Optional[float] = left["counters"].get(counter)
            after: Optional[float] = right["counters"].get(counter)
            if before != after:
                lines.append(f"{name:<19} counter {counter} CHANGED: {before} -> {after}")
                identity_breaks += 1
    return lines, regressions, identity_breaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="base result file (run.py --out)")
    parser.add_argument("b", help="candidate result file")
    args = parser.parse_args(argv)
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    lines, regressions, identity_breaks = compare(a, b)
    print("\n".join(lines))
    same = _same_commit(a, b)
    print(f"{regressions} regression(s); {identity_breaks} changed digest(s)/counter(s)"
          f"{' on one commit' if same else ''}")
    if regressions or (same and identity_breaks):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
