"""The perf gate that exists: ``benchmarks/suite/compare.py`` on committed results.

Nothing here runs a workload.  The two committed result files of one
commit (``results/baseline-{a,b}.json``) are compared as they are, then
with one thing changed at a time, so every verdict and exit code of the
gate is pinned; ``BENCHMARK.json`` is held against ``catalogue.py`` by
name; and the one remaining mode of ``tools/perf_report.py`` is driven
once.  (The suite's own ``selftest.py`` runs the workloads; CI runs it.)
"""

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SUITE = REPO / "benchmarks" / "suite"
E14 = "e14_stochastic_1m"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module      # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def baseline_a():
    return json.loads((SUITE / "results" / "baseline-a.json").read_text())


def _compare_files(a, b):
    """Run the compare.py command on two result files: (exit code, stdout)."""
    done = subprocess.run([sys.executable, str(SUITE / "compare.py"), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout


def _compare(tmp_path, a, b):
    """The same on two documents, written out first."""
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    return _compare_files(tmp_path / "a.json", tmp_path / "b.json")


def _rows(stdout, *words):
    return [line for line in stdout.splitlines() if all(word in line for word in words)]


class TestCompareGate:
    def test_two_runs_of_one_commit_pass(self):
        code, out = _compare_files(*(SUITE / "results" / f"baseline-{side}.json"
                                     for side in "ab"))
        assert code == 0, out
        assert "0 regression(s); 0 changed digest(s)/counter(s) on one commit" in out

    def test_a_30_percent_slower_wall_regresses(self, tmp_path, baseline_a):
        slower = copy.deepcopy(baseline_a)
        row = slower["workloads"][E14]["end_to_end"]["campaign_wall_s"]
        row["samples"] = [1.3 * sample for sample in row["samples"]]
        for key in ("value", "q1", "q3"):
            row[key] *= 1.3
        code, out = _compare(tmp_path, baseline_a, slower)
        assert code == 1
        assert len(_rows(out, E14, "campaign_wall_s", "regressed")) == 1
        assert "1 regression(s)" in out

    def test_wide_overlapping_samples_are_unresolved_not_unchanged(self, tmp_path, baseline_a):
        noisy = copy.deepcopy(baseline_a)
        row = noisy["workloads"][E14]["end_to_end"]["campaign_wall_s"]
        # Inter-quartile range 1.0 s against a bound of 10 % of 2.98 s.
        row.update(samples=[2.0, 2.5, 3.0, 3.5, 4.0], value=3.0, q1=2.5, q3=3.5)
        code, out = _compare(tmp_path, baseline_a, noisy)
        assert code == 0
        assert len(_rows(out, E14, "campaign_wall_s", "unresolved")) == 1

    @pytest.mark.parametrize("what", ["result_sha256", "counter"])
    def test_changed_identity_fails_only_on_one_commit(self, tmp_path, baseline_a, what):
        changed = copy.deepcopy(baseline_a)
        workload = changed["workloads"][E14]
        if what == "counter":
            workload["counters"]["solver.fill_passes"] += 1
        else:
            workload["result_sha256"] = "0" * 64
        code, out = _compare(tmp_path, baseline_a, changed)
        assert code == 1
        assert len(_rows(out, E14, "CHANGED")) == 1
        # Across commits a changed digest is reported, not failed: a change
        # is allowed to move results, and says so.
        changed["provenance"]["git_sha"] = "f" * 40
        code, out = _compare(tmp_path, baseline_a, changed)
        assert code == 0
        assert len(_rows(out, E14, "CHANGED")) == 1
        assert "1 changed digest(s)/counter(s)" in out and "on one commit" not in out

    def test_a_workload_missing_from_b_is_a_regression(self, tmp_path, baseline_a):
        partial = copy.deepcopy(baseline_a)
        del partial["workloads"]["packet_path"]
        code, out = _compare(tmp_path, baseline_a, partial)
        assert code == 1
        assert _rows(out, "packet_path", "missing from B")

    def test_cross_validation_error_must_repeat_exactly(self, tmp_path, baseline_a):
        drifted = copy.deepcopy(baseline_a)
        row = drifted["workloads"]["packet_path"]["end_to_end"]["xval_rel_err_max"]
        row["value"] *= 1.0001     # still far inside the 10 % tolerance
        code, out = _compare(tmp_path, baseline_a, drifted)
        assert code == 1
        assert len(_rows(out, "packet_path", "xval_rel_err_max", "regressed")) == 1


def test_benchmark_json_names_agree_with_the_catalogue():
    catalogue = _load("bench_suite_catalogue", SUITE / "catalogue.py")
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(catalogue.ALL)
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        assert ([(m["name"], m["unit"], m["better"]) for m in declared[key]]
                == [(m.name, m.unit, m.better) for m in catalogue.driver_metrics(trace)])
    assert ({m["name"]: m["bound"] for m in declared["end_to_end"]}
            == catalogue.DRIVER_BOUNDS)


def test_perf_report_smoke_writes_trace_and_metrics(tmp_path, capsys):
    perf_report = _load("perf_report_tool", REPO / "tools" / "perf_report.py")
    trace, prom = tmp_path / "trace.jsonl", tmp_path / "metrics.prom"
    code = perf_report.main(["--scenario", "flash_crowd", "--clients", "2000",
                             "--trace", str(trace), "--prom", str(prom)])
    out = capsys.readouterr().out
    assert code == 0
    assert "flash_crowd (2000 clients" in out and "ring_remap" in out
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    assert {"timeline", "epoch", "solve"} <= {span["name"] for span in spans}
    assert "# TYPE" in prom.read_text()
    assert perf_report.main(["--scenario", "no_such_scenario"]) != 0
    assert "unknown scenario" in capsys.readouterr().err
