"""``tools/check_docs.py``: the docs name only files and CI jobs that exist.

The repository's own docs must pass; the three existence checks are then
driven on a tiny tree where exactly one thing is wrong at a time.
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

_WORKFLOW = """\
name: CI
on:
  push:
jobs:
  lint:
    steps:
      # python tools/retired.py is only a comment
      - run: python tools/real.py
  smoke:
    steps:
      - run: >
          python tools/real.py
          --out OUT.json
"""
_README = "# x\n\n## CI\n\nTwo jobs: `lint` and `smoke`.\n\n## Later\n\n`retired`\n"


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs_tool", REPO / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """check_docs pointed at a small, clean tree under ``tmp_path``."""
    check_docs = _load_check_docs()
    for name, text in {
        "tools/real.py": "",
        ".github/workflows/ci.yml": _WORKFLOW,
        "README.md": _README,
        "docs/guide.md": "Run `tools/real.py --fast`; see `tools/` and "
                         "`benchmarks/bench_*.py`, `examples/NN_name.py`, "
                         "`tests/test_{a,b}.py`.\n",
        "CHANGES.md": "PR 1 removed `tools/retired.py`.\n",
    }.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    monkeypatch.setattr(check_docs, "WORKFLOW", tmp_path / ".github/workflows/ci.yml")
    monkeypatch.setattr(check_docs, "DOC_FILES", [
        tmp_path / "docs/guide.md", tmp_path / "README.md", tmp_path / "CHANGES.md"])
    return check_docs


def _problems(check_docs, capsys):
    code = check_docs.main()
    lines = capsys.readouterr().out.splitlines()
    assert (code == 0) == (len(lines) == 1)
    return [line.strip() for line in lines[1:]]


def test_the_repository_docs_pass():
    assert _load_check_docs().main() == 0


def test_clean_tree_passes_and_history_may_name_removed_files(tree, capsys):
    # CHANGES.md names tools/retired.py, which does not exist: history may.
    assert _problems(tree, capsys) == []


def test_doc_naming_a_missing_file_is_reported(tree, tmp_path, capsys):
    (tmp_path / "docs/guide.md").write_text(
        "Gate with `tools/retired.py --update` against `benchmarks/retired/`.\n")
    assert _problems(tree, capsys) == [
        "docs/guide.md: names a missing file -> benchmarks/retired/",
        "docs/guide.md: names a missing file -> tools/retired.py",
    ]


def test_workflow_running_a_missing_file_is_reported(tree, tmp_path, capsys):
    workflow = tmp_path / ".github/workflows/ci.yml"
    workflow.write_text(workflow.read_text().replace(
        "--out OUT.json", "--out OUT.json && python tools/retired.py OUT.json"))
    assert _problems(tree, capsys) == [
        ".github/workflows/ci.yml: names a missing file -> tools/retired.py"]


def test_readme_must_name_every_job_in_its_ci_section(tree, tmp_path, capsys):
    workflow = tmp_path / ".github/workflows/ci.yml"
    workflow.write_text(workflow.read_text() + "  retired:\n    steps: []\n")
    # `retired` appears in README, but under a later heading.
    assert _problems(tree, capsys) == [
        "README.md: CI section does not name job `retired`"]
