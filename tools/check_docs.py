#!/usr/bin/env python3
"""Docs gate: links resolve, snippets compile, named files and CI jobs exist.

Checks every markdown file under docs/ plus the top-level README.md,
EXPERIMENTS.md, ROADMAP.md and CHANGES.md:

* every relative markdown link ``[text](target)`` must point at an existing
  file (and, for ``file.md#anchor`` links, at a heading that slugifies to
  the anchor);
* every fenced ```python code block must byte-compile (the snippet
  equivalent of ``python -m compileall``) — snippets are not executed, so
  they stay cheap and side-effect free.

ROADMAP.md and CHANGES.md are history and stop there.  The docs that
describe the tree as it is (docs/, README.md, EXPERIMENTS.md) must also
name only files that exist: every backticked repo path (``tools/…``,
``benchmarks/…``, ``src/…``, ``docs/…``, ``tests/…``, ``examples/…``;
globs and placeholders are skipped) is checked, as is every such path the
CI workflow runs, and README's CI section must name every workflow job.

Exits non-zero with one line per problem, so the CI docs job fails loudly
and locally ``python tools/check_docs.py`` tells you what to fix.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    list((REPO / "docs").glob("**/*.md"))
    + [REPO / name for name in ("README.md", "EXPERIMENTS.md", "ROADMAP.md",
                                "CHANGES.md")]
)

HISTORY = ("ROADMAP.md", "CHANGES.md")
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"

LINK = re.compile(r"\[[^\]]*\]\(([^)]+)\)")
FENCE = re.compile(r"^```(\w*)\s*$")
_PATH = r"(?:tools|benchmarks|src|docs|tests|examples)/[^\s`:]*"
BACKTICKED_PATH = re.compile(r"`(" + _PATH + r")[^`\n]*`")
BARE_PATH = re.compile(r"(?<![\w./-])" + _PATH)
JOB_ID = re.compile(r"^  ([\w-]+):\s*$", re.MULTILINE)


def slugify(heading: str) -> str:
    """GitHub-style anchor slug of one markdown heading."""
    text = heading.strip().lower()
    text = re.sub(r"[`*_~]", "", text)
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> set:
    slugs = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
        elif not in_fence and line.startswith("#"):
            # Fenced regions are skipped so code comments like "# foo" never
            # masquerade as anchors.
            slugs.add(slugify(line.lstrip("#")))
    return slugs


def check_links(path: Path, problems: list) -> None:
    for match in LINK.finditer(path.read_text()):
        target = match.group(1).strip()
        # Strip an optional markdown title — [text](path "Title") — and
        # angle-bracket form, so titled links are checked, not skipped.
        target = re.sub(r"""\s+("[^"]*"|'[^']*')$""", "", target).strip("<>")
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # external links are not this gate's business
        file_part, _, anchor = target.partition("#")
        resolved = (path.parent / file_part).resolve() if file_part else path
        if not resolved.exists():
            problems.append(f"{path.relative_to(REPO)}: broken link -> {target}")
            continue
        if anchor and resolved.suffix == ".md":
            if slugify(anchor) not in heading_slugs(resolved):
                problems.append(
                    f"{path.relative_to(REPO)}: missing anchor -> {target}"
                )


def check_snippets(path: Path, problems: list) -> None:
    lines = path.read_text().splitlines()
    block: list = []
    language = None
    start = 0
    for number, line in enumerate(lines, start=1):
        fence = FENCE.match(line)
        if fence and language is None:
            language = fence.group(1).lower()
            block, start = [], number
        elif line.strip() == "```" and language is not None:
            if language == "python":
                source = "\n".join(block)
                try:
                    compile(source, f"{path.name}:{start}", "exec")
                except SyntaxError as error:
                    problems.append(
                        f"{path.relative_to(REPO)}:{start}: snippet does not "
                        f"compile ({error.msg}, line {error.lineno})"
                    )
            language = None
        elif language is not None:
            block.append(line)


def check_paths(source: Path, paths, problems: list) -> None:
    """Every repo path ``source`` names must exist; globs/placeholders skip."""
    for name in sorted(set(paths)):
        name = name.rstrip(".,;")
        if re.search(r"[*{<…]|NN_", name) or (REPO / name).exists():
            continue
        problems.append(f"{source.relative_to(REPO)}: names a missing file "
                        f"-> {name}")


def check_workflow(problems: list) -> None:
    """The workflow runs only files that exist; README lists all its jobs."""
    text = WORKFLOW.read_text()
    commands = "\n".join(line for line in text.splitlines()
                         if not line.lstrip().startswith("#"))
    check_paths(WORKFLOW, BARE_PATH.findall(commands), problems)
    readme = (REPO / "README.md").read_text()
    section = readme.partition("\n## CI\n")[2].partition("\n## ")[0]
    for job in JOB_ID.findall(text.partition("\njobs:\n")[2]):
        if f"`{job}`" not in section:
            problems.append(f"README.md: CI section does not name job `{job}`")


def main() -> int:
    problems: list = []
    missing = [path for path in DOC_FILES if not path.exists()]
    for path in missing:
        problems.append(f"expected doc file is missing: {path.relative_to(REPO)}")
    for path in DOC_FILES:
        if path.exists():
            check_links(path, problems)
            check_snippets(path, problems)
            if path.name not in HISTORY:
                check_paths(path, BACKTICKED_PATH.findall(path.read_text()),
                            problems)
    check_workflow(problems)
    if problems:
        print(f"docs check: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    checked = len([path for path in DOC_FILES if path.exists()])
    print(f"docs check: {checked} files OK (links resolve, snippets compile, "
          f"named paths and CI jobs exist)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
