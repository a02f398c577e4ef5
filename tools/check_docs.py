#!/usr/bin/env python3
"""Docs gate: links resolve, snippets compile and import only what exists,
named files and CI jobs exist.

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
name only files and names that exist: every backticked repo path
(``tools/…``, ``benchmarks/…``, ``src/…``, ``docs/…``, ``tests/…``,
``examples/…``; globs and placeholders are skipped) is checked, as is
every such path the CI workflow runs, and README's CI section must name
every workflow job.  Their python snippets are parsed too, and every
``from repro… import name`` in them must resolve (``importlib`` plus
``hasattr``, against this checkout's ``src/``), and every keyword a snippet
passes to a name so imported must be a parameter of it
(``inspect.signature``; a class taking ``**kwargs`` accepts any
``__init__`` parameter along its MRO), so a deleted or renamed API or
option cannot linger in an example.

Exits non-zero with one line per problem, so the CI docs job fails loudly
and locally ``python tools/check_docs.py`` tells you what to fix.
"""

from __future__ import annotations

import ast
import importlib
import inspect
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


def python_snippets(path: Path):
    """(fence line number, source) of every fenced ```python block."""
    block: list = []
    language = None
    start = 0
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        fence = FENCE.match(line)
        if fence and language is None:
            language = fence.group(1).lower()
            block, start = [], number
        elif line.strip() == "```" and language is not None:
            if language == "python":
                yield start, "\n".join(block)
            language = None
        elif language is not None:
            block.append(line)


def check_snippets(path: Path, problems: list) -> None:
    for start, source in python_snippets(path):
        try:
            compile(source, f"{path.name}:{start}", "exec")
        except SyntaxError as error:
            problems.append(
                f"{path.relative_to(REPO)}:{start}: snippet does not "
                f"compile ({error.msg}, line {error.lineno})"
            )


_MISSING = object()


def _resolve(module: str, name: str):
    """What ``from module import name`` binds, or ``_MISSING``."""
    try:
        imported = importlib.import_module(module)
        if hasattr(imported, name):
            return getattr(imported, name)
        return importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return _MISSING


def _accepts(callee, keyword: str) -> bool:
    """Whether ``callee(keyword=...)`` names a parameter ``callee`` takes.

    A class taking ``**kwargs`` accepts any ``__init__`` parameter along
    its MRO (a subclass forwarding to its base); any other ``**kwargs``
    callee, or one without a signature, is not checked.
    """
    try:
        parameters = inspect.signature(callee).parameters
    except (TypeError, ValueError):
        return True
    if keyword in parameters:
        return True
    if not any(parameter.kind is inspect.Parameter.VAR_KEYWORD
               for parameter in parameters.values()):
        return False
    if not inspect.isclass(callee):
        return True
    return any(keyword in inspect.signature(klass.__init__).parameters
               for klass in callee.__mro__ if "__init__" in vars(klass))


def check_imports(path: Path, problems: list) -> None:
    """Every ``from repro… import name`` in a snippet must resolve, and
    every keyword a call passes to such a name must be one it takes."""
    where = path.relative_to(REPO)
    for start, source in python_snippets(path):
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue  # check_snippets reports it
        imported = {}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "repro"):
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                value = _resolve(node.module, alias.name)
                if value is _MISSING:
                    problems.append(
                        f"{where}:{start + node.lineno}: snippet imports a "
                        f"missing name -> {node.module}.{alias.name}")
                else:
                    imported[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in imported):
                continue
            for keyword in node.keywords:
                if keyword.arg and not _accepts(imported[node.func.id],
                                                keyword.arg):
                    problems.append(
                        f"{where}:{start + node.lineno}: snippet passes an "
                        f"unknown keyword -> {node.func.id}({keyword.arg}=...)")


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
                check_imports(path, problems)
    check_workflow(problems)
    if problems:
        print(f"docs check: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    checked = len([path for path in DOC_FILES if path.exists()])
    print(f"docs check: {checked} files OK (links resolve, snippets compile, "
          f"snippet imports and keywords resolve, named paths and CI jobs "
          f"exist)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))  # resolve imports against this checkout
    sys.exit(main())
