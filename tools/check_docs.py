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
option cannot linger in an example.  The epoch-pipeline stage table of
docs/architecture.md must name only what the run object has: every
backticked identifier in its stage, reads and writes columns is a
``_TimelineRun`` method, an attribute its ``__init__`` assigns to ``self``,
a ``Class.name`` that resolves on that ``repro.scale`` class, or an entry
of ``STAGE_TABLE_ALLOWED``.  Outside code fences, every backticked
``CamelCase`` or ``CamelCase.member`` (optionally ``()``) must be a name
some importable ``repro`` module binds, or a builtin, that has that member
(a dataclass field, or an attribute its ``__init__`` assigns to ``self``,
counts), unless it is in ``CLASS_NAMES_ALLOWED``.

Exits non-zero with one line per problem, so the CI docs job fails loudly
and locally ``python tools/check_docs.py`` tells you what to fix.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pkgutil
import re
import sys
import textwrap
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

STAGE_TABLE_DOC = "architecture.md"
STAGE_TABLE_HEADER = "| # | stage → method | span | layer row | reads | writes |"
STAGE_TABLE_COLUMNS = ("stage → method", "reads", "writes")
#: Backticked stage-table text that is no run member: the template's
#: ``rebuilt()`` quoted as a call, and the shape of the result matrices.
STAGE_TABLE_ALLOWED = {"rebuilt()", "[epoch, site]"}
BACKTICKED = re.compile(r"`([^`\n]+)`")
#: A whole backticked token naming a class: ``CamelCase`` or
#: ``CamelCase.member``, optionally quoted as a call with no arguments.
CLASS_NAME = re.compile(r"([A-Z]\w*[a-z]\w*)(?:\.([A-Za-z_]\w*))?(?:\(\))?")
#: Backticked CamelCase that is no ``repro`` or builtin name: numpy's seed
#: type and the benchmark suite's comparison file.
CLASS_NAMES_ALLOWED = {"SeedSequence", "SUITE_vs_baseline"}


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


def _init_attributes(klass) -> set:
    """Names ``klass.__init__`` assigns on ``self``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(klass.__init__)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def _has_member(klass, name: str) -> bool:
    if hasattr(klass, name) or name in getattr(klass, "__dataclass_fields__", ()):
        return True
    try:
        return name in _init_attributes(klass)
    except (OSError, TypeError):
        return False  # no python source for its __init__ (builtin, generated)


@functools.lru_cache(maxsize=None)
def _repro_modules() -> tuple:
    """Every importable ``repro`` module's name, then ``builtins``."""
    import repro

    return ("repro",) + tuple(
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ) + ("builtins",)


@functools.lru_cache(maxsize=None)
def _names_a_class(owner: str, member) -> bool:
    """Whether some ``repro`` module or builtin binds ``owner`` with
    ``member`` (when one is named)."""
    for module in _repro_modules():
        value = _resolve(module, owner)
        if value is not _MISSING and (member is None
                                      or _has_member(value, member)):
            return True
    return False


def check_class_names(path: Path, problems: list) -> None:
    """Every backticked ``CamelCase[.member]`` outside code fences resolves."""
    where = path.relative_to(REPO)
    in_fence = False
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for text in BACKTICKED.findall(line):
            name = CLASS_NAME.fullmatch(text)
            if (name and name.group(1) not in CLASS_NAMES_ALLOWED
                    and not _names_a_class(*name.groups())):
                problems.append(f"{where}:{number}: names a missing class "
                                f"-> {text}")


def check_stage_table(path: Path, problems: list) -> None:
    """The stage table names only methods/attributes the run object has."""
    from repro.scale.timeline import _TimelineRun

    where = path.relative_to(REPO)
    lines = path.read_text().splitlines()
    if STAGE_TABLE_HEADER not in lines:
        problems.append(f"{where}: stage table header not found -> "
                        f"{STAGE_TABLE_HEADER}")
        return
    start = lines.index(STAGE_TABLE_HEADER)
    header = [cell.strip() for cell in STAGE_TABLE_HEADER.strip("|").split("|")]
    columns = [header.index(name) for name in STAGE_TABLE_COLUMNS]
    for number, line in enumerate(lines[start + 2:], start=start + 3):
        if not line.startswith("|"):
            break
        cells = line.strip().strip("|").split("|")
        for column in columns:
            for name in BACKTICKED.findall(cells[column]):
                if name in STAGE_TABLE_ALLOWED:
                    continue
                owner, dot, member = name.rpartition(".")
                if dot and owner.isidentifier() and member.isidentifier():
                    klass = _resolve("repro.scale", owner)
                    if klass is not _MISSING and _has_member(klass, member):
                        continue
                elif name.isidentifier() and _has_member(_TimelineRun, name):
                    continue
                problems.append(f"{where}:{number}: stage table names what "
                                f"the run does not have -> {name}")


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
                check_class_names(path, problems)
            if path.name == STAGE_TABLE_DOC:
                check_stage_table(path, problems)
    check_workflow(problems)
    if problems:
        print(f"docs check: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    checked = len([path for path in DOC_FILES if path.exists()])
    print(f"docs check: {checked} files OK (links resolve, snippets compile, "
          f"snippet imports and keywords resolve, named paths, classes, CI "
          f"jobs and stage-table names exist)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))  # resolve imports against this checkout
    sys.exit(main())
