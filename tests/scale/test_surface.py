"""The ``repro.scale`` export surface carries only names someone uses.

A name earns its place in ``repro.scale.__all__`` when some file outside
``src/`` imports it from ``repro.scale`` or cites it: as an identifier in the
Python of tests/, tools/, benchmarks/ or examples/, or as a word in docs/,
README.md or EXPERIMENTS.md.  Anything else stays importable from its own
module and leaves the package surface.
"""

import ast
import re
from pathlib import Path

import repro.scale

ROOT = Path(__file__).resolve().parents[2]
PYTHON_DIRS = ("tests", "tools", "benchmarks", "examples")


def _python_citations():
    """Identifiers the Python outside ``src/`` uses or imports."""
    cited = set()
    for directory in PYTHON_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    cited.add(node.id)
                elif isinstance(node, ast.Attribute):
                    cited.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    cited |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
    return cited


def _text_citations():
    words = set()
    texts = [ROOT / "README.md", ROOT / "EXPERIMENTS.md",
             *(ROOT / "docs").rglob("*.md")]
    for path in texts:
        words |= set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                                path.read_text(encoding="utf-8")))
    return words


def test_every_exported_name_is_imported_or_cited_outside_src():
    cited = _python_citations() | _text_citations()
    unused = sorted(name for name in repro.scale.__all__ if name not in cited)
    assert unused == [], (
        f"{len(unused)} name(s) in repro.scale.__all__ that no file outside "
        f"src/ imports or cites: {', '.join(unused)} — drop them from "
        f"repro/scale/__init__.py (they stay importable from their modules)")

