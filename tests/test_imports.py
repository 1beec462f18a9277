"""No module of the library imports a name it does not use.

A name imported but never read is flagged unless its line carries
``# noqa: F401``, the marker for a name kept importable on purpose (a module
attribute a tracer patches by name).  The package ``__init__`` imports to
re-export, so it is not checked.  The marked imports are pinned to the
tracer's two, so a new marker cannot hide a dead import.  Standard library
only: ``ast``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stocomb"
MARKER = "# noqa: F401"

# The names imported only so that ``perfbench/tracing.py`` can patch them.
TRACER_PINS = [("boosting.py", "exact_opt"), ("gap.py", "solve_lp")]


def imports(tree) -> list:
    """(line, bound name) of every import in ``tree``."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.lineno, a.asname or a.name) for a in node.names]
    return imported


def unused_imports(source: str) -> list:
    """(line, name) of every import in ``source`` whose bound name is never
    read, outside lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imports(tree)
            if name not in used and MARKER not in lines[line - 1]]


def marked_imports(source: str) -> list:
    """The names of the imports in ``source`` on lines marked ``# noqa: F401``."""
    lines = source.splitlines()
    return [name for line, name in imports(ast.parse(source))
            if MARKER in lines[line - 1]]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text(encoding="utf-8")) == []


def test_the_only_marked_imports_are_the_tracer_pins():
    marked = [(p.name, name) for p in sorted(SRC.glob("*.py"))
              for name in marked_imports(p.read_text(encoding="utf-8"))]
    assert marked == TRACER_PINS


def test_the_check_sees_unused_and_marked_imports():
    source = ("import os\nimport numpy as np\nfrom a import (\n    b,\n    c,\n)\n"
              "from d import e  # noqa: F401\nprint(np, c)\n")
    assert unused_imports(source) == [(1, "os"), (4, "b")]
    assert marked_imports(source) == ["e"]
