"""Every imported name is used: a standard-library stand-in for a linter's
unused-import rule, run over the package and the tests."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# a package __init__ re-exports what it imports
FILES = sorted(p for p in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
               if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each name an import statement binds and the module
    never reads.  `from __future__` imports are directives, not bindings."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_checker_flags_unused_and_keeps_used():
    src = "import os, sys\nfrom a.b import c as d, e\nimport x.y\nprint(sys, e, x.y)\n"
    assert unused_imports(src) == [(1, "os"), (2, "d")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
