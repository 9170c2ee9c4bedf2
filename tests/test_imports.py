"""Every imported name is used, and every module-level definition of the
package is named somewhere: standard-library stand-ins for a linter's
unused-import and unused-definition rules.  Imports are checked in the
package and the tests; a definition may be named there or in perfbench/,
which is only read."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# a package __init__ re-exports what it imports
FILES = sorted(p for p in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
               if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src" / "mockforms").glob("*.py"))
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


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


def referenced_names(source: str) -> set:
    """Every name the source reads (an ast.Name), reaches as an attribute,
    or imports."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def unreferenced_definitions(modules: dict, readers: list) -> list:
    """(module, name) of each module-level def or class of modules (name ->
    source) that no source in readers refers to by name."""
    used = set().union(*(referenced_names(src) for src in readers))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(mod, node.name) for mod, src in modules.items()
            for node in ast.parse(src).body
            if isinstance(node, defs) and node.name not in used]


def test_definition_checker_flags_unreferenced_and_keeps_referenced():
    mod = ("def read(): pass\ndef reached(): pass\ndef imported(): pass\n"
           "class Kept: pass\ndef dead(): read()\nclass Gone: pass\n_X = 1\n")
    user = "import m\nfrom m import imported as i\nm.reached(Kept)\n"
    assert unreferenced_definitions({"m": mod}, [mod, user]) == [("m", "dead"), ("m", "Gone")]


def test_every_package_definition_is_referenced():
    modules = {p.stem: p.read_text() for p in PACKAGE}
    assert unreferenced_definitions(modules, [p.read_text() for p in READERS]) == []


FAMILIES = [ROOT / "src" / "mockforms" / f"family_{name}.py" for name in ("n3", "n4", "d21a")]
QUOTIENT_FACTORS = {"dedekind_eta", "jacobi_theta"}


@pytest.mark.parametrize("path", FAMILIES, ids=lambda p: p.name)
def test_family_quotients_go_through_the_evaluator(path):
    # a family forms its eta/theta quotients as factor rows of
    # theta.eta_theta_quotient, never by calling eta or theta_ab itself
    assert referenced_names(path.read_text()) & QUOTIENT_FACTORS == set()


def theta_differences(source: str) -> list:
    """Lines where one theta_jm(...) call is subtracted from another."""
    def is_theta(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "theta_jm"
            or getattr(node.func, "attr", None) == "theta_jm")

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and is_theta(node.left) and is_theta(node.right)]


def test_theta_difference_checker():
    src = ("d = theta_jm(a, t) - theta.theta_jm(b, t)\n"
           "e = theta_jm(a, t) + theta_jm(b, t)\nf = theta_pair_diff(a, t) - g(b)\n")
    assert theta_differences(src) == [1]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_theta_differences_go_through_the_pair_kernel(path):
    # Theta_{-j,m} - Theta_{j,m} is one series, theta.theta_pair_diff
    assert theta_differences(path.read_text()) == []
