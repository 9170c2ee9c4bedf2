"""Every imported name is used, and every module-level definition of the
package is named somewhere: standard-library stand-ins for a linter's
unused-import and unused-definition rules.  Imports are checked in the
package and the tests; a definition may be named there or in perfbench/,
which is only read."""

import ast
import pathlib
import re
import subprocess
import sys

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


def module_functions(source: str) -> list:
    """The names of the module-level functions of a source."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def callers(source: str, name: str) -> list:
    """The module-level definition that holds each call of name, in source
    order, or "<module>" for a call outside every definition."""
    owners = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        owners += [owner for node in ast.walk(top) if isinstance(node, ast.Call)
                   and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    return owners


def test_structure_checkers():
    src = ("def f_d0(): g(1)\nclass C:\n    def h(self): m.g(2)\n"
           "x = g(3)\ndef k(): return lambda: g(4)\n")
    assert module_functions(src) == ["f_d0", "k"]
    assert callers(src, "g") == ["f_d0", "C", "<module>", "k"]


def test_phi_tilde_has_one_body():
    # Phi-tilde is assembled once, for its value and for its D0 pair: no
    # package function is a second "_d0" body, and only phi_tilde pulls
    # out the lattice shift
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert [(mod, name) for mod, src in sources.items()
            for name in module_functions(src) if name.endswith("_d0")] == []
    assert [(mod, owner) for mod, src in sources.items()
            for owner in callers(src, "_lattice_shift")] == [("modification", "phi_tilde")]


def test_cli_import_loads_no_dataclasses():
    # every command pays the import of mockforms.cli: it loads neither
    # dataclasses nor inspect (the value classes are qkernel._record
    # records); the registry loads dataclasses for the harness records,
    # and dataclasses.replace still takes a report.  -S: site loads nothing
    code = ("import sys\nimport mockforms.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
            "from mockforms import verifier\nverifier.registry_ids()\n"
            "import dataclasses\nr = verifier.verify('eq1.2a', grid=(1, 1))\n"
            "print(dataclasses.replace(r, passed=not r.passed).passed is not r.passed)\n")
    got = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert got.stdout.split("\n")[:2] == ["[]", "True"]


# The AST nodes one package module may hold.  A fresh interpreter without a
# byte-code cache compiles every module it imports, and compiling the
# registry as one module of 16,172 nodes raised its peak RSS by 6.2 MB,
# against at most 1.5 MB for any other module (then at most 5,713 nodes)
MAX_MODULE_NODES = 6_000


def test_every_module_compiles_in_a_small_piece():
    sizes = {p.name: sum(1 for _ in ast.walk(ast.parse(p.read_text()))) for p in PACKAGE}
    assert {name: n for name, n in sizes.items() if n > MAX_MODULE_NODES} == {}


FAMILY_MODULES = ["mockforms.family_n3", "mockforms.family_n4", "mockforms.family_d21a"]


def _fresh(code, *flags):
    """Run code in a fresh interpreter; returns its stdout and stderr."""
    got = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    return got.stdout, got.stderr


def test_cli_import_runs_no_family_module():
    # `import mockforms.cli` puts the three family modules in sys.modules and
    # on the package, but runs none: -X importtime lists no family line, and
    # the stubs, read without running them, hold no __builtins__ (the mark
    # exec() leaves in a module it ran)
    code = ("import sys\nimport mockforms, mockforms.cli\n"
            f"for name in {FAMILY_MODULES!r}:\n"
            "    m = sys.modules[name]\n"
            "    print(name, vars(m) is vars(getattr(mockforms, name.split('.')[1])),"
            " '__builtins__' in vars(m))\n")
    out, err = _fresh(code, "-X", "importtime")
    assert re.search(r"\| mockforms\.cli$", err, re.M)
    assert not re.search(r"\| +mockforms\.family_", err)
    assert out.splitlines() == [f"{name} True False" for name in FAMILY_MODULES]


def test_racing_first_reads_of_a_family_all_succeed():
    # four threads call family_d21a, whose body reads family_n4, right after
    # the import and at once; a thread switch every microsecond lets each
    # find the module while another runs it, and each waits for the body
    code = ("import sys, threading\nimport mockforms.cli\n"
            "from mockforms import family_d21a\n"
            "sys.setswitchinterval(1e-6)\n"
            "start, got = threading.Barrier(4), []\n"
            "def call():\n"
            "    start.wait()\n"
            "    try:\n"
            "        got.append(family_d21a.s_matrix_and_fusion(2)['labels'])\n"
            "    except Exception as exc:\n"
            "        got.append(repr(exc))\n"
            "threads = [threading.Thread(target=call) for _ in range(4)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join()\n"
            "print(got)\n")
    for _ in range(3):
        got = ast.literal_eval(_fresh(code)[0])
        assert len(got) == 4 and all(isinstance(labels, list) for labels in got), got
        assert all(labels == got[0] for labels in got)


def test_a_read_during_the_first_run_waits_for_the_whole_body():
    # once the body has defined every name, a second thread reads one while
    # the first run has not yet returned: the read waits for the run, so no
    # thread calls into a module whose later definitions are still missing
    code = ("import sys, threading, time\nimport mockforms.cli\n"
            "m = sys.modules['mockforms.family_n4']\n"
            "loader, ran, order = m.__spec__.loader, threading.Event(), []\n"
            "def exec_module(module):\n"
            "    type(loader).exec_module(loader, module)\n"
            "    ran.set()\n"
            "    time.sleep(0.2)\n"
            "    order.append('body')\n"
            "loader.exec_module = exec_module\n"
            "first = threading.Thread(target=lambda: m.N4Weight)\n"
            "first.start()\n"
            "ran.wait()\n"
            "m.enumerate_weights\n"
            "order.append('read')\n"
            "first.join()\n"
            "print(order)\n")
    assert ast.literal_eval(_fresh(code)[0]) == ["body", "read"]


def test_a_first_run_that_raises_runs_again_at_the_next_read():
    # as a failed import runs again at the next import
    code = ("import sys\nimport mockforms.cli\n"
            "m = sys.modules['mockforms.family_n3']\n"
            "loader, calls = m.__spec__.loader, []\n"
            "def exec_module(module):\n"
            "    calls.append(1)\n"
            "    type(loader).exec_module(loader, module)\n"
            "    if len(calls) == 1:\n"
            "        raise KeyboardInterrupt\n"
            "loader.exec_module = exec_module\n"
            "try:\n"
            "    m.enumerate_weights\n"
            "except KeyboardInterrupt:\n"
            "    print('raised')\n"
            "print(len(m.enumerate_weights(-1)) > 0, len(calls), type(m).__name__)\n")
    assert _fresh(code)[0].split() == ["raised", "True", "2", "module"]


def test_reload_before_first_use_runs_the_body_once():
    # a reload() runs an unused family module's body; the next read, even of
    # a name the module lacks, must not run it a second time
    code = ("import importlib, sys\nimport mockforms.cli\n"
            "m = importlib.reload(sys.modules['mockforms.family_n4'])\n"
            "f = m.enumerate_weights\n"
            "print(hasattr(m, 'nope'), m.enumerate_weights is f is m.enumerate_weights)\n")
    assert _fresh(code)[0].split() == ["False", "True"]
