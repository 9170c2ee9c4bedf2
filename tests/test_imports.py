"""Every imported name is used, and every module-level definition of the
package is named somewhere: standard-library stand-ins for a linter's
unused-import and unused-definition rules.  Imports are checked in the
package and the tests; a definition may be named there or in perfbench/,
which is only read."""

import ast
import collections
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


SECTOR_NAMES = {"plus", "minus", "plus_tw", "minus_tw", "ns_plus", "ns_minus", "ramond",
                "ramond_minus"}
NAME_PARSERS = {"startswith", "endswith", "removesuffix"}


def sector_name_reads(source: str) -> list:
    """(line, what) of each call of a string parser and each comparison
    with a sector name of N=4 or N=3, also as a member of a literal tuple,
    list or set compared with."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in NAME_PARSERS:
            found.append((node.lineno, node.func.attr))
        elif isinstance(node, ast.Compare):
            for side in (node.left, *node.comparators):
                items = side.elts if isinstance(side, (ast.Tuple, ast.List, ast.Set)) else [side]
                found += [(node.lineno, x.value) for x in items
                          if isinstance(x, ast.Constant) and x.value in SECTOR_NAMES]
    return sorted(found)


def test_sector_name_checker():
    src = ('def f(s):\n    if s.startswith("plus"):\n        return s == "minus"\n'
           '    return s in ("plus_tw", "x") or s.endswith("_tw")\n'
           'class C:\n    def g(self, s):\n        return s.removesuffix("_tw")\n'
           'TABLE = {"plus": 1}\nok = TABLE["plus"] if w == "ns_plus" else None\n')
    assert sector_name_reads(src) == [(2, "startswith"), (3, "minus"), (4, "endswith"),
                                      (4, "plus_tw"), (7, "removesuffix"), (9, "ns_plus")]


@pytest.mark.parametrize("path", FAMILIES, ids=lambda p: p.name)
def test_n4_and_d21a_sectors_are_not_names(path):
    # a sector argument of every family, N=3 included, is a Sector: no
    # function parses or compares the names of family_n4.SECTORS or N=3's
    assert sector_name_reads(path.read_text()) == []


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


def bindings(source: str, function: str) -> collections.Counter:
    """How many assignments bind each name in the module-level function of
    source, a name in a tuple target counted once per assignment."""
    top = next(node for node in ast.parse(source).body if getattr(node, "name", None) == function)
    return collections.Counter(x.id for node in ast.walk(top) if isinstance(node, ast.Assign)
                               for target in node.targets for x in ast.walk(target)
                               if isinstance(x, ast.Name))


def reads(source: str, function: str) -> set:
    """The names and attribute names that the module-level function of
    source reads, called or not."""
    top = next(node for node in ast.parse(source).body if getattr(node, "name", None) == function)
    return ({n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)})


def test_structure_checkers():
    src = ("def f_d0(): g(1)\nclass C:\n    def h(self): m.g(2)\n"
           "x = g(3)\ndef k(): return lambda: g(4)\n"
           "def b(x):\n    if x: u, v = 1, 2\n    else: u = v = 3\n    w: int = u\n")
    assert module_functions(src) == ["f_d0", "k", "b"]
    assert callers(src, "g") == ["f_d0", "C", "<module>", "k"]
    assert bindings(src, "b") == {"u": 2, "v": 2}
    assert reads(src, "k") == {"g"}
    assert reads("def f(x):\n    return partial(m.h, x)\n", "f") == {"partial", "m", "h", "x"}


def test_phi_tilde_has_one_body():
    # Phi-tilde is assembled once, for its value and for its D0 pair: no
    # package function is a second "_d0" body, and only phi_tilde pulls
    # out the lattice shift
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert [(mod, name) for mod, src in sources.items()
            for name in module_functions(src) if name.endswith("_d0")] == []
    assert [(mod, owner) for mod, src in sources.items()
            for owner in callers(src, "_lattice_shift")] == [("modification", "phi_tilde")]


def test_mirrored_n3_cases_are_written_once():
    # the dotted B numerator is the undotted one at (z1 + tau, z2 - tau), and
    # types III and III' are types I and I' with z1 and z2 swapped: one phi
    # call and one phi_tilde pair, and the admissible point formed once
    src = (ROOT / "src" / "mockforms" / "family_n3.py").read_text()
    assert callers(src, "phi").count("b_value") == 1
    assert callers(src, "phi_tilde").count("b_value") == 2
    assert [bindings(src, "_admissible_point")[z] for z in ("Z1", "Z2")] == [1, 1]


def ratios_of_ratios(source: str) -> list:
    """The module-level definition that holds each exponential of a product
    with the factors 2 and TWO_PI_I: e^{4 pi i a}, the ratio of consecutive
    term ratios by which a quadratic walk steps its r."""
    def factors(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return factors(node.left) + factors(node.right)
        return [node]

    owners = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and node.args
                    and "exp" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                fs = factors(node.args[0])
                if (any(getattr(f, "id", None) == "TWO_PI_I" for f in fs)
                        and any(getattr(f, "value", None) == 2 for f in fs)):
                    owners.append(getattr(top, "name", "<module>"))
    return owners


def test_ratio_of_ratios_checker():
    src = ("import cmath\ndef w(a):\n    return cmath.exp(2.0 * TWO_PI_I * a)\n"
           "class C:\n    q = exp(a * 2 * TWO_PI_I)\n"
           "def r(n, a):\n    return cmath.exp(TWO_PI_I * (2.0 * n + a)), exp(2.0 * a)\n")
    assert ratios_of_ratios(src) == ["w", "C"]


def test_theta_walks_take_the_quadratic_recurrence():
    # every Theta-type series of theta.py (Theta, the Theta pair, theta_ab,
    # eta) steps its term ratios by qkernel._quadratic_walk, which forms
    # e^{4 pi i a} once; theta.py forms none of its own
    src = {name: (ROOT / "src" / "mockforms" / f"{name}.py").read_text()
           for name in ("theta", "qkernel")}
    assert ratios_of_ratios(src["theta"]) == []
    assert ratios_of_ratios(src["qkernel"]) == ["_quadratic_walk"]


def test_theta_ab_has_no_series_of_its_own():
    # theta_ab is Theta_{a/2,1/2} at 2z: theta.py sums a series in three
    # bodies (Theta and theta_ab, the Theta pair, eta), and jacobi_theta
    # neither cuts nor anchors one
    src = (ROOT / "src" / "mockforms" / "theta.py").read_text()
    assert callers(src, "sum_bilateral") == ["_theta_series", "theta_pair_diff", "dedekind_eta"]
    assert reads(src, "jacobi_theta") & {"_gauss_cut", "_quadratic_anchor"} == set()


# every function of these modules is an evaluation function, as is the pole
# guard of qkernel; qkernel's numeric helpers are not
EVALUATION_MODULES = ("theta", "mock", "modification", "family_n3", "family_n4", "family_d21a")
POLE_GUARD = {"_guard_checked", "guard_pole"}


def by_name_reaches(source: str, functions: dict) -> list:
    """(line, name) of each evaluation function (functions: home module ->
    names) that source imports by name, and of each _laws(...) call whose
    member is a bare name or attribute of one."""
    every = set().union(*functions.values())
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            home = functions.get(node.module.split(".")[-1], set())
            found += [(node.lineno, a.name) for a in node.names if a.name in home]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_laws" and node.args:
            member = node.args[0]
            name = getattr(member, "id", None) or getattr(member, "attr", None)
            found += [(node.lineno, name)] if name in every else []
    return sorted(found)


def test_by_name_reach_checker():
    src = ("from .theta import ThetaIndex, theta_jm\nfrom . import theta as th\n"
           "from mockforms.qkernel import e2pi, _guard_checked\n"
           "p = _laws(th.theta_jm, args, laws)\nq = _laws(lambda *a: th.theta_jm(*a), args, laws)\n"
           "r = _laws(phi_tilde, args, laws)\ns = _laws(_call, args, laws)\n")
    functions = {"theta": {"theta_jm"}, "qkernel": {"_guard_checked"},
                 "modification": {"phi_tilde"}}
    assert by_name_reaches(src, functions) == [(1, "theta_jm"), (3, "_guard_checked"),
                                               (4, "theta_jm"), (6, "phi_tilde")]


def test_evaluation_functions_are_reached_through_their_home_module():
    # a module calls an evaluation function as th.theta_jm(...), and a law
    # whose member is one reads it in a lambda, so a function patched in its
    # home module reaches every caller; __init__ re-exports by name
    sources = {p.stem: p.read_text() for p in PACKAGE}
    functions = {name: set(module_functions(sources[name])) for name in EVALUATION_MODULES}
    functions["qkernel"] = POLE_GUARD
    hits = {name: by_name_reaches(src, functions) for name, src in sources.items()
            if name != "__init__"}
    assert {name: found for name, found in hits.items() if found} == {}


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


FLAG_NAMES = {"plus", "twisted", "sigma", "sigma_prime"}


def sector_flag_names(source: str) -> list:
    """(line, name) of each function or lambda parameter and each annotated
    class-body field named as a loose sector flag or shift."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            found += [(node.lineno, x.arg) for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                                     a.vararg, a.kwarg)
                      if x is not None and x.arg in FLAG_NAMES]
        elif isinstance(node, ast.ClassDef):
            found += [(x.lineno, x.target.id) for x in node.body if isinstance(x, ast.AnnAssign)
                      and isinstance(x.target, ast.Name) and x.target.id in FLAG_NAMES]
    return sorted(found)


def test_sector_flag_checker():
    src = ("def f(tau, plus=False, *, twisted): pass\n"
           "class I:\n    sigma: int\n    eps: int\n    def g(self, sigma_prime): pass\n"
           "h = lambda plus: plus\n"
           "def ok(sector):\n    plus, twisted = sector\n    sigma: int = 0\n    return plus\n")
    assert sector_flag_names(src) == [(1, "plus"), (1, "twisted"), (3, "sigma"),
                                      (5, "sigma_prime"), (6, "plus")]


@pytest.mark.parametrize("path", FAMILIES, ids=lambda p: p.name)
def test_family_sectors_are_not_loose_flags(path):
    # a sector reaches a family function or record as a Sector, not as a
    # plus/twisted flag or a pair of (sigma, sigma') shifts
    assert sector_flag_names(path.read_text()) == []
