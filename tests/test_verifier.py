import cmath
import collections
import hashlib
import importlib.util
import inspect
import json
import math
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from mockforms.cli import VERIFY_FILTER_KEYS, _emit
from mockforms.mock import MockIndex, PsiIndex
from mockforms.qkernel import (
    HalfInt,
    TruncationPolicy,
    UnknownIdentityError,
)
from mockforms.theta import ThetaIndex
import mockforms.family_d21a as d21a
import mockforms.mock as mock
import mockforms.modification as modification
import mockforms.qkernel as qkernel
import mockforms.registry as R
import mockforms.theta as theta
import mockforms.verifier as V

P = TruncationPolicy()
# the policy verify() runs its plans under
GUARDED = TruncationPolicy(P.tol, P.n_max, max(P.pole_guard, 0.02))


def test_grid_determinism_and_size():
    g1 = V.standard_grid(2, 3, 7)
    g2 = V.standard_grid(2, 3, 7)
    assert len(g1) == 6
    assert all(a.tau == b.tau and a.zs == b.zs for a, b in zip(g1, g2))
    g3 = V.standard_grid(2, 3, 8)
    assert any(a.zs != b.zs for a, b in zip(g1, g3))


def test_grid_tau_list():
    g = V.standard_grid(5, 1, 1)
    assert [pt.tau for pt in g] == [0.31j, 0.8j, 1.0 + 1.3j, -0.4 + 0.7j, 2.1j]
    with pytest.raises(ValueError):
        V.standard_grid(6, 1, 1)


def test_registry_coverage():
    ids = V.registry_ids()
    missing = [i for i in V.REQUIRED_IDS if i not in ids]
    assert not missing


# a fresh interpreter that imports the CLI, then reads the registry; and one
# whose second thread makes its first read while the first thread is
# building the registry, one law in
FIRST_READ = """
import json, sys
import mockforms.cli
from mockforms import verifier
loaded = sorted(m for m in sys.modules if m.startswith("mockforms."))
print(json.dumps({"loaded": loaded, "ids": verifier.registry_ids()}))
"""
RACING_READS = """
import json, threading
import mockforms.cli
from mockforms import verifier
register, got, second = verifier.register, [], []

def read():
    got.append(verifier.registry_ids())

def register_then_read(spec):
    register(spec)
    if not second:
        second.append(threading.Thread(target=read))
        second[0].start()
        second[0].join(0.2)

verifier.register = register_then_read
read()
second[0].join(60)
print(json.dumps(got))
"""
HERE = pathlib.Path(__file__).parent


def _child(code):
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    return json.loads(out)


def _golden_ids() -> list:
    return [json.loads(line)["id"]
            for line in (HERE / "golden" / "verify_all_seed1.jsonl").read_text().splitlines()]


def test_registry_is_built_on_first_read():
    # importing the CLI compiles and plans no law, yet loads every module
    # perfbench's tracer wraps; the first read builds all 87 in order
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", HERE.parent / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    got = _child(FIRST_READ)
    assert "mockforms.registry" not in got["loaded"]
    assert {f"mockforms.registry_{m}" for m in ("n3", "n4", "d21a")}.isdisjoint(got["loaded"])
    assert {f"mockforms.{m}" for m in tracer.MODULES} <= set(got["loaded"])
    assert got["ids"] == _golden_ids() and len(got["ids"]) == 87
    assert set(V.REQUIRED_IDS) <= set(got["ids"])


def test_racing_first_reads_see_the_whole_registry():
    assert _child(RACING_READS) == [_golden_ids()] * 2


# (home module, function, calling module, id): every module reaches a
# kernel through its home module when it calls it, and every law reads its
# member there, so a function patched in its home module reaches each of
# these callers at the next verify, with no clear and no reload
REACH = [("mock", "_phi1_core", "modification", "eq1.14"),
         ("qkernel", "_guard_checked", "mock", "eq1.14"),
         ("theta", "theta_jm", "modification", "rem1.2"),
         ("theta", "theta_jm", "family_d21a", "prop10.21"),
         ("modification", "phi_tilde", "family_n3", "th4.11"),
         ("mock", "phi", "family_n3", "n3.c1"),
         ("modification", "psi_tilde", "family_n4", "th9.7"),
         ("theta", "eta_theta_quotient", "family_n4", "th9.7"),
         ("theta", "dedekind_eta", "registry_n3", "rem4.13"),
         ("modification", "phi_tilde", "registry_n4", "rem6.5"),
         ("theta", "jacobi_theta", "registry_d21a", "eq12.7")]


def test_a_kernel_patched_in_its_home_module_reaches_every_caller(monkeypatch):
    # the mutant recipe of ROADMAP item 5 is one rule: patch the function
    # in its home module
    ids, calls = V.registry_ids(), collections.Counter()

    def spy(home, name, real):
        def call(*a, **k):
            by = pathlib.Path(sys._getframe(1).f_code.co_filename).stem
            calls[home, name, by] += 1
            return real(*a, **k)
        return call

    def reached() -> list:
        """the spied calls of each row at the next verify of its id"""
        out = []
        for home, name, by, identity in REACH:
            calls.clear()
            V.verify(identity, grid=(1, 1))
            out.append(calls[home, name, by])
        return out

    with monkeypatch.context() as m:
        for home, name in dict.fromkeys((home, name) for home, name, *_ in REACH):
            module = importlib.import_module(f"mockforms.{home}")
            m.setattr(module, name, spy(home, name, getattr(module, name)))
        got = reached()
        assert 0 not in got, dict(zip((row[:3] for row in REACH), got))
    assert reached() == [0] * len(REACH)
    assert V.registry_ids() == ids == _golden_ids()


# the non-runner ids whose plan _laws does not build; a new one joins this
# set with the reason it carries at its registration
HAND_WRITTEN_PLANS = set()


def test_every_law_is_a_record():
    built = {"_laws.<locals>.plan"}
    specs = [V.get_spec(i) for i in V.registry_ids()]
    hand = {s.id for s in specs if s.runner is None and s.plan.__qualname__ not in built}
    assert hand == HAND_WRITTEN_PLANS


def _members(side, image, point) -> list:
    """(index, the point its image gives) of each member of one side of a
    law record: an index, or a list of (coefficient, index) or
    (coefficient, index, own image) entries; a closed form has none."""
    if isinstance(side, list):
        return [(ix, (own[0] if own else image)(*point)) for _, ix, *own in side]
    return [] if callable(side) else [(side, image(*point))]


def test_law_records_list_their_members_and_points_without_a_kernel_call(monkeypatch):
    # plan.laws(**params) gives the records (x, image, y, c) of a parameter
    # set and plan.args the point arguments: each record's members and the
    # points its images give at the first seed-1 grid point are read with
    # no kernel call.  Wrappers in the kernels' home modules see every call
    # a plan makes, since the laws and families read the kernels there
    calls = collections.Counter()

    def counting(name, real):
        def call(*a, **k):
            calls[name] += 1
            return real(*a, **k)
        return call

    for module in (theta, mock, modification):
        for name, f in list(vars(module).items()):
            if inspect.isfunction(f) and f.__module__ == module.__name__:
                monkeypatch.setattr(module, name, counting(f"{module.__name__}.{name}", f))
    specs = [V.get_spec(i) for i in V.registry_ids()]
    listed = []
    for spec in (s for s in specs if s.runner is None):
        pt = V.standard_grid(*spec.grid, 1, GUARDED)[0]
        here = (pt.tau, *spec.plan.args(pt))
        for params in spec.params:
            records = [(_members(x, image, here), _members(y, R._same, here))
                       for x, image, y, _ in spec.plan.laws(**params)]
            # every record has a member at its image, and every point is finite
            assert records and all(lhs for lhs, _ in records), (spec.id, params)
            assert all(all(map(cmath.isfinite, point)) for lhs, rhs in records
                       for _, point in lhs + rhs), (spec.id, params)
            listed.append((spec.id, records))
    assert calls == {}
    assert len({i for i, _ in listed}) == 84
    assert len(listed) == sum(len(s.params) for s in specs if s.runner is None)
    # the same wrappers see the kernel calls of a plan that runs
    spec = V.get_spec("eq1.14")
    spec.plan(**spec.params[0])(V.standard_grid(*spec.grid, 1, GUARDED)[0], GUARDED)
    assert calls["mockforms.modification.phi_tilde"] > 0


def test_unknown_identity_and_tag():
    with pytest.raises(UnknownIdentityError):
        V.verify("eq99.99")
    with pytest.raises(UnknownIdentityError):
        V.suite("nonsense")


def test_theta_suite_all_pass():
    reports = V.suite("theta")
    assert len(reports) >= 8
    assert all(r.passed for r in reports)


def test_report_shape_and_determinism():
    r1 = V.verify("eq1.3", grid=(3, 2), seed=1)
    r2 = V.verify("eq1.3", grid=(3, 2), seed=1)
    assert r1.max_abs_err == r2.max_abs_err
    d = r1.to_dict()
    assert list(d) == ["id", "citation", "grid", "tol", "max_abs_err", "pass", "skipped"]
    assert d["grid"] == {"n_tau": 3, "n_z": 2, "seed": 1}
    json.dumps(d)


def _selected(monkeypatch, identity, flt) -> list:
    """The parameter sets verify() plans for identity under the filter flt."""
    spec = V.get_spec(identity)
    plan, seen = spec.plan, []

    def recording(**prm):
        seen.append(prm)
        return plan(**prm)

    with monkeypatch.context() as m:
        m.setattr(spec, "plan", recording)
        V.verify(identity, grid=(1, 1), param_filter=flt)
    return seen


def test_param_filter(monkeypatch):
    r = V.verify("eq1.15", grid=(2, 1), param_filter={"m": 2, "s": 0})
    assert r.passed
    with pytest.raises(ValueError):
        V.verify("eq1.15", param_filter={"m": 99})
    # a filter selects by value: an int, a Fraction, a float and a rational
    # string of one number select the same parameter sets
    half = [_selected(monkeypatch, "eq1.14", {"s": v}) for v in (Fraction(1, 2), 0.5, "1/2")]
    assert half[0] == half[1] == half[2] == [{"m": m, "s": Fraction(1, 2)} for m in (1, 2, 3)]
    one = [_selected(monkeypatch, "eq1.14", {"m": v}) for v in (1, Fraction(1), 1.0, "1")]
    assert one[0] == one[1] == one[2] == one[3] == [{"m": 1, "s": s} for s in (0, Fraction(1, 2))]
    with pytest.raises(ValueError, match="no parameter set of eq1.14 matches"):
        V.verify("eq1.14", param_filter={"s": 0.25})


@pytest.mark.parametrize("k, skipped, passed", [(2, 24, True), (3, 36, False)])
def test_skip_rule(monkeypatch, k, skipped, passed):
    # eq1.4 runs 12 parameter sets on a 5x3 grid, 180 runs; a run that meets
    # a pole is skipped, and an id passes only with fewer than 20% skipped.
    # Every run raises PoleProximityError at the first k grid points
    spec = V.get_spec("eq1.4")
    assert len(spec.params) == 12 and spec.grid == (5, 3)
    near = V.standard_grid(*spec.grid, 1, GUARDED)[:k]
    real_plan = spec.plan

    def pole_at_first_points(**prm):
        run = real_plan(**prm)

        def guarded(pt, policy):
            if pt in near:
                raise qkernel.PoleProximityError("near a pole")
            return run(pt, policy)
        return guarded

    monkeypatch.setattr(spec, "plan", pole_at_first_points)
    r = V.verify("eq1.4")
    assert r.skipped == skipped and r.passed is passed
    assert r.max_abs_err <= r.tol


@pytest.mark.parametrize("bad", [(math.nan, 0.5), (math.inf, math.inf)])
def test_a_nan_residual_fails_the_report(monkeypatch, bad):
    # every run of eq1.4 puts one non-finite pair before its pairs at the
    # first grid point; the finite residuals that follow must not hide it
    spec = V.get_spec("eq1.4")
    first = V.standard_grid(*spec.grid, 1, GUARDED)[0]
    real_plan = spec.plan

    def nan_at_first_point(**prm):
        run = real_plan(**prm)
        return lambda pt, policy: ([bad] if pt == first else []) + run(pt, policy)

    monkeypatch.setattr(spec, "plan", nan_at_first_point)
    r = V.verify("eq1.4")
    assert math.isnan(r.max_abs_err) and r.passed is False and r.skipped == 0


def test_a_guard_that_leaves_no_z_is_refused():
    # at tau = 0.31i no z of the drawing square lies 0.5 from the lattice:
    # the draw refuses the guard instead of redrawing forever, so a fresh
    # interpreter answers well within its timeout
    code = ("from mockforms.qkernel import TruncationPolicy\n"
            "from mockforms.verifier import standard_grid\n"
            "try:\n    standard_grid(1, 1, 1, TruncationPolicy(pole_guard=0.5))\n"
            "except ValueError as e:\n    print('ValueError', e)\n")
    got = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=30)
    assert got.returncode == 0, got.stderr
    assert got.stdout.startswith("ValueError pole guard 0.5 leaves no z"), got.stdout


@pytest.fixture(scope="module")
def suite_all():
    # suite("all") is the slowest call in this module; run it once and share it
    return V.suite("all")


def test_suite_all_runs_each_once(suite_all):
    ids = [r.id for r in suite_all]
    assert ids == V.registry_ids()
    assert len(set(ids)) == len(ids)


def test_known_failures_are_only_the_recorded_defects(suite_all):
    bad = [r.id for r in suite_all if not r.passed]
    assert bad == ["eq1.13", "eq1.15", "eq1.16"]


def test_suite_all_matches_golden(suite_all, capsys):
    # every report is byte-identical to `mockforms verify --tag all --seed N`;
    # seed 5 holds the over-tol eq1.17 and prop8.7 reports
    for seed, reports in ((1, suite_all), (5, V.suite("all", seed=5))):
        capsys.readouterr()
        for r in reports:
            _emit(r.to_dict())
        golden = pathlib.Path(__file__).parent / "golden" / f"verify_all_seed{seed}.jsonl"
        assert capsys.readouterr().out == golden.read_text(), f"seed {seed}"


def test_cli_filter_keys_are_registry_keys():
    keys = {k for i in V.registry_ids() for prm in V.get_spec(i).params for k in prm}
    assert [k for k in VERIFY_FILTER_KEYS if k not in keys] == []


def test_grid_25_points():
    assert len(V.standard_grid(5, 5, 1)) == 25


@pytest.mark.parametrize("identity, owner, name", [
    ("prop12.4a", d21a, "s_matrix_and_fusion"),
    ("eq1.3", ThetaIndex, "of"),
    # the family layer: indices the f-functions, the B numerators and the
    # P/f theta products derive are formed once per plan object
    ("th4.11", PsiIndex, "of"),
    ("eq3.5", MockIndex, "of"),
    ("lemma11.2", ThetaIndex, "of"),
])
def test_exact_work_is_once_per_parameter_set(monkeypatch, identity, owner, name):
    # verify plans each parameter set once, and the objects of a plan form
    # their exact data once, so the exact work of a law does not grow with
    # the grid
    real = getattr(owner, name)
    calls = []
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or real(*args))
    counts = []
    for grid in ((1, 1), None):
        calls.clear()
        V.verify(identity, grid=grid)
        counts.append(len(calls))
    assert counts[0] == counts[1]
    if identity == "prop12.4a":
        assert counts[0] == len(V.get_spec(identity).params)


def _count_exact_work(monkeypatch) -> collections.Counter:
    """From now on, count HalfInt.of calls, Fraction constructions and the
    pole guard's lattice scans (the scans of qkernel._guard_checked, which
    guard_pole and the Appell sums call)."""
    counts = collections.Counter()
    of, new, scan = HalfInt.of, Fraction.__new__, qkernel._lattice_scan

    def counting_of(x):
        counts["HalfInt.of"] += 1
        return of(x)

    def counting_new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counting_scan(*args):
        if sys._getframe(1).f_code is qkernel._guard_checked.__code__:
            counts["scan"] += 1
        return scan(*args)

    monkeypatch.setattr(HalfInt, "of", counting_of)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(qkernel, "_lattice_scan", counting_scan)
    return counts


def test_exact_work_and_pole_scans_per_pass(monkeypatch):
    # one suite("all", seed=1) pass does its exact work in the plans and at
    # the first use of each plan object, not at every grid point, and the
    # pole guard scans the lattice only where its row bound cannot clear the
    # point.  Per pass, before the family layer held its exact data: 28,326
    # HalfInt.of calls, 27,412 Fraction constructions, 4,880 scans.  With
    # the grid-point denominators still parsing their shifts: 10,039, 8,476
    # and 422.  With each sector a Sector formed once: 7,327, 8,464 and 422;
    # with one series per theta_ab: 7,334, 8,416 and 411.  With the
    # S-tables, S- and T-phases and family constants formed from ints:
    # 7,204, 4,312 and 411; with every law a record: 7,153, 4,226 and 411
    counts = _count_exact_work(monkeypatch)
    V.suite("all", seed=1)
    assert counts["HalfInt.of"] < 7_300, counts
    assert counts["Fraction"] < 4_400, counts
    assert 0 < counts["scan"] < 1_000, counts


@pytest.mark.parametrize("seed", [1, 2])
def test_grid_point_loop_does_no_exact_work(monkeypatch, seed):
    # the exact work of an id is done in its plans and at the first use of
    # each plan object, so once every plan has run its grid, a second run
    # makes no HalfInt and no Fraction.  At seed 2 some objects are first
    # used after the first grid point
    plans = _plans(seed)
    for runs, pts in plans.values():
        collections.deque(_walk(runs, pts), maxlen=0)
    counts = _count_exact_work(monkeypatch)
    for runs, pts in plans.values():
        collections.deque(_walk(runs, pts), maxlen=0)
    assert counts["HalfInt.of"] == counts["Fraction"] == 0, counts


@pytest.mark.parametrize("M, m", [(2, -1), (3, -2)])
@pytest.mark.parametrize("j, k", [(1, -1), (Fraction(3, 2), Fraction(1, 2))])
def test_balanced_table_is_the_s_table_at_balanced_representatives(M, m, j, k):
    # the S-tables of prop8.7 and th9.7 (j, k = 1, -1) and of th9.8a
    # (3/2, 1/2), all at eps = 1/2: the same rows in the same order, each
    # index moved by a multiple of M into [-M/2, M/2) (floor(a/M + 1/2)
    # rounds a/M half up, so a = 3/2 at M = 3 goes to -3/2)
    eps = Fraction(1, 2)
    raw = R._s_table(M, eps, -m, j, k)
    balanced = R._balanced_table(M, eps, m, j, k)
    assert len(balanced) == len(raw) == M * M
    for (c, a, b), (c0, a0, b0) in zip(raw, balanced):
        assert c0 == c
        for x, x0 in ((a.value, a0.value), (b.value, b0.value)):
            assert (x - x0) % M == 0
            assert -Fraction(M, 2) <= x0 < Fraction(M, 2)


PAIRS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_pairs.json"


def _plans(seed) -> dict:
    """{id: (plans, grid)} over every non-runner id: one plan per parameter
    set, and the id's registered grid at seed."""
    out = {}
    for ident in V.registry_ids():
        spec = V.get_spec(ident)
        if spec.runner is None:
            out[ident] = ([spec.plan(**prm) for prm in spec.params],
                          V.standard_grid(*spec.grid, seed, GUARDED))
    return out


def _walk(runs, pts):
    """Each (lhs, rhs) pair of the plans runs over the grid pts, or None for
    a parameter set that raises PoleProximityError, in verify()'s order."""
    for pt in pts:
        for pairs in V._run_point(runs, pt, GUARDED):
            yield from [None] if pairs is None else pairs


def _pair_hashes(seed):
    """{id: [8-hex sha256 prefix of repr((lhs, rhs)), or "skip"]} over every
    non-runner id at its registered grid, walked as verify() walks it."""
    return {ident: ["skip" if pair is None
                    else hashlib.sha256(repr(pair).encode()).hexdigest()[:8]
                    for pair in _walk(runs, pts)]
            for ident, (runs, pts) in _plans(seed).items()}


def test_pairs_match_golden():
    # every (lhs, rhs) value of every non-runner id at seeds 1-3, not just
    # each id's maximum residual, is bit-identical to the golden
    want = json.loads(PAIRS_GOLDEN.read_text())
    for seed in (1, 2, 3):
        got = _pair_hashes(seed)
        assert list(got) == list(want[str(seed)])
        bad = [i for i in got if got[i] != want[str(seed)][i]]
        assert not bad, f"seed {seed}: {bad}"


if __name__ == "__main__":
    # rewrite the pair golden: python tests/test_verifier.py (with src on the path)
    lines = []
    for seed in (1, 2, 3):
        rows = [f"  {json.dumps(i)}: {json.dumps(h)}" for i, h in _pair_hashes(seed).items()]
        lines.append(f'"{seed}": {{\n' + ",\n".join(rows) + "\n}")
    PAIRS_GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
