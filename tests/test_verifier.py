import collections
import hashlib
import json
import pathlib
import sys
from fractions import Fraction

import pytest

from mockforms.cli import VERIFY_FILTER_KEYS, _emit
from mockforms.mock import MockIndex, PsiIndex
from mockforms.qkernel import (
    HalfInt,
    PoleProximityError,
    TruncationPolicy,
    UnknownIdentityError,
    _POINT_MEMO,
)
from mockforms.theta import ThetaIndex
import mockforms.family_d21a as d21a
import mockforms.qkernel as qkernel
import mockforms.verifier as V

P = TruncationPolicy()


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


def test_param_filter():
    r = V.verify("eq1.15", grid=(2, 1), param_filter={"m": 2, "s": 0})
    assert r.passed
    with pytest.raises(ValueError):
        V.verify("eq1.15", param_filter={"m": 99})


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


def test_exact_work_and_pole_scans_per_pass(monkeypatch):
    # one suite("all", seed=1) pass does its exact work in the plans and at
    # the first use of each plan object, not at every grid point, and the
    # pole guard scans the lattice only where its row bound cannot clear the
    # point.  Per pass, before the family layer held its exact data: 28,326
    # HalfInt.of calls, 27,412 Fraction constructions, 4,880 scans; after:
    # 9,994, 8,476 and 202.  With no memo of passed guards, the guard runs
    # at every Appell sum (4,880 -> 9,672 calls) and scans 422 times
    counts = collections.Counter()
    of, new, scan = HalfInt.of, Fraction.__new__, qkernel._lattice_scan

    def counting_of(x):
        counts["HalfInt.of"] += 1
        return of(x)

    def counting_new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counting_scan(*args):
        if sys._getframe(1).f_code is qkernel.guard_pole.__code__:
            counts["scan"] += 1
        return scan(*args)

    monkeypatch.setattr(HalfInt, "of", counting_of)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(qkernel, "_lattice_scan", counting_scan)
    V.suite("all", seed=1)
    assert counts["HalfInt.of"] < 11_000, counts
    assert counts["Fraction"] < 9_500, counts
    assert counts["scan"] < 1_000, counts


PAIRS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_pairs.json"


def _pair_hashes(seed):
    """{id: [8-hex sha256 prefix of repr((lhs, rhs)), or "skip"]} over every
    non-runner id at its registered grid, walked as verify() walks it: one
    plan per parameter set, grid points outer, parameter sets inner, one
    memo per point, "skip" for a parameter set that raises
    PoleProximityError."""
    policy = TruncationPolicy(P.tol, P.n_max, max(P.pole_guard, 0.02))
    out = {}
    for ident in V.registry_ids():
        spec = V.get_spec(ident)
        if spec.runner is not None:
            continue
        runs = [spec.plan(**prm) for prm in spec.params]
        hashes = out[ident] = []
        for pt in V.standard_grid(*spec.grid, seed, policy):
            token = _POINT_MEMO.set({})
            try:
                for run in runs:
                    try:
                        pairs = run(pt, policy)
                    except PoleProximityError:
                        hashes.append("skip")
                        continue
                    for pair in [pairs] if isinstance(pairs, tuple) else pairs:
                        hashes.append(hashlib.sha256(repr(pair).encode()).hexdigest()[:8])
            finally:
                _POINT_MEMO.reset(token)
    return out


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
