import json
import pathlib

import pytest

from mockforms.cli import _emit
from mockforms.qkernel import TruncationPolicy, UnknownIdentityError
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
    # every report is byte-identical to `mockforms verify --tag all --seed 1`
    capsys.readouterr()
    for r in suite_all:
        _emit(r.to_dict())
    golden = pathlib.Path(__file__).parent / "golden" / "verify_all_seed1.jsonl"
    assert capsys.readouterr().out == golden.read_text()


def test_grid_25_points():
    assert len(V.standard_grid(5, 5, 1)) == 25
