import argparse
import json
import subprocess
import sys

import mpmath
import pytest

from mockforms.cli import main, parse_complex


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_complex():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("-0.5-1.25i") == complex(-0.5, -1.25)
    assert parse_complex("2") == 2.0
    assert parse_complex("i") == 1j
    with pytest.raises(Exception):
        parse_complex("abc")
    # every group of the pattern is optional, so "" matched it as 0j
    for empty in ("", "  "):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(empty)


def test_eval_theta(capsys):
    code, out, _ = run_cli(["eval", "--fn", "theta", "--j", "0", "--m", "1",
                            "--tau", "0+1i", "--z", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"]["re"] - 1.003735) < 2e-6
    assert abs(doc["value"]["im"]) < 1e-12


def test_qexp_theta(capsys):
    code, out, _ = run_cli(["qexp", "--fn", "theta", "--j", "1", "--m", "1",
                            "--order", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [t["q"] for t in doc["terms"]] == ["1/4", "1/4", "9/4", "9/4"]


def test_qexp_phi1_matches_independent_expansion(capsys):
    code, out, _ = run_cli(["qexp", "--fn", "phi1", "--m", "1", "--s", "0",
                            "--order", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    got = {(t["q"], t["z1"], t["z2"]): (t["re"], t["im"]) for t in doc["terms"]}
    # independent annulus expansion with explicit geometric series
    from fractions import Fraction as F

    want = {}
    for j in range(-2, 3):
        base = F(j * j)
        if base > 3:
            continue
        if j == 0:
            for r in range(0, 25):
                want[(F(0), F(r), F(0))] = want.get((F(0), F(r), F(0)), 0) + 1
        elif j > 0:
            r = 0
            while base + j * r <= 3:
                want[(base + j * r, F(j + r), F(j))] = 1
                r += 1
        else:
            r = 1
            while base - j * r <= 3:
                want[(base - j * r, F(j - r), F(j))] = want.get(
                    (base - j * r, F(j - r), F(j)), 0) - 1
                r += 1
    for key, coeff in want.items():
        if not coeff:
            continue
        q, b1, b2 = str(key[0]), str(key[1]), str(key[2])
        assert got.get((q, b1, b2)) == (str(coeff), "0"), key


def test_qexp_unsupported(capsys):
    code, out, err = run_cli(["qexp", "--fn", "phi_tilde"], capsys)
    assert code == 2
    assert "unsupported-function" in err


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run_cli(["verify", "--id", "eq1.3", "--grid", "3x2",
                            "--seed", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["id"] == "eq1.3"
    # the recorded half-index defect reports failure through the exit code
    code, out, _ = run_cli(["verify", "--id", "eq1.15", "--grid", "2x1",
                            "--s", "1/2"], capsys)
    assert code == 1


def test_eval_phi_honours_sign(capsys):
    # phi and phi_signed are one function; both pass --sign
    vals = {}
    for fn in ("phi", "phi_signed"):
        for sign in ("1", "-1"):
            code, out, _ = run_cli(["eval", "--fn", fn, "--tau", "0+1i", "--m", "2",
                                    "--sign", sign], capsys)
            assert code == 0
            vals[fn, sign] = json.loads(out)["value"]
    assert vals["phi", "-1"] == vals["phi_signed", "-1"] != vals["phi", "1"]
    code, out, _ = run_cli(["eval", "--fn", "phi", "--tau", "0+1i", "--m", "2"], capsys)
    assert json.loads(out)["value"] == vals["phi", "1"]


def test_verify_param_narrowing(capsys):
    code, out, _ = run_cli(["verify", "--id", "eq1.15", "--grid", "2x1",
                            "--m", "2", "--s", "0"], capsys)
    assert code == 0


def test_verify_filter_on_n(capsys):
    # the `--n` option filters on the registry key `n`
    code, out, _ = run_cli(["verify", "--id", "lemma4.5", "--n", "1", "--grid", "1x1"],
                           capsys)
    assert code == 0
    assert json.loads(out)["id"] == "lemma4.5"


def test_verify_csv_schema(capsys):
    code, out, _ = run_cli(["verify", "--id", "eq1.4", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,max_abs_err,tol,pass,skipped"
    assert lines[1].startswith("eq1.4,")


def test_verify_usage_error(capsys):
    code, out, err = run_cli(["verify"], capsys)
    assert code == 2


@pytest.mark.parametrize("args", [
    ["eval", "--fn", "theta", "--j", "0", "--m", "1", "--tau", "i", "--z", "50i"],
    ["eval", "--fn", "phi_tilde", "--m", "1", "--s", "0", "--tau", "i",
     "--z1", "0.1+30i", "--z2", "0.2"],
    ["verify", "--id", "eq1.3", "--grid", "9x1"],
    ["verify", "--id", "prop11.15", "--grid", "9x1"],
    ["verify", "--id", "rem12.5", "--grid", "0x1"],
    ["verify", "--id", "prop11.15", "--m", "2"],
    ["eval", "--fn", "psi_tilde", "--tau", "1i", "--z1", "0.1+100000000000000000i",
     "--M", "3", "--m", "2", "--aa", "1", "--bb", "-1"],
    ["eval", "--fn", "psi", "--tau", "1i", "--z1", "0.1+100000000000000000i",
     "--M", "3", "--m", "2", "--aa", "1", "--bb", "-1"],
])
def test_refused_inputs_exit_2(args, capsys):
    # an overflowing series term or prefactor, a truncation cap hit, a grid
    # with more tau values than the fixed tau list or with none, and a
    # filter no parameter set matches are errors, not tracebacks, for the
    # ids with a runner too
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("z", ["", " "])
def test_empty_point_exits_2(z, capsys):
    # an empty --z is a usage error (argparse's own message), not the value
    # at z = 0
    code, out, err = run_cli(["eval", "--fn", "theta", "--j", "1", "--m", "2",
                              "--tau", "0.5i", "--z", z], capsys)
    assert code == 2 and out == "" and "cannot parse complex number" in err


def test_eval_eta_small_im_tau(capsys):
    # eta(0.001i) ~ 6.3e-113 is a value, to its relative precision
    code, out, _ = run_cli(["eval", "--fn", "eta", "--tau", "0.001i"], capsys)
    assert code == 0
    value = json.loads(out)["value"]
    with mpmath.workdps(30):
        ref = complex(mpmath.eta(mpmath.mpc(0, 0.001)))
    assert abs(complex(value["re"], value["im"]) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("tol", ["inf", "nan", "-1e-9"])
def test_bad_tolerance_exits_2(tol, capsys, monkeypatch):
    monkeypatch.setenv("MOCKFORMS_TOL", tol)
    code, out, err = run_cli(["eval", "--fn", "theta", "--j", "0", "--m", "1",
                              "--tau", "i", "--z", "0"], capsys)
    assert code == 2 and out == "" and err.startswith("error: tol must be positive")


def test_family_output(capsys):
    code, out, _ = run_cli(["family", "--family", "n3", "--m=-3/4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["weights"]) == 4
    assert doc["weights"][0]["c"] == "1"


def test_smatrix_output(capsys):
    code, out, _ = run_cli(["smatrix", "--family", "d21a", "--p", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["labels"]) == 4
    assert len(doc["S"]) == 4 and len(doc["S"][0]) == 4
    # fusion triples satisfy i+j+k = 0 mod 2(p+1) in residue labels
    assert all(len(t) == 3 for t in doc["fusion_triples"])


def test_golden_round_trip_eval_vs_qexp(capsys):
    # summing the dumped expansion reproduces eval within the q-order budget
    code, out, _ = run_cli(["qexp", "--fn", "phi", "--m", "1", "--s", "0",
                            "--order", "8"], capsys)
    doc = json.loads(out)
    from fractions import Fraction as F
    import cmath, math

    tau, z1, z2 = 2j, 0.21 + 0.45j, 0.37 + 0.41j
    tot = 0j
    for t in doc["terms"]:
        tot += complex(F(t["re"]), F(t["im"])) * cmath.exp(
            2j * math.pi * (tau * F(t["q"]) + z1 * F(t["z1"]) + z2 * F(t["z2"])))
    code, out, _ = run_cli(["eval", "--fn", "phi", "--m", "1", "--s", "0",
                            "--tau", "0+2i", "--z1", "0.21+0.45i",
                            "--z2", "0.37+0.41i"], capsys)
    val = json.loads(out)["value"]
    assert abs(tot - complex(val["re"], val["im"])) < 1e-10


def test_cli_subprocess_determinism():
    cmd = [sys.executable, "-m", "mockforms.cli", "verify", "--id", "eq1.4",
           "--seed", "1"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.stdout == b.stdout and a.stdout


def test_golden_files():
    import pathlib

    here = pathlib.Path(__file__).parent / "golden"
    for name, args in (("eval_theta.json",
                        ["eval", "--fn", "theta", "--j", "0", "--m", "1",
                         "--tau", "0+1i", "--z", "0"]),
                       ("qexp_theta.json",
                        ["qexp", "--fn", "theta", "--j", "1", "--m", "1",
                         "--order", "4"])):
        expected = (here / name).read_text()
        got = subprocess.run([sys.executable, "-m", "mockforms.cli", *args],
                             capture_output=True, text=True)
        assert got.stdout == expected
