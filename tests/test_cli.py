import argparse
import json
import re
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from mockforms import family_n4
from mockforms.cli import VERIFY_FILTER_KEYS, main, parse_complex
from mockforms.mock import MockIndex, phi1
from mockforms.qkernel import DEFAULT_POLICY
from mockforms.theta import jacobi_theta


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
    # a component may carry an exponent and end in a point
    assert parse_complex("1e-3i") == 1e-3j
    assert parse_complex("-0.5-1e-3i") == complex(-0.5, -1e-3)
    assert parse_complex("2.5e-1+1e-4i") == complex(0.25, 1e-4)
    assert parse_complex("1E2") == 100.0
    assert parse_complex("3.") == 3.0
    assert parse_complex("5.i") == 5j
    # nan, inf, a component past the double range and underscores are refused
    for bad in ("nan", "inf", "-inf", "nani", "1e400i", "1e400", "1e400+1i", "1_0", "1e"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(bad)


@pytest.mark.parametrize("args", [
    ["--tau", "nan"], ["--tau", "inf"], ["--tau", "1_0+1i"],
    # a component past the double range is refused as it is parsed
    ["--tau", "1e400i"], ["--tau", "1i", "--t", "1" + "0" * 400]])
def test_refused_point_exits_2(args, capsys):
    code, out, err = run_cli(["eval", "--fn", "theta", *args], capsys)
    assert code == 2 and out == "" and "complex number" in err


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


def test_verify_filters_compare_values(capsys):
    # a filter is a rational number, so each spelling of one value selects
    # the same parameter sets
    runs = [run_cli(["verify", "--id", "eq1.14", "--s", s], capsys) for s in ("0.5", "1/2")]
    assert runs[0][0] == runs[1][0] == 0
    assert runs[0][1] == runs[1][1] and json.loads(runs[0][1])["id"] == "eq1.14"
    assert run_cli(["verify", "--id", "eq1.14", "--m", "1.0"], capsys)[1] == \
        run_cli(["verify", "--id", "eq1.14", "--m", "1"], capsys)[1]
    code, out, err = run_cli(["verify", "--id", "eq1.14", "--s", "abc"], capsys)
    assert code == 2 and out == "" and "cannot parse rational number" in err


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


def test_verify_filter_metavars_are_distinct(capsys):
    # argparse upper-cases a dest into its metavar, so --m and --M would
    # both print PARAM_M
    code, out, _ = run_cli(["verify", "--help"], capsys)
    assert code == 0
    metavars = dict(re.findall(r"\[--(\w+) (\w+)\]", out.split("\n\n")[0]))
    shown = [metavars[key] for key in VERIFY_FILTER_KEYS]
    assert len(set(shown)) == len(shown) == 7


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


def test_verify_tag_in_process(capsys):
    # one JSON report per id of the tag, in registry order
    from mockforms import verifier

    code, out, _ = run_cli(["verify", "--tag", "theta"], capsys)
    assert code == 0
    ids = [i for i in verifier.registry_ids() if verifier.get_spec(i).tag == "theta"]
    assert ids and [json.loads(line)["id"] for line in out.splitlines()] == ids
    code, out, err = run_cli(["verify", "--tag", "nope"], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["eval", "--fn", "theta", "--j", "0", "--m", "1", "--tau", "i", "--z", "50i"],
    # a lattice coordinate Im z1 / Im tau past 2^52: no multiple of tau to
    # pull out through the elliptic law
    ["eval", "--fn", "phi_tilde", "--m", "1", "--s", "0", "--tau", "i",
     "--z1", "0.1+100000000000000000i", "--z2", "0.2"],
    ["verify", "--id", "eq1.3", "--grid", "9x1"],
    ["verify", "--id", "prop11.15", "--grid", "9x1"],
    ["verify", "--id", "rem12.5", "--grid", "0x1"],
    ["verify", "--id", "prop11.15", "--m", "2"],
    # a tag runs its ids on their default grids, unfiltered: a grid, a
    # filter or a second selector beside it would be dropped silently
    ["verify", "--tag", "theta", "--grid", "2x2"],
    ["verify", "--tag", "theta", "--m", "2"],
    ["verify", "--tag", "theta", "--id", "eq1.3"],
    ["eval", "--fn", "psi_tilde", "--tau", "1i", "--z1", "0.1+100000000000000000i",
     "--M", "3", "--m", "2", "--aa", "1", "--bb", "-1"],
    ["eval", "--fn", "psi", "--tau", "1i", "--z1", "0.1+100000000000000000i",
     "--M", "3", "--m", "2", "--aa", "1", "--bb", "-1"],
    # a rational with a zero denominator
    ["eval", "--fn", "theta", "--tau", "1i", "--m", "1/0"],
    ["qexp", "--fn", "theta", "--order", "1/0"],
    ["family", "--family", "n3", "--m", "1/0"],
    # a t whose factor e(m t) overflows
    ["eval", "--fn", "theta", "--tau", "1i", "--t=-100000i"],
])
def test_refused_inputs_exit_2(args, capsys):
    # an overflowing series term or prefactor, a truncation cap hit, a grid
    # with more tau values than the fixed tau list or with none, and a
    # filter no parameter set matches are errors, not tracebacks, for the
    # ids with a runner too
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


# Run in a child interpreter under a 1 GiB address-space limit: an
# expansion that forms its terms before refusing them fails the test with a
# MemoryError or the timeout, instead of exhausting the machine.
MEMORY_LIMIT = ("import resource\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n")
BOUNDED_CLI = MEMORY_LIMIT + "import sys\nfrom mockforms.cli import main\nsys.exit(main(sys.argv[1:]))\n"


@pytest.mark.parametrize("args", [
    ["--fn", "phi", "--m", "1", "--s", "0"],
    ["--fn", "phi1", "--m", "1/2", "--s", "1/2"],
    ["--fn", "theta", "--j", "1", "--m", "2"],
    ["--fn", "jacobi", "--a", "1", "--b", "0"],
])
def test_qexp_at_a_huge_order_exits_2(args):
    # 1e400 parses to 10^400 exactly; each expansion counts its terms from
    # the order, in ints, and refuses before forming the first
    got = subprocess.run([sys.executable, "-c", BOUNDED_CLI, "qexp", *args, "--order", "1e400"],
                         capture_output=True, text=True, timeout=30)
    assert got.returncode == 2 and got.stdout == "", got.stderr
    assert got.stderr.startswith("error: ") and "terms" in got.stderr


def test_eta_power_at_a_huge_order_is_refused():
    # the eta expansion is not a qexp function; its count comes before the
    # pentagonal series, whose range alone is as long as the order
    code = ("from fractions import Fraction\n"
            "from mockforms.formal import expand_eta_quotient\n"
            "from mockforms.qkernel import TruncationOverflowError\n"
            "try:\n"
            "    expand_eta_quotient(24, Fraction(10) ** 400)\n"
            "except TruncationOverflowError:\n"
            "    print('refused')\n")
    got = subprocess.run([sys.executable, "-c", MEMORY_LIMIT + code],
                         capture_output=True, text=True, timeout=30)
    assert got.returncode == 0 and got.stdout == "refused\n", got.stderr


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


# Beside qexp_theta.json: the exact expansions of Phi_1, Phi and theta_11
# (coefficients +-i) at two orders, pinned byte for byte.
QEXP_GOLDENS = {"phi1": ["--m", "1", "--s", "0"],
                "phi": ["--m", "3/2", "--s", "1/2"],
                "jacobi": ["--a", "1", "--b", "1"]}


@pytest.mark.parametrize("fn", sorted(QEXP_GOLDENS))
@pytest.mark.parametrize("order", ["4", "8"])
def test_qexp_golden_files(capsys, fn, order):
    import pathlib

    expected = (pathlib.Path(__file__).parent / "golden" / f"qexp_{fn}_{order}.json").read_text()
    code, out, _ = run_cli(["qexp", "--fn", fn, *QEXP_GOLDENS[fn], "--order", order], capsys)
    assert code == 0 and out == expected


@pytest.mark.parametrize("args", [
    ["eval", "--fn", "eta", "--tau", "-0.5+1e-3i"],
    ["eval", "--fn", "phi", "--tau", "1i", "--s", "-1/2"],
    ["eval", "--fn", "phi", "--tau", "1i", "--z1", "-0.1+0.2i"],
    ["family", "--family", "n3", "--m", "-3/4"],
    ["verify", "--id", "th4.11", "--m", "-3/4"],
])
def test_negative_value_after_a_space(args, capsys):
    # argparse alone takes "-3/4" or "-0.5+1e-3i" for an option unless the
    # value is joined to its option by "="; both spellings give one output
    joined = args[:-2] + [args[-2] + "=" + args[-1]]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and out and not err
    assert run_cli(joined, capsys) == (code, out, err)


def test_unknown_option_with_a_negative_value_exits_2(capsys):
    for tail in (["--bogus", "-3/4"], ["--bogus"]):
        code, out, err = run_cli(["eval", "--fn", "eta", "--tau", "1i", *tail], capsys)
        assert code == 2 and out == "" and "unrecognized arguments: --bogus" in err


@pytest.mark.parametrize("args, kernel", [
    (["--fn", "jacobi", "--a", "1", "--b", "0", "--tau", "0.1+0.9i", "--z", "0.19+0.07i"],
     lambda: jacobi_theta(1, 0, 0.1 + 0.9j, 0.19 + 0.07j, DEFAULT_POLICY)),
    (["--fn", "phi1", "--m", "3/2", "--s", "1/2", "--tau", "0.1+0.9i",
      "--z1", "0.23+0.04i", "--z2", "0.37-0.06i"],
     lambda: phi1(MockIndex.of(Fraction(3, 2), Fraction(1, 2)), 0.1 + 0.9j,
                  0.23 + 0.04j, 0.37 - 0.06j, DEFAULT_POLICY)),
])
def test_eval_matches_the_kernel_to_the_bit(args, kernel, capsys, monkeypatch):
    monkeypatch.delenv("MOCKFORMS_TOL", raising=False)
    code, out, _ = run_cli(["eval", *args], capsys)
    v = kernel()
    assert code == 0 and json.loads(out)["value"] == {"re": v.real, "im": v.imag}


def test_family_n4_matches_the_module(capsys):
    code, out, _ = run_cli(["family", "--family", "n4", "--m", "-2"], capsys)
    assert code == 0
    want = [{"label": w.label(), **{k: str(v) if isinstance(v, Fraction) else v
                                    for k, v in family_n4.qhr_characteristics(w).items()}}
            for w in family_n4.enumerate_weights(-2)]
    assert json.loads(out) == {"family": "n4", "weights": want} and len(want) == 3


def test_family_n4_reads_m_as_n3_does(capsys):
    # --m is a rational for both families; N=4 takes an integral one
    assert run_cli(["family", "--family", "n4", "--m=-2/1"], capsys) \
        == run_cli(["family", "--family", "n4", "--m", "-2"], capsys)
    code, out, err = run_cli(["family", "--family", "n4", "--m", "-5/2"], capsys)
    assert code == 2 and out == "" and "is not an integer" in err


@pytest.mark.parametrize("args, message", [
    (["family", "--family", "n5"], "unknown family n5"),
    (["smatrix", "--family", "n3", "--p", "1"], "smatrix is available for the d21a"),
])
def test_unknown_family_exits_2(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == "" and message in err


# The j = 2, 3 rows of d21a at (p, q, n) = (2, 1, 2), the smallest input
# that reaches those branches of level_zero_label and qhr_characteristics,
# pinned as the code gives them today: nothing in the repository derives
# them independently, so this guards against change, not for correctness.
# label tail: (h, h_tw, s2, s3, s2_tw, s3_tw, vanishes); c = 5 on every row
D21A_J23 = {
    "j=2:m2=0:m3=0": ("-1/2", "1/4", "0", "0", "0", "3/2", False),
    "j=2:m2=0:m3=1": ("-1/8", "1/8", "0", "1/2", "0", "1", False),
    "j=2:m2=0:m3=2": ("1/3", "1/12", "0", "1", "0", "1/2", False),
    "j=3:m2=0:m3=0": ("-1/6", "7/12", "0", "0", "0", "3/2", False),
    "j=3:m2=0:m3=1": ("-1/8", "1/8", "0", "1/2", "0", "1", False),
    "j=3:m2=0:m3=2": ("0", "-1/4", "0", "1", "0", "1/2", False),
}


def test_family_d21a_j2_j3_rows(capsys):
    code, out, _ = run_cli(["family", "--family", "d21a", "--p", "2", "--q", "1", "--n", "2"],
                           capsys)
    assert code == 0
    rows = {}
    for row in json.loads(out)["weights"]:
        head, _, tail = row.pop("label").partition(":j=")
        assert head == "d21a:p=2:q=1:n=2" and row.pop("c") == "5"
        if tail[0] in "23":
            rows["j=" + tail] = tuple(row.values())
    assert rows == D21A_J23
