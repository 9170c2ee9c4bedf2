"""Acceptance suite.

One test per criterion, each printing a pass/fail line.  Every tolerance is
pinned here.  Criterion 3 includes the half-integer-index instances of the
shift/S/T laws exactly as stated; those three instances are genuinely
unattainable (see the analysis in the repository notes: the series turns
into its signed variant under the relevant shifts), so their sub-tests are
expected to stay red while everything else is green.
"""

import subprocess
import sys
from fractions import Fraction as F

import pytest

from mockforms.qkernel import TruncationPolicy
import mockforms.verifier as V

P = TruncationPolicy()


def _run(identity, grid=None, flt=None):
    return V.verify(identity, grid=grid, policy=P, seed=1, param_filter=flt)


def report(criterion, ok, detail=""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


# --- criterion 1: theta suite ------------------------------------------------

def test_criterion_1_theta_suite():
    worst = 0.0
    for ident in ("eq1.2a", "eq1.2b", "eq1.3", "eq1.4", "eq1.5", "eq1.6", "eq1.7"):
        r = _run(ident, grid=(5, 5))
        worst = max(worst, r.max_abs_err)
        assert r.passed, ident
    ok = worst <= 1e-9
    tp = _run("theta.triple", grid=(5, 5))
    ok = ok and tp.max_abs_err <= 1e-12
    report("1 theta suite", ok, f"worst={worst:.2e}, triple={tp.max_abs_err:.2e}")


# --- criterion 2: mock/doubling ----------------------------------------------

def test_criterion_2_mock_doubling():
    r1 = _run("lemma1.1")
    ok = r1.passed and r1.max_abs_err <= 1e-10

    from mockforms.formal import ZArg, expand_phi, series_equal, GRat

    lhs = expand_phi(1, 0, 10, tau_scale=2).scale(GRat(F(2)))
    rhs = (expand_phi(2, 0, 10, 1, ZArg.of(F(1, 2), 0), ZArg.of(0, F(1, 2)))
           + expand_phi(2, 0, 10, 1, ZArg.of(F(1, 2), 0, F(1, 2)),
                        ZArg.of(0, F(1, 2), F(-1, 2))))
    eq, _ = series_equal(lhs, rhs, zwindow=10)
    ok = ok and eq

    r2 = _run("rem1.3-phi")
    ok = ok and r2.passed and r2.max_abs_err <= 1e-10
    r3 = _run("eq5.04")
    ok = ok and r3.passed and r3.max_abs_err <= 1e-10
    r4 = _run("eq5.04x")
    ok = ok and r4.passed  # the recorded losing convention must fail visibly
    report("2 mock/doubling", ok,
           f"num={r1.max_abs_err:.2e}, closed={r3.max_abs_err:.2e}, formal exact")


# --- criterion 3: modification suite -----------------------------------------

@pytest.mark.parametrize("ident", ["eq1.13", "eq1.14", "eq1.15", "eq1.16"])
@pytest.mark.parametrize("s", [0, F(1, 2)])
def test_criterion_3_laws(ident, s):
    worst = 0.0
    for m in (1, 2, 3):
        r = _run(ident, grid=(3, 2), flt={"m": m, "s": s})
        worst = max(worst, r.max_abs_err)
    ok = worst <= 1e-6
    report(f"3 {ident} s={s}", ok, f"worst={worst:.2e}")


def test_criterion_3_rest():
    r0 = _run("phi_add.m1")
    ok = r0.passed and r0.max_abs_err == 0.0
    r1 = _run("sindep")
    ok = ok and r1.max_abs_err <= 1e-10
    r2 = _run("eq1.17")
    r3 = _run("eq1.18")
    ok = ok and r2.max_abs_err <= 1e-6 and r3.max_abs_err <= 1e-6
    report("3 corrections/indices", ok,
           f"add0={r0.max_abs_err:g}, sindep={r1.max_abs_err:.2e}, "
           f"S={r2.max_abs_err:.2e}, T={r3.max_abs_err:.2e}")


# --- criterion 4: N=3 suite ---------------------------------------------------

def test_criterion_4_n3():
    ok = True
    msgs = []
    for ident, tol in (("prop4.6a", 1e-6), ("prop4.6b", 1e-6),
                       ("lemma4.4", 1e-6), ("lemma4.5", 1e-6),
                       ("eq4.23", 1e-6), ("eq4.24", 1e-6), ("eq4.25", 1e-6)):
        r = _run(ident)
        ok = ok and r.max_abs_err <= tol
        msgs.append(f"{ident}={r.max_abs_err:.1e}")
    for which in (5, 6, 7, 8, 9, 10):
        r = _run(f"eq5.{which:02d}")
        ok = ok and r.max_abs_err <= 1e-9
    r = _run("n3.c1", grid=(3, 2))
    ok = ok and r.max_abs_err <= 1e-8
    msgs.append(f"c1={r.max_abs_err:.1e}")
    report("4 N=3 suite", ok, " ".join(msgs))


# --- criterion 5: N=4 suite ---------------------------------------------------

def test_criterion_5_n4():
    ok = True
    msgs = []
    for ident, tol in (("prop7.2", 1e-6), ("th7.3b", 1e-6), ("prop8.7", 1e-6),
                       ("th9.7", 1e-6), ("rem8.6", 1e-10), ("rem9.5", 1e-10)):
        r = _run(ident)
        ok = ok and r.max_abs_err <= tol
        msgs.append(f"{ident}={r.max_abs_err:.1e}")
    # analytic vs finite-difference derivative
    import math

    from mockforms.mock import MockIndex
    from mockforms.modification import phi_tilde, phi_tilde_d0

    tau, z1, z2 = 0.9j + 0.1, 0.23 + 0.04j, 0.37 - 0.06j
    idx = MockIndex.of(2, 0)

    def wirt(f, x, h):
        return 0.5 * ((f(x + h) - f(x - h)) / (2 * h)
                      - 1j * (f(x + 1j * h) - f(x - 1j * h)) / (2 * h))

    def d0_fd(h):
        f1 = lambda a: phi_tilde(idx, tau, a, z2, 0.0, P)
        f2 = lambda b: phi_tilde(idx, tau, z1, b, 0.0, P)
        return (wirt(f1, z1, h) - wirt(f2, z2, h)) / (2j * math.pi)

    rich = (4 * d0_fd(5e-6) - d0_fd(1e-5)) / 3
    _, der = phi_tilde_d0(idx, tau, z1, z2, P)
    ok = ok and abs(der - rich) <= 1e-7
    msgs.append(f"D0fd={abs(der - rich):.1e}")
    # the broken alternative twist must fail visibly
    r = _run("rem7.4x")
    ok = ok and r.passed and r.max_abs_err > 1e-2
    msgs.append(f"badtwist={r.max_abs_err:.1e}")
    report("5 N=4 suite", ok, " ".join(msgs))


# --- criterion 6: D(2,1;a) suite ----------------------------------------------

def test_criterion_6_d21a():
    ok = True
    msgs = []
    r = _run("eq10.15")
    ok = ok and r.passed
    for ident, tol in (("lemma10.12", 1e-8), ("prop10.21", 1e-6),
                       ("lemma11.8", 1e-6), ("prop11.14", 1e-6),
                       ("eq11.13", 1e-8), ("eq11.14", 1e-8),
                       ("rem11.13", 1e-8), ("prop12.4a", 1e-6)):
        r = _run(ident)
        ok = ok and r.max_abs_err <= tol
        msgs.append(f"{ident}={r.max_abs_err:.1e}")
    r = _run("rem12.5")
    ok = ok and r.passed and r.max_abs_err == 0.0
    report("6 D(2,1;a) suite", ok, " ".join(msgs))


# --- criterion 7: boundedness probe --------------------------------------------

def test_criterion_7_boundedness_probe():
    r = _run("prop11.15")
    ok = r.passed and r.max_abs_err <= 10.0
    report("7 boundedness probe", ok, f"max/median={r.max_abs_err:.3f}")


# --- criterion 8: determinism ---------------------------------------------------

def test_criterion_8_determinism():
    cmd = [sys.executable, "-m", "mockforms.cli", "verify", "--tag", "all",
           "--seed", "1"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    ok = a.stdout == b.stdout and len(a.stdout) > 0
    report("8 determinism", ok, f"{len(a.stdout)} bytes")
