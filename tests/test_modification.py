import math
from fractions import Fraction as F

import pytest

from mockforms.qkernel import SQRT_PI, HalfInt, TruncationPolicy, e2pi
from mockforms.mock import MockIndex, PsiIndex, phi
from mockforms.modification import (
    CorrectionIndex,
    phi1_add,
    phi1_tilde,
    phi_add,
    phi_add_d0,
    phi_tilde,
    phi_tilde_reduced,
    psi_tilde,
    psi_tilde_d0,
    psi_tilde_reduced,
    r_correction,
    r_correction_dv,
    s_independence_report,
)
from mockforms.theta import ThetaIndex, theta_jm

P = TruncationPolicy()
TAU, Z1, Z2 = 0.9j + 0.15, 0.22 + 0.05j, 0.31 - 0.08j


def brute_r(j, m, tau, v, N=400):
    tot = 0.0j
    for k in range(-N, N + 1):
        n = j + 2 * m * k
        sgn = 1.0 if k >= 0 else -1.0
        x = (n - 2 * m * v.imag / tau.imag) * math.sqrt(tau.imag / m)
        br = math.erfc(sgn * SQRT_PI * x)
        if br == 0.0:
            continue
        w = -n * n * tau / (4.0 * m) + n * v
        mag = math.log(br) - 2 * math.pi * w.imag
        if mag < -745:
            continue
        r = math.exp(mag)
        ph = 2 * math.pi * w.real
        tot += sgn * complex(r * math.cos(ph), r * math.sin(ph))
    return tot


def test_r_reference_summation():
    v = 0.1 + 0.2j
    ref = brute_r(0, 1, 2j, v)
    val = r_correction(CorrectionIndex.of(0, 1), 2j, v, P)
    assert abs(val - ref) < 1e-13


def test_r_term_decay_scan():
    # beyond the turning index the term magnitudes decrease monotonically
    j, m, tau, v = 1, 2, 1.1j, 0.15 + 0.1j
    n_star = 2 * m * v.imag / tau.imag
    mags = []
    for k in range(3, 9):
        n = j + 2 * m * k
        x = (n - n_star) * math.sqrt(tau.imag / m)
        # log |term| via the erfc asymptotics once erfc underflows
        b = math.erfc(SQRT_PI * x)
        logb = math.log(b) if b > 0 else (-math.pi * x * x
                                          - math.log(math.pi * max(x, 1.0)))
        w = -n * n * tau / (4.0 * m) + n * v
        mags.append(logb - 2 * math.pi * w.imag)
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_phi_add_degree_one_zero():
    for s in (0, 1, 3):
        assert phi_add(MockIndex.of(1, s), TAU, Z1, Z2, 0.0, P) == 0.0


def test_phi_add_refinement_oracle():
    idx = MockIndex.of(2, 0)
    coarse = phi_add(idx, 1.5j, 0.2, 0.1, 0.0, P)
    fine = phi_add(idx, 1.5j, 0.2, 0.1, 0.0, TruncationPolicy(tol=1e-15, n_max=8000))
    assert abs(coarse - fine) < 1e-12


def pair_diff_reference(j, m, tau, z):
    """(Theta_{-j,m} - Theta_{j,m})(tau, z), exactly 0 when -j == j mod 2m."""
    if F(-j.twice, 2 * m.twice) % 1 == F(j.twice, 2 * m.twice) % 1:
        return 0.0 + 0.0j
    return (theta_jm(ThetaIndex.of(-j, m), tau, z, 0.0, P)
            - theta_jm(ThetaIndex.of(j, m), tau, z, 0.0, P))


def phi_add_reference(idx, tau, z1, z2, t):
    """Phi_add and its D0 value the plain way: one theta difference per
    window index j = s, ..., s+2m-1, in window order."""
    v = (z1 - z2) / 2.0
    val = der = tot = 0.0 + 0.0j
    for r in range(idx.m.twice):
        j = HalfInt(idx.s.twice + 2 * r)
        tj = pair_diff_reference(j, idx.m, tau, z1 + z2)
        if tj == 0:
            continue
        cidx = CorrectionIndex.of(j, idx.m)
        tot += r_correction(cidx, tau, v, P) * tj
        rv, rd = r_correction_dv(cidx, tau, v, P)
        val += rv * tj
        der += rd * tj
    tot *= 0.5
    if t != 0:
        tot *= e2pi(float(idx.m) * t)
    return tot, (0.5 * val, 0.5 * der)


@pytest.mark.parametrize("m", [F(1, 2), 1, F(3, 2), 2, 3])
@pytest.mark.parametrize("s", [0, F(1, 2), 1, F(-3, 2)])
def test_phi_add_window_matches_pairwise_reference(m, s):
    # each Theta_{r,m} is summed once for the whole window; values must not
    # move by a bit against one pairwise difference per index
    idx = MockIndex.of(m, s)
    for tau, z1, z2, t in ((TAU, Z1, Z2, 0.0), (-0.35 + 0.7j, 0.13 - 0.21j, 0.06 + 0.37j, 0.2)):
        ref, ref_d0 = phi_add_reference(idx, tau, z1, z2, t)
        assert phi_add(idx, tau, z1, z2, t, P) == ref
        assert phi_add_d0(idx, tau, z1, z2, P) == ref_d0


def test_phi_add_window_shift_vs_tilde():
    # the correcting sum itself moves under s -> s + 2m (the sgn window
    # travels); the modified assembly is what stays fixed
    idx0, idx1 = MockIndex.of(2, 0), MockIndex.of(2, 4)
    a0 = phi_add(idx0, TAU, Z1, Z2, 0.0, P)
    a1 = phi_add(idx1, TAU, Z1, Z2, 0.0, P)
    assert abs(a0 - a1) > 1.0
    t0 = phi_tilde(idx0, TAU, Z1, Z2, 0.0, P)
    t1 = phi_tilde(idx1, TAU, Z1, Z2, 0.0, P)
    assert abs(t0 - t1) < 1e-10


def test_modification_laws_integer_index():
    for (m, s) in ((1, 0), (2, 0), (3, 1)):
        idx = MockIndex.of(m, s)
        f = lambda tt, a, b, t: phi_tilde(idx, tt, a, b, t, P)
        t = 0.02 - 0.01j
        assert abs(f(TAU, Z1 + 1, Z2 - 2, t) - f(TAU, Z1, Z2, t)) < 1e-12
        a, b = 1, -1
        lhs = f(TAU, Z1 + a * TAU, Z2 + b * TAU, t)
        rhs = e2pi(-m * a * b * TAU - m * (b * Z1 + a * Z2)) * f(TAU, Z1, Z2, t)
        assert abs(lhs - rhs) < 1e-12
        lhs = f(-1 / TAU, Z1 / TAU, Z2 / TAU, t - Z1 * Z2 / TAU)
        assert abs(lhs - TAU * f(TAU, Z1, Z2, t)) < 1e-12
        assert abs(f(TAU + 1, Z1, Z2, t) - f(TAU, Z1, Z2, t)) < 1e-12


def test_half_index_laws_fail_as_recorded():
    # the half-integer index family genuinely breaks the shift and T laws
    # (the shift by tau+1 turns the series into its signed variant)
    idx = MockIndex.of(2, F(1, 2))
    f = lambda tt, a, b: phi_tilde(idx, tt, a, b, 0.0, P)
    assert abs(f(TAU, Z1 + 1, Z2 - 2) - f(TAU, Z1, Z2)) > 1e-3
    assert abs(f(TAU + 1, Z1, Z2) - f(TAU, Z1, Z2)) > 1e-4


def test_phi1_tilde_assembly_and_sign_convention():
    idx = MockIndex.of(2, 0)
    t = 0.05
    lhs = e2pi(2 * t) * (phi1_tilde(idx, TAU, Z1, Z2, P)
                         - phi1_tilde(idx, TAU, -Z2, -Z1, P))
    assert abs(lhs - phi_tilde(idx, TAU, Z1, Z2, t, P)) < 1e-12
    # the losing sign convention for the one-sided correction breaks the
    # S-law; recorded rather than silently discarded
    bad = lambda tt, a, b: (phi_tilde(idx, tt, a, b, 0.0, P)
                            - phi_add(idx, tt, a, b, 0.0, P)
                            - 2 * phi1_add(idx, tt, a, b, P))
    good = lambda tt, a, b: phi1_tilde(idx, tt, a, b, P)
    sgood = abs(good(-1 / TAU, Z1 / TAU, Z2 / TAU) * e2pi(-2 * Z1 * Z2 / TAU)
                - TAU * good(TAU, Z1, Z2))
    assert sgood < 1e-10


def test_s_independence_report():
    assert s_independence_report(2, [0, 1, 2]) < 1e-10
    assert s_independence_report(1, [0, 1, 2]) < 1e-13
    assert s_independence_report(2, [0, F(1, 2)]) > 1e-3


def test_psi_tilde_reduces_to_psi_at_degree_one():
    from mockforms.mock import psi

    idx = PsiIndex.of(3, 1, 0, F(1, 2), 1, -1)
    a = psi_tilde(idx, TAU, Z1, Z2, 0.0, P)
    b = psi(idx, TAU, Z1, Z2, 0.0, P)
    assert abs(a - b) < 1e-13


def psi_tilde_d0_reference(idx, tau, z1, z2):
    """(value, D0 value) of Psi-tilde with the wrapper frame written out."""
    from mockforms.modification import phi_tilde_d0

    m = float(idx.m)
    a, b, eps = float(idx.a), float(idx.b), float(idx.eps)
    M = idx.M
    pref = e2pi(m * a * b * tau / M + (m / M) * (b * z1 + a * z2))
    v, d = phi_tilde_d0(MockIndex(idx.m, idx.s), M * tau,
                        z1 + a * tau + eps, z2 + b * tau + eps, P)
    return pref * v, pref * ((m * (b - a) / M) * v + d)


@pytest.mark.parametrize("M", [1, 3, 5])
def test_psi_tilde_d0_matches_frame_reference(M):
    # the wrappers share one frame helper; values must not move by a bit
    for eps, a, b in ((0, 1, -1), (F(1, 2), F(1, 2), F(-3, 2)), (F(1, 2), 2, 0)):
        idx = PsiIndex.of(M, 2, 1, eps, a, b)
        for tau, z1, z2 in ((TAU, Z1, Z2), (-0.35 + 0.7j, 0.13 - 0.21j, 0.06 + 0.37j)):
            assert psi_tilde_d0(idx, tau, z1, z2, P) == psi_tilde_d0_reference(idx, tau, z1, z2)


def test_reduced_evaluators_match():
    idx = MockIndex.of(2, 0)
    a = phi_tilde_reduced(idx, TAU, Z1 + 2 * TAU, Z2 - TAU, 0.03, P)
    b = phi_tilde(idx, TAU, Z1 + 2 * TAU, Z2 - TAU, 0.03, P)
    assert abs(a - b) / max(1.0, abs(a)) < 1e-10
    pidx = PsiIndex.of(3, 2, 0, F(1, 2), 2, -1)
    a = psi_tilde_reduced(pidx, TAU, Z1, Z2, 0.02, P)
    b = psi_tilde(pidx, TAU, Z1, Z2, 0.02, P)
    assert abs(a - b) / max(1.0, abs(a)) < 1e-10


def test_wirtinger_derivative_oracle():
    # analytic termwise derivative vs Richardson-extrapolated Wirtinger
    # differences of the real-analytic modification
    from mockforms.modification import phi_tilde_d0

    idx = MockIndex.of(2, 0)

    def wirt(f, x, h):
        return 0.5 * ((f(x + h) - f(x - h)) / (2 * h)
                      - 1j * (f(x + 1j * h) - f(x - 1j * h)) / (2 * h))

    def d0_fd(h):
        f1 = lambda a: phi_tilde(idx, TAU, a, Z2, 0.0, P)
        f2 = lambda b: phi_tilde(idx, TAU, Z1, b, 0.0, P)
        return (wirt(f1, Z1, h) - wirt(f2, Z2, h)) / (2j * math.pi)

    rich = (4 * d0_fd(5e-6) - d0_fd(1e-5)) / 3
    _, der = phi_tilde_d0(idx, TAU, Z1, Z2, P)
    assert abs(der - rich) < 1e-7


def test_degree_one_modification_is_trivial():
    idx = MockIndex.of(1, 0)
    a = phi_tilde(idx, TAU, Z1, Z2, 0.04, P)
    b = phi(idx, TAU, Z1, Z2, 0.04, P)
    assert a == b
