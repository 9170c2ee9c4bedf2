import itertools
import math
from fractions import Fraction as F

import pytest

from mockforms.qkernel import SQRT_PI, HalfInt, TruncationPolicy, e2pi
from mockforms.mock import MockIndex, PsiIndex, _phi1_core, phi, phi1
from mockforms.modification import (
    _lattice_shift,
    phi1_tilde,
    phi_add,
    phi_tilde,
    psi_tilde,
    r_window,
)
from mockforms.theta import ThetaIndex, theta_jm
from oracle_refs import oracle, phi_add_d0_reference, phi_d0_reference

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
    val = r_window(0.0, 1.0, 2j, v, P, buckets=(0,))[0]
    assert abs(val - ref) < 1e-13


def test_r_window_refuses_a_bad_index():
    # as for every index of the package: m a positive half-integer, s a
    # half-integer
    for s, m in ((0.5, 0.0), (0.5, -1.0), (0.3, 1.0), (0.5, 0.75), (0.5, math.nan)):
        with pytest.raises(ValueError):
            r_window(s, m, 1j, 0.1, P)
    # and buckets a nonempty tuple of r in 0, ..., 2m-1, every entry checked
    for m, buckets in ((1, ()), (1, (5,)), (1, (2,)), (1, (-1,)), (1.5, (0, 3)), (1, (3, 0)),
                       (1.5, (0, 4, 2))):
        with pytest.raises(ValueError):
            r_window(0, m, 1j, 0.1, P, buckets=buckets)
    # entries out of order are still summed, each as in the full window
    assert r_window(0, 1, 1j, 0.1, P, buckets=(1, 0)) == r_window(0, 1, 1j, 0.1, P)


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
        jf, mf = float(j), float(idx.m)
        tot += r_window(jf, mf, tau, v, P, buckets=(0,))[0] * tj
        rv, rd = r_window(jf, mf, tau, v, P, True, (0,))
        val += rv[0] * tj
        der += rd[0] * tj
    tot *= 0.5
    if t != 0:
        tot *= e2pi(float(idx.m) * t)
    return tot, (0.5 * val, 0.5 * der)


def within(value, ref, cond):
    bound = P.tol + oracle.ROUNDING_ULPS * oracle.EPS * cond
    assert abs(value - complex(ref)) <= bound, (value, ref, bound)


@pytest.mark.parametrize("m", [F(1, 2), 1, F(3, 2), 2, 3])
@pytest.mark.parametrize("s", [0, F(1, 2), 1, F(-3, 2)])
def test_phi_add_window_matches_pairwise_reference(m, s):
    # each Theta_{r,m} is summed once and every R comes from one walk over
    # the window, in another order than one series per index: the values
    # agree with one pairwise difference per index, and with the mpmath
    # oracle, within tol + 64 eps cond.  The window D0 is checked inside
    # the D0 pair of phi_tilde, next to the Appell D0 of its own two
    # termwise walks.
    idx = MockIndex.of(m, s)
    fm, fs = float(idx.m), float(idx.s)
    for tau, z1, z2, t in ((TAU, Z1, Z2, 0.0), (-0.35 + 0.7j, 0.13 - 0.21j, 0.06 + 0.37j, 0.2)):
        ref, (ref_v, ref_d) = phi_add_reference(idx, tau, z1, z2, t)
        mp_ref, cond = oracle.phi_add(m, s, tau, z1, z2)
        value = phi_add(idx, tau, z1, z2, t, P)
        within(value, ref, cond)
        within(value, e2pi(float(m) * t) * complex(mp_ref), cond)
        v0, d0 = phi_tilde(idx, tau, z1, z2, 0.0, P, want_d0=True)
        assert v0 == phi_tilde(idx, tau, z1, z2, 0.0, P)
        va, da = _phi1_core(fm, fs, tau, z1, z2, P, want_d0=True)
        vb, db = _phi1_core(fm, fs, tau, -z2, -z1, P, want_d0=True)
        (mp_v, cond_v), (mp_da, cond_da) = phi_d0_reference(m, s, tau, z1, z2)
        mp_d, cond_d = phi_add_d0_reference(m, s, tau, z1, z2)
        within(v0, (va - vb) + ref_v, cond_v + cond)
        within(v0, mp_v + mp_ref, cond_v + cond)
        within(d0, (da - db) + ref_d, cond_da + cond_d)
        within(d0, mp_da + mp_d, cond_da + cond_d)


@pytest.mark.parametrize("s, m, tau, v", [
    (0.5, 1.5, 0.2 + 0.7j, 0.13 + 0.21j),
    (-1.5, 2, 0.4 + 1e-3j, 0.2 - 0.004j),
    (1, 3, -7.3 + 0.05j, 0.3 - 0.02j),
    (2, 2, 1j, 0.1 + 25j),
    # a run that holds one term in one of the calls and more in another
    (3, 1.5, 0.24 + 1.92j, -0.66 + 3.41j),
    (0.5, 1.5, 0.22 + 0.053j, -0.05 + 0.617j),
])
def test_r_window_values_do_not_depend_on_what_else_it_sums(s, m, tau, v):
    # a term is formed the same way whatever the walk sums besides it: a
    # window over fewer series, or with the derivatives, gives the same
    # values to the bit, and 0 for a series it leaves out
    full = r_window(s, m, tau, v, P)
    width = len(full)
    for buckets in [(r,) for r in range(width)] + [tuple(range(0, width, 2))]:
        part = r_window(s, m, tau, v, P, buckets=buckets)
        assert [part[r] for r in buckets] == [full[r] for r in buckets]
        assert all(part[r] == 0 for r in range(width) if r not in buckets)
    values, _ = r_window(s, m, tau, v, P, want_dv=True)
    assert values == full


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
    # S-law; recorded rather than silently discarded.  Phi_1,add is
    # Phi_1-tilde - Phi_1.
    phi1_add = lambda tt, a, b: phi1_tilde(idx, tt, a, b, P) - phi1(idx, tt, a, b, P)
    bad = lambda tt, a, b: (phi_tilde(idx, tt, a, b, 0.0, P)
                            - phi_add(idx, tt, a, b, 0.0, P)
                            - 2 * phi1_add(tt, a, b))
    good = lambda tt, a, b: phi1_tilde(idx, tt, a, b, P)
    s_law = lambda f: abs(f(-1 / TAU, Z1 / TAU, Z2 / TAU) * e2pi(-2 * Z1 * Z2 / TAU)
                          - TAU * f(TAU, Z1, Z2))
    assert s_law(good) < 1e-10
    assert s_law(bad) > 1e-3


def test_phi_tilde_is_independent_of_integer_s():
    # the largest pairwise deviation of Phi-tilde^{[m;s]} across the s values
    # on a fixed grid: integer s agree, a half-integer s need not
    def spread(m, s_list):
        worst = 0.0
        for tau in (2.0j, 0.3 + 1.1j):
            for z1, z2 in ((0.23 + 0.11j, 0.41 - 0.07j), (0.13 - 0.21j, 0.06 + 0.17j)):
                vals = [phi_tilde(MockIndex.of(m, s), tau, z1, z2, 0.0, P) for s in s_list]
                worst = max(worst, *(abs(a - b) for a, b in itertools.combinations(vals, 2)))
        return worst

    assert spread(2, [0, 1, 2]) < 1e-10
    assert spread(1, [0, 1, 2]) < 1e-13
    assert spread(2, [0, F(1, 2)]) > 1e-3


def test_psi_tilde_reduces_to_psi_at_degree_one():
    from mockforms.mock import psi

    idx = PsiIndex.of(3, 1, 0, F(1, 2), 1, -1)
    a = psi_tilde(idx, TAU, Z1, Z2, 0.0, P)
    b = psi(idx, TAU, Z1, Z2, 0.0, P)
    assert abs(a - b) < 1e-13


def law_factor(m, a, b, tau, u1, u2):
    """e(-m(a b tau + b u1 + a u2)), the factor of the elliptic law
    Phi-tilde(u1 + a tau, u2 + b tau) = factor * Phi-tilde(u1, u2)."""
    return e2pi(-float(m) * (a * b * tau + b * u1 + a * u2))


@pytest.mark.parametrize("m, s, a, b", [
    (2, 0, 2, -1),
    (2, 2, 1, 0),        # the shift would raise the Appell peak: summed at z
    (3, 1, 1, 1),        # a = b leaves the Appell peak: summed at z
    (F(3, 2), F(1, 2), 2, 0),
    (F(1, 2), 0, 1, -1),
])
def test_elliptic_law_of_phi_tilde(m, s, a, b):
    # Phi-tilde and its D0 pair at z + (a, b) tau against the law's image
    # of z, whether or not the shift is pulled out: D0 of the factor is
    # m (a - b) times the factor
    idx = MockIndex.of(m, s)
    f = law_factor(m, a, b, TAU, Z1, Z2)
    z1, z2 = Z1 + a * TAU, Z2 + b * TAU
    lhs = phi_tilde(idx, TAU, z1, z2, 0.03, P)
    rhs = f * phi_tilde(idx, TAU, Z1, Z2, 0.03, P)
    assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-10
    v, d = phi_tilde(idx, TAU, z1, z2, 0.0, P, want_d0=True)
    v0, d0 = phi_tilde(idx, TAU, Z1, Z2, 0.0, P, want_d0=True)
    for x, y in ((v, f * v0), (d, f * (d0 + float(m) * (a - b) * v0))):
        assert abs(x - y) / max(1.0, abs(y)) < 1e-10


@pytest.mark.parametrize("z1, z2, shifted", [
    (Z1, Z2, False),
    (Z1 + 2 * TAU, Z2 - TAU, True),     # (2, -1) tau is pulled out
])
def test_phi_tilde_pair_scales_by_e_mt(z1, z2, shifted):
    # e^{2 pi i m t} multiplies the value and the D0 value alike, whether
    # or not the lattice shift moves the point
    idx = MockIndex.of(2, 0)
    assert (_lattice_shift(idx, TAU, z1, z2)[3] is not None) == shifted
    t = 0.03 - 0.02j
    e = e2pi(2 * t)
    pair0 = phi_tilde(idx, TAU, z1, z2, 0.0, P, want_d0=True)
    pair = phi_tilde(idx, TAU, z1, z2, t, P, want_d0=True)
    for x, y in zip(pair, pair0):
        assert abs(x - e * y) <= 1e-14 * abs(e * y)


@pytest.mark.parametrize("M, m, eps, a, b, k, l", [
    (3, 2, F(1, 2), 2, -1, 1, 0),
    (5, 2, F(1, 2), F(1, 2), F(-1, 2), 1, 0),
    (3, F(3, 2), 0, 1, 0, 1, -1),
])
def test_elliptic_law_of_psi_tilde(M, m, eps, a, b, k, l):
    # a, b -> a + kM, b + lM moves the inner arguments U = z + (a, b) tau +
    # eps by (k, l) M tau, one step of the inner lattice: the wrapper
    # prefactors' ratio times the law's factor at U
    lhs = psi_tilde(PsiIndex.of(M, m, 0, eps, a + k * M, b + l * M), TAU, Z1, Z2, 0.02, P)
    base = psi_tilde(PsiIndex.of(M, m, 0, eps, a, b), TAU, Z1, Z2, 0.02, P)
    a2, b2, m = a + k * M, b + l * M, float(m)
    ratio = e2pi(m * float(a2 * b2 - a * b) * TAU / M + m / M * (l * M * Z1 + k * M * Z2))
    u1, u2 = Z1 + float(a) * TAU + float(eps), Z2 + float(b) * TAU + float(eps)
    rhs = ratio * law_factor(m, k, l, M * TAU, u1, u2) * base
    assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-10


@pytest.mark.parametrize("m, s, c1, c2", [
    (F(1, 2), 0, 1.05, 0.1),
    (F(1, 2), 0, 1.4, -0.3),
    (F(3, 2), 0, 1.05, 0.1),
    (F(3, 2), 1, 1.4, -0.3),
])
def test_half_integer_degree_shifts_keep_a_equal_b_mod_2(m, s, c1, c2):
    # at half-integer m the law holds only for a = b mod 2.  The lattice
    # coordinates round to (1, 0): at (1.05, 0.1) the second moves to 1 and
    # the sums run at z itself, at (1.4, -0.3) the first moves to 2 and
    # (2, 0) is pulled out.  Pulling out (1, 0) is off by 2e-2 to 0.5 here.
    tau = 0.2 + 1.1j
    z1, z2 = complex(0.23, c1 * tau.imag), complex(-0.31, c2 * tau.imag)
    idx = MockIndex.of(m, s)
    direct = phi(idx, tau, z1, z2, 0.0, P) + phi_add(idx, tau, z1, z2, 0.0, P)
    assert abs(phi_tilde(idx, tau, z1, z2, 0.0, P) - direct) <= 1e-12 * abs(direct)
    fm, fs = float(m), float(s)
    va, da = _phi1_core(fm, fs, tau, z1, z2, P, want_d0=True)
    vb, db = _phi1_core(fm, fs, tau, -z2, -z1, P, want_d0=True)
    _, (add_v, add_d) = phi_add_reference(idx, tau, z1, z2, 0.0)
    v, d = phi_tilde(idx, tau, z1, z2, 0.0, P, want_d0=True)
    assert abs(v - (va - vb + add_v)) <= 1e-12 * abs(v)
    assert abs(d - (da - db + add_d)) <= 1e-12 * abs(d)


def test_wirtinger_derivative_oracle():
    # analytic termwise derivative vs Richardson-extrapolated Wirtinger
    # differences of the real-analytic modification
    idx = MockIndex.of(2, 0)

    def wirt(f, x, h):
        return 0.5 * ((f(x + h) - f(x - h)) / (2 * h)
                      - 1j * (f(x + 1j * h) - f(x - 1j * h)) / (2 * h))

    def d0_fd(h):
        f1 = lambda a: phi_tilde(idx, TAU, a, Z2, 0.0, P)
        f2 = lambda b: phi_tilde(idx, TAU, Z1, b, 0.0, P)
        return (wirt(f1, Z1, h) - wirt(f2, Z2, h)) / (2j * math.pi)

    rich = (4 * d0_fd(5e-6) - d0_fd(1e-5)) / 3
    _, der = phi_tilde(idx, TAU, Z1, Z2, 0.0, P, want_d0=True)
    assert abs(der - rich) < 1e-7


def test_degree_one_modification_is_trivial():
    idx = MockIndex.of(1, 0)
    a = phi_tilde(idx, TAU, Z1, Z2, 0.04, P)
    b = phi(idx, TAU, Z1, Z2, 0.04, P)
    assert a == b
