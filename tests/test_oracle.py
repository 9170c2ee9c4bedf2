"""The numeric kernels against the independent mpmath references of
perfbench/oracle.py (dps 30), over a domain wider than the verification grid:
Im tau in [1e-3, 5], |Re tau| <= 10, degrees m <= 20, half-integer j and s.

Each case either lands within policy.tol + ROUNDING_ULPS * eps * cond of the
reference (cond is the reference's rounding scale) or raises a typed error.
The references are imported read-only; the two references perfbench does
not have, the v-derivative of R and the D0-derivative of the Appell sum
(both in tests/oracle_refs.py), are summed from their docstring formulas
with the same helpers, and each is checked against a difference quotient of
the reference it differentiates.
Dedekind eta is checked over Im tau in [1e-4, 5], through its modular
reduction.

Phi-tilde, Psi-tilde and the D0 pair are summed at z - (a, b) tau for the
lattice shift the program chooses, times the factor of the elliptic law;
the references sum the series at z itself, so they check the law, the
choice and the parity rule of half-integer degrees independently.  Where
the series at z cancel, the rounding scale cond is too large for a bound
to see the difference, so fixed cases are also held to a relative error,
against references at dps 50 summed to 1e-45 of their largest term.
"""

import math
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from mpmath import mp

import mockforms.theta as theta
import mockforms.verifier as V
from mockforms.qkernel import (
    DomainError,
    PoleProximityError,
    TruncationOverflowError,
    TruncationPolicy,
)
from mockforms.mock import MockIndex, PsiIndex, _phi1_core, phi1
from mockforms.modification import phi_tilde, psi_tilde, r_window
from mockforms.theta import ETA_DIRECT, ThetaIndex, dedekind_eta, theta_jm
from oracle_refs import oracle, phi_d0_reference, phi_tilde_d0_reference, r_dv_reference


TYPED = (DomainError, PoleProximityError, TruncationOverflowError)
TOLS = (1e-12, 1e-9, 1e-6)
ORACLE = settings(max_examples=8, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])

im_tau = st.floats(min_value=1e-3, max_value=5.0) | st.sampled_from([1e-3, 5.0])
re_tau = st.floats(min_value=-10.0, max_value=10.0)
half = st.integers(min_value=-40, max_value=40).map(lambda k: k / 2)
degree = st.integers(min_value=1, max_value=40).map(lambda k: k / 2)
# Im z in units of Im tau, so that the Gaussian centre of every series stays
# within a few rows of the origin at any Im tau
im_units = st.floats(min_value=-3.0, max_value=3.0)
re_z = st.floats(min_value=-1.0, max_value=1.0)
tol = st.sampled_from(TOLS)


def _share(value, ref_cond, tol):
    """The error of value as a share of the bound tol + ROUNDING_ULPS eps cond."""
    ref, cond = ref_cond
    err = abs(complex(ref) - complex(value))
    return err / (tol + oracle.ROUNDING_ULPS * oracle.EPS * min(cond, 1e300))


def _within(value, ref_cond, tol):
    assert _share(value, ref_cond, tol) <= 1.0


def _check(compute, reference, tol):
    try:
        value = compute(TruncationPolicy(tol=tol))
    except TYPED:
        return
    _within(value, reference(), tol)


def test_r_dv_reference_is_the_wirtinger_derivative():
    j, m, tau, v = 0.5, 1.5, 0.2 + 0.7j, 0.13 + 0.21j
    h = mp.mpf(10) ** -12
    r = lambda u: oracle.r_correction(j, m, tau, u)[0]
    vm = oracle._mpc(v)
    dx = (r(vm + h) - r(vm - h)) / (2 * h)
    dy = (r(vm + 1j * h) - r(vm - 1j * h)) / (2 * h)
    fd = (dx - 1j * dy) / 2 / (2j * mp.pi)
    ref = r_dv_reference(j, m, tau, v)[0]
    assert abs(fd - ref) <= 1e-12 * abs(ref)


@ORACLE
@given(half, degree, im_tau, re_tau, re_z, im_units, tol)
@example(0.5, 0.5, 1e-3, 0.3, 0.2, 2.5, 1e-12)
@example(3.0, 20.0, 1e-3, -9.5, -0.7, -2.0, 1e-6)
def test_theta_jm(j, m, y, x, zr, zu, tol):
    tau, z = complex(x, y), complex(zr, zu * y)
    _check(lambda p: theta_jm(ThetaIndex.of(j, m), tau, z, 0.0, p),
           lambda: oracle.theta_jm(j, m, tau, z), tol)


# theta_ab and the Theta pair differences over Im tau in [1e-3, 4]
im_tau_4 = st.floats(min_value=1e-3, max_value=4.0) | st.sampled_from([1e-3, 4.0])
label = st.integers(min_value=0, max_value=1)


@ORACLE
@given(label, label, im_tau_4, re_tau, re_z, im_units, tol)
@example(1, 1, 1e-3, 0.3, 0.2, 2.5, 1e-12)
@example(0, 1, 4.0, -9.5, -0.7, -3.0, 1e-6)
def test_jacobi_theta(a, b, y, x, zr, zu, tol):
    tau, z = complex(x, y), complex(zr, zu * y)
    _check(lambda p: theta.jacobi_theta(a, b, tau, z, p),
           lambda: oracle.jacobi_theta(a, b, tau, z), tol)


@ORACLE
@given(half, degree, im_tau_4, re_tau, re_z, im_units, tol)
@example(0.5, 1.5, 1e-3, 0.3, 0.2, 2.5, 1e-12)
@example(3.0, 20.0, 1e-3, -9.5, -0.7, -3.0, 1e-6)
@example(-2.5, 4.0, 4.0, 1.0, 0.4, 1.5, 1e-9)
def test_theta_pair_diff(j, m, y, x, zr, zu, tol):
    # against the difference of the two references, and against the
    # difference of the two theta_jm values, each within tol + the
    # rounding bound of both series
    tau, z = complex(x, y), complex(zr, zu * y)
    idx, policy = ThetaIndex.of(j, m), TruncationPolicy(tol=tol)
    try:
        value = theta.theta_pair_diff(idx, tau, z, policy)
        apart = (theta_jm(ThetaIndex.of(-j, m), tau, z, 0.0, policy)
                 - theta_jm(idx, tau, z, 0.0, policy))
    except TYPED:
        return
    (dual, c1), (ref, c2) = oracle.theta_jm(-j, m, tau, z), oracle.theta_jm(j, m, tau, z)
    _within(value, (dual - ref, c1 + c2), tol)
    assert abs(value - apart) <= tol + oracle.ROUNDING_ULPS * oracle.EPS * float(c1 + c2)


def _relative_cases():
    """(name, value, reference) of fixed theta_ab and pair-difference cases
    whose |value| lies at least 1e6 times above the rounding bound."""
    cases = []
    for a, b, tau, z in ((1, 1, 0.1 + 1.3j, 0.2 + 0.3j), (0, 0, -3.3 + 1e-3j, 0.1 + 2e-3j),
                         (1, 0, 7.2 + 0.05j, -0.4 + 0.1j), (0, 1, 0.45 + 3.9j, 0.3 - 9j)):
        cases.append((f"theta_{a}{b}", theta.jacobi_theta(a, b, tau, z),
                      oracle.jacobi_theta(a, b, tau, z)))
    for j, m, tau, z in ((1, 3, 0.1 + 1.3j, 0.2 + 0.3j), (0.5, 2.5, -3.3 + 1e-3j, 0.1 + 2e-3j),
                         (7, 12, 2.2 + 0.02j, -0.2 + 0.03j), (2.5, 1.5, 0.3 + 2.5j, 0.1 + 4j)):
        (dual, c1), (ref, c2) = oracle.theta_jm(-j, m, tau, z), oracle.theta_jm(j, m, tau, z)
        cases.append((f"pair_{j}_{m}", theta.theta_pair_diff(ThetaIndex.of(j, m), tau, z),
                      (dual - ref, c1 + c2)))
    return cases


def test_theta_layer_relative_error():
    # the worst case, at Im tau = 1e-3, reads 4.4e-12 (7.4e-12 as two
    # theta_jm series); the others 1.2e-16 to 8.3e-14
    for name, value, (ref, cond) in _relative_cases():
        assert abs(ref) >= 1e6 * oracle.ROUNDING_ULPS * oracle.EPS * cond, name
        assert abs(complex(ref) - value) <= 1e-11 * abs(ref), name


@ORACLE
@given(degree, half, im_tau, re_tau, re_z, im_units, re_z, im_units, tol)
@example(0.5, 0.5, 1e-3, 0.1, 0.31, 0.4, -0.2, 1.3, 1e-12)
@example(1.0, -1.5, 0.7, 3.0, 0.27, -2.9, 0.1, 2.9, 1e-9)
def test_phi1(m, s, y, x, r1, u1, r2, u2, tol):
    tau, z1, z2 = complex(x, y), complex(r1, u1 * y), complex(r2, u2 * y)
    _check(lambda p: phi1(MockIndex.of(m, s), tau, z1, z2, p),
           lambda: oracle.phi1(m, s, tau, z1, z2), tol)


@ORACLE
@given(half, degree, im_tau, re_tau, re_z, im_units, tol)
@example(0.5, 0.5, 1e-3, 0.2, 0.1, 2.5, 1e-12)
@example(-7.5, 20.0, 4.0, 1.0, 0.4, -3.0, 1e-6)
def test_r_correction(j, m, y, x, vr, vu, tol):
    tau, v = complex(x, y), complex(vr, vu * y)
    _check(lambda p: r_window(j, m, tau, v, p, buckets=(0,))[0],
           lambda: oracle.r_correction(j, m, tau, v), tol)


@ORACLE
@given(half, degree, im_tau, re_tau, re_z, im_units, tol)
@example(0.5, 0.5, 1e-3, 0.2, 0.1, 2.5, 1e-12)
@example(2.0, 3.5, 0.05, -4.0, 0.3, -1.7, 1e-9)
def test_r_correction_dv(j, m, y, x, vr, vu, tol):
    tau, v = complex(x, y), complex(vr, vu * y)
    try:
        values, derivatives = r_window(j, m, tau, v, TruncationPolicy(tol=tol), True, (0,))
    except TYPED:
        return
    _within(values[0], oracle.r_correction(j, m, tau, v), tol)
    _within(derivatives[0], r_dv_reference(j, m, tau, v), tol)


# R_{j;m} is series 0 of the window at s = j, walked in steps of 1 in runs
# shortened where Re tau turns the ratios fast.  A walk over j + 2mZ alone
# in steps of 2m and full runs read 0.084 and 0.73 of the bound here
# (values) and 0.082 and 0.19 (derivatives); the window reads 0.010 and
# 0.018 (values) and 0.010 and 0.0011 (derivatives).
@pytest.mark.parametrize("j, m, tau, v", [
    (17, 6, 2.80 + 0.11j, 0.14 - 0.13j),
    (-8, 20, -19.72 + 0.006j, 0.46 + 0.0172j),
])
def test_r_correction_with_a_long_step(j, m, tau, v):
    tol = 1e-12
    policy = TruncationPolicy(tol=tol)
    values, derivatives = r_window(j, m, tau, v, policy, True, (0,))
    assert values == r_window(j, m, tau, v, policy, buckets=(0,))
    assert _share(values[0], oracle.r_correction(j, m, tau, v), tol) <= 0.02
    assert _share(derivatives[0], r_dv_reference(j, m, tau, v), tol) <= 0.02


# every bucket of the window against its own reference series, so the draws
# keep m <= 4; the examples cover the top degree and Im tau = 1e-3
window_degree = st.integers(min_value=1, max_value=8).map(lambda k: k / 2)


@ORACLE
@given(window_degree, half, im_tau, re_tau, re_z, im_units, tol)
@example(20.0, -7.5, 0.9, 0.3, 0.2, 1.5, 1e-12)
@example(1.5, 0.5, 1e-3, -0.4, 0.1, 2.5, 1e-12)
def test_r_window(m, s, y, x, vr, vu, tol):
    tau, v = complex(x, y), complex(vr, vu * y)
    try:
        values = r_window(s, m, tau, v, TruncationPolicy(tol=tol))
    except TYPED:
        return
    assert len(values) == round(2 * m)
    for r, value in enumerate(values):
        _within(value, oracle.r_correction(s + r, m, tau, v), tol)


@ORACLE
@given(window_degree, half, im_tau, re_tau, re_z, im_units, tol)
@example(20.0, 0.5, 0.9, -1.2, -0.3, -2.0, 1e-12)
@example(2.0, -1.5, 1e-3, 0.25, 0.4, -1.5, 1e-9)
# half-integer s with |Re tau| >= 2m: the derivative part under the Re tau shift
@example(1.0, 0.5, 0.9, 4.3, 0.1, 0.2, 1e-12)
@example(2.0, -3.5, 1.3, 9.1, 0.2, -0.25, 1e-12)
def test_r_window_dv(m, s, y, x, vr, vu, tol):
    tau, v = complex(x, y), complex(vr, vu * y)
    policy = TruncationPolicy(tol=tol)
    try:
        values, derivatives = r_window(s, m, tau, v, policy, want_dv=True)
    except TYPED:
        return
    # the value part does not depend on want_dv, to the bit
    assert values == r_window(s, m, tau, v, policy)
    for r, der in enumerate(derivatives):
        _within(der, r_dv_reference(s + r, m, tau, v), tol)


# the reference sums 2 + 6m series per value, so the draws keep m <= 4 and
# Im tau >= 0.05; the example covers Im tau = 1e-3 at the cheapest degree
@settings(ORACLE, max_examples=4)
@given(st.integers(min_value=1, max_value=8).map(lambda k: k / 2), half,
       st.floats(min_value=0.05, max_value=5.0), re_tau,
       re_z, im_units, re_z, im_units, tol)
@example(0.5, 0.5, 1e-3, 0.4, 0.3, 0.7, -0.1, -1.2, 1e-12)
def test_phi_tilde(m, s, y, x, r1, u1, r2, u2, tol):
    tau, z1, z2 = complex(x, y), complex(r1, u1 * y), complex(r2, u2 * y)
    _check(lambda p: phi_tilde(MockIndex.of(m, s), tau, z1, z2, 0.0, p),
           lambda: oracle.phi_tilde(m, s, tau, z1, z2), tol)


def test_phi_tilde_top_degree():
    # the hypothesis draws above stop at m = 4 to keep the 2m-term
    # correcting sum of the reference cheap; one case at the top degree
    tau, z1, z2 = 0.9 + 0.6j, 0.21 + 0.3j, -0.34 - 0.25j
    _check(lambda p: phi_tilde(MockIndex.of(20, 0.5), tau, z1, z2, 0.0, p),
           lambda: oracle.phi_tilde(20, 0.5, tau, z1, z2), 1e-12)


# Off the fundamental cell: Im tau up to 4 and lattice coordinates
# Im z / Im tau up to +-2, so that the program pulls out shifts (a, b) with
# |a|, |b| <= 2, among them odd a - b at half-integer m.  s is drawn as a
# share of m, within [-m, m]
lattice_im_tau = st.floats(min_value=0.3, max_value=4.0)
lattice_units = st.floats(min_value=-2.0, max_value=2.0)
share = st.floats(min_value=-1.0, max_value=1.0)


def _index(m, share):
    return m, round(2 * m * share) / 2


@settings(ORACLE, max_examples=10)
@given(st.integers(min_value=1, max_value=8).map(lambda k: k / 2), share,
       lattice_im_tau, re_tau, re_z, lattice_units, re_z, lattice_units, tol)
@example(1.5, 0.3, 3.7, 0.3, 0.21, 1.3, -0.33, -0.2, 1e-12)
@example(3.5, -0.43, 2.247, -1.98, -0.78, -1.86, 0.45, -0.37, 1e-12)
@example(2.0, -0.25, 3.536, 1.946, 0.07, 0.45, -0.16, 1.73, 1e-12)
def test_phi_tilde_across_the_lattice(m, frac, y, x, r1, u1, r2, u2, tol):
    # the last two examples sit where taking the shift that lowers the
    # Appell peak counted without its denominators loses about 2 and 4
    # digits to the sums at z
    m, s = _index(m, frac)
    tau, z1, z2 = complex(x, y), complex(r1, u1 * y), complex(r2, u2 * y)
    policy = TruncationPolicy(tol=tol)
    try:
        value = phi_tilde(MockIndex.of(m, s), tau, z1, z2, 0.0, policy)
        v0, d0 = phi_tilde(MockIndex.of(m, s), tau, z1, z2, 0.0, policy, want_d0=True)
    except TYPED:
        return
    ref_value, ref_der = phi_tilde_d0_reference(m, s, tau, z1, z2)
    assert v0 == value
    _within(value, ref_value, tol)
    _within(d0, ref_der, tol)


@settings(ORACLE, max_examples=10)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=6).map(
           lambda k: k / 2), share, st.sampled_from([0, 0.5]), st.integers(-6, 6),
       st.integers(-6, 6), st.booleans(), st.floats(min_value=0.1, max_value=1.3), re_tau,
       re_z, im_units, re_z, im_units, tol)
@example(5, 2.0, 0.0, 0.5, 5, -1, True, 0.8, 0.0, 0.13, 0.26, -0.27, 0.06, 1e-12)
def test_psi_tilde_across_the_lattice(M, m, frac, eps, a2, b2, odd, y, x, r1, u1, r2, u2, tol):
    # a and b in eps' + Z, within +-6.5, so up to 6.5/M rows of the inner
    # lattice; the example is the first index below, at Im tau 0.8
    m, s = _index(m, frac)
    a, b = (a2 + 0.5, b2 + 0.5) if odd else (a2, b2)
    tau, z1, z2 = complex(x, y), complex(r1, u1 * y), complex(r2, u2 * y)
    _check(lambda p: psi_tilde(PsiIndex.of(M, m, s, eps, a, b), tau, z1, z2, 0.0, p),
           lambda: oracle.psi_tilde(M, m, s, eps, a, b, tau, z1, z2), tol)


@pytest.fixture
def precise(monkeypatch):
    """References at dps 50, summed until terms fall below 1e-45 of the
    largest: the series at z cancel by up to about 1e26 in the cases below."""
    monkeypatch.setattr(oracle, "STOP", mp.mpf(10) ** -45)
    with mp.workdps(50):
        yield


def _relative(value, reference):
    ref = complex(reference[0])
    return abs(ref - value) / abs(ref)


# Wrapper indices outside the fundamental range, whose inner lattice
# coordinate is about 1.1.  Summed at z, the first read relative errors
# 3.6e-7, 2.3e-3 and 16 at 2i, 3i and 4i.
@pytest.mark.parametrize("tau", [2j, 3j, 4j])
@pytest.mark.parametrize("index", [(5, 2, 0, 0.5, 5.5, -0.5), (3, 1, 0, 0.5, 3.5, -0.5)])
def test_psi_tilde_at_unreduced_indices(precise, index, tau):
    z1, z2 = 0.13 + 0.21j, -0.27 + 0.05j
    value = psi_tilde(PsiIndex.of(*index), tau, z1, z2)
    assert _relative(value, oracle.psi_tilde(*index, tau, z1, z2)) <= 1e-10


# m = 3, s = -3 at Im tau 1.1 and lattice coordinates (1.06, -1.26): the
# sums at z read relative errors of 8.4e8 (value) and 2.7e8 (D0).  Then
# half-integer degrees whose coordinates round to an odd a - b, at Im tau
# up to 4: pulling out that shift, which the law does not cover, is off by
# 25% to a factor 6.
@pytest.mark.parametrize("m, s, tau, c1, c2", [
    (3, -3, 0.19 + 1.1j, 1.06, -1.26),
    (1.5, 0.5, 0.3 + 3.7j, 1.3, -0.2),
    (2.5, -1, 0.7 + 3.1j, -1.3, 0.4),
    (0.5, 0.5, 0.2 + 4j, -1.2, 0.2),
    (3.5, 1.5, -0.3 + 2j, 1.4, 0.35),
])
def test_phi_tilde_off_the_fundamental_cell(precise, m, s, tau, c1, c2):
    z1, z2 = complex(0.21, c1 * tau.imag), complex(-0.33, c2 * tau.imag)
    ref_value, ref_der = phi_tilde_d0_reference(m, s, tau, z1, z2)
    value, der = phi_tilde(MockIndex.of(m, s), tau, z1, z2, want_d0=True)
    assert _relative(value, ref_value) <= 1e-10
    assert _relative(der, ref_der) <= 1e-10


# Im tau log-uniform on [1e-4, 5]: mpmath.eta sums the q-series, which takes
# seconds next to Im tau = 1e-4, so the draws stop at 40
@settings(ORACLE, max_examples=40)
@given(st.floats(min_value=math.log(1e-4), max_value=math.log(5.0)).map(math.exp),
       re_tau, tol)
# next to the cusps 1/2 and 9/2 the T steps cancel the leading digits of Re tau
@example(3e-4, 0.5, 1e-12)
@example(1.3754229046268246e-4, 4.500133154484548, 1e-12)
@example(1e-3, -9.5, 1e-9)
@example(0.1, 0.5, 1e-12)
def test_dedekind_eta(y, x, tol):
    tau = complex(x, y)
    value = dedekind_eta(tau, TruncationPolicy(tol=tol))
    ref, cond = oracle.dedekind_eta(tau)
    _within(value, (ref, cond), tol)
    # relative precision wherever eta is a normal double
    if abs(ref) >= sys.float_info.min:
        assert abs(complex(ref) - value) <= 1e-10 * abs(ref)


def testphi_d0_reference_is_the_derivative():
    m, s, tau, z1, z2 = 1.5, 0.5, 0.2 + 0.7j, 0.13 + 0.21j, -0.31 + 0.05j
    h = mp.mpf(10) ** -12
    z1m, z2m = oracle._mpc(z1), oracle._mpc(z2)
    phi = lambda a, b: oracle.phi(m, s, tau, a, b)[0]
    d1 = (phi(z1m + h, z2m) - phi(z1m - h, z2m)) / (2 * h)
    d2 = (phi(z1m, z2m + h) - phi(z1m, z2m - h)) / (2 * h)
    fd = (d1 - d2) / (2j * mp.pi)
    ref = phi_d0_reference(m, s, tau, z1, z2)[1][0]
    assert abs(fd - ref) <= 1e-12 * abs(ref)


@ORACLE
@given(degree, half, im_tau, re_tau, re_z, im_units, re_z, im_units, tol)
@example(0.5, 0.5, 1e-3, 0.1, 0.31, 0.4, -0.2, 1.3, 1e-12)
@example(2.0, -1.5, 0.7, 3.0, 0.27, -2.9, 0.1, 2.9, 1e-9)
def test_phi_d0(m, s, y, x, r1, u1, r2, u2, tol):
    tau, z1, z2 = complex(x, y), complex(r1, u1 * y), complex(r2, u2 * y)
    # the Appell D0 of Phi: one termwise walk at (z1, z2), one at (-z2, -z1)
    idx, policy = MockIndex.of(m, s), TruncationPolicy(tol=tol)
    try:
        va, da = _phi1_core(float(idx.m), float(idx.s), tau, z1, z2, policy, want_d0=True)
        vb, db = _phi1_core(float(idx.m), float(idx.s), tau, -z2, -z1, policy, want_d0=True)
    except TYPED:
        return
    ref_value, ref_der = phi_d0_reference(m, s, tau, z1, z2)
    _within(va - vb, ref_value, tol)
    _within(da - db, ref_der, tol)


def test_verification_grid_evaluates_eta_directly(monkeypatch):
    # every eta argument the identities reach must take the direct path:
    # eta.mod checks eta(-1/tau) = sqrt(-i tau) eta(tau), the law the modular
    # reduction evaluates with.  Every module calls eta as theta.dedekind_eta,
    # and only the package re-exports it by name; each binding is wrapped.
    seen = []
    real = theta.dedekind_eta

    def recording(tau, *args, **kwargs):
        seen.append(complex(tau))
        return real(tau, *args, **kwargs)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("mockforms") \
                and getattr(module, "dedekind_eta", None) is real:
            monkeypatch.setattr(module, "dedekind_eta", recording)
    V.suite("all", seed=1)
    assert seen
    assert min(t.imag for t in seen) >= ETA_DIRECT
