"""The numeric kernels against the independent mpmath references of
perfbench/oracle.py (dps 30), over a domain wider than the verification grid:
Im tau in [1e-3, 5], |Re tau| <= 10, degrees m <= 20, half-integer j and s.

Each case either lands within policy.tol + ROUNDING_ULPS * eps * cond of the
reference (cond is the reference's rounding scale) or raises a typed error.
The references are imported read-only; the two references perfbench does
not have, the v-derivative of R and the D0-derivative of the Appell sum, are
summed here from their docstring formulas with the same helpers, and each
is checked against a difference quotient of the reference it differentiates.
Dedekind eta is checked over Im tau in [1e-4, 5], through its modular
reduction.
"""

import importlib.util
import math
import pathlib
import sys

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
from mockforms.mock import MockIndex, phi1, phi_d0
from mockforms.modification import (
    CorrectionIndex,
    phi_tilde,
    r_correction,
    r_correction_dv,
)
from mockforms.theta import ETA_DIRECT, ThetaIndex, dedekind_eta, theta_jm

_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle",
    pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

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


def _within(value, ref_cond, tol):
    ref, cond = ref_cond
    err = abs(complex(ref) - complex(value))
    bound = tol + oracle.ROUNDING_ULPS * oracle.EPS * min(cond, 1e300)
    assert err <= bound, (err, bound)


def _check(compute, reference, tol):
    try:
        value = compute(TruncationPolicy(tol=tol))
    except TYPED:
        return
    _within(value, reference(), tol)


def _r_dv_reference(j, m, tau, v):
    """(1/2 pi i) dR_{j;m}/dv at dps 30, summed termwise:
    (n (sgn - E(x_n)) - sqrt(m / Im tau) e^{-pi x_n^2} / pi) e^{2 pi i w_n}."""
    j, m = oracle._mpq(j), oracle._mpq(m)
    tau, v = oracle._mpc(tau), oracle._mpc(v)
    scale = mp.sqrt(tau.imag / m)
    n_star = 2 * m * v.imag / tau.imag
    sqrt_pi = mp.sqrt(mp.pi)
    dscale = mp.sqrt(m / tau.imag) / mp.pi

    def amp(t, w, x):
        if t == 0:
            return 0.0
        return oracle._abs(t) * (1.0 + abs(float(mp.log(abs(t)))) + oracle.TWO_PI * oracle._abs(w)
                                 + oracle.TWO_PI * float(x) ** 2)

    def term(k):
        n = j + 2 * m * k
        sgn = 1 if k >= 0 else -1
        x = (n - n_star) * scale
        w = -n * n * tau / (4 * m) + n * v
        e = oracle._e(w)
        value = sgn * mp.erfc(sgn * sqrt_pi * x) * e
        slope = dscale * mp.exp(-mp.pi * x * x) * e
        return n * value - slope, amp(n * value, w, x) + amp(slope, w, x)

    return oracle._walk(term, int(mp.nint((n_star - j) / (2 * m))), run=5)


def test_r_dv_reference_is_the_wirtinger_derivative():
    j, m, tau, v = 0.5, 1.5, 0.2 + 0.7j, 0.13 + 0.21j
    h = mp.mpf(10) ** -12
    r = lambda u: oracle.r_correction(j, m, tau, u)[0]
    vm = oracle._mpc(v)
    dx = (r(vm + h) - r(vm - h)) / (2 * h)
    dy = (r(vm + 1j * h) - r(vm - 1j * h)) / (2 * h)
    fd = (dx - 1j * dy) / 2 / (2j * mp.pi)
    ref = _r_dv_reference(j, m, tau, v)[0]
    assert abs(fd - ref) <= 1e-12 * abs(ref)


@ORACLE
@given(half, degree, im_tau, re_tau, re_z, im_units, tol)
@example(0.5, 0.5, 1e-3, 0.3, 0.2, 2.5, 1e-12)
@example(3.0, 20.0, 1e-3, -9.5, -0.7, -2.0, 1e-6)
def test_theta_jm(j, m, y, x, zr, zu, tol):
    tau, z = complex(x, y), complex(zr, zu * y)
    _check(lambda p: theta_jm(ThetaIndex.of(j, m), tau, z, 0.0, p),
           lambda: oracle.theta_jm(j, m, tau, z), tol)


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
    _check(lambda p: r_correction(CorrectionIndex.of(j, m), tau, v, p),
           lambda: oracle.r_correction(j, m, tau, v), tol)


@ORACLE
@given(half, degree, im_tau, re_tau, re_z, im_units, tol)
@example(0.5, 0.5, 1e-3, 0.2, 0.1, 2.5, 1e-12)
@example(2.0, 3.5, 0.05, -4.0, 0.3, -1.7, 1e-9)
def test_r_correction_dv(j, m, y, x, vr, vu, tol):
    tau, v = complex(x, y), complex(vr, vu * y)
    try:
        value, der = r_correction_dv(CorrectionIndex.of(j, m), tau, v, TruncationPolicy(tol=tol))
    except TYPED:
        return
    _within(value, oracle.r_correction(j, m, tau, v), tol)
    _within(der, _r_dv_reference(j, m, tau, v), tol)


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


def _phi_d0_reference(m, s, tau, z1, z2):
    """(value, D0 value) of Phi^{[m;s]} at dps 30, the D0 part summed termwise
    from the _phi1_core docstring: D0 (N/D) = s N/D + N w/D^2."""
    def d0(m, s, tau, z1, z2):
        m, s = oracle._mpq(m), oracle._mpq(s)
        tau, z1, z2 = oracle._mpc(tau), oracle._mpc(z1), oracle._mpc(z2)
        A, B, C = m * tau, m * (z1 + z2) + s * tau, s * z1

        def term(j):
            arg = A * j * j + B * j + C
            warg = z1 + j * tau
            w = oracle._e(warg)
            den = 1 - w
            num = oracle._e(arg)
            amp = (1.0 + oracle.TWO_PI * oracle._abs(arg)
                   + 2.0 * oracle._abs(w) * (1.0 + oracle.TWO_PI * oracle._abs(warg))
                   / oracle._abs(den))
            value, slope = num / den, num * w / (den * den)
            return (s * value + slope,
                    (abs(float(s)) * oracle._abs(value) + oracle._abs(slope)) * amp)

        return oracle._walk(term, int(mp.nint(-s / (2 * m) - (z1 + z2).imag / (2 * tau.imag))))

    da, ca = d0(m, s, tau, z1, z2)
    db, cb = d0(m, s, tau, -oracle._mpc(z2), -oracle._mpc(z1))
    return oracle.phi(m, s, tau, z1, z2), (da - db, ca + cb)


def test_phi_d0_reference_is_the_derivative():
    m, s, tau, z1, z2 = 1.5, 0.5, 0.2 + 0.7j, 0.13 + 0.21j, -0.31 + 0.05j
    h = mp.mpf(10) ** -12
    z1m, z2m = oracle._mpc(z1), oracle._mpc(z2)
    phi = lambda a, b: oracle.phi(m, s, tau, a, b)[0]
    d1 = (phi(z1m + h, z2m) - phi(z1m - h, z2m)) / (2 * h)
    d2 = (phi(z1m, z2m + h) - phi(z1m, z2m - h)) / (2 * h)
    fd = (d1 - d2) / (2j * mp.pi)
    ref = _phi_d0_reference(m, s, tau, z1, z2)[1][0]
    assert abs(fd - ref) <= 1e-12 * abs(ref)


@ORACLE
@given(degree, half, im_tau, re_tau, re_z, im_units, re_z, im_units, tol)
@example(0.5, 0.5, 1e-3, 0.1, 0.31, 0.4, -0.2, 1.3, 1e-12)
@example(2.0, -1.5, 0.7, 3.0, 0.27, -2.9, 0.1, 2.9, 1e-9)
def test_phi_d0(m, s, y, x, r1, u1, r2, u2, tol):
    tau, z1, z2 = complex(x, y), complex(r1, u1 * y), complex(r2, u2 * y)
    try:
        value, der = phi_d0(MockIndex.of(m, s), tau, z1, z2, TruncationPolicy(tol=tol))
    except TYPED:
        return
    ref_value, ref_der = _phi_d0_reference(m, s, tau, z1, z2)
    _within(value, ref_value, tol)
    _within(der, ref_der, tol)


def test_verification_grid_evaluates_eta_directly(monkeypatch):
    # every eta argument the identities reach must take the direct path:
    # eta.mod checks eta(-1/tau) = sqrt(-i tau) eta(tau), the law the modular
    # reduction evaluates with.  The modules import eta by name, so each
    # binding is wrapped.
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
