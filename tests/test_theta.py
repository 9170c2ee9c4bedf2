import math

import mpmath
import pytest

from mockforms.qkernel import TruncationPolicy, TruncationOverflowError, e2pi
from mockforms.theta import (
    ThetaIndex,
    dedekind_eta,
    jacobi_theta,
    jacobi_theta11_product,
    theta_jm,
)
from mockforms.formal import expand_jacobi_theta, expand_theta, series_equal

P = TruncationPolicy()


def test_basic_value():
    # direct summation oracle, |n| <= 20
    ref = sum(math.exp(-2 * math.pi * n * n) for n in range(-20, 21))
    v = theta_jm(ThetaIndex.of(0, 1), 1j, 0.0, 0.0, P)
    assert abs(v - ref) < 1e-14
    assert abs(v - 1.003735) < 2e-6


def test_reflection_and_periodicity():
    tau, z = 0.8j + 0.1, 0.23 + 0.07j
    for m in (1, 2):
        a = theta_jm(ThetaIndex.of(m, m), tau, -z, 0.0, P)
        b = theta_jm(ThetaIndex.of(m, m), tau, z, 0.0, P)
        assert abs(a - b) < 1e-13
        j = 1
        a = theta_jm(ThetaIndex.of(j, m), tau, z + 2, 0.0, P)
        b = theta_jm(ThetaIndex.of(j, m), tau, z, 0.0, P)
        assert abs(a - b) < 1e-12
        a = theta_jm(ThetaIndex.of(j + 2 * m, m), tau, z, 0.0, P)
        assert abs(a - b) < 1e-13


def test_t_argument():
    tau, z, t = 1.1j, 0.2, 0.3 + 0.05j
    idx = ThetaIndex.of(1, 2)
    assert abs(theta_jm(idx, tau, z, t, P)
               - e2pi(2 * t) * theta_jm(idx, tau, z, 0.0, P)) < 1e-14


def test_jacobi_theta_zero():
    for tau in (0.31j, 0.8j, 1.0 + 1.3j):
        assert abs(jacobi_theta(1, 1, tau, 0.0, P)) < 1e-14


def test_triple_product_oracle():
    for (tau, z) in ((0.8j, 0.23 + 0.11j), (1.0 + 1.3j, -0.31 + 0.04j)):
        assert abs(jacobi_theta(1, 1, tau, z, P)
                   - jacobi_theta11_product(tau, z)) < 1e-12
    v = jacobi_theta(0, 0, 1j, 0.0, P)
    # triple product for the even theta constant
    q = math.exp(-2 * math.pi)
    prod = 1.0
    for n in range(1, 80):
        prod *= (1 - q ** n) * (1 + q ** (n - 0.5)) ** 2
    assert abs(v - prod) < 1e-13


def test_eta_value_and_phase():
    v = dedekind_eta(1j, P)
    assert abs(v - 0.7682254223260566) < 1e-12
    # 24-term expansion of eta^24 as an independent check
    q = math.exp(-2 * math.pi)
    e24 = q
    for n in range(1, 25):
        e24 *= (1 - q ** n) ** 24
    assert abs(v ** 24 - e24) < 1e-13
    a = dedekind_eta(1j + 1, P)
    assert abs(a - e2pi(1 / 24) * v) < 1e-14


def test_eta_small_im_tau_matches_mpmath():
    # below Im tau = 0.1, eta is moved up by T and S steps before it sums; the
    # product form it replaced refused 0.05i at n_max = 16 and 0.001i at 4000.
    # Next to the cusps 1/2 and 9/2, T steps cancel the leading digits of
    # Re tau, so the moved point is evaluated from the exact input
    for tau, policy in ((0.05j, TruncationPolicy(n_max=16)), (0.001j, P),
                        (0.5 + 3e-4j, P), (-9.5 + 1e-3j, P), (0.3 + 0.07j, P),
                        (4.500133154484548 + 1.3754229046268246e-4j, P)):
        with mpmath.workdps(30):
            ref = complex(mpmath.eta(mpmath.mpc(tau.real, tau.imag)))
        assert abs(dedekind_eta(tau, policy) - ref) <= 1e-13 * abs(ref), tau


def test_eta_reduction_ends_at_tiny_im_tau():
    # at Im tau = 1e-300 eta lies far below the double range.  The S steps
    # follow the continued fraction of the dyadic Re tau (30 of them for the
    # golden ratio below), and from a subnormal Im tau one overflows to inf
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for tau in (1e-300j, 0.3 + 1e-300j, 0.5 + 1e-300j, -7.25 + 1e-300j,
                complex(golden, 1e-300), 5e-324j):
        assert dedekind_eta(tau, P) == 0


def test_degree_two_decomposition_formal():
    combos = {(0, 0): [(2, 1), (0, 1)], (0, 1): [(2, -1), (0, 1)],
              (1, 0): [(1, 1), (-1, 1)]}
    for (a, b), parts in combos.items():
        lhs = expand_jacobi_theta(a, b, 10)
        rhs = None
        for j, c in parts:
            term = expand_theta(j, 2, 10)
            if c < 0:
                term = -term
            rhs = term if rhs is None else rhs + term
        eq, diff = series_equal(lhs, rhs)
        assert eq, diff


def test_theta_truncation_overflow():
    with pytest.raises(TruncationOverflowError):
        theta_jm(ThetaIndex.of(0, 1), 0.02j, 0.0, 0.0, TruncationPolicy(n_max=8))
