import math

import mpmath
import pytest

from fractions import Fraction as F

from mockforms.qkernel import DomainError, TruncationPolicy, TruncationOverflowError, e2pi
from mockforms.theta import (
    ThetaIndex,
    dedekind_eta,
    jacobi_theta,
    jacobi_theta11_product,
    theta_jm,
    theta_pair_diff,
)
from mockforms.formal import GRat, ZArg, expand_jacobi_theta, expand_theta, series_equal

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


# theta_ab as its degree-2 combination: (j, coefficient) of each Theta_{j,2}
DEGREE_TWO = {(0, 0): ((2, 1), (0, 1)), (0, 1): ((2, -1), (0, 1)),
              (1, 0): ((1, 1), (-1, 1)), (1, 1): ((1, 1j), (-1, -1j))}


def test_degree_two_decomposition_formal():
    # the one theta_ab series against its two Theta_{j,2} series, at
    # several scales and arguments, a constant one included
    unit = {1: GRat(1), -1: GRat(-1), 1j: GRat(0, 1), -1j: GRat(0, -1)}
    for scale in (1, F(3, 2)):
        for z in (ZArg.of(1, 0), ZArg.of(1, -1, F(1, 2)), ZArg.of(0, 0, F(1, 2))):
            for (a, b), parts in DEGREE_TWO.items():
                lhs = expand_jacobi_theta(a, b, 10, scale, z)
                rhs = None
                for j, c in parts:
                    term = expand_theta(j, 2, 10, scale, z).scale(unit[c])
                    rhs = term if rhs is None else rhs + term
                eq, diff = series_equal(lhs, rhs)
                assert eq, (a, b, scale, z, diff)
                assert lhs.order == rhs.order and lhs.zmax is None
    with pytest.raises(ValueError, match="labels"):
        expand_jacobi_theta(2, 0, 4)


def test_degree_two_decomposition():
    for tau, z in ((0.8j, 0.23 + 0.11j), (-1.7 + 0.05j, 0.4 - 0.12j), (0.3 + 2j, 0.1 + 5j)):
        for (a, b), parts in DEGREE_TWO.items():
            two = sum(c * theta_jm(ThetaIndex.of(j, 2), tau, z, 0.0, P) for j, c in parts)
            assert abs(jacobi_theta(a, b, tau, z, P) - two) <= 1e-13 * max(1.0, abs(two))
    with pytest.raises(ValueError, match="labels"):
        jacobi_theta(0, 2, 1j)


def test_pair_difference_is_antisymmetric_and_exact_at_self_dual_residues():
    tau, z = -0.4 + 0.9j, 0.31 - 0.52j
    for m2 in range(1, 13):
        m = F(m2, 2)
        for j2 in range(-2 * m2, 2 * m2):
            j = F(j2, 2)
            d = theta_pair_diff(ThetaIndex.of(j, m), tau, z, P)
            assert theta_pair_diff(ThetaIndex.of(-j, m), tau, z, P) == -d
            if j2 % m2 == 0:                 # -j = j mod 2m
                assert d == 0 and type(d) is complex
            else:
                assert d != 0
    # the point is checked at a self-dual residue too
    with pytest.raises(DomainError):
        theta_pair_diff(ThetaIndex.of(0, 1), -1j, z, P)
    with pytest.raises(DomainError):
        theta_pair_diff(ThetaIndex.of(1, 1), 1j, complex("nan"), P)


def test_theta_truncation_overflow():
    with pytest.raises(TruncationOverflowError):
        theta_jm(ThetaIndex.of(0, 1), 0.02j, 0.0, 0.0, TruncationPolicy(n_max=8))
    with pytest.raises(TruncationOverflowError):
        jacobi_theta(1, 0, 0.02j, 0.0, TruncationPolicy(n_max=8))
    with pytest.raises(TruncationOverflowError):
        theta_pair_diff(ThetaIndex.of(F(1, 2), 1), 0.02j, 0.0, TruncationPolicy(n_max=8))
