"""Classical building blocks.

Degree-m rank-1 theta functions

    Theta_{j,m}(tau, z, t) = e^{2 pi i m t} sum_{n in Z + j/2m} q^{m n^2} e^{2 pi i m n z},

the four Jacobi theta functions theta_ab as their degree-2 combinations,
and the Dedekind eta function.  The index j matters only mod 2m; both j
and the degree m may be half-integers (the family modules use shifted
indices), represented exactly through HalfInt arithmetic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .qkernel import (
    DEFAULT_POLICY,
    TWO_PI,
    TWO_PI_I,
    HalfInt,
    TruncationOverflowError,
    TruncationPolicy,
    _POINT_MEMO,
    _check_point,
    _index_range,
    e2pi,
    sum_bilateral,
)


@dataclass(frozen=True)
class ThetaIndex:
    """Residue j modulo 2m together with the degree m > 0."""

    j: HalfInt
    m: HalfInt

    @staticmethod
    def of(j, m) -> "ThetaIndex":
        j = HalfInt.of(j)
        m = HalfInt.of(m)
        if m.twice <= 0:
            raise ValueError("degree m must be positive")
        return ThetaIndex(j, m)


def theta_jm(idx: ThetaIndex, tau: complex, z: complex = 0.0, t: complex = 0.0,
             policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Theta_{j,m}(tau, z, t), absolute error <= policy.tol."""
    tau = _check_point(tau, z, t)
    m = idx.m.twice / 2
    # the offset j/2m reduced into [0, 1), correctly rounded
    base = (idx.j.twice % (2 * idx.m.twice)) / (2 * idx.m.twice)
    memo = _POINT_MEMO.get()
    if memo is not None and (key := ("theta", base, m, tau, z, t, policy)) in memo:
        return memo[key]
    # |q^{m n^2} e^{2 pi i m n z}| = e^{a n*^2 - a (n - n*)^2} exactly, with
    # a = 2 pi m Im tau and n* = -Im z / (2 Im tau)
    n_star = -complex(z).imag / (2.0 * tau.imag)
    k_star = n_star - base
    k0 = round(k_star)
    a = TWO_PI * m * tau.imag
    log_c = a * n_star * n_star
    k_lo, k_hi = _index_range(k0, k_star, a, log_c, log_c - a * (k0 - k_star) ** 2, policy)

    def term(k: int) -> complex:
        n = base + k
        return cmath.exp(TWO_PI_I * (m * n * (n * tau + z)))

    s = sum_bilateral(term, k0, k_lo, k_hi, policy)
    if t != 0:
        s *= e2pi(m * t)
    if memo is not None:
        memo[key] = s
    return s


# the four degree-2 combinations: coefficients of Theta_{j,2}
_T0, _T1, _T2, _TM1 = (ThetaIndex.of(j, 2) for j in (0, 1, 2, -1))
_JACOBI = {
    (0, 0): ((_T2, 1.0), (_T0, 1.0)),
    (0, 1): ((_T2, -1.0), (_T0, 1.0)),
    (1, 0): ((_T1, 1.0), (_TM1, 1.0)),
    (1, 1): ((_T1, 1j), (_TM1, -1j)),
}


def jacobi_theta(a: int, b: int, tau: complex, z: complex = 0.0,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """theta_ab(tau, z) for a, b in {0, 1}."""
    if (a, b) not in _JACOBI:
        raise ValueError("Jacobi theta labels a, b must be 0 or 1")
    total = 0.0 + 0.0j
    for idx, c in _JACOBI[(a, b)]:
        total += c * theta_jm(idx, tau, z, 0.0, policy)
    return total


def dedekind_eta(tau: complex, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """eta(tau) = q^{1/24} prod_{n>=1} (1 - q^n), tail bound <= policy.tol."""
    tau = _check_point(tau)
    memo = _POINT_MEMO.get()
    if memo is not None and (key := ("eta", tau, policy)) in memo:
        return memo[key]
    q = e2pi(tau)
    aq = abs(q)
    prod = 1.0 + 0.0j
    qn = q
    for n in range(1, policy.n_max + 1):
        prod *= 1.0 - qn
        qn *= q
        # |log prod tail| <= sum_{k>n} |q|^k = |q|^{n+1}/(1-|q|)
        if abs(qn) / (1.0 - aq) < policy.tol:
            break
    else:
        raise TruncationOverflowError(
            f"eta product did not meet tol={policy.tol:g} within n_max={policy.n_max}"
        )
    eta = e2pi(tau / 24.0) * prod
    if memo is not None:
        memo[key] = eta
    return eta


def jacobi_theta11_product(tau: complex, z: complex) -> complex:
    """Triple-product form of theta_11, used as an independent oracle:

    theta_11(tau, z) = -2 q^{1/8} sin(pi z) prod_{n>=1} (1-q^n)(1-q^n e)(1-q^n/e),
    with e = e^{2 pi i z}, truncated after 200 factors.
    """
    q = e2pi(tau)
    zeta = e2pi(z)
    prod = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    for _ in range(200):
        qn *= q
        prod *= (1.0 - qn) * (1.0 - qn * zeta) * (1.0 - qn / zeta)
    return -2.0 * e2pi(tau / 8.0) * cmath.sin(math.pi * z) * prod
