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
from functools import partial

from .qkernel import (
    DEFAULT_POLICY,
    TWO_PI,
    HalfInt,
    TruncationPolicy,
    _MISS,
    _POINT_MEMO,
    _centre_error,
    _check_point,
    _index_range,
    _quadratic_anchor,
    _quadratic_walk,
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
    if memo is not None:
        key = ("theta", base, m, tau, z, t, policy)
        if (s := memo.get(key, _MISS)) is not _MISS:
            return s
    # |q^{m n^2} e^{2 pi i m n z}| = e^{a n*^2 - a (n - n*)^2} exactly, with
    # a = 2 pi m Im tau and n* = -Im z / (2 Im tau)
    n_star = -complex(z).imag / (2.0 * tau.imag)
    k_star = n_star - base
    if not math.isfinite(k_star):
        raise _centre_error(k_star)
    k0 = round(k_star)
    a = TWO_PI * m * tau.imag
    log_c = a * n_star * n_star
    k_lo, k_hi = _index_range(k0, k_star, a, log_c, log_c - a * (k0 - k_star) ** 2, policy)
    anchor = partial(_quadratic_anchor, (m * tau, m * z, 0.0, base, 1))
    s = sum_bilateral(anchor, k0, k_lo, k_hi, policy, _quadratic_walk)
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


# Below this Im tau, dedekind_eta first raises Im tau by T and S steps; every
# argument of the verification grid (the least is Im 0.155) stays above it,
# so eta.mod never checks the law it is evaluated with.
ETA_DIRECT = 0.1


def _eta_reduce(tau: complex):
    """(tau', f) with eta(tau) = f eta(tau') and Im tau' >= ETA_DIRECT, by the
    steps eta(tau + n) = e^{pi i n/12} eta(tau) and eta(-1/tau) =
    sqrt(-i tau) eta(tau) (Apostol, Modular Functions and Dirichlet Series,
    ch. 3).  Each S step from |Re tau| <= 1/2 multiplies Im tau by
    1/|tau|^2 > 3.8, so the steps end.

    tau' = (a tau + b) / (c tau + d) is evaluated afresh from the exact
    Re tau = p / r after each T step: T steps cancel the leading digits of
    Re tau', and no step may inherit the rounding of an earlier one."""
    p, r = tau.real.as_integer_ratio()
    y = tau.imag
    a, b, c, d = 1, 0, 0, 1
    factor = 1.0 + 0.0j
    while True:
        n = round(tau.real)
        a, b = a - n * c, b - n * d
        factor *= e2pi(n % 24 / 24.0)
        tau = complex((a * p + b * r) / r, a * y) / complex((c * p + d * r) / r, c * y)
        if tau.imag >= ETA_DIRECT:
            return tau, factor
        factor /= cmath.sqrt(-1j * tau)
        a, b, c, d = -c, -d, a, b
        # only to choose the next T step
        tau = -1.0 / tau


def dedekind_eta(tau: complex, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """eta(tau) = sum_k (-1)^k q^{(6k+1)^2/24} (Euler's pentagonal theorem),
    truncation error <= policy.tol.  Below Im tau = ETA_DIRECT, tau is first
    moved up (_eta_reduce), so that the value keeps its relative precision
    where it is tiny."""
    tau = _check_point(tau)
    memo = _POINT_MEMO.get()
    if memo is not None:
        key = ("eta", tau, policy)
        if (eta := memo.get(key, _MISS)) is not _MISS:
            return eta
    factor = 1.0
    if tau.imag < ETA_DIRECT:
        tau, factor = _eta_reduce(tau)
    if math.isinf(tau.imag):
        # an S step from a subnormal Im tau: eta underflows
        eta = 0.0 + 0.0j
    else:
        # |term k| = e^{-a (k + 1/6)^2}, a = 3 pi Im tau; the largest is k = 0
        a = 3.0 * math.pi * tau.imag
        k_lo, k_hi = _index_range(0, -1.0 / 6.0, a, 0.0, -a / 36.0, policy)
        anchor = partial(_quadratic_anchor, (1.5 * tau, 0.5 * tau, tau / 24.0, 0.0, -1))
        eta = factor * sum_bilateral(anchor, 0, k_lo, k_hi, policy, _quadratic_walk)
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
