"""Classical building blocks.

Degree-m rank-1 theta functions

    Theta_{j,m}(tau, z, t) = e^{2 pi i m t} sum_{n in Z + j/2m} q^{m n^2} e^{2 pi i m n z},

the differences Theta_{-j,m} - Theta_{j,m} of the correcting sum, the
four Jacobi theta functions theta_ab, each summed as one series, and the
Dedekind eta function.  The index j matters only mod 2m; both j
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
    TWO_PI_I,
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


def _gauss_cut(n_star: float, base: float, a: float, policy: TruncationPolicy):
    """(k0, k_lo, k_hi) for a series over n = base + k whose terms obey
    |t| = e^{a n*^2 - a (n - n*)^2}: k0 = round(n* - base), and the range
    _index_range cuts around it.  A centre that is not finite raises
    DomainError."""
    k_star = n_star - base
    if not math.isfinite(k_star):
        raise _centre_error(k_star)
    k0 = round(k_star)
    log_c = a * n_star * n_star
    return (k0, *_index_range(k0, k_star, a, log_c, log_c - a * (k0 - k_star) ** 2, policy))


def theta_jm(idx: ThetaIndex, tau: complex, z: complex = 0.0, t: complex = 0.0,
             policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Theta_{j,m}(tau, z, t), absolute error <= policy.tol."""
    m = idx.m.twice / 2
    # the offset j/2m reduced into [0, 1), correctly rounded
    base = (idx.j.twice % (2 * idx.m.twice)) / (2 * idx.m.twice)
    memo = _POINT_MEMO.get()
    if memo is not None:
        key = ("theta", base, m, tau, z, t, policy)
        if (s := memo.get(key, _MISS)) is not _MISS:
            return s
    tau = _check_point(tau, z, t)
    # |q^{m n^2} e^{2 pi i m n z}| = e^{a n*^2 - a (n - n*)^2} exactly, with
    # a = 2 pi m Im tau and n* = -Im z / (2 Im tau)
    n_star = -complex(z).imag / (2.0 * tau.imag)
    k0, k_lo, k_hi = _gauss_cut(n_star, base, TWO_PI * m * tau.imag, policy)
    anchor = partial(_quadratic_anchor, (m * tau, m * z, 0.0, base, 1))
    s = sum_bilateral(anchor, k0, k_lo, k_hi, policy, _quadratic_walk)
    if t != 0:
        s *= e2pi(m * t)
    if memo is not None:
        memo[key] = s
    return s


def _pair_anchor(series: tuple, k: int):
    """(t1, t2, n1, n2, series): the terms e^{2 pi i n (a n + b)} at n1 =
    base1 + k and n2 = base2 + k of series = (a, b, base1, base2), exactly;
    the state _pair_walk starts from."""
    a, b, base1, base2 = series
    n1, n2 = base1 + k, base2 + k
    return (cmath.exp(TWO_PI_I * n1 * (a * n1 + b)), cmath.exp(TWO_PI_I * n2 * (a * n2 + b)),
            n1, n2, series)


def _pair_walk(state, count: int, step: int) -> complex:
    """Sum of t2 - t1 over the count index steps from a _pair_anchor state
    on: two _quadratic_walk recurrences side by side, sharing e^{4 pi i a}."""
    t1, t2, n1, n2, (a, b, _, _) = state
    if count == 1:
        return t2 - t1
    r1 = cmath.exp(TWO_PI_I * step * (a * (2.0 * n1 + step) + b))
    r2 = cmath.exp(TWO_PI_I * step * (a * (2.0 * n2 + step) + b))
    s1, s2 = t1, t2
    t1 *= r1
    t2 *= r2
    s1 += t1
    s2 += t2
    if count > 2:
        q2 = cmath.exp(2.0 * TWO_PI_I * a)
        for _ in range(count - 2):
            r1 *= q2
            r2 *= q2
            t1 *= r1
            t2 *= r2
            s1 += t1
            s2 += t2
    return s2 - s1


def theta_pair_diff(idx: ThetaIndex, tau: complex, z: complex = 0.0,
                    policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """(Theta_{-j,m} - Theta_{j,m})(tau, z), absolute error <= policy.tol,
    and exactly 0 where -j = j mod 2m.

    Summed over -n, Theta_{-j,m} is the theta_jm series at the offset of -j
    mod 2m, so both series run over n = base + k around the same Gaussian
    centre n*, with offsets in [0, 1): they walk side by side over one
    index k, from one anchor per run, and the walk covers the union of the
    two ranges theta_jm cuts; n_max counts that union.  The pair is summed
    in the order of its offsets, so the value at -j is the value at j
    negated, exactly."""
    m2 = idx.m.twice
    j2 = idx.j.twice % (2 * m2)
    lo, hi = sorted((j2, -j2 % (2 * m2)))
    if lo == hi:
        _check_point(tau, z)
        return 0.0 + 0.0j
    memo = _POINT_MEMO.get()
    if memo is not None:
        key = ("theta_pair", lo, m2, tau, z, policy)
        if (s := memo.get(key, _MISS)) is not _MISS:
            return s if j2 == lo else -s
    tau = _check_point(tau, z)
    m = m2 / 2
    base1, base2 = lo / (2 * m2), hi / (2 * m2)
    n_star = -complex(z).imag / (2.0 * tau.imag)
    a = TWO_PI * m * tau.imag
    k0, lo1, hi1 = _gauss_cut(n_star, base1, a, policy)
    _, lo2, hi2 = _gauss_cut(n_star, base2, a, policy)
    anchor = partial(_pair_anchor, (m * tau, m * z, base1, base2))
    # the sum is Theta at the higher offset minus Theta at the lower one
    s = sum_bilateral(anchor, k0, min(lo1, lo2), max(hi1, hi2), policy, _pair_walk)
    if memo is not None:
        memo[key] = s
    return s if j2 == lo else -s


def jacobi_theta(a: int, b: int, tau: complex, z: complex = 0.0,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """theta_ab(tau, z) = sum_k (-1)^{bk} e^{2 pi i (ab/4 + n (n tau/2 + z))},
    n = a/2 + k, for a, b in {0, 1}: one series, whose unit e^{pi i ab/2}
    multiplies the sum."""
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("Jacobi theta labels a, b must be 0 or 1")
    memo = _POINT_MEMO.get()
    if memo is not None:
        key = ("jacobi", a, b, tau, z, policy)
        if (s := memo.get(key, _MISS)) is not _MISS:
            return s
    tau = _check_point(tau, z)
    # |term| = e^{g n*^2 - g (n - n*)^2}, g = pi Im tau, n* = -Im z / Im tau
    base = 0.5 * a
    k0, k_lo, k_hi = _gauss_cut(-complex(z).imag / tau.imag, base, math.pi * tau.imag, policy)
    anchor = partial(_quadratic_anchor, (0.5 * tau, z, 0.0, base, -1 if b else 1))
    s = sum_bilateral(anchor, k0, k_lo, k_hi, policy, _quadratic_walk)
    if a and b:
        s *= 1j
    if memo is not None:
        memo[key] = s
    return s


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
    memo = _POINT_MEMO.get()
    if memo is not None:
        key = ("eta", tau, policy)
        if (eta := memo.get(key, _MISS)) is not _MISS:
            return eta
    tau = _check_point(tau)
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


def _product(acc, rows, tau, policy):
    for row in rows:
        if len(row) == 2:
            s, p = row
            f = dedekind_eta(s * tau, policy)
        else:
            a, b, u, p = row
            f = jacobi_theta(a, b, tau, u, policy)
        acc *= f if p == 1 else f ** p
    return acc


def eta_theta_quotient(tau: complex, c, num, den,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """c * prod(num) / prod(den) over factor rows: (s, p) is eta(s tau)^p and
    (a, b, u, p) is theta_ab(tau, u)^p, each product formed left to right, c
    first.  A unit c (+-1, +-i) is exact and commutes with every rounding."""
    return _product(c, num, tau, policy) / _product(1, den, tau, policy)


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
