"""Unmodified mock objects.

The rank-1 Appell-type sum

    Phi_1^{[m;s]}(tau, z1, z2) =
        sum_{j in Z} e^{2 pi i (m j (z1+z2) + s z1)} q^{j^2 m + j s} / (1 - e^{2 pi i z1} q^j),

its antisymmetrized two-variable assembly Phi^{[m;s]} (with a sign argument
for the variants Phi^{+-[m;s]} with (+-1)^j weights), and the theta-decorated,
lattice-shifted wrapper Psi.  Degrees m and indices s are half-integers.

Evaluation refuses points within pole_guard of the z1 / z2 pole lattices
instead of attempting any regularization; identity grids are chosen off
the singular set and silent near-pole precision loss is worse than an
explicit error.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property, lru_cache, partial

from .qkernel import (
    DEFAULT_POLICY,
    LOG_2,
    TWO_PI,
    TWO_PI_I,
    HalfInt,
    TruncationPolicy,
    _MISS,
    _POINT_MEMO,
    _centre_error,
    _check_point,
    _index_range,
    _record,
    degree_of,
    e2pi,
    int_of,
    sum_bilateral,
)
from .theta import ThetaIndex
from . import qkernel as qk


@lru_cache(maxsize=256)
def _correction_window(m2: int, s2: int) -> tuple:
    """The correcting window of every MockIndex with 2m = m2 and 2s = s2 mod
    4m (see MockIndex.correction_window), built once per such pair."""
    mod = 2 * m2                                # 2j mod 4m gives j mod 2m
    js = [(s2 + 2 * r) % mod for r in range(m2)]
    at = {j2: r for r, j2 in enumerate(js)}
    m = HalfInt(m2)
    thetas = tuple(ThetaIndex(HalfInt(j2), m) for j2 in js)
    return thetas, tuple((r, at[-j2 % mod]) for r, j2 in enumerate(js) if 2 * j2 % mod)


@_record
class MockIndex:
    """Degree m and index s of the Appell assembly.  The correcting window
    the modification derives from them depends on 2m and 2s mod 4m alone
    and comes from one bounded table, so a fresh index built per
    evaluation reuses it."""

    m: HalfInt  # positive half-integer degree
    s: HalfInt

    @staticmethod
    def of(m, s) -> "MockIndex":
        return MockIndex(degree_of(m), HalfInt.of(s))

    @property
    def correction_window(self) -> tuple:
        """(thetas, duals) of the correcting window j = s + r, r = 0, ...,
        2m-1: thetas[r] the ThetaIndex (j mod 2m, m), and duals the pairs
        (r, r') with s + r' = -j mod 2m, for the r whose -j is not j mod 2m
        (a self-dual residue cancels in Theta_{-j,m} - Theta_{j,m})."""
        m2 = self.m.twice
        return _correction_window(m2, self.s.twice % (2 * m2))


@_record
class PsiIndex:
    """Data of Psi^{[M,m,s;eps]}_{a,b;eps'}: modular scale M, degree m,
    index s, half-shifts eps, eps' in {0, 1/2}, and a, b in eps' + Z (eps'
    is read off a)."""

    M: int
    m: HalfInt
    s: HalfInt
    eps: HalfInt
    a: HalfInt
    b: HalfInt
    eps_prime: HalfInt

    @staticmethod
    def of(M, m, s, eps, a, b) -> "PsiIndex":
        M = M if type(M) is int else int_of(M)
        if M <= 0:
            raise ValueError("M must be a positive integer")
        m = degree_of(m)
        a = HalfInt.of(a)
        b = HalfInt.of(b)
        eps = HalfInt.of(eps)
        if eps.twice not in (0, 1):
            raise ValueError("eps must be 0 or 1/2")
        if a.twice % 2 != b.twice % 2:
            raise ValueError("a, b must lie in eps' + Z")
        return PsiIndex(M, m, HalfInt.of(s), eps, a, b, HalfInt(a.twice % 2))

    @cached_property
    def _frame(self) -> tuple:
        """(MockIndex (m, s), a, b, eps, m a b, m / M), the numbers as
        floats: the exact data of the frame in which the wrapper evaluates
        its inner function, formed once per index."""
        m, a, b = float(self.m), float(self.a), float(self.b)
        return MockIndex(self.m, self.s), a, b, float(self.eps), m * a * b, m / self.M


def _appell_anchor(series: tuple, j: int):
    """(N_j, j, w_j, series): the numerator N_j = (+-1)^j e^{2 pi i (C + j (A j
    + B))} and w_j = e^{2 pi i (z1 + j tau)} of series = (A, B, C, sign, tau,
    z1, s, acc), exactly; the state _appell_walk starts from.
    partial(_appell_anchor, series) is the anchor that sum_bilateral takes."""
    A, B, C, sign, tau, z1, _, _ = series
    num = cmath.exp(TWO_PI_I * (C + j * (A * j + B)))
    if sign < 0 and j % 2:
        num = -num
    return num, j, cmath.exp(TWO_PI_I * (z1 + j * tau)), series


def _appell_walk(state, count: int, step: int) -> complex:
    """Sum of the count terms N_j / (1 - w_j) from an _appell_anchor state on,
    by N <- N r, r <- r e^{4 pi i A} and w <- w q^step.  With a list acc in
    the series, each term's D0 part t (s + w/D) is added to acc[0] in turn."""
    num, j, w, (A, B, _, sign, tau, _, s, acc) = state
    den = 1.0 - w
    total = num / den
    if acc is not None:
        acc[0] += total * (s + w / den)
    if count > 1:
        r = sign * cmath.exp(TWO_PI_I * step * (A * (2.0 * j + step) + B))
        qw = cmath.exp(TWO_PI_I * step * tau)
        q2 = cmath.exp(2.0 * TWO_PI_I * A) if count > 2 else 0.0
        if acc is None:
            for _ in range(count - 1):
                num *= r
                r *= q2
                w *= qw
                den = 1.0 - w
                total += num / den
        else:
            der = acc[0]
            for _ in range(count - 1):
                num *= r
                r *= q2
                w *= qw
                den = 1.0 - w
                t = num / den
                total += t
                der += t * (s + w / den)
            acc[0] = der
        if not cmath.isfinite(den):
            # |w_j| grows down the walk, past where cmath.exp would raise
            raise OverflowError("w_j overflowed")
    return total


def _phi1_core(m: float, s: float, tau: complex, z1: complex, z2: complex,
               policy: TruncationPolicy, sign: int = 1, want_d0: bool = False):
    """Appell sum and, optionally, its termwise (1/2 pi i)(d/dz1 - d/dz2).

    Per-term derivative of N_j/D_j with N_j the exponential numerator and
    D_j = 1 - w_j, w_j = e^{2 pi i z1} q^j:

        D0 (N/D) = s N/D + N w/D^2.
    """
    memo = _POINT_MEMO.get()
    if memo is not None:
        key = ("phi1", m, s, tau, z1, z2, policy, sign, want_d0)
        if (out := memo.get(key, _MISS)) is not _MISS:
            return out
    tau = _check_point(tau, z1, z2)
    # every q-exponent m j^2 + s j lies in Z/2, so 2 is a T-period; it is
    # taken out only past every Re tau of the verification grid (at most 10)
    if abs(tau.real) >= 32.0:
        tau = complex(math.fmod(tau.real, 2.0), tau.imag)
    qk._guard_checked(z1, tau, policy, "z1")
    zsum = z1 + z2
    j_c = -s / (2.0 * m) - zsum.imag / (2.0 * tau.imag)
    if not math.isfinite(j_c):
        raise _centre_error(j_c)
    j_star = round(j_c)
    # |N_j| = e^{log_n - a (j - j_c)^2} and |1 - w_j| = h_j max(1, |w_j|) with
    # h_j >= max(floor, 1 - e^{-2 pi |y_j|}), y_j = Im(z1 + j tau) (see
    # TruncationPolicy), so |t_j| <= |N_j| min(1, e^{2 pi y_j}) / h_j <= |N_j| / floor,
    # and |t_j| >= |N_j| min(1, e^{2 pi y_j}) / 2 gives the peak's lower bound.
    # The derivative terms s t + N w/D^2 = t (s + w/D), with |w/D| <= 1/floor.
    y1, a = z1.imag, TWO_PI * m * tau.imag
    log_n = a * j_c * j_c - TWO_PI * s * y1
    floor = policy._pole_floor
    lift = (abs(s) + 1.0 / floor) / floor if want_d0 else 1.0 / floor
    y_star = y1 + j_star * tau.imag
    log_p = log_n - a * (j_star - j_c) ** 2 + (TWO_PI * y_star if y_star < 0 else 0.0) - LOG_2
    k_lo, k_hi = _index_range(j_star, j_c, a, log_n + math.log(lift), log_p, policy)

    acc = [0.0 + 0.0j] if want_d0 else None
    series = (m * tau, m * zsum + s * tau, s * z1, sign, tau, z1, s, acc)
    val = sum_bilateral(partial(_appell_anchor, series), j_star, k_lo, k_hi, policy,
                        _appell_walk)
    out = (val, acc[0]) if want_d0 else val
    if memo is not None:
        memo[key] = out
    return out


def phi1(idx: MockIndex, tau: complex, z1: complex, z2: complex,
         policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Phi_1^{[m;s]}(tau, z1, z2); poles at z1 in Z + tau Z."""
    return _phi1_core(float(idx.m), float(idx.s), tau, z1, z2, policy)


def phi(idx: MockIndex, tau: complex, z1: complex, z2: complex, t: complex = 0.0,
        policy: TruncationPolicy = DEFAULT_POLICY, sign: int = 1) -> complex:
    """Phi^{[m;s]} = e^{2 pi i m t} (Phi_1(tau,z1,z2) - Phi_1(tau,-z2,-z1));
    sign = -1 gives the signed variant Phi^{-[m;s]}, whose Appell sums carry
    (-1)^j weights."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    m, s = float(idx.m), float(idx.s)
    a = _phi1_core(m, s, tau, z1, z2, policy, sign=sign)
    b = _phi1_core(m, s, tau, -z2, -z1, policy, sign=sign)
    out = a - b
    if t != 0:
        out *= e2pi(m * t)
    return out


def _psi_frame(idx: PsiIndex, tau: complex, z1: complex, z2: complex):
    """(prefactor, MockIndex, M tau, z1 + a tau + eps, z2 + b tau + eps): the
    frame in which Psi^{[M,m,s;eps]}_{a,b} evaluates its inner function.
    A prefactor past the double range (an overflow-sized Im z) raises
    DomainError in e2pi."""
    inner, a, b, eps, mab, m_M = idx._frame
    M = idx.M
    tau = _check_point(tau, z1, z2)
    pref = e2pi(mab * tau / M + m_M * (b * z1 + a * z2))
    return pref, inner, M * tau, z1 + a * tau + eps, z2 + b * tau + eps


def psi(idx: PsiIndex, tau: complex, z1: complex, z2: complex, t: complex = 0.0,
        policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Psi^{[M,m,s;eps]}_{a,b;eps'} = q^{m a b / M} e^{(2 pi i m/M)(b z1 + a z2)}
    Phi^{[m;s]}(M tau, z1 + a tau + eps, z2 + b tau + eps, t/M)."""
    pref, *frame = _psi_frame(idx, tau, z1, z2)
    return pref * phi(*frame, t / idx.M, policy)
