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
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .qkernel import (
    DEFAULT_POLICY,
    LOG_2,
    TWO_PI,
    TWO_PI_I,
    DomainError,
    HalfInt,
    TruncationPolicy,
    _MISS,
    _POINT_MEMO,
    _centre_error,
    _check_point,
    _index_range,
    e2pi,
    guard_pole,
    sum_bilateral,
)
from .theta import ThetaIndex


@dataclass(frozen=True)
class MockIndex:
    """Degree m and index s of the Appell assembly.  The exact data the
    modification derives from them is formed on first use and kept on the
    index, so an index built once serves every evaluation."""

    m: HalfInt  # positive half-integer degree
    s: HalfInt

    @staticmethod
    def of(m, s) -> "MockIndex":
        m = HalfInt.of(m)
        s = HalfInt.of(s)
        if m.twice <= 0:
            raise ValueError("degree m must be positive")
        return MockIndex(m, s)

    @cached_property
    def correction_window(self) -> tuple:
        """(thetas, duals) of the correcting window j = s + r, r = 0, ...,
        2m-1: thetas[r] the ThetaIndex (j mod 2m, m), and duals the pairs
        (r, r') with s + r' = -j mod 2m, for the r whose -j is not j mod 2m
        (a self-dual residue cancels in Theta_{-j,m} - Theta_{j,m})."""
        mod = 2 * self.m.twice                    # 2j mod 4m gives j mod 2m
        js = [(self.s.twice + 2 * r) % mod for r in range(self.m.twice)]
        at = {j2: r for r, j2 in enumerate(js)}
        thetas = tuple(ThetaIndex(HalfInt(j2), self.m) for j2 in js)
        return thetas, tuple((r, at[-j2 % mod]) for r, j2 in enumerate(js) if 2 * j2 % mod)


@dataclass(frozen=True)
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
        M = int(M)
        if M <= 0:
            raise ValueError("M must be a positive integer")
        m = HalfInt.of(m)
        if m.twice <= 0:
            raise ValueError("degree m must be positive")
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


@lru_cache(maxsize=8)
def _pole_floor(guard: float) -> float:
    """Least h(y) = |1 - w| / max(1, |w|), w = e^{2 pi i u}, over rows
    u = x + iy at distance guard or more from the integers.

    |1 - w| = 2 e^{-pi y} |sin pi u| >= 4 e^{-pi y} dist(u, Z) and
    |1 - w| >= |1 - |w||, and h is even in y, so h >= max(1 - X^2, 4 guard X)
    with X = e^{-pi |y|}; the least of that over X in (0, 1] is where the
    two meet."""
    x = math.sqrt(4.0 * guard * guard + 1.0) - 2.0 * guard
    return 4.0 * guard * x


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
    guard_pole(z1, tau, policy, "z1")
    zsum = z1 + z2
    j_c = -s / (2.0 * m) - zsum.imag / (2.0 * tau.imag)
    if not math.isfinite(j_c):
        raise _centre_error(j_c)
    j_star = round(j_c)
    # |N_j| = e^{log_n - a (j - j_c)^2} and |1 - w_j| = h_j max(1, |w_j|) with
    # h_j >= max(floor, 1 - e^{-2 pi |y_j|}), y_j = Im(z1 + j tau) (see
    # _pole_floor), so |t_j| <= |N_j| min(1, e^{2 pi y_j}) / h_j <= |N_j| / floor,
    # and |t_j| >= |N_j| min(1, e^{2 pi y_j}) / 2 gives the peak's lower bound.
    # The derivative terms s t + N w/D^2 = t (s + w/D), with |w/D| <= 1/floor.
    y1, a = z1.imag, TWO_PI * m * tau.imag
    log_n = a * j_c * j_c - TWO_PI * s * y1
    floor = _pole_floor(policy.pole_guard)
    lift = (abs(s) + 1.0 / floor) / floor if want_d0 else 1.0 / floor
    y_star = y1 + j_star * tau.imag
    log_p = log_n - a * (j_star - j_c) ** 2 + (TWO_PI * y_star if y_star < 0 else 0.0) - LOG_2
    k_lo, k_hi = _index_range(j_star, j_c, a, log_n + math.log(lift), log_p, policy)

    # the numerator N_j = e^{2 pi i (C + j (A j + B))} is a quadratic
    # exponential in j, and w_{j+-1} = w_j q^{+-1}
    A, B, C = m * tau, m * zsum + s * tau, s * z1
    der = 0.0 + 0.0j

    def anchor(j: int):
        num = cmath.exp(TWO_PI_I * (C + j * (A * j + B)))
        if sign < 0 and j % 2:
            num = -num
        return num, j, cmath.exp(TWO_PI_I * (z1 + j * tau))

    def appell_walk(state, count: int, step: int) -> complex:
        nonlocal der
        num, j, w = state
        den = 1.0 - w
        total = num / den
        if want_d0:
            der += total * (s + w / den)
        if count > 1:
            r = sign * cmath.exp(TWO_PI_I * step * (A * (2.0 * j + step) + B))
            qw = cmath.exp(TWO_PI_I * step * tau)
            q2 = cmath.exp(2.0 * TWO_PI_I * A) if count > 2 else 0.0
            for _ in range(count - 1):
                num *= r
                r *= q2
                w *= qw
                den = 1.0 - w
                t = num / den
                total += t
                if want_d0:
                    der += t * (s + w / den)
            if not cmath.isfinite(den):
                # |w_j| grows down the walk, past where cmath.exp would raise
                raise OverflowError("w_j overflowed")
        return total

    val = sum_bilateral(anchor, j_star, k_lo, k_hi, policy, appell_walk)
    out = (val, der) if want_d0 else val
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


def phi_d0(idx: MockIndex, tau: complex, z1: complex, z2: complex,
           policy: TruncationPolicy = DEFAULT_POLICY):
    """(value, D0 value) of Phi^{[m;s]} at t = 0, termwise differentiation.

    The swap-negated piece obeys D0[Phi_1(-z2,-z1)] = (D0 Phi_1)(-z2,-z1).
    """
    m, s = float(idx.m), float(idx.s)
    va, da = _phi1_core(m, s, tau, z1, z2, policy, want_d0=True)
    vb, db = _phi1_core(m, s, tau, -z2, -z1, policy, want_d0=True)
    return va - vb, da - db


def _psi_frame(idx: PsiIndex, tau: complex, z1: complex, z2: complex):
    """(prefactor, MockIndex, M tau, z1 + a tau + eps, z2 + b tau + eps): the
    frame in which Psi^{[M,m,s;eps]}_{a,b} evaluates its inner function.
    A prefactor past the double range (an overflow-sized Im z) raises
    DomainError."""
    inner, a, b, eps, mab, m_M = idx._frame
    M = idx.M
    tau = _check_point(tau, z1, z2)
    try:
        pref = e2pi(mab * tau / M + m_M * (b * z1 + a * z2))
    except OverflowError as exc:
        raise DomainError(f"the prefactor of Psi overflowed a double ({exc})") from exc
    return pref, inner, M * tau, z1 + a * tau + eps, z2 + b * tau + eps


def psi(idx: PsiIndex, tau: complex, z1: complex, z2: complex, t: complex = 0.0,
        policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Psi^{[M,m,s;eps]}_{a,b;eps'} = q^{m a b / M} e^{(2 pi i m/M)(b z1 + a z2)}
    Phi^{[m;s]}(M tau, z1 + a tau + eps, z2 + b tau + eps, t/M)."""
    pref, *frame = _psi_frame(idx, tau, z1, z2)
    return pref * phi(*frame, t / idx.M, policy)
