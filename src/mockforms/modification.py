"""Real-analytic corrections and modified functions.

The correction kernel

    R_{j;m}(tau, v) = sum_{n = j mod 2m, n in (1/2)Z}
        (sgn(n - 1/2 - j + 2m) - E((n - 2m Im v / Im tau) sqrt(Im tau / m)))
        e^{- pi i n^2 tau / 2m + 2 pi i n v},

the correcting sum Phi_add, the modifications Phi-tilde, Phi_1-tilde and
Psi-tilde, and an s-independence report.  The sgn argument is never zero:
n - j in 2mZ puts it in 2mZ - 1/2.

Terms are scanned outward from the turning point n* = 2m Im v / Im tau,
where the bracket and the growing exponential compete; beyond it the net
decay is Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .qkernel import (
    DEFAULT_POLICY,
    LOG_16,
    SQRT_PI,
    TWO_PI,
    HalfInt,
    TruncationPolicy,
    _MISS,
    _POINT_MEMO,
    _centre_error,
    _check_point,
    _index_range,
    e2pi,
    sum_bilateral,
)
from .theta import ThetaIndex, theta_jm
from .mock import MockIndex, PsiIndex, _psi_frame, phi, phi_d0, phi1


@dataclass(frozen=True)
class CorrectionIndex:
    j: HalfInt
    m: HalfInt

    @staticmethod
    def of(j, m) -> "CorrectionIndex":
        m = HalfInt.of(m)
        if m.twice <= 0:
            raise ValueError("degree m must be positive")
        return CorrectionIndex(HalfInt.of(j), m)


def _r_sum(j: float, m: float, tau: complex, v: complex, policy: TruncationPolicy,
           want_dv: bool = False):
    # The bracket sgn - E(x) decays like exp(-pi x^2) while the exponential
    # factor grows like exp(+pi n^2 Im tau / 2m); the product decays, but
    # the factors individually overflow/underflow doubles.  Both pieces are
    # therefore assembled in log space, with the bracket computed through
    # erfc so the far tail keeps full relative precision (1 - erf would be
    # pure rounding noise exactly where the exponential amplifies it).
    tau = _check_point(tau, v)
    v = complex(v)
    memo = _POINT_MEMO.get()
    if memo is not None:
        key = ("R", j, m, tau, v, policy, want_dv)
        if (out := memo.get(key, _MISS)) is not _MISS:
            return out
    scale = math.sqrt(tau.imag / m)
    n_star = 2.0 * m * v.imag / tau.imag
    k_star = (n_star - j) / (2.0 * m)
    if not math.isfinite(k_star):
        raise _centre_error(k_star)
    k0 = round(k_star)
    # With a = 2 pi m Im tau and u = k - k_star, the exponential factor is
    # e^{log_c + a u^2} and the bracket sgn erfc(sgn t), t = sqrt(pi) x =
    # sqrt(2a) u.  Past both 0 and k_star (sgn t >= 0) the bracket is below
    # e^{-t^2} min(1, 1/(sqrt(pi) t)) = e^{-2 a u^2} / max(1, kappa u) with
    # kappa = sqrt(2 pi a): the Gaussian at half the bracket's rate.  Between
    # 0 and k_star the bracket lies in [1, 2); that window is summed whole, and
    # its far end holds a term of at least e^{log_c + a u^2}.
    a = TWO_PI * m * tau.imag
    kappa = math.sqrt(TWO_PI * a)
    log_c = -math.pi * tau.imag * n_star * n_star / (2.0 * m)
    dscale = math.sqrt(m / tau.imag) / math.pi
    # the derivative terms n t - dscale e^{-pi x^2} ... are below
    # |n_star| / max(1, kappa u) + 2 dscale times the Gaussian, as |n| <=
    # |n_star| + 2m u and 2m / kappa = dscale
    lift = abs(n_star) + 2.0 * dscale if want_dv else 1.0

    def weight(step: int, d: float) -> float:
        if want_dv:
            return math.log((abs(n_star) / max(1.0, kappa * d) + 2.0 * dscale) / lift)
        return -math.log(max(1.0, kappa * d))

    def walk():
        # from below, erfc(t) >= e^{-t^2} / (sqrt(pi) (1 + t)); up to where the
        # majorant meets tol/16 that is a Gaussian with a fixed constant
        excess = log_c - math.log(policy.tol) + LOG_16
        u_run = math.sqrt(excess / a) if excess > 0 else 0.0
        return ((k_star, log_c - math.log(SQRT_PI * (1.0 + math.sqrt(2.0 * a) * u_run))),)

    far = max(k_star, -1.0 - k_star, 0.0)
    if far:
        log_p = log_c + a * far * far
    else:
        u0 = abs(k0 - k_star)
        log_p = log_c - a * u0 * u0 - math.log(SQRT_PI * (1.0 + math.sqrt(2.0 * a) * u0))
    k_lo, k_hi = _index_range(k0, k_star, a, log_c + math.log(lift), log_p, policy, 5,
                              weight, walk)
    # the tails start past the window
    k_lo, k_hi = min(k_lo, 0), max(k_hi, math.ceil(k_star) - 1, -1)

    der = [0.0 + 0.0j]

    def assemble(log_mag: float, phase: float) -> complex:
        if log_mag < -745.0:
            return 0.0 + 0.0j
        r = math.exp(log_mag)
        return complex(r * math.cos(phase), r * math.sin(phase))

    def term(k: int) -> complex:
        n = j + 2.0 * m * k
        sgn = 1.0 if k >= 0 else -1.0
        x = (n - n_star) * scale
        # sgn - E(x) = sgn * erfc(sgn * sqrt(pi) * x)
        br = math.erfc(sgn * SQRT_PI * x)
        w = -n * n * tau / (4.0 * m) + n * v
        exp_re = -TWO_PI * w.imag
        phase = TWO_PI * w.real
        t = 0.0 + 0.0j
        if br > 0.0:
            t = sgn * assemble(math.log(br) + exp_re, phase)
        if want_dv:
            d = n * t - dscale * assemble(-math.pi * x * x + exp_re, phase)
            der[0] += d
        return t

    val = sum_bilateral(term, k0, k_lo, k_hi, policy)
    out = (val, der[0]) if want_dv else val
    if memo is not None:
        memo[key] = out
    return out


def r_correction(idx: CorrectionIndex, tau: complex, v: complex,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """R_{j;m}(tau, v)."""
    return _r_sum(float(idx.j), float(idx.m), tau, v, policy)


def r_correction_dv(idx: CorrectionIndex, tau: complex, v: complex,
                    policy: TruncationPolicy = DEFAULT_POLICY):
    """(value, (1/2 pi i) dR/dv).  The E-factor depends on v only through
    Im v, whose Wirtinger derivative is -i/2; per term

        (1/2 pi i) d/dv [(sgn - E(x_n)) e^{2 pi i n v}]
            = (n (sgn - E(x_n)) - sqrt(m/Im tau) e^{-pi x_n^2} / pi) e^{...}.
    """
    return _r_sum(float(idx.j), float(idx.m), tau, v, policy, want_dv=True)


def _correction_window(idx: MockIndex):
    """Indices j = s, s+1, ..., s+2m-1 of the correcting sum (2m terms),
    each given as the integer 2j."""
    return [idx.s.twice + 2 * r for r in range(idx.m.twice)]


def _theta_diffs(idx: MockIndex, tau: complex, z: complex, policy: TruncationPolicy):
    """(j, (Theta_{-j,m} - Theta_{j,m})(tau, z)) over the correcting window,
    leaving out zero differences.

    The window meets every residue of s + Z mod 2m once, and so does its
    negative, so each Theta_{r,m} is summed once.  A residue with -r == r
    cancels exactly and is not summed at all."""
    mod = 2 * idx.m.twice                    # 2j mod 4m gives j mod 2m
    window = [j2 for j2 in _correction_window(idx) if 2 * j2 % mod]
    theta = {j2 % mod: theta_jm(ThetaIndex(HalfInt(j2 % mod), idx.m), tau, z, 0.0, policy)
             for j2 in window}
    diffs = ((j2 / 2, theta[-j2 % mod] - theta[j2 % mod]) for j2 in window)
    return [(j, d) for j, d in diffs if d != 0]


def phi_add(idx: MockIndex, tau: complex, z1: complex, z2: complex, t: complex = 0.0,
            policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """(1/2) e^{2 pi i m t} sum_{j=s}^{s+2m-1} R_{j;m}(tau, (z1-z2)/2)
    (Theta_{-j,m} - Theta_{j,m})(tau, z1+z2)."""
    v = (z1 - z2) / 2.0
    m = float(idx.m)
    total = 0.0 + 0.0j
    for j, tj in _theta_diffs(idx, tau, z1 + z2, policy):
        total += _r_sum(j, m, tau, v, policy) * tj
    total *= 0.5
    if t != 0:
        total *= e2pi(m * t)
    return total


def phi_add_d0(idx: MockIndex, tau: complex, z1: complex, z2: complex,
               policy: TruncationPolicy = DEFAULT_POLICY):
    """(value, D0 value) of Phi_add at t = 0.  Only the R-factor depends on
    z1 - z2, so D0 hits it alone with weight 1 in the v-slot."""
    v = (z1 - z2) / 2.0
    m = float(idx.m)
    val = 0.0 + 0.0j
    der = 0.0 + 0.0j
    for j, tj in _theta_diffs(idx, tau, z1 + z2, policy):
        rv, rd = _r_sum(j, m, tau, v, policy, want_dv=True)
        val += rv * tj
        der += rd * tj
    return 0.5 * val, 0.5 * der


def phi_tilde(idx: MockIndex, tau: complex, z1: complex, z2: complex, t: complex = 0.0,
              policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Modification Phi + Phi_add; restores the elliptic/modular laws."""
    return (phi(idx, tau, z1, z2, t, policy)
            + phi_add(idx, tau, z1, z2, t, policy))


def phi_tilde_d0(idx: MockIndex, tau: complex, z1: complex, z2: complex,
                 policy: TruncationPolicy = DEFAULT_POLICY):
    """(value, D0 value) of Phi-tilde at t = 0, analytic termwise."""
    va, da = phi_d0(idx, tau, z1, z2, policy)
    vb, db = phi_add_d0(idx, tau, z1, z2, policy)
    return va + vb, da + db


def phi1_add(idx: MockIndex, tau: complex, z1: complex, z2: complex,
             policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """One-sided correcting sum: the window sum with the theta difference
    replaced by -Theta_{j,m}, so that assembling

        e^{2 pi i m t} (Phi_1-tilde(z1,z2) - Phi_1-tilde(-z2,-z1))

    reproduces Phi-tilde exactly.  (The swap-negate map fixes (z1-z2)/2 and
    negates z1+z2, turning -Theta_j into Theta_{-j} - Theta_j pairwise.)
    """
    v = (z1 - z2) / 2.0
    zs = z1 + z2
    total = 0.0 + 0.0j
    for j2 in _correction_window(idx):
        tj = theta_jm(ThetaIndex(HalfInt(j2), idx.m), tau, zs, 0.0, policy)
        total += _r_sum(j2 / 2, float(idx.m), tau, v, policy) * tj
    return -0.5 * total


def phi1_tilde(idx: MockIndex, tau: complex, z1: complex, z2: complex,
               policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Phi_1 + Phi_1,add."""
    return phi1(idx, tau, z1, z2, policy) + phi1_add(idx, tau, z1, z2, policy)


def phi_tilde_reduced(idx: MockIndex, tau: complex, z1: complex, z2: complex,
                      t: complex = 0.0,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Phi-tilde evaluated after pulling integer tau-multiples out of the
    arguments through the exact elliptic law.

    Equal to phi_tilde by that law, but numerically far better conditioned:
    the raw series at arguments shifted by a*tau cancels catastrophically
    while the reduced series is O(1) and the prefactor is one exponential.
    """
    tau = complex(tau)
    m = float(idx.m)
    a = round(complex(z1).imag / tau.imag)
    b = round(complex(z2).imag / tau.imag)
    if a == 0 and b == 0:
        return phi_tilde(idx, tau, z1, z2, t, policy)
    u1, u2 = z1 - a * tau, z2 - b * tau
    pref = e2pi(-m * a * b * tau - m * (b * u1 + a * u2))
    return pref * phi_tilde(idx, tau, u1, u2, t, policy)


def psi_tilde_reduced(idx: PsiIndex, tau: complex, z1: complex, z2: complex,
                      t: complex = 0.0,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Psi-tilde through the argument-reduced modification."""
    pref, *frame = _psi_frame(idx, tau, z1, z2)
    return pref * phi_tilde_reduced(*frame, t / idx.M, policy)


def psi_tilde(idx: PsiIndex, tau: complex, z1: complex, z2: complex, t: complex = 0.0,
              policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Psi with Phi replaced by its modification."""
    pref, *frame = _psi_frame(idx, tau, z1, z2)
    return pref * phi_tilde(*frame, t / idx.M, policy)


def psi_tilde_d0(idx: PsiIndex, tau: complex, z1: complex, z2: complex,
                 policy: TruncationPolicy = DEFAULT_POLICY):
    """(value, D0 value) of Psi-tilde at t = 0.

    With C the exponential prefactor of the wrapper, D0 C = (m (b-a)/M) C,
    and D0 passes through the argument shifts unchanged.
    """
    pref, *frame = _psi_frame(idx, tau, z1, z2)
    v, d = phi_tilde_d0(*frame, policy)
    slope = float(idx.m) * (float(idx.b) - float(idx.a)) / idx.M
    return pref * v, pref * (slope * v + d)


def s_independence_report(m: int, s_list, tau_list=None, z_pairs=None,
                          policy: TruncationPolicy = DEFAULT_POLICY):
    """Max pairwise deviation of Phi-tilde^{[m;s]} across s_list on a fixed
    grid.  Integer s values must agree; half-integer ones need not."""
    if tau_list is None:
        tau_list = [2.0j, 0.3 + 1.1j]
    if z_pairs is None:
        z_pairs = [(0.23 + 0.11j, 0.41 - 0.07j), (0.13 - 0.21j, 0.06 + 0.17j)]
    worst = 0.0
    for tau in tau_list:
        for z1, z2 in z_pairs:
            vals = [phi_tilde(MockIndex.of(m, s), tau, z1, z2, 0.0, policy)
                    for s in s_list]
            for i in range(len(vals)):
                for k in range(i + 1, len(vals)):
                    worst = max(worst, abs(vals[i] - vals[k]))
    return worst
