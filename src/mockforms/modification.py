"""Real-analytic corrections and modified functions.

The correction kernel

    R_{j;m}(tau, v) = sum_{n = j mod 2m, n in (1/2)Z}
        (sgn(n - 1/2 - j + 2m) - E((n - 2m Im v / Im tau) sqrt(Im tau / m)))
        e^{- pi i n^2 tau / 2m + 2 pi i n v},

with E(x) = 2 int_0^x e^{-pi u^2} du = erf(sqrt(pi) x), the correcting sum
Phi_add and the modifications Phi-tilde, Phi_1-tilde and Psi-tilde.  The
sgn argument is never zero: n - j in 2mZ puts it in 2mZ - 1/2.

The correcting sum needs R_{j;m} for the 2m indices j = s, ..., s+2m-1,
whose residues mod 2m cover s + Z once: r_window sums them all as one
series over n in s + Z, outward from the turning point n* = 2m Im v / Im tau,
where the bracket and the growing exponential compete; beyond it the net
decay is Gaussian.  Each term goes to the series of its residue where its
index lies in that series' own range, and R_{j;m} alone is series 0 of the
window at s = j.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import chain

from .qkernel import (
    ANCHOR_EVERY,
    DEFAULT_POLICY,
    SQRT_PI,
    TWO_PI,
    TWO_PI_I,
    DomainError,
    TruncationPolicy,
    _FAR,
    _MISS,
    _POINT_MEMO,
    _centre_error,
    _check_point,
    _index_range,
    TruncationOverflowError,
    e2pi,
)
from .mock import MockIndex, PsiIndex
from . import mock as mk, theta as th


# A walk forms the exponential factors e^{2 pi i w} of a run of terms by
# recurrence from an exact anchor only while log |e^{2 pi i w}| stays in
# [_WALK_LOG_MIN, _WALK_LOG_MAX] and has grown by at most _WALK_LOG_SPAN
# since the anchor.  Then the anchor is a normal double (a subnormal or
# underflowed one would pass its lost digits to every later term), no factor
# of the recurrence overflows, and the rounding of the ratios' exponents,
# which the recurrence passes on, stays near that of one exact term.  The
# rest of a run (a turning point far from the window, Im v / Im tau large)
# forms each term in log space, exactly, as the bracket may be tiny where
# the exponential overflows.  Which terms of a run are walked depends on its
# anchor alone, never on where the run ends.
_WALK_LOG_MIN = -700.0
_WALK_LOG_MAX = 700.0
_WALK_LOG_SPAN = 64.0
# Bound on run^2 times the phase of the ratio of ratios in a run.  Checked
# against the mpmath references of perfbench/oracle.py: over 1,000 cases
# (m in [1, 20], Im tau log-uniform on [1e-3, 2], |Re tau| <= 2m, tol 1e-12)
# the worst error of an R_{j;m} falls from 0.62 of tol + 64 eps cond with
# runs of ANCHOR_EVERY to 0.20.
_RUN_PHASE = 1024.0


def _r_ranges(s: float, m: float, y: float, n_star: float, policy: TruncationPolicy,
              buckets: tuple, want_dv: bool):
    """The index ranges of the series r in buckets of r_window, each as one
    R_{s+r;m} series: the pair of lists of the first and the last i
    (n = s + i) of each series for its values, and with want_dv a second
    pair for its derivatives.  A series not in buckets gets the empty range
    (inf, -inf).

    In the series of R_{j;m}, n = j + 2mk, with a = 2 pi m Im tau and
    u = k - k_star the exponential factor is e^{log_c + a u^2} and the
    bracket sgn erfc(sgn t), t = sqrt(pi) x = sqrt(2a) u.  Past both 0 and
    k_star (sgn t >= 0) the bracket is below e^{-t^2} = e^{-2 a u^2}: the
    term is below the Gaussian e^{log_c - a u^2}, and _index_range cuts
    each side where its tail drops at most min(tol/8, 2^-56 P).  Between 0
    and k_star the bracket lies in [1, 2); that window is summed whole, and
    its far end holds a term of at least e^{log_c + a u^2}.
    """
    width = round(2.0 * m)
    two_m = 2.0 * m
    a = TWO_PI * m * y
    sqrt_2a = math.sqrt(2.0 * a)
    log_c = -math.pi * y * n_star * n_star / two_m
    out = [([math.inf] * width, [-math.inf] * width, log_c)]
    if want_dv:
        # the derivative terms n t - dscale e^{-pi x^2} ... are below
        # |n_star| + 2 dscale times the Gaussian past the window, as
        # |n| <= |n_star| + 2m u, 2m u erfc(sqrt(2a) u) <= dscale e^{-2 a u^2}
        # and 2m / sqrt(2 pi a) = dscale
        dscale = math.sqrt(m / y) / math.pi
        out.append(([math.inf] * width, [-math.inf] * width,
                    log_c + math.log(abs(n_star) + 2.0 * dscale)))
    for r in buckets:
        k_star = (n_star - (s + r)) / two_m
        k0 = round(k_star)
        far = k_star if k_star > -0.5 else -1.0 - k_star
        if far > 0.0:
            log_p = log_c + a * far * far
        else:
            u0 = abs(k0 - k_star)
            log_p = log_c - a * u0 * u0 - math.log(SQRT_PI * (1.0 + sqrt_2a * u0))
        # the tails start past the window between 0 and k_star
        top = max(math.ceil(k_star) - 1, -1)
        for lo, hi, log_cl in out:
            k_lo, k_hi = _index_range(k0, k_star, a, log_cl, log_p, policy)
            lo[r] = r + width * (k_lo if k_lo < 0 else 0)
            hi[r] = r + width * (k_hi if k_hi > top else top)
    return [(lo, hi) for lo, hi, _ in out]


def r_window(s: float, m: float, tau: complex, v: complex, policy: TruncationPolicy,
             want_dv: bool = False, buckets: tuple | None = None):
    """The correcting window, the tuple of R_{s+r;m}(tau, v) for r = 0, ...,
    2m-1, or with want_dv the pair of it and the tuple of
    (1/2 pi i) dR_{s+r;m}/dv, from one walk over n = s + i, i in Z.  With
    buckets, a nonempty tuple of r in ascending order, only those are
    summed, and the others are 0: R_{j;m} alone is r_window(j, m, tau, v,
    policy, buckets=(0,))[0].

    The E-factor depends on v only through Im v, whose Wirtinger derivative
    is -i/2; per term

        (1/2 pi i) d/dv [(sgn - E(x_n)) e^{2 pi i n v}]
            = (n (sgn - E(x_n)) - sqrt(m/Im tau) e^{-pi x_n^2} / pi) e^{...}.

    The residues s + r + 2mZ cover s + Z once, so the term at i belongs to
    R_{s+r;m} for r = i mod 2m, and its sgn is +1 exactly when i >= 0.  Its
    exponential factor e^{2 pi i n (-n tau / 4m + v)} is a quadratic
    exponential in i, formed by recurrence from an exact anchor at the start
    of each run, so a term costs one erfc, and its derivative one real exp
    more.  Each series sums the index range that _index_range gives it
    alone, as one R_{j;m} series: its values over the range of the value
    majorant, its derivatives over that of the derivative majorant; the walk
    runs over the union of those ranges.  n_max counts the terms of one
    series, as for one R_{j;m}: of its values, or with want_dv of its
    derivatives.  The value part does not depend on want_dv, to the bit, and
    a series does not depend on which others are summed with it.
    """
    width = round(2.0 * m)
    if buckets is None:
        buckets = tuple(range(width))
    memo = _POINT_MEMO.get()
    if memo is not None:
        key = ("R", buckets, s, m, tau, v, policy, want_dv)
        if (out := memo.get(key, _MISS)) is not _MISS:
            return out
    if not (m > 0 and (2.0 * m).is_integer() and (2.0 * s).is_integer()):
        raise ValueError(f"s and m must be half-integers and m positive, got {s}, {m}")
    if not buckets or min(buckets) < 0 or max(buckets) >= width:
        raise ValueError(f"buckets must name some r in 0..{width - 1}, got {buckets}")
    tau = _check_point(tau, v)
    v = complex(v)
    scale = math.sqrt(tau.imag / m)
    n_star = 2.0 * m * v.imag / tau.imag
    if not math.isfinite(n_star):
        raise _centre_error(n_star)
    (lo_v, hi_v), *dv = _r_ranges(s, m, tau.imag, n_star, policy, buckets, want_dv)
    lo_d, hi_d = dv[0] if dv else (lo_v, hi_v)
    widest = max(map(operator.sub, hi_d, lo_d)) // width + 1
    if widest > policy.n_max:
        raise TruncationOverflowError(
            f"series needs {widest} terms to meet tol={policy.tol:g}, "
            f"over n_max={policy.n_max}")

    # Every n in s + Z has n^2 = s^2 mod 1 (2n is an integer), so moving tau
    # by 4m multiplies every term e^{2 pi i n (qa n + v)} by the same unit
    # e^{-2 pi i s^2} (1, or -i for half-integer s).  The walk takes Re tau
    # to within 2m of 0 (exactly) and multiplies the sums by that unit to the
    # power of the shift at the end, so that the phases of its anchors and
    # ratios do not carry a large Re tau.
    # log |e^{2 pi i n (qa n + v)}| = log_c + a_n (n - n_star)^2.
    shift = round(tau.real / (4.0 * m))
    qa = -complex(tau.real - 4.0 * m * shift, tau.imag) / (4.0 * m)
    unit = (1, -1j, -1, 1j)[shift % 4] if s % 1 else 1
    a_n = math.pi * tau.imag / (2.0 * m)
    log_c = -a_n * n_star * n_star
    # The ratio of ratios q2 = e^{4 pi i qa} of a run turns by
    # phase = 4 pi |Re qa| <= 2 pi rad a step; the rounding of that phase
    # gathers in the k-th term of a run about k^2/2 times over, so runs are
    # shortened from ANCHOR_EVERY to keep run^2 phase within _RUN_PHASE.
    run = ANCHOR_EVERY
    phase = 4.0 * math.pi * abs(qa.real)
    if run * run * phase > _RUN_PHASE:
        run = int(math.sqrt(_RUN_PHASE / phase))
    # The walk runs outward from i0, up to i_hi and down to i_lo, in runs of
    # up to `run` terms.  n = s + i0 is the n in s + Z nearest n_star, found
    # from n_star and s mod 1 alone, so every s of one class mod 1 anchors
    # its runs at the same n.  The term at k belongs to series b = k mod 2m
    # and is summed into vals[b] where lo_v[b] <= k <= hi_v[b], and into
    # ders[b] where lo_d[b] <= k <= hi_d[b]; a series not in buckets has the
    # empty range (inf, -inf).
    i0 = math.floor(n_star - s % 1 + 0.5) - math.floor(s)
    i_lo, i_hi = min(chain(lo_v, lo_d)), max(chain(hi_v, hi_d))
    vals = [0.0 + 0.0j] * width
    if want_dv:
        ders = [0.0 + 0.0j] * width
        dscale = math.sqrt(m / tau.imag) / math.pi
    erfc, exp, cexp, log, copysign = math.erfc, math.exp, cmath.exp, math.log, math.copysign
    c = SQRT_PI * scale
    c2 = math.pi * scale * scale
    try:
        for i in chain(range(i0, i_hi + 1, run), range(i0 - 1, i_lo - 1, -run)):
            step = 1 if i >= i0 else -1
            count = min(run, i_hi + 1 - i if step > 0 else i + 1 - i_lo)
            # Every run walks away from n_star (the first starts within 1/2
            # of it), so |e^{2 pi i w}| grows along it, and its first
            # `walked` terms are the ones the recurrence may form, if there
            # are two or more of them: then the ratio (and that of the
            # ratios, for three or more) is below e^{_WALK_LOG_SPAN}.
            n = s + i
            u = n - n_star
            low = log_c + a_n * u * u
            walked = 0
            if _WALK_LOG_MIN <= low <= _WALK_LOG_MAX:
                reach = math.sqrt((min(_WALK_LOG_MAX, low + _WALK_LOG_SPAN) - log_c) / a_n)
                walked = math.floor(reach - step * u) + 1
                walked = 0 if walked < 2 else min(walked, count)
            # sgn - E(x) = sgn * erfc(sgn * sqrt(pi) * x), x = (n - n_star)
            # scale, and sgn = +1 exactly when k >= 0
            if walked:
                e = cexp(TWO_PI_I * n * (qa * n + v))
                r = cexp(TWO_PI_I * step * (qa * (2.0 * n + step) + v))
                q2 = cexp(2.0 * TWO_PI_I * qa) if walked > 2 else 0j
                if want_dv:
                    for k in range(i, i + step * walked, step):
                        b = k % width
                        in_v = lo_v[b] <= k <= hi_v[b]
                        in_d = lo_d[b] <= k <= hi_d[b]
                        if in_v or in_d:
                            n = s + k
                            d = n - n_star
                            t = (erfc(c * d) if k >= 0 else -erfc(-c * d)) * e
                            if in_v:
                                vals[b] += t
                            if in_d:
                                ders[b] += n * t - dscale * exp(-c2 * d * d) * e
                        e *= r
                        r *= q2
                else:
                    for k in range(i, i + step * walked, step):
                        b = k % width
                        if lo_v[b] <= k <= hi_v[b]:
                            d = s + k - n_star
                            vals[b] += (erfc(c * d) if k >= 0 else -erfc(-c * d)) * e
                        e *= r
                        r *= q2
            for k in range(i + step * walked, i + step * count, step):
                b = k % width
                in_v = lo_v[b] <= k <= hi_v[b]
                in_d = lo_d[b] <= k <= hi_d[b]
                if in_v or in_d:
                    n = s + k
                    d = n - n_star
                    br = erfc(c * d) if k >= 0 else -erfc(-c * d)
                    w = TWO_PI_I * n * (qa * n + v)
                    t = copysign(1.0, br) * cexp(w + log(abs(br))) if br else 0j
                    if in_v:
                        vals[b] += t
                    if want_dv and in_d:
                        ders[b] += n * t - dscale * cexp(w - c2 * d * d)
    except OverflowError as exc:
        raise DomainError(f"a series term overflowed a double ({exc})") from exc
    if unit != 1:
        vals = [unit * x for x in vals]
        if want_dv:
            ders = [unit * x for x in ders]
    if not all(map(cmath.isfinite, vals + ders if want_dv else vals)):
        raise DomainError("a series term overflowed a double")
    out = (tuple(vals), tuple(ders)) if want_dv else tuple(vals)
    if memo is not None:
        memo[key] = out
    return out


def _correction(idx: MockIndex, m: float, s: float, tau: complex, z1: complex,
                z2: complex, policy: TruncationPolicy, want_dv: bool = False):
    """(1/2) sum_{j=s}^{s+2m-1} R_{j;m}(tau, (z1-z2)/2) (Theta_{-j,m} -
    Theta_{j,m})(tau, z1+z2) with m, s = float(idx.m), float(idx.s), or with
    want_dv the pair of it and the same sum over (1/2 pi i) dR_{j;m}/dv: the
    correcting sum of phi_add and of the modifications, with its 1/2.

    The window j = s + r, r = 0, ..., 2m-1, meets every residue of s + Z mod
    2m once, and so does its negative, so the difference at the dual r' of r
    (s + r' = -j) is that at r negated: each pair is summed once.  A residue
    with -j == j cancels exactly, and so does a zero difference: neither is
    summed, and R is formed only at the r that remain."""
    thetas, duals = idx.correction_window
    zs, diff = z1 + z2, {}
    for r, dual in duals:
        if r < dual:
            diff[r] = d = th.theta_pair_diff(thetas[r], tau, zs, policy)
            diff[dual] = -d
    diffs = [(r, diff[r]) for r, _ in duals if diff[r] != 0]
    if not diffs:
        return (0j, 0j) if want_dv else 0j
    rs = r_window(s, m, tau, (z1 - z2) / 2.0, policy, want_dv, tuple(r for r, _ in diffs))
    sums = []
    for window in rs if want_dv else (rs,):
        total = 0.0 + 0.0j
        for r, d in diffs:
            total += window[r] * d
        sums.append(0.5 * total)
    return tuple(sums) if want_dv else sums[0]


def phi_add(idx: MockIndex, tau: complex, z1: complex, z2: complex, t: complex = 0.0,
            policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """(1/2) e^{2 pi i m t} sum_{j=s}^{s+2m-1} R_{j;m}(tau, (z1-z2)/2)
    (Theta_{-j,m} - Theta_{j,m})(tau, z1+z2).  The point is checked here,
    since a window that cancels whole sums no series that would check it."""
    m = float(idx.m)
    total = _correction(idx, m, float(idx.s), _check_point(tau, z1, z2), z1, z2, policy)
    return total * e2pi(m * t) if t != 0 else total


def _lattice_shift(idx: MockIndex, tau: complex, z1: complex, z2: complex):
    """(tau, u1, u2, law): tau, checked unless both |c| < 1/2, the points
    u = z - (a, b) tau where Phi-tilde is summed, and law = (e(-m(a b tau +
    b u1 + a u2)), m(a - b)), the factor of Phi~(u + (a, b) tau) = factor
    Phi~(u) and its D0 slope, or None at (a, b) = (0, 0).  (a, b) round
    c = Im z / Im tau; at half-integer m the law needs a = b mod 2, so an
    odd a - b moves the c farther from its integer to its other neighbour.
    In units of pi Im tau the R Theta peak term 2m c1 c2 is fixed, and the
    Appell one (1 - w_j caps its terms) lies max(0, |h| - 1/2)^2 / 2m above
    it, h = s - m(c1 - c2) - 1/2; the shift moves h by m(a - b) and is
    taken exactly when it lowers that peak.  A c not finite, or 2^52 or
    more, raises DomainError."""
    if abs(z1.imag) < 0.5 * tau.imag > abs(z2.imag):
        return tau, z1, z2, None                 # the sums check the point
    tau = _check_point(tau, z1, z2)
    c1, c2 = z1.imag / tau.imag, z2.imag / tau.imag
    if not abs(c1) < _FAR > abs(c2):
        raise _centre_error(max(c1, c2, key=abs))
    a, b = round(c1), round(c2)
    if (a - b) % 2 and idx.m.twice % 2:
        if abs(c1 - a) >= abs(c2 - b):
            a += 1 if c1 > a else -1
        else:
            b += 1 if c2 > b else -1
    m = float(idx.m)
    h = float(idx.s) - m * (c1 - c2) - 0.5
    if not 0.5 < abs(h) > abs(h + m * (a - b)):
        return tau, z1, z2, None
    u1, u2 = z1 - a * tau, z2 - b * tau
    return tau, u1, u2, (e2pi(-m * (a * b * tau + b * u1 + a * u2)), m * (a - b))


def phi_tilde(idx: MockIndex, tau: complex, z1: complex, z2: complex, t: complex = 0.0,
              policy: TruncationPolicy = DEFAULT_POLICY, want_d0: bool = False):
    """Modification Phi + Phi_add, summed at the points _lattice_shift picks:
    the two Appell sums of phi and the correcting sum of phi_add, each
    scaled by e^{2 pi i m t} as phi and phi_add scale it.  With want_d0 the
    pair of it and its D0 = (1/2 pi i)(d/dz1 - d/dz2), taken termwise; the
    Appell sums of the pair run over their D0 ranges, so its value need not
    be the bits of the value alone.

    The swap-negated Appell sum obeys D0[Phi_1(-z2,-z1)] = (D0 Phi_1)(-z2,-z1).
    In Phi_add only the R-factor depends on z1 - z2, so D0 hits it alone,
    with weight 1 in the v-slot.  D0 of the law's factor is slope * factor."""
    tau, z1, z2, law = _lattice_shift(idx, tau, z1, z2)
    m, s = float(idx.m), float(idx.s)
    a = mk._phi1_core(m, s, tau, z1, z2, policy, want_d0=want_d0)
    b = mk._phi1_core(m, s, tau, -z2, -z1, policy, want_d0=want_d0)
    total = _correction(idx, m, s, tau, z1, z2, policy, want_d0)
    if want_d0:
        (a, da), (b, db), (total, d) = a, b, total
        d += da - db
    a -= b
    if t != 0:
        e = e2pi(m * t)
        a, total = a * e, total * e
        if want_d0:
            d *= e
    value = a + total
    if law is not None:
        f, slope = law
        if want_d0:
            d = f * (d + slope * value)
        value *= f
    return (value, d) if want_d0 else value


def phi1_tilde(idx: MockIndex, tau: complex, z1: complex, z2: complex,
               policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Phi_1 + Phi_1,add, with Phi_1,add the one-sided correcting sum: the
    window sum with the theta difference replaced by -Theta_{j,m}, so that
    assembling

        e^{2 pi i m t} (Phi_1-tilde(z1,z2) - Phi_1-tilde(-z2,-z1))

    reproduces Phi-tilde exactly.  (The swap-negate map fixes (z1-z2)/2 and
    negates z1+z2, turning -Theta_j into Theta_{-j} - Theta_j pairwise.)
    """
    zs = z1 + z2
    rs = r_window(float(idx.s), float(idx.m), tau, (z1 - z2) / 2.0, policy)
    total = 0.0 + 0.0j
    for r, x in enumerate(idx.correction_window[0]):
        total += rs[r] * th.theta_jm(x, tau, zs, 0.0, policy)
    return mk.phi1(idx, tau, z1, z2, policy) - 0.5 * total


def psi_tilde(idx: PsiIndex, tau: complex, z1: complex, z2: complex, t: complex = 0.0,
              policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Psi with Phi replaced by its modification."""
    pref, *frame = mk._psi_frame(idx, tau, z1, z2)
    return pref * phi_tilde(*frame, t / idx.M, policy)
