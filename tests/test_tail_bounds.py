"""The index ranges of the three series kernels against brute force.

Each kernel picks [k_lo, k_hi] from a closed-form tail bound before it sums
(qkernel._index_range): each side drops a tail of at most
min(tol/8, 2^-56 P) under the kernel's majorant, P a lower bound on the
largest term, with no other cap.  Here the terms outside that range are
summed directly, from the series definitions, and each direction's dropped
tail must be at most min(tol/8, 2^-55 peak), peak the largest term inside
the range.  The derivative series (want_d0, want_dv) are held to the same
targets, against the peak of the values.  The correcting window of R sums
2m interleaved series, one per R_{s+r;m}, over one range: each of them is
held to the targets on its own.

The pinned ranges come with those of the older rule, which capped each cut
at the reach of a walk that stopped after 4 or 5 successive terms below
tol/16: the cap only ever shortened a range, so every range must contain
the capped one.
"""

import cmath
import hashlib
import json
import math
import pathlib

import pytest

import mockforms.mock as mock
import mockforms.modification as modification
import mockforms.theta as theta
from mockforms.qkernel import (
    SQRT_PI,
    TruncationOverflowError,
    TruncationPolicy,
    _index_range,
)

TWO_PI_I = 2j * math.pi


def _recording(monkeypatch, module):
    """Record (k0, k_lo, k_hi) of every sum_bilateral call of module."""
    calls = []
    real = module.sum_bilateral

    def rec(anchor, k0, k_lo, k_hi, policy, walk=None):
        calls.append((k0, k_lo, k_hi))
        return real(anchor, k0, k_lo, k_hi, policy, walk)

    monkeypatch.setattr(module, "sum_bilateral", rec)
    return calls


def _tail(mag, start, step, target):
    """Sum of mag(k) for k = start, start + step, ..., until the terms stay
    far below target."""
    total, quiet, k = 0.0, 0, start
    for _ in range(200_000):
        t = mag(k)
        total += t
        quiet = quiet + 1 if t < 1e-30 * target or t == 0.0 else 0
        if quiet >= 50:
            return total
        k += step
    raise AssertionError("tail did not settle")


def _check_range(k0, k_lo, k_hi, value_mag, series_mags, tol):
    """Each side of every series in series_mags drops at most
    min(tol/8, 2^-55 peak), peak the largest value term in the range."""
    assert k_lo <= k0 <= k_hi + 1
    peak = max(value_mag(k) for k in range(k_lo, k_hi + 1))
    target = min(tol / 8, 2.0 ** -55 * peak)
    for mag in series_mags:
        for start, step in ((k_hi + 1, 1), (k_lo - 1, -1)):
            tail = _tail(mag, start, step, target)
            assert tail <= target, (tail, target, step)


def _contains(new, capped):
    """The range new = (k_lo, k_hi) reaches at least as far as capped on
    both sides."""
    assert new[0] <= capped[0] and new[1] >= capped[1], (new, capped)


TOLS = (1e-12, 1e-6)

THETA_POINTS = [
    (1, 2, 0.8j, 0.23 + 0.11j),
    (0.5, 0.5, 0.3 + 1e-3j, 0.2 + 0.002j),
    (3, 20, 1e-3j, 0.1 - 0.0017j),
    (1, 1, 1j, 0.3 + 12j),
    (0, 1, -2.0 + 2j, 0.1 - 25j),
    (1.5, 4.5, 1.0 + 4.0j, 0.37),
]


# (k0, k_lo, k_hi) of each point above; a recurrence walk changes how terms
# are formed, never which
THETA_RANGES = {
    1e-12: [(0, -2, 1), (-2, -113, 110), (1, -16, 18), (-6, -12, -1), (6, 0, 12), (0, 0, 0)],
    1e-06: [(0, -2, 1), (-2, -113, 110), (1, -16, 18), (-6, -12, -1), (6, 0, 12), (0, 0, 0)],
}
# the same under the older rule's cap
THETA_RANGES_CAPPED = {
    1e-12: [(0, -2, 1), (-2, -103, 100), (1, -16, 18), (-6, -12, -1), (6, 0, 12), (0, 0, 0)],
    1e-06: [(0, -2, 1), (-2, -78, 75), (1, -14, 16), (-6, -12, -1), (6, 0, 12), (0, 0, 0)],
}


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("j, m, tau, z", THETA_POINTS)
def test_theta_range(j, m, tau, z, tol, monkeypatch):
    calls = _recording(monkeypatch, theta)
    theta.theta_jm(theta.ThetaIndex.of(j, m), tau, z, 0.0, TruncationPolicy(tol=tol))
    (k0, k_lo, k_hi), = calls
    i = THETA_POINTS.index((j, m, tau, z))
    assert (k0, k_lo, k_hi) == THETA_RANGES[tol][i]
    _contains((k_lo, k_hi), THETA_RANGES_CAPPED[tol][i][1:])
    base = (j / (2 * m)) % 1

    def mag(k):
        n = base + k
        return math.exp(-2 * math.pi * (m * n * n * tau.imag + m * n * complex(z).imag))

    _check_range(k0, k_lo, k_hi, mag, [mag], tol)


JACOBI_POINTS = [
    (0, 0, 0.8j, 0.23 + 0.11j),
    (1, 1, 0.3 + 1e-3j, 0.2 + 0.002j),
    (1, 0, 1e-3j, 0.1 - 0.0017j),
    (0, 1, 1j, 0.3 + 12j),
    (1, 1, 1.0 + 4.0j, 0.37 - 9j),
]

# as THETA_RANGES
JACOBI_RANGES = {
    1e-12: [(0, -4, 3), (-2, -114, 109), (1, -110, 113), (-12, -24, 0), (2, 0, 4)],
    1e-06: [(0, -4, 3), (-2, -114, 109), (1, -110, 113), (-12, -24, 0), (2, 0, 4)],
}


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("a, b, tau, z", JACOBI_POINTS)
def test_jacobi_range(a, b, tau, z, tol, monkeypatch):
    # theta_ab is one series over n = a/2 + k with |term| = e^{-pi Im tau n^2
    # - 2 pi n Im z}
    calls = _recording(monkeypatch, theta)
    theta.jacobi_theta(a, b, tau, z, TruncationPolicy(tol=tol))
    (k0, k_lo, k_hi), = calls
    assert (k0, k_lo, k_hi) == JACOBI_RANGES[tol][JACOBI_POINTS.index((a, b, tau, z))]

    def mag(k):
        n = a / 2 + k
        return math.exp(-math.pi * (n * n * tau.imag + 2 * n * complex(z).imag))

    _check_range(k0, k_lo, k_hi, mag, [mag], tol)


PAIR_POINTS = [
    (1, 2, 0.8j, 0.23 + 0.11j),
    (0.5, 1.5, 0.3 + 1e-3j, 0.2 + 0.002j),
    (3, 20, 1e-3j, 0.1 - 0.0017j),
    (0.5, 1, 1j, 0.3 + 12j),
    (2.5, 4.5, 1.0 + 4.0j, 0.37),
]

# as THETA_RANGES: the union of the ranges of the two series
PAIR_RANGES = {
    1e-12: [(0, -2, 1), (-1, -66, 63), (1, -17, 18), (-6, -13, 0), (0, -1, 0)],
    1e-06: [(0, -2, 1), (-1, -66, 63), (1, -17, 18), (-6, -12, -1), (0, -1, 0)],
}


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("j, m, tau, z", PAIR_POINTS)
def test_pair_diff_range(j, m, tau, z, tol, monkeypatch):
    # both series run over n = base + k, base the offsets of j and -j in
    # [0, 1), lower first; the walk covers the union of the ranges that
    # theta_jm cuts for Theta_{j,m} and Theta_{-j,m}, and n_max counts it
    calls = _recording(monkeypatch, theta)
    policy = TruncationPolicy(tol=tol)
    theta.theta_pair_diff(theta.ThetaIndex.of(j, m), tau, z, policy)
    (k0, k_lo, k_hi), = calls
    assert (k0, k_lo, k_hi) == PAIR_RANGES[tol][PAIR_POINTS.index((j, m, tau, z))]
    bases = sorted(((j / (2 * m)) % 1, (-j / (2 * m)) % 1))
    calls.clear()
    for x in (j, -j):
        theta.theta_jm(theta.ThetaIndex.of(x, m), tau, z, 0.0, policy)
    (_, lo1, hi1), (_, lo2, hi2) = calls
    assert (k_lo, k_hi) == (min(lo1, lo2), max(hi1, hi2))

    def mag(base):
        return lambda k: math.exp(-2 * math.pi * m * (
            (base + k) ** 2 * tau.imag + (base + k) * complex(z).imag))

    mags = [mag(base) for base in bases]
    _check_range(k0, k_lo, k_hi, lambda k: max(f(k) for f in mags), mags, tol)
    if k_hi - k_lo >= 8:                # n_max one below the union refuses
        with pytest.raises(TruncationOverflowError):
            theta.theta_pair_diff(theta.ThetaIndex.of(j, m), tau, z,
                                  TruncationPolicy(tol=tol, n_max=k_hi - k_lo))


PHI1_POINTS = [
    (1, 0, 0.8j, 0.23 + 0.11j, 0.41 - 0.07j),
    (0.5, 0.5, 0.3 + 1e-3j, 0.15 + 0.0005j, -0.2 + 0.0013j),
    (2, -1.5, 1e-3j, 0.0015 + 0.00037j, 0.2 - 0.002j),    # z1 near the guard
    (1, 0.5, 0.8j, 0.0011, 0.3),                           # z1 near the guard
    (1.5, 1, 0.9j, 1.6j + 0.0012, 0.2 + 0.1j),             # guard, two rows up
    (1, 0, 0.3 + 0.9j, 0.2 + 2.5j, 0.1 + 1.1j),            # large Im z
    (3, 2.5, 2.0j, 0.4 - 3.5j, -0.3 + 0.2j),
]


# as THETA_RANGES, keyed by (tol, want_d0)
PHI1_RANGES = {
    (1e-12, False): [(0, -3, 2), (-1, -121, 119), (1, -58, 61), (0, -3, 2), (-1, -3, 1),
                     (-2, -5, 1), (0, -1, 2)],
    (1e-12, True): [(0, -3, 3), (-1, -129, 126), (1, -62, 64), (0, -3, 2), (-1, -3, 1),
                    (-2, -5, 1), (0, -1, 2)],
    (1e-06, False): [(0, -3, 2), (-1, -121, 119), (1, -58, 61), (0, -3, 2), (-1, -3, 1),
                     (-2, -4, 0), (0, -1, 1)],
    (1e-06, True): [(0, -3, 3), (-1, -129, 126), (1, -62, 64), (0, -3, 2), (-1, -3, 1),
                    (-2, -4, 0), (0, -1, 1)],
}
PHI1_RANGES_CAPPED = {
    (1e-12, False): [(0, -3, 2), (-1, -101, 99), (1, -51, 53), (0, -3, 2), (-1, -3, 1),
                     (-2, -5, 1), (0, -1, 2)],
    (1e-12, True): [(0, -3, 3), (-1, -101, 99), (1, -51, 53), (0, -3, 2), (-1, -3, 1),
                    (-2, -5, 1), (0, -1, 2)],
    (1e-06, False): [(0, -3, 2), (-1, -75, 73), (1, -38, 40), (0, -3, 2), (-1, -3, 1),
                     (-2, -4, 0), (0, -1, 1)],
    (1e-06, True): [(0, -3, 3), (-1, -78, 76), (1, -38, 40), (0, -3, 2), (-1, -3, 1),
                    (-2, -4, 0), (0, -1, 1)],
}


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("want_d0", [False, True])
@pytest.mark.parametrize("m, s, tau, z1, z2", PHI1_POINTS)
def test_phi1_range(m, s, tau, z1, z2, want_d0, tol, monkeypatch):
    calls = _recording(monkeypatch, mock)
    policy = TruncationPolicy(tol=tol)
    mock._phi1_core(float(m), float(s), tau, z1, z2, policy, want_d0=want_d0)
    (k0, k_lo, k_hi), = calls
    i = PHI1_POINTS.index((m, s, tau, z1, z2))
    assert (k0, k_lo, k_hi) == PHI1_RANGES[tol, want_d0][i]
    _contains((k_lo, k_hi), PHI1_RANGES_CAPPED[tol, want_d0][i][1:])
    zs = z1 + z2

    def parts(j):
        """(|N_j / (1 - w_j)|, w_j / (1 - w_j)), in logs where |w_j| is large."""
        log_num = -2 * math.pi * (m * j * zs + s * z1 + tau * (m * j * j + s * j)).imag
        u = z1 + j * tau
        if u.imag >= 0:
            w = cmath.exp(TWO_PI_I * u)
            return math.exp(log_num - math.log(abs(1.0 - w))), w / (1.0 - w)
        w_inv = cmath.exp(-TWO_PI_I * u)
        log_den = -2 * math.pi * u.imag + math.log(abs(1.0 - w_inv))
        return math.exp(log_num - log_den), 1.0 / (w_inv - 1.0)

    def value(j):
        return parts(j)[0]

    def derivative(j):
        # s N/D + N w/D^2 = (N/D) (s + w/D)
        t, ratio = parts(j)
        return t * abs(s + ratio)

    mags = [value, derivative] if want_d0 else [value]
    _check_range(k0, k_lo, k_hi, value, mags, tol)


# window starts s, degrees m, and points of the correcting window
R_POINTS = [
    (0.5, 1.5, 0.2 + 0.7j, 0.13 + 0.21j),
    (0.5, 0.5, 1e-3j, 0.1 + 0.0025j),
    (-1.5, 2, 0.4 + 1e-3j, 0.2 - 0.004j),
    (2, 3.5, 0.05j, 0.3 - 0.3j),
    (1, 2, 1j, 0.1 + 6j),                                   # large Im v: long window
    (1, 2, 1j, 0.1 - 6j),
    (-7.5, 20, 4.0j, 0.4 + 1.2j),
    (0, 1, 0.9j, 0.3 + 0.01j),
]


# (k_lo, k_hi) of the values and of the derivatives of each series of the
# window at each point above.  At tol 1e-6 as at 1e-12 the 2^-56 P target
# sets every cut, so one table serves both.
R_RANGES = {
    "values": [
        [(-2, 2), (-2, 2), (-3, 1)],
        [(-110, 114)],
        [(-59, 52), (-59, 51), (-59, 51), (-60, 51)],
        [(-8, -1)] * 4 + [(-7, -1)] * 3,
        [(0, 5), (0, 5), (0, 5), (0, 4)],
        [(-6, -1), (-6, -1), (-7, -1), (-7, -1)],
        [(0, 0)] * 38 + [(-1, 0)] * 2,
        [(-2, 2), (-3, 2)],
    ],
    "derivatives": [
        [(-2, 2), (-2, 2), (-3, 2)],
        [(-114, 118)],
        [(-61, 54), (-62, 54), (-62, 54), (-62, 53)],
        [(-9, -1)] * 4 + [(-8, -1)] * 3,
        [(0, 5), (0, 5), (0, 5), (0, 4)],
        [(-6, -1), (-6, -1), (-7, -1), (-7, -1)],
        [(0, 0)] * 38 + [(-1, 0)] * 2,
        [(-2, 2), (-3, 2)],
    ],
}
# the ranges under the older rule's cap where they differ from R_RANGES,
# keyed by (tol, kind, index of the point)
R_RANGES_CAPPED = {
    (1e-12, "values", 1): [(-96, 100)],
    (1e-12, "values", 2): [(-55, 48), (-55, 47), (-55, 47), (-56, 47)],
    (1e-12, "derivatives", 1): [(-100, 104)],
    (1e-12, "derivatives", 2): [(-55, 48), (-55, 47), (-55, 47), (-56, 47)],
    (1e-06, "values", 1): [(-69, 73)],
    (1e-06, "values", 2): [(-41, 34), (-42, 34), (-42, 34), (-42, 33)],
    (1e-06, "derivatives", 1): [(-76, 80)],
    (1e-06, "derivatives", 2): [(-43, 35)] * 4,
}


def _r_terms(j, m, tau, v):
    """(value, derivative) term magnitudes of the series of R_{j;m} at k,
    n = j + 2mk."""
    y = tau.imag
    n_star = 2 * m * v.imag / y
    scale = math.sqrt(y / m)
    dscale = math.sqrt(m / y) / math.pi

    def pieces(k):
        n = j + 2 * m * k
        sgn = 1.0 if k >= 0 else -1.0
        x = (n - n_star) * scale
        growth = 2 * math.pi * (n * n * y / (4 * m) - n * v.imag)
        bracket = math.erfc(sgn * SQRT_PI * x)
        value = math.exp(math.log(bracket) + growth) if bracket > 0 else 0.0
        # the two parts share the phase e^{2 pi i Re w}; the bracket's sign is
        # sgn, the slope part's is -1
        slope = math.exp(min(-math.pi * x * x + growth, 700.0))
        return value, abs(sgn * n * value - dscale * slope)

    return (lambda k: pieces(k)[0]), (lambda k: pieces(k)[1])


def _r_series_of(s, m, tau, v, ranges):
    """(k0, ranges, term magnitudes) of each series R_{s+r;m} of the window,
    k0 the index nearest its k_star."""
    n_star = 2 * m * v.imag / tau.imag
    for r, rs in enumerate(ranges):
        yield round((n_star - s - r) / (2 * m)), rs, _r_terms(s + r, m, tau, v)


def _window_ranges(monkeypatch, s, m, tau, v, policy, want_dv):
    """[(k_lo, k_hi) of the values, (k_lo, k_hi) of the derivatives or None]
    of each R_{s+r;m} as a window call sums them, with k the index of the
    series of R_{s+r;m} (n = s + r + 2mk)."""
    calls = []
    real = modification._r_ranges

    def rec(*args):
        out = real(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(modification, "_r_ranges", rec)
    modification.r_window(float(s), float(m), tau, v, policy, want_dv)
    out, = calls
    width = round(2 * m)

    def k_range(lo, hi, r):
        return (lo[r] - r) // width, (hi[r] - r) // width

    return [[k_range(lo, hi, r) for lo, hi in out] + [None] * (2 - len(out))
            for r in range(width)]


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("want_dv", [False, True])
@pytest.mark.parametrize("s, m, tau, v", R_POINTS)
def test_r_range(s, m, tau, v, want_dv, tol, monkeypatch):
    # every series of the window, R_{s+r;m}, is held to the same checks as
    # one series: both of its ranges drop tails within the targets
    policy = TruncationPolicy(tol=tol)
    ranges = _window_ranges(monkeypatch, s, m, tau, v, policy, want_dv)
    i = R_POINTS.index((s, m, tau, v))
    for slot, kind in enumerate(("values", "derivatives")[:1 + want_dv]):
        got = [rs[slot] for rs in ranges]
        assert got == R_RANGES[kind][i]
        for new, capped in zip(got, R_RANGES_CAPPED.get((tol, kind, i), got)):
            _contains(new, capped)
    for k0, (values, derivatives), (value, derivative) in _r_series_of(s, m, tau, v, ranges):
        _check_range(k0, *values, value, [value], tol)
        if want_dv:
            _check_range(k0, *derivatives, value, [derivative], tol)


def _per_index_range(j, m, tau, v, policy, want_dv):
    """(k_lo, k_hi) of R_{j;m} as its own series: one _index_range call for
    the value majorant, or with want_dv for the derivative majorant, and the
    window between 0 and k_star summed whole."""
    y = tau.imag
    n_star = 2.0 * m * v.imag / y
    k_star = (n_star - j) / (2.0 * m)
    k0 = round(k_star)
    a = 2 * math.pi * m * y
    log_c = -math.pi * y * n_star * n_star / (2.0 * m)
    dscale = math.sqrt(m / y) / math.pi
    lift = abs(n_star) + 2.0 * dscale if want_dv else 1.0
    far = max(k_star, -1.0 - k_star, 0.0)
    if far:
        log_p = log_c + a * far * far
    else:
        u0 = abs(k0 - k_star)
        log_p = log_c - a * u0 * u0 - math.log(SQRT_PI * (1.0 + math.sqrt(2.0 * a) * u0))
    k_lo, k_hi = _index_range(k0, k_star, a, log_c + math.log(lift), log_p, policy)
    return min(k_lo, 0), max(k_hi, math.ceil(k_star) - 1, -1)


# turning point n* = +-100, far from the window: the terms next to k_star
# underflow, while those next to n = s are of order 1
R_FAR_POINTS = [(1, 2, 1j, 0.1 + 25j), (1, 2, 1j, 0.1 - 25j)]

NMAX_POINTS = R_POINTS + R_FAR_POINTS + [
    (0.5, 1, 0.2 + 1e-3j, 0.1 + 0.001j),
    (-2, 3, -0.3 + 2e-3j, 0.05 - 0.004j),
    (1.5, 1.5, 0.1 + 0.03j, 0.2 + 0.05j),
]


@pytest.mark.parametrize("want_dv", [False, True])
@pytest.mark.parametrize("s, m, tau, v", NMAX_POINTS)
def test_r_window_refuses_exactly_where_one_series_would(s, m, tau, v, want_dv, monkeypatch):
    # each series of the window sums the range of R_{s+r;m} as one series,
    # and n_max refuses the window exactly where the widest of those series
    # would be refused; with buckets=(0,) the window is one series
    for tol in TOLS:
        policy = TruncationPolicy(tol=tol)
        own = [_per_index_range(s + r, m, tau, v, policy, want_dv) for r in range(round(2 * m))]
        ranges = _window_ranges(monkeypatch, s, m, tau, v, policy, want_dv)
        assert [rs[1] if want_dv else rs[0] for rs in ranges] == own
        if want_dv:
            assert [rs[0] for rs in ranges] == [
                _per_index_range(s + r, m, tau, v, policy, False) for r in range(round(2 * m))]
        # (n_max is at least 8)
        widest = max(k_hi - k_lo + 1 for k_lo, k_hi in own)
        if widest > 8:
            modification.r_window(s, m, tau, v, TruncationPolicy(tol=tol, n_max=widest),
                                  want_dv)
            with pytest.raises(TruncationOverflowError):
                modification.r_window(s, m, tau, v, TruncationPolicy(tol=tol, n_max=widest - 1),
                                      want_dv)
        k_lo, k_hi = own[0]
        if k_hi - k_lo + 1 > 8:
            modification.r_window(s, m, tau, v, TruncationPolicy(tol=tol, n_max=k_hi - k_lo + 1),
                                  want_dv, (0,))
            with pytest.raises(TruncationOverflowError):
                modification.r_window(s, m, tau, v, TruncationPolicy(tol=tol, n_max=k_hi - k_lo),
                                      want_dv, (0,))


@pytest.mark.parametrize("want_dv", [False, True])
@pytest.mark.parametrize("s, m, tau, v", NMAX_POINTS)
def test_r_window_sums_each_series_over_its_own_range(s, m, tau, v, want_dv, monkeypatch):
    # a term costs one erfc, and the walk forms the term at i of series r
    # exactly where i lies in a range _r_ranges gave r (its values', or with
    # want_dv its derivatives'), and nowhere else
    width = round(2 * m)
    ranges, real_ranges = [], modification._r_ranges
    monkeypatch.setattr(modification, "_r_ranges",
                        lambda *args: ranges.append(real_ranges(*args)) or ranges[-1])
    calls, real_erfc = [], math.erfc
    monkeypatch.setattr(math, "erfc", lambda x: calls.append(x) or real_erfc(x))
    for tol in TOLS:
        for buckets in (tuple(range(width)), (0,), tuple(range(0, width, 2))):
            ranges.clear()
            calls.clear()
            modification.r_window(s, m, tau, v, TruncationPolicy(tol=tol), want_dv, buckets)
            out, = ranges
            terms = [set().union(*(range(lo[r], hi[r] + 1, width) for lo, hi in out))
                     for r in buckets]
            if not want_dv:
                lo, hi = out[0]
                assert [len(t) for t in terms] == [(hi[r] - lo[r]) // width + 1 for r in buckets]
            assert len(calls) == sum(map(len, terms))


@pytest.mark.parametrize("s, m, tau, v", R_POINTS + R_FAR_POINTS)
def test_r_correction_is_its_series_of_the_window(s, m, tau, v):
    # one walk sums every R_{j;m}: series r of the window at s is the lone
    # series at j = s + r, to the bit, values and derivatives
    policy = TruncationPolicy()
    window = modification.r_window(s, m, tau, v, policy)
    values, derivatives = modification.r_window(s, m, tau, v, policy, True)
    for r in range(round(2 * m)):
        j = float(s + r)
        assert window[r] == modification.r_window(j, m, tau, v, policy, buckets=(0,))[0]
        lone_values, lone_derivatives = modification.r_window(j, m, tau, v, policy, True, (0,))
        assert (values[r], derivatives[r]) == (lone_values[0], lone_derivatives[0])


@pytest.mark.parametrize("s, m, tau, v", R_FAR_POINTS)
def test_r_window_far_turning_point(s, m, tau, v, monkeypatch):
    # n* = 2m Im v / Im tau = +-100, so log_c = -pi n*^2 / 4 ~ -7,850: the
    # exponential factor underflows next to the turning point, while the
    # terms next to n = s are of order 1 (down to 1e-267 per series).  No
    # walk may start from an underflowed anchor, and every series sums the
    # whole window between 0 and k_star.
    for tol in TOLS:
        ranges = _window_ranges(monkeypatch, s, m, tau, v, TruncationPolicy(tol=tol), True)
        for k0, (values, derivatives), (value, derivative) in _r_series_of(s, m, tau, v, ranges):
            _check_range(k0, *values, value, [value], tol)
            _check_range(k0, *derivatives, value, [derivative], tol)
    got = modification.r_window(s, m, tau, v, TruncationPolicy())
    ref = [0j] * 4
    for l in range(-400, 401):
        # per term in log space, w = n (-n tau / 4m + v)
        n = s + l
        sgn = 1.0 if l >= 0 else -1.0
        bracket = math.erfc(sgn * SQRT_PI * (n - 2 * m * v.imag) * math.sqrt(1 / m))
        if bracket > 0:
            w = n * (-n * tau / (4 * m) + v)
            ref[l % 4] += sgn * cmath.exp(math.log(bracket) + TWO_PI_I * w)
    assert min(abs(r) for r in ref) > 1e-300
    for r in range(4):
        assert abs(got[r] - ref[r]) <= 1e-15 * abs(ref[r]), (r, got[r], ref[r])


R_BITS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "r_window_bits.json"


def _r_window_bits():
    """{case: 8-hex sha256 prefix of repr(r_window(...))} over R_POINTS +
    R_FAR_POINTS, each tol of TOLS, want_dv False and True, and buckets
    all, (0,) and the even r."""
    out = {}
    for s, m, tau, v in R_POINTS + R_FAR_POINTS:
        width = round(2 * m)
        for tol in TOLS:
            policy = TruncationPolicy(tol=tol)
            for want_dv in (False, True):
                for name, buckets in (("all", None), ("0", (0,)),
                                      ("even", tuple(range(0, width, 2)))):
                    got = modification.r_window(s, m, tau, v, policy, want_dv, buckets)
                    key = f"{s!r} {m!r} {tau!r} {v!r} tol={tol!r} dv={want_dv} {name}"
                    out[key] = hashlib.sha256(repr(got).encode()).hexdigest()[:8]
    return out


def test_r_window_bits_match_golden():
    # every value and derivative the window returns is bit-identical to the
    # golden, for the whole window, series 0 alone and the even series
    assert _r_window_bits() == json.loads(R_BITS_GOLDEN.read_text())
