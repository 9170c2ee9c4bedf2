"""The index ranges of the three series kernels against brute force.

Each kernel picks [k_lo, k_hi] from a closed-form tail bound before it sums
(qkernel._index_range).  Here the terms outside that range are summed
directly, from the series definitions, and each direction's dropped tail
must be at most tol/8, and also at most 2^-55 of the largest term where the
Gaussian rate a = 2 pi m Im tau is 1 or more.  The older stop rule ("`run`
successive terms below tol/16 and not increasing") is kept below as the
reference: the value ranges must never reach further than it in either
direction.  The derivative series (want_d0, want_dv) must meet the same
tail targets; the older rule only watched the value terms.  The correcting
window of R sums 2m interleaved series, one per R_{s+r;m}, over one range:
each of them is held to the targets on its own.
"""

import cmath
import math

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


def _walk_reach(mag, k0, step, run, tol):
    """Last index the older stop rule sums, walking from k0 (step +1) or
    k0 - 1 (step -1)."""
    small, prev = 0, math.inf
    k = k0 if step > 0 else k0 - 1
    while True:
        t = mag(k)
        if t < tol / 16 and t <= prev:
            small += 1
            if small >= run:
                return k
        else:
            small = 0
        prev = t
        k += step


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


def _check_range(k0, k_lo, k_hi, value_mag, series_mags, tol, run, value_range, a):
    """a = 2 pi m Im tau is the Gaussian rate of the series: from a = 1 on,
    the walk reaches far past the rounding cut (its last term is below
    e^{-8 a d} tol/16 at the distance d where terms cross tol/16), so the
    rounding target must hold there.  For small a the range may instead stop
    at the walk's reach, with only tol/8 dropped."""
    assert k_lo <= k0 <= k_hi + 1
    peak = max(value_mag(k) for k in range(k_lo, k_hi + 1))
    if value_range:
        walk_hi = _walk_reach(value_mag, k0, 1, run, tol)
        walk_lo = _walk_reach(value_mag, k0, -1, run, tol)
        assert k_hi <= walk_hi and k_lo >= walk_lo, (k_lo, k_hi, walk_lo, walk_hi)
    target = min(tol / 8, 2.0 ** -55 * peak) if a >= 1.0 else tol / 8
    for mag in series_mags:
        for start, step in ((k_hi + 1, 1), (k_lo - 1, -1)):
            tail = _tail(mag, start, step, target)
            assert tail <= target, (tail, target, step)


TOLS = (1e-12, 1e-6)

THETA_POINTS = [
    (1, 2, 0.8j, 0.23 + 0.11j),
    (0.5, 0.5, 0.3 + 1e-3j, 0.2 + 0.002j),
    (3, 20, 1e-3j, 0.1 - 0.0017j),
    (1, 1, 1j, 0.3 + 12j),
    (0, 1, -2.0 + 2j, 0.1 - 25j),
    (1.5, 4.5, 1.0 + 4.0j, 0.37),
]


# (k0, k_lo, k_hi) of each point above, as summed term by term before the
# recurrence walks: a walk changes how terms are formed, never which
THETA_RANGES = {
    1e-12: [(0, -2, 1), (-2, -103, 100), (1, -16, 18), (-6, -12, -1), (6, 0, 12), (0, 0, 0)],
    1e-06: [(0, -2, 1), (-2, -78, 75), (1, -14, 16), (-6, -12, -1), (6, 0, 12), (0, 0, 0)],
}


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("j, m, tau, z", THETA_POINTS)
def test_theta_range(j, m, tau, z, tol, monkeypatch):
    calls = _recording(monkeypatch, theta)
    theta.theta_jm(theta.ThetaIndex.of(j, m), tau, z, 0.0, TruncationPolicy(tol=tol))
    (k0, k_lo, k_hi), = calls
    assert (k0, k_lo, k_hi) == THETA_RANGES[tol][THETA_POINTS.index((j, m, tau, z))]
    base = (j / (2 * m)) % 1

    def mag(k):
        n = base + k
        return math.exp(-2 * math.pi * (m * n * n * tau.imag + m * n * complex(z).imag))

    _check_range(k0, k_lo, k_hi, mag, [mag], tol, 4, True, 2 * math.pi * m * tau.imag)


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
    assert (k0, k_lo, k_hi) == PHI1_RANGES[tol, want_d0][PHI1_POINTS.index((m, s, tau, z1, z2))]
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
    _check_range(k0, k_lo, k_hi, value, mags, tol, 4, not want_d0, 2 * math.pi * m * tau.imag)


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
    # one series: its value range never reaches past the older stop rule,
    # and both of its ranges drop tails within the targets
    policy = TruncationPolicy(tol=tol)
    a = 2 * math.pi * m * tau.imag
    ranges = _window_ranges(monkeypatch, s, m, tau, v, policy, want_dv)
    for r, (values, derivatives) in enumerate(ranges):
        j = s + r
        k0 = round((2 * m * v.imag / tau.imag - j) / (2 * m))
        value, derivative = _r_terms(j, m, tau, v)
        _check_range(k0, *values, value, [value], tol, 5, True, a)
        if want_dv:
            _check_range(k0, *derivatives, value, [derivative], tol, 5, False, a)


def _per_index_range(j, m, tau, v, policy, want_dv):
    """(k_lo, k_hi) of R_{j;m} as its own series chose it before the window
    walk: one _index_range call for the value majorant, or with want_dv for
    the derivative majorant, and the window between 0 and k_star summed
    whole."""
    y = tau.imag
    n_star = 2.0 * m * v.imag / y
    k_star = (n_star - j) / (2.0 * m)
    k0 = round(k_star)
    a = 2 * math.pi * m * y
    kappa = math.sqrt(2 * math.pi * a)
    log_c = -math.pi * y * n_star * n_star / (2.0 * m)
    dscale = math.sqrt(m / y) / math.pi
    lift = abs(n_star) + 2.0 * dscale if want_dv else 1.0

    def weight(step, d):
        if want_dv:
            return math.log((abs(n_star) / max(1.0, kappa * d) + 2.0 * dscale) / lift)
        return -math.log(max(1.0, kappa * d))

    def walk():
        excess = log_c - math.log(policy.tol) + math.log(16.0)
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
    # would be refused; r_correction is one series
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
            idx = modification.CorrectionIndex.of(s, m)
            single = modification.r_correction_dv if want_dv else modification.r_correction
            single(idx, tau, v, TruncationPolicy(tol=tol, n_max=k_hi - k_lo + 1))
            with pytest.raises(TruncationOverflowError):
                single(idx, tau, v, TruncationPolicy(tol=tol, n_max=k_hi - k_lo))


@pytest.mark.parametrize("s, m, tau, v", R_FAR_POINTS)
def test_r_window_far_turning_point(s, m, tau, v, monkeypatch):
    # n* = 2m Im v / Im tau = +-100, so log_c = -pi n*^2 / 4 ~ -7,850: the
    # exponential factor underflows next to the turning point, while the
    # terms next to n = s are of order 1 (down to 1e-267 per series).  No
    # walk may start from an underflowed anchor.  The older stop rule would
    # stop in the underflow, short of the window between 0 and k_star that
    # every series sums whole, so only the tail targets are checked here.
    a = 2 * math.pi * m * tau.imag
    for tol in TOLS:
        for r, (values, derivatives) in enumerate(
                _window_ranges(monkeypatch, s, m, tau, v, TruncationPolicy(tol=tol), True)):
            j = s + r
            k0 = round((2 * m * v.imag / tau.imag - j) / (2 * m))
            value, derivative = _r_terms(j, m, tau, v)
            _check_range(k0, *values, value, [value], tol, 5, False, a)
            _check_range(k0, *derivatives, value, [derivative], tol, 5, False, a)
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


def test_index_range_refuses_a_runaway_bound():
    policy = TruncationPolicy()
    with pytest.raises(TruncationOverflowError):
        _index_range(0, 0.0, 1e-300, 1.0, 0.0, policy)
    with pytest.raises(TruncationOverflowError):
        _index_range(0, 0.0, 1.0, math.nan, 0.0, policy)
