"""The index ranges of the three series kernels against brute force.

Each kernel picks [k_lo, k_hi] from a closed-form tail bound before it sums
(qkernel._index_range).  Here the terms outside that range are summed
directly, from the series definitions, and each direction's dropped tail
must be at most tol/8, and also at most 2^-55 of the largest term where the
Gaussian rate a = 2 pi m Im tau is 1 or more.  The older stop rule ("`run`
successive terms below tol/16 and not increasing") is kept below as the
reference: the value ranges must never reach further than it in either
direction.  The derivative series (want_d0, want_dv) must meet the same
tail targets; the older rule only watched the value terms.
"""

import cmath
import math

import pytest

import mockforms.mock as mock
import mockforms.modification as modification
import mockforms.theta as theta
from mockforms.qkernel import SQRT_PI, TruncationPolicy, _index_range

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


R_POINTS = [
    (0.5, 1.5, 0.2 + 0.7j, 0.13 + 0.21j),
    (0.5, 0.5, 1e-3j, 0.1 + 0.0025j),
    (-1.5, 2, 0.4 + 1e-3j, 0.2 - 0.004j),
    (2, 3.5, 0.05j, 0.3 - 0.3j),
    (1, 2, 1j, 0.1 + 6j),                                   # large Im v: long window
    (1, 2, 1j, 0.1 - 6j),
    (-7.5, 20, 4.0j, 0.4 + 1.2j),
]


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("want_dv", [False, True])
@pytest.mark.parametrize("j, m, tau, v", R_POINTS)
def test_r_range(j, m, tau, v, want_dv, tol, monkeypatch):
    calls = _recording(monkeypatch, modification)
    modification._r_sum(float(j), float(m), tau, v, TruncationPolicy(tol=tol), want_dv)
    (k0, k_lo, k_hi), = calls
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
        return n, value, math.exp(min(-math.pi * x * x + growth, 700.0))

    def value(k):
        return pieces(k)[1]

    def derivative(k):
        # the two parts share the phase e^{2 pi i Re w}; the bracket's sign is
        # sgn, the slope part's is -1
        n, val, slope = pieces(k)
        return abs((1.0 if k >= 0 else -1.0) * n * val - dscale * slope)

    mags = [value, derivative] if want_dv else [value]
    _check_range(k0, k_lo, k_hi, value, mags, tol, 5, not want_dv, 2 * math.pi * m * y)


def test_index_range_refuses_a_runaway_bound():
    from mockforms.qkernel import TruncationOverflowError

    policy = TruncationPolicy()
    with pytest.raises(TruncationOverflowError):
        _index_range(0, 0.0, 1e-300, 1.0, 0.0, policy)
    with pytest.raises(TruncationOverflowError):
        _index_range(0, 0.0, 1.0, math.nan, 0.0, policy)
