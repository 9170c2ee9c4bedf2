"""Shared numerical substrate.

Complex helpers, nome computation, truncation control, the Gaussian
error-function kernel used by the real-analytic corrections, and
pole-distance guards.  Everything downstream sums series of the shape

    sum_k  c_k * exp(2*pi*i * (quadratic in k)),

whose terms have closed-form tail shapes: Gaussian for Theta, Gaussian
times a geometric factor for the Appell sum, erfc times Gaussian for the
correction kernel R (Zwegers, Mock theta functions, thesis, Utrecht 2002).
Each kernel turns its shape into a log-space majorant, _index_range turns
that into the index range [k_lo, k_hi] whose dropped tails are provably
inside tol, and sum_bilateral sums that range with no per-term stop test.
A quadratic exponential t_k = e^{2 pi i (a k^2 + b k + c)} is summed by the
recurrences t_{k+1} = t_k r_k, r_{k+1} = r_k e^{4 pi i a}, re-anchored by an
exact cmath.exp every ANCHOR_EVERY terms.
"""

from __future__ import annotations

import cmath
import math
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

TWO_PI = 2.0 * math.pi
TWO_PI_I = 2j * math.pi
SQRT_PI = math.sqrt(math.pi)


class DomainError(ValueError):
    """Argument outside the domain (e.g. tau not in the upper half-plane)."""


class PoleProximityError(ValueError):
    """Evaluation point too close to a pole of the function."""


class TruncationOverflowError(RuntimeError):
    """The tail bound needs more terms than the summation cap allows."""


class UnknownIdentityError(KeyError):
    """Identity id not present in the verification registry."""


class UnsupportedCaseError(ValueError):
    """Parameter combination outside the implemented case analysis."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls all series summation.

    tol        -- bound on the absolute truncation error of every series:
                  the tails a series drops sum to at most tol/4 by a
                  closed-form bound (the rounding of the summed terms comes
                  on top of that)
    n_max      -- refusal: a series whose index range is wider than n_max
                  raises TruncationOverflowError before summing a term
    pole_guard -- minimum allowed distance, in the z-plane modulo the
                  period lattice, from any pole of the summand
    tol and pole_guard must be positive and finite.
    """

    tol: float = 1e-12
    n_max: int = 4000
    pole_guard: float = 1e-3

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.n_max < 8:
            raise ValueError("n_max must be at least 8")
        if not 0 < self.pole_guard < math.inf:
            raise ValueError(f"pole_guard must be positive and finite, got {self.pole_guard}")
        # every memo key holds the policy: hash its fields once, not per lookup
        object.__setattr__(self, "_hash", hash((self.tol, self.n_max, self.pole_guard)))

    def __hash__(self):
        return self._hash


DEFAULT_POLICY = TruncationPolicy()

# Leaf-kernel memo: a dict while verifier.verify evaluates one grid point, None
# at any other time.  Kernels store only results they return, never errors,
# and look a key up once, with memo.get(key, _MISS).
_POINT_MEMO: ContextVar = ContextVar("mockforms_point_memo", default=None)
_MISS = object()


@dataclass(frozen=True)
class HalfInt:
    """Exact element of (1/2)Z, stored as twice its value."""

    twice: int

    @staticmethod
    def of(x) -> "HalfInt":
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, int):
            return HalfInt(2 * x)
        if isinstance(x, Fraction):
            if x.denominator not in (1, 2):
                raise ValueError(f"{x} is not a half-integer")
            return HalfInt(x.numerator * (2 // x.denominator))
        if isinstance(x, float):
            t = 2.0 * x
            if abs(t - round(t)) > 1e-9:
                raise ValueError(f"{x} is not a half-integer")
            return HalfInt(round(t))
        raise TypeError(f"cannot interpret {x!r} as a half-integer")

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __float__(self) -> float:
        return self.twice / 2.0

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.of(other).twice)

    def __sub__(self, other):
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __mul__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("HalfInt can only be scaled by an integer")
        return HalfInt(self.twice * k)

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __repr__(self):
        return f"HalfInt({self.twice}/2)"


@dataclass(frozen=True)
class EvalPoint:
    """A modular argument tau (Im tau > 0), 1-3 elliptic variables, and a
    scale variable t."""

    tau: complex
    zs: tuple = ()
    t: complex = 0.0

    def __post_init__(self):
        _check_point(self.tau, *self.zs)
        if not 1 <= len(self.zs) <= 3:
            raise ValueError("EvalPoint carries between 1 and 3 elliptic variables")
        object.__setattr__(self, "zs", tuple(complex(z) for z in self.zs))

    @property
    def z(self) -> complex:
        return self.zs[0]


def e2pi(x: complex) -> complex:
    """exp(2*pi*i*x)."""
    return cmath.exp(TWO_PI_I * x)


def _check_point(tau, *zs) -> complex:
    """complex(tau), after checking that tau and every z are finite and
    Im tau > 0; raises DomainError otherwise.  A NaN or inf would make
    every term of a series NaN and run the sum to its n_max cap."""
    tau = complex(tau)
    if not tau.imag > 0:
        raise DomainError(f"Im tau must be positive, got {tau}")
    if not cmath.isfinite(tau):
        raise DomainError(f"tau must be finite, got {tau}")
    for z in zs:
        if not cmath.isfinite(z):
            raise DomainError(f"elliptic variable must be finite, got {z}")
    return tau


def _centre_error(x: float) -> DomainError:
    """The error for a series centre or lattice coordinate x that is not
    finite, as when Im z / Im tau overflows a double: there is no index to
    start from, and round(x) would raise an untyped error."""
    return DomainError(f"the series centre {x} lies outside the double range")


def gauss_error(x: float) -> float:
    """E(x) = 2 * integral_0^x exp(-pi u^2) du.

    Substituting u = s/sqrt(pi) reduces E to the standard error integral,
    for which the C library's split series / continued-fraction evaluation
    is accurate to well below 1e-14 in both the central and tail regimes.
    """
    return math.erf(SQRT_PI * x)


def nome(tau: complex) -> complex:
    """q = exp(2*pi*i*tau); requires Im tau > 0 so that |q| < 1."""
    return e2pi(_check_point(tau))


def _lattice_scan(z: complex, tau: complex, w: int, reach: float | None = None) -> float:
    """Least |z - (a + b tau)| over the lattice coordinates a, b within w of
    those of z; with a reach, only over the rows b within reach + 1 of
    Im z / Im tau, as the others lie reach * Im tau or more from z."""
    # coordinates of z in the (1, tau) basis
    y = z.imag / tau.imag
    x = z.real - y * tau.real
    if not math.isfinite(x):          # also when y is not
        raise _centre_error(x)
    a0, b0 = round(x), round(y)
    lo, hi = a0 - w, a0 + w
    b_lo, b_hi = b0 - w, b0 + w
    if reach is not None:
        b_lo = max(b_lo, math.ceil(y - reach) - 1)
        b_hi = min(b_hi, math.floor(y + reach) + 1)
    best = math.inf
    for b in range(b_lo, b_hi + 1):
        bt = b * tau
        # |z - (a + b tau)| is convex in a, so its least rounded value in the
        # row a0-w..a0+w lies at one of the two integers around
        # (z - b tau).real, clamped into the row.  Rounding to the nearest
        # integer alone can pick the wrong one of a near tie by an ulp.
        a = min(max(math.floor((z - bt).real), lo), hi - 1)
        best = min(best, abs(z - (a + bt)), abs(z - (a + 1 + bt)))
    return best


def lattice_distance(z: complex, tau: complex, sublattice: str = "full") -> float:
    """Euclidean distance from z to Z + tau*Z ("full") or (1/2)(Z + tau*Z)
    ("half"), taken over the 7x7 lattice points around z."""
    tau = _check_point(tau, z)
    if sublattice == "half":
        return 0.5 * lattice_distance(2 * complex(z), tau, "full")
    if sublattice != "full":
        raise ValueError("sublattice must be 'full' or 'half'")
    return _lattice_scan(complex(z), tau, 3)


def guard_pole(z: complex, tau: complex, policy: TruncationPolicy, what: str = "z"):
    """Raise PoleProximityError if z is within pole_guard of Z + tau*Z.

    A lattice point that close lies within pole_guard / Im tau rows of z,
    so for small Im tau the window widens past the 7 rows of
    lattice_distance, and only its rows within that reach are scanned.
    It scans with tau mod 1, which spans the same lattice and keeps the
    nearest column of every scanned row inside the window."""
    tau = _check_point(tau, z)
    rows = policy.pole_guard / tau.imag
    if rows >= policy.n_max:
        raise TruncationOverflowError(
            f"the pole scan at Im tau = {tau.imag:g} needs over n_max={policy.n_max} rows")
    d = _lattice_scan(complex(z), tau - round(tau.real), max(3, math.ceil(rows) + 1), rows)
    if d < policy.pole_guard:
        raise PoleProximityError(
            f"{what} = {complex(z):.6g} is within {d:.3g} of the period lattice "
            f"(guard {policy.pole_guard:g})"
        )


# log 2, and log 8 and log 16: the tail shares of tol in _index_range
LOG_2 = math.log(2.0)
LOG_8 = math.log(8.0)
LOG_16 = math.log(16.0)
# log 2^-56: a dropped tail of 2^-56 of the peak term per direction is an
# eighth of the peak's half-ulp, so truncation stays below its rounding
LOG_ROUNDING = -56.0 * math.log(2.0)
# a distance no series can sum to: a bound at or past it (or NaN) is a
# refusal, never an index
_FAR = 2.0 ** 52


def _index_range(k0: int, k_star: float, a: float, log_c: float, log_p: float,
                policy: TruncationPolicy, run: int = 4, weight=None, walk=None):
    """(k_lo, k_hi), with k_lo <= k0 <= k_hi + 1, for a series whose terms
    obey, with u = k - k_star, the majorant |t_k| <= e^{log_c - a u^2}.
    log_p is the log of a lower bound on the largest term.

    Past distance d the term ratio is at most rho = e^{-a(2d+1)}, so a tail
    is below its first term over 1 - rho.  Each direction drops a tail of at
    most min(tol/8, 2^-56 P): the first share keeps the truncation inside
    tol, the second below the rounding of the largest term P.  The least d
    for that solves a d^2 >= need(d) = log_c - log_target - log(1 - rho(d));
    need falls as d grows, so one step from the Gaussian's own root meets it.

    A cut past the `run` terms that the older walk (stop after `run`
    successive terms below tol/16) sums on each side at least is checked
    against that walk's reach, so that no series gets longer than under
    that rule: if the majorant shows that the walk meets tol/8, the walk's
    reach is kept, and the tol/8 cut is taken otherwise.  For that check

    - weight(step, d) <= 0, non-increasing in d, is the log of a factor that
      tightens the majorant on the tail past distance d on side step (+1
      upper, -1 lower); None means none;
    - walk() gives Gaussians (centre, log constant) whose least bounds every
      term from below, to place the walk's reach; None means the majorant is
      exact.
    """
    log_tol = math.log(policy.tol)
    log_rel = log_tol - LOG_8
    if log_p + LOG_ROUNDING < log_rel:
        log_rel = log_p + LOG_ROUNDING
    excess = log_c - log_rel
    d = math.sqrt(excess / a) if excess > 0 else 0.0
    x = a * (2.0 * d + 1.0)
    d = _FAR
    if x > 0:
        need = excess - math.log(-math.expm1(-x))
        # a hair past the root, so that rounding cannot leave it short
        d = math.sqrt(need / a) * (1.0 + 1e-12) if not need <= 0 else 0.0
        if d < _FAR:
            k_hi = math.ceil(k_star + d) - 1
            k_lo = math.floor(k_star - d) + 1
            if k_hi < k0 + run and k_lo > k0 - run - 1:
                return (k_lo if k_lo < k0 else k0), (k_hi if k_hi >= k0 else k0 - 1)
    log_run = log_tol - LOG_16
    lower = ((k_star, log_c),) if walk is None else walk()
    ends = []
    for step in (1, -1):
        # each side in its outward coordinate: the first index summed is
        # first, and the last one is ceil(centre + d) - 1
        centre, first = (k_star, k0) if step > 0 else (-k_star, 1 - k0)
        # the nearest point past which a lower Gaussian falls below tol/16:
        # the walk sums past it, and then run - 1 terms more
        reach = math.inf
        for c, log_w in lower:
            excess = log_w - log_run
            reach = min(reach, step * c + (math.sqrt(excess / a) if excess > 0 else 0.0))
        if not reach < _FAR:
            raise TruncationOverflowError(
                f"no tail bound meets tol={policy.tol:g} for this series")
        walk_last = max(first, math.floor(reach) + 1) + run - 1
        end = math.ceil(centre + d) - 1 if d < _FAR else math.inf
        if end > walk_last:
            # the tail past the walk's reach, against tol/8
            d_walk = max(walk_last + 1 - centre, 0.0)
            need = log_c - log_tol + LOG_8 - math.log(-math.expm1(-a * (2.0 * d_walk + 1.0)))
            if weight is not None:
                need += weight(step, d_walk)
            if need <= a * d_walk * d_walk:
                end = walk_last
            else:
                # past d_walk, one step of the root meets tol/8
                d_tol = math.sqrt(need / a) * (1.0 + 1e-12)
                if not d_tol < _FAR:
                    raise TruncationOverflowError(
                        f"no tail bound meets tol={policy.tol:g} for this series")
                end = min(end, math.ceil(centre + d_tol) - 1)
        ends.append(max(end, first - 1))
    return -ends[1], ends[0]


# Terms a walk forms by recurrence from one exact anchor.  The rounding of
# r grows by about an ulp a step and that of t_k by the sum of those, so at
# most about ANCHOR_EVERY^2 / 2 ulps at the end of a walk.  Tuned against the
# mpmath references of perfbench/oracle.py: over 600 cases each of theta_jm
# and phi1 (Im tau log-uniform on [1e-3, 2]) the worst error stays 2.7 and
# 1.8 eps * cond from 4 to 128 terms a walk; for Theta at Im tau in
# [1e-4, 1e-3] the worst absolute error is 1.0e-13 at 16, 1.3e-13 at 32 and
# 2.1e-13 at 64, while long sums run about 7% faster at 32 than at 16.
ANCHOR_EVERY = 32


def _quadratic_anchor(series: tuple, k: int):
    """(t_k, n, series): the term t_k = sign^k e^{2 pi i (c + n (a n + b))},
    n = base + k, of series = (a, b, c, base, sign), exactly; the state
    _quadratic_walk starts from.  partial(_quadratic_anchor, series) is the
    anchor that sum_bilateral takes."""
    a, b, c, base, sign = series
    n = base + k
    t = cmath.exp(TWO_PI_I * (c + n * (a * n + b)))
    return (-t if sign < 0 and k % 2 else t), n, series


def _quadratic_walk(state, count: int, step: int) -> complex:
    """Sum of the count terms from a _quadratic_anchor state on, by
    t <- t r, r <- r e^{4 pi i a}."""
    t, n, (a, b, _, _, sign) = state
    if count == 1:
        return t
    # t_{k+step} / t_k, exactly
    r = cmath.exp(TWO_PI_I * step * (a * (2.0 * n + step) + b))
    if sign < 0:
        r = -r
    total = t
    t *= r
    total += t
    if count > 2:
        q2 = cmath.exp(2.0 * TWO_PI_I * a)
        for _ in range(count - 2):
            r *= q2
            t *= r
            total += t
    return total


def sum_bilateral(anchor, k0: int, k_lo: int, k_hi: int, policy: TruncationPolicy,
                  walk=None):
    """Sum a series over k0..k_hi, then k0-1 down to k_lo.

    With no walk, anchor(k) is the term at k.  With a walk, anchor(k) is
    the exact state of the series at k, and walk(state, count, step) sums
    the count terms k, k + step, ... from it by recurrences; a new anchor
    starts every ANCHOR_EVERY terms.  The range comes from _index_range, so
    no term is compared on the way.  Raises TruncationOverflowError, before
    any term is summed, when the range is wider than policy.n_max, and
    DomainError when a term overflows (cmath.exp raises; a recurrence runs
    to inf or NaN).
    """
    if k_hi - k_lo + 1 > policy.n_max:
        raise TruncationOverflowError(
            f"series needs {k_hi - k_lo + 1} terms to meet tol={policy.tol:g}, "
            f"over n_max={policy.n_max}")
    total = 0.0 + 0.0j
    try:
        if walk is None:
            for k in range(k0, k_hi + 1):
                total += anchor(k)
            for k in range(k0 - 1, k_lo - 1, -1):
                total += anchor(k)
        else:
            for k in range(k0, k_hi + 1, ANCHOR_EVERY):
                count = k_hi + 1 - k
                total += walk(anchor(k), count if count < ANCHOR_EVERY else ANCHOR_EVERY, 1)
            for k in range(k0 - 1, k_lo - 1, -ANCHOR_EVERY):
                count = k + 1 - k_lo
                total += walk(anchor(k), count if count < ANCHOR_EVERY else ANCHOR_EVERY, -1)
    except OverflowError as exc:
        raise DomainError(f"a series term overflowed a double ({exc})") from exc
    if not cmath.isfinite(total):
        raise DomainError("a series term overflowed a double")
    return total
