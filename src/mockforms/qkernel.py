"""Shared numerical substrate.

Complex helpers, nome computation, truncation control, the Gaussian
error-function kernel used by the real-analytic corrections, and
pole-distance guards.  Everything downstream sums series of the shape

    sum_k  c_k * exp(2*pi*i * (quadratic in k)),

so the helpers here provide a single bilateral summation loop with a
geometric/Gaussian tail cutoff and a hard index cap.
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
    """The summation cap was reached before the tail bound was met."""


class UnknownIdentityError(KeyError):
    """Identity id not present in the verification registry."""


class UnsupportedCaseError(ValueError):
    """Parameter combination outside the implemented case analysis."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls all series summation.

    tol        -- target absolute tail bound for every series
    n_max      -- hard cap on the summation index (per direction)
    pole_guard -- minimum allowed distance, in the z-plane modulo the
                  period lattice, from any pole of the summand
    """

    tol: float = 1e-12
    n_max: int = 4000
    pole_guard: float = 1e-3

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.n_max < 8:
            raise ValueError("n_max must be at least 8")
        if not self.pole_guard > 0:
            raise ValueError("pole_guard must be positive")


DEFAULT_POLICY = TruncationPolicy()

# Leaf-kernel memo: a dict while verifier.verify evaluates one grid point, None
# at any other time.  Kernels store only results they return, never errors.
_POINT_MEMO: ContextVar = ContextVar("mockforms_point_memo", default=None)


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


def sum_bilateral(term, k_start: int, policy: TruncationPolicy, consecutive: int = 4):
    """Sum term(k) over all integers k, walking outward from k_start.

    Stops each direction once `consecutive` successive terms are below
    tol/16 and non-increasing in magnitude, which bounds the dropped tail
    by a geometric series under the Gaussian/geometric decay all callers
    have.  Raises TruncationOverflowError when a direction exhausts
    policy.n_max steps first, and DomainError when a term overflows.
    """
    tol_each = policy.tol / 16.0
    total = 0.0 + 0.0j
    for direction, first in ((1, k_start), (-1, k_start - 1)):
        small = 0
        prev = math.inf
        k = first
        for _ in range(policy.n_max):
            try:
                t = term(k)
            except OverflowError as exc:
                raise DomainError(f"a series term overflowed a double ({exc})") from exc
            total += t
            mag = abs(t)
            if mag < tol_each and mag <= prev:
                small += 1
                if small >= consecutive:
                    break
            else:
                small = 0
            prev = mag
            k += direction
        else:
            raise TruncationOverflowError(
                f"series did not meet tol={policy.tol:g} within n_max={policy.n_max} terms"
            )
    return total
