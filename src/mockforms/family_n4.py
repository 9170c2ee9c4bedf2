"""The psl(2|2) family.

Integrable weights of non-positive integer level, derivative-bearing
numerators, N=4 quantum Hamiltonian reduction, principal admissible
modules, and the chi basis with its index normal form.

Coordinates: z = -(1/2)(z1 - z2)(alpha1 + alpha3) - z1 alpha2, with
(z|z) = -2 z1 z2.  The Ramond twist acts by

    w0     : (z1, z2, t) -> (-z2 - tau/2, -z1 - tau/2, t - (z1+z2)/2 - tau/4)

and the modular-invariance-breaking alternative twist by

    w0'    : (z1, z2, t) -> (z2 + tau/2, z1 - tau/2, t - (z1-z2)/2 + tau/4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .qkernel import (
    DEFAULT_POLICY,
    HalfInt,
    TruncationPolicy,
    UnsupportedCaseError,
    e2pi,
)
from .theta import dedekind_eta, jacobi_theta
from .mock import MockIndex, PsiIndex
from .modification import phi_tilde, phi_tilde_d0, psi_tilde, psi_tilde_d0

SECTORS = ("plus", "minus", "plus_tw", "minus_tw")
_J_VALUES = ("none", "I", "II", "III", "IV")


@dataclass(frozen=True)
class N4Weight:
    m: int            # level, <= 0
    m2: int
    M: int = 1
    J: str = "none"
    k1: int = 0
    k2: int = 0

    def __post_init__(self):
        if self.m > 0:
            raise ValueError("level must be a non-positive integer")
        if not 0 <= self.m2 <= -self.m:
            raise ValueError("m2 out of range")
        if self.J not in _J_VALUES:
            raise ValueError(f"unknown admissible type {self.J}")
        if self.J == "none" and (self.M, self.k1, self.k2) != (1, 0, 0):
            raise ValueError("integrable weights have M = 1 and k1 = k2 = 0")
        if self.J in ("I", "III"):
            lo = 0 if self.J == "I" else 1
            if not (self.k1 >= 0 and self.k2 >= lo and 2 * self.k1 + self.k2 <= self.M - 1):
                raise ValueError("k1, k2 outside the admissible range")

    @property
    def level_zero(self) -> bool:
        return self.m == 0

    def label(self) -> str:
        return f"n4:m={self.m}:m2={self.m2}:M={self.M}:J={self.J}:k1={self.k1}:k2={self.k2}"


def enumerate_weights(m: int) -> list[N4Weight]:
    if m > 0:
        return []
    return [N4Weight(m, m2) for m2 in range(-m + 1)]


# --- denominators ---------------------------------------------------------

def _eps_theta(eps: HalfInt, eps_prime: HalfInt):
    return 1 - eps_prime.twice, 1 - eps.twice


def rhat(tau, z1, z2, eps, eps_prime, policy: TruncationPolicy = DEFAULT_POLICY):
    """Normalized affine (non-)twisted (super)denominators: eps = 0 super /
    1/2 plain, eps' = 0 non-twisted / 1/2 twisted."""
    eps, eps_prime = HalfInt.of(eps), HalfInt.of(eps_prime)
    a, b = _eps_theta(eps, eps_prime)
    sgn = -1.0 if eps_prime.twice else 1.0
    return (sgn * dedekind_eta(tau, policy) ** 4
            * jacobi_theta(1, 1, tau, z1 - z2, policy) * jacobi_theta(1, 1, tau, z1 + z2, policy)
            / (jacobi_theta(a, b, tau, z1, policy) ** 2 * jacobi_theta(a, b, tau, z2, policy) ** 2))


def n4_denominator(tau, z, eps, eps_prime, policy: TruncationPolicy = DEFAULT_POLICY):
    """The N=4 superconformal denominators, indexed like the affine ones.

    Each sector carries the unit constant i(-1)^{2(eps+eps')} relative to
    the bare eta-theta quotient, pinned by the collapsing level: at level
    -1 the reduced vacuum module is trivial and all four of its characters
    must equal 1 exactly."""
    eps, eps_prime = HalfInt.of(eps), HalfInt.of(eps_prime)
    a, b = _eps_theta(eps, eps_prime)
    const = 1j * (-1.0) ** (eps.twice + eps_prime.twice)
    return (const * dedekind_eta(tau, policy) ** 3 * jacobi_theta(1, 1, tau, 2 * z, policy)
            / jacobi_theta(a, b, tau, z, policy) ** 2)


_SECTOR_EPS = {"plus": (Fraction(1, 2), 0), "minus": (0, 0),
               "plus_tw": (Fraction(1, 2), Fraction(1, 2)),
               "minus_tw": (0, Fraction(1, 2))}
# the reduced (superconformal) denominators swap the twist label
_QHR_EPS = {"plus": (Fraction(1, 2), Fraction(1, 2)), "minus": (0, Fraction(1, 2)),
            "plus_tw": (Fraction(1, 2), 0), "minus_tw": (0, 0)}


def w0_point(tau, z1, z2, t):
    return (-z2 - tau / 2, -z1 - tau / 2, t - (z1 + z2) / 2 - tau / 4)


def w0_prime_point(tau, z1, z2, t):
    return (z2 + tau / 2, z1 - tau / 2, t - (z1 - z2) / 2 + tau / 4)


# --- numerators -----------------------------------------------------------

def g_numerator(m: int, tau, z1, z2, t=0.0, policy: TruncationPolicy = DEFAULT_POLICY):
    """(D0 + m (z1-z2)/(2 tau)) applied to the degree -m modification at
    reflected t, evaluated with the termwise analytic derivative: the
    derivative wrapper P at scale one with no shifts."""
    return psi_P(1, m, 0, 0, 0, tau, z1, z2, t, policy)


# Each admissible type is type I in its own coordinates; the integrable
# weights are type I at M = 1, k1 = k2 = 0.
_J_COORDS = {"none": lambda z1, z2: (z1, z2), "I": lambda z1, z2: (z1, z2),
             "II": lambda z1, z2: (-z1, -z2), "III": lambda z1, z2: (-z2, -z1),
             "IV": lambda z1, z2: (z2, z1)}


def admissible_supernumerator(w: N4Weight, tau, z1, z2, t=0.0,
                              policy: TruncationPolicy = DEFAULT_POLICY):
    """R-hat^- ch~^- for the integrable weights and the principal admissible
    weights of types I-IV: the type I formula in the type's coordinates."""
    m, m2, M, k1, k2 = w.m, w.m2, w.M, w.k1, w.k2
    x1, x2 = _J_COORDS[w.J](z1, z2)
    a1, a2 = x1 + k1 * tau, x2 - (k1 + k2) * tau
    lin = (k1 + k2) * x1 - k1 * x2
    dz = x1 - x2 + (2 * k1 + k2) * tau
    idx = MockIndex.of(-m, 0)
    v, d = phi_tilde_d0(idx, M * tau, a1, a2, policy)
    g = d + (m * (a1 - a2) / (2 * M * tau)) * v
    pref = e2pi(Fraction(m, M) * t + Fraction(m, M) * lin + Fraction(m * k1 * (k1 + k2), M) * tau)
    return pref * (g - (m * dz / (2 * M * tau) + m2) * v)


def _lambda_alpha2(w: N4Weight) -> Fraction:
    K = Fraction(w.m, w.M)
    if w.J in ("none", "I", "IV"):
        return -K * w.k2 - w.m2
    return K * w.k2 + w.m2 + 2


def numerator(w: N4Weight, tau, z1, z2, t, sector: str,
              policy: TruncationPolicy = DEFAULT_POLICY):
    """R-hat ch~ for all four sectors.  The plus sector shifts both z by
    1/2; the affine denominator ratio under that shift is the constant -1,
    applied analytically."""
    if sector == "minus":
        return admissible_supernumerator(w, tau, z1, z2, t, policy)
    if sector == "plus":
        nm = admissible_supernumerator(w, tau, z1 + 0.5, z2 + 0.5, t, policy)
        return -e2pi(_lambda_alpha2(w) / 2) * nm
    if sector in ("plus_tw", "minus_tw"):
        w1, w2, wt = w0_point(tau, z1, z2, t)
        return numerator(w, tau, w1, w2, wt, sector.removesuffix("_tw"), policy)
    raise ValueError(f"unknown sector {sector}")


def modified_character(w: N4Weight, tau, z1, z2, t=0.0, sector: str = "minus",
                       policy: TruncationPolicy = DEFAULT_POLICY):
    eps, eps_prime = _SECTOR_EPS[sector]
    num = numerator(w, tau, z1, z2, t, sector, policy)
    return num / rhat(tau, z1, z2, eps, eps_prime, policy)


# --- QHR ------------------------------------------------------------------

def qhr_characteristics(w: N4Weight) -> dict:
    """Characteristic numbers of the reduced modules and the vanishing flag
    (the coefficient A of the chi^(0) term lies in Z_{>=0} exactly when the
    module vanishes)."""
    m, m2, M, k1, k2 = w.m, Fraction(w.m2), w.M, w.k1, w.k2
    K = Fraction(m, M)
    c = -6 * (K + 1)
    if w.J == "none":
        h = m2 / 2
        s = m2
        h_tw = -(K + 1) / 4
        s_tw = -m2 - K - 1
        A = m + m2
    else:
        up = w.J in ("I", "III")
        half = Fraction(1, 2) if up else Fraction(-1, 2)
        h = K * (k1 + half) * (k1 + k2 + half) + (k1 + half) * (m2 + 1) - (K + 2) / 4
        s = K * k2 + m2 if w.J in ("I", "IV") else -K * k2 - m2 - 2
        h_tw = h - s / 2 - (K + 1) / 4
        s_tw = -s - K - 1
        A = K * (2 * k1 + k2 + 1) + m2
    vanishes = A.denominator == 1 and A >= 0
    return {"c": c, "h": h, "s": s, "h_tw": h_tw, "s_tw": s_tw, "vanishes": vanishes}


def qhr_character_integrable(w: N4Weight, tau, z, sector: str = "minus",
                             policy: TruncationPolicy = DEFAULT_POLICY):
    """Closed single-term forms of the reduced (super)characters of the
    integrable family."""
    m, m2 = w.m, w.m2
    m0 = m + m2
    if m0 >= 0:
        return 0.0 + 0.0j
    idx = MockIndex.of(-m, 0)
    if sector == "plus":
        val = -m0 * e2pi(m * tau / 4) * phi_tilde(idx, tau, z + 0.5 + tau / 2, z + 0.5 - tau / 2, 0.0, policy)
    elif sector == "minus":
        val = -m0 * e2pi(m * tau / 4) * phi_tilde(idx, tau, z + tau / 2, z - tau / 2, 0.0, policy)
    elif sector == "plus_tw":
        val = m0 * phi_tilde(idx, tau, z + 0.5, z + 0.5, 0.0, policy)
    elif sector == "minus_tw":
        val = m0 * phi_tilde(idx, tau, z, z, 0.0, policy)
    else:
        raise ValueError(f"unknown sector {sector}")
    eps, eps_prime = _QHR_EPS[sector]
    return val / n4_denominator(tau, z, eps, eps_prime, policy)


def psi_P(M: int, m: int, eps, j, k, tau, z1, z2, t=0.0,
          policy: TruncationPolicy = DEFAULT_POLICY):
    """(D0 + m (z1-z2)/(2 M tau)) of the modified wrapper at reflected t."""
    if m >= 0:
        raise ValueError("m must be a negative integer")
    idx = PsiIndex.of(M, -m, 0, eps, j, k)
    v, d = psi_tilde_d0(idx, tau, z1, z2, policy)
    return e2pi(Fraction(m, M) * t) * (d + (m * (z1 - z2) / (2 * M * tau)) * v)


@dataclass(frozen=True)
class ChiIndex:
    alpha: int
    M: int
    m: int
    eps: HalfInt
    eps_prime: HalfInt
    j: HalfInt
    k: HalfInt

    @staticmethod
    def of(alpha, M, m, eps, eps_prime, j, k) -> "ChiIndex":
        if alpha not in (0, 1):
            raise ValueError("alpha must be 0 or 1")
        if m >= 0:
            raise ValueError("m must be a negative integer")
        j, k = HalfInt.of(j), HalfInt.of(k)
        eps_prime = HalfInt.of(eps_prime)
        if j.twice % 2 != eps_prime.twice or k.twice % 2 != eps_prime.twice:
            raise ValueError("j, k must lie in eps' + Z")
        return ChiIndex(alpha, int(M), int(m), HalfInt.of(eps), eps_prime, j, k)


def chi(idx: ChiIndex, tau, z, policy: TruncationPolicy = DEFAULT_POLICY):
    """chi^(alpha): P (alpha=1) or Psi-tilde (alpha=0) on the diagonal,
    divided by the matching N=4 denominator."""
    den = n4_denominator(tau, z, idx.eps, idx.eps_prime, policy)
    if idx.alpha == 1:
        num = psi_P(idx.M, idx.m, idx.eps, idx.j, idx.k, tau, z, z, 0.0, policy)
    else:
        pidx = PsiIndex.of(idx.M, -idx.m, 0, idx.eps, idx.j, idx.k)
        num = psi_tilde(pidx, tau, z, z, 0.0, policy)
    return num / den


def admissible_jk(w: N4Weight, twisted: bool):
    """(j, k) index pair of the reduced admissible character."""
    k1, k2 = w.k1, w.k2
    if not twisted:
        if w.J == "I":
            return HalfInt(2 * k1 + 1), HalfInt(-(2 * (k1 + k2) + 1))
        return HalfInt(2 * (k1 + k2) + 1), HalfInt(-(2 * k1 + 1))
    if w.J == "I":
        return HalfInt(2 * (k1 + k2 + 1)), HalfInt(-2 * k1)
    return HalfInt(2 * (k1 + 1)), HalfInt(-2 * (k1 + k2))


def qhr_character_admissible(w: N4Weight, tau, z, sector: str = "minus",
                             policy: TruncationPolicy = DEFAULT_POLICY):
    """Reduced (super)characters of the admissible family as the signed
    combination chi^(1) - A chi^(0)."""
    if w.J not in ("I", "III"):
        raise UnsupportedCaseError(
            "types II and IV are reached through the module isomorphisms")
    ch = qhr_characteristics(w)
    if ch["vanishes"]:
        return 0.0 + 0.0j
    m, m2, M = w.m, w.m2, w.M
    A = Fraction(m * (2 * w.k1 + w.k2 + 1), M) + m2
    twisted = sector.endswith("_tw")
    eps = Fraction(1, 2) if sector.startswith("plus") else 0
    eps_prime = 0 if twisted else Fraction(1, 2)
    j, k = admissible_jk(w, twisted)
    c1 = chi(ChiIndex.of(1, M, m, eps, eps_prime, j, k), tau, z, policy)
    c0 = chi(ChiIndex.of(0, M, m, eps, eps_prime, j, k), tau, z, policy)
    val = c1 - A * c0
    sign = 1.0
    if w.J == "III":
        sign = -sign
    if sector.startswith("plus"):
        sign = -sign
    if twisted:
        sign = -sign
    if sector.startswith("plus") and m2 % 2:
        sign = -sign
    return sign * val


def normalize_to_omega(j: HalfInt, k: HalfInt, M: int, m: int, eps):
    """Bring (j, k) into 0 < j <= k <= M by period translations and the
    swap; returns (j', k', phase1, phase0) with the phases multiplying the
    alpha = 1 (antisymmetric) and alpha = 0 (symmetric) basis functions."""
    eps = HalfInt.of(eps)
    j, k = HalfInt.of(j), HalfInt.of(k)

    def into(h: HalfInt):
        # translate into (0, M]: value v - aM with a = ceil(v/M) - 1
        v = h.value
        a = -((-v) // M) - 1
        return h - HalfInt(2 * int(a) * M), int(a)

    j2, a = into(j)
    k2, b = into(k)
    phase = e2pi(Fraction(m * (a - b) * eps.twice, 2))
    sign = 1.0
    if j2.value > k2.value:
        j2, k2 = k2, j2
        sign = -1.0
    return j2, k2, phase * sign, phase
