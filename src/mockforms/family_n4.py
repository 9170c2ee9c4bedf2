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

from fractions import Fraction
from functools import cached_property

from .qkernel import (
    DEFAULT_POLICY,
    HalfInt,
    TruncationPolicy,
    UnsupportedCaseError,
    _record,
    e2pi,
    int_of,
)
from .theta import eta_theta_quotient
from .mock import MockIndex, PsiIndex, _psi_frame
from .modification import phi_tilde, psi_tilde

_J_VALUES = ("none", "I", "II", "III", "IV")


@_record
class N4Weight:
    """A weight of the family: level m, label m2, and the admissible data
    (M, J, k1, k2).  What the numerators and characters derive from it
    exactly (indices, phases, chi tables) is formed on first use and kept
    on the weight; a Fraction constant F is kept as float(F), since F * x
    is float(F) * x to the bit for a float or complex x."""

    m: int            # level, <= 0
    m2: int
    M: int = 1
    J: str = "none"
    k1: int = 0
    k2: int = 0

    def __post_init__(self):
        for f in ("m", "m2", "M", "k1", "k2"):
            object.__setattr__(self, f, int_of(getattr(self, f)))
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

    @cached_property
    def _mock(self) -> MockIndex:
        """the index (-m, 0) of the degree -m modification"""
        return MockIndex.of(-self.m, 0)

    @cached_property
    def _pref(self) -> tuple:
        """(m / M, m k1 (k1 + k2) / M) of the admissible_supernumerator prefactor"""
        m, M, k1, k2 = self.m, self.M, self.k1, self.k2
        return float(Fraction(m, M)), float(Fraction(m * k1 * (k1 + k2), M))

    @cached_property
    def _plus_phase(self) -> complex:
        """-e^{pi i (Lambda | alpha2)}, the constant of the plus sector"""
        return -e2pi(_lambda_alpha2(self) / 2)

    @cached_property
    def _chi_terms(self):
        """None for a vanishing module, else {sector: (chi^(1) index,
        chi^(0) index, A, sign)} of qhr_character_admissible."""
        if qhr_characteristics(self)["vanishes"]:
            return None
        m, m2, M = self.m, self.m2, self.M
        A = float(Fraction(m * (2 * self.k1 + self.k2 + 1), M) + m2)
        out = {}
        for sector, sec in SECTORS.items():
            twisted = sector.endswith("_tw")
            j, k = admissible_jk(self, twisted)
            sign = 1.0
            if self.J == "III":
                sign = -sign
            if sector.startswith("plus"):
                sign = -sign
            if twisted:
                sign = -sign
            if sector.startswith("plus") and m2 % 2:
                sign = -sign
            out[sector] = (ChiIndex.of(1, M, m, sec.eps, sec.eps_prime, j, k),
                           ChiIndex.of(0, M, m, sec.eps, sec.eps_prime, j, k), A, sign)
        return out

    def label(self) -> str:
        return f"n4:m={self.m}:m2={self.m2}:M={self.M}:J={self.J}:k1={self.k1}:k2={self.k2}"


def enumerate_weights(m: int) -> list[N4Weight]:
    m = int_of(m)
    if m > 0:
        return []
    return [N4Weight(m, m2) for m2 in range(-m + 1)]


# --- denominators ---------------------------------------------------------

@_record
class Sector:
    """A sector of the denominators: the shifts eps (0 super, 1/2 plain)
    and eps' (0 non-twisted, 1/2 twisted), and the labels (a, b) =
    (1 - 2 eps', 1 - 2 eps) of the theta_ab the denominators divide by."""

    eps: HalfInt
    eps_prime: HalfInt
    a: int
    b: int

    @staticmethod
    def of(eps, eps_prime) -> "Sector":
        eps, eps_prime = HalfInt.of(eps), HalfInt.of(eps_prime)
        if eps.twice not in (0, 1) or eps_prime.twice not in (0, 1):
            raise ValueError(f"sector shifts must be 0 or 1/2, got {eps.value}, {eps_prime.value}")
        return Sector(eps, eps_prime, 1 - eps_prime.twice, 1 - eps.twice)


def rhat(tau, z1, z2, sector: Sector, policy: TruncationPolicy = DEFAULT_POLICY):
    """Normalized affine (non-)twisted (super)denominators."""
    a, b = sector.a, sector.b
    sgn = -1.0 if sector.eps_prime.twice else 1.0
    return eta_theta_quotient(tau, sgn, ((1, 4), (1, 1, z1 - z2, 1), (1, 1, z1 + z2, 1)),
                              ((a, b, z1, 2), (a, b, z2, 2)), policy)


def n4_denominator(tau, z, sector: Sector, policy: TruncationPolicy = DEFAULT_POLICY):
    """The N=4 superconformal denominators, indexed like the affine ones.

    Each sector carries the unit constant i(-1)^{2(eps+eps')} relative to
    the bare eta-theta quotient, pinned by the collapsing level: at level
    -1 the reduced vacuum module is trivial and all four of its characters
    must equal 1 exactly."""
    a, b = sector.a, sector.b
    const = 1j * (-1.0) ** (sector.eps.twice + sector.eps_prime.twice)
    return eta_theta_quotient(tau, const, ((1, 3), (1, 1, 2 * z, 1)), ((a, b, z, 2),), policy)


# the sector of each reduced denominator: they swap the affine twist label
SECTORS = {"plus": Sector.of(Fraction(1, 2), Fraction(1, 2)), "minus": Sector.of(0, Fraction(1, 2)),
           "plus_tw": Sector.of(Fraction(1, 2), 0), "minus_tw": Sector.of(0, 0)}


def w0_point(tau, z1, z2, t):
    return (-z2 - tau / 2, -z1 - tau / 2, t - (z1 + z2) / 2 - tau / 4)


def w0_prime_point(tau, z1, z2, t):
    return (z2 + tau / 2, z1 - tau / 2, t - (z1 - z2) / 2 + tau / 4)


# --- numerators -----------------------------------------------------------

# Each admissible type is type I in its own coordinates; the integrable
# weights are type I at M = 1, k1 = k2 = 0.
_J_COORDS = {"none": lambda z1, z2: (z1, z2), "I": lambda z1, z2: (z1, z2),
             "II": lambda z1, z2: (-z1, -z2), "III": lambda z1, z2: (-z2, -z1),
             "IV": lambda z1, z2: (z2, z1)}


def admissible_supernumerator(w: N4Weight, tau, z1, z2, t=0.0,
                              policy: TruncationPolicy = DEFAULT_POLICY):
    """R-hat^- ch~^- for the integrable weights and the principal admissible
    weights of types I-IV: the type I formula in the type's coordinates.
    The index and the prefactor's constants come from w."""
    m2, M, k1, k2 = w.m2, w.M, w.k1, w.k2
    x1, x2 = _J_COORDS[w.J](z1, z2)
    a1, a2 = x1 + k1 * tau, x2 - (k1 + k2) * tau
    lin = (k1 + k2) * x1 - k1 * x2
    v, d = phi_tilde(w._mock, M * tau, a1, a2, 0.0, policy, want_d0=True)
    m_M, c = w._pref
    pref = e2pi(m_M * t + m_M * lin + c * tau)
    return pref * (d - m2 * v)


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
        return w._plus_phase * nm
    if sector in ("plus_tw", "minus_tw"):
        w1, w2, wt = w0_point(tau, z1, z2, t)
        return numerator(w, tau, w1, w2, wt, sector.removesuffix("_tw"), policy)
    raise ValueError(f"unknown sector {sector}")


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
    integrable family: the numerator is the modification at u +- eps' tau,
    u = z + eps, for the sector (eps, eps') of the denominator."""
    if sector not in SECTORS:
        raise ValueError(f"unknown sector {sector}")
    if w.J != "none":
        raise UnsupportedCaseError("an admissible weight's character is qhr_character_admissible")
    m, m2 = w.m, w.m2
    m0 = m + m2
    if m0 >= 0:
        return 0.0 + 0.0j
    idx, sec = w._mock, SECTORS[sector]
    u = z + 0.5 if sec.eps.twice else z
    if sec.eps_prime.twice:
        val = -m0 * e2pi(m * tau / 4) * phi_tilde(idx, tau, u + tau / 2, u - tau / 2, 0.0, policy)
    else:
        val = m0 * phi_tilde(idx, tau, u, u, 0.0, policy)
    return val / n4_denominator(tau, z, sec, policy)


def psi_P(idx: PsiIndex, tau, z1, z2, t=0.0, policy: TruncationPolicy = DEFAULT_POLICY):
    """The derivative wrapper of degree m = -idx.m: (D0 + m (z1-z2)/(2 M tau))
    of the modified wrapper Psi-tilde at idx = (M, -m, 0, eps, j, k), at
    reflected t.  At idx = (1, -m, 0, 0, 0, 0) it is the derivative numerator
    (D0 + m (z1-z2)/(2 tau)) Phi-tilde^{[-m;0]}.

    With C the exponential prefactor of the wrapper, D0 C = (-m (b-a)/M) C,
    and D0 passes through the argument shifts unchanged."""
    M, m = idx.M, -float(idx.m)
    pref, *frame = _psi_frame(idx, tau, z1, z2)
    v, d = phi_tilde(*frame, 0.0, policy, want_d0=True)
    slope = float(idx.m) * (float(idx.b) - float(idx.a)) / M
    v, d = pref * v, pref * (slope * v + d)
    return e2pi(m / M * t) * (d + (m * (z1 - z2) / (2 * M * tau)) * v)


@_record
class ChiIndex:
    """Index of the chi basis; its wrapper index is formed on first use."""

    alpha: int
    M: int
    m: int
    sector: Sector
    j: HalfInt
    k: HalfInt

    @staticmethod
    def of(alpha, M, m, eps, eps_prime, j, k) -> "ChiIndex":
        alpha, M, m = int_of(alpha), int_of(M), int_of(m)
        if alpha not in (0, 1):
            raise ValueError("alpha must be 0 or 1")
        if m >= 0:
            raise ValueError("m must be a negative integer")
        j, k = HalfInt.of(j), HalfInt.of(k)
        sector = Sector.of(eps, eps_prime)
        if j.twice % 2 != sector.eps_prime.twice or k.twice % 2 != sector.eps_prime.twice:
            raise ValueError("j, k must lie in eps' + Z")
        return ChiIndex(alpha, M, m, sector, j, k)

    @cached_property
    def _psi(self) -> PsiIndex:
        """the wrapper index (M, -m, 0, eps, j, k) of chi"""
        return PsiIndex.of(self.M, -self.m, 0, self.sector.eps, self.j, self.k)


def chi(idx: ChiIndex, tau, z, policy: TruncationPolicy = DEFAULT_POLICY):
    """chi^(alpha): P (alpha=1) or Psi-tilde (alpha=0) on the diagonal,
    divided by the matching N=4 denominator."""
    den = n4_denominator(tau, z, idx.sector, policy)
    if idx.alpha == 1:
        num = psi_P(idx._psi, tau, z, z, 0.0, policy)
    else:
        num = psi_tilde(idx._psi, tau, z, z, 0.0, policy)
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
    combination chi^(1) - A chi^(0); the chi indices, A and the sign of
    each sector come from w, formed once per weight."""
    if sector not in SECTORS:
        raise ValueError(f"unknown sector {sector}")
    if w.J == "none":
        raise UnsupportedCaseError("an integrable weight's character is qhr_character_integrable")
    if w.J not in ("I", "III"):
        raise UnsupportedCaseError(
            "types II and IV are reached through the module isomorphisms")
    terms = w._chi_terms
    if terms is None:
        return 0.0 + 0.0j
    x1, x0, A, sign = terms[sector]
    val = chi(x1, tau, z, policy) - A * chi(x0, tau, z, policy)
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
