"""The spo(2|3) family.

Complementary-integrable and principal admissible weights, their (modified)
supercharacter numerators built from the mock theta functions, the N=3
quantum Hamiltonian reduction, and the f-function basis with its index
normal form.

Coordinates: z = -z1(alpha1 + 2 alpha2) - z2 alpha1, (z|z) = 2 z1 z2.
Useful coordinate actions (tau fixed):

    r_theta  : (z1, z2, t) -> (-z2, -z1, t)
    r_alpha2 : (z1, z2, t) -> (z2, z1, t)
    r_alpha0 : (z1, z2, t) -> (-z2 + tau, -z1 + tau, t - z1 - z2 + tau)
    twist    : (z1, z2, t) -> (-z2 + tau/2, -z1 + tau/2, t - (z1+z2)/2 + tau/4)
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .qkernel import (
    DEFAULT_POLICY,
    HalfInt,
    TruncationPolicy,
    UnsupportedCaseError,
    _record,
    _replace,
    e2pi,
    int_of,
)
from .mock import MockIndex, PsiIndex
from .family_n4 import Sector
from . import family_n4 as n4, mock as mk, modification as md, theta as th

_J_VALUES = ("none", "I", "II", "III", "IV", "Iprime", "IIIprime")


@_record
class N3Weight:
    """A weight of the family: dotted or not, level m, label m2, and the
    admissible data (M, J, k1, k2).  What the numerators derive from it
    exactly (indices, B-terms, phases) is formed on first use and kept on
    the weight; a Fraction constant F is kept as float(F), since F * x is
    float(F) * x to the bit for a float or complex x."""

    dotted: bool
    m: Fraction           # level, in (1/4)Z, <= -3/4
    m2: int               # 0..n
    M: int = 1
    J: str = "none"
    k1: int = 0
    k2: int = 0

    def __post_init__(self):
        object.__setattr__(self, "m2", int_of(self.m2))
        m = Fraction(self.m)
        object.__setattr__(self, "m", m)
        if (4 * m).denominator != 1:
            raise ValueError("level must lie in (1/4)Z")
        if m == Fraction(-1, 2):
            raise UnsupportedCaseError("critical level")
        if self.n <= 0:
            raise ValueError("level does not give a positive integer n")
        if not 0 <= self.m2 <= self.n:
            raise ValueError("m2 out of range")
        n4._read_admissible(self, _J_VALUES, lambda k1, k2: 2 * (k1 + k2))
        if self.J in ("Iprime", "IIIprime"):
            hi = self.M - 1 if self.J == "Iprime" else self.M
            up = 0 if self.J == "Iprime" else -1
            if not (self.k1 <= up and self.k1 + self.k2 >= 0 and self.k1 + 2 * self.k2 <= hi):
                raise ValueError("k1, k2 outside the non-principal range")

    @cached_property
    def n(self) -> int:
        return -4 * self.m.numerator // self.m.denominator - 2    # m is in (1/4)Z

    @cached_property
    def _b_data(self) -> tuple:
        """_b_terms of this weight's label, for b_value"""
        return _b_terms(self.dotted, self.n, self.m2)

    @cached_property
    def _b_partner(self) -> tuple:
        """(partner, theta_pair) of supercharacter_numerator, by the
        integrability flags of the underlying integrable weight: the B data
        of the label whose B-term pairs with this one's (None for a single
        term), and whether the pair is the theta-symmetrized sum or the
        alpha0 difference.  The theta partner's label -m2 lies outside
        0..n, so no weight is formed for it."""
        flags = integrability_flags(_replace(self, M=1, J="none", k1=0, k2=0))
        if flags["theta_integrable"] and flags["alpha0_integrable"]:
            raise UnsupportedCaseError("level zero excluded")
        if flags["theta_integrable"]:
            return _b_terms(self.dotted, self.n, -self.m2), True
        if flags["alpha0_integrable"]:
            return _b_terms(not self.dotted, self.n, self.n - self.m2), False
        return None, False

    @cached_property
    def _psi_terms(self) -> tuple:
        """(sign, 2m + 1, (idx0, idx1) of psi, (idx0, idx1) of psi_tilde) for
        admissible_numerator_psi; idx1 carries the half-shift eps = 1/2"""
        if self.J not in ("I", "III", "Iprime", "IIIprime"):
            raise UnsupportedCaseError("psi assembly exists for types I and III")
        n, M, k1, k2 = self.n, self.M, self.k1, self.k2
        shift = M if self.dotted else 0
        sign, a, b = 0.5, HalfInt(k1 + shift), HalfInt(-(k1 + 2 * k2 - shift))
        if self.J in ("III", "IIIprime"):     # types I and I' with z1 and z2 swapped
            sign, a, b = -sign, -b, -a
        pair = lambda s: (PsiIndex.of(M, n, s, 0, a, b), PsiIndex.of(M, n, s, Fraction(1, 2), a, b))
        return sign, float(2 * self.m + 1), pair(self.m2 + 1), pair(0)

    @cached_property
    def _character_phase(self) -> complex:
        """i e^{-pi i (Lambda | theta)}, the constant of a plus sector's numerator"""
        return 1j * e2pi(-_lambda_theta(self) / 2)

    @cached_property
    def _qhr(self) -> dict:
        """qhr_characteristics(self), for qhr_character"""
        return qhr_characteristics(self)

    def label(self) -> str:
        return (f"n3:dot={int(self.dotted)}:m={self.m}:m2={self.m2}"
                f":M={self.M}:J={self.J}:k1={self.k1}:k2={self.k2}")


def _b_terms(dotted: bool, n: int, m2: int) -> tuple:
    """(dotted, index of B, index of the modified B, 2m + 1, -(m + 1/2),
    (-1)^m2) of b_value for the label (dotted, m2) at n = -4m - 2: the
    degree -2m - 1 is n/2, and 2m + 1 and -(m + 1/2) are the exact floats
    -n/2 and n/4"""
    return (dotted, MockIndex.of(HalfInt(n), HalfInt(m2 + 1)), MockIndex.of(n, 0), -n / 2, n / 4,
            -1.0 if m2 % 2 else 1.0)


def enumerate_weights(m) -> list[N3Weight]:
    """All level-m complementary integrable weights (dotted and undotted),
    empty unless 4m is an integer <= -3."""
    m = Fraction(m)
    if m == Fraction(-1, 2):
        raise UnsupportedCaseError("critical level")
    if (4 * m).denominator != 1 or 4 * m > -3:
        return []
    n = int(-4 * m - 2)
    out = []
    for dotted in (False, True):
        for m2 in range(n + 1):
            out.append(N3Weight(dotted, m, m2))
    return out


def integrability_flags(w: N3Weight) -> dict:
    n = w.n
    theta_int = w.m2 == n == 2 if w.dotted else w.m2 == 0
    a0 = w.m + Fraction(w.m2, 2)
    alpha0_int = a0.denominator == 1 and (a0 > 0 if w.dotted else a0 >= 0)
    # 2m + m2 = 2 a0 is even and positive (or zero, undotted) iff alpha0 is integrable
    degenerate = (w.k1 + w.k2 == (w.M - 1) // 2) and w.M % 2 == 1 and alpha0_int
    return {
        "theta_integrable": theta_int,
        "alpha0_integrable": alpha0_int,
        "j_Lambda": 2 if theta_int else 1,
        "degenerate": degenerate,
    }


# --- denominators --------------------------------------------------------

def rhat(tau, z1, z2, t, sector: Sector, policy: TruncationPolicy = DEFAULT_POLICY):
    """Normalized affine (super)denominator over the theta_ab of an eps' = 0
    sector; the superdenominator carries the constant +i fixed against the
    Weyl-product form.  N=3 has no twisted affine denominator."""
    if sector.eps_prime.twice:
        raise ValueError(f"no twisted N=3 affine denominator, got the sector {sector}")
    (a, b), c = (sector.a, sector.b), (1.0 if sector.eps.twice else 1j)
    num = ((1, 3), (1, 1, z1 + z2, 1), (1, 1, (z1 - z2) / 2, 1))
    den = ((a, b, z1, 1), (a, b, z2, 1), (a, b, (z1 + z2) / 2, 1))
    return th.eta_theta_quotient(tau, c * e2pi(t / 2.0), num, den, policy)


# each N=3 denominator as (eta rows) theta_11(z) / ((eta rows) theta_ab(z)),
# with (a, b) of its sector; the twisted super sector (0, 0) has none
_N3_SECTORS = {
    Sector.of(Fraction(1, 2), Fraction(1, 2)): (((0.5, 1), (2, 1)), ()),
    Sector.of(0, Fraction(1, 2)): (((1, 3),), ((0.5, 1),)),
    Sector.of(Fraction(1, 2), 0): (((1, 3),), ((2, 1),)),
}


def n3_denominator(tau, z, sector: Sector, policy: TruncationPolicy = DEFAULT_POLICY):
    """The three N=3 superconformal denominators.

    All three carry a uniform constant -i relative to the bare eta-theta
    quotients; it is pinned by the collapsing-level identities (the reduced
    characters at n = 1 must equal degree-one theta quotients exactly) and
    matches the sign slack of the odd theta-factor convention.  A
    denominator that underflows to 0 raises DomainError.
    """
    if sector not in _N3_SECTORS:
        raise ValueError(f"no N=3 denominator in the sector {sector}")
    num, den = _N3_SECTORS[sector]
    return th._nonzero(th.eta_theta_quotient(tau, -1j, (*num, (1, 1, z, 1)),
                                             (*den, (sector.a, sector.b, z, 1)), policy))


# --- numerators ----------------------------------------------------------

def b_value(b: tuple, tau, z1, z2, t, modified: bool,
            policy: TruncationPolicy = DEFAULT_POLICY):
    """B or B-dot numerator of an integrable weight (dotted, m, m2) from its
    B data b = _b_terms(dotted, n, m2), which a weight w keeps as w._b_data;
    the modified variant uses the half-argument split onto the
    integer-degree modification with index 0."""
    dotted, idx, idx_mod, two_m1, half, sgn = b   # 2m + 1 is in (1/2)Z
    if dotted:
        # B-dot is B at (z1 + tau, z2 - tau) under its own prefactor
        pref = e2pi(two_m1 * (t + z2 - z1) / 2) * e2pi(half * tau)
        z1, z2 = z1 + tau, z2 - tau
    else:
        pref = e2pi(two_m1 * t / 2)
    if not modified:
        return pref * mk.phi(idx, 2 * tau, z1, -z2, 0.0, policy)
    a = md.phi_tilde(idx_mod, tau, z1 / 2, -z2 / 2, 0.0, policy)
    b = md.phi_tilde(idx_mod, tau, (z1 + 1) / 2, -(z2 + 1) / 2, 0.0, policy)
    return 0.5 * pref * (a - sgn * b)


def _admissible_point(w: N3Weight, tau, z1, z2, t):
    """Argument shift of the level-raising translation: returns the point
    (M tau, Z1, Z2, T/M) at which the integrable numerator is evaluated.
    Types III and III' are types I and I' with z1 and z2 swapped."""
    k1, k2, M = w.k1, w.k2, w.M
    if w.J in ("III", "IIIprime"):
        z1, z2 = z2, z1
    elif w.J not in ("I", "Iprime"):
        raise UnsupportedCaseError(
            f"type {w.J} numerators are reached through the sector isomorphisms")
    Z1, Z2 = z1 + k1 * tau, z2 + (k1 + 2 * k2) * tau
    zb = (k1 + 2 * k2) * z1 + k1 * z2
    T = t + zb + tau * k1 * (k1 + 2 * k2)
    return M * tau, Z1, Z2, T / M


def numerator_B(w: N3Weight, tau, z1, z2, t=0.0, modified: bool = False,
                policy: TruncationPolicy = DEFAULT_POLICY):
    """The B-type numerator of the single weight w (no Weyl-case assembly)."""
    pt = (tau, z1, z2, t) if w.J == "none" else _admissible_point(w, tau, z1, z2, t)
    return b_value(w._b_data, *pt, modified, policy)


def admissible_numerator_psi(w: N3Weight, tau, z1, z2, t=0.0, modified: bool = True,
                             policy: TruncationPolicy = DEFAULT_POLICY):
    """The same admissible numerator assembled from Psi / Psi-tilde values;
    an independent route used to cross-check the translation formula.
    The second term carries the half-shift eps = 1/2; the wrapper indices
    come from w, formed once per weight."""
    sign, two_m1, *pairs = w._psi_terms
    idx0, idx1 = pairs[modified]
    fn = md.psi_tilde if modified else mk.psi
    v0 = fn(idx0, tau, z1 / 2, -z2 / 2, 0.0, policy)
    v1 = fn(idx1, tau, z1 / 2, -z2 / 2, 0.0, policy)
    pref = sign * e2pi(two_m1 * t / (2 * w.M))
    return pref * (v0 - (-1.0 if w.m2 % 2 else 1.0) * v1)


def supercharacter_numerator(w: N3Weight, tau, z1, z2, t=0.0, modified: bool = False,
                             policy: TruncationPolicy = DEFAULT_POLICY):
    """Case assembly of R-hat^- ch^-: single B, theta-symmetrized pair, or
    the alpha0-paired difference, per the integrability flags of the
    underlying integrable weight.  The partner's B data of a pair is formed
    once per weight, and both terms are evaluated at w's admissible point."""
    partner, theta_pair = w._b_partner
    pt = (tau, z1, z2, t) if w.J == "none" else _admissible_point(w, tau, z1, z2, t)
    B = lambda b: b_value(b, *pt, modified, policy)
    if partner is None:
        return B(w._b_data)
    if theta_pair:
        return (B(w._b_data) + B(partner)) / 2   # j_Lambda = 2
    return B(w._b_data) - B(partner)


def _lambda_theta(w: N3Weight) -> Fraction:
    """(Lambda | theta), entering the character/supercharacter shift."""
    kt = (w.m + Fraction(1, 2)) / w.M
    base = -2 * kt * (w.k1 + w.k2) - Fraction(w.m2, 2)
    return base + (1 if w.dotted else 0)


def twisted_point(tau, z1, z2, t):
    return (-z2 + tau / 2, -z1 + tau / 2, t - (z1 + z2) / 2 + tau / 4)


def numerator(w: N3Weight, tau, z1, z2, t, sector: Sector, modified: bool = False,
              policy: TruncationPolicy = DEFAULT_POLICY):
    """R-hat ch in a sector.  A twisted sector (eps' = 0) first moves the
    point by the twist; a plus sector then shifts both z by -1/2, where the
    ratio R^+(z1, z2) / R^-(z1 - 1/2, z2 - 1/2) is the constant i (the half
    shifts turn the odd theta factors into theta_10 and flip the sign of the
    z1+z2 factor), applied analytically: the two R-hats apart are 0/0 noise
    on the z1 + z2 in Z + tau Z divisor where the reduction lands."""
    if not sector.eps_prime.twice:
        z1, z2, t = twisted_point(tau, z1, z2, t)
    if sector.eps.twice:
        return w._character_phase * supercharacter_numerator(
            w, tau, z1 - 0.5, z2 - 0.5, t, modified, policy)
    return supercharacter_numerator(w, tau, z1, z2, t, modified, policy)


# --- characteristic numbers ---------------------------------------------

def qhr_characteristics(w: N3Weight) -> dict:
    """Central charge, lowest energies and spins of H(Lambda), H^tw(Lambda),
    and the vanishing flags."""
    m, m2, M, k1, k2 = w.m, Fraction(w.m2), w.M, w.k1, w.k2
    K = (m + Fraction(1, 2)) / M - Fraction(1, 2)
    c = -6 * K - Fraction(7, 2)
    r = (2 * m + 1) / (2 * M)
    up = w.J not in ("II", "IV")
    half = Fraction(1, 2) if up else Fraction(-1, 2)
    quad = k1 * (k1 + 2 * k2) + (k1 + k2 if up else -(k1 + k2))
    # the dotted energies are the undotted ones with m2 - 1 for m2 + 1, plus extra
    if w.dotted:
        lead, extra = (m2 - 1) / 2, (m + m2 / 2) * (2 * k2 - M)
        s = -m2 / 2 - 2 * m + (2 * m + 1) * k2 / M - 1
    else:
        lead, extra = (m2 + 1) / 2, 0
        s = m2 / 2 + (2 * m + 1) * k2 / M
    h = lead * (k1 + half) + extra - Fraction(1, 4) + r * quad
    h_tw = lead * k1 + extra + r * (k1 * (k1 + 2 * k2) - Fraction(1, 4)) - Fraction(1, 16)
    if w.J not in ("none", "I", "IV", "Iprime"):     # the types with z1 and z2 swapped
        s = -s - 1
    crit = -m2 / 4 + (Fraction(1, 2) if w.dotted else 0)
    vanishes_tw = w.M == 1 and crit >= 0 and (2 * crit).denominator == 1
    return {"c": c, "h": h, "s": s, "h_tw": h_tw, "s_tw": s - Fraction(1, 2),
            "vanishes": integrability_flags(w)["degenerate"], "vanishes_tw": vanishes_tw}


def qhr_character(w: N3Weight, tau, z, sector: Sector, modified: bool = False,
                  policy: TruncationPolicy = DEFAULT_POLICY):
    """Trace of q^{L0 - c/24} e^{-4 pi i z alpha2} over the reduced module:
    the numerator in sector.affine at (z, -z, 0), which the twist of an
    untwisted sector moves to (z + tau/2, -z + tau/2, tau/4), over the N=3
    denominator.  The twisted supercharacters (sector (0, 0)) vanish
    identically; vanishing modules return 0."""
    if not (sector.eps.twice or sector.eps_prime.twice):
        return 0.0 + 0.0j
    if w._qhr["vanishes" if sector.eps_prime.twice else "vanishes_tw"]:
        return 0.0 + 0.0j
    return (numerator(w, tau, z, -z, 0.0, sector.affine, modified, policy)
            / n3_denominator(tau, z, sector, policy))


# --- the f-function basis ------------------------------------------------

@_record
class FIndex:
    """Index of the f-function basis in a sector (sigma, sigma'); the wrapper
    index and prefactor that f_function derives are formed on first use."""

    M: int
    n: int
    eps: HalfInt
    sector: Sector
    j: HalfInt
    k: HalfInt
    eps_prime: HalfInt

    @staticmethod
    def of(M, n, eps, sector: Sector, j, k) -> "FIndex":
        M, n = int_of(M), int_of(n)
        if M <= 0 or M % 2 == 0:
            raise ValueError("M must be a positive odd integer")
        if n <= 0:
            raise ValueError("n must be a positive integer")
        if math.gcd(M, n) != 1:
            raise ValueError("n must be coprime to M")
        eps, j, k = HalfInt.of(eps), HalfInt.of(j), HalfInt.of(k)
        if eps.twice not in (0, 1):
            raise ValueError("eps must be 0 or 1/2")
        if j.twice % 2 != k.twice % 2:
            raise ValueError("j and k must share the same half-shift")
        return FIndex(M, n, eps, sector, j, k, HalfInt(j.twice % 2))

    @cached_property
    def _frame(self) -> tuple:
        """(wrapper index, sigma, sigma', -n sigma'^2 / 4M) of f_function"""
        sg, sgp = float(self.sector.eps), float(self.sector.eps_prime)
        return (PsiIndex.of(self.M, self.n, 0, self.eps, self.j, self.k), sg, sgp,
                -self.n / (4 * self.M) * sgp * sgp)


def f_function(idx: FIndex, tau, z, policy: TruncationPolicy = DEFAULT_POLICY):
    """q^{-n sigma'^2 / 4M} Psi-tilde at the half-sum arguments; the wrapper
    index comes from idx, formed once per index."""
    pidx, sg, sgp, c = idx._frame
    pref = e2pi(c * tau)
    u = (z + sg + sgp * tau) / 2
    return pref * md.psi_tilde(pidx, tau, u, z - u, 0.0, policy)


def _abs_half(h: HalfInt) -> HalfInt:
    return HalfInt(abs(h.twice) % 2)


def move_swap(idx: FIndex):
    """Index swap move: f(idx) = phase * f(new)."""
    n, M, sg, sgp = idx.n, idx.M, idx.sector.eps, idx.sector.eps_prime
    phase = e2pi(Fraction(-n * sg.twice * sgp.twice, 4 * M)
                 + Fraction(n * sg.twice * (idx.k.twice - idx.j.twice), 4 * M))
    new = FIndex(M, n, _abs_half(sg - idx.eps), idx.sector, idx.k - sgp, idx.j + sgp,
                 _abs_half(sgp - idx.eps_prime))
    return new, phase


def move_translate(idx: FIndex, a: int, b: int):
    """f_{j,k} = phase * f_{j - aM, k - bM}."""
    phase = e2pi(Fraction(idx.n * (a - b) * idx.eps.twice, 2))
    new = _replace(idx, j=idx.j - HalfInt(2 * a * idx.M), k=idx.k - HalfInt(2 * b * idx.M))
    return new, phase


def fundamental_domain(idx: FIndex):
    """Normal form under the index moves; returns (index, phase) with
    f(idx) = phase * f(normal form).

    Targets 0 <= j <= k < M.  For sigma' = 1/2 the only swap available is
    the skew one (k - 1/2, j + 1/2) (a plain swap is not an invariance
    there), so a few orbits have no representative in the triangle; those
    settle on the orbit element in the box [0, M)^2 with minimal (j - k, j),
    which is canonical and deterministic."""
    phase = 1.0 + 0.0j
    cur = idx
    seen = {}
    for _ in range(16):
        jv, kv = cur.j.value, cur.k.value
        a = math.floor(jv / cur.M)
        b = math.floor(kv / cur.M)
        if a or b:
            cur, p = move_translate(cur, a, b)
            phase *= p
            continue
        if jv <= kv:
            return cur, phase
        key = (cur.j.twice, cur.k.twice, cur.eps.twice, cur.eps_prime.twice)
        if key in seen:
            best_key = min(seen, key=lambda s: (s[0] - s[1], s[0]))
            best, bphase = seen[best_key]
            return best, bphase
        seen[key] = (cur, phase)
        cur, p = move_swap(cur)
        phase *= p
    raise RuntimeError("index normalization did not converge")
