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
from dataclasses import dataclass, replace
from fractions import Fraction

from .qkernel import (
    DEFAULT_POLICY,
    HalfInt,
    TruncationPolicy,
    UnsupportedCaseError,
    e2pi,
)
from .theta import dedekind_eta, jacobi_theta
from .mock import MockIndex, PsiIndex, phi, psi
from .modification import phi_tilde, psi_tilde

_J_VALUES = ("none", "I", "II", "III", "IV", "Iprime", "IIIprime")


@dataclass(frozen=True)
class N3Weight:
    dotted: bool
    m: Fraction           # level, in (1/4)Z, <= -3/4
    m2: int
    M: int = 1
    J: str = "none"
    k1: int = 0
    k2: int = 0

    def __post_init__(self):
        m = Fraction(self.m)
        object.__setattr__(self, "m", m)
        if (4 * m).denominator != 1:
            raise ValueError("level must lie in (1/4)Z")
        if m == Fraction(-1, 2):
            raise UnsupportedCaseError("critical level")
        if self.J not in _J_VALUES:
            raise ValueError(f"unknown admissible type {self.J}")
        if self.J == "none" and self.M != 1:
            raise ValueError("integrable weights have M = 1")
        if self.J in ("I", "III"):
            lo = 0 if self.J == "I" else 1
            if not (self.k1 >= 0 and self.k2 >= lo and 2 * (self.k1 + self.k2) <= self.M - 1):
                raise ValueError("k1, k2 outside the admissible range")
        if self.J in ("Iprime", "IIIprime"):
            hi = self.M - 1 if self.J == "Iprime" else self.M
            up = 0 if self.J == "Iprime" else -1
            if not (self.k1 <= up and self.k1 + self.k2 >= 0 and self.k1 + 2 * self.k2 <= hi):
                raise ValueError("k1, k2 outside the non-principal range")

    @property
    def n(self) -> int:
        n = -4 * self.m - 2
        if n.denominator != 1 or n <= 0:
            raise ValueError("level does not give a positive integer n")
        return int(n)

    def label(self) -> str:
        return (f"n3:dot={int(self.dotted)}:m={self.m}:m2={self.m2}"
                f":M={self.M}:J={self.J}:k1={self.k1}:k2={self.k2}")


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
    if not w.dotted:
        theta_int = w.m2 == 0
        a0 = w.m + Fraction(w.m2, 2)
        alpha0_int = a0.denominator == 1 and a0 >= 0
    else:
        theta_int = (w.m2 == n == 2)
        a0 = w.m + Fraction(w.m2, 2)
        alpha0_int = a0.denominator == 1 and a0 > 0
    two_mm2 = 2 * w.m + w.m2
    deg_parity = two_mm2.denominator == 1 and (two_mm2 > 0 if w.dotted else two_mm2 >= 0) \
        and int(two_mm2) % 2 == 0
    degenerate = (w.k1 + w.k2 == (w.M - 1) // 2) and w.M % 2 == 1 and deg_parity
    return {
        "theta_integrable": theta_int,
        "alpha0_integrable": alpha0_int,
        "j_Lambda": 2 if theta_int else 1,
        "degenerate": degenerate,
    }


# --- denominators --------------------------------------------------------

def rhat(tau, z1, z2, t=0.0, plus=False, policy: TruncationPolicy = DEFAULT_POLICY):
    """Normalized affine (super)denominator; the superdenominator carries
    the constant +i fixed against the Weyl-product form."""
    eta3 = dedekind_eta(tau, policy) ** 3
    num = jacobi_theta(1, 1, tau, z1 + z2, policy) * jacobi_theta(1, 1, tau, (z1 - z2) / 2, policy)
    if plus:
        den = (jacobi_theta(1, 0, tau, z1, policy) * jacobi_theta(1, 0, tau, z2, policy)
               * jacobi_theta(1, 0, tau, (z1 + z2) / 2, policy))
        c = 1.0
    else:
        den = (jacobi_theta(1, 1, tau, z1, policy) * jacobi_theta(1, 1, tau, z2, policy)
               * jacobi_theta(1, 1, tau, (z1 + z2) / 2, policy))
        c = 1.0j
    return c * e2pi(t / 2.0) * eta3 * num / den


def n3_denominator(tau, z, sector: str, policy: TruncationPolicy = DEFAULT_POLICY):
    """The three N=3 superconformal denominators.

    All three carry a uniform constant -i relative to the bare eta-theta
    quotients; it is pinned by the collapsing-level identities (the reduced
    characters at n = 1 must equal degree-one theta quotients exactly) and
    matches the sign slack of the odd theta-factor convention.
    """
    th11 = jacobi_theta(1, 1, tau, z, policy)
    if sector == "ns_plus":
        val = (dedekind_eta(tau / 2, policy) * dedekind_eta(2 * tau, policy) * th11
               / jacobi_theta(0, 0, tau, z, policy))
    elif sector == "ns_minus":
        val = (dedekind_eta(tau, policy) ** 3 * th11
               / (dedekind_eta(tau / 2, policy) * jacobi_theta(0, 1, tau, z, policy)))
    elif sector == "ramond":
        val = (dedekind_eta(tau, policy) ** 3 * th11
               / (dedekind_eta(2 * tau, policy) * jacobi_theta(1, 0, tau, z, policy)))
    else:
        raise ValueError(f"unknown sector {sector}")
    return -1j * val


# --- numerators ----------------------------------------------------------

def b_value(m: Fraction, m2: int, tau, z1, z2, t, dotted: bool, modified: bool,
            policy: TruncationPolicy = DEFAULT_POLICY):
    """B or B-dot numerator; the modified variant uses the half-argument
    split onto the integer-degree modification with index 0."""
    m = Fraction(m)
    n = -4 * m - 2
    two_m1 = 2 * m + 1  # in (1/2)Z
    if not modified:
        idx = MockIndex.of(Fraction(-2 * m - 1), Fraction(m2 + 1, 2))
        if dotted:
            pref = e2pi(two_m1 * (t + z2 - z1) / 2) * e2pi(-(m + Fraction(1, 2)) * tau)
            return pref * phi(idx, 2 * tau, z1 + tau, -z2 + tau, 0.0, policy)
        return e2pi(two_m1 * t / 2) * phi(idx, 2 * tau, z1, -z2, 0.0, policy)
    idx = MockIndex.of(int(n), 0)
    sgn = -1.0 if m2 % 2 else 1.0
    if dotted:
        pref = 0.5 * e2pi(two_m1 * (t + z2 - z1) / 2) * e2pi(-(m + Fraction(1, 2)) * tau)
        a = phi_tilde(idx, tau, (z1 + tau) / 2, -(z2 - tau) / 2, 0.0, policy)
        b = phi_tilde(idx, tau, (z1 + tau + 1) / 2, -(z2 - tau + 1) / 2, 0.0, policy)
    else:
        pref = 0.5 * e2pi(two_m1 * t / 2)
        a = phi_tilde(idx, tau, z1 / 2, -z2 / 2, 0.0, policy)
        b = phi_tilde(idx, tau, (z1 + 1) / 2, -(z2 + 1) / 2, 0.0, policy)
    return pref * (a - sgn * b)


def _admissible_point(w: N3Weight, tau, z1, z2, t):
    """Argument shift of the level-raising translation: returns the point
    (M tau, Z1, Z2, T/M) at which the integrable numerator is evaluated."""
    k1, k2, M = w.k1, w.k2, w.M
    if w.J in ("I", "Iprime"):
        Z1, Z2 = z1 + k1 * tau, z2 + (k1 + 2 * k2) * tau
        zb = (k1 + 2 * k2) * z1 + k1 * z2
    elif w.J in ("III", "IIIprime"):
        Z1, Z2 = z2 + k1 * tau, z1 + (k1 + 2 * k2) * tau
        zb = k1 * z1 + (k1 + 2 * k2) * z2
    else:
        raise UnsupportedCaseError(
            f"type {w.J} numerators are reached through the sector isomorphisms")
    T = t + zb + tau * k1 * (k1 + 2 * k2)
    return M * tau, Z1, Z2, T / M


def numerator_B(w: N3Weight, tau, z1, z2, t=0.0, modified: bool = False,
                policy: TruncationPolicy = DEFAULT_POLICY):
    """The B-type numerator of the single weight w (no Weyl-case assembly)."""
    if w.J == "none":
        return b_value(w.m, w.m2, tau, z1, z2, t, w.dotted, modified, policy)
    tau2, Z1, Z2, T = _admissible_point(w, tau, z1, z2, t)
    return b_value(w.m, w.m2, tau2, Z1, Z2, T, w.dotted, modified, policy)


def admissible_numerator_psi(w: N3Weight, tau, z1, z2, t=0.0, modified: bool = True,
                             policy: TruncationPolicy = DEFAULT_POLICY):
    """The same admissible numerator assembled from Psi / Psi-tilde values;
    an independent route used to cross-check the translation formula.
    The second term carries the half-shift eps = 1/2."""
    if w.J not in ("I", "III", "Iprime", "IIIprime"):
        raise UnsupportedCaseError("psi assembly exists for types I and III")
    n, M, k1, k2 = w.n, w.M, w.k1, w.k2
    s = 0 if modified else w.m2 + 1
    if w.J in ("I", "Iprime"):
        sign = 0.5
        a = HalfInt(k1 + (M if w.dotted else 0))
        b = HalfInt(-(k1 + 2 * k2 - (M if w.dotted else 0)))
    else:
        sign = -0.5
        a = HalfInt(k1 + 2 * k2 - (M if w.dotted else 0))
        b = HalfInt(-(k1 + (M if w.dotted else 0)))
    fn = psi_tilde if modified else psi
    idx0 = PsiIndex.of(M, n, s, 0, a, b)
    idx1 = PsiIndex.of(M, n, s, Fraction(1, 2), a, b)
    v0 = fn(idx0, tau, z1 / 2, -z2 / 2, 0.0, policy)
    v1 = fn(idx1, tau, z1 / 2, -z2 / 2, 0.0, policy)
    pref = sign * e2pi((2 * w.m + 1) * t / (2 * w.M))
    return pref * (v0 - (-1.0 if w.m2 % 2 else 1.0) * v1)


def supercharacter_numerator(w: N3Weight, tau, z1, z2, t=0.0, modified: bool = False,
                             policy: TruncationPolicy = DEFAULT_POLICY):
    """Case assembly of R-hat^- ch^-: single B, theta-symmetrized pair, or
    the alpha0-paired difference, per the integrability flags of the
    underlying integrable weight."""
    flags = integrability_flags(replace(w, M=1, J="none", k1=0, k2=0))
    n = w.n

    def B(m2, dotted):
        wx = replace(w, m2=m2, dotted=dotted)
        return numerator_B(wx, tau, z1, z2, t, modified, policy)

    if flags["theta_integrable"] and flags["alpha0_integrable"]:
        raise UnsupportedCaseError("level zero excluded")
    if flags["theta_integrable"]:
        return (B(w.m2, w.dotted) + B(-w.m2, w.dotted)) / flags["j_Lambda"]
    if flags["alpha0_integrable"]:
        return B(w.m2, w.dotted) - B(n - w.m2, not w.dotted)
    return B(w.m2, w.dotted)


def supercharacter(w: N3Weight, tau, z1, z2, t=0.0, modified: bool = False,
                   policy: TruncationPolicy = DEFAULT_POLICY):
    num = supercharacter_numerator(w, tau, z1, z2, t, modified, policy)
    return num / rhat(tau, z1, z2, t, False, policy)


def _lambda_theta(w: N3Weight) -> Fraction:
    """(Lambda | theta), entering the character/supercharacter shift."""
    kt = (w.m + Fraction(1, 2)) / w.M
    base = -2 * kt * (w.k1 + w.k2) - Fraction(w.m2, 2)
    return base + (1 if w.dotted else 0)


def character_numerator(w: N3Weight, tau, z1, z2, t=0.0, modified: bool = False,
                        policy: TruncationPolicy = DEFAULT_POLICY):
    """R-hat^+ ch^+ from the supercharacter via the half-shift substitution.

    The denominator ratio R^+(z1, z2) / R^-(z1 - 1/2, z2 - 1/2) equals the
    constant i identically (half shifts turn the odd theta factors into
    theta_10 and flip the sign of the z1+z2 factor), so it is applied
    analytically; evaluating the two R-hats separately is 0/0 noise on the
    z1 + z2 in Z + tau Z divisor where the reduction substitution lands.
    """
    nm = supercharacter_numerator(w, tau, z1 - 0.5, z2 - 0.5, t, modified, policy)
    return 1j * e2pi(-_lambda_theta(w) / 2) * nm


def twisted_point(tau, z1, z2, t):
    return (-z2 + tau / 2, -z1 + tau / 2, t - (z1 + z2) / 2 + tau / 4)


def twisted_character_numerator(w: N3Weight, tau, z1, z2, t=0.0, modified: bool = False,
                                policy: TruncationPolicy = DEFAULT_POLICY):
    w1, w2, wt = twisted_point(tau, z1, z2, t)
    return character_numerator(w, tau, w1, w2, wt, modified, policy)


# --- characteristic numbers ---------------------------------------------

def qhr_characteristics(w: N3Weight) -> dict:
    """Central charge, lowest energies and spins of H(Lambda), H^tw(Lambda),
    and the vanishing flags."""
    m, m2, M, k1, k2 = w.m, Fraction(w.m2), w.M, w.k1, w.k2
    K = (m + Fraction(1, 2)) / M - Fraction(1, 2)
    c = -6 * K - Fraction(7, 2)
    r = (2 * m + 1) / (2 * M)
    J = w.J if w.J != "none" else "I"
    up = J in ("I", "III", "Iprime", "IIIprime")
    half = Fraction(1, 2) if up else Fraction(-1, 2)
    quad = k1 * (k1 + 2 * k2) + (k1 + k2 if up else -(k1 + k2))
    if not w.dotted:
        h = (m2 + 1) / 2 * (k1 + half) - Fraction(1, 4) + r * quad
        h_tw = (m2 + 1) / 2 * k1 + r * (k1 * (k1 + 2 * k2) - Fraction(1, 4)) - Fraction(1, 16)
        if J in ("I", "IV", "Iprime"):
            s = m2 / 2 + (2 * m + 1) * k2 / M
        else:
            s = -m2 / 2 - (2 * m + 1) * k2 / M - 1
    else:
        extra = (m + m2 / 2) * (2 * k2 - M)
        h = (m2 - 1) / 2 * (k1 + half) + extra - Fraction(1, 4) + r * quad
        h_tw = (m2 - 1) / 2 * k1 + extra + r * (k1 * (k1 + 2 * k2) - Fraction(1, 4)) - Fraction(1, 16)
        if J in ("I", "IV", "Iprime"):
            s = -m2 / 2 - 2 * m + (2 * m + 1) * k2 / M - 1
        else:
            s = m2 / 2 + 2 * m - (2 * m + 1) * k2 / M
    flags = integrability_flags(w)
    vanishes = flags["degenerate"]
    if w.M == 1:
        crit = -m2 / 4 + (Fraction(1, 2) if w.dotted else 0)
        vanishes_tw = crit.denominator <= 2 and crit >= 0 and (2 * crit).denominator == 1
    else:
        vanishes_tw = False
    return {"c": c, "h": h, "s": s, "h_tw": h_tw, "s_tw": s - Fraction(1, 2),
            "vanishes": vanishes, "vanishes_tw": vanishes_tw}


def qhr_character(w: N3Weight, tau, z, sector: str, modified: bool = False,
                  policy: TruncationPolicy = DEFAULT_POLICY):
    """Trace of q^{L0 - c/24} e^{-4 pi i z alpha2} over the reduced module,
    as numerator-at-substitution / N=3 denominator.  Ramond supercharacters
    vanish identically; vanishing modules return 0."""
    ch = qhr_characteristics(w)
    if sector == "ramond_minus":
        return 0.0 + 0.0j
    if sector in ("ns_plus", "ns_minus") and ch["vanishes"]:
        return 0.0 + 0.0j
    if sector == "ramond" and ch["vanishes_tw"]:
        return 0.0 + 0.0j
    if sector == "ns_minus":
        num = supercharacter_numerator(w, tau, z + tau / 2, -z + tau / 2, tau / 4, modified, policy)
    elif sector == "ns_plus":
        num = character_numerator(w, tau, z + tau / 2, -z + tau / 2, tau / 4, modified, policy)
    elif sector == "ramond":
        num = character_numerator(w, tau, z, -z, 0.0, modified, policy)
    else:
        raise ValueError(f"unknown sector {sector}")
    return num / n3_denominator(tau, z, sector, policy)


# --- the f-function basis ------------------------------------------------

@dataclass(frozen=True)
class FIndex:
    M: int
    n: int
    eps: HalfInt
    sigma: HalfInt
    sigma_prime: HalfInt
    j: HalfInt
    k: HalfInt
    eps_prime: HalfInt

    @staticmethod
    def of(M, n, eps, sigma, sigma_prime, j, k) -> "FIndex":
        M, n = int(M), int(n)
        if M <= 0 or M % 2 == 0:
            raise ValueError("M must be a positive odd integer")
        if n > 1 and math.gcd(M, n) != 1:
            raise ValueError("n must be coprime to M")
        j = HalfInt.of(j)
        k = HalfInt.of(k)
        if j.twice % 2 != k.twice % 2:
            raise ValueError("j and k must share the same half-shift")
        return FIndex(M, n, HalfInt.of(eps), HalfInt.of(sigma), HalfInt.of(sigma_prime),
                      j, k, HalfInt(j.twice % 2))


def f_function(idx: FIndex, tau, z, policy: TruncationPolicy = DEFAULT_POLICY):
    """q^{-n sigma'^2 / 4M} Psi-tilde at the half-sum arguments."""
    sg, sgp = float(idx.sigma), float(idx.sigma_prime)
    pidx = PsiIndex.of(idx.M, idx.n, 0, idx.eps, idx.j, idx.k)
    pref = e2pi(-Fraction(idx.n, 4 * idx.M) * sgp * sgp * tau)
    u = (z + sg + sgp * tau) / 2
    return pref * psi_tilde(pidx, tau, u, z - u, 0.0, policy)


def _abs_half(h: HalfInt) -> HalfInt:
    return HalfInt(abs(h.twice) % 2)


def move_swap(idx: FIndex):
    """Index swap move: f(idx) = phase * f(new)."""
    n, M = idx.n, idx.M
    phase = e2pi(Fraction(-n * idx.sigma.twice * idx.sigma_prime.twice, 4 * M)
                 + Fraction(n * idx.sigma.twice * (idx.k.twice - idx.j.twice), 4 * M))
    new = FIndex(M, n, _abs_half(idx.sigma - idx.eps), idx.sigma, idx.sigma_prime,
                 idx.k - idx.sigma_prime, idx.j + idx.sigma_prime,
                 _abs_half(idx.sigma_prime - idx.eps_prime))
    return new, phase


def move_translate(idx: FIndex, a: int, b: int):
    """f_{j,k} = phase * f_{j - aM, k - bM}."""
    phase = e2pi(Fraction(idx.n * (a - b) * idx.eps.twice, 2))
    new = replace(idx, j=idx.j - HalfInt(2 * a * idx.M), k=idx.k - HalfInt(2 * b * idx.M))
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
