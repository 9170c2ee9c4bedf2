"""The D(2,1;a) family.

Integrable weight sets at level K = -pqn/(p+q), the two modified numerator
flavors built from degree np / nq modifications paired with degree n(p+q)
theta factors, the big N=4 quantum Hamiltonian reduction, and the boundary
case q = n = 1 with its S/T matrices and fusion rule.

Root data (hard-coded normalization): simple roots alpha1 (odd), alpha2,
alpha3 with (alpha2|alpha2) = 2a, (alpha3|alpha3) = -2(a+1),
(alpha1|alpha2) = -a, (alpha1|alpha3) = a+1, theta = 2 alpha1 + alpha2 +
alpha3, rho = -alpha1, a = -p/(p+q).

Coordinates (tau fixed unless shown):
    r_alpha2 : (z1, z2, z3) -> (z2, z1, -z1+z2+z3)
    r_alpha3 : (z1, z2, z3) -> (z3, -z1+z2+z3, z1)
    r_theta  : (z1, z2, z3) -> (z1-z2-z3, -z3, -z2)
    r_alpha0 : (z1, z2, z3, t) -> (z1-z2-z3+tau, -z3+tau, -z2+tau, t-z2-z3+tau)
    twist    : (z1, z2, z3, t) ->
               (z3 - tau/2, -z1+z2+z3 - tau/2, z1 + tau/2,
                t - (z1-z3)/(2(a+1)) - tau/(4(a+1)))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .qkernel import (
    DEFAULT_POLICY,
    HalfInt,
    TruncationPolicy,
    UnsupportedCaseError,
    e2pi,
)
from .theta import ThetaIndex, dedekind_eta, jacobi_theta, theta_jm
from .mock import MockIndex, PsiIndex
from .modification import phi_tilde_reduced as phi_tilde, psi_tilde_reduced as psi_tilde
from .family_n4 import _QHR_EPS, _eps_theta


@dataclass(frozen=True)
class D21Params:
    p: int
    q: int
    n: int

    def __post_init__(self):
        if not (self.p >= self.q >= 1 and self.n >= 1):
            raise ValueError("need p >= q >= 1 and n >= 1")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("p and q must be coprime")

    @property
    def a(self) -> Fraction:
        return Fraction(-self.p, self.p + self.q)

    @property
    def K(self) -> Fraction:
        return Fraction(-self.p * self.q * self.n, self.p + self.q)


@dataclass(frozen=True)
class D21Weight:
    params: D21Params
    j: int            # which isotropic root annihilates Lambda + rho
    m2: int
    m3: int

    def __post_init__(self):
        p, q, n = self.params.p, self.params.q, self.params.n
        if self.j not in (0, 1, 2, 3):
            raise ValueError("j must be 0..3")
        ok = {
            0: 0 <= self.m2 <= n * q - 1 and 0 <= self.m3 <= n * p - 1,
            1: (0 <= self.m2 <= n * q - 1 and 0 <= self.m3 <= n * p - 1)
               or (self.m2, self.m3) == (n * q, 0) or (self.m2, self.m3) == (0, n * p),
            2: 0 <= self.m2 <= n * q - 2 and 0 <= self.m3 <= n * p - 2,
            3: 0 <= self.m2 <= n * q - 2 and 0 <= self.m3 <= n * p - 2,
        }[self.j]
        if not ok:
            raise ValueError("(m2, m3) outside the weight range")

    def label(self) -> str:
        pr = self.params
        return f"d21a:p={pr.p}:q={pr.q}:n={pr.n}:j={self.j}:m2={self.m2}:m3={self.m3}"


def enumerate_weights(params: D21Params) -> dict:
    p, q, n = params.p, params.q, params.n
    out = {0: [], 1: [], 2: [], 3: []}
    for m2 in range(n * q):
        for m3 in range(n * p):
            out[0].append(D21Weight(params, 0, m2, m3))
            out[1].append(D21Weight(params, 1, m2, m3))
    out[1].append(D21Weight(params, 1, n * q, 0))
    out[1].append(D21Weight(params, 1, 0, n * p))
    for m2 in range(n * q - 1):
        for m3 in range(n * p - 1):
            out[2].append(D21Weight(params, 2, m2, m3))
            out[3].append(D21Weight(params, 3, m2, m3))
    return out


def integrability_tests(w: D21Weight) -> dict:
    p, q, n = w.params.p, w.params.q, w.params.n
    m2, m3 = w.m2, w.m3
    if w.j == 0:
        theta_int = (m2 == n * q - 1 and m3 == n * p - 1)
    elif w.j == 1:
        theta_int = (m2 == m3 == 0)
    elif w.j == 2:
        d = p * (m2 + 1) - q * (m3 + 1)
        theta_int = d >= 0 and d % (p + q) == 0
    else:
        d = q * (m3 + 1) - p * (m2 + 1)
        theta_int = d >= 0 and d % (p + q) == 0
    if w.j == 1:
        alpha0_int = (m2 == 0 and m3 == n * p) or (m3 == 0 and m2 == n * q)
    else:
        alpha0_int = False
    return {"theta_integrable": theta_int, "alpha0_integrable": alpha0_int}


def level_zero_label(w: D21Weight) -> Fraction:
    """The Lambda0 coefficient; the reduced module vanishes iff it is a
    non-negative integer."""
    p, q, n = w.params.p, w.params.q, w.params.n
    m2, m3 = w.m2, w.m3
    if w.j == 1:
        return Fraction(p * m2 + q * m3 - n * p * q, p + q)
    if w.j == 0:
        m1 = Fraction(p * (m2 + 1) + q * (m3 + 1) - n * p * q, p + q)
        return -1 - m1
    if w.j == 2:
        return Fraction(-p * (m2 + 1) + q * (m3 + 1) - n * p * q, p + q) - 1
    return Fraction(p * (m2 + 1) - q * (m3 + 1) - n * p * q, p + q) - 1


# --- coordinate actions ---------------------------------------------------

def r_alpha2(tau, z1, z2, z3, t):
    return z2, z1, -z1 + z2 + z3, t


def r_alpha3(tau, z1, z2, z3, t):
    return z3, -z1 + z2 + z3, z1, t


def r_theta(tau, z1, z2, z3, t):
    return z1 - z2 - z3, -z3, -z2, t


def r_alpha0(tau, z1, z2, z3, t):
    return z1 - z2 - z3 + tau, -z3 + tau, -z2 + tau, t - z2 - z3 + tau


def twist_point(params: D21Params, tau, z1, z2, z3, t):
    ap1 = params.a + 1  # = q/(p+q)
    return (z3 - tau / 2, -z1 + z2 + z3 - tau / 2, z1 + tau / 2,
            t - (z1 - z3) / (2 * ap1) - tau / (4 * ap1))


def xi_shift(tau, z1, z2, z3, t):
    return z1 + 0.5, z2 + 0.5, z3 - 0.5, t


# --- quadratic forms (exact) ----------------------------------------------

def _qform(coeffs) -> tuple:
    """Symmetric 3x3 rational matrix of sum c_i v_i with v = (z1,z2,z3):
    represented by the 6-tuple of entries (11, 22, 33, 12, 13, 23)."""
    c1, c2, c3 = coeffs
    return (c1 * c1, c2 * c2, c3 * c3, c1 * c2, c1 * c3, c2 * c3)


def _qadd(a, b, sa=1, sb=1):
    return tuple(sa * x + sb * y for x, y in zip(a, b))


def quadratic_forms(params: D21Params) -> list:
    """The four expressions for (K/n)(z|z) as exact quadratic forms, plus
    the reference form; all five must coincide entry-wise."""
    p, q = params.p, params.q
    a = params.a
    half = Fraction(p + q, 2)
    z1z3 = (Fraction(0),) * 4 + (Fraction(1, 2), Fraction(0))
    z1z2 = (Fraction(0),) * 3 + (Fraction(1, 2), Fraction(0), Fraction(0))

    def cross(i, j):
        m = [Fraction(0)] * 6
        key = {(1, 2): 3, (1, 3): 4, (2, 3): 5}[(min(i, j), max(i, j))]
        m[key] = Fraction(1, 2)
        return tuple(m)

    def scale(mat, c):
        return tuple(c * x for x in mat)

    e1 = _qadd(scale(_qform((1, -(a + 1), -a)), half), cross(1, 3), 1, -2 * p)
    # -2p z2(-z1+z2+z3) = 2p z1 z2 - 2p z2^2 - 2p z2 z3
    m2sq = (Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    e2 = _qadd(scale(_qform((1, a - 1, a)), half),
               _qadd(_qadd(scale(cross(1, 2), 2 * p), scale(m2sq, -2 * p)),
                     scale(cross(2, 3), -2 * p)))
    e3 = _qadd(scale(_qform((1, a + 1, a)), half), cross(1, 2), 1, -2 * q)
    m3sq = (Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    e4 = _qadd(scale(_qform((1, -(a + 1), -(a + 2))), half),
               _qadd(_qadd(scale(cross(1, 3), 2 * q), scale(m3sq, -2 * q)),
                     scale(cross(2, 3), -2 * q)))
    # (z|z) = (z2+z3)^2/2 + (z1-z2)^2/(2a) - (z1-z3)^2/(2(a+1))
    zz = _qadd(_qadd(scale(_qform((0, 1, 1)), Fraction(1, 2)),
                     scale(_qform((1, -1, 0)), Fraction(1, 2) / a)),
               scale(_qform((1, 0, -1)), -Fraction(1, 2) / (a + 1)))
    ref = scale(zz, Fraction(-p * q, p + q))
    return [e1, e2, e3, e4, ref]


def zz_value(params: D21Params, z1, z2, z3):
    a = params.a
    return ((z2 + z3) ** 2 / 2 + (z1 - z2) ** 2 / (2 * a)
            - (z1 - z3) ** 2 / (2 * (a + 1)))


# --- P and Q numerator functions ------------------------------------------

def _theta_products(which: str, j: int, params: D21Params, tau, z1, z2, z3, t,
                    f1, f2, policy: TruncationPolicy):
    """(pref Theta_{j,n(p+q)}(u+) f1, pref Theta_{-j,n(p+q)}(u-) f2) with
    pref = e^{2 pi i K t} and u+- the P (resp. Q) theta arguments."""
    a = params.a
    if which == "P":
        u_pos, u_neg = z1 - (a + 1) * z2 - a * z3, z1 + (a - 1) * z2 + a * z3
    else:
        u_pos, u_neg = z1 + (a + 1) * z2 + a * z3, z1 - (a + 1) * z2 - (a + 2) * z3
    big = params.n * (params.p + params.q)
    pref = e2pi(params.K * t)
    return (pref * theta_jm(ThetaIndex.of(j, big), tau, u_pos, 0.0, policy) * f1,
            pref * theta_jm(ThetaIndex.of(-j, big), tau, u_neg, 0.0, policy) * f2)


def PQ_terms(which: str, j: int, params: D21Params, tau, z1, z2, z3, t=0.0,
             variant: str = "minus", policy: TruncationPolicy = DEFAULT_POLICY):
    """The two theta-times-modification products whose sum is P_j / Q_j.

    The minus variant is the defining combination; plus shifts by xi, the
    twisted ones compose with the twist map.  Exposing the two terms lets
    callers estimate the cancellation (the terms grow exponentially under
    tau-direction shifts while their sum stays bounded).
    """
    if variant == "plus":
        return PQ_terms(which, j, params, tau, *xi_shift(tau, z1, z2, z3, t),
                        "minus", policy)
    if variant in ("minus_tw", "plus_tw"):
        pt = twist_point(params, tau, z1, z2, z3, t)
        base = "minus" if variant == "minus_tw" else "plus"
        return PQ_terms(which, j, params, tau, *pt, base, policy)
    deg = params.n * (params.p if which == "P" else params.q)
    idx = MockIndex.of(deg, 0)
    f1 = phi_tilde(idx, tau, z1, -z3 if which == "P" else -z2, 0.0, policy)
    f2 = phi_tilde(idx, tau, -z1 + z2 + z3, -z2 if which == "P" else -z3, 0.0, policy)
    return _theta_products(which, j, params, tau, z1, z2, z3, t, f1, f2, policy)


def PQ_function(which: str, j: int, params: D21Params, tau, z1, z2, z3, t=0.0,
                variant: str = "minus", policy: TruncationPolicy = DEFAULT_POLICY):
    """P_j / Q_j and their sector variants."""
    t1, t2 = PQ_terms(which, j, params, tau, z1, z2, z3, t, variant, policy)
    return t1 + t2


def modified_supercharacter_numerator(w: D21Weight, tau, z1, z2, z3, t=0.0,
                                      flavor: str = "P",
                                      policy: TruncationPolicy = DEFAULT_POLICY):
    """Case assembly of R-hat^- ch~^-[P or Q] from the index tables."""
    p, q, n = w.params.p, w.params.q, w.params.n
    m2, m3 = w.m2, w.m3
    if flavor == "P":
        base = {1: (m2 - m3, 1), 0: (m3 - m2 - 2 * n * p, -1),
                2: (-m2 - m3 - 2, -1), 3: (m2 + m3 + 2, -1)}[w.j]
        refl = 2 * n * p
    else:
        base = {1: (m3 - m2, 1), 0: (m2 - m3 - 2 * n * q, -1),
                2: (m2 + m3 + 2, -1), 3: (-m2 - m3 - 2, -1)}[w.j]
        refl = 2 * n * q
    idx, sgn = base
    flags = integrability_tests(w)
    fn = lambda i: PQ_function(flavor, i, w.params, tau, z1, z2, z3, t, "minus", policy)
    if flags["theta_integrable"]:
        return sgn * (fn(idx) + fn(-idx)) / 2
    if flags["alpha0_integrable"]:
        return sgn * (fn(idx) + fn(-idx - refl)) / 2
    return sgn * fn(idx)


def modified_supercharacter(w: D21Weight, tau, z1, z2, z3, t=0.0, flavor: str = "P",
                            policy: TruncationPolicy = DEFAULT_POLICY):
    num = modified_supercharacter_numerator(w, tau, z1, z2, z3, t, flavor, policy)
    return num / rhat(tau, z1, z2, z3, t, 0, 0, policy)


# --- denominators ----------------------------------------------------------

def rhat(tau, z1, z2, z3, t=0.0, eps=0, eps_prime=0,
         policy: TruncationPolicy = DEFAULT_POLICY):
    """Normalized affine (super)denominators in the four sectors."""
    eps, eps_prime = HalfInt.of(eps), HalfInt.of(eps_prime)
    a, b = _eps_theta(eps, eps_prime)
    sgn = -1.0 if (eps.twice and eps_prime.twice) else 1.0
    num = (dedekind_eta(tau, policy) ** 4
           * jacobi_theta(1, 1, tau, z1 - z2, policy)
           * jacobi_theta(1, 1, tau, z1 - z3, policy)
           * jacobi_theta(1, 1, tau, z2 + z3, policy))
    den = 1.0 + 0.0j
    for u in (z1, z2, z3, z1 - z2 - z3):
        den *= jacobi_theta(a, b, tau, u, policy)
    return -sgn * 1j * num / den


def b4_denominator(tau, y2, y3, eps, eps_prime,
                   policy: TruncationPolicy = DEFAULT_POLICY):
    """Big N=4 superconformal denominators.

    Carries a uniform constant -1 relative to the bare eta-theta quotient,
    pinned by the collapsing-level identities at q = n = 1 (the reduced
    characters must equal the positive-coefficient degree-(p+1) theta
    quotients)."""
    a, b = _eps_theta(HalfInt.of(eps), HalfInt.of(eps_prime))
    return -(dedekind_eta(tau, policy) ** 3
             * jacobi_theta(1, 1, tau, y2, policy) * jacobi_theta(1, 1, tau, y3, policy)
             / (jacobi_theta(a, b, tau, (y2 + y3) / 2, policy)
                * jacobi_theta(a, b, tau, (y2 - y3) / 2, policy)))


def hr_point(tau, y2, y3):
    return ((tau + y2 + y3) / 2, (tau - y2 + y3) / 2, (tau + y2 - y3) / 2, tau / 4)


# --- F/G basis and the reduced characters ----------------------------------

def FG_function(which: str, j: int, params: D21Params, eps, eps_prime, tau, y2, y3,
                policy: TruncationPolicy = DEFAULT_POLICY):
    """F_j / G_j: degree n(p+q) theta difference times the scale-one wrapped
    modification of degree np (resp. nq)."""
    p, q, n = params.p, params.q, params.n
    big = n * (p + q)
    deg = n * p if which == "F" else n * q
    eps, eps_prime = HalfInt.of(eps), HalfInt.of(eps_prime)
    pidx = PsiIndex.of(1, deg, 0, eps, eps_prime, -eps_prime)
    y = y2 if which == "F" else y3
    tdiff = (theta_jm(ThetaIndex.of(j, big), tau, y, 0.0, policy)
             - theta_jm(ThetaIndex.of(-j, big), tau, y, 0.0, policy))
    if tdiff == 0:
        return 0.0 + 0.0j
    second = (y3 - y2) / 2 if which == "F" else (y2 - y3) / 2
    return tdiff * psi_tilde(pidx, tau, (y2 + y3) / 2, second, 0.0, policy)


def fg_terms(which: str, j: int, params: D21Params, eps, eps_prime, tau,
             z1, z2, z3, t=0.0, policy: TruncationPolicy = DEFAULT_POLICY):
    """The two products whose difference is the five-coordinate f_j / g_j."""
    deg = params.n * (params.p if which == "f" else params.q)
    eps, eps_prime = HalfInt.of(eps), HalfInt.of(eps_prime)
    pidx = PsiIndex.of(1, deg, 0, eps, eps_prime, -eps_prime)
    f1 = psi_tilde(pidx, tau, z1, -z3 if which == "f" else -z2, 0.0, policy)
    f2 = psi_tilde(pidx, tau, z1 - z2 - z3, z2 if which == "f" else z3, 0.0, policy)
    t1, t2 = _theta_products("P" if which == "f" else "Q", j, params, tau, z1, z2, z3, t,
                             f1, f2, policy)
    return t1, -t2


def fg_lower(which: str, j: int, params: D21Params, eps, eps_prime, tau,
             z1, z2, z3, t=0.0, policy: TruncationPolicy = DEFAULT_POLICY):
    """The five-coordinate f_j / g_j functions whose Hamiltonian reduction
    gives F / G with shifted index."""
    t1, t2 = fg_terms(which, j, params, eps, eps_prime, tau, z1, z2, z3, t, policy)
    return t1 + t2


def big_n4_qhr(w: D21Weight, tau, y2, y3, sector: str = "minus", flavor: str = "P",
               policy: TruncationPolicy = DEFAULT_POLICY):
    """Reduced big N=4 (super)characters for the j=1 weights with m2 = 0 or
    m3 = 0, via the single F/G-term table."""
    if w.j != 1 or (w.m2 != 0 and w.m3 != 0):
        raise UnsupportedCaseError(
            "single-term reduced characters exist for the j=1, m2*m3=0 weights")
    m0 = level_zero_label(w)
    if m0.denominator == 1 and m0 >= 0:
        return 0.0 + 0.0j
    p, q, n = w.params.p, w.params.q, w.params.n
    m2, m3 = w.m2, w.m3
    prime = w.m3 == 0 and w.m2 > 0  # the Lambda' column
    if flavor == "P":
        j = n * p + m2 if prime else n * p - m3
        table = {
            "minus": (("F", 0, Fraction(1, 2)), 1.0),
            "plus": (("F", Fraction(1, 2), Fraction(1, 2)),
                     -1.0 if prime else -((-1.0) ** m3)),
            "minus_tw": (("F", 0, 0), -1.0),
            "plus_tw": (("F", Fraction(1, 2), 0),
                        1.0 if prime else ((-1.0) ** m3)),
        }
    else:
        jn = {"minus": n * q - m2 if prime else n * q + m3,
              "plus": n * q - m2 if prime else n * q + m3,
              "minus_tw": n * p + m2 if prime else n * p - m3,
              "plus_tw": n * p + m2 if prime else n * p - m3}
        # the twisted-plus rows carry no (-1)^{np} factor; the collapsing
        # identities at q = n = 1 fix the constant
        table = {
            "minus": (("G", 0, Fraction(1, 2)), 1.0),
            "plus": (("G", Fraction(1, 2), Fraction(1, 2)),
                     -((-1.0) ** m2) if prime else -1.0),
            "minus_tw": (("G", 0, 0), 1.0),
            "plus_tw": (("G", Fraction(1, 2), 0),
                        -((-1.0) ** m2) if prime else -1.0),
        }
        j = jn[sector]
    (which, eps, eps_prime), sign = table[sector]
    num = sign * FG_function(which, j, w.params, eps, eps_prime, tau, y2, y3, policy)
    qe, qep = _QHR_EPS[sector]
    return num / b4_denominator(tau, y2, y3, qe, qep, policy)


def qhr_characteristics(w: D21Weight) -> dict:
    p, q, n = w.params.p, w.params.q, w.params.n
    m2, m3 = Fraction(w.m2), Fraction(w.m3)
    big = 4 * n * (p + q)
    c = Fraction(6 * n * p * q, p + q) - 3
    base_tw = Fraction(n * p * q, 4 * (p + q))
    if w.j in (0, 1):
        sq = (m2 - m3 + n * p) ** 2
        h = sq / big + m3 / 2 - Fraction(n * p * p, 4 * (p + q))
        h_tw = sq / big + base_tw - Fraction(1, 4)
    elif w.j == 2:
        sq = (m2 + m3 + 2 - n * p) ** 2
        h = sq / big + m3 / 2 - Fraction(n * p * p, 4 * (p + q))
        h_tw = sq / big + base_tw - Fraction(1, 4)
    else:
        sq = (m2 + m3 + 2 + n * p) ** 2
        h = sq / big - m3 / 2 - Fraction(n * p * p, 4 * (p + q)) - 1
        h_tw = sq / big + base_tw - m3 - Fraction(5, 4)
    m0 = level_zero_label(w)
    return {"c": c, "h": h, "h_tw": h_tw,
            "s2": m2 / 2, "s3": m3 / 2,
            "s2_tw": m2 / 2, "s3_tw": Fraction(n * p - 1, 1) / 2 - m3 / 2,
            "vanishes": m0.denominator == 1 and m0 >= 0}


# --- boundary case q = n = 1 ------------------------------------------------

def boundary_g(params: D21Params, j: int, eps, eps_prime, tau, z1, z2, z3, t=0.0,
               policy: TruncationPolicy = DEFAULT_POLICY):
    """g_j for q = n = 1, where the wrapper needs no modification."""
    if params.q != 1 or params.n != 1:
        raise UnsupportedCaseError("boundary formulas need q = n = 1")
    return fg_lower("g", j, params, eps, eps_prime, tau, z1, z2, z3, t, policy)


def boundary_case_label(w: D21Weight):
    """(j mod 2(p+1), sign) with ch^- = sign * g_j / R-hat."""
    p = w.params.p
    if w.j == 0:
        return (-w.m3 - 2) % (2 * (p + 1)), -1.0
    if (w.m2, w.m3) == (1, 0):
        return (2 * p + 1), 1.0
    return w.m3 % (2 * (p + 1)), 1.0


def boundary_case_characters(w: D21Weight, tau, z1, z2, z3, t=0.0,
                             sector: str = "minus",
                             policy: TruncationPolicy = DEFAULT_POLICY):
    """(Super)characters of the integrable boundary-case modules."""
    params = w.params
    p = params.p
    if params.q != 1 or params.n != 1:
        raise UnsupportedCaseError("boundary formulas need q = n = 1")
    if w.j not in (0, 1):
        raise UnsupportedCaseError("boundary families are empty for j = 2, 3")
    s = w.m3
    eps = Fraction(1, 2) if sector.startswith("plus") else Fraction(0)
    twisted = sector.endswith("_tw")
    epsp = Fraction(1, 2) if twisted else Fraction(0)
    if w.j == 0:
        jg = (p - 1 - s) if twisted else (-s - 2)
        sign = 1.0 if twisted else -1.0
        if sector.startswith("plus"):
            sign = -sign
    elif (w.m2, w.m3) == (1, 0):
        jg = p if twisted else -1
        sign = -1.0 if twisted else 1.0
        if sector.startswith("plus"):
            sign = -sign
    else:
        jg = (s + p + 1) if twisted else s
        sign = -1.0 if twisted else 1.0
        if sector.startswith("plus"):
            sign = -sign
    if twisted and eps == Fraction(1, 2) and p % 2:
        sign = -sign
    num = sign * boundary_g(params, jg, eps, epsp, tau, z1, z2, z3, t, policy)
    return num / rhat(tau, z1, z2, z3, t, eps, epsp, policy)


def s_matrix_and_fusion(p: int) -> dict:
    """The 2p+2 boundary labels with their S-matrix, T phases, and the
    combinatorial fusion rule N_{ijk} = 1 iff i+j+k = 0 mod 2(p+1)."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    params = D21Params(p, 1, 1)
    labels = ([D21Weight(params, 0, 0, s) for s in range(p)]
              + [D21Weight(params, 1, 0, s) for s in range(p + 1)]
              + [D21Weight(params, 1, 1, 0)])
    N = 2 * p + 2
    root = 1.0 / math.sqrt(2.0 * (p + 1))

    def signed_residue(w):
        """(signed index j with ch^- = sign * g_j / R-hat, row sign)."""
        if w.j == 0:
            return -(w.m3 + 2), 1.0
        if (w.m2, w.m3) == (1, 0):
            return -1, -1.0
        return w.m3, -1.0

    data = [signed_residue(w) for w in labels]
    S = [[root * data[i][1] * data[k][1]
          * e2pi(Fraction(-data[i][0] * data[k][0], 2 * (p + 1)))
          for k in range(N)] for i in range(N)]
    T = [e2pi(Fraction(j * j, 4 * (p + 1)) - Fraction(1, 24)) for j, _ in data]
    js = [boundary_case_label(w)[0] for w in labels]

    def fusion(i, j, k):
        return 1 if (js[i] + js[j] + js[k]) % (2 * (p + 1)) == 0 else 0

    return {"labels": [w.label() for w in labels], "weights": labels,
            "S": S, "T": T, "j_residues": js, "fusion": fusion}
