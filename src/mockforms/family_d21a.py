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
from fractions import Fraction
from functools import cached_property

from .qkernel import (
    DEFAULT_POLICY,
    TruncationPolicy,
    UnsupportedCaseError,
    _record,
    e2pi,
    int_of,
)
from .theta import ThetaIndex
from .mock import MockIndex, PsiIndex
from .family_n4 import SECTORS, Sector
from . import modification as md, theta as th


@_record
class D21Params:
    """(p, q, n), with a = -p/(p+q) and the level K.  What the functions
    derive from them exactly is formed on first use and kept here; a
    Fraction constant F is kept as float(F), since F * x and x / F are
    float(F) * x and x / float(F) to the bit for a float or complex x."""

    p: int
    q: int
    n: int

    def __post_init__(self):
        for f in ("p", "q", "n"):
            object.__setattr__(self, f, int_of(getattr(self, f)))
        if not (self.p >= self.q >= 1 and self.n >= 1):
            raise ValueError("need p >= q >= 1 and n >= 1")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("p and q must be coprime")

    @cached_property
    def a(self) -> Fraction:
        return Fraction(-self.p, self.p + self.q)

    @cached_property
    def K(self) -> Fraction:
        return Fraction(-self.p * self.q * self.n, self.p + self.q)

    @cached_property
    def _floats(self) -> tuple:
        """(a, a + 1, a - 1, a + 2, K, 2(a + 1), 4(a + 1)) as floats, each the
        quotient of an int by p + q"""
        p, q = self.p, self.q
        return tuple(x / (p + q) for x in (-p, q, -2 * p - q, p + 2 * q, -p * q * self.n,
                                           2 * q, 4 * q))

    @cached_property
    def _zz(self) -> tuple:
        """((2a, 2(a + 1)), the same as floats): zz_value's divisors for
        exact arguments, and for any others"""
        exact = (2 * self.a, 2 * (self.a + 1))
        return exact, tuple(map(float, exact))


@_record
class D21Weight:
    params: D21Params
    j: int            # which isotropic root annihilates Lambda + rho
    m2: int
    m3: int

    def __post_init__(self):
        for f in ("j", "m2", "m3"):
            object.__setattr__(self, f, int_of(getattr(self, f)))
        p, q, n = self.params.p, self.params.q, self.params.n
        if self.j not in (0, 1, 2, 3):
            raise ValueError("j must be 0..3")
        ok = {
            0: 0 <= self.m2 <= n * q - 1 and 0 <= self.m3 <= n * p - 1,
            1: (0 <= self.m2 <= n * q - 1 and 0 <= self.m3 <= n * p - 1)
               or (self.m2, self.m3) == (n * q, 0) or (self.m2, self.m3) == (0, n * p),
            2: 0 <= self.m2 <= n * q - 2 and 0 <= self.m3 <= n * p - 2,    # and j = 3
        }[min(self.j, 2)]
        if not ok:
            raise ValueError("(m2, m3) outside the weight range")

    def label(self) -> str:
        pr = self.params
        return f"d21a:p={pr.p}:q={pr.q}:n={pr.n}:j={self.j}:m2={self.m2}:m3={self.m3}"

    # The index tables of the functions of a weight, formed on first use.

    @cached_property
    def _pq_terms(self) -> dict:
        """{flavor: (sign, first, second)} of modified_supercharacter_numerator;
        second is None for a single term"""
        p, q, n = self.params.p, self.params.q, self.params.n
        m2, m3 = self.m2, self.m3
        flags = integrability_tests(self)
        out = {}
        for flavor, base, refl in (
                ("P", {1: (m2 - m3, 1), 0: (m3 - m2 - 2 * n * p, -1),
                       2: (-m2 - m3 - 2, -1), 3: (m2 + m3 + 2, -1)}, 2 * n * p),
                ("Q", {1: (m3 - m2, 1), 0: (m2 - m3 - 2 * n * q, -1),
                       2: (m2 + m3 + 2, -1), 3: (-m2 - m3 - 2, -1)}, 2 * n * q)):
            j, sgn = base[self.j]
            second = (-j if flags["theta_integrable"]
                      else -j - refl if flags["alpha0_integrable"] else None)
            out[flavor] = (sgn, D21Index.of(flavor, j, self.params),
                           None if second is None else D21Index.of(flavor, second, self.params))
        return out

    @cached_property
    def _fg_terms(self):
        """None for a vanishing module, else {(sector, flavor): (sign, F or G
        index)} of big_n4_qhr (for the j = 1 weights with m2 m3 = 0)"""
        m0 = level_zero_label(self)
        if m0.denominator == 1 and m0 >= 0:
            return None
        p, q, n = self.params.p, self.params.q, self.params.n
        m2, m3 = self.m2, self.m3
        prime = m3 == 0 and m2 > 0  # the Lambda' column
        jf = n * p + m2 if prime else n * p - m3
        jg = n * q - m2 if prime else n * q + m3
        # the sign of each flavor, keyed by the (plus, twisted) of the sector
        pm = 1.0 if prime else (-1.0) ** m3
        qm = (-1.0) ** m2 if prime else 1.0
        signs = {"P": {(0, 0): 1.0, (1, 0): -pm, (0, 1): -1.0, (1, 1): pm},
                 # the twisted-plus rows carry no (-1)^{np} factor; the
                 # collapsing identities at q = n = 1 fix the constant
                 "Q": {(0, 0): 1.0, (1, 0): -qm, (0, 1): 1.0, (1, 1): -qm}}
        out = {}
        for sec in SECTORS.values():
            plus, twisted = sec.eps.twice, 1 - sec.eps_prime.twice
            out[sec, "P"] = (signs["P"][plus, twisted], D21Index.of("F", jf, self.params, sec))
            out[sec, "Q"] = (signs["Q"][plus, twisted],
                             D21Index.of("G", jf if twisted else jg, self.params, sec))
        return out

    @cached_property
    def _boundary_terms(self) -> dict:
        """{sector: (sign, g index)} of boundary_case_characters"""
        p = self.params.p
        j0, sign0 = _boundary_index(self)
        out = {}
        for sec in SECTORS.values():
            plus, twisted = sec.eps.twice, 1 - sec.eps_prime.twice
            # a twisted sector shifts j by p + 1; a flip each for plus, for
            # twisted, and for twisted plus at odd p
            sign = sign0 * (-1.0) ** (plus + twisted + plus * twisted * p)
            # g and R-hat take the affine sector
            out[sec] = (sign, D21Index.of("g", j0 + (p + 1) * twisted, self.params, sec.affine))
        return out


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
    else:
        d = _j2_difference(w)
        theta_int = d >= 0 and d % (p + q) == 0
    alpha0_int = w.j == 1 and ((m2 == 0 and m3 == n * p) or (m3 == 0 and m2 == n * q))
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
    return Fraction(-_j2_difference(w) - n * p * q, p + q) - 1


def _j2_difference(w: D21Weight) -> int:
    """p(m2 + 1) - q(m3 + 1) at j = 2: j = 3 is j = 2 with it negated."""
    d = w.params.p * (w.m2 + 1) - w.params.q * (w.m3 + 1)
    return d if w.j == 2 else -d


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
    *_, two_ap1, four_ap1 = params._floats   # a + 1 = q/(p+q)
    return (z3 - tau / 2, -z1 + z2 + z3 - tau / 2, z1 + tau / 2,
            t - (z1 - z3) / two_ap1 - tau / four_ap1)


def xi_shift(tau, z1, z2, z3, t):
    return z1 + 0.5, z2 + 0.5, z3 - 0.5, t


# --- quadratic forms (exact) ----------------------------------------------

def quadratic_forms(params: D21Params) -> list:
    """The four expressions for (K/n)(z|z) as exact quadratic forms, plus
    the reference form; all five must coincide entry-wise.  Each form is the
    6-tuple (11, 22, 33, 12, 13, 23) of its symmetric matrix, read off by
    polarization."""
    p, q, a = params.p, params.q, params.a
    half = Fraction(p + q, 2)
    forms = (
        lambda z1, z2, z3: half * (z1 - (a + 1) * z2 - a * z3) ** 2 - 2 * p * z1 * z3,
        lambda z1, z2, z3: (half * (z1 + (a - 1) * z2 + a * z3) ** 2
                            - 2 * p * z2 * (-z1 + z2 + z3)),
        lambda z1, z2, z3: half * (z1 + (a + 1) * z2 + a * z3) ** 2 - 2 * q * z1 * z2,
        lambda z1, z2, z3: (half * (z1 - (a + 1) * z2 - (a + 2) * z3) ** 2
                            - 2 * q * z3 * (-z1 + z2 + z3)),
        lambda z1, z2, z3: Fraction(-p * q, p + q) * zz_value(params, z1, z2, z3),
    )
    # Fraction unit vectors keep zz_value's division by 2 exact
    units = [tuple(Fraction(int(i == k)) for k in range(3)) for i in range(3)]

    def entries(f):
        diag = [f(*e) for e in units]
        cross = [(f(*(x + y for x, y in zip(units[i], units[k]))) - diag[i] - diag[k]) / 2
                 for i, k in ((0, 1), (0, 2), (1, 2))]
        return tuple(diag + cross)

    return [entries(f) for f in forms]


_EXACT = (int, Fraction)


def zz_value(params: D21Params, z1, z2, z3):
    """(z|z) = (z2 + z3)^2/2 + (z1 - z2)^2/2a - (z1 - z3)^2/2(a + 1).  An exact
    (int or Fraction) square is divided by the Fraction 2a or 2(a + 1), any
    other by its float, which gives the bits of dividing by the Fraction."""
    (two_a, two_ap1), (f_a, f_ap1) = params._zz
    u, w = (z1 - z2) ** 2, (z1 - z3) ** 2
    return ((z2 + z3) ** 2 / 2 + u / (two_a if isinstance(u, _EXACT) else f_a)
            - w / (two_ap1 if isinstance(w, _EXACT) else f_ap1))


# --- P and Q numerator functions ------------------------------------------

@_record
class D21Index:
    """Index of the numerator functions: the letter (P or Q of PQ_function,
    f or g of fg_lower, F or G of FG_function), j, the parameters, and the
    sector (eps, eps') of f, g, F and G.  The theta and modification indices
    a function derives from it are formed on first use and kept here."""

    which: str
    j: int
    params: D21Params
    sector: Sector

    @staticmethod
    def of(which: str, j, params: D21Params, sector: Sector = Sector.of(0, 0)) -> "D21Index":
        if which not in ("P", "Q", "f", "g", "F", "G"):
            raise ValueError(f"unknown numerator function {which!r}")
        return D21Index(which, int_of(j), params, sector)

    @cached_property
    def _thetas(self) -> tuple:
        """(Theta_{j,n(p+q)}, Theta_{-j,n(p+q)}) indices"""
        pr = self.params
        big = pr.n * (pr.p + pr.q)
        return ThetaIndex.of(self.j, big), ThetaIndex.of(-self.j, big)

    @cached_property
    def _inner(self):
        """the degree np (P, f, F) or nq (Q, g, G) modification index of
        PQ_function, or the scale-one wrapper index of fg_lower and FG_function"""
        pr = self.params
        deg = pr.n * (pr.p if self.which in "PfF" else pr.q)
        if self.which in "PQ":
            return MockIndex.of(deg, 0)
        sec = self.sector
        return PsiIndex.of(1, deg, 0, sec.eps, sec.eps_prime, -sec.eps_prime)


def _theta_products(idx: D21Index, tau, z1, z2, z3, t, f1, f2, policy: TruncationPolicy):
    """(pref Theta_{j,n(p+q)}(u+) f1, pref Theta_{-j,n(p+q)}(u-) f2) with
    pref = e^{2 pi i K t} and u+- the P (resp. Q) theta arguments: those of
    P for the letters P and f, of Q for Q and g."""
    a, ap1, am1, ap2, K, *_ = idx.params._floats
    if idx.which in "Pf":
        u_pos, u_neg = z1 - ap1 * z2 - a * z3, z1 + am1 * z2 + a * z3
    else:
        u_pos, u_neg = z1 + ap1 * z2 + a * z3, z1 - ap1 * z2 - ap2 * z3
    pref = e2pi(K * t)
    x_pos, x_neg = idx._thetas
    return (pref * th.theta_jm(x_pos, tau, u_pos, 0.0, policy) * f1,
            pref * th.theta_jm(x_neg, tau, u_neg, 0.0, policy) * f2)


def _check_letter(idx: D21Index, letters: tuple):
    if idx.which not in letters:
        raise ValueError(f"a {idx.which} index is not one of {letters}")


def PQ_function(idx: D21Index, tau, z1, z2, z3, t=0.0, sector: Sector = SECTORS["minus"],
                policy: TruncationPolicy = DEFAULT_POLICY):
    """P_j / Q_j (idx.which P or Q) and their sector variants: the sum of
    two theta-times-modification products.

    The minus sector is the defining combination; a twisted sector first
    moves the point by the twist map, and a plus sector then shifts it by xi.
    """
    _check_letter(idx, ("P", "Q"))
    if not sector.eps_prime.twice:
        z1, z2, z3, t = twist_point(idx.params, tau, z1, z2, z3, t)
    if sector.eps.twice:
        z1, z2, z3, t = xi_shift(tau, z1, z2, z3, t)
    P = idx.which == "P"
    f1 = md.phi_tilde(idx._inner, tau, z1, -z3 if P else -z2, 0.0, policy)
    f2 = md.phi_tilde(idx._inner, tau, -z1 + z2 + z3, -z2 if P else -z3, 0.0, policy)
    t1, t2 = _theta_products(idx, tau, z1, z2, z3, t, f1, f2, policy)
    return t1 + t2


def modified_supercharacter_numerator(w: D21Weight, tau, z1, z2, z3, t=0.0,
                                      flavor: str = "P",
                                      policy: TruncationPolicy = DEFAULT_POLICY):
    """Case assembly of R-hat^- ch~^-[P or Q] from the index tables, formed
    once per weight."""
    if flavor not in ("P", "Q"):
        raise ValueError(f"unknown flavor {flavor}")
    sgn, first, second = w._pq_terms[flavor]
    fn = lambda x: PQ_function(x, tau, z1, z2, z3, t, policy=policy)
    if second is None:
        return sgn * fn(first)
    return sgn * (fn(first) + fn(second)) / 2


# --- denominators ----------------------------------------------------------

def rhat(tau, z1, z2, z3, sector: Sector, policy: TruncationPolicy = DEFAULT_POLICY):
    """Normalized affine (super)denominators in the four sectors; one that
    underflows to 0 raises DomainError."""
    a, b = sector.a, sector.b
    c = 1j if (sector.eps.twice and sector.eps_prime.twice) else -1j
    num = ((1, 4), (1, 1, z1 - z2, 1), (1, 1, z1 - z3, 1), (1, 1, z2 + z3, 1))
    den = ((a, b, z1, 1), (a, b, z2, 1), (a, b, z3, 1), (a, b, z1 - z2 - z3, 1))
    return th._nonzero(th.eta_theta_quotient(tau, c, num, den, policy))


def b4_denominator(tau, y2, y3, sector: Sector, policy: TruncationPolicy = DEFAULT_POLICY):
    """Big N=4 superconformal denominators.

    Carries a uniform constant -1 relative to the bare eta-theta quotient,
    pinned by the collapsing-level identities at q = n = 1 (the reduced
    characters must equal the positive-coefficient degree-(p+1) theta
    quotients).  A denominator that underflows to 0 raises DomainError."""
    a, b = sector.a, sector.b
    return th._nonzero(th.eta_theta_quotient(
        tau, -1.0, ((1, 3), (1, 1, y2, 1), (1, 1, y3, 1)),
        ((a, b, (y2 + y3) / 2, 1), (a, b, (y2 - y3) / 2, 1)), policy))


def hr_point(tau, y2, y3):
    return ((tau + y2 + y3) / 2, (tau - y2 + y3) / 2, (tau + y2 - y3) / 2, tau / 4)


# --- F/G basis and the reduced characters ----------------------------------

def FG_function(idx: D21Index, tau, y2, y3, policy: TruncationPolicy = DEFAULT_POLICY):
    """F_j / G_j (idx.which F or G): degree n(p+q) theta difference times the
    scale-one wrapped modification of degree np (resp. nq)."""
    _check_letter(idx, ("F", "G"))
    F = idx.which == "F"
    # Theta_{j,n(p+q)} - Theta_{-j,n(p+q)}
    tdiff = -th.theta_pair_diff(idx._thetas[0], tau, y2 if F else y3, policy)
    if tdiff == 0:
        return 0.0 + 0.0j
    second = (y3 - y2) / 2 if F else (y2 - y3) / 2
    return tdiff * md.psi_tilde(idx._inner, tau, (y2 + y3) / 2, second, 0.0, policy)


def fg_lower(idx: D21Index, tau, z1, z2, z3, t=0.0, policy: TruncationPolicy = DEFAULT_POLICY):
    """The five-coordinate f_j / g_j functions (idx.which f or g) whose
    Hamiltonian reduction gives F / G with shifted index: the difference of
    two products."""
    _check_letter(idx, ("f", "g"))
    f = idx.which == "f"
    f1 = md.psi_tilde(idx._inner, tau, z1, -z3 if f else -z2, 0.0, policy)
    f2 = md.psi_tilde(idx._inner, tau, z1 - z2 - z3, z2 if f else z3, 0.0, policy)
    t1, t2 = _theta_products(idx, tau, z1, z2, z3, t, f1, f2, policy)
    return t1 - t2


def big_n4_qhr(w: D21Weight, tau, y2, y3, sector: Sector = SECTORS["minus"],
               flavor: str = "P", policy: TruncationPolicy = DEFAULT_POLICY):
    """Reduced big N=4 (super)characters for the j=1 weights with m2 = 0 or
    m3 = 0, via the single F/G-term table, formed once per weight.  The F/G
    term and the denominator both carry the sector."""
    if flavor not in ("P", "Q"):
        raise ValueError(f"unknown flavor {flavor}")
    if w.j != 1 or (w.m2 != 0 and w.m3 != 0):
        raise UnsupportedCaseError(
            "single-term reduced characters exist for the j=1, m2*m3=0 weights")
    terms = w._fg_terms
    if terms is None:
        return 0.0 + 0.0j
    sign, idx = terms[sector, flavor]
    num = sign * FG_function(idx, tau, y2, y3, policy)
    return num / b4_denominator(tau, y2, y3, idx.sector, policy)


def qhr_characteristics(w: D21Weight) -> dict:
    p, q, n = w.params.p, w.params.q, w.params.n
    m2, m3 = Fraction(w.m2), Fraction(w.m3)
    big = 4 * n * (p + q)
    c = Fraction(6 * n * p * q, p + q) - 3
    base_tw = Fraction(n * p * q, 4 * (p + q))
    if w.j in (0, 1):
        sq = (m2 - m3 + n * p) ** 2
    else:
        sq = (m2 + m3 + 2 + (n * p if w.j == 3 else -n * p)) ** 2
    h = sq / big + m3 / 2 - Fraction(n * p * p, 4 * (p + q))
    h_tw = sq / big + base_tw - Fraction(1, 4)
    if w.j == 3:     # j = 2 with n p negated, both energies lowered by m3 + 1
        h, h_tw = h - m3 - 1, h_tw - m3 - 1
    m0 = level_zero_label(w)
    return {"c": c, "h": h, "h_tw": h_tw,
            "s2": m2 / 2, "s3": m3 / 2,
            "s2_tw": m2 / 2, "s3_tw": Fraction(n * p - 1, 1) / 2 - m3 / 2,
            "vanishes": m0.denominator == 1 and m0 >= 0}


# --- boundary case q = n = 1 ------------------------------------------------

def _boundary_index(w: D21Weight):
    """(j, sign) with ch^- = sign * g_j / R-hat, j not reduced."""
    if w.j == 0:
        return -w.m3 - 2, -1.0
    if (w.m2, w.m3) == (1, 0):
        return -1, 1.0
    return w.m3, 1.0


def boundary_case_characters(w: D21Weight, tau, z1, z2, z3, t=0.0,
                             sector: Sector = SECTORS["minus"],
                             policy: TruncationPolicy = DEFAULT_POLICY):
    """(Super)characters of the integrable boundary-case modules: the
    twisted sectors shift j by p+1 and flip the sign.  The g index and the
    sign of each sector are formed once per weight."""
    params = w.params
    if params.q != 1 or params.n != 1:
        raise UnsupportedCaseError("boundary formulas need q = n = 1")
    if w.j not in (0, 1):
        raise UnsupportedCaseError("boundary families are empty for j = 2, 3")
    sign, idx = w._boundary_terms[sector]
    num = sign * fg_lower(idx, tau, z1, z2, z3, t, policy)
    return num / rhat(tau, z1, z2, z3, idx.sector, policy)


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
    # every entry of S carries two signs, so S is the same if all of them flip
    data = [_boundary_index(w) for w in labels]
    # the phases are int quotients: j^2 / 4(p + 1) - 1/24 = (6 j^2 - p - 1) / 24(p + 1)
    S = [[root * data[i][1] * data[k][1]
          * e2pi(-data[i][0] * data[k][0] / (2 * (p + 1)))
          for k in range(N)] for i in range(N)]
    T = [e2pi((6 * j * j - p - 1) / (24 * (p + 1))) for j, _ in data]
    js = [j % (2 * (p + 1)) for j, _ in data]

    def fusion(i, j, k):
        return 1 if (js[i] + js[j] + js[k]) % (2 * (p + 1)) == 0 else 0

    return {"labels": [w.label() for w in labels], "weights": labels,
            "S": S, "T": T, "j_residues": js, "fusion": fusion}
