"""Exact formal q-series engine.

Laurent series in q^{1/D} and half-integer powers of zeta_i = e^{2 pi i z_i}
with Gaussian-rational coefficients, used to prove identities at finite
order by exact coefficient comparison.  Global phase prefactors (powers of
e^{2 pi i t}) are stripped by the callers before comparison.

The Appell expansions follow the annulus convention |q| < |zeta| < 1:
denominators 1 - w with w carrying positive q-power (or none and a positive
zeta power) expand geometrically in w; those with w "large" expand as
-w^{-1}/(1 - w^{-1}).  The j = 0 denominator of an Appell sum is a pure
zeta geometric series, so every series carries a zeta window `zmax` inside
which its coefficients are guaranteed exact; arithmetic tracks the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .qkernel import HalfInt, UnsupportedCaseError
from .theta import _JACOBI


@dataclass(frozen=True)
class GRat:
    """Gaussian rational a + b*i.  The parts are ints wherever they are
    integral and Fractions only where a value needs one (a half-integer d0
    weight, a caller's Fraction scalar); int and Fraction agree on ==, hash
    and str."""

    re: int | Fraction = 0
    im: int | Fraction = 0

    def __add__(self, o):
        return GRat(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return GRat(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return GRat(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    def __neg__(self):
        return GRat(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self):
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


GR_ZERO = GRat()
GR_ONE = GRat(1)
# i^k for k = 0..3, as exact coefficients and as int pairs
_PHASES = (GR_ONE, GRat(0, 1), GRat(-1), GRat(0, -1))
_UNIT = tuple((p.re, p.im) for p in _PHASES)


def _quarter_turns(n: int, d: int) -> int:
    """k in 0..3 with e^{2 pi i n/d} = i^k, for n/d in (1/4)Z."""
    k, rem = divmod(4 * n, d)
    if rem:
        raise UnsupportedCaseError(
            f"phase exponent {Fraction(n, d)} is not a quarter integer")
    return k % 4


def _check_coefficient(c):
    if not (isinstance(c, GRat) and isinstance(c.re, (int, Fraction))
            and isinstance(c.im, (int, Fraction))):
        raise TypeError(f"coefficient {c!r} is not a GRat with int or Fraction parts")


def _check_term(key, c):
    alpha, b1, b2 = key
    if not isinstance(alpha, (int, Fraction)):
        raise TypeError(f"q-exponent {alpha!r} is not an int or Fraction")
    if not (isinstance(b1, int) and isinstance(b2, int)):
        raise TypeError(f"zeta exponents ({b1!r}, {b2!r}) are not ints")
    _check_coefficient(c)


class FormalSeries:
    """terms: {(alpha, b1, b2): GRat} with alpha in Q (power of q) and
    b1, b2 integer *twice* the zeta exponents.  `order` bounds the stored
    q-exponents; `zmax` (also in twice units, None = unlimited) bounds the
    zeta window within which coefficients are exact.  Exponents and
    coefficient parts must be exact: a float raises TypeError."""

    __slots__ = ("terms", "order", "zmax")

    def __init__(self, terms=None, order=Fraction(10), zmax=None):
        self.terms = {}
        self.order = Fraction(order)
        self.zmax = zmax
        if terms:
            for k, c in terms.items():
                _check_term(k, c)
                if c and k[0] <= self.order:
                    self.terms[k] = c

    @staticmethod
    def constant(c=GR_ONE, order=Fraction(10)):
        return FormalSeries({(Fraction(0), 0, 0): c}, order)

    def zspan(self) -> int:
        return max((max(abs(b1), abs(b2)) for (_, b1, b2) in self.terms), default=0)

    def _add_term(self, key, c):
        if not c:
            return
        cur = self.terms.get(key)
        new = cur + c if cur is not None else c
        if new:
            self.terms[key] = new
        elif cur is not None:
            del self.terms[key]

    def __add__(self, other):
        order = min(self.order, other.order)
        zmax = _zmin(self.zmax, other.zmax)
        out = FormalSeries(None, order, zmax)
        for k, c in self.terms.items():
            if k[0] <= order:
                out._add_term(k, c)
        for k, c in other.terms.items():
            if k[0] <= order:
                out._add_term(k, c)
        return out

    def __neg__(self):
        out = FormalSeries(None, self.order, self.zmax)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: GRat):
        _check_coefficient(c)
        out = FormalSeries(None, self.order, self.zmax)
        if c:
            out.terms = {k: v * c for k, v in self.terms.items()}
        return out

    def __mul__(self, other):
        # q-exponents as integer numerators over the lcm of their denominators
        den = math.lcm(*{k[0].denominator for t in (self.terms, other.terms) for k in t})
        xs = [(a.numerator * (den // a.denominator), b1, b2, c.re, c.im)
              for (a, b1, b2), c in self.terms.items()]
        ys = [(a.numerator * (den // a.denominator), b1, b2, c.re, c.im)
              for (a, b1, b2), c in other.terms.items()]
        min_q_self = Fraction(min(x[0] for x in xs), den) if xs else Fraction(0)
        min_q_other = Fraction(min(y[0] for y in ys), den) if ys else Fraction(0)
        order = min(self.order + min_q_other, other.order + min_q_self)
        zmax = None
        cands = []
        if self.zmax is not None:
            cands.append(self.zmax - other.zspan())
        if other.zmax is not None:
            cands.append(other.zmax - self.zspan())
        if cands:
            zmax = min(cands)
        top = order.numerator * den // order.denominator
        acc = {}
        for a1, b1, c1, xr, xi in xs:
            lim = top - a1
            for a2, b2, c2, yr, yi in ys:
                if a2 <= lim:
                    key = (a1 + a2, b1 + b2, c1 + c2)
                    cur = acc.get(key)
                    if cur is None:
                        acc[key] = [xr * yr - xi * yi, xr * yi + xi * yr]
                    else:
                        cur[0] += xr * yr - xi * yi
                        cur[1] += xr * yi + xi * yr
        return _series(acc, den, order, zmax)

    def d0(self) -> "FormalSeries":
        """Termwise (1/2 pi i)(d/dz1 - d/dz2): multiplies each monomial by
        the difference of its zeta exponents."""
        out = FormalSeries(None, self.order, self.zmax)
        for (a, b1, b2), c in self.terms.items():
            w, odd = divmod(b1 - b2, 2)
            w = Fraction(b1 - b2, 2) if odd else w
            if w:
                out.terms[(a, b1, b2)] = GRat(c.re * w, c.im * w)
        return out

    def eval_at(self, tau: complex, z1: complex = 0.0, z2: complex = 0.0) -> complex:
        """Numerical value of the truncated series at a point."""
        import cmath

        tot = 0.0 + 0.0j
        for (a, b1, b2), c in self.terms.items():
            tot += c.as_complex() * cmath.exp(
                2j * math.pi * (tau * Fraction(a) + z1 * Fraction(b1, 2) + z2 * Fraction(b2, 2)))
        return tot


def _series(acc, den, order, zmax=None) -> FormalSeries:
    """The series with coefficient (re + im i) q^{A/den} zeta^(b1, b2) for each
    acc[(A, b1, b2)] = [re, im]: the one place the integer loops form
    Fraction keys and GRat coefficients."""
    out = FormalSeries(None, order, zmax)
    terms = out.terms
    alphas = {}
    for (a, b1, b2), (re, im) in acc.items():
        if re or im:
            alpha = alphas.get(a)
            if alpha is None:
                alpha = alphas[a] = Fraction(a, den)
            terms[(alpha, b1, b2)] = GRat(re, im)
    return out


def _zmin(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def series_equal(a: FormalSeries, b: FormalSeries, zwindow: int | None = None):
    """Exact coefficient comparison up to min(order) within the common
    guaranteed zeta window.  Returns (equal, first difference or None)."""
    order = min(a.order, b.order)
    zmax = _zmin(a.zmax, b.zmax)
    if zwindow is not None:
        zmax = _zmin(zmax, 2 * zwindow)
    keys = set(a.terms) | set(b.terms)
    diffs = []
    for k in keys:
        alpha, b1, b2 = k
        if alpha > order:
            continue
        if zmax is not None and max(abs(b1), abs(b2)) > zmax:
            continue
        ca = a.terms.get(k, GR_ZERO)
        cb = b.terms.get(k, GR_ZERO)
        if ca.re != cb.re or ca.im != cb.im:
            diffs.append((k, ca, cb))
    if not diffs:
        return True, None
    diffs.sort(key=lambda d: (d[0][0], d[0][1], d[0][2]))
    return False, diffs[0]


@dataclass(frozen=True)
class ZArg:
    """Affine argument u = a1*z1 + a2*z2 + c with half-integer data."""

    a1: Fraction = Fraction(0)
    a2: Fraction = Fraction(0)
    c: Fraction = Fraction(0)

    @staticmethod
    def of(a1, a2, c=0) -> "ZArg":
        return ZArg(Fraction(a1), Fraction(a2), Fraction(c))


Z1 = ZArg.of(1, 0)
Z2 = ZArg.of(0, 1)


def _zeta_monomial(tn: int, td: int, arg: ZArg):
    """e^{2 pi i t u} for t = tn/td as (b1_twice, b2_twice, k), phase i^k."""
    b1, r1 = divmod(2 * tn * arg.a1.numerator, td * arg.a1.denominator)
    b2, r2 = divmod(2 * tn * arg.a2.numerator, td * arg.a2.denominator)
    if r1 or r2:
        raise UnsupportedCaseError(
            f"zeta exponent {Fraction(tn, td)}*({arg.a1},{arg.a2}) leaves (1/2)Z")
    return b1, b2, _quarter_turns(tn * arg.c.numerator, td * arg.c.denominator)


def _add_unit(acc, key, k: int):
    """acc[key] += i^k."""
    re, im = _UNIT[k % 4]
    cur = acc.get(key)
    if cur is None:
        acc[key] = [re, im]
    else:
        cur[0] += re
        cur[1] += im


def expand_theta(j, m, order, tau_scale=1, z: ZArg = Z1) -> FormalSeries:
    """Theta_{j,m}(tau_scale * tau, u(z)) as a formal series; terms
    q^{tau_scale * m n^2} zeta^{m n * u} over n in Z + j/2m."""
    j = HalfInt.of(j)
    m = HalfInt.of(m)
    if m.twice <= 0:
        raise ValueError("degree m must be positive")
    order = Fraction(order)
    scale = Fraction(tau_scale)
    kmax = math.isqrt(math.floor(order / (scale * m.value))) + 1 if order >= 0 else 0
    # n = (r + k d)/d, so m n = m2 (r + k d)/2d and scale m n^2 = a/den
    d = 2 * m.twice
    r = j.twice % d
    den = 2 * d * d * scale.denominator
    top = order.numerator * den // order.denominator
    acc = {}
    for k in range(-kmax, kmax + 1):
        n = r + k * d
        a = scale.numerator * m.twice * n * n
        if a <= top:
            b1, b2, ph = _zeta_monomial(m.twice * n, 2 * d, z)
            _add_unit(acc, (a, b1, b2), ph)
    return _series(acc, den, order)


def expand_eta_quotient(power: int, order, tau_scale=1) -> FormalSeries:
    """eta(tau_scale * tau)^power for power >= 1: the pentagonal series
    sum_k (-1)^k q^{(6k+1)^2/24}, exact to the order the product needs,
    multiplied by itself."""
    if power < 1:
        raise ValueError("eta power must be at least 1")
    scale = Fraction(tau_scale)
    top = Fraction(order) + scale / 24
    kmax = math.isqrt(max(0, math.floor(24 * top / scale))) // 6 + 1
    eta = FormalSeries({(Fraction(scale.numerator * (6 * k + 1) ** 2, 24 * scale.denominator),
                         0, 0): _PHASES[2] if k % 2 else GR_ONE
                        for k in range(-kmax, kmax + 1)}, top)
    out = eta
    for _ in range(power - 1):
        out = out * eta
    return out


def expand_phi1(m, s, order, tau_scale=1, z1: ZArg = Z1, z2: ZArg = Z2,
                zcap: int = 24, sign: int = 1) -> FormalSeries:
    """Phi_1^{[m;s]}(tau_scale * tau, u1(z), u2(z)) expanded in the annulus
    regime.  zcap bounds the zeta degree kept for the q^0 geometric pieces;
    the result's zmax records the guaranteed-exact window."""
    m = HalfInt.of(m)
    s = HalfInt.of(s)
    if m.twice <= 0:
        raise ValueError("degree m must be positive")
    order = Fraction(order)
    scale = Fraction(tau_scale)
    # q-exponents are numerators over den: scale (m j^2 + s j) = q_j/den
    den = 2 * scale.denominator
    top = order.numerator * den // order.denominator
    zsum = ZArg(z1.a1 + z2.a1, z1.a2 + z2.a2, z1.c + z2.c)
    sb1, sb2, sph = _zeta_monomial(s.twice, 2, z1)
    wb1, wb2, wph = _zeta_monomial(1, 1, z1)
    acc = {}

    def add_j(j: int) -> bool:
        base_q = scale.numerator * (m.twice * j * j + s.twice * j)
        if base_q > top:
            return False
        # numerator monomial e^{2 pi i (m j (u1+u2) + s u1)} q^{base_q}
        nb1, nb2, nph = _zeta_monomial(m.twice * j, 2, zsum)
        nb1 += sb1
        nb2 += sb2
        nph += sph
        if sign < 0 and j % 2:
            nph += 2
        # denominator 1 - w, w = e^{2 pi i u1} q^{scale*j}
        wq = 2 * scale.numerator * j
        if wq > 0 or (wq == 0 and (wb1, wb2) > (0, 0)):
            small_q, small_b1, small_b2, small_ph = wq, wb1, wb2, wph
            lead_q, lead_b1, lead_b2, lead_ph = 0, 0, 0, 0
        elif wq < 0 or (wq == 0 and (wb1, wb2) < (0, 0)):
            # 1/(1-w) = -w^{-1}/(1 - w^{-1})
            small_q, small_b1, small_b2, small_ph = -wq, -wb1, -wb2, -wph
            lead_q, lead_b1, lead_b2, lead_ph = small_q, small_b1, small_b2, small_ph + 2
        else:
            raise UnsupportedCaseError("denominator is constant; index unsupported")
        a = base_q + lead_q
        b1 = nb1 + lead_b1
        b2 = nb2 + lead_b2
        ph = nph + lead_ph
        zlim = 2 * zcap + 2 * abs(lead_b1) + 2
        r = 0
        while a <= top:
            if max(abs(b1), abs(b2)) > zlim:
                break
            _add_unit(acc, (a, b1, b2), ph)
            a += small_q
            b1 += small_b1
            b2 += small_b2
            ph += small_ph
            r += 1
            if small_q == 0 and r > 2 * zcap + 4:
                break
        return True

    add_j(0)
    j = 1
    while add_j(j):
        j += 1
    j = -1
    while add_j(j):
        j -= 1
    return _series(acc, den, order, zmax=2 * zcap)


def expand_phi(m, s, order, tau_scale=1, z1: ZArg = Z1, z2: ZArg = Z2,
               zcap: int = 24, sign: int = 1) -> FormalSeries:
    """Assembled Phi^{[m;s]} (t-prefactor stripped): Phi_1(u1, u2) minus
    Phi_1 at the swap-negated arguments."""
    a = expand_phi1(m, s, order, tau_scale, z1, z2, zcap, sign)
    nz1 = ZArg(-z2.a1, -z2.a2, -z2.c)
    nz2 = ZArg(-z1.a1, -z1.a2, -z1.c)
    b = expand_phi1(m, s, order, tau_scale, nz1, nz2, zcap, sign)
    return a - b


# theta.jacobi_theta's unit coefficients (1.0, 1j, ...) as exact i^k
_EXACT_UNIT = dict(zip((1, 1j, -1, -1j), _PHASES))


def expand_jacobi_theta(a: int, b: int, order, tau_scale=1, z: ZArg = Z1) -> FormalSeries:
    """theta_ab as the degree-2 combination of Theta_{j,2} that
    theta.jacobi_theta sums; its coefficients are +-1 and +-i, exact."""
    if (a, b) not in _JACOBI:
        raise ValueError("Jacobi theta labels must be 0 or 1")
    out = FormalSeries(None, Fraction(order))
    for idx, c in _JACOBI[(a, b)]:
        term = expand_theta(idx.j, idx.m, order, tau_scale, z)
        out = out + term.scale(_EXACT_UNIT[c])
    return out
