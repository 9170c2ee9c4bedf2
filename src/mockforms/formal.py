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

import cmath
import math
import weakref
from fractions import Fraction
from itertools import starmap

from .qkernel import HalfInt, TruncationOverflowError, UnsupportedCaseError, _record, degree_of


@_record
class GRat:
    """Gaussian rational a + b*i.  The parts are ints wherever they are
    integral and Fractions only where a value needs one (a half-integer d0
    weight, a caller's non-integral scalar); int and Fraction agree on ==, hash
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

    def __str__(self):
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


GR_ONE = GRat(1)
_ZERO = (0, 0)
# i^k for k = 0..3 as int pairs (re, im)
_UNIT = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _quarter_turns(n: int, d: int) -> int:
    """k in 0..3 with e^{2 pi i n/d} = i^k, for n/d in (1/4)Z."""
    k, rem = divmod(4 * n, d)
    if rem:
        raise UnsupportedCaseError(
            f"phase exponent {Fraction(n, d)} is not a quarter integer")
    return k % 4


def _exact(x, what: str) -> Fraction:
    """x as a Fraction.  Only ints and Fractions are exact: a float (NaN and
    inf too) raises TypeError, since its binary value would move a cut."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"{what} {x!r} is not an int or Fraction")
    return x if isinstance(x, Fraction) else Fraction(x)


def _scale(tau_scale) -> int | Fraction:
    """tau_scale, exact and positive (Im(tau_scale * tau) > 0); an int stays an int."""
    scale = tau_scale if type(tau_scale) is int else _exact(tau_scale, "tau_scale")
    if scale <= 0:
        raise ValueError(f"tau_scale {scale} is not positive")
    return scale


def _top(order: Fraction, den: int) -> int:
    """floor(order * den): the largest q-numerator over den within order."""
    return order.numerator * den // order.denominator


# The most terms one expansion forms: far above what the verifier and the
# tests expand (eta^24 to q^100 forms 101 coefficients), far below what
# exhausts memory.  Each expand_* counts its terms in ints, from its order,
# and past the cap raises TruncationOverflowError before forming the first.
MAX_TERMS = 10 ** 6


def _too_many(what: str) -> TruncationOverflowError:
    return TruncationOverflowError(
        f"{what} at this order would form over {MAX_TERMS} terms")


def _check_coefficient(c):
    if not (isinstance(c, GRat) and isinstance(c.re, (int, Fraction))
            and isinstance(c.im, (int, Fraction))):
        raise TypeError(f"coefficient {c!r} is not a GRat with int or Fraction parts")


class FormalSeries:
    """A truncated series of terms c q^alpha zeta_1^{b1/2} zeta_2^{b2/2}, alpha
    in Q, b1 and b2 integer *twice* the zeta exponents, c a GRat.  `order`
    bounds the q-exponents; `zmax` (twice units, None = unlimited) bounds the
    zeta window within which coefficients are exact.  Exponents, order and
    coefficient parts must be exact: a float raises TypeError.

    The series is held on ints: `_store` maps (A, b1, b2) to the nonzero
    (re, im) of the term q^{A/den}, over one int `_den`, with every A at most
    `_top` = floor(order * den).  The arithmetic reads only the store;
    `terms`, {(alpha, b1, b2): GRat} with Fraction alpha, is its view, formed
    on first read.  Assigning `terms`, or setting or deleting one of its
    items, re-forms the series as FormalSeries(terms, order, zmax) would."""

    __slots__ = ("_store", "_den", "_top", "order", "zmax", "_terms", "__weakref__")

    def __init__(self, terms=None, order=Fraction(10), zmax=None):
        terms = terms or {}
        for (alpha, b1, b2), c in terms.items():
            _exact(alpha, "q-exponent")
            if not (isinstance(b1, int) and isinstance(b2, int)):
                raise TypeError(f"zeta exponents ({b1!r}, {b2!r}) are not ints")
            _check_coefficient(c)
        self.order = _exact(order, "order")
        self._den = math.lcm(*(k[0].denominator for k in terms))
        self._top = _top(self.order, self._den)
        self._store, self.zmax, self._terms = {}, zmax, None
        for (alpha, b1, b2), c in terms.items():
            a = alpha.numerator * (self._den // alpha.denominator)
            if c and a <= self._top:
                self._store[(a, b1, b2)] = (c.re, c.im)

    @staticmethod
    def constant(c=GR_ONE, order=Fraction(10)):
        return FormalSeries({(Fraction(0), 0, 0): c}, order)

    @property
    def terms(self):
        if self._terms is None:
            self._terms = _Terms(self)
        return self._terms

    @terms.setter
    def terms(self, terms):
        self.__init__(terms, self.order, self.zmax)

    def __reduce__(self):               # a copy shares the store, not the view
        return _new, (self._store, self._den, self._top, self.order, self.zmax)

    def _at(self, den: int):
        """The store and top with q-numerators over den, a multiple of _den."""
        f = den // self._den
        if f == 1:
            return self._store, self._top
        return ({(a * f, b1, b2): c for (a, b1, b2), c in self._store.items()},
                _top(self.order, den))

    def _like(self, store) -> FormalSeries:
        return _new(store, self._den, self._top, self.order, self.zmax)

    def rows(self):
        """(den, rows): the terms as rows (A, b1, b2, re, im), sorted, the term
        (re + im i) q^{A/den} zeta_1^{b1/2} zeta_2^{b2/2}; a reader of every
        coefficient that forms no Fraction and no GRat per term."""
        return self._den, sorted(k + c for k, c in self._store.items())

    def zspan(self) -> int:
        return max((max(abs(b1), abs(b2)) for (_, b1, b2) in self._store), default=0)

    def __add__(self, other):
        den = math.lcm(self._den, other._den)
        xs, xtop = self._at(den)
        ys, ytop = other._at(den)
        top = min(xtop, ytop)
        acc = dict(xs) if xtop == top else {k: c for k, c in xs.items() if k[0] <= top}
        for k, (re, im) in ys.items():
            if k[0] <= top:
                cur = acc.get(k, _ZERO)
                re, im = cur[0] + re, cur[1] + im
                if re or im:
                    acc[k] = (re, im)
                else:
                    del acc[k]
        return _new(acc, den, top, min(self.order, other.order), _zmin(self.zmax, other.zmax))

    def __neg__(self):
        return self._like({k: (-re, -im) for k, (re, im) in self._store.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: GRat):
        _check_coefficient(c)
        # an integral Fraction scalar multiplies as an int, so int parts stay ints
        cr, ci = (x.numerator if x.denominator == 1 else x for x in (c.re, c.im))
        return self._like({k: (re * cr - im * ci, re * ci + im * cr)
                           for k, (re, im) in self._store.items()} if c else {})

    def __mul__(self, other):
        den = math.lcm(self._den, other._den)
        xs, xtop = self._at(den)
        ys, ytop = other._at(den)
        xmin = min((k[0] for k in xs), default=0)
        ymin = min((k[0] for k in ys), default=0)
        order = min(self.order + Fraction(ymin, den), other.order + Fraction(xmin, den))
        top = min(xtop + ymin, ytop + xmin)
        zmax = _zmin(None if self.zmax is None else self.zmax - other.zspan(),
                     None if other.zmax is None else other.zmax - self.zspan())
        # the right factor by ascending q: each row stops at its first A past top
        right = sorted((a, b1, b2, re, im) for (a, b1, b2), (re, im) in ys.items())
        acc = {}
        for (a1, b1, c1), (xr, xi) in xs.items():
            lim = top - a1
            for a2, b2, c2, yr, yi in right:
                if a2 > lim:
                    break
                key = (a1 + a2, b1 + b2, c1 + c2)
                cur = acc.get(key)
                if cur is None:
                    acc[key] = [xr * yr - xi * yi, xr * yi + xi * yr]
                else:
                    cur[0] += xr * yr - xi * yi
                    cur[1] += xr * yi + xi * yr
        return _new({k: (re, im) for k, (re, im) in acc.items() if re or im},
                    den, top, order, zmax)

    def d0(self) -> FormalSeries:
        """Termwise (1/2 pi i)(d/dz1 - d/dz2): multiplies each monomial by
        the difference of its zeta exponents."""
        store = {}
        for (a, b1, b2), (re, im) in self._store.items():
            w = Fraction(b1 - b2, 2) if (b1 - b2) % 2 else (b1 - b2) // 2
            if w:
                store[(a, b1, b2)] = (re * w, im * w)
        return self._like(store)

    def eval_at(self, tau: complex, z1: complex = 0.0, z2: complex = 0.0) -> complex:
        """Numerical value of the truncated series at a point."""
        tot = 0.0 + 0.0j
        for (a, b1, b2), (re, im) in self._store.items():
            tot += complex(re, im) * cmath.exp(2j * math.pi * (
                tau * Fraction(a, self._den) + z1 * Fraction(b1, 2) + z2 * Fraction(b2, 2)))
        return tot


class _Terms(dict):
    """FormalSeries.terms: a dict formed from the store.  Setting or deleting
    an item re-forms the series from the edited dict, so the view and the
    store never disagree; the other in-place edits raise TypeError.  The view
    refers to its series weakly, so neither keeps the other in a cycle."""

    __slots__ = ("_of",)

    def __init__(self, s: FormalSeries):
        self._of = weakref.ref(s)
        alphas = {a: Fraction(a, s._den) for a in {k[0] for k in s._store}}
        dict.update(self, zip([(alphas[a], b1, b2) for a, b1, b2 in s._store],
                              starmap(GRat, s._store.values())))

    def _edit(self, op, *args):
        s = self._of()
        if s is None:                   # the series is gone: a plain dict edit
            return op(self, *args)
        new = dict(self)
        op(new, *args)
        s.terms = new                   # checked and re-formed as by FormalSeries()
        dict.clear(self)
        self.__init__(s)
        s._terms = self

    def __setitem__(self, key, c):
        self._edit(dict.__setitem__, key, c)

    def __delitem__(self, key):
        self._edit(dict.__delitem__, key)

    def _refuse(self, *args, **kwargs):
        raise TypeError("FormalSeries.terms is edited by item or assigned whole")

    clear = pop = popitem = setdefault = update = __ior__ = _refuse

    def __reduce__(self):               # a copy is a plain dict, bound to no series
        return dict, (dict(self),)


def _new(store, den, top, order, zmax=None) -> FormalSeries:
    """The series over den with this store; the caller keeps its invariants."""
    out = object.__new__(FormalSeries)
    out._store, out._den, out._top, out.order, out.zmax, out._terms = (
        store, den, top, order, zmax, None)
    return out


def _zmin(a, b):
    return b if a is None else a if b is None else min(a, b)


def series_equal(a: FormalSeries, b: FormalSeries, zwindow: int | None = None):
    """Exact coefficient comparison up to min(order) within the common
    guaranteed zeta window.  Returns (equal, first difference or None), the
    difference as ((alpha, b1, b2), GRat of a, GRat of b)."""
    zmax = _zmin(a.zmax, b.zmax)
    if zwindow is not None:
        zmax = _zmin(zmax, 2 * zwindow)
    den = math.lcm(a._den, b._den)
    xs, xtop = a._at(den)
    ys, ytop = b._at(den)
    if xs == ys:                        # equal whole, so equal in any window
        return True, None
    top = min(xtop, ytop)
    # no store holds a (0, 0), so the restricted stores are equal as dicts
    # exactly when every coefficient in the window agrees
    xs, ys = ({k: c for k, c in s.items() if k[0] <= top and (
        zmax is None or -zmax <= k[1] <= zmax and -zmax <= k[2] <= zmax)} for s in (xs, ys))
    if xs == ys:
        return True, None
    k = min(k for k in xs.keys() | ys.keys() if xs.get(k) != ys.get(k))
    return False, ((Fraction(k[0], den), k[1], k[2]),
                   GRat(*xs.get(k, _ZERO)), GRat(*ys.get(k, _ZERO)))


@_record
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


def _ratios(arg: ZArg) -> tuple:
    """The (numerator, denominator) int pairs of a1, a2 and c of arg."""
    return tuple((x.numerator, x.denominator) for x in (arg.a1, arg.a2, arg.c))


def _zeta_monomial(tn: int, td: int, arg: tuple):
    """e^{2 pi i t u} for t = tn/td as (b1_twice, b2_twice, k), phase i^k, with
    arg the _ratios of u, in lowest terms or not."""
    (n1, d1), (n2, d2), (nc, dc) = arg
    b1, r1 = divmod(2 * tn * n1, td * d1)
    b2, r2 = divmod(2 * tn * n2, td * d2)
    if r1 or r2:
        raise UnsupportedCaseError(f"zeta exponent {Fraction(tn, td)}*"
                                   f"({Fraction(n1, d1)},{Fraction(n2, d2)}) leaves (1/2)Z")
    return b1, b2, _quarter_turns(tn * nc, td * dc)


def expand_theta(j, m, order, tau_scale=1, z: ZArg = Z1) -> FormalSeries:
    """Theta_{j,m}(tau_scale * tau, u(z)) as a formal series; terms
    q^{tau_scale * m n^2} zeta^{m n * u} over n in Z + j/2m."""
    j = HalfInt.of(j)
    m = degree_of(m)
    order = _exact(order, "order")
    scale = _scale(tau_scale)
    on, od, sn, sd = order.numerator, order.denominator, scale.numerator, scale.denominator
    # |k| <= isqrt(floor(order / (scale m))) + 1, in ints
    kmax = math.isqrt(2 * on * sd // (od * sn * m.twice)) + 1 if on >= 0 else 0
    if 2 * kmax + 1 > MAX_TERMS:
        raise _too_many("Theta")
    # n = (r + k d)/d, so m n = m2 (r + k d)/2d and scale m n^2 = a/den
    d = 2 * m.twice
    r = j.twice % d
    den = 2 * d * d * sd
    top = _top(order, den)
    acc = {}
    z = _ratios(z)
    for k in range(-kmax, kmax + 1):
        n = r + k * d
        a = sn * m.twice * n * n
        if a <= top:
            b1, b2, ph = _zeta_monomial(m.twice * n, 2 * d, z)
            # only n and -n share a key, and only where u is a constant
            u, cur = _UNIT[ph], acc.get(key := (a, b1, b2))
            if cur is None:
                acc[key] = u
            elif cur != _UNIT[(ph + 2) % 4]:            # cur + u is not (0, 0)
                acc[key] = (cur[0] + u[0], cur[1] + u[1])
            else:
                del acc[key]
    return _new(acc, den, top, order)


def expand_eta_quotient(power: int, order, tau_scale=1) -> FormalSeries:
    """eta(tau_scale * tau)^p for p >= 1, exact to order + p tau_scale/24:
    q^{p tau_scale/24} P(x)^p, x = q^tau_scale, with P = prod (1 - x^n) =
    sum a_i x^i the pentagonal series theta.dedekind_eta sums (a_i = +-1 at
    i = k(3k+1)/2) and P^p = sum c_n x^n by the power recurrence (Knuth,
    TAOCP 2, 4.7): n c_n = sum_{i>=1} ((p+1) i - n) a_i c_{n-i}, c_0 = 1."""
    if power < 1:
        raise ValueError("eta power must be at least 1")
    if not isinstance(power, int):
        raise TypeError(f"eta power {power!r} is not an int")
    scale = _scale(tau_scale)
    order = _exact(order, "order")
    sn, den = scale.numerator, 24 * scale.denominator
    nmax = _top(order, den) // (24 * sn)            # x^n with n * scale <= order
    if nmax >= MAX_TERMS:
        raise _too_many("eta power")
    # k(3k + 1)/2 <= nmax needs |k| <= sqrt(2 nmax/3) + 1/3
    kmax = math.isqrt(max(2 * nmax // 3, 0)) + 1
    pent = sorted((k * (3 * k + 1) // 2, 1 - 2 * (k & 1))
                  for k in range(-kmax, kmax + 1) if 0 < k * (3 * k + 1) // 2 <= nmax)
    c = [1] if nmax >= 0 else []
    for n in range(1, nmax + 1):
        t = 0
        for i, a in pent:
            if i > n:
                break
            t += a * ((power + 1) * i - n) * c[n - i]
        c.append(t // n)
    order += Fraction(power * sn, den)              # p tau_scale/24, a Fraction
    return _new({(sn * (power + 24 * n), 0, 0): (cn, 0) for n, cn in enumerate(c) if cn},
                den, _top(order, den), order)


def expand_phi1(m, s, order, tau_scale=1, z1: ZArg = Z1, z2: ZArg = Z2,
                zcap: int = 24, sign: int = 1) -> FormalSeries:
    """Phi_1^{[m;s]}(tau_scale * tau, u1(z), u2(z)) expanded in the annulus
    regime.  zcap bounds the zeta degree kept for the q^0 geometric pieces;
    the result's zmax records the guaranteed-exact window."""
    return _appell(m, s, order, tau_scale, zcap, sign, (_ratios(z1), _ratios(z2)))


def expand_phi(m, s, order, tau_scale=1, z1: ZArg = Z1, z2: ZArg = Z2,
               zcap: int = 24, sign: int = 1) -> FormalSeries:
    """Assembled Phi^{[m;s]} (t-prefactor stripped): Phi_1(u1, u2) minus
    Phi_1 at the swap-negated arguments (-u2, -u1), both halves summed into
    one accumulator, the second with the phase i^2 = -1."""
    z1, z2 = _ratios(z1), _ratios(z2)
    nz1, nz2 = (tuple((-n, d) for n, d in z) for z in (z2, z1))
    return _appell(m, s, order, tau_scale, zcap, sign, (z1, z2), (nz1, nz2))


def _appell(m, s, order, tau_scale, zcap, sign, *halves) -> FormalSeries:
    """The sum over k of (-1)^k Phi_1 at the k-th argument pair (u1, u2) of
    halves, each u given by its _ratios, in one accumulator."""
    m = degree_of(m)
    s = HalfInt.of(s)
    order = _exact(order, "order")
    scale = _scale(tau_scale)
    # q-exponents are numerators over den: scale (m j^2 + s j) = q_j/den
    m2, s2, sn, den = m.twice, s.twice, scale.numerator, 2 * scale.denominator
    top = _top(order, den)
    # j runs outward from 0 on each side while q_j <= top, that is from +-1
    # to the floor of the larger root (sqrt(D) -+ s2) / 2m2 of
    # m2 j^2 +- s2 j = t, t = top // sn, D = s2^2 + 4 m2 t, when j = +-1
    # meets it (the quadratic is convex).  That floor is (isqrt(D) -+ s2) //
    # 2m2, as (x -+ s2) / 2m2 is an integer only at an integer x.  Each j
    # starts a run on each half, and a run keeps to the zeta window, about
    # 2 zcap + 5 terms (the pure-zeta run at j = 0)
    t = top // sn
    up = down = 0
    if t >= m2 - abs(s2):
        r = math.isqrt(s2 * s2 + 4 * m2 * t)
        if m2 + s2 <= t:
            up = (r - s2) // (2 * m2)
        if m2 - s2 <= t:
            down = (r + s2) // (2 * m2)
    if len(halves) * ((top >= 0) + up + down) * (2 * zcap + 5) > MAX_TERMS:
        raise _too_many("Appell sum")
    js = [*range(top < 0, up + 1), *range(-1, -down - 1, -1)]
    acc = {}
    for k, (z1, z2) in enumerate(halves):
        sb1, sb2, sph = _zeta_monomial(s2, 2, z1)
        wb1, wb2, wph = _zeta_monomial(1, 1, z1)
        if top >= 0 and (wb1, wb2) == (0, 0):       # j = 0's denominator
            raise UnsupportedCaseError("denominator is constant; index unsupported")
        # e^{2 pi i m j (u1+u2)} is the j-th power of its j = 1 monomial; it is
        # formed at the first j != 0, so an unsupported zsum raises as there
        j0 = next((j for j in js if j), 0)
        zsum = tuple((n1 * d2 + n2 * d1, d1 * d2) for (n1, d1), (n2, d2) in zip(z1, z2))
        mb1, mb2, mph = (j0 * x for x in _zeta_monomial(j0 * m2, 2, zsum))
        # w = e^{2 pi i u1} q^{scale j} steps the run at j; a large w (j < 0, or j = 0
        # with a negative zeta step) is 1/(1-w) = -w^{-1}/(1 - w^{-1}): step w^{-1}
        flip0 = (wb1, wb2) < (0, 0)
        up = (wb1, wb2, wph, 2 * zcap + 2)
        down = (-wb1, -wb2, -wph, 2 * zcap + 2 * abs(wb1) + 2)
        for j in js:
            # numerator e^{2 pi i (m j (u1+u2) + s u1)} q^{q_j}
            a, b1, b2 = sn * (m2 * j * j + s2 * j), mb1 * j + sb1, mb2 * j + sb2
            ph = mph * j + sph + 2 * k + (2 if sign < 0 and j % 2 else 0)
            if j > 0 or j == 0 and not flip0:
                dq, (d1, d2, dph, zlim) = 2 * sn * j, up
            else:
                dq, (d1, d2, dph, zlim) = -2 * sn * j, down
                a, b1, b2, ph = a + dq, b1 + d1, b2 + d2, ph + dph + 2
            # the run ends before its first term past top or outside the zeta
            # window; a pure zeta run (j = 0) after 2 zcap + 5 terms
            n = 0 if max(abs(b1), abs(b2)) > zlim else (top - a) // dq + 1 if dq else 2 * zcap + 5
            if d1:
                n = min(n, (zlim - b1 if d1 > 0 else zlim + b1) // abs(d1) + 1)
            if d2:
                n = min(n, (zlim - b2 if d2 > 0 else zlim + b2) // abs(d2) + 1)
            for _ in range(n):
                u = _UNIT[ph & 3]
                cur = acc.get(key := (a, b1, b2))
                if cur is None:
                    acc[key] = u
                elif cur != _UNIT[(ph + 2) & 3]:        # cur + u is not (0, 0)
                    acc[key] = (cur[0] + u[0], cur[1] + u[1])
                else:
                    del acc[key]
                a, b1, b2, ph = a + dq, b1 + d1, b2 + d2, ph + dph
    return _new(acc, den, top, order, 2 * zcap)


def expand_jacobi_theta(a: int, b: int, order, tau_scale=1, z: ZArg = Z1) -> FormalSeries:
    """theta_ab(tau_scale * tau, u(z)) as Theta_{a/2,1/2}(tau_scale * tau, 2u + b):
    over N = a + 2k both sum q^{tau_scale N^2/8} zeta^{N u/2}, and the shift
    b gives e^{pi i N b/2} = i^{ab} (-1)^{bk}, the phase of theta_ab."""
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("Jacobi theta labels must be 0 or 1")
    return expand_theta(HalfInt(a), HalfInt(1), order, tau_scale,
                        ZArg(2 * z.a1, 2 * z.a2, 2 * z.c + b))
