"""The identity registry: every transformation law as an IdentitySpec.

Importing this module registers the 87 laws with verifier.register(); the
verifier imports it the first time the registry is read, so that importing
mockforms (for a kernel, a q-expansion or the CLI) compiles and plans none
of them.  The harness records, IdentitySpec and the VerificationReport
that verifier.verify() returns, are stdlib dataclasses defined here, so
that dataclasses loads with the registry and not with the package.  Every law is a record planned by the one evaluator _laws(): a
family member at a transformed point against a factor times members at the
point, their sum, or a closed form.  An entry of a summed side may carry
its own image, so the doubling laws are records too, and every S-sum reads
the one S-table _s_table() with HalfInt rows.

Two special check modes exist: "exceeds" entries record negative results
(a deliberately broken transformation must visibly fail), and custom
runners handle the exact/combinatorial checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .qkernel import HalfInt, PoleProximityError, e2pi
from .theta import (
    ThetaIndex,
    dedekind_eta,
    eta_theta_quotient,
    jacobi_theta,
    jacobi_theta11_product,
    theta_jm,
)
from .mock import MockIndex, PsiIndex, phi
from .modification import phi_add, phi_tilde, phi1_tilde, psi_tilde
from .verifier import register
from . import family_n3 as n3
from . import family_n4 as n4
from . import family_d21a as d2


@dataclass
class IdentitySpec:
    id: str
    citation: str
    tag: str
    tol: float
    params: list
    plan: object            # plan(**params) -> run(pt, policy) -> [(lhs, rhs), ...]
    grid: tuple = (3, 2)
    check: str = "close"    # or "exceeds"
    runner: object = None   # custom: callable(policy) -> (max_err, extra)


@dataclass
class VerificationReport:
    id: str
    citation: str
    grid: dict
    tol: float
    max_abs_err: float
    passed: bool
    skipped: int

    def to_dict(self) -> dict:
        return {"id": self.id, "citation": self.citation, "grid": self.grid,
                "tol": self.tol, "max_abs_err": self.max_abs_err,
                "pass": self.passed, "skipped": self.skipped}


H = Fraction(1, 2)
# the four shift pairs (eps, eps') of the sector-indexed families
EPS_PAIRS = [{"eps": e, "epsp": ep} for e in (Fraction(0), H) for ep in (Fraction(0), H)]


def _laws(obj, args, laws):
    """The plan of laws stated as records.  obj(x, tau, *a, policy) is the
    family member at index x, and args(pt) gives a.  laws(**params) lists
    records (x, image, y, c), each checking the member at x and the point
    image(tau, *a) against c times the member at y and (tau, *a).  An x or
    y that is a list of (coefficient, index) is summed from 0.0j in list
    order; an entry (coefficient, index, image) of either list carries its
    own image in place of the record's (x) or the point's (y).  A callable
    y is a closed form y(tau, *a, policy), as _zero is for a structural
    zero.  c is None (no factor), a constant or a callable of (tau, *a).
    A law between several functions takes the index (f, index, *flags)
    and obj _call.  A record holds only exact data of
    its parameter set.  The plan calls laws once and gives each distinct
    (index, image) a value slot, in the order the records first use them,
    since the S-rows of a family share their terms and several laws of an
    id share a side; at a grid point every slot is evaluated once, in
    that order, and then every closed form and factor, record by record."""
    def plan(**params):
        slots, recs = {}, []

        def slot(ix, image):
            return slots.setdefault((ix, image), len(slots))

        def entries(terms, image):
            return [(c, slot(ix, own[0] if own else image)) for c, ix, *own in terms]

        for x, image, y, c in laws(**params):
            x = entries(x, image) if isinstance(x, list) else slot(x, image)
            if isinstance(y, list):
                y = entries(y, _same)
            elif not callable(y):
                y = slot(y, _same)
            recs.append((x, y, c))
        # (index, image) per slot, with None for _same
        keys = [(ix, None if image is _same else image) for ix, image in slots]

        def run(pt, policy):
            tau, a = pt.tau, args(pt)
            at = []
            for ix, image in keys:
                at.append(obj(ix, *image(tau, *a), policy) if image else obj(ix, tau, *a, policy))
            out = []
            for x, y, c in recs:
                if y.__class__ is int:
                    rhs = at[y]
                else:
                    rhs = _sum(y, at) if isinstance(y, list) else y(tau, *a, policy)
                if c is not None:
                    rhs = (c(tau, *a) if callable(c) else c) * rhs
                out.append((at[x] if x.__class__ is int else _sum(x, at), rhs))
            return out
        return run
    return plan


def _sum(terms, at) -> complex:
    """The sum of coefficient * at[slot] over terms [(coefficient, slot)],
    from 0.0j in list order."""
    total = 0.0j
    for c, s in terms:
        total += c * at[s]
    return total


def _call(x, *a):
    """obj of a law between functions: the member at x = (f, index, *flags)
    is f(index, *point, *flags, policy)."""
    return x[0](x[1], *a[:-1], *x[2:], a[-1])


def _zero(*_):
    """The closed form of a structural zero."""
    return 0.0


def _same(tau, *a):
    return (tau, *a)


def _T(tau, *a):
    return (tau + 1, *a)


def _S(tau, *zs):
    """(-1/tau, z/tau) for every elliptic variable z."""
    return (-1 / tau, *(z / tau for z in zs))


def _S_t(tau, *a):
    """_S on the elliptic variables, the last argument t left as it is."""
    return (*_S(tau, *a[:-1]), a[-1])


def _zs(t):
    """args: the first two point components and a fixed t."""
    return lambda pt: (pt.zs[0], pt.zs[1], t)


def _s_table(M: int, eps, m: int, j, k, sgp=0) -> list:
    """(c, a, b) over a, b in eps + {0, ..., M-1}, a outer, with a, b
    HalfInts and c = e(-(m/M)(a k + b j - sgp (a - b))): the index sum of
    the wrapper S-laws.  With a, ..., sgp as twice their values (HalfInt.of),
    the argument is one int over 4M, which e2pi rounds once, as it does
    the Fraction."""
    e2, j2, k2, g2 = (HalfInt.of(x).twice for x in (eps, j, k, sgp))
    twice = range(e2, e2 + 2 * M, 2)
    return [(e2pi(-m * (a * k2 + b * j2 - g2 * (a - b)) / (4 * M)), HalfInt(a), HalfInt(b))
            for a in twice for b in twice]


def _theta_pairs():
    theta = lambda laws: _laws(theta_jm, lambda pt: (pt.z, 0), laws)
    jacobi = lambda laws: _laws(lambda ab, *a: jacobi_theta(*ab, *a), lambda pt: (pt.z,), laws)

    def eq12a(m, j, a):
        idx = ThetaIndex.of(j, m)
        return [(idx, lambda tau, z, t: (tau, z + a, t), idx, e2pi(Fraction(j * a, 2)))]

    register(IdentitySpec(
        "eq1.2a", "theta elliptic law, integer shift", "theta", 1e-9,
        [{"m": m, "j": j, "a": a} for m in (1, 2, 3) for j in range(2 * m)
         for a in (1, -2)], theta(eq12a), grid=(5, 5)))

    def eq12b(m, j, k):
        ck, ch = complex(-k * k / (4 * m)), complex(-k / 2)
        return [(ThetaIndex.of(j, m), lambda tau, z, t: (tau, z + k * tau / m, t),
                 ThetaIndex.of(j + k, m), lambda tau, z, t: e2pi(ck * tau) * e2pi(ch * z))]

    register(IdentitySpec(
        "eq1.2b", "theta elliptic law, tau-direction shift", "theta", 1e-9,
        [{"m": m, "j": j, "k": k} for m in (1, 2, 3) for j in range(2 * m)
         for k in (1, -1)], theta(eq12b), grid=(5, 5)))

    register(IdentitySpec(
        "eq1.3", "theta S-transform", "theta", 1e-9,
        [{"m": m, "j": j} for m in (1, 2, 3) for j in range(2 * m)],
        theta(lambda m, j: [(
            ThetaIndex.of(j, m), lambda tau, z, t: (-1 / tau, z / tau, -z * z / (4 * tau)),
            [(e2pi(-j * jp / (2 * m)), ThetaIndex.of(jp, m)) for jp in range(2 * m)],
            lambda tau, z, t: cmath.sqrt(-1j * tau / (2 * m)))]),
        grid=(5, 3)))

    register(IdentitySpec(
        "eq1.4", "theta T-transform", "theta", 1e-9,
        [{"m": m, "j": j} for m in (1, 2, 3) for j in range(2 * m)],
        theta(lambda m, j: [(ThetaIndex.of(j, m), _T, ThetaIndex.of(j, m),
                             e2pi(j * j / (4 * m)))]), grid=(5, 3)))

    register(IdentitySpec(
        "eq1.5", "Jacobi theta elliptic laws", "theta", 1e-10,
        [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)],
        jacobi(lambda a, b: [
            ((a, b), lambda tau, z: (tau, z + 1), (a, b), (-1.0) ** a),
            ((a, b), lambda tau, z: (tau, z + tau), (a, b),
             lambda tau, z: (-1.0) ** b * e2pi(-tau / 2) * e2pi(-z))]),
        grid=(5, 5)))

    register(IdentitySpec(
        "eq1.6", "Jacobi theta S-transform", "theta", 1e-10,
        [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)],
        jacobi(lambda a, b: [(
            (a, b), _S, (b, a), lambda tau, z: ((-1j) ** (a * b) * cmath.sqrt(-1j * tau)
                                                * cmath.exp(1j * math.pi * z * z / tau)))]),
        grid=(5, 3)))

    register(IdentitySpec(
        "eq1.7", "Jacobi theta T-transforms", "theta", 1e-10,
        [{"a": a} for a in (0, 1)],
        jacobi(lambda a: [((0, a), _T, (0, 1 - a), None),
                          ((1, a), _T, (1, a), e2pi(Fraction(1, 8)))]),
        grid=(5, 3)))

    register(IdentitySpec(
        "theta.triple", "odd Jacobi theta vs triple product", "theta", 1e-12, [{}],
        jacobi(lambda: [((1, 1), _same,
                         lambda tau, z, policy: jacobi_theta11_product(tau, z), None)]),
        grid=(5, 5)))

    register(IdentitySpec(
        "eta.mod", "Dedekind eta S and T transforms", "theta", 1e-10, [{}],
        _laws(lambda _, tau, policy: dedekind_eta(tau, policy), lambda pt: (), lambda: [
            (None, _S, None, lambda tau: cmath.sqrt(-1j * tau)),
            (None, _T, None, e2pi(Fraction(1, 24)))]),
        grid=(5, 2)))


def _lemma11(m, s):
    """The doubling law of the assembly f (phi or phi_tilde):
    2 f_{m,s}(2 tau, z1, z2, t) = f_{2m,2s}(tau, z1/2, z2/2, t/2)
    + (-1)^{2s} f_{2m,2s}(tau, (z1 + 1)/2, (z2 - 1)/2, t/2)."""
    dbl = MockIndex.of(2 * Fraction(m), 2 * Fraction(s))
    return [([(2.0, MockIndex.of(m, s))], lambda tau, z1, z2, t: (2 * tau, z1, z2, t),
             [(1.0, dbl, lambda tau, z1, z2, t: (tau, z1 / 2, z2 / 2, t / 2)),
              ((-1.0) ** int(2 * Fraction(s)), dbl,
               lambda tau, z1, z2, t: (tau, (z1 + 1) / 2, (z2 - 1) / 2, t / 2))], None)]


def _mock_pairs():
    register(IdentitySpec(
        "lemma1.1", "doubling identity for the Appell assembly", "mock", 1e-10,
        [{"m": m, "s": s} for m in (1, 2, Fraction(1, 2)) for s in (0, H, 1)],
        _laws(phi, _zs(0.05), _lemma11)))

    # the index of the signed assembly is (MockIndex, sign)
    signed = lambda t, laws: _laws(lambda x, *a: phi(x[0], *a, x[1]), _zs(t), laws)

    register(IdentitySpec(
        "rem1.3-phi", "degree-one closed form", "mock", 1e-10, [{}],
        signed(0, lambda: [((MockIndex.of(1, 0), 1), _same, lambda tau, z1, z2, t, policy: (
            eta_theta_quotient(tau, -1j, ((1, 3), (1, 1, z1 + z2, 1)),
                               ((1, 1, z1, 1), (1, 1, z2, 1)), policy)), None)]),
        grid=(5, 3)))

    def rem13b(M, eps, j, k):
        e = float(eps)
        cjk, ck, cj = (complex(Fraction(a, M)) for a in (j * k, k, j))
        return [(PsiIndex.of(M, 1, 0, eps, j, k), _same, lambda tau, z1, z2, t, policy: (
            eta_theta_quotient(M * tau, -1j * e2pi(cjk * tau) * e2pi(ck * z1 + cj * z2),
                               ((1, 3), (1, 1, z1 + z2 + (j + k) * tau, 1)),
                               ((1, 1, z1 + j * tau + e, 1), (1, 1, z2 + k * tau - e, 1)),
                               policy)), None)]

    register(IdentitySpec(
        "rem1.3-psi", "degree-one wrapped closed form", "mock", 1e-10,
        [{"M": 3, "eps": e, "j": j, "k": k} for e in (0, H)
         for (j, k) in ((0, 0), (1, -1))], _laws(psi_tilde, _zs(0), rem13b)))

    register(IdentitySpec(
        "eq1.9", "swap-negate antisymmetry of the assembly", "mock", 1e-12,
        [{"m": 2, "s": 0}, {"m": 1, "s": 1}],
        signed(0, lambda m, s: [((MockIndex.of(m, s), 1),
                                 lambda tau, z1, z2, t: (tau, -z2, -z1, t),
                                 (MockIndex.of(m, s), 1), -1)])))

    def placed(x, tau, z1, z2, policy):
        """the assembly at index x[0] in the wrapper frame (a, b) = (1, -1),
        M = 3, with z1 shifted by 1/2 and z2 by x[1]"""
        idx, e = x
        a, b, M = 1.0, -1.0, 3
        pref = e2pi(2 / 3 * a * b * tau + 2 / 3 * (b * z1 + a * z2))
        return pref * phi(idx, M * tau, z1 + a * tau + 0.5, z2 + b * tau + e, 0, policy)

    # the two half-shift placements agree for integer degree and index
    register(IdentitySpec(
        "eq1.10eps", "both wrapper half-shift placements agree (integer case)",
        "mock", 1e-10, [{}], _laws(placed, lambda pt: pt.zs[:2], lambda: [
            ((MockIndex.of(2, 1), 0.5), _same, (MockIndex.of(2, 1), -0.5), None)])))

    # the minus-signed family is index-shift invariant for integer indices
    # only; the half-integer minus case is recorded as failing alongside its
    # closed form
    register(IdentitySpec(
        "eq5.03", "signed half-degree index shift invariance", "mock", 1e-10,
        [{"sign": 1, "sa": H, "sb": Fraction(3, 2)},
         {"sign": 1, "sa": 0, "sb": 1}, {"sign": -1, "sa": 0, "sb": 1}],
        signed(0, lambda sign, sa, sb: [((MockIndex.of(H, sa), sign), _same,
                                         (MockIndex.of(H, sb), sign), None)])))

    def eq504(sign, eps):
        e, delta = int(2 * Fraction(eps)), 0 if sign > 0 else 1
        return [((MockIndex.of(H, eps), sign), _same, lambda tau, z1, z2, t, policy: (
            eta_theta_quotient(tau, -1j * e2pi(t / 2), ((1, 3), (1, 1, z1 + z2, 1)),
                               ((1, 1, z1, 1), (1, 1, z2, 1)), policy)
            * jacobi_theta(e, delta, tau, (z1 - z2) / 2, policy)
            / jacobi_theta(e, delta, tau, (z1 + z2) / 2, policy)), None)]

    eq504_plan = signed(0.03, eq504)

    register(IdentitySpec(
        "eq5.04", "signed half-degree closed forms (the three valid combos)",
        "mock", 1e-10,
        [{"sign": 1, "eps": 0}, {"sign": 1, "eps": H}, {"sign": -1, "eps": 0}],
        eq504_plan))

    register(IdentitySpec(
        "eq5.04x", "recorded losing convention: the minus/half-shift closed form fails",
        "mock", 1e-3, [{"sign": -1, "eps": H}], eq504_plan, check="exceeds"))


def _s_jacobi(tau, z1, z2, t):
    """the S-image of a Jacobi form in (z1, z2, t)"""
    return (-1 / tau, z1 / tau, z2 / tau, t - z1 * z2 / tau)


def _modification_pairs():
    tilde = lambda t, laws: _laws(phi_tilde, _zs(t), laws)

    def shifts(m, s):
        idx = MockIndex.of(m, s)
        return [(idx, lambda tau, z1, z2, t, a=a, b=b: (tau, z1 + a * tau, z2 + b * tau, t), idx,
                 lambda tau, z1, z2, t, a=a, b=b: e2pi(-m * a * b * tau - m * (b * z1 + a * z2)))
                for (a, b) in ((1, 0), (1, -1))]

    dom = [{"m": m, "s": s} for m in (1, 2, 3) for s in (0, H)]
    register(IdentitySpec("eq1.13", "modified assembly: integer shift invariance",
                          "modification", 1e-6, dom, tilde(0.02 - 0.01j, lambda m, s: [(
                              MockIndex.of(m, s), lambda tau, z1, z2, t: (tau, z1 + 1, z2 - 2, t),
                              MockIndex.of(m, s), None)])))
    register(IdentitySpec("eq1.14", "modified assembly: tau-lattice law",
                          "modification", 1e-6, dom, tilde(0.02, shifts)))
    register(IdentitySpec("eq1.15", "modified assembly: S-invariance",
                          "modification", 1e-6, dom, tilde(0.02, lambda m, s: [(
                              MockIndex.of(m, s), _s_jacobi, MockIndex.of(m, s),
                              lambda tau, *a: tau)]), grid=(3, 2)))
    register(IdentitySpec("eq1.16", "modified assembly: T-invariance",
                          "modification", 1e-6, dom, tilde(0.02, lambda m, s: [(
                              MockIndex.of(m, s), _T, MockIndex.of(m, s), None)])))

    register(IdentitySpec("phi_add.m1", "degree-one correction vanishes identically",
                          "modification", 0.0, [{"s": 0}, {"s": 2}],
                          _laws(phi_add, _zs(0), lambda s: [
                              (MockIndex.of(1, s), _same, _zero, None)])))

    register(IdentitySpec("lemma1.1mod", "doubling with the modified assembly",
                          "modification", 1e-8, [{"m": 1, "s": 0}, {"m": 2, "s": 1}],
                          _laws(phi_tilde, _zs(0.05), _lemma11)))

    register(IdentitySpec("sindep", "integer index independence of the modification",
                          "modification", 1e-10, [{}],
                          _laws(phi_tilde, _zs(0), lambda: [
                              (MockIndex.of(2, s), _same, MockIndex.of(2, 0), None)
                              for s in (1, 2)])))

    def one_sided(x, tau, z1, z2, t, policy):
        """e(m t) phi1_tilde: the one-sided modification as a Jacobi form"""
        v = phi1_tilde(x, tau, z1, z2, policy)
        return v if t == 0 else v * e2pi(float(x.m) * t)

    register(IdentitySpec("rem1.2", "S-invariance of the one-sided modification",
                          "modification", 1e-6, [{"m": 1}, {"m": 2}],
                          _laws(one_sided, _zs(0), lambda m: [(
                              MockIndex.of(m, 0), _s_jacobi, MockIndex.of(m, 0),
                              lambda tau, *a: tau)])))

    MM = [{"M": M, "m": m} for (M, m) in ((3, 1), (3, 2), (5, 2))]
    wrapped = lambda t, laws: _laws(psi_tilde, _zs(t), laws)

    def eq117(M, m):
        return [(PsiIndex.of(M, m, 0, H, 1, -1), _s_jacobi,
                 [(c, PsiIndex.of(M, m, 0, 0, a, b)) for c, a, b in _s_table(M, H, m, 1, -1)],
                 lambda tau, *a: tau / M)]

    register(IdentitySpec("eq1.17", "wrapped modification S-law", "modification",
                          1e-6, MM, wrapped(0.02, eq117), grid=(2, 2)))
    register(IdentitySpec("eq1.18", "wrapped modification T-law", "modification", 1e-6, MM,
                          wrapped(0.02, lambda M, m: [
                              (PsiIndex.of(M, m, 0, eps, 1, -1), _T,
                               PsiIndex.of(M, m, 0, eps, 1, -1), e2pi(-Fraction(m, M)))
                              for eps in (H, Fraction(0))])))

    def lem47(M, m):
        j, k = H, H - 1
        return [(PsiIndex.of(M, m, 0, H, j + a * M, k + b * M), _same,
                 PsiIndex.of(M, m, 0, H, j, k), e2pi(Fraction(m * (a - b), 2)))
                for (a, b) in ((1, 0), (0, 1))]

    register(IdentitySpec("lemma4.7", "wrapper index periodicity", "modification",
                          1e-8, MM, wrapped(0, lem47)))

    def lem48(M, m):
        j, k = 1, -1
        idx = PsiIndex.of(M, m, 0, 0, j, k)
        a, b = 1, -1
        A, B = H, H
        return [(idx, lambda tau, z1, z2, t: (tau, z1 + a, z2 + b, t), idx,
                 e2pi(Fraction(m * (k * a + j * b), M))),
                (idx, lambda tau, z1, z2, t: (tau, z1 + float(A), z2 + float(B), t),
                 PsiIndex.of(M, m, 0, H, j, k), e2pi(Fraction(m, M) * (k * A + j * B)))]

    register(IdentitySpec("lemma4.8", "wrapper argument shift laws", "modification",
                          1e-8, MM, wrapped(0, lem48)))

    def lem49(M, m):
        j, k = 1, 0
        A, B = H, -H
        c, cm, ca, cb = (complex(x) for x in (-Fraction(m, M) * A * B, -Fraction(m, M), A, B))
        return [(PsiIndex.of(M, m, 0, 0, j, k),
                 lambda tau, z1, z2, t: (tau, z1 + float(A) * tau, z2 + float(B) * tau, t),
                 PsiIndex.of(M, m, 0, 0, Fraction(j) + A, Fraction(k) + B),
                 lambda tau, z1, z2, t: e2pi(c * tau) * e2pi(cm * (cb * z1 + ca * z2)))]

    register(IdentitySpec("lemma4.9", "wrapper half-integer tau-shift law",
                          "modification", 1e-8, MM, wrapped(0, lem49)))

    def lem410(M, m):
        return [(PsiIndex.of(M, m, 0, 0, H, H - 1), _s_jacobi,
                 [(c, PsiIndex.of(M, m, 0, H, a, b)) for c, a, b in _s_table(M, 0, m, H, H - 1)],
                 lambda tau, *a: tau / M)]

    register(IdentitySpec("lemma4.10", "wrapper S-law at half-shifted indices",
                          "modification", 1e-6, MM, wrapped(0, lem410), grid=(2, 2)))


def _n3_pairs():
    MN = [(1, 1), (3, 1), (3, 2)]
    sectors = [{"M": M, "n": n, "sg": sg, "sgp": sgp} for (M, n) in MN
               for (sg, sgp) in ((Fraction(0), H), (H, Fraction(0)), (H, H))]
    f = lambda laws: _laws(n3.f_function, lambda pt: (pt.z,), laws)
    fidx = n3.FIndex.of

    def lem44(M, n, sg, sgp):
        idxs = [fidx(M, n, eps, sg, sgp, 1 + eps, 2 + eps) for eps in (Fraction(0), H)]
        return [(idx, _same, *n3.move_swap(idx)) for idx in idxs]

    register(IdentitySpec("lemma4.4", "f-basis skew swap", "n3", 1e-8, sectors, f(lem44)))

    def lem45(M, n):
        idx = fidx(M, n, H, Fraction(0), H, 1, 2)
        return [(idx, _same, *n3.move_translate(idx, -1, 0))]

    register(IdentitySpec("lemma4.5", "f-basis period translation", "n3", 1e-8,
                          [{"M": M, "n": n} for (M, n) in MN], f(lem45)))

    def p46a(M, n, sg, sgp):
        eps, epsp = H, Fraction(0)
        j, k = (1, 2) if M > 1 else (0, 0)
        ph = e2pi(Fraction(n, 2 * M) * sg * sgp)
        eps_s = abs(epsp - sgp)
        return [(fidx(M, n, eps, sg, sgp, j, k), _S,
                 [(c, fidx(M, n, eps_s, sgp, sg, a, b))
                  for c, a, b in _s_table(M, eps, n, j, k, sgp)],
                 lambda tau, z: tau / M * e2pi(n * z * z / (4 * M * tau)) * ph)]

    register(IdentitySpec("prop4.6a", "f-basis S-transform", "n3", 1e-6, sectors, f(p46a),
                          grid=(2, 2)))

    def p46b(M, n, sg):
        j, k = (1, 2) if M > 1 else (0, 0)
        base = e2pi(Fraction(n, M) * (Fraction(j * k) - Fraction(1, 16)))
        if sg == 0:
            tw = (fidx(M, n, H, H, H, j, k), base)
        else:
            tw = (fidx(M, n, Fraction(0), 0, H, j, k),
                  base * e2pi(Fraction(n, M) * Fraction(k - j, 2)))
        return [(fidx(M, n, H, sg, 0, j, k), _T, fidx(M, n, H, sg, 0, j, k),
                 e2pi(Fraction(n * j * k, M))),
                (fidx(M, n, H, sg, H, j, k), _T, *tw)]

    register(IdentitySpec(
        "prop4.6b", "f-basis T-transforms", "n3", 1e-8,
        [{"M": M, "n": n, "sg": sg} for (M, n) in MN for sg in (Fraction(0), H)],
        f(p46b)))

    def rem415(M, n, variant):
        # relations obtained by composing the swap and translation moves
        sg, sgp = (H, H) if variant == 3 else (H, Fraction(0))
        idx = fidx(M, n, H, sg, sgp, Fraction(2 * M + 1, 2), Fraction(M + 2, 2))
        mid, p1 = n3.move_swap(idx)
        fin, p2 = n3.move_translate(mid, math.floor(mid.j.value / M),
                                    math.floor(mid.k.value / M))
        return [(idx, _same, fin, p1 * p2)]

    for variant, eqid in ((1, "eq4.23"), (2, "eq4.24"), (3, "eq4.25")):
        register(IdentitySpec(
            eqid, "composed swap/translation index relation", "n3", 1e-6,
            [{"M": 3, "n": 1, "variant": variant}, {"M": 3, "n": 2, "variant": variant}],
            f(rem415)))

    def rem413(M, eps, sg, sgp):
        j, k = (1, 2) if M > 1 else (0, 0)
        idx, e, fs, fsp = fidx(M, 1, eps, sg, sgp, j, k), float(eps), float(sg), float(sgp)
        ph = -1j * e2pi(Fraction(1, 2 * M) * (k - j) * sg)
        c1, c2, c3, cz = (complex(c) for c in (Fraction(1, M), j + sgp / 2, k - sgp / 2,
                                               Fraction(1, 2 * M) * (j + k)))

        def closed(tau, z, policy):
            pref = ph * e2pi(tau * c1 * c2 * c3) * e2pi(cz * z)
            num = (dedekind_eta(M * tau, policy) ** 3
                   * jacobi_theta(1, 1, M * tau, z + (j + k) * tau, policy))
            d1 = jacobi_theta(1, 1, M * tau, (z + fs + fsp * tau) / 2 + j * tau + e, policy)
            d2 = jacobi_theta(1, 1, M * tau, (z - fs - fsp * tau) / 2 + k * tau - e, policy)
            return pref * num / (d1 * d2)
        return [(idx, _same, closed, None)]

    register(IdentitySpec(
        "rem4.13", "f-basis closed form at unit degree", "n3", 1e-9,
        [{"M": M, "eps": e, "sg": sg, "sgp": sgp} for M in (1, 3) for e in (Fraction(0), H)
         for (sg, sgp) in ((Fraction(0), H), (H, H))], f(rem413)))

    def rem414(n):
        out = []
        for eps in (Fraction(0), H):
            out += [(fidx(1, n, eps, H, H, H, H), _same, fidx(1, n, H - eps, H, H, 0, 0),
                     e2pi(n * (Fraction(eps) + Fraction(1, 4)))),
                    (fidx(1, n, eps, Fraction(0), H, H, H), _same,
                     fidx(1, n, eps, Fraction(0), H, 0, 0), e2pi(n * Fraction(eps)))]
        return out

    register(IdentitySpec("rem4.14", "f-basis reductions at modular scale one",
                          "n3", 1e-8, [{"n": 1}, {"n": 2}], f(rem414)))

    def eq5x(m2, which):
        # (numerator, unit constant, theta labels of the z1 and z2
        # denominators, b label of the (z1 + z2)/2 theta, twisted); the
        # character and twisted rows carry recorded unit constants pinned by
        # the collapsing-level identities
        num, u, (a, b), b1, twisted = {
            5: (n3.supercharacter_numerator, 1j, (1, 1), 0, False),
            6: (n3.supercharacter_numerator, -1j, (0, 1), 0, False),
            7: (n3.character_numerator, (-1j) ** (m2 + 1) * 1j, (1, 0), 1, False),
            8: (n3.character_numerator, (-1j) ** (m2 + 1) * 1j, (0, 0), 1, False),
            9: (n3.twisted_character_numerator, (1j) ** (m2 + 1) * 1j, (1, 0), 1, True),
            10: (n3.twisted_character_numerator, (-1j) ** (1 - m2) * -1j, (0, 0), 1, True),
        }[which]
        dotted = which % 2 == 0
        w = n3.N3Weight(dotted, Fraction(-3, 4), m2)
        c = m2 if dotted else 1 - m2

        def closed(tau, z1, z2, t, policy):
            pre = u * e2pi(-t / 4)
            s = tau if twisted else 0   # subtracting 0 leaves a complex as it is
            if twisted:
                pre = pre * e2pi(-tau / 16) * e2pi((z1 + z2) / 8)
            return eta_theta_quotient(
                2 * tau, pre, ((1, 3), (1, 1, z1 - z2, 1), (1 - m2, b1, (z1 + z2 - s) / 2, 1)),
                ((a, b, z1 - s / 2, 1), (a, b, z2 - s / 2, 1), (c, 0, (z1 - z2) / 2, 1)), policy)
        return [((num, w, False), _same, closed, None)]

    for which in (5, 6, 7, 8, 9, 10):
        register(IdentitySpec(
            f"eq5.{which:02d}", "collapsing-level numerator closed form", "n3",
            1e-9, [{"m2": 0, "which": which}, {"m2": 1, "which": which}],
            _laws(_call, _zs(0.04), eq5x)))

    # the index of a numerator family member is its integrable weight
    def eq35(m, m2):
        w = n3.N3Weight(False, Fraction(m), m2)
        return [(w, lambda tau, z1, z2, t: (tau, -z2 + tau, -z1 + tau, t - z1 - z2 + tau),
                 n3.N3Weight(True, w.m, w.n - m2), None)]

    register(IdentitySpec("eq3.5", "reflection pairing of the two numerator families",
                          "n3", 1e-9, [{"m": -1, "m2": m2} for m2 in (0, 1, 2)],
                          _laws(lambda w, tau, z1, z2, t, policy: n3.b_value(
                              w, tau, z1, z2, t, False, policy), _zs(0.03), eq35)))

    def p37(m, M, J, k1, k2, dotted, modified):
        w = n3.N3Weight(dotted, Fraction(m), 1, M, J, k1, k2)
        return [((n3.numerator_B, w, modified), _same,
                 (n3.admissible_numerator_psi, w, modified), None)]

    register(IdentitySpec(
        "prop3.7", "translated numerators vs wrapped assembly", "n3", 1e-9,
        [{"m": Fraction(-3, 4), "M": 3, "J": J, "k1": k1, "k2": k2,
          "dotted": d, "modified": mod}
         for (J, k1, k2) in (("I", 0, 1), ("III", 0, 1)) for d in (False, True)
         for mod in (False, True)], _laws(_call, _zs(0.03), p37)))

    def th411(m, M, J, k1, k2, dotted):
        w = n3.N3Weight(dotted, Fraction(m), 1, M, J, k1, k2)
        n_ = w.n
        if J == "I":
            jj = Fraction(k1 + (M if dotted else 0), 2)
            kk = -Fraction(k1 + 2 * k2 - (M if dotted else 0), 2)
        else:
            jj = Fraction(k1 + 2 * k2 - (M if dotted else 0), 2)
            kk = -Fraction(k1 + (M if dotted else 0), 2)
        # the exact scalars: the sign of admissible_numerator_psi, divided
        # for the characters by the constant character_numerator applies
        sign = 0.5 if J == "I" else -0.5
        char_sign = sign / (1j * e2pi(-n3._lambda_theta(w) / 2))
        sgn = (-1.0) ** w.m2
        shifted = lambda tau, z: (tau, z + tau / 2, -z + tau / 2, tau / 4)
        diagonal = lambda tau, z: (tau, z, -z, 0.0)
        # (numerator, image, scalar, sigma, sigma') per sector
        return [((num, w, True), image,
                 [(1.0, (n3.f_function, n3.FIndex.of(M, n_, 0, sg, sgp, jj, kk))),
                  (-sgn, (n3.f_function, n3.FIndex.of(M, n_, H, sg, sgp, jj, kk)))], c)
                for num, image, c, sg, sgp in (
                    (n3.character_numerator, shifted, char_sign, H, H),
                    (n3.supercharacter_numerator, shifted, sign, Fraction(0), H),
                    (n3.character_numerator, diagonal, char_sign, H, Fraction(0)))]

    register(IdentitySpec(
        "th4.11", "reduced numerators equal f-combinations up to scalars", "n3",
        1e-7, [{"m": Fraction(-3, 4), "M": 3, "J": "I", "k1": 0, "k2": 1, "dotted": False},
               {"m": Fraction(-3, 4), "M": 3, "J": "III", "k1": 0, "k2": 1, "dotted": True},
               {"m": Fraction(-1, 1), "M": 3, "J": "I", "k1": 1, "k2": 0, "dotted": False}],
        _laws(_call, lambda pt: (pt.z,), th411), grid=(4, 3)))

    def c1(dotted, m2, sector, s):
        if s is None:
            y = _zero
        else:
            idx = ThetaIndex.of(s, 1)
            y = lambda tau, z, policy: theta_jm(idx, tau, z, 0, policy) / dedekind_eta(tau, policy)
        return [((n3.qhr_character, n3.N3Weight(dotted, Fraction(-3, 4), m2), sector, False),
                 _same, y, None)]

    register(IdentitySpec(
        "n3.c1", "collapsing-level reduced characters equal degree-one theta quotients",
        "n3", 1e-8,
        [{"dotted": False, "m2": 0, "sector": "ns_minus", "s": 0},
         {"dotted": False, "m2": 0, "sector": "ns_plus", "s": 0},
         {"dotted": True, "m2": 1, "sector": "ns_minus", "s": 0},
         {"dotted": True, "m2": 1, "sector": "ns_plus", "s": 0},
         {"dotted": False, "m2": 1, "sector": "ramond", "s": 0},
         {"dotted": False, "m2": 1, "sector": "ns_minus", "s": 1},
         {"dotted": False, "m2": 1, "sector": "ns_plus", "s": 1},
         {"dotted": True, "m2": 0, "sector": "ns_minus", "s": 1},
         {"dotted": True, "m2": 0, "sector": "ns_plus", "s": 1},
         {"dotted": True, "m2": 1, "sector": "ramond", "s": 1},
         {"dotted": False, "m2": 0, "sector": "ramond", "s": None},
         {"dotted": True, "m2": 0, "sector": "ramond", "s": None}],
        _laws(_call, lambda pt: (pt.z,), c1), grid=(3, 2)))


def _balanced_table(M: int, eps, m: int, j, k) -> list:
    """(c, a0, b0) for each (c, a, b) of _s_table(M, eps, -m, j, k), with a0, b0
    the representatives of a, b in [-M/2, M/2): they keep the evaluations well
    conditioned at small Im tau, where the raw ones carry huge inverse nome
    powers.  At the target shift eps' = 0, a translation by M has no phase.
    In twice their values, a0 = a - floor(a/M + 1/2) M is 2a - (2a + M) //
    2M * 2M."""
    def balanced(x):
        return HalfInt(x.twice - (x.twice + M) // (2 * M) * 2 * M)

    return [(c, balanced(a), balanced(b)) for c, a, b in _s_table(M, eps, -m, j, k)]


def _n4_pairs():
    # the index of a derivative wrapper of degree m is the index
    # (M, -m, 0, eps, j, k) of its modified wrapper; at scale one with no
    # shifts, (1, -m, 0, 0, 0, 0), it is the derivative numerator
    # (D0 + m (z1-z2)/(2 tau)) of the modified assembly at index (-m, 0)
    wrapper = lambda M, m, eps, j, k: PsiIndex.of(M, -m, 0, eps, j, k)
    scale_one = lambda m: wrapper(1, m, 0, 0, 0)
    # the S-image of a Jacobi form of negative index in (z1, z2, t)
    s_dual = lambda tau, z1, z2, t, *_: (-1 / tau, z1 / tau, z2 / tau, t + z1 * z2 / tau)

    def lem63(m):
        # the S-law, then the collapse on (z + a tau, z + b tau) at z + u,
        # u = 0 and 1/2, with the phase ph = e(m u (a + b))
        idx, x = MockIndex.of(-m, 0), scale_one(m)
        a, b = 1, 0
        return [(x, s_dual, x, lambda tau, *_: tau ** 2)] + [
            (x, lambda tau, z1, z2, t, z, u=u: (tau, z + u + a * tau, z + u + b * tau,
                                                t - (a + b) * z),
             lambda tau, z1, z2, t, z, policy, u=u, ph=ph: (
                 m / 2 * (b - a) * ph * e2pi(m * a * b * tau) * e2pi(m * t)
                 * phi_tilde(idx, tau, z + u, z + u, 0, policy)), None)
            for u, ph in ((0, 1), (0.5, e2pi(Fraction(m, 2))))]

    # the point is (z1, z2, t, z), and the derivative numerator reads the
    # first four of its arguments
    register(IdentitySpec("lemma6.3", "derivative numerator: S and collapse laws",
                          "n4", 1e-6, [{"m": -1}, {"m": -2}],
                          _laws(lambda x, *a: n4.psi_P(x, *a[:4], a[-1]),
                                lambda pt: (pt.zs[0], pt.zs[1], 0.03, pt.zs[2]), lem63)))

    def dual_tilde(idx, tau, z1, z2, t, m, policy):
        """e(m t) phi_tilde(idx, tau, z1, z2, 0), a Jacobi form of index m"""
        return e2pi(m * t) * phi_tilde(idx, tau, z1, z2, 0.0, policy)

    def lem62(m):
        # hypothesis and conclusion of the derivative transfer, instantiated
        # on the modified assembly: the S-law and swap symmetry of the input
        # together with the S-law of its derivative combination
        f, g = (dual_tilde, MockIndex.of(-m, 0), m), (n4.psi_P, scale_one(m))
        return [(f, s_dual, f, lambda tau, *a: tau),
                (f, lambda tau, z1, z2, t: (tau, z2, z1, t), f, None),
                (g, s_dual, g, lambda tau, *a: tau ** 2)]

    register(IdentitySpec("lemma6.2", "derivative transfer: hypothesis and conclusion",
                          "n4", 1e-6, [{"m": -2}], _laws(_call, _zs(0.03), lem62)))

    def collapse(m, numerator):
        # the derivative numerator at (z + tau/2, z - tau/2, tau/4) (lemma6.4,
        # c = -m/2) or the modified assembly there at t = -tau/4 (rem6.5,
        # c = 1) is, for h = +-1, c e(-h m z) e(-m tau/4) Phi~^{[-m;0]} on
        # the diagonal z + h tau/2
        idx = MockIndex.of(-m, 0)
        x, c, sign = (scale_one(m), -m / 2, 1) if numerator else (idx, 1, -1)
        image = lambda tau, z: (tau, z + tau / 2, z - tau / 2, sign * tau / 4)
        return [(x, image, lambda tau, z, policy, h=h: (
                    c * e2pi(-h * m * z) * e2pi(-m * tau / 4)
                    * phi_tilde(idx, tau, z + h * tau / 2, z + h * tau / 2, 0, policy)), None)
                for h in (1, -1)]

    register(IdentitySpec("lemma6.4", "derivative numerator collapse on the shifted diagonal",
                          "n4", 1e-7, [{"m": -1}, {"m": -2}],
                          _laws(n4.psi_P, lambda pt: (pt.z,), lambda m: collapse(m, True))))
    register(IdentitySpec("rem6.5", "modified assembly collapse on the shifted diagonal",
                          "n4", 1e-8, [{"m": -1}, {"m": -2}],
                          _laws(phi_tilde, lambda pt: (pt.z,), lambda m: collapse(m, False))))

    # the index of a reduced character is (weight, sector)
    integrable = lambda x, tau, z, policy: n4.qhr_character_integrable(x[0], tau, z, x[1], policy)

    def p71a(m, m2):
        idx, plus, m0 = MockIndex.of(-m, 0), n4.SECTORS["plus"], m + m2
        return [((n4.N4Weight(m, m2), "plus"), _same, lambda tau, z, policy: (
            -((-1.0) ** m) * m0 * e2pi(m * z) * e2pi(-m * tau / 4)
            * phi_tilde(idx, tau, z + 0.5 - tau / 2, z + 0.5 - tau / 2, 0, policy)
            / n4.n4_denominator(tau, z, plus, policy)), None)]

    register(IdentitySpec("prop7.1a", "two closed forms of the reduced character agree",
                          "n4", 1e-8, [{"m": -1, "m2": 0}, {"m": -2, "m2": 1}],
                          _laws(integrable, lambda pt: (pt.z,), p71a)))

    def denominated(x, tau, z, policy):
        """the reduced character at index x = (weight, sector) times its denominator"""
        return integrable(x, tau, z, policy) * n4.n4_denominator(tau, z, n4.SECTORS[x[1]], policy)

    def p72(m, rel):
        w = n4.N4Weight(m, 1 if m < -1 else 0)
        if rel < 4:
            s1, s2, c = [("plus", "plus", (-1.0) ** m), ("minus", "plus_tw", -1.0),
                         ("plus_tw", "minus", -1.0), ("minus_tw", "minus_tw", 1.0)][rel]
            return [((w, s1), _S, (w, s2), lambda tau, z: c * tau * e2pi(-m * z * z / tau))]
        s1, s2, c = [("plus", "minus", e2pi(Fraction(m, 4))), ("plus_tw", "plus_tw", 1.0)][rel - 4]
        return [((w, s1), _T, (w, s2), c)]

    register(IdentitySpec("prop7.2", "reduced-character S and T relations", "n4",
                          1e-6, [{"m": m, "rel": r} for m in (-1, -2) for r in range(6)],
                          _laws(denominated, lambda pt: (pt.z,), p72), grid=(3, 2)))

    def th73b(m, eps, epsp):
        w = n4.N4Weight(m, 1 if m < -1 else 0)
        names = {sector: name for name, sector in n4.SECTORS.items()}
        sec = lambda e, ep: names[n4.Sector.of(e, ep)]
        cm = -6 * (m + 1)
        # sign and phase constants re-derived in the anchored normalization
        # (the trivial module at level -1 has all characters equal to 1)
        sgn = (-1.0) ** ((m + 1) * int(2 * eps) * int(2 * epsp))
        return [((w, sec(eps, epsp)), _S, (w, sec(epsp, eps)),
                 lambda tau, z: sgn * cmath.exp(1j * math.pi * cm * z * z / (3 * tau))),
                ((w, sec(eps, epsp)), _T, (w, sec(abs(eps - epsp), epsp)),
                 e2pi(Fraction((m + 1) * int(2 * epsp), 4)))]

    register(IdentitySpec("th7.3b", "reduced-character laws in shift notation", "n4",
                          1e-6, [{"m": m, **e} for m in (-1, -2) for e in EPS_PAIRS],
                          _laws(integrable, lambda pt: (pt.z,), th73b), grid=(2, 2)))

    def rem74(m):
        # deliberately wrong twist: the S-relation must fail visibly
        w, minus_tw, plus_tw = n4.N4Weight(m, 1), n4.SECTORS["minus_tw"], n4.SECTORS["plus_tw"]

        def bad(tau, z, policy):
            w1, w2, wt = n4.w0_prime_point(tau, z + tau / 2, z - tau / 2, tau / 4)
            num = n4.numerator(w, tau, w1, w2, wt, "minus", policy)
            bad_tw = num / n4.n4_denominator(tau, z, minus_tw, policy)
            return (-tau * e2pi(-m * z * z / tau) * bad_tw
                    * n4.n4_denominator(tau, z, plus_tw, policy))
        return [((w, "minus"), _S, bad, None)]

    register(IdentitySpec("rem7.4x", "alternative twist breaks the S-relation (recorded)",
                          "n4", 1e-2, [{"m": -2}], _laws(denominated, lambda pt: (pt.z,), rem74),
                          grid=(2, 2), check="exceeds"))

    psi_p = lambda laws: _laws(n4.psi_P, _zs(0.02), laws)
    diagonal = lambda tau, z1, z2, t: (tau, z1 + 1, z2 + 1, t)

    def lem82(M, m):
        j, k = Fraction(3, 2), -H
        x = wrapper(M, m, H, j, k)
        return [(x, lambda tau, z1, z2, t: (tau, z2, z1, t), wrapper(M, m, H, k, j), -1),
                (x, lambda tau, z1, z2, t: (tau, -z1, -z2, t), wrapper(M, m, H, -j, -k), None)]

    register(IdentitySpec("lemma8.2", "derivative wrapper swap and negation laws",
                          "n4", 1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}], psi_p(lem82)))

    def lem83(M, m):
        j, k = Fraction(3, 2), -H
        x0, x = scale_one(m), wrapper(M, m, H, j, k)
        return [(x0, diagonal, x0, None),
                (x, diagonal, x, e2pi(-Fraction(m, M) * (j + k)))]

    register(IdentitySpec("lemma8.3", "derivative wrapper diagonal shifts", "n4",
                          1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}], psi_p(lem83)))

    def lem85(M, m):
        j, k = 1, 0
        idx, x0 = MockIndex.of(-m, 0), scale_one(m)
        c, cm, cj, ck, cv = (complex(x) for x in (-Fraction(m, M) * j * k, -Fraction(m, M),
                                                  j, k, Fraction(m * (j - k), 2 * M)))

        def explicit(tau, z1, z2, t, policy):
            pref = e2pi(c * tau) * e2pi(cm * (ck * z1 + cj * z2))
            g = n4.psi_P(x0, M * tau, z1 + cj * tau, z2 + ck * tau, 0, policy)
            v = phi_tilde(idx, M * tau, z1 + cj * tau, z2 + ck * tau, 0, policy)
            return pref * (g + cv * v)
        return [(wrapper(M, m, 0, j, k), _same, explicit, None)]

    register(IdentitySpec("lemma8.5", "derivative wrapper explicit form", "n4",
                          1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}],
                          _laws(n4.psi_P, _zs(0), lem85)))

    def lem84(M, m):
        # termwise derivative of the modification at index-shifted arguments
        # in terms of the derivative numerator and the multiplier split
        j, k, eps = 1, -1, 0.5
        idx, x0 = MockIndex.of(-m, 0), scale_one(m)
        c = complex(Fraction(m * (j - k), 2 * M))
        image = lambda tau, z1, z2, t: (M * tau, z1 + j * tau + eps, z2 + k * tau + eps, t)

        def split(tau, z1, z2, t, policy):
            u = image(tau, z1, z2, t)
            v = phi_tilde(idx, *u, policy, want_d0=True)[0]
            g = n4.psi_P(x0, *u, policy)
            return g - (m * (z1 - z2) / (2 * M * tau) + c) * v
        return [(idx, image, split, None)]

    # the member is the D0 part of the modification
    register(IdentitySpec("lemma8.4", "shifted-argument derivative split", "n4",
                          1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}],
                          _laws(lambda x, *a: phi_tilde(x, *a, want_d0=True)[1], _zs(0.0), lem84)))

    register(IdentitySpec("rem8.6", "scale-one derivative wrapper vanishes on the diagonal",
                          "n4", 1e-10, [{"m": -1, "eps": Fraction(0)}, {"m": -2, "eps": H}],
                          _laws(n4.psi_P, lambda pt: (pt.z, pt.z, 0.07), lambda m, eps: [
                              (wrapper(1, m, eps, *((1, 0) if eps == 0 else (H, -H))), _same,
                               _zero, None)])))

    # psi_P on the diagonal z1 = z2, where its T-law holds
    on_diagonal = lambda x, tau, z1, z2, t, policy: n4.psi_P(x, tau, z1, z1, t, policy)

    def p87(M, m, which):
        eps, epsp = H, Fraction(0)
        j, k = 1, -1
        x = wrapper(M, m, eps, j, k)
        if which == "T":
            # off the diagonal the tau-dependent multiplier spoils the T-shift,
            # so the T-law is the diagonal statement used by the chi basis
            ph = e2pi(-Fraction(m, M) * j * k)
            return [((on_diagonal, x), _T, (on_diagonal, wrapper(M, m, abs(eps - epsp), j, k)),
                     ph)]
        cm = complex(-Fraction(m, M))
        return [((n4.psi_P, x), _S_t, [(c, (n4.psi_P, wrapper(M, m, epsp, a0, b0)))
                                       for c, a0, b0 in _balanced_table(M, eps, m, j, k)],
                 lambda tau, z1, z2, t: tau ** 2 / M * e2pi(cm * z1 * z2 / tau))]

    register(IdentitySpec("prop8.7", "derivative wrapper S and T laws", "n4", 1e-6,
                          [{"M": M, "m": m, "which": w} for (M, m) in ((2, -1), (3, -2))
                           for w in ("S", "T")], _laws(_call, _zs(0.02), p87), grid=(2, 2)))

    def rem88(M, m):
        # the wrapper and the derivative wrapper share their indices
        j, k = H, -H
        y = wrapper(M, m, H, j, k)
        rows = []
        for (a, b) in ((1, 0), (0, 1)):
            x, ph = wrapper(M, m, H, j + a * M, k + b * M), e2pi(Fraction(m * (a - b), 2))
            rows += [((f, x), _same, (f, y), ph) for f in (psi_tilde, n4.psi_P)]
        return rows

    register(IdentitySpec("rem8.8", "wrapper and derivative wrapper index periodicity",
                          "n4", 1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}],
                          _laws(_call, _zs(0), rem88)))

    def th96(M, m, J, k1, k2, m2):
        w = n4.N4Weight(m, m2, M, J, k1, k2)
        return [((n4.qhr_character_admissible, w, sector), _same,
                 lambda tau, z, policy, sector=sector, sec=sec: (
                     n4.numerator(w, tau, z + tau / 2, z - tau / 2, tau / 4, sector, policy)
                     / n4.n4_denominator(tau, z, sec, policy)), None)
                for sector, sec in n4.SECTORS.items()]

    register(IdentitySpec(
        "th9.6", "chi assembly equals the substituted numerators", "n4", 1e-8,
        [{"M": 1, "m": -1, "J": "I", "k1": 0, "k2": 0, "m2": 0},
         {"M": 3, "m": -2, "J": "I", "k1": 1, "k2": 0, "m2": 1},
         {"M": 3, "m": -2, "J": "III", "k1": 0, "k2": 1, "m2": 0}],
        _laws(_call, lambda pt: (pt.z,), th96), grid=(2, 2)))

    chi = lambda laws: _laws(n4.chi, lambda pt: (pt.z,), laws)

    def th97(M, m, alpha, which):
        eps, epsp = H, Fraction(0)
        j, k = 1, -1
        x = n4.ChiIndex.of(alpha, M, m, eps, epsp, j, k)
        if which == "T":
            return [(x, _T, n4.ChiIndex.of(alpha, M, m, abs(eps - epsp), epsp, j, k),
                     e2pi(-Fraction(m, M) * j * k - Fraction(1, 2) * epsp))]
        sgn = -((-1.0) ** ((1 - 2 * float(eps)) * (1 - 2 * float(epsp))))
        cw = -2j * math.pi * (Fraction(m, M) + 1)
        return [(x, _S, [(c, n4.ChiIndex.of(alpha, M, m, epsp, eps, a0, b0))
                         for c, a0, b0 in _balanced_table(M, eps, m, j, k)],
                 lambda tau, z: sgn * tau ** alpha / M * cmath.exp(cw * z * z / tau))]

    register(IdentitySpec("th9.7", "chi S and T laws", "n4", 1e-6,
                          [{"M": M, "m": m, "alpha": a, "which": w}
                           for (M, m) in ((2, -1), (3, -2)) for a in (0, 1)
                           for w in ("S", "T")], chi(th97), grid=(2, 2)))

    def th98a(M, m, alpha):
        eps, epsp = H, Fraction(0)
        j, k = Fraction(3, 2), H
        # the S-sum over (a, b) in (eps + {0..M-1})^2, a outer, and its
        # rewriting over a <= b with sine (alpha = 1) or cosine weights
        cells = [(c, n4.ChiIndex.of(alpha, M, m, epsp, eps, a0, b0))
                 for c, a0, b0 in _balanced_table(M, eps, m, j, k)]
        terms = []
        for ia in range(M):
            for ib in range(ia + alpha, M):   # alpha = 1 leaves out a = b
                a, b = Fraction(eps) + ia, Fraction(eps) + ib
                arg = math.pi * float(Fraction(m, M) * (k - j) * (a - b))
                ph = cmath.exp(1j * math.pi * float(Fraction(m, M) * (j + k) * (a + b)))
                w = (2j * ph * math.sin(arg) if alpha == 1
                     else (2 - (1 if a == b else 0)) * ph * math.cos(arg))
                terms.append((w, cells[ia * M + ib][1]))
        return [(cells, _same, terms, None)]

    register(IdentitySpec("th9.8a", "sine/cosine rewriting of the chi S-sum", "n4",
                          1e-8, [{"M": M, "m": m, "alpha": a}
                                 for (M, m) in ((2, -1), (3, -2)) for a in (0, 1)],
                          chi(th98a), grid=(2, 2)))

    def rem95(M, m):
        j, k = Fraction(3, 2), -H
        x1, x2, x3, x4, x5 = (n4.ChiIndex.of(alpha, M, m, H, H, jj, kk) for alpha, jj, kk in (
            (1, j, k), (1, k, j), (0, j, k), (0, k, j), (1, j, j)))
        x6 = n4.ChiIndex.of(1, 1, m, H, Fraction(0), 1, 0)
        return [(x1, _same, x2, -1), (x3, _same, x4, None),
                (x5, _same, _zero, None), (x6, _same, _zero, None)]

    register(IdentitySpec("rem9.5", "chi symmetries and vanishing", "n4", 1e-10,
                          [{"M": 3, "m": -2}], chi(rem95)))


def _d21a_pairs():
    # (p, q, n) of the laws at a = -2/3; every plan builds its own D21Params,
    # so the data a plan's objects form lives as long as the plan
    P211 = (2, 1, 1)

    # the index of a numerator function is a D21Index
    pq = lambda laws: _laws(lambda x, tau, z1, z2, z3, t, policy: d2.PQ_function(
        x, tau, z1, z2, z3, t, "minus", policy), lambda pt: (*pt.zs, 0.03), laws)
    image = lambda action: lambda tau, *a: (tau, *action(tau, *a))

    def lem1012(p, q, n, which):
        pr = d2.D21Params(p, q, n)
        j = 1
        x = d2.D21Index.of(which, j, pr)
        refl = 2 * n * (pr.p if which == "P" else pr.q)
        return [(x, image(action), d2.D21Index.of(which, y, pr), -1)
                for action, y in ((d2.r_theta, -j), (d2.r_alpha2, j), (d2.r_alpha3, j),
                                  (d2.r_alpha0, -j - refl))]

    register(IdentitySpec("lemma10.12", "reflection action on the numerator families",
                          "d21a", 1e-8,
                          [{"p": 2, "q": 1, "n": 1, "which": w} for w in ("P", "Q")],
                          pq(lem1012)))

    def st_laws(which, pr, eps, epsp):
        """[S-law, T-law] at j = 1 of `which` in the sector (eps, eps'): P, Q at
        (0, 0), where the shift factors are e(0) = 1, and f, g.  The S-image
        is a row of the degree-2n(p+q) Theta S-matrix."""
        big = 2 * pr.n * (pr.p + pr.q)
        deg = pr.n * (pr.p if which in "Pf" else pr.q)
        j = 1
        ph = e2pi(2 * deg * Fraction(eps) * Fraction(epsp))
        K = complex(pr.K)
        x = d2.D21Index.of(which, j, pr, eps, epsp)
        return [(x, _S_t, [(e2pi(Fraction(-j * k, big)), d2.D21Index.of(which, k, pr, epsp, eps))
                           for k in range(big)],
                 lambda tau, z1, z2, z3, t: (
                     ph * cmath.sqrt(-1j * tau) * tau / math.sqrt(big)
                     * e2pi(K * d2.zz_value(pr, z1, z2, z3) / (2 * tau)))),
                (x, _T, d2.D21Index.of(which, j, pr, abs(Fraction(eps) - Fraction(epsp)), epsp),
                 e2pi(-deg * Fraction(epsp) ** 2) * e2pi(Fraction(j * j, 2 * big)))]

    register(IdentitySpec("prop10.21", "numerator family S and T laws", "d21a", 1e-6,
                          [{"p": p, "q": 1, "n": 1, "which": w, "lab": lab}
                           for p in (1, 2) for w in ("P", "Q") for lab in ("S", "T")],
                          pq(lambda p, q, n, which, lab: [
                              st_laws(which, d2.D21Params(p, q, n), 0, 0)["ST".index(lab)]]),
                          grid=(2, 2)))

    def lem112():
        pr = d2.D21Params(*P211)
        j = 1
        big = pr.n * (pr.p + pr.q)
        # (variant, the f or g index, sign) with the shifted index j + shift
        rows = [(variant, d2.D21Index.of("P" if which == "f" else "Q", j, pr),
                 d2.D21Index.of(which, j + shift, pr, el, epl), sgn)
                for variant, which, el, epl, shift, sgn in (
                    ("minus", "f", Fraction(0), Fraction(0), 0, 1.0),
                    ("plus", "f", H, Fraction(0), 0, 1.0),
                    ("minus_tw", "f", Fraction(0), H, 0, -1.0),
                    ("plus_tw", "f", H, H, 0, -1.0),
                    ("minus", "g", Fraction(0), Fraction(0), 0, 1.0),
                    ("minus_tw", "g", Fraction(0), H, big, -1.0),
                    ("plus", "g", H, Fraction(0), 0, (-1.0) ** j),
                    ("plus_tw", "g", H, H, big, -((-1.0) ** (j + pr.n * pr.p))))]

        return [((d2.PQ_function, x, variant), _same, (d2.fg_lower, y), sgn)
                for variant, x, y, sgn in rows]

    register(IdentitySpec("lemma11.2", "sector variants in terms of the shifted basis",
                          "d21a", 1e-8, [{}], _laws(_call, lambda pt: (*pt.zs, 0.02), lem112)))

    def lem117(eps, epsp):
        pr = d2.D21Params(*P211)
        flip = H - epsp
        hr = lambda tau, y2, y3: (tau, *d2.hr_point(tau, y2, y3))
        return [((d2.fg_lower, d2.D21Index.of(low, 1, pr, eps, epsp)), hr,
                 (d2.FG_function, d2.D21Index.of(up, 1 + pr.n * k, pr, eps, flip)), None)
                for low, up, k in (("f", "F", pr.p), ("g", "G", pr.q))]

    register(IdentitySpec("lemma11.7", "Hamiltonian reduction of the basis functions",
                          "d21a", 1e-8, EPS_PAIRS, _laws(_call, lambda pt: pt.zs[:2], lem117)))

    # the index of a reduced basis function is a D21Index
    fg = lambda laws: _laws(d2.FG_function, lambda pt: pt.zs[:2], laws)
    big = 3   # n (p + q) at P211

    def rem116():
        pr = d2.D21Params(*P211)
        F = lambda j: d2.D21Index.of("F", j, pr, 0, H)
        return [(F(-1), _same, F(1), -1), (F(1 + 2 * big), _same, F(1), None),
                (F(big + 1), _same, F(big - 1), -1)]

    register(IdentitySpec("rem11.6", "index symmetries of the reduced basis",
                          "d21a", 1e-10, [{}], fg(rem116)))

    def lem118(which, eps, epsp):
        pr = d2.D21Params(*P211)
        deg = pr.n * (pr.p if which == "F" else pr.q)
        j = 1
        ph = e2pi(2 * deg * Fraction(eps) * Fraction(epsp))
        x = d2.D21Index.of(which, j, pr, eps, epsp)
        return [(x, _S,
                 [(math.sin(math.pi * j * k / big), d2.D21Index.of(which, k, pr, epsp, eps))
                  for k in range(1, big)],
                 lambda tau, y2, y3: ((-1j * tau) ** 1.5 * ph * math.sqrt(2.0 / big) * e2pi(
                     pr.n * (pr.q * y2 * y2 + pr.p * y3 * y3) / (4 * tau)))),
                (x, _T, d2.D21Index.of(which, j, pr, abs(Fraction(eps) - Fraction(epsp)), epsp),
                 e2pi(Fraction(j * j, 4 * big)) * e2pi(-deg * Fraction(epsp) ** 2))]

    register(IdentitySpec("lemma11.8", "reduced basis S and T laws", "d21a", 1e-6,
                          [{"which": w, **e} for w in ("F", "G") for e in EPS_PAIRS],
                          fg(lem118), grid=(2, 2)))

    b4 = lambda laws: _laws(lambda x, tau, y2, y3, policy: d2.b4_denominator(
        tau, y2, y3, x, policy), lambda pt: pt.zs[:2], laws)

    def eq1113(eps, epsp):
        sgn = -((-1.0) ** ((1 - 2 * float(eps)) * (1 - 2 * float(epsp))))
        return [(n4.Sector.of(eps, epsp), _S, n4.Sector.of(epsp, eps), lambda tau, y2, y3: (
            sgn * (-1j * tau) ** 1.5 * cmath.exp(1j * math.pi * (y2 * y2 + y3 * y3) / (2 * tau))))]

    register(IdentitySpec("eq11.13", "reduced denominator S-law", "d21a", 1e-8, EPS_PAIRS,
                          b4(eq1113)))

    register(IdentitySpec("eq11.14", "reduced denominator T-law", "d21a", 1e-8, EPS_PAIRS,
                          b4(lambda eps, epsp: [(
                              n4.Sector.of(eps, epsp), _T,
                              n4.Sector.of(abs(Fraction(eps) - Fraction(epsp)), epsp),
                              (1j ** int(2 * Fraction(epsp))) * e2pi(Fraction(1, 8)))])))

    register(IdentitySpec("prop11.14", "basis function S and T laws", "d21a", 1e-6,
                          [{"which": w, "eps": e, "epsp": ep} for w in ("f", "g")
                           for (e, ep) in ((Fraction(0), Fraction(0)), (H, Fraction(0)),
                                           (Fraction(0), H))],
                          _laws(d2.fg_lower, lambda pt: (*pt.zs, 0.02),
                                lambda which, eps, epsp: st_laws(
                                    which, d2.D21Params(*P211), eps, epsp)), grid=(2, 2)))

    def p1111(m2, m3, flavor):
        w, minus = d2.D21Weight(d2.D21Params(*P211), 1, m2, m3), n4.SECTORS["minus"]
        return [((d2.big_n4_qhr, w, "minus", flavor), _same, lambda tau, y2, y3, policy: (
            d2.modified_supercharacter_numerator(w, tau, *d2.hr_point(tau, y2, y3), flavor, policy)
            / d2.b4_denominator(tau, y2, y3, minus, policy)), None)]

    register(IdentitySpec("prop11.11", "reduced character table vs case assembly",
                          "d21a", 1e-8,
                          [{"m2": 0, "m3": 0, "flavor": f} for f in ("P", "Q")]
                          + [{"m2": 0, "m3": 1, "flavor": f} for f in ("P", "Q")],
                          _laws(_call, lambda pt: pt.zs[:2], p1111)))

    def rem1113(p, s, sector):
        w = d2.D21Weight(d2.D21Params(p, 1, 1), 1, 0, s)
        ts = s if sector in ("minus", "plus") else p - s - 1
        x = [ThetaIndex.of(j, m) for j, m in ((ts + 1, p + 1), (-(ts + 1), p + 1), (1, 2), (-1, 2))]

        def quotient(tau, y2, y3, policy):
            th = lambda i: theta_jm(x[i], tau, y3, 0, policy)
            return (th(0) - th(1)) / (th(2) - th(3))
        return [((d2.big_n4_qhr, w, sector, "Q"), _same, quotient, None)]

    register(IdentitySpec("rem11.13", "collapsing-level reduced characters", "d21a",
                          1e-8, [{"p": p, "s": s, "sector": sec} for p in (2, 3)
                                 for s in range(p) for sec in ("minus", "minus_tw")],
                          _laws(_call, lambda pt: pt.zs[:2], rem1113), grid=(2, 2)))

    def probe_1115(policy):
        pr = d2.D21Params(*P211)
        tau = 0.9j + 0.1
        y2 = 0.21 + 0.06j
        w = d2.D21Weight(pr, 1, 0, 1)
        mags = []
        for center in (0.0, 0.5, tau / 2, (tau + 1) / 2):
            for radius in (1e-2, 1e-3):
                for k in range(8):
                    y3 = center + radius * cmath.exp(2j * math.pi * k / 8)
                    try:
                        v = d2.big_n4_qhr(w, tau, y2, y3, "minus_tw", "P", policy)
                    except PoleProximityError:
                        continue
                    mags.append(abs(v))
        mags.sort()
        med = mags[len(mags) // 2]
        return max(mags) / med, 0

    register(IdentitySpec("prop11.15", "no blow-up near candidate second-variable poles",
                          "d21a", 10.0, [{}], None, runner=probe_1115))

    def eq127(eps, epsp, j):
        pr = d2.D21Params(*P211)
        p = pr.p
        ph = e2pi(-Fraction(p, p + 1) * 0.02)   # e(-p t / (p + 1)) at the t of the point
        s1 = (-1.0) ** (1 - 2 * float(epsp))
        s2 = (-1.0) ** (2 * float(eps) * (1 - 2 * float(epsp)))
        xp, xm = ThetaIndex.of(j, p + 1), ThetaIndex.of(-j, p + 1)
        g = d2.D21Index.of("g", j, pr, eps, epsp)
        a_, b_ = g.sector.a, g.sector.b

        def explicit(tau, z1, z2, z3, t, policy):
            th = lambda aa, bb, u: jacobi_theta(aa, bb, tau, u, policy)
            pref = eta_theta_quotient(tau, ph, (), ((1, 1), (1, 1, z1 - z3, 1),
                                                    (1, 1, z2 + z3, 1)), policy)
            t1 = (s1 * theta_jm(xp, tau, z1 + z2 / (p + 1) - p * z3 / (p + 1), 0, policy)
                  * th(a_, b_, z3) * th(a_, b_, z1 - z2 - z3))
            t2 = (s2 * theta_jm(xm, tau, z1 - z2 / (p + 1) - (p + 2) * z3 / (p + 1), 0, policy)
                  * th(a_, b_, z1) * th(a_, b_, z2))
            return pref * (t1 - t2)
        return [(g, _same, explicit, None)]

    # the member at g is the boundary quotient g / R-hat of its sector
    register(IdentitySpec("eq12.7", "boundary quotient explicit form", "d21a", 1e-9,
                          [{**e, "j": 1} for e in EPS_PAIRS],
                          _laws(lambda g, tau, z1, z2, z3, t, policy: (
                              d2.fg_lower(g, tau, z1, z2, z3, t, policy)
                              / d2.rhat(tau, z1, z2, z3, g.sector, policy)),
                              lambda pt: (*pt.zs, 0.02), eq127)))

    register(IdentitySpec("eq12.8", "affine denominator S and T laws", "d21a", 1e-8, EPS_PAIRS,
                          _laws(lambda x, tau, z1, z2, z3, policy: d2.rhat(
                              tau, z1, z2, z3, x, policy), lambda pt: pt.zs,
                              lambda eps, epsp: [
                                  (n4.Sector.of(eps, epsp), _S, n4.Sector.of(epsp, eps),
                                   lambda tau, *zs: 1j * (-1j * tau) ** 1.5),
                                  (n4.Sector.of(eps, epsp), _T,
                                   n4.Sector.of(abs(Fraction(eps) - Fraction(epsp)), epsp),
                                   e2pi(Fraction(1, 24)))])))

    # the index of a boundary supercharacter is its weight
    boundary = lambda laws: _laws(lambda w, tau, z1, z2, z3, t, policy: (
        d2.boundary_case_characters(w, tau, z1, z2, z3, t, "minus", policy)),
        lambda pt: (*pt.zs, 0.02), laws)

    def p124a(p):
        pr = d2.D21Params(p, 1, 1)
        sm = d2.s_matrix_and_fusion(p)
        K = complex(pr.K)
        return [(wt, _S_t, list(zip(row, sm["weights"])),
                 lambda tau, z1, z2, z3, t: e2pi(K * d2.zz_value(pr, z1, z2, z3) / (2 * tau)))
                for wt, row in zip(sm["weights"], sm["S"])]

    register(IdentitySpec("prop12.4a", "boundary supercharacter S-rows", "d21a", 1e-6,
                          [{"p": 1}, {"p": 2}], boundary(p124a), grid=(2, 2)))

    def p124b(p):
        sm = d2.s_matrix_and_fusion(p)
        return [(wt, _T, wt, ph) for wt, ph in zip(sm["weights"], sm["T"])]

    register(IdentitySpec("prop12.4b", "boundary supercharacter T-phases", "d21a",
                          1e-8, [{"p": 1}, {"p": 2}], boundary(p124b), grid=(2, 2)))

    def fusion_check(policy):
        bad = 0
        for p in (1, 2):
            sm = d2.s_matrix_and_fusion(p)
            N = len(sm["weights"])
            f = sm["fusion"]
            js = sm["j_residues"]
            for i in range(N):
                for j in range(N):
                    for k in range(N):
                        want = 1 if (js[i] + js[j] + js[k]) % (2 * (p + 1)) == 0 else 0
                        perm = f(i, j, k)
                        if perm != want or f(j, i, k) != want or f(k, j, i) != want:
                            bad += 1
        return float(bad), 0

    register(IdentitySpec("rem12.5", "fusion table matches the combinatorial rule",
                          "d21a", 0.5, [{}], None, runner=fusion_check))

    def eq1015_check(policy):
        worst = 0.0
        for params in (d2.D21Params(1, 1, 1), d2.D21Params(2, 1, 1), d2.D21Params(3, 2, 2)):
            forms = d2.quadratic_forms(params)
            if any(f != forms[0] for f in forms):
                worst = 1.0
        return worst, 0

    register(IdentitySpec("eq10.15", "quadratic-form identities (exact rational)",
                          "d21a", 0.5, [{}], None, runner=eq1015_check))


_theta_pairs()
_mock_pairs()
_modification_pairs()
_n3_pairs()
_n4_pairs()
_d21a_pairs()
