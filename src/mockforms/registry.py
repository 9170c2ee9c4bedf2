"""The identity registry: every transformation law as an IdentitySpec.

Importing this module registers the 87 laws with verifier.register(); the
verifier imports it the first time the registry is read, so that importing
mockforms (for a kernel, a q-expansion or the CLI) compiles and plans none
of them.  The harness records, IdentitySpec and the VerificationReport
that verifier.verify() returns, are stdlib dataclasses defined here, so
that dataclasses loads with the registry and not with the package.

Every law is a record planned by the one evaluator _laws(): a family
member at a transformed point against a factor times members at the
point, their sum, or a closed form.  An entry of a summed side may carry
its own image, so the doubling laws are records too, and every S-sum reads
the one S-table _s_table() with HalfInt rows.  The theta, mock and
modification laws are stated here, and those of the three families in
registry_n3, registry_n4 and registry_d21a, which this module loads at its
end.  A law reads each kernel through its home module when it runs
(th.theta_jm, md.phi_tilde), so a kernel patched there reaches every law.

Two special check modes exist: "exceeds" entries record negative results
(a deliberately broken transformation must visibly fail), and custom
runners handle the exact/combinatorial checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import import_module

from .qkernel import HalfInt, e2pi
from .theta import ThetaIndex
from .mock import MockIndex, PsiIndex
from .verifier import register
from . import mock as mk, modification as md, theta as th


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
    that order, and then every closed form and factor, record by record.
    The plan keeps laws and args as plan.laws and plan.args, so that the
    records of a parameter set can be read without evaluating them."""
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
    plan.laws, plan.args = laws, args
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


def _theta_pairs():
    big_theta = lambda laws: _laws(lambda *a: th.theta_jm(*a), lambda pt: (pt.z, 0), laws)
    jacobi = lambda laws: _laws(lambda ab, *a: th.jacobi_theta(*ab, *a), lambda pt: (pt.z,), laws)

    def eq12a(m, j, a):
        idx = ThetaIndex.of(j, m)
        return [(idx, lambda tau, z, t: (tau, z + a, t), idx, e2pi(Fraction(j * a, 2)))]

    register(IdentitySpec(
        "eq1.2a", "theta elliptic law, integer shift", "theta", 1e-9,
        [{"m": m, "j": j, "a": a} for m in (1, 2, 3) for j in range(2 * m)
         for a in (1, -2)], big_theta(eq12a), grid=(5, 5)))

    def eq12b(m, j, k):
        ck, ch = complex(-k * k / (4 * m)), complex(-k / 2)
        return [(ThetaIndex.of(j, m), lambda tau, z, t: (tau, z + k * tau / m, t),
                 ThetaIndex.of(j + k, m), lambda tau, z, t: e2pi(ck * tau) * e2pi(ch * z))]

    register(IdentitySpec(
        "eq1.2b", "theta elliptic law, tau-direction shift", "theta", 1e-9,
        [{"m": m, "j": j, "k": k} for m in (1, 2, 3) for j in range(2 * m)
         for k in (1, -1)], big_theta(eq12b), grid=(5, 5)))

    register(IdentitySpec(
        "eq1.3", "theta S-transform", "theta", 1e-9,
        [{"m": m, "j": j} for m in (1, 2, 3) for j in range(2 * m)],
        big_theta(lambda m, j: [(
            ThetaIndex.of(j, m), lambda tau, z, t: (-1 / tau, z / tau, -z * z / (4 * tau)),
            [(e2pi(-j * jp / (2 * m)), ThetaIndex.of(jp, m)) for jp in range(2 * m)],
            lambda tau, z, t: cmath.sqrt(-1j * tau / (2 * m)))]),
        grid=(5, 3)))

    register(IdentitySpec(
        "eq1.4", "theta T-transform", "theta", 1e-9,
        [{"m": m, "j": j} for m in (1, 2, 3) for j in range(2 * m)],
        big_theta(lambda m, j: [(ThetaIndex.of(j, m), _T, ThetaIndex.of(j, m),
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
                         lambda tau, z, policy: th.jacobi_theta11_product(tau, z), None)]),
        grid=(5, 5)))

    register(IdentitySpec(
        "eta.mod", "Dedekind eta S and T transforms", "theta", 1e-10, [{}],
        _laws(lambda _, tau, policy: th.dedekind_eta(tau, policy), lambda pt: (), lambda: [
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
        _laws(lambda *a: mk.phi(*a), _zs(0.05), _lemma11)))

    # the index of the signed assembly is (MockIndex, sign)
    signed = lambda t, laws: _laws(lambda x, *a: mk.phi(x[0], *a, x[1]), _zs(t), laws)

    register(IdentitySpec(
        "rem1.3-phi", "degree-one closed form", "mock", 1e-10, [{}],
        signed(0, lambda: [((MockIndex.of(1, 0), 1), _same, lambda tau, z1, z2, t, policy: (
            th.eta_theta_quotient(tau, -1j, ((1, 3), (1, 1, z1 + z2, 1)),
                               ((1, 1, z1, 1), (1, 1, z2, 1)), policy)), None)]),
        grid=(5, 3)))

    def rem13b(M, eps, j, k):
        e = float(eps)
        cjk, ck, cj = (complex(Fraction(a, M)) for a in (j * k, k, j))
        return [(PsiIndex.of(M, 1, 0, eps, j, k), _same, lambda tau, z1, z2, t, policy: (
            th.eta_theta_quotient(M * tau, -1j * e2pi(cjk * tau) * e2pi(ck * z1 + cj * z2),
                               ((1, 3), (1, 1, z1 + z2 + (j + k) * tau, 1)),
                               ((1, 1, z1 + j * tau + e, 1), (1, 1, z2 + k * tau - e, 1)),
                               policy)), None)]

    register(IdentitySpec(
        "rem1.3-psi", "degree-one wrapped closed form", "mock", 1e-10,
        [{"M": 3, "eps": e, "j": j, "k": k} for e in (0, H)
         for (j, k) in ((0, 0), (1, -1))], _laws(lambda *a: md.psi_tilde(*a), _zs(0), rem13b)))

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
        return pref * mk.phi(idx, M * tau, z1 + a * tau + 0.5, z2 + b * tau + e, 0, policy)

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
            th.eta_theta_quotient(tau, -1j * e2pi(t / 2), ((1, 3), (1, 1, z1 + z2, 1)),
                               ((1, 1, z1, 1), (1, 1, z2, 1)), policy)
            * th.jacobi_theta(e, delta, tau, (z1 - z2) / 2, policy)
            / th.jacobi_theta(e, delta, tau, (z1 + z2) / 2, policy)), None)]

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
    tilde = lambda t, laws: _laws(lambda *a: md.phi_tilde(*a), _zs(t), laws)

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
                          _laws(lambda *a: md.phi_add(*a), _zs(0), lambda s: [
                              (MockIndex.of(1, s), _same, _zero, None)])))

    register(IdentitySpec("lemma1.1mod", "doubling with the modified assembly",
                          "modification", 1e-8, [{"m": 1, "s": 0}, {"m": 2, "s": 1}],
                          tilde(0.05, _lemma11)))

    register(IdentitySpec("sindep", "integer index independence of the modification",
                          "modification", 1e-10, [{}],
                          tilde(0, lambda: [
                              (MockIndex.of(2, s), _same, MockIndex.of(2, 0), None)
                              for s in (1, 2)])))

    def one_sided(x, tau, z1, z2, t, policy):
        """e(m t) phi1_tilde: the one-sided modification as a Jacobi form"""
        v = md.phi1_tilde(x, tau, z1, z2, policy)
        return v if t == 0 else v * e2pi(float(x.m) * t)

    register(IdentitySpec("rem1.2", "S-invariance of the one-sided modification",
                          "modification", 1e-6, [{"m": 1}, {"m": 2}],
                          _laws(one_sided, _zs(0), lambda m: [(
                              MockIndex.of(m, 0), _s_jacobi, MockIndex.of(m, 0),
                              lambda tau, *a: tau)])))

    MM = [{"M": M, "m": m} for (M, m) in ((3, 1), (3, 2), (5, 2))]
    wrapped = lambda t, laws: _laws(lambda *a: md.psi_tilde(*a), _zs(t), laws)

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


_theta_pairs()
_mock_pairs()
_modification_pairs()
import_module(".registry_n3", __package__)._n3_pairs()
import_module(".registry_n4", __package__)._n4_pairs()
import_module(".registry_d21a", __package__)._d21a_pairs()
