"""Identity registry, grid harness, and report generation.

Every transformation law carries an id, a citation anchor, a tag, its own
tolerance and grid size, a parameter domain, and a closure producing
(lhs, rhs) pairs at an evaluation point.  verify() runs one id over the
deterministic standard grid; suite() runs a tag in registry order.

Two special check modes exist: "exceeds" entries record negative results
(a deliberately broken transformation must visibly fail), and custom
runners handle the exact/combinatorial checks.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .qkernel import (
    DEFAULT_POLICY,
    EvalPoint,
    HalfInt,
    PoleProximityError,
    TruncationPolicy,
    UnknownIdentityError,
    _POINT_MEMO,
    e2pi,
    lattice_distance,
)
from .theta import (
    ThetaIndex,
    dedekind_eta,
    jacobi_theta,
    jacobi_theta11_product,
    theta_jm,
)
from .mock import MockIndex, PsiIndex, phi
from .modification import phi_add, phi_tilde, phi_tilde_d0, phi1_tilde, psi_tilde
from . import family_n3 as n3
from . import family_n4 as n4
from . import family_d21a as d2

H = Fraction(1, 2)


@dataclass
class IdentitySpec:
    id: str
    citation: str
    tag: str
    tol: float
    params: list
    pair: object            # callable(pt: EvalPoint, **params) -> (lhs, rhs)
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


def standard_grid(n_tau: int, n_z: int, seed: int,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> tuple:
    """Deterministic grid: fixed tau list, seeded z components in the
    square [-0.45, 0.45]^2, redrawn while inside the pole guard.

    The draw uses a floor of 0.04 on the pole distance (never below the
    policy guard): identity residuals are measured in absolute terms and a
    z drawn 1e-3 from a pole would inject 1/distance^2 rounding noise far
    above the tolerances.  The ids of a suite share a few grids, so each
    is drawn once and returned as the same immutable tuple."""
    if n_tau < 1 or n_z < 1:
        raise ValueError("grid sizes must be positive")
    return _draw_grid(n_tau, n_z, seed, max(policy.pole_guard, 0.04))


@lru_cache(maxsize=32)
def _draw_grid(n_tau: int, n_z: int, seed: int, sep: float) -> tuple:
    taus = [0.31j, 0.8j, 1.0 + 1.3j, -0.4 + 0.7j, 2.1j][:n_tau]
    rng = random.Random(seed)
    pts = []
    for tau in taus:
        for _ in range(n_z):
            zs = []
            while len(zs) < 3:
                z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
                if lattice_distance(z, tau) >= sep:
                    zs.append(z)
            pts.append(EvalPoint(tau, tuple(zs)))
    return tuple(pts)


_REGISTRY: dict[str, IdentitySpec] = {}


def register(spec: IdentitySpec):
    if spec.id in _REGISTRY:
        raise ValueError(f"duplicate identity id {spec.id}")
    _REGISTRY[spec.id] = spec


def registry_ids() -> list:
    return list(_REGISTRY)


def get_spec(identity_id: str) -> IdentitySpec:
    try:
        return _REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentityError(identity_id) from None


def verify(identity_id: str, grid=None, policy: TruncationPolicy = DEFAULT_POLICY,
           seed: int = 1, param_filter: dict | None = None) -> VerificationReport:
    spec = get_spec(identity_id)
    n_tau, n_z = grid if grid is not None else spec.grid
    if spec.runner is not None:
        max_err, skipped = spec.runner(policy)
        passed = max_err <= spec.tol if spec.check == "close" else max_err > spec.tol
        return VerificationReport(spec.id, spec.citation,
                                  {"n_tau": n_tau, "n_z": n_z, "seed": seed},
                                  spec.tol, max_err, passed, skipped)
    # identity residuals are absolute, so points whose (possibly shifted)
    # arguments come near a pole are skipped instead of contributing
    # amplified rounding noise
    policy = TruncationPolicy(policy.tol, policy.n_max, max(policy.pole_guard, 0.02))
    pts = standard_grid(n_tau, n_z, seed, policy)
    params = spec.params
    if param_filter:
        params = [p for p in params
                  if all(str(p.get(k)) == str(v) for k, v in param_filter.items())]
        if not params:
            raise ValueError(f"no parameter set of {identity_id} matches {param_filter}")
    max_err = 0.0
    skipped = 0
    total = 0
    for pt in pts:
        token = _POINT_MEMO.set({})
        try:
            for prm in params:
                total += 1
                try:
                    pairs = spec.pair(pt, policy, **prm)
                except PoleProximityError:
                    skipped += 1
                    continue
                if isinstance(pairs, tuple):
                    pairs = [pairs]
                for lhs, rhs in pairs:
                    max_err = max(max_err, abs(lhs - rhs))
        finally:
            _POINT_MEMO.reset(token)
    if spec.check == "exceeds":
        passed = max_err > spec.tol
    else:
        passed = max_err <= spec.tol and skipped < 0.2 * total
    return VerificationReport(spec.id, spec.citation,
                              {"n_tau": n_tau, "n_z": n_z, "seed": seed},
                              spec.tol, max_err, passed, skipped)


TAGS = ("theta", "mock", "modification", "n3", "n4", "d21a")


def suite(tag: str, policy: TruncationPolicy = DEFAULT_POLICY, seed: int = 1) -> list:
    if tag == "all":
        wanted = list(_REGISTRY.values())
    elif tag in TAGS:
        wanted = [s for s in _REGISTRY.values() if s.tag == tag]
    else:
        raise UnknownIdentityError(f"unknown tag {tag}")
    return [verify(s.id, None, policy, seed) for s in wanted]


# ---------------------------------------------------------------------------
# registry construction
# ---------------------------------------------------------------------------

def _s_sum(M: int, eps, term):
    """sum of term(a, b) over a, b in eps + {0, ..., M-1}, a outer: the
    index sum of the wrapper S-laws."""
    tot = 0.0j
    for ia in range(M):
        for ib in range(M):
            tot += term(Fraction(eps) + ia, Fraction(eps) + ib)
    return tot


def _theta_pairs():
    def eq12a(pt, policy, m, j, a):
        idx = ThetaIndex.of(j, m)
        tau, z = pt.tau, pt.z
        return (theta_jm(idx, tau, z + a, 0, policy),
                e2pi(Fraction(j * a, 2)) * theta_jm(idx, tau, z, 0, policy))

    register(IdentitySpec(
        "eq1.2a", "theta elliptic law, integer shift", "theta", 1e-9,
        [{"m": m, "j": j, "a": a} for m in (1, 2, 3) for j in range(2 * m)
         for a in (1, -2)], eq12a, grid=(5, 5)))

    def eq12b(pt, policy, m, j, k):
        tau, z = pt.tau, pt.z
        lhs = theta_jm(ThetaIndex.of(j, m), tau, z + k * tau / m, 0, policy)
        rhs = (e2pi(-Fraction(k * k, 4 * m) * tau) * e2pi(-Fraction(k, 2) * z)
               * theta_jm(ThetaIndex.of(j + k, m), tau, z, 0, policy))
        return lhs, rhs

    register(IdentitySpec(
        "eq1.2b", "theta elliptic law, tau-direction shift", "theta", 1e-9,
        [{"m": m, "j": j, "k": k} for m in (1, 2, 3) for j in range(2 * m)
         for k in (1, -1)], eq12b, grid=(5, 5)))

    def eq13(pt, policy, m, j):
        tau, z = pt.tau, pt.z
        lhs = theta_jm(ThetaIndex.of(j, m), -1 / tau, z / tau, -z * z / (4 * tau), policy)
        tot = 0.0j
        for jp in range(2 * m):
            tot += e2pi(-Fraction(j * jp, 2 * m)) * theta_jm(ThetaIndex.of(jp, m), tau, z, 0, policy)
        return lhs, cmath.sqrt(-1j * tau / (2 * m)) * tot

    register(IdentitySpec(
        "eq1.3", "theta S-transform", "theta", 1e-9,
        [{"m": m, "j": j} for m in (1, 2, 3) for j in range(2 * m)],
        eq13, grid=(5, 3)))

    def eq14(pt, policy, m, j):
        tau, z = pt.tau, pt.z
        return (theta_jm(ThetaIndex.of(j, m), tau + 1, z, 0, policy),
                e2pi(Fraction(j * j, 4 * m)) * theta_jm(ThetaIndex.of(j, m), tau, z, 0, policy))

    register(IdentitySpec(
        "eq1.4", "theta T-transform", "theta", 1e-9,
        [{"m": m, "j": j} for m in (1, 2, 3) for j in range(2 * m)],
        eq14, grid=(5, 3)))

    def eq15(pt, policy, a, b):
        tau, z = pt.tau, pt.z
        out = [(jacobi_theta(a, b, tau, z + 1, policy),
                (-1.0) ** a * jacobi_theta(a, b, tau, z, policy)),
               (jacobi_theta(a, b, tau, z + tau, policy),
                (-1.0) ** b * e2pi(-tau / 2) * e2pi(-z) * jacobi_theta(a, b, tau, z, policy))]
        return out

    register(IdentitySpec(
        "eq1.5", "Jacobi theta elliptic laws", "theta", 1e-10,
        [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)], eq15, grid=(5, 5)))

    def eq16(pt, policy, a, b):
        tau, z = pt.tau, pt.z
        lhs = jacobi_theta(a, b, -1 / tau, z / tau, policy)
        rhs = ((-1j) ** (a * b) * cmath.sqrt(-1j * tau) * cmath.exp(1j * math.pi * z * z / tau)
               * jacobi_theta(b, a, tau, z, policy))
        return lhs, rhs

    register(IdentitySpec(
        "eq1.6", "Jacobi theta S-transform", "theta", 1e-10,
        [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)], eq16, grid=(5, 3)))

    def eq17(pt, policy, a):
        tau, z = pt.tau, pt.z
        out = [(jacobi_theta(0, a, tau + 1, z, policy),
                jacobi_theta(0, 1 - a, tau, z, policy)),
               (jacobi_theta(1, a, tau + 1, z, policy),
                e2pi(Fraction(1, 8)) * jacobi_theta(1, a, tau, z, policy))]
        return out

    register(IdentitySpec(
        "eq1.7", "Jacobi theta T-transforms", "theta", 1e-10,
        [{"a": a} for a in (0, 1)], eq17, grid=(5, 3)))

    def tp(pt, policy):
        tau, z = pt.tau, pt.z
        return (jacobi_theta(1, 1, tau, z, policy),
                jacobi_theta11_product(tau, z))

    register(IdentitySpec(
        "theta.triple", "odd Jacobi theta vs triple product", "theta", 1e-12,
        [{}], tp, grid=(5, 5)))

    def eta_mod(pt, policy):
        tau = pt.tau
        return [(dedekind_eta(-1 / tau, policy),
                 cmath.sqrt(-1j * tau) * dedekind_eta(tau, policy)),
                (dedekind_eta(tau + 1, policy),
                 e2pi(Fraction(1, 24)) * dedekind_eta(tau, policy))]

    register(IdentitySpec(
        "eta.mod", "Dedekind eta S and T transforms", "theta", 1e-10,
        [{}], eta_mod, grid=(5, 2)))


def _mock_pairs():
    def lem11(pt, policy, m, s):
        tau, (z1, z2, _) = pt.tau, pt.zs
        t = 0.05
        lhs = 2 * phi(MockIndex.of(m, s), 2 * tau, z1, z2, t, policy)
        sgn = (-1.0) ** int(2 * Fraction(s))
        rhs = (phi(MockIndex.of(2 * Fraction(m), 2 * Fraction(s)), tau, z1 / 2, z2 / 2, t / 2, policy)
               + sgn * phi(MockIndex.of(2 * Fraction(m), 2 * Fraction(s)), tau,
                           (z1 + 1) / 2, (z2 - 1) / 2, t / 2, policy))
        return lhs, rhs

    register(IdentitySpec(
        "lemma1.1", "doubling identity for the Appell assembly", "mock", 1e-10,
        [{"m": m, "s": s} for m in (1, 2, Fraction(1, 2)) for s in (0, H, 1)],
        lem11))

    def rem13a(pt, policy):
        tau, (z1, z2, _) = pt.tau, pt.zs
        lhs = phi(MockIndex.of(1, 0), tau, z1, z2, 0, policy)
        rhs = (-1j * dedekind_eta(tau, policy) ** 3 * jacobi_theta(1, 1, tau, z1 + z2, policy)
               / (jacobi_theta(1, 1, tau, z1, policy) * jacobi_theta(1, 1, tau, z2, policy)))
        return lhs, rhs

    register(IdentitySpec(
        "rem1.3-phi", "degree-one closed form", "mock", 1e-10, [{}], rem13a,
        grid=(5, 3)))

    def rem13b(pt, policy, M, eps, j, k):
        tau, (z1, z2, _) = pt.tau, pt.zs
        lhs = psi_tilde(PsiIndex.of(M, 1, 0, eps, j, k), tau, z1, z2, 0, policy)
        eta3 = dedekind_eta(M * tau, policy) ** 3
        rhs = (-1j * e2pi(Fraction(j * k, M) * tau) * e2pi(Fraction(k, M) * z1 + Fraction(j, M) * z2)
               * eta3 * jacobi_theta(1, 1, M * tau, z1 + z2 + (j + k) * tau, policy)
               / (jacobi_theta(1, 1, M * tau, z1 + j * tau + float(eps), policy)
                  * jacobi_theta(1, 1, M * tau, z2 + k * tau - float(eps), policy)))
        return lhs, rhs

    register(IdentitySpec(
        "rem1.3-psi", "degree-one wrapped closed form", "mock", 1e-10,
        [{"M": 3, "eps": e, "j": j, "k": k} for e in (0, H)
         for (j, k) in ((0, 0), (1, -1))], rem13b))

    def eq19(pt, policy, m, s):
        tau, (z1, z2, _) = pt.tau, pt.zs
        idx = MockIndex.of(m, s)
        return (phi(idx, tau, -z2, -z1, 0, policy),
                -phi(idx, tau, z1, z2, 0, policy))

    register(IdentitySpec(
        "eq1.9", "swap-negate antisymmetry of the assembly", "mock", 1e-12,
        [{"m": 2, "s": 0}, {"m": 1, "s": 1}], eq19))

    def eq110eps(pt, policy):
        # the two half-shift placements agree for integer degree and index
        tau, (z1, z2, _) = pt.tau, pt.zs
        idx = MockIndex.of(2, 1)
        a, b, eps, M = 1.0, -1.0, 0.5, 3
        pref = e2pi(Fraction(2, 3) * a * b * tau + Fraction(2, 3) * (b * z1 + a * z2))
        v1 = pref * phi(idx, M * tau, z1 + a * tau + eps, z2 + b * tau + eps, 0, policy)
        v2 = pref * phi(idx, M * tau, z1 + a * tau + eps, z2 + b * tau - eps, 0, policy)
        return v1, v2

    register(IdentitySpec(
        "eq1.10eps", "both wrapper half-shift placements agree (integer case)",
        "mock", 1e-10, [{}], eq110eps))

    def eq503(pt, policy, sign, sa, sb):
        # the minus-signed family is index-shift invariant for integer
        # indices only; the half-integer minus case is recorded as failing
        # alongside its closed form
        tau, (z1, z2, _) = pt.tau, pt.zs
        return (phi(MockIndex.of(H, sa), tau, z1, z2, 0, policy, sign),
                phi(MockIndex.of(H, sb), tau, z1, z2, 0, policy, sign))

    register(IdentitySpec(
        "eq5.03", "signed half-degree index shift invariance", "mock", 1e-10,
        [{"sign": 1, "sa": H, "sb": Fraction(3, 2)},
         {"sign": 1, "sa": 0, "sb": 1}, {"sign": -1, "sa": 0, "sb": 1}], eq503))

    def eq504(pt, policy, sign, eps):
        tau, (z1, z2, _) = pt.tau, pt.zs
        t = 0.03
        delta = 0 if sign > 0 else 1
        lhs = phi(MockIndex.of(H, eps), tau, z1, z2, t, policy, sign)
        rhs = (-1j * e2pi(t / 2) * dedekind_eta(tau, policy) ** 3
               * jacobi_theta(1, 1, tau, z1 + z2, policy)
               / (jacobi_theta(1, 1, tau, z1, policy) * jacobi_theta(1, 1, tau, z2, policy))
               * jacobi_theta(int(2 * Fraction(eps)), delta, tau, (z1 - z2) / 2, policy)
               / jacobi_theta(int(2 * Fraction(eps)), delta, tau, (z1 + z2) / 2, policy))
        return lhs, rhs

    register(IdentitySpec(
        "eq5.04", "signed half-degree closed forms (the three valid combos)",
        "mock", 1e-10,
        [{"sign": 1, "eps": 0}, {"sign": 1, "eps": H}, {"sign": -1, "eps": 0}],
        eq504))

    register(IdentitySpec(
        "eq5.04x", "recorded losing convention: the minus/half-shift closed form fails",
        "mock", 1e-3, [{"sign": -1, "eps": H}], eq504, check="exceeds"))


def _modification_pairs():
    def eq113(pt, policy, m, s):
        tau, (z1, z2, _) = pt.tau, pt.zs
        idx = MockIndex.of(m, s)
        t = 0.02 - 0.01j
        return (phi_tilde(idx, tau, z1 + 1, z2 - 2, t, policy),
                phi_tilde(idx, tau, z1, z2, t, policy))

    def eq114(pt, policy, m, s):
        tau, (z1, z2, _) = pt.tau, pt.zs
        idx = MockIndex.of(m, s)
        t = 0.02
        out = []
        for (a, b) in ((1, 0), (1, -1)):
            lhs = phi_tilde(idx, tau, z1 + a * tau, z2 + b * tau, t, policy)
            rhs = (e2pi(-m * a * b * tau - m * (b * z1 + a * z2))
                   * phi_tilde(idx, tau, z1, z2, t, policy))
            out.append((lhs, rhs))
        return out

    def eq115(pt, policy, m, s):
        tau, (z1, z2, _) = pt.tau, pt.zs
        idx = MockIndex.of(m, s)
        t = 0.02
        lhs = phi_tilde(idx, -1 / tau, z1 / tau, z2 / tau, t - z1 * z2 / tau, policy)
        return lhs, tau * phi_tilde(idx, tau, z1, z2, t, policy)

    def eq116(pt, policy, m, s):
        tau, (z1, z2, _) = pt.tau, pt.zs
        idx = MockIndex.of(m, s)
        return (phi_tilde(idx, tau + 1, z1, z2, 0.02, policy),
                phi_tilde(idx, tau, z1, z2, 0.02, policy))

    dom = [{"m": m, "s": s} for m in (1, 2, 3) for s in (0, H)]
    register(IdentitySpec("eq1.13", "modified assembly: integer shift invariance",
                          "modification", 1e-6, dom, eq113))
    register(IdentitySpec("eq1.14", "modified assembly: tau-lattice law",
                          "modification", 1e-6, dom, eq114))
    register(IdentitySpec("eq1.15", "modified assembly: S-invariance",
                          "modification", 1e-6, dom, eq115, grid=(3, 2)))
    register(IdentitySpec("eq1.16", "modified assembly: T-invariance",
                          "modification", 1e-6, dom, eq116))

    def add_zero(pt, policy, s):
        tau, (z1, z2, _) = pt.tau, pt.zs
        return phi_add(MockIndex.of(1, s), tau, z1, z2, 0, policy), 0.0

    register(IdentitySpec("phi_add.m1", "degree-one correction vanishes identically",
                          "modification", 0.0, [{"s": 0}, {"s": 2}], add_zero))

    def lem11mod(pt, policy, m, s):
        tau, (z1, z2, _) = pt.tau, pt.zs
        t = 0.05
        lhs = 2 * phi_tilde(MockIndex.of(m, s), 2 * tau, z1, z2, t, policy)
        rhs = (phi_tilde(MockIndex.of(2 * m, 2 * s), tau, z1 / 2, z2 / 2, t / 2, policy)
               + phi_tilde(MockIndex.of(2 * m, 2 * s), tau, (z1 + 1) / 2, (z2 - 1) / 2, t / 2, policy))
        return lhs, rhs

    register(IdentitySpec("lemma1.1mod", "doubling with the modified assembly",
                          "modification", 1e-8, [{"m": 1, "s": 0}, {"m": 2, "s": 1}],
                          lem11mod))

    def sind(pt, policy):
        tau, (z1, z2, _) = pt.tau, pt.zs
        vals = [phi_tilde(MockIndex.of(2, s), tau, z1, z2, 0, policy) for s in (0, 1, 2)]
        return [(v, vals[0]) for v in vals[1:]]

    register(IdentitySpec("sindep", "integer index independence of the modification",
                          "modification", 1e-10, [{}], sind))

    def phi1t_s(pt, policy, m):
        tau, (z1, z2, _) = pt.tau, pt.zs
        idx = MockIndex.of(m, 0)
        lhs = (phi1_tilde(idx, -1 / tau, z1 / tau, z2 / tau, policy)
               * e2pi(m * (-z1 * z2 / tau)))
        return lhs, tau * phi1_tilde(idx, tau, z1, z2, policy)

    register(IdentitySpec("rem1.2", "S-invariance of the one-sided modification",
                          "modification", 1e-6, [{"m": 1}, {"m": 2}], phi1t_s))

    MM = [(3, 1), (3, 2), (5, 2)]

    def eq117(pt, policy, M, m):
        tau, (z1, z2, _) = pt.tau, pt.zs
        t = 0.02
        eps, epsp = H, Fraction(0)
        j, k = 1, -1
        lhs = psi_tilde(PsiIndex.of(M, m, 0, eps, j, k), -1 / tau, z1 / tau, z2 / tau,
                        t - z1 * z2 / tau, policy)
        tot = _s_sum(M, eps, lambda a, b: (
            e2pi(-Fraction(m, M) * (a * k + b * j))
            * psi_tilde(PsiIndex.of(M, m, 0, epsp, a, b), tau, z1, z2, t, policy)))
        return lhs, tau / M * tot

    def eq118(pt, policy, M, m):
        tau, (z1, z2, _) = pt.tau, pt.zs
        t = 0.02
        out = []
        for eps, epsp in ((H, Fraction(0)), (Fraction(0), Fraction(0))):
            j, k = (1, -1) if epsp == 0 else (H, H)
            lhs = psi_tilde(PsiIndex.of(M, m, 0, eps, j, k), tau + 1, z1, z2, t, policy)
            rhs = (e2pi(Fraction(m, M) * Fraction(j) * Fraction(k))
                   * psi_tilde(PsiIndex.of(M, m, 0, abs(Fraction(eps) - Fraction(epsp)), j, k),
                               tau, z1, z2, t, policy))
            out.append((lhs, rhs))
        return out

    register(IdentitySpec("eq1.17", "wrapped modification S-law", "modification",
                          1e-6, [{"M": M, "m": m} for (M, m) in MM], eq117, grid=(2, 2)))
    register(IdentitySpec("eq1.18", "wrapped modification T-law", "modification",
                          1e-6, [{"M": M, "m": m} for (M, m) in MM], eq118))

    def lem47(pt, policy, M, m):
        tau, (z1, z2, _) = pt.tau, pt.zs
        j, k = H, H - 1
        out = []
        for (a, b) in ((1, 0), (0, 1)):
            lhs = psi_tilde(PsiIndex.of(M, m, 0, H, j + a * M, k + b * M), tau, z1, z2, 0, policy)
            rhs = (e2pi(Fraction(m * (a - b), 2))
                   * psi_tilde(PsiIndex.of(M, m, 0, H, j, k), tau, z1, z2, 0, policy))
            out.append((lhs, rhs))
        return out

    register(IdentitySpec("lemma4.7", "wrapper index periodicity", "modification",
                          1e-8, [{"M": M, "m": m} for (M, m) in MM], lem47))

    def lem48(pt, policy, M, m):
        tau, (z1, z2, _) = pt.tau, pt.zs
        j, k = 1, -1
        idx = PsiIndex.of(M, m, 0, 0, j, k)
        out = []
        a, b = 1, -1
        lhs = psi_tilde(idx, tau, z1 + a, z2 + b, 0, policy)
        rhs = e2pi(Fraction(m * (k * a + j * b), M)) * psi_tilde(idx, tau, z1, z2, 0, policy)
        out.append((lhs, rhs))
        A, B = H, H
        lhs = psi_tilde(idx, tau, z1 + float(A), z2 + float(B), 0, policy)
        rhs = (e2pi(Fraction(m, M) * (k * A + j * B))
               * psi_tilde(PsiIndex.of(M, m, 0, H, j, k), tau, z1, z2, 0, policy))
        out.append((lhs, rhs))
        return out

    register(IdentitySpec("lemma4.8", "wrapper argument shift laws", "modification",
                          1e-8, [{"M": M, "m": m} for (M, m) in MM], lem48))

    def lem49(pt, policy, M, m):
        tau, (z1, z2, _) = pt.tau, pt.zs
        j, k = 1, 0
        A, B = H, -H
        lhs = psi_tilde(PsiIndex.of(M, m, 0, 0, j, k), tau,
                        z1 + float(A) * tau, z2 + float(B) * tau, 0, policy)
        rhs = (e2pi(-Fraction(m, M) * A * B * tau) * e2pi(-Fraction(m, M) * (B * z1 + A * z2))
               * psi_tilde(PsiIndex.of(M, m, 0, 0, Fraction(j) + A, Fraction(k) + B),
                           tau, z1, z2, 0, policy))
        return lhs, rhs

    register(IdentitySpec("lemma4.9", "wrapper half-integer tau-shift law",
                          "modification", 1e-8, [{"M": M, "m": m} for (M, m) in MM], lem49))

    def lem410(pt, policy, M, m):
        tau, (z1, z2, _) = pt.tau, pt.zs
        eps, epsp = Fraction(0), H
        j, k = H, H - 1
        lhs = psi_tilde(PsiIndex.of(M, m, 0, eps, j, k), -1 / tau, z1 / tau, z2 / tau,
                        -z1 * z2 / tau, policy)
        tot = _s_sum(M, eps, lambda a, b: (
            e2pi(-Fraction(m, M) * (a * Fraction(k) + b * Fraction(j)))
            * psi_tilde(PsiIndex.of(M, m, 0, epsp, a, b), tau, z1, z2, 0, policy)))
        return lhs, tau / M * tot

    register(IdentitySpec("lemma4.10", "wrapper S-law at half-shifted indices",
                          "modification", 1e-6,
                          [{"M": 3, "m": 1}, {"M": 3, "m": 2}, {"M": 5, "m": 2}],
                          lem410, grid=(2, 2)))


def _n3_pairs():
    MN = [(1, 1), (3, 1), (3, 2)]

    def fidx(M, nn, eps, sg, sgp, j, k):
        return n3.FIndex.of(M, nn, eps, sg, sgp, j, k)

    def lem44(pt, policy, M, n_, sg, sgp):
        tau, z = pt.tau, pt.z
        out = []
        for eps, epsp in ((Fraction(0), Fraction(0)), (H, H)):
            j = 1 + (Fraction(1, 2) if epsp == H else 0)
            k = j + 1
            idx = fidx(M, n_, eps, sg, sgp, j, k)
            lhs = n3.f_function(idx, tau, z, policy)
            new, ph = n3.move_swap(idx)
            out.append((lhs, ph * n3.f_function(new, tau, z, policy)))
        return out

    register(IdentitySpec(
        "lemma4.4", "f-basis skew swap", "n3", 1e-8,
        [{"M": M, "n_": n_, "sg": sg, "sgp": sgp} for (M, n_) in MN
         for (sg, sgp) in ((Fraction(0), H), (H, Fraction(0)), (H, H))], lem44))

    def lem45(pt, policy, M, n_):
        tau, z = pt.tau, pt.z
        idx = fidx(M, n_, H, Fraction(0), H, 1, 2)
        lhs = n3.f_function(idx, tau, z, policy)
        new, ph = n3.move_translate(idx, -1, 0)
        return lhs, ph * n3.f_function(new, tau, z, policy)

    register(IdentitySpec("lemma4.5", "f-basis period translation", "n3", 1e-8,
                          [{"M": M, "n_": n_} for (M, n_) in MN], lem45))

    def p46a(pt, policy, M, n_, sg, sgp):
        tau, z = pt.tau, pt.z
        eps, epsp = H, Fraction(0)
        j, k = (1, 2) if M > 1 else (0, 0)
        lhs = n3.f_function(fidx(M, n_, eps, sg, sgp, j, k), -1 / tau, z / tau, policy)
        tot = _s_sum(M, eps, lambda a, b: (
            e2pi(-Fraction(n_, M) * (a * k + b * j) + Fraction(n_, M) * sgp * (a - b))
            * n3.f_function(fidx(M, n_, abs(epsp - sgp), sgp, sg, a, b), tau, z, policy)))
        rhs = (tau / M * e2pi(n_ * z * z / (4 * M * tau))
               * e2pi(Fraction(n_, 2 * M) * sg * sgp) * tot)
        return lhs, rhs

    register(IdentitySpec(
        "prop4.6a", "f-basis S-transform", "n3", 1e-6,
        [{"M": M, "n_": n_, "sg": sg, "sgp": sgp} for (M, n_) in MN
         for (sg, sgp) in ((Fraction(0), H), (H, Fraction(0)), (H, H))],
        p46a, grid=(2, 2)))

    def p46b(pt, policy, M, n_, sg):
        tau, z = pt.tau, pt.z
        out = []
        eps, epsp = H, Fraction(0)
        j, k = (1, 2) if M > 1 else (0, 0)
        lhs = n3.f_function(fidx(M, n_, eps, sg, 0, j, k), tau + 1, z, policy)
        rhs = (e2pi(Fraction(n_ * j * k, M))
               * n3.f_function(fidx(M, n_, abs(Fraction(eps) - Fraction(epsp)), sg, 0, j, k),
                               tau, z, policy))
        out.append((lhs, rhs))
        lhs = n3.f_function(fidx(M, n_, eps, sg, H, j, k), tau + 1, z, policy)
        base = e2pi(Fraction(n_, M) * (Fraction(j * k) - Fraction(1, 16)))
        if sg == 0:
            rhs = base * n3.f_function(fidx(M, n_, abs(Fraction(eps) - Fraction(epsp)), H, H, j, k),
                                       tau, z, policy)
        else:
            rhs = (base * e2pi(Fraction(n_, M) * Fraction(k - j, 2))
                   * n3.f_function(fidx(M, n_, H - abs(Fraction(eps) - Fraction(epsp)), 0, H, j, k),
                                   tau, z, policy))
        out.append((lhs, rhs))
        return out

    register(IdentitySpec(
        "prop4.6b", "f-basis T-transforms", "n3", 1e-8,
        [{"M": M, "n_": n_, "sg": sg} for (M, n_) in MN for sg in (Fraction(0), H)],
        p46b))

    def rem415(pt, policy, M, n_, variant):
        # relations obtained by composing the swap and translation moves
        tau, z = pt.tau, pt.z
        k0 = 1
        sg, sgp = (H, H) if variant == 3 else (H, Fraction(0))
        eps, epsp = H, Fraction(0) if sgp == H else H
        j = Fraction(2 * M - 1, 2) + k0
        k = Fraction(M, 2) + k0
        idx = fidx(M, n_, eps, sg, sgp, j, k)
        lhs = n3.f_function(idx, tau, z, policy)
        mid, p1 = n3.move_swap(idx)
        a = math.floor(mid.j.value / M)
        b = math.floor(mid.k.value / M)
        fin, p2 = n3.move_translate(mid, a, b)
        return lhs, p1 * p2 * n3.f_function(fin, tau, z, policy)

    for variant, eqid in ((1, "eq4.23"), (2, "eq4.24"), (3, "eq4.25")):
        register(IdentitySpec(
            eqid, "composed swap/translation index relation", "n3", 1e-6,
            [{"M": 3, "n_": 1, "variant": variant}, {"M": 3, "n_": 2, "variant": variant}],
            rem415))

    def rem413(pt, policy, M, eps, sg, sgp):
        tau, z = pt.tau, pt.z
        j, k = (1, 2) if M > 1 else (0, 0)
        lhs = n3.f_function(fidx(M, 1, eps, sg, sgp, j, k), tau, z, policy)
        pref = (-1j * e2pi(Fraction(1, 2 * M) * (k - j) * sg)
                * e2pi(tau * Fraction(1, M) * (j + sgp / 2) * (k - sgp / 2))
                * e2pi(Fraction(1, 2 * M) * (j + k) * z))
        num = (dedekind_eta(M * tau, policy) ** 3
               * jacobi_theta(1, 1, M * tau, z + (j + k) * tau, policy))
        d1 = jacobi_theta(1, 1, M * tau, (z + float(sg) + float(sgp) * tau) / 2 + j * tau + float(eps), policy)
        d2 = jacobi_theta(1, 1, M * tau, (z - float(sg) - float(sgp) * tau) / 2 + k * tau - float(eps), policy)
        return lhs, pref * num / (d1 * d2)

    register(IdentitySpec(
        "rem4.13", "f-basis closed form at unit degree", "n3", 1e-9,
        [{"M": M, "eps": e, "sg": sg, "sgp": sgp} for M in (1, 3) for e in (Fraction(0), H)
         for (sg, sgp) in ((Fraction(0), H), (H, H))], rem413))

    def rem414(pt, policy, n_):
        tau, z = pt.tau, pt.z
        out = []
        for eps in (Fraction(0), H):
            lhs = n3.f_function(fidx(1, n_, eps, H, H, H, H), tau, z, policy)
            rhs = (e2pi(n_ * (Fraction(eps) + Fraction(1, 4)))
                   * n3.f_function(fidx(1, n_, H - eps, H, H, 0, 0), tau, z, policy))
            out.append((lhs, rhs))
            lhs = n3.f_function(fidx(1, n_, eps, Fraction(0), H, H, H), tau, z, policy)
            rhs = (e2pi(n_ * Fraction(eps))
                   * n3.f_function(fidx(1, n_, eps, Fraction(0), H, 0, 0), tau, z, policy))
            out.append((lhs, rhs))
        return out

    register(IdentitySpec("rem4.14", "f-basis reductions at modular scale one",
                          "n3", 1e-8, [{"n_": 1}, {"n_": 2}], rem414))

    def eq5x(pt, policy, m2, which):
        tau, (z1, z2, _) = pt.tau, pt.zs
        t = 0.04
        m = Fraction(-3, 4)
        wu = n3.N3Weight(False, m, m2)
        wd = n3.N3Weight(True, m, m2)
        eta3 = dedekind_eta(2 * tau, policy) ** 3
        th = lambda a, b, zz: jacobi_theta(a, b, 2 * tau, zz, policy)
        if which == 5:
            lhs = n3.supercharacter_numerator(wu, tau, z1, z2, t, False, policy)
            rhs = (1j * e2pi(-t / 4) * eta3 * th(1, 1, z1 - z2) * th(1 - m2, 0, (z1 + z2) / 2)
                   / (th(1, 1, z1) * th(1, 1, z2) * th(1 - m2, 0, (z1 - z2) / 2)))
        elif which == 6:
            lhs = n3.supercharacter_numerator(wd, tau, z1, z2, t, False, policy)
            rhs = (-1j * e2pi(-t / 4) * eta3 * th(1, 1, z1 - z2) * th(1 - m2, 0, (z1 + z2) / 2)
                   / (th(0, 1, z1) * th(0, 1, z2) * th(m2, 0, (z1 - z2) / 2)))
        elif which == 7:
            # the character/twisted rows carry recorded unit constants pinned
            # by the collapsing-level identities
            lhs = n3.character_numerator(wu, tau, z1, z2, t, False, policy)
            rhs = ((-1j) ** (m2 + 1)
                   * 1j * e2pi(-t / 4) * eta3 * th(1, 1, z1 - z2) * th(1 - m2, 1, (z1 + z2) / 2)
                   / (th(1, 0, z1) * th(1, 0, z2) * th(1 - m2, 0, (z1 - z2) / 2)))
        elif which == 8:
            lhs = n3.character_numerator(wd, tau, z1, z2, t, False, policy)
            rhs = ((-1j) ** (m2 + 1)
                   * 1j * e2pi(-t / 4) * eta3 * th(1, 1, z1 - z2) * th(1 - m2, 1, (z1 + z2) / 2)
                   / (th(0, 0, z1) * th(0, 0, z2) * th(m2, 0, (z1 - z2) / 2)))
        elif which == 9:
            lhs = n3.twisted_character_numerator(wu, tau, z1, z2, t, False, policy)
            rhs = ((1j) ** (m2 + 1)
                   * 1j * e2pi(-t / 4) * e2pi(-tau / 16) * e2pi((z1 + z2) / 8) * eta3
                   * th(1, 1, z1 - z2) * th(1 - m2, 1, (z1 + z2 - tau) / 2)
                   / (th(1, 0, z1 - tau / 2) * th(1, 0, z2 - tau / 2) * th(1 - m2, 0, (z1 - z2) / 2)))
        else:
            lhs = n3.twisted_character_numerator(wd, tau, z1, z2, t, False, policy)
            rhs = ((-1j) ** (1 - m2)
                   * -1j * e2pi(-t / 4) * e2pi(-tau / 16) * e2pi((z1 + z2) / 8) * eta3
                   * th(1, 1, z1 - z2) * th(1 - m2, 1, (z1 + z2 - tau) / 2)
                   / (th(0, 0, z1 - tau / 2) * th(0, 0, z2 - tau / 2) * th(m2, 0, (z1 - z2) / 2)))
        return lhs, rhs

    for which in (5, 6, 7, 8, 9, 10):
        register(IdentitySpec(
            f"eq5.{which:02d}", "collapsing-level numerator closed form", "n3",
            1e-9, [{"m2": 0, "which": which}, {"m2": 1, "which": which}], eq5x))

    def eq35(pt, policy, m, m2):
        tau, (z1, z2, _) = pt.tau, pt.zs
        t = 0.03
        n_ = int(-4 * Fraction(m) - 2)
        lhs = n3.b_value(Fraction(m), m2, tau, -z2 + tau, -z1 + tau, t - z1 - z2 + tau,
                         False, False, policy)
        rhs = n3.b_value(Fraction(m), n_ - m2, tau, z1, z2, t, True, False, policy)
        return lhs, rhs

    register(IdentitySpec("eq3.5", "reflection pairing of the two numerator families",
                          "n3", 1e-9, [{"m": -1, "m2": m2} for m2 in (0, 1, 2)], eq35))

    def p37(pt, policy, m, M, J, k1, k2, dotted, modified):
        tau, (z1, z2, _) = pt.tau, pt.zs
        t = 0.03
        w = n3.N3Weight(dotted, Fraction(m), 1, M, J, k1, k2)
        a = n3.numerator_B(w, tau, z1, z2, t, modified, policy)
        b = n3.admissible_numerator_psi(w, tau, z1, z2, t, modified, policy)
        return a, b

    register(IdentitySpec(
        "prop3.7", "translated numerators vs wrapped assembly", "n3", 1e-9,
        [{"m": Fraction(-3, 4), "M": 3, "J": J, "k1": k1, "k2": k2,
          "dotted": d, "modified": mod}
         for (J, k1, k2) in (("I", 0, 1), ("III", 0, 1)) for d in (False, True)
         for mod in (False, True)], p37))

    def th411(pt, policy, m, M, J, k1, k2, dotted):
        tau, z = pt.tau, pt.z
        w = n3.N3Weight(dotted, Fraction(m), 1, M, J, k1, k2)
        n_ = w.n
        if J == "I":
            jj = Fraction(k1 + (M if dotted else 0), 2)
            kk = -Fraction(k1 + 2 * k2 - (M if dotted else 0), 2)
        else:
            jj = Fraction(k1 + 2 * k2 - (M if dotted else 0), 2)
            kk = -Fraction(k1 + (M if dotted else 0), 2)
        combos = {"ns_plus": (H, H), "ns_minus": (Fraction(0), H), "ramond": (H, Fraction(0))}
        out = []
        for sector, (sg, sgp) in combos.items():
            if sector == "ns_minus":
                hval = lambda tt, zz: n3.supercharacter_numerator(
                    w, tt, zz + tt / 2, -zz + tt / 2, tt / 4, True, policy)
            elif sector == "ns_plus":
                hval = lambda tt, zz: n3.character_numerator(
                    w, tt, zz + tt / 2, -zz + tt / 2, tt / 4, True, policy)
            else:
                hval = lambda tt, zz: n3.character_numerator(w, tt, zz, -zz, 0.0, True, policy)
            fv = lambda tt, zz: (
                n3.f_function(n3.FIndex.of(M, n_, 0, sg, sgp, jj, kk), tt, zz, policy)
                - (-1.0) ** w.m2
                * n3.f_function(n3.FIndex.of(M, n_, H, sg, sgp, jj, kk), tt, zz, policy))
            ref_tau, ref_z = 0.9j + 0.1, 0.21 + 0.06j
            scale = hval(ref_tau, ref_z) / fv(ref_tau, ref_z)
            out.append((hval(tau, z), scale * fv(tau, z)))
        return out

    register(IdentitySpec(
        "th4.11", "reduced numerators equal f-combinations up to scalars", "n3",
        1e-7, [{"m": Fraction(-3, 4), "M": 3, "J": "I", "k1": 0, "k2": 1, "dotted": False},
               {"m": Fraction(-3, 4), "M": 3, "J": "III", "k1": 0, "k2": 1, "dotted": True},
               {"m": Fraction(-1, 1), "M": 3, "J": "I", "k1": 1, "k2": 0, "dotted": False}],
        th411, grid=(4, 3)))

    def c1(pt, policy, dotted, m2, sector, s):
        tau, z = pt.tau, pt.z
        m = Fraction(-3, 4)
        w = n3.N3Weight(dotted, m, m2)
        v = n3.qhr_character(w, tau, z, sector, False, policy)
        tgt = (0.0 if s is None else
               theta_jm(ThetaIndex.of(s, 1), tau, z, 0, policy) / dedekind_eta(tau, policy))
        return v, tgt

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
         {"dotted": True, "m2": 0, "sector": "ramond", "s": None}], c1, grid=(3, 2)))


def _balanced(a, b, M: int, m: int, eps):
    """Balanced index representatives in (-M/2, M/2] and the phase the
    translation into them costs; keeps the wrapper evaluations well
    conditioned at small Im tau (the raw representatives carry huge inverse
    nome powers)."""
    def red(v: Fraction):
        alpha = math.floor(v / M + H)
        return v - alpha * M, alpha

    a0, al = red(Fraction(a))
    b0, be = red(Fraction(b))
    ph = e2pi(Fraction(m * (al - be) * HalfInt.of(eps).twice, 2))
    return HalfInt.of(a0), HalfInt.of(b0), ph


def _psi_p_reduced(M, m, eps, a, b, tau, z1, z2, t, policy):
    a0, b0, ph = _balanced(a, b, M, m, eps)
    return ph * n4.psi_P(M, m, eps, a0, b0, tau, z1, z2, t, policy)


def _chi_reduced(alpha, M, m, eps, epsp, a, b, tau, z, policy):
    a0, b0, ph = _balanced(a, b, M, m, eps)
    return ph * n4.chi(n4.ChiIndex.of(alpha, M, m, eps, epsp, a0, b0), tau, z, policy)


def _n4_pairs():
    def lem63(pt, policy, m):
        tau, (z1, z2, _) = pt.tau, pt.zs
        t = 0.03
        g = lambda tt, a, b, T: n4.g_numerator(m, tt, a, b, T, policy)
        out = [(g(-1 / tau, z1 / tau, z2 / tau, t + z1 * z2 / tau),
                tau ** 2 * g(tau, z1, z2, t))]
        z = pt.zs[2]
        a, b = 1, 0
        lhs = g(tau, z + a * tau, z + b * tau, t - (a + b) * z)
        rhs = (m / 2 * (b - a) * e2pi(m * a * b * tau) * e2pi(m * t)
               * phi_tilde(MockIndex.of(-m, 0), tau, z, z, 0, policy))
        out.append((lhs, rhs))
        lhs = g(tau, z + 0.5 + a * tau, z + 0.5 + b * tau, t - (a + b) * z)
        rhs = (m / 2 * (b - a) * e2pi(Fraction(m * (a + b), 2)) * e2pi(m * a * b * tau)
               * e2pi(m * t) * phi_tilde(MockIndex.of(-m, 0), tau, z + 0.5, z + 0.5, 0, policy))
        out.append((lhs, rhs))
        return out

    register(IdentitySpec("lemma6.3", "derivative numerator: S and collapse laws",
                          "n4", 1e-6, [{"m": -1}, {"m": -2}], lem63))

    def lem62(pt, policy, m):
        # hypothesis and conclusion of the derivative transfer, instantiated
        # on the modified assembly: the S-law and swap symmetry of the input
        # together with the S-law of its derivative combination
        tau, (z1, z2, _) = pt.tau, pt.zs
        t = 0.03
        idx = MockIndex.of(-m, 0)
        f = lambda tt, a, b, T: e2pi(m * T) * phi_tilde(idx, tt, a, b, 0.0, policy)
        out = [(f(-1 / tau, z1 / tau, z2 / tau, t + z1 * z2 / tau),
                tau * f(tau, z1, z2, t)),
               (f(tau, z2, z1, t), f(tau, z1, z2, t)),
               (n4.g_numerator(m, -1 / tau, z1 / tau, z2 / tau, t + z1 * z2 / tau, policy),
                tau ** 2 * n4.g_numerator(m, tau, z1, z2, t, policy))]
        return out

    register(IdentitySpec("lemma6.2", "derivative transfer: hypothesis and conclusion",
                          "n4", 1e-6, [{"m": -2}], lem62))

    def lem64(pt, policy, m):
        tau, z = pt.tau, pt.z
        lhs = n4.g_numerator(m, tau, z + tau / 2, z - tau / 2, tau / 4, policy)
        idx = MockIndex.of(-m, 0)
        out = [(lhs, -m / 2 * e2pi(-m * z) * e2pi(-m * tau / 4)
                * phi_tilde(idx, tau, z + tau / 2, z + tau / 2, 0, policy)),
               (lhs, -m / 2 * e2pi(m * z) * e2pi(-m * tau / 4)
                * phi_tilde(idx, tau, z - tau / 2, z - tau / 2, 0, policy))]
        return out

    register(IdentitySpec("lemma6.4", "derivative numerator collapse on the shifted diagonal",
                          "n4", 1e-7, [{"m": -1}, {"m": -2}], lem64))

    def rem65(pt, policy, m):
        tau, z = pt.tau, pt.z
        idx = MockIndex.of(-m, 0)
        lhs = phi_tilde(idx, tau, z + tau / 2, z - tau / 2, -tau / 4, policy)
        return [(lhs, e2pi(-m * z) * e2pi(-m * tau / 4)
                 * phi_tilde(idx, tau, z + tau / 2, z + tau / 2, 0, policy)),
                (lhs, e2pi(m * z) * e2pi(-m * tau / 4)
                 * phi_tilde(idx, tau, z - tau / 2, z - tau / 2, 0, policy))]

    register(IdentitySpec("rem6.5", "modified assembly collapse on the shifted diagonal",
                          "n4", 1e-8, [{"m": -1}, {"m": -2}], rem65))

    def p71a(pt, policy, m, m2):
        tau, z = pt.tau, pt.z
        w = n4.N4Weight(m, m2)
        va = n4.qhr_character_integrable(w, tau, z, "plus", policy)
        m0 = m + m2
        alt = (-((-1.0) ** m) * m0 * e2pi(m * z) * e2pi(-m * tau / 4)
               * phi_tilde(MockIndex.of(-m, 0), tau, z + 0.5 - tau / 2, z + 0.5 - tau / 2, 0, policy)
               / n4.n4_denominator(tau, z, H, H, policy))
        return va, alt

    register(IdentitySpec("prop7.1a", "two closed forms of the reduced character agree",
                          "n4", 1e-8, [{"m": -1, "m2": 0}, {"m": -2, "m2": 1}], p71a))

    def p72(pt, policy, m, rel):
        tau, z = pt.tau, pt.z
        w = n4.N4Weight(m, 1 if m < -1 else 0)
        eps = n4._QHR_EPS
        Ch = lambda sec, tt, zz: (n4.qhr_character_integrable(w, tt, zz, sec, policy)
                                  * n4.n4_denominator(tt, zz, *eps[sec], policy))
        if rel < 4:
            pairs = [("plus", "plus", (-1.0) ** m), ("minus", "plus_tw", -1.0),
                     ("plus_tw", "minus", -1.0), ("minus_tw", "minus_tw", 1.0)]
            s1, s2, c = pairs[rel]
            return (Ch(s1, -1 / tau, z / tau),
                    c * tau * e2pi(-m * z * z / tau) * Ch(s2, tau, z))
        pairs = [("plus", "minus", e2pi(Fraction(m, 4))), ("plus_tw", "plus_tw", 1.0)]
        s1, s2, c = pairs[rel - 4]
        return Ch(s1, tau + 1, z), c * Ch(s2, tau, z)

    register(IdentitySpec("prop7.2", "reduced-character S and T relations", "n4",
                          1e-6, [{"m": m, "rel": r} for m in (-1, -2) for r in range(6)],
                          p72, grid=(3, 2)))

    def th73b(pt, policy, m, eps, epsp):
        tau, z = pt.tau, pt.z
        w = n4.N4Weight(m, 1 if m < -1 else 0)
        sec = {(H, H): "plus", (Fraction(0), H): "minus",
               (H, Fraction(0)): "plus_tw", (Fraction(0), Fraction(0)): "minus_tw"}
        ch = lambda e, ep, tt, zz: n4.qhr_character_integrable(w, tt, zz, sec[(e, ep)], policy)
        cm = -6 * (m + 1)
        # sign and phase constants re-derived in the anchored normalization
        # (the trivial module at level -1 has all characters equal to 1)
        lhs = ch(eps, epsp, -1 / tau, z / tau)
        sgn = (-1.0) ** ((m + 1) * int(2 * eps) * int(2 * epsp))
        rhs = (sgn * cmath.exp(1j * math.pi * cm * z * z / (3 * tau)) * ch(epsp, eps, tau, z))
        out = [(lhs, rhs)]
        lhsT = ch(eps, epsp, tau + 1, z)
        phT = e2pi(Fraction((m + 1) * int(2 * epsp), 4))
        rhsT = phT * ch(abs(eps - epsp), epsp, tau, z)
        out.append((lhsT, rhsT))
        return out

    register(IdentitySpec("th7.3b", "reduced-character laws in shift notation", "n4",
                          1e-6, [{"m": m, "eps": e, "epsp": ep} for m in (-1, -2)
                                 for e in (Fraction(0), H) for ep in (Fraction(0), H)],
                          th73b, grid=(2, 2)))

    def rem74(pt, policy, m):
        # deliberately wrong twist: the S-relation must fail visibly
        tau, z = pt.tau, pt.z
        w = n4.N4Weight(m, 1)

        def bad_tw(tt, zz):
            w1, w2, wt = n4.w0_prime_point(tt, zz + tt / 2, zz - tt / 2, tt / 4)
            num = n4.numerator(w, tt, w1, w2, wt, "minus", policy)
            return num / n4.n4_denominator(tt, zz, Fraction(0), Fraction(0), policy)

        Ch = lambda sec, tt, zz: (n4.qhr_character_integrable(w, tt, zz, sec, policy)
                                  * n4.n4_denominator(tt, zz, *n4._QHR_EPS[sec], policy))
        lhs = Ch("minus", -1 / tau, z / tau)
        rhs = (-tau * e2pi(-m * z * z / tau) * bad_tw(tau, z)
               * n4.n4_denominator(tau, z, H, Fraction(0), policy))
        return lhs, rhs

    register(IdentitySpec("rem7.4x", "alternative twist breaks the S-relation (recorded)",
                          "n4", 1e-2, [{"m": -2}], rem74, grid=(2, 2), check="exceeds"))

    def lem82(pt, policy, M, m):
        tau, (z1, z2, _) = pt.tau, pt.zs
        t = 0.02
        j, k = HalfInt(3), HalfInt(-1)
        out = [(n4.psi_P(M, m, H, j, k, tau, z2, z1, t, policy),
                -n4.psi_P(M, m, H, k, j, tau, z1, z2, t, policy)),
               (n4.psi_P(M, m, H, j, k, tau, -z1, -z2, t, policy),
                n4.psi_P(M, m, H, -j, -k, tau, z1, z2, t, policy))]
        return out

    register(IdentitySpec("lemma8.2", "derivative wrapper swap and negation laws",
                          "n4", 1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}], lem82))

    def lem83(pt, policy, M, m):
        tau, (z1, z2, _) = pt.tau, pt.zs
        t = 0.02
        out = [(n4.g_numerator(m, tau, z1 + 1, z2 + 1, t, policy),
                n4.g_numerator(m, tau, z1, z2, t, policy))]
        j, k = HalfInt(3), HalfInt(-1)
        lhs = n4.psi_P(M, m, H, j, k, tau, z1 + 1, z2 + 1, t, policy)
        rhs = (e2pi(-Fraction(m, M) * (j.value + k.value))
               * n4.psi_P(M, m, H, j, k, tau, z1, z2, t, policy))
        out.append((lhs, rhs))
        return out

    register(IdentitySpec("lemma8.3", "derivative wrapper diagonal shifts", "n4",
                          1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}], lem83))

    def lem85(pt, policy, M, m):
        tau, (z1, z2, _) = pt.tau, pt.zs
        j, k = HalfInt(2), HalfInt(0)
        lhs = n4.psi_P(M, m, Fraction(0), j, k, tau, z1, z2, 0, policy)
        jv, kv = j.value, k.value
        pref = e2pi(-Fraction(m, M) * jv * kv * tau) * e2pi(-Fraction(m, M) * (kv * z1 + jv * z2))
        g = n4.g_numerator(m, M * tau, z1 + jv * tau, z2 + kv * tau, 0, policy)
        v = phi_tilde(MockIndex.of(-m, 0), M * tau, z1 + jv * tau, z2 + kv * tau, 0, policy)
        rhs = pref * (g + Fraction(m * (jv - kv), 2 * M) * v)
        return lhs, rhs

    register(IdentitySpec("lemma8.5", "derivative wrapper explicit form", "n4",
                          1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}], lem85))

    def lem84(pt, policy, M, m):
        # termwise derivative of the modification at index-shifted arguments
        # in terms of the derivative numerator and the multiplier split
        tau, (z1, z2, _) = pt.tau, pt.zs
        j, k, eps = 1, -1, 0.5
        idx = MockIndex.of(-m, 0)
        v, d = phi_tilde_d0(idx, M * tau, z1 + j * tau + eps, z2 + k * tau + eps, policy)
        g = n4.g_numerator(m, M * tau, z1 + j * tau + eps, z2 + k * tau + eps, 0.0, policy)
        rhs = g - (m * (z1 - z2) / (2 * M * tau) + Fraction(m * (j - k), 2 * M)) * v
        return d, rhs

    register(IdentitySpec("lemma8.4", "shifted-argument derivative split", "n4",
                          1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}], lem84))

    def rem86(pt, policy, m, eps):
        tau, z = pt.tau, pt.z
        j = HalfInt(2) if eps == 0 else HalfInt(1)
        k = HalfInt(0) if eps == 0 else HalfInt(-1)
        return n4.psi_P(1, m, eps, j, k, tau, z, z, 0.07, policy), 0.0

    register(IdentitySpec("rem8.6", "scale-one derivative wrapper vanishes on the diagonal",
                          "n4", 1e-10, [{"m": -1, "eps": Fraction(0)}, {"m": -2, "eps": H}],
                          rem86))

    def p87(pt, policy, M, m, which):
        tau, (z1, z2, _) = pt.tau, pt.zs
        t = 0.02
        eps, epsp = H, Fraction(0)
        j, k = HalfInt(2), HalfInt(-2)
        if which == "S":
            lhs = n4.psi_P(M, m, eps, j, k, -1 / tau, z1 / tau, z2 / tau, t, policy)
            tot = _s_sum(M, eps, lambda a, b: (
                e2pi(Fraction(m, M) * (a * k.value + b * j.value))
                * _psi_p_reduced(M, m, epsp, a, b, tau, z1, z2, t, policy)))
            return lhs, tau ** 2 / M * e2pi(-Fraction(m, M) * z1 * z2 / tau) * tot
        # off the diagonal the tau-dependent multiplier spoils the T-shift,
        # so the T-law is the diagonal statement used by the chi basis
        z = pt.z
        lhs = n4.psi_P(M, m, eps, j, k, tau + 1, z, z, t, policy)
        rhs = (e2pi(-Fraction(m, M) * j.value * k.value)
               * n4.psi_P(M, m, abs(Fraction(eps) - Fraction(epsp)), j, k, tau, z, z, t, policy))
        return lhs, rhs

    register(IdentitySpec("prop8.7", "derivative wrapper S and T laws", "n4", 1e-6,
                          [{"M": M, "m": m, "which": w} for (M, m) in ((2, -1), (3, -2))
                           for w in ("S", "T")], p87, grid=(2, 2)))

    def rem88(pt, policy, M, m):
        tau, (z1, z2, _) = pt.tau, pt.zs
        j, k = HalfInt(1), HalfInt(-1)
        out = []
        for (a, b) in ((1, 0), (0, 1)):
            lhs = psi_tilde(PsiIndex.of(M, -m, 0, H, j.value + a * M, k.value + b * M),
                            tau, z1, z2, 0, policy)
            rhs = (e2pi(Fraction(m * (a - b), 2))
                   * psi_tilde(PsiIndex.of(M, -m, 0, H, j, k), tau, z1, z2, 0, policy))
            out.append((lhs, rhs))
            lhs = n4.psi_P(M, m, H, HalfInt(j.twice + 2 * a * M), HalfInt(k.twice + 2 * b * M),
                           tau, z1, z2, 0, policy)
            rhs = (e2pi(Fraction(m * (a - b), 2))
                   * n4.psi_P(M, m, H, j, k, tau, z1, z2, 0, policy))
            out.append((lhs, rhs))
        return out

    register(IdentitySpec("rem8.8", "wrapper and derivative wrapper index periodicity",
                          "n4", 1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}], rem88))

    def th96(pt, policy, M, m, J, k1, k2, m2):
        tau, z = pt.tau, pt.z
        w = n4.N4Weight(m, m2, M, J, k1, k2)
        if n4.qhr_characteristics(w)["vanishes"]:
            return 0.0, 0.0
        out = []
        for sector in n4.SECTORS:
            a = n4.qhr_character_admissible(w, tau, z, sector, policy)
            num = n4.numerator(w, tau, z + tau / 2, z - tau / 2, tau / 4, sector, policy)
            b = num / n4.n4_denominator(tau, z, *n4._QHR_EPS[sector], policy)
            out.append((a, b))
        return out

    register(IdentitySpec(
        "th9.6", "chi assembly equals the substituted numerators", "n4", 1e-8,
        [{"M": 1, "m": -1, "J": "I", "k1": 0, "k2": 0, "m2": 0},
         {"M": 3, "m": -2, "J": "I", "k1": 1, "k2": 0, "m2": 1},
         {"M": 3, "m": -2, "J": "III", "k1": 0, "k2": 1, "m2": 0}], th96, grid=(2, 2)))

    def th97(pt, policy, M, m, alpha, which):
        tau, z = pt.tau, pt.z
        eps, epsp = H, Fraction(0)
        j, k = HalfInt(2), HalfInt(-2)
        ci = lambda e, ep, jj, kk: n4.ChiIndex.of(alpha, M, m, e, ep, jj, kk)
        if which == "S":
            lhs = n4.chi(ci(eps, epsp, j, k), -1 / tau, z / tau, policy)
            tot = _s_sum(M, eps, lambda a, b: (
                e2pi(Fraction(m, M) * (a * k.value + b * j.value))
                * _chi_reduced(alpha, M, m, epsp, eps, a, b, tau, z, policy)))
            sgn = -((-1.0) ** ((1 - 2 * float(eps)) * (1 - 2 * float(epsp))))
            rhs = (sgn * tau ** alpha / M
                   * cmath.exp(-2j * math.pi * (Fraction(m, M) + 1) * z * z / tau) * tot)
            return lhs, rhs
        lhs = n4.chi(ci(eps, epsp, j, k), tau + 1, z, policy)
        ph = e2pi(-Fraction(m, M) * j.value * k.value - Fraction(1, 2) * epsp)
        rhs = ph * n4.chi(ci(abs(Fraction(eps) - Fraction(epsp)), epsp, j, k), tau, z, policy)
        return lhs, rhs

    register(IdentitySpec("th9.7", "chi S and T laws", "n4", 1e-6,
                          [{"M": M, "m": m, "alpha": a, "which": w}
                           for (M, m) in ((2, -1), (3, -2)) for a in (0, 1)
                           for w in ("S", "T")], th97, grid=(2, 2)))

    def th98a(pt, policy, M, m, alpha):
        tau, z = pt.tau, pt.z
        eps, epsp = H, Fraction(0)
        j, k = HalfInt(3), HalfInt(1)
        lhs = _s_sum(M, eps, lambda a, b: (
            e2pi(Fraction(m, M) * (a * k.value + b * j.value))
            * _chi_reduced(alpha, M, m, epsp, eps, a, b, tau, z, policy)))
        rhs = 0.0j
        for ia in range(M):
            for ib in range(ia, M):
                a, b = Fraction(eps) + ia, Fraction(eps) + ib
                base = _chi_reduced(alpha, M, m, epsp, eps, a, b, tau, z, policy)
                arg = math.pi * float(Fraction(m, M) * (k.value - j.value) * (a - b))
                ph = cmath.exp(1j * math.pi * float(Fraction(m, M) * (j.value + k.value) * (a + b)))
                if alpha == 1:
                    if a == b:
                        continue
                    rhs += 2j * ph * math.sin(arg) * base
                else:
                    rhs += (2 - (1 if a == b else 0)) * ph * math.cos(arg) * base
        return lhs, rhs

    register(IdentitySpec("th9.8a", "sine/cosine rewriting of the chi S-sum", "n4",
                          1e-8, [{"M": M, "m": m, "alpha": a}
                                 for (M, m) in ((2, -1), (3, -2)) for a in (0, 1)],
                          th98a, grid=(2, 2)))

    def rem95(pt, policy, M, m):
        tau, z = pt.tau, pt.z
        j, k = HalfInt(3), HalfInt(-1)
        out = [(n4.chi(n4.ChiIndex.of(1, M, m, H, H, j, k), tau, z, policy),
                -n4.chi(n4.ChiIndex.of(1, M, m, H, H, k, j), tau, z, policy)),
               (n4.chi(n4.ChiIndex.of(0, M, m, H, H, j, k), tau, z, policy),
                n4.chi(n4.ChiIndex.of(0, M, m, H, H, k, j), tau, z, policy)),
               (n4.chi(n4.ChiIndex.of(1, M, m, H, H, j, j), tau, z, policy), 0.0),
               (n4.chi(n4.ChiIndex.of(1, 1, m, H, Fraction(0), HalfInt(2), HalfInt(0)),
                       tau, z, policy), 0.0)]
        return out

    register(IdentitySpec("rem9.5", "chi symmetries and vanishing", "n4", 1e-10,
                          [{"M": 3, "m": -2}], rem95))


def _d21a_pairs():
    P111 = d2.D21Params(1, 1, 1)
    P211 = d2.D21Params(2, 1, 1)

    def _sum_guarded(terms, tol):
        """Sum a two-term split, or None when the cancellation exceeds what
        double precision can resolve at the requested tolerance."""
        amp = max(abs(terms[0]), abs(terms[1]))
        if amp * 1e-15 > tol / 50.0:
            return None
        return terms[0] + terms[1]

    def lem1012(pt, policy, p, q, n_, which):
        pr = d2.D21Params(p, q, n_)
        tau, zs = pt.tau, pt.zs
        t = 0.03
        j = 1
        refl = 2 * n_ * (pr.p if which == "P" else pr.q)
        out = []
        base = lambda jj, point: _sum_guarded(
            d2.PQ_terms(which, jj, pr, tau, *point, "minus", policy), 1e-8)
        pts = (zs[0], zs[1], zs[2], t)
        for lhs, rhs in [(base(j, d2.r_theta(tau, *pts)), base(-j, pts)),
                         (base(j, d2.r_alpha2(tau, *pts)), base(j, pts)),
                         (base(j, d2.r_alpha3(tau, *pts)), base(j, pts)),
                         (base(j, d2.r_alpha0(tau, *pts)), base(-j - refl, pts))]:
            if lhs is not None and rhs is not None:
                out.append((lhs, -rhs))
        return out

    register(IdentitySpec("lemma10.12", "reflection action on the numerator families",
                          "d21a", 1e-8,
                          [{"p": 2, "q": 1, "n_": 1, "which": w} for w in ("P", "Q")],
                          lem1012))

    def p1021(pt, policy, p, q, n_, which, lab):
        pr = d2.D21Params(p, q, n_)
        tau, zs = pt.tau, pt.zs
        t = 0.03
        big = 2 * n_ * (p + q)
        j = 1
        pts = (zs[0], zs[1], zs[2], t)
        if lab == "S":
            lhs = d2.PQ_function(which, j, pr, -1 / tau, zs[0] / tau, zs[1] / tau,
                                 zs[2] / tau, t, "minus", policy)
            tot = 0.0j
            for k in range(big):
                tot += (e2pi(Fraction(-j * k, big)) *
                        d2.PQ_function(which, k, pr, tau, *pts, "minus", policy))
            pref = (cmath.sqrt(-1j * tau) * tau / math.sqrt(big)
                    * e2pi(pr.K * d2.zz_value(pr, *zs) / (2 * tau)))
            return lhs, pref * tot
        lhs = d2.PQ_function(which, j, pr, tau + 1, *pts, "minus", policy)
        rhs = e2pi(Fraction(j * j, 2 * big)) * d2.PQ_function(which, j, pr, tau, *pts,
                                                              "minus", policy)
        return lhs, rhs

    register(IdentitySpec("prop10.21", "numerator family S and T laws", "d21a", 1e-6,
                          [{"p": p, "q": 1, "n_": 1, "which": w, "lab": lab}
                           for p in (1, 2) for w in ("P", "Q") for lab in ("S", "T")],
                          p1021, grid=(2, 2)))

    def lem112(pt, policy):
        pr = P211
        tau, zs = pt.tau, pt.zs
        t = 0.02
        j = 1
        big = pr.n * (pr.p + pr.q)
        pts = (zs[0], zs[1], zs[2], t)
        rows = [("minus", "f", Fraction(0), Fraction(0), 0, 1.0),
                ("plus", "f", H, Fraction(0), 0, 1.0),
                ("minus_tw", "f", Fraction(0), H, 0, -1.0),
                ("plus_tw", "f", H, H, 0, -1.0),
                ("minus", "g", Fraction(0), Fraction(0), 0, 1.0),
                ("minus_tw", "g", Fraction(0), H, big, -1.0),
                ("plus", "g", H, Fraction(0), 0, (-1.0) ** j),
                ("plus_tw", "g", H, H, big, -((-1.0) ** (j + pr.n * pr.p)))]
        out = []
        for variant, which, el, epl, shift, sgn in rows:
            a = _sum_guarded(d2.PQ_terms("P" if which == "f" else "Q", j, pr, tau,
                                         *pts, variant, policy), 1e-8)
            b = _sum_guarded(d2.fg_terms(which, j + shift, pr, el, epl, tau, *pts,
                                         policy), 1e-8)
            if a is not None and b is not None:
                out.append((a, sgn * b))
        return out

    register(IdentitySpec("lemma11.2", "sector variants in terms of the shifted basis",
                          "d21a", 1e-8, [{}], lem112))

    def lem117(pt, policy, eps, epsp):
        pr = P211
        tau = pt.tau
        y2, y3 = pt.zs[0], pt.zs[1]
        hrpt = d2.hr_point(tau, y2, y3)
        out = [(d2.fg_lower("f", 1, pr, eps, epsp, tau, *hrpt, policy),
                d2.FG_function("F", 1 + pr.n * pr.p, pr, eps, H - epsp, tau, y2, y3, policy)),
               (d2.fg_lower("g", 1, pr, eps, epsp, tau, *hrpt, policy),
                d2.FG_function("G", 1 + pr.n * pr.q, pr, eps, H - epsp, tau, y2, y3, policy))]
        return out

    register(IdentitySpec("lemma11.7", "Hamiltonian reduction of the basis functions",
                          "d21a", 1e-8,
                          [{"eps": e, "epsp": ep} for e in (Fraction(0), H)
                           for ep in (Fraction(0), H)], lem117))

    def rem116(pt, policy):
        pr = P211
        tau = pt.tau
        y2, y3 = pt.zs[0], pt.zs[1]
        big = pr.n * (pr.p + pr.q)
        F = lambda j: d2.FG_function("F", j, pr, Fraction(0), H, tau, y2, y3, policy)
        return [(F(-1), -F(1)), (F(1 + 2 * big), F(1)), (F(big + 1), -F(big - 1))]

    register(IdentitySpec("rem11.6", "index symmetries of the reduced basis",
                          "d21a", 1e-10, [{}], rem116))

    def lem118(pt, policy, which, eps, epsp):
        pr = P211
        tau = pt.tau
        y2, y3 = pt.zs[0], pt.zs[1]
        big = pr.n * (pr.p + pr.q)
        deg = pr.n * (pr.p if which == "F" else pr.q)
        j = 1
        lhs = d2.FG_function(which, j, pr, eps, epsp, -1 / tau, y2 / tau, y3 / tau, policy)
        tot = 0.0j
        for k in range(1, big):
            tot += (math.sin(math.pi * j * k / big)
                    * d2.FG_function(which, k, pr, epsp, eps, tau, y2, y3, policy))
        pref = ((-1j * tau) ** 1.5 * e2pi(2 * deg * Fraction(eps) * Fraction(epsp))
                * math.sqrt(2.0 / big)
                * e2pi(pr.n * (pr.q * y2 * y2 + pr.p * y3 * y3) / (4 * tau)))
        out = [(lhs, pref * tot)]
        lhsT = d2.FG_function(which, j, pr, eps, epsp, tau + 1, y2, y3, policy)
        rhsT = (e2pi(Fraction(j * j, 4 * big)) * e2pi(-deg * Fraction(epsp) ** 2)
                * d2.FG_function(which, j, pr, abs(Fraction(eps) - Fraction(epsp)), epsp,
                                 tau, y2, y3, policy))
        out.append((lhsT, rhsT))
        return out

    register(IdentitySpec("lemma11.8", "reduced basis S and T laws", "d21a", 1e-6,
                          [{"which": w, "eps": e, "epsp": ep} for w in ("F", "G")
                           for e in (Fraction(0), H) for ep in (Fraction(0), H)],
                          lem118, grid=(2, 2)))

    def eq1113(pt, policy, eps, epsp):
        tau = pt.tau
        y2, y3 = pt.zs[0], pt.zs[1]
        lhs = d2.b4_denominator(-1 / tau, y2 / tau, y3 / tau, eps, epsp, policy)
        sgn = -((-1.0) ** ((1 - 2 * float(eps)) * (1 - 2 * float(epsp))))
        rhs = (sgn * (-1j * tau) ** 1.5
               * cmath.exp(1j * math.pi * (y2 * y2 + y3 * y3) / (2 * tau))
               * d2.b4_denominator(tau, y2, y3, epsp, eps, policy))
        return lhs, rhs

    register(IdentitySpec("eq11.13", "reduced denominator S-law", "d21a", 1e-8,
                          [{"eps": e, "epsp": ep} for e in (Fraction(0), H)
                           for ep in (Fraction(0), H)], eq1113))

    def eq1114(pt, policy, eps, epsp):
        tau = pt.tau
        y2, y3 = pt.zs[0], pt.zs[1]
        lhs = d2.b4_denominator(tau + 1, y2, y3, eps, epsp, policy)
        rhs = ((1j ** int(2 * Fraction(epsp))) * e2pi(Fraction(1, 8))
               * d2.b4_denominator(tau, y2, y3, abs(Fraction(eps) - Fraction(epsp)), epsp,
                                   policy))
        return lhs, rhs

    register(IdentitySpec("eq11.14", "reduced denominator T-law", "d21a", 1e-8,
                          [{"eps": e, "epsp": ep} for e in (Fraction(0), H)
                           for ep in (Fraction(0), H)], eq1114))

    def p1114(pt, policy, which, eps, epsp):
        pr = P211
        tau, zs = pt.tau, pt.zs
        t = 0.02
        big = 2 * pr.n * (pr.p + pr.q)
        deg = pr.n * (pr.p if which == "f" else pr.q)
        j = 1
        out = []
        lhs = _sum_guarded(d2.fg_terms(which, j, pr, eps, epsp, -1 / tau, zs[0] / tau,
                                       zs[1] / tau, zs[2] / tau, t, policy), 1e-6)
        if lhs is not None:
            tot = 0.0j
            ok = True
            for k in range(big):
                term = _sum_guarded(d2.fg_terms(which, k, pr, epsp, eps, tau, *zs, t,
                                                policy), 1e-6)
                if term is None:
                    ok = False
                    break
                tot += e2pi(Fraction(-j * k, big)) * term
            if ok:
                pref = (e2pi(2 * deg * Fraction(eps) * Fraction(epsp))
                        * cmath.sqrt(-1j * tau) * tau / math.sqrt(big)
                        * e2pi(pr.K * d2.zz_value(pr, *zs) / (2 * tau)))
                out.append((lhs, pref * tot))
        lhsT = d2.fg_lower(which, j, pr, eps, epsp, tau + 1, *zs, t, policy)
        rhsT = (e2pi(-deg * Fraction(epsp) ** 2) * e2pi(Fraction(j * j, 2 * big))
                * d2.fg_lower(which, j, pr, abs(Fraction(eps) - Fraction(epsp)), epsp,
                              tau, *zs, t, policy))
        out.append((lhsT, rhsT))
        return out

    register(IdentitySpec("prop11.14", "basis function S and T laws", "d21a", 1e-6,
                          [{"which": w, "eps": e, "epsp": ep} for w in ("f", "g")
                           for (e, ep) in ((Fraction(0), Fraction(0)), (H, Fraction(0)),
                                           (Fraction(0), H))], p1114, grid=(2, 2)))

    def p1111(pt, policy, m2, m3, flavor):
        pr = P211
        tau = pt.tau
        y2, y3 = pt.zs[0], pt.zs[1]
        w = d2.D21Weight(pr, 1, m2, m3)
        hr = d2.hr_point(tau, y2, y3)
        a = d2.big_n4_qhr(w, tau, y2, y3, "minus", flavor, policy)
        num = d2.modified_supercharacter_numerator(w, tau, *hr, flavor, policy)
        b = num / d2.b4_denominator(tau, y2, y3, *n4._QHR_EPS["minus"], policy)
        return a, b

    register(IdentitySpec("prop11.11", "reduced character table vs case assembly",
                          "d21a", 1e-8,
                          [{"m2": 0, "m3": 0, "flavor": f} for f in ("P", "Q")]
                          + [{"m2": 0, "m3": 1, "flavor": f} for f in ("P", "Q")],
                          p1111))

    def rem1113(pt, policy, p, s, sector):
        pr = d2.D21Params(p, 1, 1)
        tau = pt.tau
        y2, y3 = pt.zs[0], pt.zs[1]
        w = d2.D21Weight(pr, 1, 0, s)
        v = d2.big_n4_qhr(w, tau, y2, y3, sector, "Q", policy)
        ts = s if sector in ("minus", "plus") else p - s - 1
        num = (theta_jm(ThetaIndex.of(ts + 1, p + 1), tau, y3, 0, policy)
               - theta_jm(ThetaIndex.of(-(ts + 1), p + 1), tau, y3, 0, policy))
        den = (theta_jm(ThetaIndex.of(1, 2), tau, y3, 0, policy)
               - theta_jm(ThetaIndex.of(-1, 2), tau, y3, 0, policy))
        return v, num / den

    register(IdentitySpec("rem11.13", "collapsing-level reduced characters", "d21a",
                          1e-8, [{"p": p, "s": s, "sector": sec} for p in (2, 3)
                                 for s in range(p) for sec in ("minus", "minus_tw")],
                          rem1113, grid=(2, 2)))

    def probe_1115(policy):
        pr = P211
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

    def eq127(pt, policy, eps, epsp, j):
        pr = P211
        p = pr.p
        tau, zs = pt.tau, pt.zs
        t = 0.02
        z1, z2, z3 = zs
        lhs = (d2.boundary_g(pr, j, eps, epsp, tau, *zs, t, policy)
               / d2.rhat(tau, *zs, t, eps, epsp, policy))
        a_, b_ = n4._eps_theta(HalfInt.of(eps), HalfInt.of(epsp))
        th = lambda aa, bb, u: jacobi_theta(aa, bb, tau, u, policy)
        pref = (e2pi(-Fraction(p, p + 1) * t)
                / (dedekind_eta(tau, policy) * th(1, 1, z1 - z3) * th(1, 1, z2 + z3)))
        t1 = (((-1.0) ** (1 - 2 * float(epsp)))
              * theta_jm(ThetaIndex.of(j, p + 1), tau,
                         z1 + z2 / (p + 1) - p * z3 / (p + 1), 0, policy)
              * th(a_, b_, z3) * th(a_, b_, z1 - z2 - z3))
        t2 = (((-1.0) ** (2 * float(eps) * (1 - 2 * float(epsp))))
              * theta_jm(ThetaIndex.of(-j, p + 1), tau,
                         z1 - z2 / (p + 1) - (p + 2) * z3 / (p + 1), 0, policy)
              * th(a_, b_, z1) * th(a_, b_, z2))
        return lhs, pref * (t1 - t2)

    register(IdentitySpec("eq12.7", "boundary quotient explicit form", "d21a", 1e-9,
                          [{"eps": e, "epsp": ep, "j": 1} for e in (Fraction(0), H)
                           for ep in (Fraction(0), H)], eq127))

    def eq128(pt, policy, eps, epsp):
        tau, zs = pt.tau, pt.zs
        lhs = d2.rhat(-1 / tau, zs[0] / tau, zs[1] / tau, zs[2] / tau, 0, eps, epsp, policy)
        rhs = 1j * (-1j * tau) ** 1.5 * d2.rhat(tau, *zs, 0, epsp, eps, policy)
        out = [(lhs, rhs)]
        lhsT = d2.rhat(tau + 1, *zs, 0, eps, epsp, policy)
        rhsT = e2pi(Fraction(1, 24)) * d2.rhat(tau, *zs, 0,
                                               abs(Fraction(eps) - Fraction(epsp)), epsp, policy)
        out.append((lhsT, rhsT))
        return out

    register(IdentitySpec("eq12.8", "affine denominator S and T laws", "d21a", 1e-8,
                          [{"eps": e, "epsp": ep} for e in (Fraction(0), H)
                           for ep in (Fraction(0), H)], eq128))

    def p124a(pt, policy, p):
        pr = d2.D21Params(p, 1, 1)
        tau, zs = pt.tau, pt.zs
        t = 0.02
        sm = d2.s_matrix_and_fusion(p)
        labels = sm["weights"]
        S = sm["S"]
        chs = [d2.boundary_case_characters(wt, tau, *zs, t, "minus", policy)
               for wt in labels]
        zt = tuple(x / tau for x in zs)
        zz = d2.zz_value(pr, *zs)
        out = []
        for i, wt in enumerate(labels):
            lhs = d2.boundary_case_characters(wt, -1 / tau, *zt, t, "minus", policy)
            tot = sum(S[i][k] * chs[k] for k in range(len(labels)))
            out.append((lhs, e2pi(pr.K * zz / (2 * tau)) * tot))
        return out

    register(IdentitySpec("prop12.4a", "boundary supercharacter S-rows", "d21a", 1e-6,
                          [{"p": 1}, {"p": 2}], p124a, grid=(2, 2)))

    def p124b(pt, policy, p):
        pr = d2.D21Params(p, 1, 1)
        tau, zs = pt.tau, pt.zs
        t = 0.02
        sm = d2.s_matrix_and_fusion(p)
        out = []
        for i, wt in enumerate(sm["weights"]):
            lhs = d2.boundary_case_characters(wt, tau + 1, *zs, t, "minus", policy)
            rhs = sm["T"][i] * d2.boundary_case_characters(wt, tau, *zs, t, "minus", policy)
            out.append((lhs, rhs))
        return out

    register(IdentitySpec("prop12.4b", "boundary supercharacter T-phases", "d21a",
                          1e-8, [{"p": 1}, {"p": 2}], p124b, grid=(2, 2)))

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


# Coverage contract: the registry must contain an entry for every listed law.
REQUIRED_IDS = [
    "eq1.2a", "eq1.2b", "eq1.3", "eq1.4", "eq1.5", "eq1.6", "eq1.7",
    "lemma1.1", "eq1.13", "eq1.14", "eq1.15", "eq1.16", "eq1.17", "eq1.18",
    "lemma4.4", "lemma4.5", "lemma4.7", "lemma4.8", "lemma4.9", "lemma4.10",
    "prop4.6a", "prop4.6b", "eq4.23", "eq4.24", "eq4.25",
    "eq5.03", "eq5.04", "eq5.05", "eq5.06", "eq5.07", "eq5.08", "eq5.09", "eq5.10",
    "lemma6.2", "lemma6.3", "lemma6.4", "rem6.5", "prop7.2", "lemma8.2", "lemma8.3",
    "lemma8.4", "lemma8.5", "prop8.7", "rem8.8", "th9.7", "lemma10.12", "prop10.21",
    "lemma11.8", "eq11.13", "eq11.14", "prop11.14", "eq12.8", "prop12.4a",
    "prop12.4b",
]
