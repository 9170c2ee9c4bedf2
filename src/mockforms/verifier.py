"""Identity harness: the registry's records, the grid, and the reports.

Every transformation law carries an id, a citation anchor, a tag, its own
tolerance and grid size, a parameter domain, and a plan: plan(**params)
does the exact work of one parameter set (index objects, phases,
coefficient tables) and returns run(pt, policy), which evaluates the list
of (lhs, rhs) pairs at a grid point with float kernels only.  The laws
themselves are registered by the module registry, which is imported the
first time the registry is read (registry_ids, get_spec, suite), so that
importing mockforms plans none of them.  verify() plans each parameter set
of one id once per call, then walks the standard grid one point at a time
through _run_point(); suite() runs a tag in registry order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import import_module

from .qkernel import (
    DEFAULT_POLICY,
    EvalPoint,
    PoleProximityError,
    TruncationPolicy,
    UnknownIdentityError,
    _POINT_MEMO,
    lattice_distance,
)


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


# the fixed tau list of every grid; n_tau takes its first entries
GRID_TAUS = (0.31j, 0.8j, 1.0 + 1.3j, -0.4 + 0.7j, 2.1j)


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
    if n_tau > len(GRID_TAUS):
        raise ValueError(f"n_tau is at most {len(GRID_TAUS)}, the length of the tau list")
    return _draw_grid(n_tau, n_z, seed, max(policy.pole_guard, 0.04))


@lru_cache(maxsize=32)
def _draw_grid(n_tau: int, n_z: int, seed: int, sep: float) -> tuple:
    taus = GRID_TAUS[:n_tau]
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


def _registry() -> dict:
    """The registry, built by the first import of the module registry,
    which registers every law.  An import of a module that another thread
    is still executing waits for it, so no caller sees a partly built
    registry."""
    import_module(".registry", __package__)
    return _REGISTRY


def registry_ids() -> list:
    return list(_registry())


def get_spec(identity_id: str) -> IdentitySpec:
    try:
        return _registry()[identity_id]
    except KeyError:
        raise UnknownIdentityError(identity_id) from None


def verify(identity_id: str, grid=None, policy: TruncationPolicy = DEFAULT_POLICY,
           seed: int = 1, param_filter: dict | None = None) -> VerificationReport:
    spec = get_spec(identity_id)
    n_tau, n_z = grid if grid is not None else spec.grid
    # identity residuals are absolute, so points whose (possibly shifted)
    # arguments come near a pole are skipped instead of contributing
    # amplified rounding noise
    guarded = TruncationPolicy(policy.tol, policy.n_max, max(policy.pole_guard, 0.02))
    # a runner id refuses the grids and filters the others refuse, too
    pts = standard_grid(n_tau, n_z, seed, guarded)
    params = spec.params
    if param_filter:
        want = {k: _exact(v) for k, v in param_filter.items()}
        params = [p for p in params if all(_exact(p.get(k)) == v for k, v in want.items())]
        if not params:
            raise ValueError(f"no parameter set of {identity_id} matches {param_filter}")
    if spec.runner is not None:
        max_err, skipped = spec.runner(policy)
        few_skips = True
    else:
        runs = [spec.plan(**prm) for prm in params]
        max_err, skipped = 0.0, 0
        for pt in pts:
            for pairs in _run_point(runs, pt, guarded):
                if pairs is None:
                    skipped += 1
                    continue
                for lhs, rhs in pairs:
                    max_err = max(max_err, abs(lhs - rhs))
        few_skips = skipped < 0.2 * len(pts) * len(runs)
    passed = max_err > spec.tol if spec.check == "exceeds" else max_err <= spec.tol and few_skips
    return VerificationReport(spec.id, spec.citation, {"n_tau": n_tau, "n_z": n_z, "seed": seed},
                              spec.tol, max_err, passed, skipped)


def _exact(x):
    """A number or a rational string (1, 0.5, "1/2") as its exact value and
    anything else as its string, so that a filter selects parameters by
    value."""
    if not isinstance(x, bool):
        try:
            return Fraction(x)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
    return str(x)


def _run_point(runs, pt, policy) -> list:
    """The (lhs, rhs) list of each run at the grid point pt, or None for a
    run that raised PoleProximityError, under one kernel memo for the call."""
    token = _POINT_MEMO.set({})
    try:
        out = []
        for run in runs:
            try:
                out.append(run(pt, policy))
            except PoleProximityError:
                out.append(None)
        return out
    finally:
        _POINT_MEMO.reset(token)


TAGS = ("theta", "mock", "modification", "n3", "n4", "d21a")


def suite(tag: str, policy: TruncationPolicy = DEFAULT_POLICY, seed: int = 1) -> list:
    if tag == "all":
        wanted = list(_registry().values())
    elif tag in TAGS:
        wanted = [s for s in _registry().values() if s.tag == tag]
    else:
        raise UnknownIdentityError(f"unknown tag {tag}")
    return [verify(s.id, None, policy, seed) for s in wanted]


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
