"""The three benchmark workloads: seeded inputs, one call per op, and the
correctness gate of each op.

Every workload exposes the same four pieces, which worker.py drives:

* ``make(name, seed)`` builds the seeded input stream (the set-up work);
* ``stream.op(i)`` returns the i-th op as a zero-argument callable plus the
  record the gate needs; the stream is a pure function of the seed and i;
* ``gate(record, output)`` returns None when the output is right, or a short
  failure label;
* ``fingerprint(output)`` gives a comparable value, so that two runs over the
  same ops (untraced and traced) can be checked for identical outputs.

The program's functions are looked up through their modules at call time,
never bound at import, so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mockforms.formal as formal
import mockforms.mock as mock
import mockforms.modification as modification
import mockforms.qkernel as qkernel
import mockforms.theta as theta
import mockforms.verifier as verifier

# Ids that fail by design at half-integer s (README, "Verification registry").
EXPECTED_RED = frozenset({"eq1.13", "eq1.15", "eq1.16"})


# Gate labels for failures the program reports itself (a verification
# report with pass = false).  Every other gate label means the program
# returned a wrong output without saying so, and makes the run incorrect.
REPORTED_BY_PROGRAM = frozenset({"identity-failed"})


# ---------------------------------------------------------------------------
# verify-all: repeated passes of suite("all", seed)
# ---------------------------------------------------------------------------

class VerifyAll:
    """One op verifies one registered identity on the standard grid of the
    run seed.  Ops are issued pass by pass in registry order, which is
    exactly what ``verifier.suite("all", seed=seed)`` does, so every pass
    must repeat the reports of the first."""

    def __init__(self, seed: int):
        self.seed = seed
        self.ids = verifier.registry_ids()
        self.per_pass = len(self.ids)

    def op(self, i: int):
        identity = self.ids[i % self.per_pass]
        return (lambda: verifier.verify(identity, None, qkernel.DEFAULT_POLICY,
                                        self.seed)), identity

    def gate(self, identity, report):
        if identity in EXPECTED_RED:
            return "expected-failure-passed" if report.passed else None
        spec = verifier.get_spec(identity)
        if not report.passed:
            return "identity-failed"
        if spec.check == "close" and not report.max_abs_err <= report.tol:
            return "identity-failed"
        return None

    @staticmethod
    def fingerprint(report):
        return repr(report.to_dict())


# ---------------------------------------------------------------------------
# eval-sweep: distinct single-point kernel evaluations
# ---------------------------------------------------------------------------

POLE_SEP = 2e-3   # twice the default pole guard


def _lattice_distance(u: complex, tau: complex) -> float:
    """Distance from u to the nearest point of Z + tau Z in the 18 lattice
    rows around u.  That covers every point the program's pole guard
    examines (qkernel.lattice_distance searches 7 rows), so a point kept
    here is never refused as too close to a pole."""
    rows = u.imag / tau.imag
    best = math.inf
    for b in range(math.floor(rows) - 8, math.floor(rows) + 10):
        w = u - b * tau
        d = abs(complex(w.real - round(w.real), w.imag))
        best = min(best, d)
    return best


class EvalSweep:
    """One op is one evaluation of a public kernel at a fresh point.

    Kernels are visited round-robin, so every run has the same mix; the
    parameters and the point are drawn from a generator seeded by (seed, i).
    Im tau is log-uniform on [1e-3, 2] and Re tau uniform on [-1/2, 1/2];
    elliptic variables are z = a + b tau with a, b uniform on [-1/2, 1/2].
    Points within POLE_SEP of a pole of the Appell sums are redrawn: the
    program refuses points near a pole by contract (PoleProximityError)."""

    KERNELS = ("theta_jm", "dedekind_eta", "jacobi_theta", "phi1", "phi",
               "phi_tilde", "psi_tilde")
    IM_TAU = (1e-3, 2.0)

    def __init__(self, seed: int):
        self.seed = seed

    def _params(self, i: int):
        rng = random.Random(self.seed * 1_000_003 + i)
        kernel = self.KERNELS[i % len(self.KERNELS)]
        lo, hi = self.IM_TAU
        tau = complex(rng.uniform(-0.5, 0.5),
                      math.exp(rng.uniform(math.log(lo), math.log(hi))))

        def zpt():
            return rng.uniform(-0.5, 0.5) + rng.uniform(-0.5, 0.5) * tau

        if kernel == "theta_jm":
            m2 = rng.randint(1, 24)
            return kernel, dict(j=Fraction(rng.randrange(2 * m2), 2),
                                m=Fraction(m2, 2), tau=tau, z=zpt())
        if kernel == "dedekind_eta":
            return kernel, dict(tau=tau)
        if kernel == "jacobi_theta":
            return kernel, dict(a=rng.randint(0, 1), b=rng.randint(0, 1),
                                tau=tau, z=zpt())
        m2 = rng.randint(1, 6)
        prm = dict(m=Fraction(m2, 2), s=Fraction(rng.randint(-m2, m2), 2))
        if kernel == "psi_tilde":
            eps_prime = rng.randint(0, 1)
            shifts = (-1, 1) if eps_prime else (-2, 0, 2)
            prm.update(M=rng.randint(1, 2), eps=Fraction(rng.randint(0, 1), 2),
                       a=Fraction(rng.choice(shifts), 2),
                       b=Fraction(rng.choice(shifts), 2))
        while True:
            z1, z2 = zpt(), zpt()
            if kernel == "psi_tilde":
                mt = prm["M"] * tau
                poles = (z1 + prm["a"] * tau + prm["eps"],
                         -(z2 + prm["b"] * tau + prm["eps"]))
            else:
                mt = tau
                poles = (z1,) if kernel == "phi1" else (z1, -z2)
            if all(_lattice_distance(u, mt) >= POLE_SEP for u in poles):
                break
        prm.update(tau=tau, z1=z1, z2=z2)
        return kernel, prm

    def op(self, i: int):
        kernel, p = self._params(i)
        pol = qkernel.DEFAULT_POLICY
        if kernel == "theta_jm":
            def call():
                return theta.theta_jm(theta.ThetaIndex.of(p["j"], p["m"]),
                                      p["tau"], p["z"], 0.0, pol)
        elif kernel == "dedekind_eta":
            def call():
                return theta.dedekind_eta(p["tau"], pol)
        elif kernel == "jacobi_theta":
            def call():
                return theta.jacobi_theta(p["a"], p["b"], p["tau"], p["z"], pol)
        elif kernel == "psi_tilde":
            def call():
                idx = mock.PsiIndex.of(p["M"], p["m"], p["s"], p["eps"], p["a"], p["b"])
                return modification.psi_tilde(idx, p["tau"], p["z1"], p["z2"], 0.0, pol)
        elif kernel == "phi1":
            def call():
                return mock.phi1(mock.MockIndex.of(p["m"], p["s"]),
                                 p["tau"], p["z1"], p["z2"], pol)
        elif kernel == "phi":
            def call():
                return mock.phi(mock.MockIndex.of(p["m"], p["s"]),
                                p["tau"], p["z1"], p["z2"], 0.0, pol)
        else:
            def call():
                return modification.phi_tilde(mock.MockIndex.of(p["m"], p["s"]),
                                              p["tau"], p["z1"], p["z2"], 0.0, pol)
        return call, (kernel, p)

    @staticmethod
    def gate(record, value):
        # The mpmath comparison runs after the timed phase (worker.py); here
        # only what is free to check.
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            return "non-finite"
        return None

    @staticmethod
    def fingerprint(value):
        return (value.real.hex(), value.imag.hex())


# ---------------------------------------------------------------------------
# formal-qexp: exact expansions and exact identity proofs
# ---------------------------------------------------------------------------

# Ramanujan tau(n), n = 1..16 (OEIS A000594): eta(tau)^24 = sum tau(n) q^n.
RAMANUJAN_TAU = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643,
                 -115920, 534612, -370944, -577738, 401856, 1217160, 987136)


def _theta_reference(j, m, order, scale, z):
    """Expected terms of expand_theta by direct enumeration of
    n in Z + j/2m with q-power scale*m*n^2 <= order."""
    base = Fraction(j) / (2 * Fraction(m))
    base -= math.floor(base)
    out = {}
    k_max = math.isqrt(int(order / (scale * Fraction(m))) + 1) + 2
    for k in range(-k_max, k_max + 1):
        n = base + k
        alpha = scale * Fraction(m) * n * n
        if alpha > order:
            continue
        t = Fraction(m) * n
        key = (alpha, int(2 * t * z.a1), int(2 * t * z.a2))
        x = (t * z.c * 4) % 4            # e^{2 pi i t c}, t c in (1/4)Z
        phase = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}[int(x)]
        re, im = out.get(key, (0, 0))
        out[key] = (re + phase[0], im + phase[1])
    return {k: v for k, v in out.items() if v != (0, 0)}


def _eta_reference(power, order, scale):
    """Coefficients of prod_{n>=1} (1 - x^n)^power up to x^N, exact ints."""
    n_max = order // scale
    coeffs = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        for _ in range(power):
            for k in range(n_max, n - 1, -1):
                coeffs[k] -= coeffs[k - n]
    return coeffs


def _as_int_terms(series):
    return {k: (c.re, c.im) for k, c in series.terms.items()}


class FormalQexp:
    """One op is one exact expansion or one exact identity proof.  The op
    kinds are visited round-robin (fixed mix); their parameters are drawn
    from a generator seeded by (seed, i)."""

    KINDS = ("theta", "phi1", "theta", "phi", "eta_quotient", "antisymmetry",
             "theta", "doubling", "phi1", "eta24")

    def __init__(self, seed: int):
        self.seed = seed

    def _params(self, i: int):
        rng = random.Random(self.seed * 1_000_003 + i)
        kind = self.KINDS[i % len(self.KINDS)]
        Z = formal.ZArg
        half = Fraction(1, 2)
        if kind == "theta":
            m2 = rng.randint(1, 8)
            m = Fraction(m2, 2)
            return kind, dict(j=rng.randrange(m2), m=m, order=rng.randint(8, 12),
                              tau_scale=rng.randint(1, 2),
                              z=Z.of(rng.choice((1, -1)), rng.randint(0, 1),
                                     half * rng.randint(0, 1)))
        if kind in ("phi1", "phi"):
            m2 = rng.randint(1, 6)
            return kind, dict(m=Fraction(m2, 2), s=Fraction(rng.randint(-m2, m2), 2),
                              order=rng.randint(8, 12), tau_scale=rng.randint(1, 2),
                              z1=Z.of(1, 0, half * rng.randint(0, 1)),
                              z2=Z.of(0, 1, half * rng.randint(0, 1)))
        if kind == "eta_quotient":
            return kind, dict(power=rng.randint(1, 8), order=rng.randint(8, 12),
                              tau_scale=rng.randint(1, 2))
        if kind == "antisymmetry":
            m = rng.randint(1, 3)
            return kind, dict(m=m, s=rng.randint(-m, m), order=rng.randint(8, 10))
        if kind == "doubling":
            return kind, dict(order=10)
        return kind, dict(order=rng.randint(8, 12))

    def op(self, i: int):
        kind, p = self._params(i)
        Z = formal.ZArg
        half = Fraction(1, 2)
        if kind == "theta":
            def call():
                return formal.expand_theta(p["j"], p["m"], p["order"],
                                           p["tau_scale"], p["z"])
        elif kind == "phi1":
            def call():
                return formal.expand_phi1(p["m"], p["s"], p["order"], p["tau_scale"],
                                          p["z1"], p["z2"])
        elif kind == "phi":
            def call():
                return formal.expand_phi(p["m"], p["s"], p["order"], p["tau_scale"],
                                         p["z1"], p["z2"])
        elif kind == "eta_quotient":
            def call():
                return formal.expand_eta_quotient(p["power"], p["order"], p["tau_scale"])
        elif kind == "antisymmetry":
            def call():
                a = formal.expand_phi(p["m"], p["s"], p["order"])
                b = formal.expand_phi(p["m"], p["s"], p["order"], 1,
                                      Z.of(0, -1), Z.of(-1, 0))
                return formal.series_equal(a, b.scale(-formal.GR_ONE),
                                           zwindow=p["order"])
        elif kind == "doubling":
            def call():
                o = p["order"]
                lhs = formal.expand_phi(1, 0, o, tau_scale=2).scale(
                    formal.GRat(Fraction(2)))
                r1 = formal.expand_phi(2, 0, o, 1, Z.of(half, 0), Z.of(0, half))
                r2 = formal.expand_phi(2, 0, o, 1, Z.of(half, 0, half),
                                       Z.of(0, half, half))
                return formal.series_equal(lhs, r1 + r2, zwindow=o)
        else:
            def call():
                return formal.expand_eta_quotient(24, p["order"])
        return call, (kind, p)

    @staticmethod
    def gate(record, out):
        kind, p = record
        if kind in ("antisymmetry", "doubling"):
            return None if out[0] else f"{kind}-does-not-hold"
        if kind == "theta":
            want = _theta_reference(p["j"], p["m"], Fraction(p["order"]),
                                    Fraction(p["tau_scale"]), p["z"])
            got = _as_int_terms(out)
            return None if got == want else "theta-expansion-wrong"
        if kind == "eta_quotient":
            shift = Fraction(p["power"] * p["tau_scale"], 24)
            coeffs = _eta_reference(p["power"], p["order"], p["tau_scale"])
            want = {(shift + p["tau_scale"] * n, 0, 0): (c, 0)
                    for n, c in enumerate(coeffs) if c}
            return None if _as_int_terms(out) == want else "eta-quotient-wrong"
        if kind == "eta24":
            want = {(Fraction(1 + n), 0, 0): (RAMANUJAN_TAU[n], 0)
                    for n in range(p["order"] + 1)}
            return None if _as_int_terms(out) == want else "ramanujan-tau-mismatch"
        return None   # phi1 / phi expansions: no raise, identical across runs

    @staticmethod
    def fingerprint(out):
        if isinstance(out, tuple):
            return repr(out)
        return (str(out.order), repr(out.zmax), sorted(
            (str(k[0]), k[1], k[2], str(c.re), str(c.im)) for k, c in out.terms.items()))


def make(name: str, seed: int):
    return {"verify-all": VerifyAll, "eval-sweep": EvalSweep,
            "formal-qexp": FormalQexp}[name](seed)
