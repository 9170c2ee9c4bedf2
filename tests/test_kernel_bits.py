"""The public kernels bit for bit off the verification grid.

KERNEL_POINTS are 40 seeded points with Im tau log-uniform on [1e-3, 2],
so the longer sums run over several ANCHOR_EVERY runs of their walks, and
elliptic variables z = a + b tau with b up to 3/2, so that the modified
Appell function also sums at lattice-shifted points.  The golden holds an
8-hex sha256 prefix of repr of each kernel's value there (for
phi_tilde_d0, the pair of value and D0 value; for jacobi_theta, the tuple
of the four theta_ab), or the name of the error a kernel raised.  It was
last written when theta_ab and the Theta pair differences became one
series each, a change that moved last bits; a restatement that moves one
bit fails.

The sums also have to survive perfbench's tracer, which replaces the first
argument of sum_bilateral by a one-argument function of k that calls it:
the anchor must be that callable and nothing else.
"""

import hashlib
import json
import math
import pathlib
import random
from fractions import Fraction as F

import pytest

import mockforms.mock as mock
import mockforms.modification as modification
import mockforms.qkernel as qkernel
import mockforms.theta as theta
from mockforms.mock import MockIndex, PsiIndex

KERNEL_BITS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "kernel_bits.json"
P = qkernel.TruncationPolicy()


def _kernel_points(seed: int = 26, count: int = 40):
    """[(tau, z, z1, z2, theta index, MockIndex, PsiIndex)] from one seeded
    generator."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        tau = complex(rng.uniform(-0.5, 0.5),
                      math.exp(rng.uniform(math.log(1e-3), math.log(2.0))))

        def zpt():
            return rng.uniform(-0.5, 0.5) + rng.uniform(-1.5, 1.5) * tau

        m2 = rng.randint(1, 24)
        tidx = theta.ThetaIndex.of(F(rng.randrange(2 * m2), 2), F(m2, 2))
        m2 = rng.randint(1, 6)
        m, s = F(m2, 2), F(rng.randint(-2 * m2, 2 * m2), 2)
        eps_prime = rng.randint(0, 1)
        shifts = (-1, 1) if eps_prime else (-2, 0, 2)
        pidx = PsiIndex.of(rng.randint(1, 2), m, s, F(rng.randint(0, 1), 2),
                           F(rng.choice(shifts), 2), F(rng.choice(shifts), 2))
        out.append((tau, zpt(), zpt(), zpt(), tidx, MockIndex.of(m, s), pidx))
    return out


KERNEL_POINTS = _kernel_points()


def _cases(tau, z, z1, z2, tidx, idx, pidx):
    """{kernel name: zero-argument call} at one point."""
    return {
        "theta_jm": lambda: theta.theta_jm(tidx, tau, z, 0.0, P),
        "dedekind_eta": lambda: theta.dedekind_eta(tau, P),
        "jacobi_theta": lambda: tuple(theta.jacobi_theta(a, b, tau, z, P)
                                      for a in (0, 1) for b in (0, 1)),
        "theta_pair_diff": lambda: theta.theta_pair_diff(tidx, tau, z, P),
        "phi1": lambda: mock.phi1(idx, tau, z1, z2, P),
        "phi+": lambda: mock.phi(idx, tau, z1, z2, 0.0, P, 1),
        "phi-": lambda: mock.phi(idx, tau, z1, z2, 0.0, P, -1),
        "phi_tilde": lambda: modification.phi_tilde(idx, tau, z1, z2, 0.0, P),
        "phi_tilde_d0": lambda: modification.phi_tilde_d0(idx, tau, z1, z2, P),
        "psi_tilde": lambda: modification.psi_tilde(pidx, tau, z1, z2, 0.0, P),
    }


def _outcome(call) -> str:
    """repr of call()'s value, or the name of the error it raised."""
    try:
        return repr(call())
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def _kernel_bits():
    """{case: 8-hex sha256 prefix of repr(value), or the error's name}."""
    out = {}
    for i, point in enumerate(KERNEL_POINTS):
        for name, call in _cases(*point).items():
            got = _outcome(call)
            if not got.endswith("Error"):
                got = hashlib.sha256(got.encode()).hexdigest()[:8]
            out[f"{i} {name}"] = got
    return out


def test_kernel_bits_match_golden():
    golden = json.loads(KERNEL_BITS_GOLDEN.read_text())
    # the points reach both ends of the Im tau range, and most cases are values
    assert min(p[0].imag for p in KERNEL_POINTS) < 3e-3
    assert max(p[0].imag for p in KERNEL_POINTS) > 1.0
    assert sum(v.endswith("Error") for v in golden.values()) < len(golden) // 4
    assert _kernel_bits() == golden


def _counting(module, monkeypatch):
    """Wrap the anchor that module passes to sum_bilateral in a
    one-argument function, as the tracer does; returns the list of the
    anchor calls made through it."""
    real = module.sum_bilateral
    seen = []

    def traced(anchor, *rest):
        def counted(k):
            seen.append(k)
            return anchor(k)
        return real(counted, *rest)

    monkeypatch.setattr(module, "sum_bilateral", traced)
    return seen


@pytest.mark.parametrize("point", KERNEL_POINTS[::4], ids=lambda p: f"{p[0]:.4g}")
def test_sums_survive_a_wrapped_anchor(point, monkeypatch):
    cases = _cases(*point)
    calls = [cases[name] for name in ("theta_jm", "dedekind_eta", "jacobi_theta",
                                      "theta_pair_diff", "phi1", "phi_tilde_d0")]
    plain = [_outcome(call) for call in calls]
    seen = [_counting(theta, monkeypatch), _counting(mock, monkeypatch)]
    assert [_outcome(call) for call in calls] == plain
    assert all(seen)
