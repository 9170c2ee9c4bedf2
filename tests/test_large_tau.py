"""Large |Re tau| and large Im tau.

Each Theta-type kernel, eta and the Appell sum Phi_1 take an exact
T-period out of Re tau before summing, past a threshold that no argument of
the verification grid reaches: the value at Re tau = x + N P is the value at
x, bit for bit, at every x + N P that is exact as a double.  Phi-tilde
inherits that at an unshifted point (|Im z| < Im tau / 2), where it is the
Appell sums, the Theta pairs and the correcting window r_window, which
reduces Re tau itself.

A denominator that underflows to 0 at large Im tau raises DomainError where
it is formed, so a family character refuses instead of dividing by 0.
"""

import random
from fractions import Fraction as F

import pytest

import mockforms.family_d21a as d2
import mockforms.family_n3 as n3
import mockforms.family_n4 as n4
import mockforms.mock as mk
import mockforms.modification as md
import mockforms.theta as th
from mockforms.mock import MockIndex
from mockforms.qkernel import DomainError, PoleProximityError, TruncationOverflowError
from mockforms.theta import ThetaIndex

Z = 0.1 + 0.2j
Z1, Z2 = 0.11 + 0.07j, -0.21 + 0.05j
HALF = F(1, 2)

# name -> (value at tau, T-period); the points are unshifted at Im tau = 1
PERIODIC = {
    "eta": (lambda tau: th.dedekind_eta(tau), 24),
    **{f"theta_m{m}": (lambda tau, idx=ThetaIndex.of(HALF, m): th.theta_jm(idx, tau, Z), 16 * m)
       for m in (HALF, 1, F(3, 2), 12)},
    **{f"theta_{a}{b}": (lambda tau, a=a, b=b: th.jacobi_theta(a, b, tau, Z), 8)
       for a in (0, 1) for b in (0, 1)},
    "pair": (lambda tau: th.theta_pair_diff(ThetaIndex.of(HALF, F(3, 2)), tau, Z), 24),
    "phi1": (lambda tau: mk.phi1(MockIndex.of(F(3, 2), HALF), tau, Z1, Z2), 2),
    # 16m: a multiple of the Appell period 2 and of the pair period 16m,
    # and r_window's shift by 4m comes out a multiple of 4, with unit 1
    "phi_tilde": (lambda tau: md.phi_tilde(MockIndex.of(2, HALF), tau, Z1, Z2), 32),
}

# (x, k) with x + 2^k P exact as a double and past every threshold
SHIFTS = [(0.25, k) for k in range(4, 41)] + [(0.0, k) for k in range(4, 1001, 33)] + [(0.0, 1000)]


@pytest.mark.parametrize("name", sorted(PERIODIC))
def test_a_whole_period_leaves_the_value_bit_for_bit(name):
    value, period = PERIODIC[name]
    for x, k in SHIFTS:
        shift = 2 ** k * int(period)
        re = x + shift
        assert F(re) == F(x) + shift and re >= 32
        assert repr(value(complex(re, 1.0))) == repr(value(complex(x, 1.0))), (x, k)


# the kernels of ROADMAP item 21's table: at Re tau = 24 10^k every phase is
# an integer, and 24 10^k is an exact double for every k <= 22
TABLE = {
    "Theta_{1/2,3/2}": lambda tau: th.theta_jm(ThetaIndex.of(HALF, F(3, 2)), tau, Z),
    "eta": th.dedekind_eta,
    "theta_10": lambda tau: th.jacobi_theta(1, 0, tau, Z),
    "pair": lambda tau: th.theta_pair_diff(ThetaIndex.of(HALF, F(3, 2)), tau, Z),
    "phi_tilde[2;0]": lambda tau: md.phi_tilde(MockIndex.of(2, 0), tau, Z1, Z2),
    "phi1[3/2;1/2]": lambda tau: mk.phi1(MockIndex.of(F(3, 2), HALF), tau, Z1, Z2),
}


@pytest.mark.parametrize("k", [3, 7, 13, 15])
@pytest.mark.parametrize("name", sorted(TABLE))
def test_table_points_equal_the_value_at_i(name, k):
    tau = complex(24 * 10 ** k, 1.0)
    assert F(tau.real) == 24 * 10 ** k
    assert repr(TABLE[name](tau)) == repr(TABLE[name](1j))


UNDERFLOWED = {
    "eta_theta_quotient": lambda: th.eta_theta_quotient(1000j, 1, ((1, 3),), ((1, 1, 0.2, 1),)),
    "n3_denominator_1e6": lambda: n3.n3_denominator(1e6j, 0.21 + 0.06j, n4.SECTORS["minus"]),
    "big_n4_qhr_1e6": lambda: d2.big_n4_qhr(d2.D21Weight(d2.D21Params(2, 1, 1), 1, 0, 1),
                                            1e6j, 0.21 + 0.06j, 0.13 - 0.04j),
    # at Im tau = 1e3 these denominators underflow to 0j, not to a refusal
    "n3_denominator": lambda: n3.n3_denominator(1e3j, 0.21 + 0.06j, n4.SECTORS["minus"]),
    "n4_denominator": lambda: n4.n4_denominator(1e3j, 0.21 + 0.06j, n4.SECTORS["minus"]),
    "b4_denominator": lambda: d2.b4_denominator(1e3j, 0.21 + 0.06j, 0.13 - 0.04j,
                                                n4.SECTORS["minus"]),
}


@pytest.mark.parametrize("name", sorted(UNDERFLOWED))
def test_an_underflowed_denominator_is_a_domain_error(name):
    with pytest.raises(DomainError):
        UNDERFLOWED[name]()


def _characters():
    """(family, call(tau, y, y')) over weights of every family character
    that divides by a denominator, in every sector."""
    out = []
    for k in (3, 4, 5):
        for dotted in (False, True):
            for m2 in range(k - 1):
                for data in ((1, "none", 0, 0), (2, "I", 0, 1), (3, "I", 1, 0), (3, "III", 0, 1)):
                    try:
                        w = n3.N3Weight(dotted, F(-k, 4), m2, *data)
                    except ValueError:
                        continue
                    out += [("n3", lambda tau, y, _, w=w, s=s, mod=mod:
                             n3.qhr_character(w, tau, y, s, mod))
                            for s in n4.SECTORS.values() for mod in (False, True)]
    for m in (-1, -2, -3):
        for m2 in range(-m + 1):
            for data in ((1, "none", 0, 0), (3, "I", 0, 1), (3, "III", 1, 0), (5, "I", 1, 1)):
                try:
                    w = n4.N4Weight(m, m2, *data)
                except ValueError:
                    continue
                f = n4.qhr_character_integrable if w.J == "none" else n4.qhr_character_admissible
                out += [("n4", lambda tau, y, _, w=w, s=s, f=f: f(w, tau, y, s))
                        for s in n4.SECTORS.values()]
    for params in (d2.D21Params(1, 1, 1), d2.D21Params(2, 1, 1), d2.D21Params(3, 2, 1)):
        for j, ws in d2.enumerate_weights(params).items():
            for w in ws:
                for s in d2.SECTORS.values():
                    if j == 1 and 0 in (w.m2, w.m3):
                        out += [("big_n4_qhr", lambda tau, y, y2, w=w, s=s, fl=fl:
                                 d2.big_n4_qhr(w, tau, y, y2, s, fl)) for fl in ("P", "Q")]
                    if params.q == params.n == 1 and j in (0, 1):
                        out.append(("boundary", lambda tau, y, y2, w=w, s=s:
                                    d2.boundary_case_characters(w, tau, y, y2, (y + y2) / 2,
                                                                0.0, s)))
    return out


def test_family_characters_at_extreme_tau_raise_typed_errors_only():
    rng = random.Random(21)
    characters = _characters()
    untyped, refused = [], 0
    for _ in range(400):
        family, call = rng.choice(characters)
        tau = rng.choice([complex(rng.uniform(-0.5, 0.5), 1e3), complex(rng.uniform(-0.5, 0.5), 1e6),
                          complex(1e300, rng.uniform(0.5, 2.0))])
        y, y2 = (complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3)) for _ in range(2))
        try:
            call(tau, y, y2)
        except (DomainError, PoleProximityError, TruncationOverflowError):
            refused += 1
        except Exception as exc:
            untyped.append((family, tau, y, y2, type(exc).__name__))
    assert untyped == []
    # the draw reaches the underflow: some calls refuse, and some give values
    assert 0 < refused < 400
