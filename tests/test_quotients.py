"""The eta/theta quotient evaluator and the family denominators built on it.

Each denominator is pinned bit for bit against its former hand-written
multiply/divide chain, copied here as the reference, at points the
registry grid never visits: Im tau below ETA_DIRECT, where eta first
reduces tau, and |Re tau| >= 5.  n3.rhat keeps its product oracle in
tests/test_family_n3.py instead, since it groups its numerator
differently."""

from fractions import Fraction as F

import pytest

from mockforms.qkernel import TruncationPolicy
from mockforms.theta import ETA_DIRECT, dedekind_eta, eta_theta_quotient, jacobi_theta
import mockforms.family_d21a as d2
import mockforms.family_n3 as n3
import mockforms.family_n4 as n4

P = TruncationPolicy()
# Im tau below ETA_DIRECT in the first three, |Re tau| >= 5 in the last three
TAUS = (0.3 + 0.8 * ETA_DIRECT * 1j, -0.45 + 0.5 * ETA_DIRECT * 1j, 5.2 + 0.07j,
        -6.7 + 0.6j, 7.05 + 1.3j)
ZS = (0.19 + 0.013j, -0.31 - 0.021j, 0.43 + 0.008j)
SECTORS = [n4.Sector.of(e, ep) for e in (0, F(1, 2)) for ep in (0, F(1, 2))]


def bits(x):
    return x.real.hex(), x.imag.hex()


def eta(tau):
    return dedekind_eta(tau, P)


def th(a, b, tau, u):
    return jacobi_theta(a, b, tau, u, P)


def ref_n3_denominator(tau, z, sector):
    th11 = th(1, 1, tau, z)
    if sector == n4.SECTORS["plus"]:
        val = eta(tau / 2) * eta(2 * tau) * th11 / th(0, 0, tau, z)
    elif sector == n4.SECTORS["minus"]:
        val = eta(tau) ** 3 * th11 / (eta(tau / 2) * th(0, 1, tau, z))
    else:
        val = eta(tau) ** 3 * th11 / (eta(2 * tau) * th(1, 0, tau, z))
    return -1j * val


def ref_n4_rhat(tau, z1, z2, sector):
    a, b = sector.a, sector.b
    sgn = -1.0 if sector.eps_prime.twice else 1.0
    return (sgn * eta(tau) ** 4 * th(1, 1, tau, z1 - z2) * th(1, 1, tau, z1 + z2)
            / (th(a, b, tau, z1) ** 2 * th(a, b, tau, z2) ** 2))


def ref_n4_denominator(tau, z, sector):
    a, b = sector.a, sector.b
    const = 1j * (-1.0) ** (sector.eps.twice + sector.eps_prime.twice)
    return const * eta(tau) ** 3 * th(1, 1, tau, 2 * z) / th(a, b, tau, z) ** 2


def ref_d2_rhat(tau, z1, z2, z3, sector):
    a, b = sector.a, sector.b
    sgn = -1.0 if (sector.eps.twice and sector.eps_prime.twice) else 1.0
    num = (eta(tau) ** 4 * th(1, 1, tau, z1 - z2) * th(1, 1, tau, z1 - z3)
           * th(1, 1, tau, z2 + z3))
    den = 1.0 + 0.0j
    for u in (z1, z2, z3, z1 - z2 - z3):
        den *= th(a, b, tau, u)
    return -sgn * 1j * num / den


def ref_b4_denominator(tau, y2, y3, sector):
    a, b = sector.a, sector.b
    return -(eta(tau) ** 3 * th(1, 1, tau, y2) * th(1, 1, tau, y3)
             / (th(a, b, tau, (y2 + y3) / 2) * th(a, b, tau, (y2 - y3) / 2)))


@pytest.mark.parametrize("tau", TAUS)
def test_n3_denominator_bits(tau):
    for sector in (n4.SECTORS["plus"], n4.SECTORS["minus"], n4.SECTORS["plus_tw"]):
        for z in ZS:
            assert bits(n3.n3_denominator(tau, z, sector, P)) == bits(
                ref_n3_denominator(tau, z, sector)), (tau, z, sector)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("sector", SECTORS, ids=lambda s: f"{s.eps.value}-{s.eps_prime.value}")
def test_n4_and_d21a_denominator_bits(tau, sector):
    z1, z2, z3 = ZS
    assert bits(n4.rhat(tau, z1, z2, sector, P)) == bits(ref_n4_rhat(tau, z1, z2, sector))
    for z in ZS:
        assert bits(n4.n4_denominator(tau, z, sector, P)) == bits(
            ref_n4_denominator(tau, z, sector))
    assert bits(d2.rhat(tau, z1, z2, z3, sector, P)) == bits(
        ref_d2_rhat(tau, z1, z2, z3, sector))
    assert bits(d2.b4_denominator(tau, z1, z3, sector, P)) == bits(
        ref_b4_denominator(tau, z1, z3, sector))


def test_evaluator_contract():
    tau, (z1, z2, z3) = 0.1 + 0.9j, ZS
    e, t1, t2, t3 = eta(tau), th(1, 1, tau, z1), th(0, 1, tau, z2), th(1, 0, tau, z3)
    c = 0.3 - 0.7j
    # an empty numerator gives c / prod(den), an empty denominator c prod(num)
    assert bits(eta_theta_quotient(tau, c, (), ((1, 1), (1, 1, z1, 1)), P)) == bits(c / (e * t1))
    assert bits(eta_theta_quotient(tau, c, ((0, 1, z2, 1),), (), P)) == bits(c * t2)
    # powers apply to their own factor, and eta takes the scale of its row
    assert bits(eta_theta_quotient(tau, 1.0, ((1, 3), (1, 1, z1, 2)), (), P)) == bits(
        1.0 * e ** 3 * t1 ** 2)
    assert bits(eta_theta_quotient(tau, 1.0, ((0.5, 1), (2, 2)), (), P)) == bits(
        1.0 * eta(tau / 2) * eta(2 * tau) ** 2)
    # c is folded first, then each product left to right
    got = eta_theta_quotient(tau, c, ((1, 3), (1, 1, z1, 1), (0, 1, z2, 1)),
                             ((1, 0, z3, 1), (1, 1), (1, 1, z2, 2)), P)
    assert bits(got) == bits(((c * e ** 3) * t1) * t2 / ((t3 * e) * th(1, 1, tau, z2) ** 2))
