"""Ramanujan's third-order mock theta functions as points of Phi_1 and
Phi-tilde.

f(q) and omega(q) are summed from their q-hypergeometric definitions and
(q;q)_inf as a product, none of which shares code with the program (Watson
1936 wrote f as an Appell-Lerch sum; Zwegers completed the vector of f and
omega).  Each sum and the product stop after 60 terms: at Im tau >= 0.5,
|q| <= e^{-pi} < 0.044, so the terms of f and omega fall below |q|^{n^2}
and |q|^{n(n+1)} times a bounded factor, under 1e-30 from n = 5 on, and the
60th factor of (q;q)_inf is 1 to within |q|^60 < 1e-80."""

from fractions import Fraction as F

import pytest

from mockforms.qkernel import TruncationPolicy, e2pi
from mockforms.mock import MockIndex, phi1
from mockforms.modification import phi_tilde
from mockforms.theta import dedekind_eta

P = TruncationPolicy()
TAUS = (0.3 + 0.8j, -0.2 + 0.5j, 0.11 + 1.3j)
TERMS = 60


def q_pochhammer(q):
    """(q;q)_inf as a product of TERMS factors."""
    val = 1.0
    for k in range(1, TERMS + 1):
        val *= 1 - q ** k
    return val


def f_series(q):
    """f(q) = sum q^{n^2} / (-q;q)_n^2."""
    total, den = 0.0j, 1.0
    for n in range(TERMS):
        if n:
            den *= 1 + q ** n
        total += q ** (n * n) / den ** 2
    return total


def omega_half_series(tau):
    """omega(q^{1/2}) = sum q^{n(n+1)} / (q^{1/2};q)_{n+1}^2, q = e(tau)."""
    q, r = e2pi(tau), e2pi(tau / 2)
    total, den = 0.0j, 1.0
    for n in range(TERMS):
        den *= 1 - r * q ** n
        total += q ** (n * (n + 1)) / den ** 2
    return total


def rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("tau", TAUS)
def test_f_is_a_phi1_point(tau):
    # f(q) = -2i Phi_1^{[3/2;1/2]}(tau, 1/2, 1/2) / (q;q)_inf
    q = e2pi(tau)
    val = -2j * phi1(MockIndex.of(F(3, 2), F(1, 2)), tau, 0.5, 0.5, P) / q_pochhammer(q)
    assert rel(val, f_series(q)) < 1e-13


@pytest.mark.parametrize("tau", TAUS)
def test_omega_is_a_phi1_point(tau):
    # omega(q^{1/2}) = Phi_1^{[3/2;0]}(tau, tau/2, tau/2 + 1/3) / (q;q)_inf
    val = (phi1(MockIndex.of(F(3, 2), 0), tau, tau / 2, tau / 2 + 1 / 3, P)
           / q_pochhammer(e2pi(tau)))
    assert rel(val, omega_half_series(tau)) < 1e-13


@pytest.mark.parametrize("tau", TAUS)
def test_f_completion_t_law(tau):
    # H_1 = -i Phi-tilde^{[3/2;1/2]}(tau, 1/2, 1/2) / eta(tau), the completed
    # q^{-1/24} f(q), obeys Zwegers' T-law H_1(tau + 1) = e(-1/24) H_1(tau)
    # at s = 1/2, where the registry's eq1.16 fails by design
    idx = MockIndex.of(F(3, 2), F(1, 2))
    h1 = lambda t: -1j * phi_tilde(idx, t, 0.5, 0.5, 0.0, P) / dedekind_eta(t, P)
    assert rel(h1(tau + 1), e2pi(F(-1, 24)) * h1(tau)) < 1e-13
