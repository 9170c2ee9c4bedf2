from fractions import Fraction as F

import pytest

from mockforms.qkernel import PoleProximityError, TruncationPolicy, e2pi
from mockforms.theta import dedekind_eta, jacobi_theta
from mockforms.mock import MockIndex, PsiIndex, phi, phi1, psi

P = TruncationPolicy()
TAU, Z1, Z2 = 2j, 0.3, 0.1


def closed_form(tau, z1, z2, policy=P):
    return (-1j * dedekind_eta(tau, policy) ** 3
            * jacobi_theta(1, 1, tau, z1 + z2, policy)
            / (jacobi_theta(1, 1, tau, z1, policy) * jacobi_theta(1, 1, tau, z2, policy)))


def test_phi1_closed_form_oracle():
    a = phi1(MockIndex.of(1, 0), TAU, Z1, Z2, P)
    b = phi1(MockIndex.of(1, 0), TAU, -Z2, -Z1, P)
    assert abs((a - b) - closed_form(TAU, Z1, Z2)) < 1e-13


def test_phi1_pole():
    with pytest.raises(PoleProximityError):
        phi1(MockIndex.of(1, 0), TAU, 0.0, 0.1, P)
    with pytest.raises(PoleProximityError):
        phi1(MockIndex.of(2, 1), TAU, 1.0 + TAU, 0.1, P)


def test_phi_s_independence_degree_one():
    a = phi(MockIndex.of(1, 0), TAU, Z1, Z2, 0.0, P)
    b = phi(MockIndex.of(1, 1), TAU, Z1, Z2, 0.0, P)
    assert abs(a - b) < 1e-13


def test_phi_antisymmetry():
    idx = MockIndex.of(2, F(1, 2))
    tau, z1, z2 = 0.9j + 0.2, 0.22 + 0.05j, 0.31 - 0.08j
    assert abs(phi(idx, tau, -z2, -z1, 0.0, P) + phi(idx, tau, z1, z2, 0.0, P)) < 1e-13


def test_doubling():
    tau, z1, z2, t = 0.9j + 0.1, 0.22 + 0.05j, 0.31 - 0.08j, 0.07
    for (m, s) in ((1, 0), (2, 1), (F(1, 2), 0), (F(3, 2), F(1, 2))):
        lhs = 2 * phi(MockIndex.of(m, s), 2 * tau, z1, z2, t, P)
        sgn = (-1.0) ** int(2 * F(s))
        rhs = (phi(MockIndex.of(2 * F(m), 2 * F(s)), tau, z1 / 2, z2 / 2, t / 2, P)
               + sgn * phi(MockIndex.of(2 * F(m), 2 * F(s)), tau,
                           (z1 + 1) / 2, (z2 - 1) / 2, t / 2, P))
        assert abs(lhs - rhs) < 1e-12


def test_phi_signed_plus_is_phi():
    idx = MockIndex.of(2, 1)
    tau, z1, z2 = 1.1j, 0.21, 0.33
    assert phi(idx, tau, z1, z2, 0.0, P, 1) == phi(idx, tau, z1, z2, 0.0, P)
    with pytest.raises(ValueError):
        phi(idx, tau, z1, z2, 0.0, P, 0)


def test_psi_degenerates_to_phi():
    idx = PsiIndex.of(1, 2, 1, 0, 0, 0)
    tau, z1, z2, t = 1.2j, 0.2, 0.35, 0.04
    assert abs(psi(idx, tau, z1, z2, t, P)
               - phi(MockIndex.of(2, 1), tau, z1, z2, t, P)) < 1e-14


def test_psi_degree_one_closed_form():
    # wrapped degree-one closed form, both half-shift values
    M, tau, z1, z2 = 3, 0.7j + 0.1, 0.19 + 0.03j, 0.29 - 0.06j
    for eps in (0, F(1, 2)):
        for (j, k) in ((0, 0), (1, -1), (2, 1)):
            lhs = psi(PsiIndex.of(M, 1, 0, eps, j, k), tau, z1, z2, 0.0, P)
            eta3 = dedekind_eta(M * tau, P) ** 3
            rhs = (-1j * e2pi(F(j * k, M) * tau) * e2pi(F(k, M) * z1 + F(j, M) * z2)
                   * eta3 * jacobi_theta(1, 1, M * tau, z1 + z2 + (j + k) * tau, P)
                   / (jacobi_theta(1, 1, M * tau, z1 + j * tau + float(eps), P)
                      * jacobi_theta(1, 1, M * tau, z2 + k * tau - float(eps), P)))
            assert abs(lhs - rhs) < 1e-10


def test_psi_index_shift():
    # shifting both indices by M leaves the value unchanged (a = b case)
    idx0 = PsiIndex.of(3, 1, 0, F(1, 2), 1, -1)
    idx1 = PsiIndex.of(3, 1, 0, F(1, 2), 4, 2)
    tau, z1, z2 = 0.8j, 0.22, 0.31
    a = psi(idx0, tau, z1, z2, 0.0, P)
    b = psi(idx1, tau, z1, z2, 0.0, P)
    assert abs(a - b) < 1e-9


def test_psi_index_validation():
    with pytest.raises(ValueError):
        PsiIndex.of(3, 1, 0, 0, F(1, 2), 0)


def test_psi_swap_symmetry_closed_form():
    # swapping arguments and indices together fixes the wrapped function;
    # checked on the degree-one closed-form family
    tau, z1, z2 = 0.8j + 0.1, 0.21 + 0.03j, 0.34 - 0.05j
    for eps in (0, F(1, 2)):
        for (j, k) in ((1, -1), (0, 2)):
            a = psi(PsiIndex.of(3, 1, 0, eps, j, k), tau, z2, z1, 0.0, P)
            b = psi(PsiIndex.of(3, 1, 0, eps, k, j), tau, z1, z2, 0.0, P)
            assert abs(a - b) < 1e-10
