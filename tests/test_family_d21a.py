from fractions import Fraction as F

import numpy as np
import pytest

from mockforms.qkernel import TruncationPolicy, UnsupportedCaseError, e2pi
import mockforms.family_d21a as d2

P = TruncationPolicy()
TAU = 0.9j + 0.1
ZS = (0.19 + 0.07j, 0.23 - 0.06j, -0.11 + 0.04j)
T = 0.05


def test_params_validation():
    with pytest.raises(ValueError):
        d2.D21Params(2, 2, 1)
    pr = d2.D21Params(2, 1, 1)
    assert pr.a == F(-2, 3) and pr.K == F(-2, 3)


def test_enumeration_boundary_matches_lists():
    ws = d2.enumerate_weights(d2.D21Params(1, 1, 1))
    assert len(ws[0]) == 1 and len(ws[1]) == 3
    assert ws[2] == [] and ws[3] == []
    ws = d2.enumerate_weights(d2.D21Params(2, 1, 1))
    assert len(ws[0]) == 2 and len(ws[1]) == 4
    ws = d2.enumerate_weights(d2.D21Params(3, 2, 1))
    assert len(ws[2]) == (2 - 1) * (3 - 1)
    ws = d2.enumerate_weights(d2.D21Params(3, 2, 2))
    assert len(ws[2]) == (2 * 2 - 1) * (2 * 3 - 1)


def test_integrability_examples():
    pr = d2.D21Params(2, 1, 1)
    w = d2.D21Weight(pr, 0, 0, 1)
    assert d2.integrability_tests(w)["theta_integrable"]
    w = d2.D21Weight(pr, 1, 0, 0)
    assert d2.integrability_tests(w)["theta_integrable"]
    w = d2.D21Weight(pr, 1, 0, 1)
    f = d2.integrability_tests(w)
    assert not f["theta_integrable"] and not f["alpha0_integrable"]
    w = d2.D21Weight(pr, 1, 0, 2)  # the extra weight np\Lambda_3
    assert d2.integrability_tests(w)["alpha0_integrable"]


def test_quadratic_forms_exact():
    for params in (d2.D21Params(1, 1, 1), d2.D21Params(2, 1, 1),
                   d2.D21Params(3, 2, 2), d2.D21Params(5, 3, 1)):
        forms = d2.quadratic_forms(params)
        assert all(f == forms[0] for f in forms)
        assert all(type(x) is F for f in forms for x in f)
    assert d2.quadratic_forms(d2.D21Params(2, 1, 1))[0] == (
        F(3, 2), F(1, 6), F(2, 3), F(-1, 2), F(-1), F(-1, 3))


def test_zz_value_divides_as_by_the_fractions():
    # exact arguments give the exact Fraction; complex and float ones, and an
    # exact square next to them, the bits of dividing by 2a and 2(a + 1)
    for params in (d2.D21Params(2, 1, 1), d2.D21Params(3, 2, 2), d2.D21Params(5, 3, 1)):
        two_a, two_ap1 = 2 * params.a, 2 * (params.a + 1)

        def by_fractions(z1, z2, z3):
            return (z2 + z3) ** 2 / 2 + (z1 - z2) ** 2 / two_a - (z1 - z3) ** 2 / two_ap1

        for zs in ((F(1, 3), F(-2, 5), 2), (0.31 - 0.2j, -0.17 + 0.44j, 0.05 + 0.9j),
                   (0.3, -1.7, 0.25), (F(1, 2), F(1, 3), 0.4 - 0.1j), (1, 2, 0.7)):
            got, want = d2.zz_value(params, *zs), by_fractions(*zs)
            assert type(got) is type(want) and repr(got) == repr(want), zs


def test_characteristics_examples():
    pr = d2.D21Params(1, 1, 1)
    assert d2.qhr_characteristics(d2.D21Weight(pr, 1, 0, 0))["c"] == 0
    pr = d2.D21Params(2, 1, 1)
    w = d2.D21Weight(pr, 1, 0, 1)
    ch = d2.qhr_characteristics(w)
    n, p, q, m2, m3 = 1, 2, 1, 0, 1
    assert ch["h_tw"] == (F(m2 - m3 + n * p) ** 2 / (4 * n * (p + q))
                          + F(n * p * q, 4 * (p + q)) - F(1, 4))
    assert ch["s3_tw"] == F(n * p - 1 - m3, 2)
    # j = 0 and j = 1 weights give isomorphic reduced modules
    a = d2.qhr_characteristics(d2.D21Weight(pr, 0, 0, 1))
    assert a["h"] == ch["h"] and a["h_tw"] == ch["h_tw"]


def test_pq_periodicity():
    pr = d2.D21Params(2, 1, 1)
    big = 2 * pr.n * (pr.p + pr.q)
    a = d2.PQ_function(d2.D21Index.of("P", 1, pr), TAU, *ZS, T, "minus", P)
    b = d2.PQ_function(d2.D21Index.of("P", 1 + big, pr), TAU, *ZS, T, "minus", P)
    assert abs(a - b) < 1e-12


def test_weyl_actions():
    pr = d2.D21Params(2, 1, 1)
    pts = (*ZS, T)
    for which in ("P", "Q"):
        refl = 2 * pr.n * (pr.p if which == "P" else pr.q)
        base = lambda jj, point: d2.PQ_function(d2.D21Index.of(which, jj, pr), TAU, *point,
                                                "minus", P)
        assert abs(base(1, d2.r_theta(TAU, *pts)) + base(-1, pts)) < 1e-10
        assert abs(base(1, d2.r_alpha2(TAU, *pts)) + base(1, pts)) < 1e-10
        assert abs(base(1, d2.r_alpha3(TAU, *pts)) + base(1, pts)) < 1e-10
        assert abs(base(1, d2.r_alpha0(TAU, *pts)) + base(-1 - refl, pts)) < 1e-8


def test_supercharacter_case_rows():
    pr = d2.D21Params(2, 1, 1)
    # the j=1, m2=0 row gives the plain P index m2 - m3
    w = d2.D21Weight(pr, 1, 0, 1)
    a = d2.modified_supercharacter_numerator(w, TAU, *ZS, T, "P", P)
    b = d2.PQ_function(d2.D21Index.of("P", -1, pr), TAU, *ZS, T, "minus", P)
    assert abs(a - b) < 1e-12
    # the j=0, m2 = nq-1 row gives -P_{m3-m2-2np}
    w = d2.D21Weight(pr, 0, 0, 0)
    a = d2.modified_supercharacter_numerator(w, TAU, *ZS, T, "P", P)
    b = -d2.PQ_function(d2.D21Index.of("P", -4, pr), TAU, *ZS, T, "minus", P)
    assert abs(a - b) < 1e-12


def test_index_window_spans():
    # the listed weight rows hit exactly the listed index windows
    pr = d2.D21Params(2, 1, 1)
    p, q, n = 2, 1, 1
    big = 2 * n * (p + q)
    idx_of = lambda w: {1: (w.m2 - w.m3) % big, 0: (w.m3 - w.m2 - 2 * n * p) % big}[w.j]
    got = sorted(idx_of(d2.D21Weight(pr, 1, 0, m3)) for m3 in range(n * p + 1))
    assert got == sorted((-j) % big for j in range(n * p + 1))
    got = sorted(idx_of(d2.D21Weight(pr, 0, 0, m3)) for m3 in range(n * p))
    assert got == list(range(n * q + 1, n * (p + q) + 1))


def test_big_n4_vanishing_and_guards():
    pr = d2.D21Params(2, 1, 1)
    w = d2.D21Weight(pr, 1, 1, 0)  # nq Lambda_2: level label 0
    assert d2.qhr_characteristics(w)["vanishes"]
    assert d2.big_n4_qhr(w, TAU, 0.21 + 0.05j, 0.33 - 0.04j, "minus", "P", P) == 0
    with pytest.raises(UnsupportedCaseError):
        d2.big_n4_qhr(d2.D21Weight(pr, 0, 0, 1), TAU, 0.2, 0.3, "minus", "P", P)


def test_unknown_sector_is_refused():
    pr = d2.D21Params(2, 1, 1)
    for w in (d2.D21Weight(pr, 1, 0, 1), d2.D21Weight(pr, 1, 1, 0)):  # live and vanishing
        with pytest.raises(ValueError, match="unknown sector"):
            d2.big_n4_qhr(w, TAU, 0.21 + 0.05j, 0.33 - 0.04j, "bogus", "P", P)
    with pytest.raises(ValueError, match="unknown sector"):
        d2.boundary_case_characters(d2.D21Weight(pr, 1, 0, 1), TAU, *ZS, T, "bogus", P)


def test_boundary_label_bijection():
    for p in (1, 2, 3):
        sm = d2.s_matrix_and_fusion(p)
        assert len(sm["labels"]) == 2 * p + 2
        assert sorted(sm["j_residues"]) == list(range(2 * p + 2))


# (j, sign) with ch = sign * g_j / R-hat, per sector, for the boundary weights
# (j, m2, m3) in the order of s_matrix_and_fusion(p)["weights"]
BOUNDARY_ROWS = {
    1: {"weights": [(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0)],
        "minus": [(-2, -1), (0, 1), (1, 1), (-1, 1)],
        "plus": [(-2, 1), (0, -1), (1, -1), (-1, -1)],
        "minus_tw": [(0, 1), (2, -1), (3, -1), (1, -1)],
        "plus_tw": [(0, 1), (2, -1), (3, -1), (1, -1)]},
    2: {"weights": [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 1, 0)],
        "minus": [(-2, -1), (-3, -1), (0, 1), (1, 1), (2, 1), (-1, 1)],
        "plus": [(-2, 1), (-3, 1), (0, -1), (1, -1), (2, -1), (-1, -1)],
        "minus_tw": [(1, 1), (0, 1), (3, -1), (4, -1), (5, -1), (2, -1)],
        "plus_tw": [(1, -1), (0, -1), (3, 1), (4, 1), (5, 1), (2, 1)]},
}
BOUNDARY_POINTS = ((TAU, ZS, T), (-0.2 + 1.3j, (0.05 - 0.1j, -0.17 + 0.02j, 0.3 + 0.11j), 0.0))
SECTOR_EPS = {"minus": (0, 0), "plus": (F(1, 2), 0),
              "minus_tw": (0, F(1, 2)), "plus_tw": (F(1, 2), F(1, 2))}


def test_boundary_characters_follow_the_label_table():
    for p, rows in BOUNDARY_ROWS.items():
        pr = d2.D21Params(p, 1, 1)
        weights = d2.s_matrix_and_fusion(p)["weights"]
        assert [(w.j, w.m2, w.m3) for w in weights] == rows["weights"]
        for sector, (eps, eps_prime) in SECTOR_EPS.items():
            for w, (jg, sign) in zip(weights, rows[sector]):
                for tau, zs, t in BOUNDARY_POINTS:
                    g = d2.D21Index.of("g", jg, pr, eps, eps_prime)
                    want = (sign * d2.fg_lower(g, tau, *zs, t, P)
                            / d2.rhat(tau, *zs, d2.Sector.of(eps, eps_prime), P))
                    got = d2.boundary_case_characters(w, tau, *zs, t, sector, P)
                    assert got == want, (p, sector, w.label())


def test_smatrix_recovery_oracle():
    # recover the S-matrix numerically from the boundary supercharacters
    for p in (1, 2):
        pr = d2.D21Params(p, 1, 1)
        sm = d2.s_matrix_and_fusion(p)
        labels = sm["weights"]
        N = len(labels)
        pts = []
        import random

        rng = random.Random(3)
        for _ in range(2 * N + 4):
            pts.append(tuple(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
                             for _ in range(3)))
        A = np.zeros((len(pts), N), dtype=complex)
        for c, zs in enumerate(pts):
            for k, wk in enumerate(labels):
                A[c, k] = d2.boundary_case_characters(wk, TAU, *zs, 0.0, "minus", P)
        for i, wi in enumerate(labels):
            b = np.zeros(len(pts), dtype=complex)
            for c, zs in enumerate(pts):
                zt = tuple(x / TAU for x in zs)
                lhs = d2.boundary_case_characters(wi, -1 / TAU, *zt, 0.0, "minus", P)
                b[c] = lhs / e2pi(pr.K * d2.zz_value(pr, *zs) / (2 * TAU))
            sol, *_ = np.linalg.lstsq(A, b, rcond=None)
            assert max(abs(sol[k] - sm["S"][i][k]) for k in range(N)) < 1e-5


def test_fusion_rule():
    # the Verlinde formula N_ijk = sum_l S_il S_jl S_kl / S_0l, with the label
    # of residue 0 as the vacuum 0, gives the rule up to the parity signs of
    # the supercharacters: |N_ijk| is the table's entry on every triple
    for p in (1, 2, 3, 4):
        sm = d2.s_matrix_and_fusion(p)
        S = np.array(sm["S"])
        N = len(S)
        vac = sm["j_residues"].index(0)
        verlinde = np.einsum("il,jl,kl,l->ijk", S, S, S, 1.0 / S[vac])
        rule = np.array([[[sm["fusion"](i, j, k) for k in range(N)] for j in range(N)]
                         for i in range(N)])
        assert np.abs(np.abs(verlinde) - rule).max() < 1e-12, p


def test_s_t_modular_relations():
    # S is symmetric and unitary, S^4 = 1 and (ST)^3 = S^2
    for p in (1, 2, 3, 4):
        sm = d2.s_matrix_and_fusion(p)
        S, T = np.array(sm["S"]), np.diag(sm["T"])
        one = np.eye(len(S))
        ST = S @ T
        for residual in (S - S.T, S @ S.conj().T - one,
                         np.linalg.matrix_power(S, 4) - one, ST @ ST @ ST - S @ S):
            assert np.abs(residual).max() < 1e-12, p


def test_boundary_modification_free():
    # at q = n = 1 the two flavors of modification agree for the
    # supercharacter numerators (the wrapped degree is one)
    pr = d2.D21Params(2, 1, 1)
    w = d2.D21Weight(pr, 1, 0, 1)
    a = d2.modified_supercharacter_numerator(w, TAU, *ZS, T, "Q", P)
    from mockforms.mock import PsiIndex, psi
    from mockforms.theta import ThetaIndex, theta_jm

    # rebuild with the unmodified wrapper
    big = pr.n * (pr.p + pr.q)
    a_ = pr.a
    u_pos = ZS[0] + (a_ + 1) * ZS[1] + a_ * ZS[2]
    u_neg = ZS[0] - (a_ + 1) * ZS[1] - (a_ + 2) * ZS[2]
    t1 = (theta_jm(ThetaIndex.of(1, big), TAU, u_pos, 0.0, P)
          * psi(PsiIndex.of(1, 1, 0, 0, 0, 0), TAU, ZS[0], -ZS[1], 0.0, P))
    t2 = (theta_jm(ThetaIndex.of(-1, big), TAU, u_neg, 0.0, P)
          * psi(PsiIndex.of(1, 1, 0, 0, 0, 0), TAU, -ZS[0] + ZS[1] + ZS[2], -ZS[2], 0.0, P))
    got = e2pi(pr.K * T) * (t1 + t2)
    assert abs(a - got) < 1e-11


def test_label_serialization():
    pr = d2.D21Params(2, 1, 1)
    assert d2.D21Weight(pr, 1, 0, 1).label() == "d21a:p=2:q=1:n=1:j=1:m2=0:m3=1"


def test_extra_weight_vanishing_is_structural():
    # the two extremal j=1 weights vanish because their reduced-basis index
    # degenerates (theta difference at a fixed point of the reflection)
    pr = d2.D21Params(2, 1, 1)
    for (m2, m3, jdx) in ((1, 0, 3), (0, 2, 0)):
        w = d2.D21Weight(pr, 1, m2, m3)
        assert d2.qhr_characteristics(w)["vanishes"]
        v = d2.FG_function(d2.D21Index.of("F", jdx, pr, 0, F(1, 2)), TAU,
                           0.21 + 0.05j, 0.33 - 0.04j, P)
        assert v == 0
