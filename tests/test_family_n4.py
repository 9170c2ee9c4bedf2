from fractions import Fraction as F

import pytest

from mockforms.mock import MockIndex, PsiIndex
from mockforms.qkernel import HalfInt, TruncationPolicy, UnsupportedCaseError, e2pi
import mockforms.family_d21a as d2
import mockforms.family_n3 as n3
import mockforms.family_n4 as n4

P = TruncationPolicy()
TAU, Z = 0.9j + 0.1, 0.19 + 0.07j
Z1, Z2, T = 0.23 + 0.04j, 0.37 - 0.06j, 0.05


def test_enumerate_weights():
    assert len(n4.enumerate_weights(-2)) == 3
    assert n4.enumerate_weights(1) == []
    ws = n4.enumerate_weights(0)
    assert len(ws) == 1 and ws[0].level_zero


def test_weight_label():
    w = n4.N4Weight(-2, 1, 3, "I", 0, 1)
    assert w.label() == "n4:m=-2:m2=1:M=3:J=I:k1=0:k2=1"


def test_rhat_product_oracle():
    def product(tau, z1, z2, eps, N=150):
        q = e2pi(tau)
        ef = e2pi(float(eps))  # -1 flips the odd factors for the plain denominator
        evens = [e2pi(-(z1 + z2)), e2pi(z1 - z2)]
        odds = [e2pi(z1), e2pi(z1), e2pi(-z2), e2pi(-z2)]
        val = e2pi(z1)
        for x in evens:
            val *= (1.0 - x)
        for x in odds:
            val /= (1.0 - ef * x)
        qn = 1.0 + 0j
        for _ in range(1, N):
            qn *= q
            val *= (1.0 - qn) ** 2
            for x in evens:
                val *= (1.0 - qn * x) * (1.0 - qn / x)
            for x in odds:
                val /= (1.0 - ef * qn * x) * (1.0 - ef * qn / x)
        return val * e2pi(tau * F(-1, 12))

    for eps in (0, F(1, 2)):
        a = product(TAU, Z1, Z2, eps)
        b = n4.rhat(TAU, Z1, Z2, n4.Sector.of(eps, 0), P)
        assert abs(a - b) < 1e-10 * max(1.0, abs(b))


D21_WEIGHT = d2.D21Weight(d2.D21Params(2, 1, 1), 1, 0, 0)
# every function that takes a sector name; the integrable N=4 weight is one
# whose reduced module vanishes
SECTOR_FUNCTIONS = {
    "n4.numerator": lambda s: n4.numerator(n4.N4Weight(-2, 1), TAU, Z1, Z2, T, s, P),
    "n4.qhr_character_integrable": lambda s: n4.qhr_character_integrable(
        n4.N4Weight(-2, 2), TAU, Z, s, P),
    "n4.qhr_character_admissible": lambda s: n4.qhr_character_admissible(
        n4.N4Weight(-2, 1, 3, "I", 1, 0), TAU, Z, s, P),
    "d2.PQ_function": lambda s: d2.PQ_function(
        d2.D21Index.of("P", 1, D21_WEIGHT.params), TAU, Z1, Z2, Z, T, s, P),
    "d2.big_n4_qhr": lambda s: d2.big_n4_qhr(D21_WEIGHT, TAU, Z1, Z2, s, "P", P),
    "d2.boundary_case_characters": lambda s: d2.boundary_case_characters(
        D21_WEIGHT, TAU, Z1, Z2, Z, T, s, P),
    "n3.n3_denominator": lambda s: n3.n3_denominator(TAU, Z, s, P),
    "n3.qhr_character": lambda s: n3.qhr_character(
        n3.N3Weight(False, F(-3, 4), 0), TAU, Z, s, False, P),
}


@pytest.mark.parametrize("name", sorted(SECTOR_FUNCTIONS))
def test_unknown_sector_is_refused(name):
    with pytest.raises(ValueError, match="unknown sector"):
        SECTOR_FUNCTIONS[name]("bogus")


@pytest.mark.parametrize("eps, eps_prime", [(1, 0), (0.25, 0), (0, F(-1, 2))])
def test_sector_shifts_are_0_or_half(eps, eps_prime):
    with pytest.raises(ValueError):
        n4.Sector.of(eps, eps_prime)


def test_characteristics_examples():
    ch = n4.qhr_characteristics(n4.N4Weight(-2, 1))
    assert ch["c"] == 6 and ch["h"] == F(1, 2) and ch["s"] == 1
    assert ch["h_tw"] == F(1, 4) and ch["s_tw"] == 0
    assert not ch["vanishes"]
    assert n4.qhr_characteristics(n4.N4Weight(-2, 2))["vanishes"]


def test_lemma91c_isomorphism():
    a = n4.qhr_characteristics(n4.N4Weight(-2, 1, 5, "IV", 1, 1))
    b = n4.qhr_characteristics(n4.N4Weight(-2, 1, 5, "I", 0, 1))
    assert a["h"] == b["h"] and a["s"] == b["s"]
    assert a["h_tw"] == b["h_tw"] and a["s_tw"] == b["s_tw"]


def test_trivial_module_anchor():
    w = n4.N4Weight(-1, 0)
    for sector in n4.SECTORS:
        v = n4.qhr_character_integrable(w, TAU, Z, sector, P)
        assert abs(v - 1.0) < 1e-10


def test_vanishing():
    w = n4.N4Weight(-2, 2)
    for sector in n4.SECTORS:
        assert n4.qhr_character_integrable(w, TAU, Z, sector, P) == 0


def test_minus_sector_m2_zero_structure():
    # at m2 = 0 the supercharacter numerator reduces to the derivative part
    w = n4.N4Weight(-2, 0)
    a = n4.admissible_supernumerator(w, TAU, Z1, Z2, T, P)
    from mockforms.modification import phi_tilde

    g = n4.psi_P(PsiIndex.of(1, 2, 0, 0, 0, 0), TAU, Z1, Z2, T, P)
    extra = ((-2) * (Z1 - Z2) / (2 * TAU)) * e2pi(-2 * T) * phi_tilde(
        MockIndex.of(2, 0), TAU, Z1, Z2, 0.0, P)
    assert abs(a - (g - extra)) < 1e-12


def g_numerator_reference(m, tau, z1, z2, t):
    """The derivative numerator straight from the degree -m modification."""
    from mockforms.modification import phi_tilde_d0

    v, d = phi_tilde_d0(MockIndex.of(-m, 0), tau, z1, z2, P)
    return e2pi(m * t) * (d + (m * (z1 - z2) / (2 * tau)) * v)


def supernumerator_reference(w, tau, z1, z2, t):
    """R-hat^- ch~^- with one branch per type, written out as the integrable
    formula and the four admissible coordinate changes: pref (d - m2 v) for
    the D0 pair (v, d) of the modification at (a1, a2)."""
    from mockforms.modification import phi_tilde_d0

    m, m2, M, k1, k2 = w.m, w.m2, w.M, w.k1, w.k2
    idx = MockIndex.of(-m, 0)
    if w.J == "none":
        v, d = phi_tilde_d0(idx, tau, z1, z2, P)
        return e2pi(m * t) * (d - m2 * v)
    if w.J == "I":
        a1, a2 = z1 + k1 * tau, z2 - (k1 + k2) * tau
        lin = (k1 + k2) * z1 - k1 * z2
    elif w.J == "II":
        a1, a2 = -z1 + k1 * tau, -z2 - (k1 + k2) * tau
        lin = -(k1 + k2) * z1 + k1 * z2
    elif w.J == "III":
        a1, a2 = -z2 + k1 * tau, -z1 - (k1 + k2) * tau
        lin = k1 * z1 - (k1 + k2) * z2
    else:
        a1, a2 = z2 + k1 * tau, z1 - (k1 + k2) * tau
        lin = -k1 * z1 + (k1 + k2) * z2
    v, d = phi_tilde_d0(idx, M * tau, a1, a2, P)
    pref = e2pi(F(m, M) * t + F(m, M) * lin + F(m * k1 * (k1 + k2), M) * tau)
    return pref * (d - m2 * v)


def _admissible_weights():
    weights = [n4.N4Weight(m, m2) for m in (-1, -2, -3) for m2 in range(-m + 1)]
    return weights + [n4.N4Weight(m, m2, M, J, k1, k2)
                      for m, m2 in ((-1, 0), (-2, 1), (-3, 2))
                      for M in (1, 3, 5) for J in ("I", "II", "III", "IV")
                      for k1 in range(M) for k2 in range(M)
                      if 2 * k1 + k2 <= M - 1 and (J != "III" or k2 >= 1)]


NUMERATOR_POINTS = ((TAU, Z1, Z2, T), (-0.35 + 0.7j, 0.13 - 0.21j, 0.06 + 0.37j, 0.02 - 0.03j))


def test_numerators_match_branchwise_reference():
    # one coordinate table and one formula for all types; values must not
    # move by a bit against the branch-per-type bodies
    for w in _admissible_weights():
        for tau, z1, z2, t in NUMERATOR_POINTS:
            assert (n4.admissible_supernumerator(w, tau, z1, z2, t, P)
                    == supernumerator_reference(w, tau, z1, z2, t)), w
    # the derivative numerator is the derivative wrapper at scale one
    for m in (-1, -2, -3):
        x = PsiIndex.of(1, -m, 0, 0, 0, 0)
        for tau, z1, z2, t in NUMERATOR_POINTS:
            assert n4.psi_P(x, tau, z1, z2, t, P) == g_numerator_reference(m, tau, z1, z2, t)


def test_supernumerator_terms_that_cancel():
    # the type I formula as the paper writes it, g - (m dz/(2M tau) + m2) v
    # with g = d + m(a1 - a2)/(2M tau) v: a1 - a2 = dz, so its two m terms
    # cancel up to their rounding, and pref (d - m2 v) is the same value
    from mockforms.modification import phi_tilde_d0

    for w in _admissible_weights():
        m, m2, M, k1, k2 = w.m, w.m2, w.M, w.k1, w.k2
        for tau, z1, z2, t in NUMERATOR_POINTS:
            x1, x2 = n4._J_COORDS[w.J](z1, z2)
            a1, a2 = x1 + k1 * tau, x2 - (k1 + k2) * tau
            dz = x1 - x2 + (2 * k1 + k2) * tau
            v, d = phi_tilde_d0(w._mock, M * tau, a1, a2, P)
            pref = e2pi(F(m, M) * t + F(m, M) * ((k1 + k2) * x1 - k1 * x2)
                        + F(m * k1 * (k1 + k2), M) * tau)
            g = d + (m * (a1 - a2) / (2 * M * tau)) * v
            spelled = pref * (g - (m * dz / (2 * M * tau) + m2) * v)
            scale = abs(pref) * (abs(d) + (2 * abs(m * dz / (2 * M * tau)) + abs(m2)) * abs(v))
            assert abs(n4.admissible_supernumerator(w, tau, z1, z2, t, P) - spelled) \
                <= 1e-14 * scale, w


def psi_P_reference(idx, tau, z1, z2, t):
    """The derivative wrapper with the frame of its modified wrapper written
    out: degree -m' for the index (M, m', s, eps, a, b)."""
    from mockforms.modification import phi_tilde_d0

    m = float(idx.m)
    a, b, eps = float(idx.a), float(idx.b), float(idx.eps)
    M = idx.M
    pref = e2pi(m * a * b * tau / M + (m / M) * (b * z1 + a * z2))
    v, d = phi_tilde_d0(MockIndex(idx.m, idx.s), M * tau,
                        z1 + a * tau + eps, z2 + b * tau + eps, P)
    v, d = pref * v, pref * ((m * (b - a) / M) * v + d)
    return e2pi(-m / M * t) * (d + (-m * (z1 - z2) / (2 * M * tau)) * v)


@pytest.mark.parametrize("M", [1, 3, 5])
def test_psi_P_matches_frame_reference(M):
    # the wrappers share one frame helper; values must not move by a bit
    for eps, a, b in ((0, 1, -1), (F(1, 2), F(1, 2), F(-3, 2)), (F(1, 2), 2, 0)):
        idx = PsiIndex.of(M, 2, 1, eps, a, b)
        for tau, z1, z2, t in ((TAU, Z1, Z2, 0.0), (-0.35 + 0.7j, 0.13 - 0.21j, 0.06 + 0.37j, T)):
            assert n4.psi_P(idx, tau, z1, z2, t, P) == psi_P_reference(idx, tau, z1, z2, t)


def test_integrable_weights_have_no_admissible_data():
    with pytest.raises(ValueError):
        n4.N4Weight(-2, 1, 1, "none", 1, 0)


def test_plus_vs_minus_half_shift():
    w = n4.N4Weight(-2, 1)
    a = n4.numerator(w, TAU, Z1, Z2, T, "plus", P)
    b = n4.numerator(w, TAU, Z1 + 0.5, Z2 + 0.5, T, "minus", P)
    assert abs(a - (-e2pi(n4._lambda_alpha2(w) / 2)) * b) < 1e-13


def test_admissible_vs_substitution_route():
    for (M, m, J, k1, k2, m2) in ((3, -2, "I", 1, 0, 1), (3, -1, "III", 0, 1, 0)):
        w = n4.N4Weight(m, m2, M, J, k1, k2)
        for sector in n4.SECTORS:
            a = n4.qhr_character_admissible(w, TAU, Z, sector, P)
            num = n4.numerator(w, TAU, Z + TAU / 2, Z - TAU / 2, TAU / 4, sector, P)
            b = num / n4.n4_denominator(TAU, Z, n4.SECTORS[sector], P)
            assert abs(a - b) < 1e-9


def test_m1_reduction_bridge():
    # the integrable closed forms and the admissible chi assembly agree up
    # to the recorded sector constants
    for m in (-1, -2):
        for m2 in range(-m):
            wa = n4.N4Weight(m, m2, 1, "I", 0, 0)
            wi = n4.N4Weight(m, m2)
            if n4.qhr_characteristics(wa)["vanishes"]:
                continue
            for sector, bridge in (("minus", 1.0), ("minus_tw", 1.0),
                                   ("plus", -((-1.0) ** m2)),
                                   ("plus_tw", (-1.0) ** (m + m2 + 1))):
                a = n4.qhr_character_admissible(wa, TAU, Z, sector, P)
                b = n4.qhr_character_integrable(wi, TAU, Z, sector, P)
                assert abs(a - bridge * b) < 1e-9, (m, m2, sector)


def test_rem93_reflection_relations():
    M, m, m2 = 5, -2, 1
    wIII = n4.N4Weight(m, m2, M, "III", 0, 2)
    wI = n4.N4Weight(m, m2, M, "I", 0, 2)
    a = n4.admissible_supernumerator(wIII, TAU, Z1, Z2, T, P)
    b = n4.admissible_supernumerator(wI, TAU, -Z2, -Z1, T, P)
    assert abs(a - b) < 1e-10
    # twisted: type III at (k1, k2) pairs with type I at (k1+1, k2-2)
    wI2 = n4.N4Weight(m, m2, M, "I", 1, 0)
    a = n4.numerator(wIII, TAU, Z1, Z2, T, "minus_tw", P)
    b = n4.numerator(wI2, TAU, -Z2, -Z1, T, "minus_tw", P)
    assert abs(a - b) < 1e-9


def test_rem94_rewriting():
    from mockforms.modification import psi_tilde

    M, m, m2, k1, k2 = 3, -2, 0, 0, 1
    w = n4.N4Weight(m, m2, M, "III", k1, k2)
    A = F(m * (2 * k1 + k2 + 1), M) + m2
    lhs = (n4.qhr_character_admissible(w, TAU, Z, "minus", P)
           * n4.n4_denominator(TAU, Z, n4.Sector.of(0, F(1, 2)), P))
    j, k = HalfInt(2 * (k1 + k2) + 1), HalfInt(-(2 * k1 + 1))
    idx = PsiIndex.of(M, -m, 0, 0, j, k)
    rhs = -n4.psi_P(idx, TAU, Z, Z, 0.0, P) + A * psi_tilde(idx, TAU, Z, Z, 0.0, P)
    assert abs(lhs - rhs) < 1e-10


def test_chi_normalization_to_omega():
    # every table pair lands in the fundamental set under the moves
    for M in range(1, 6):
        for eps, table in ((F(1, 2), "ns"), (0, "tw")):
            for k1 in range(0, M):
                for k2 in range(0, M):
                    if 2 * k1 + k2 > M - 1:
                        continue
                    for J in ("I", "III"):
                        if J == "III" and k2 < 1:
                            continue
                        w = n4.N4Weight(-1, 0, M, J, k1, k2)
                        j, k = n4.admissible_jk(w, table == "tw")
                        j2, k2_, _, _ = n4.normalize_to_omega(j, k, M, -1, eps)
                        assert 0 < j2.value <= k2_.value <= M


def test_unsupported_admissible_types():
    with pytest.raises(UnsupportedCaseError):
        n4.qhr_character_admissible(n4.N4Weight(-1, 0, 3, "II", 1, 1), TAU, Z, "minus", P)


def test_admissible_unknown_sector_is_refused():
    # a live weight, and one whose reduced module vanishes
    for w in (n4.N4Weight(-2, 1, 3, "I", 1, 0), n4.N4Weight(-2, 2)):
        with pytest.raises(ValueError, match="unknown sector"):
            n4.qhr_character_admissible(w, TAU, Z, "bogus", P)


def test_weyl_sum_formal_cross_check():
    # the translated Weyl-sum series with its squared denominators equals
    # the derivative-decorated Appell expansion; compared coefficientwise in
    # an explicit window (both q^0 tails run in one zeta direction, so the
    # truncated products are exact there)
    from mockforms.formal import (
        GR_ONE,
        FormalSeries,
        GRat,
        expand_phi1,
    )

    order, zcap = F(5), 30
    m, m2 = -2, 1
    appell = expand_phi1(-m, m2, order, zcap=zcap)
    lhs = appell.scale(GRat(F(-m2))) + appell.d0()

    weyl = FormalSeries(None, order, zmax=2 * zcap)
    for j in range(-4, 5):
        base_q = F(j * (m2 + 1) - m * j * j)
        if base_q > order:
            continue
        num = FormalSeries({(base_q, 2 * (m2 + 1) - 2 * j * m, -2 * j * m): GR_ONE},
                           order, zmax=None)
        geom = {}
        if j >= 0:
            r = 0
            while base_q + j * r <= order and r <= 2 * zcap:
                geom[(F(j * r), 2 * r, 0)] = GR_ONE
                r += 1
        else:
            r = 1
            while base_q - j * r <= order and r <= 2 * zcap:
                geom[(F(-j * r), -2 * r, 0)] = -GR_ONE
                r += 1
        geom = FormalSeries(geom, order, zmax=2 * zcap)
        weyl = weyl + num * geom * geom

    def window(series):
        return {k: (v.re, v.im) for k, v in series.terms.items()
                if abs(k[1]) <= 32 and abs(k[2]) <= 32 and k[0] <= order}

    wl, wr = window(lhs), window(weyl)
    assert wl and wl == wr
    # a misaligned zeta power must be detected
    bad = weyl * FormalSeries({(F(0), -2, 0): GR_ONE}, order)
    assert window(bad) != wl


def test_vanishing_is_pointwise():
    # when the chi^(0)-coefficient is a non-negative integer the raw
    # combination vanishes pointwise, so the flag masks nothing
    w = n4.N4Weight(-2, 2, 1, "I", 0, 0)
    assert n4.qhr_characteristics(w)["vanishes"]
    A = F(-2 * 1, 1) + 2
    j, k = n4.admissible_jk(w, False)
    c1 = n4.chi(n4.ChiIndex.of(1, 1, -2, 0, F(1, 2), j, k), TAU, Z, P)
    c0 = n4.chi(n4.ChiIndex.of(0, 1, -2, 0, F(1, 2), j, k), TAU, Z, P)
    assert abs(c1 - A * c0) < 1e-12
