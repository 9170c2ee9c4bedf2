from fractions import Fraction as F

import pytest

from mockforms.qkernel import (
    HalfInt,
    TruncationPolicy,
    UnsupportedCaseError,
    e2pi,
)
import mockforms.family_n3 as n3
from mockforms.mock import MockIndex
from mockforms.family_n4 import SECTORS, Sector

P = TruncationPolicy()
TAU, Z1, Z2, T = 0.9j + 0.1, 0.23 + 0.04j, 0.37 - 0.06j, 0.05
M34 = F(-3, 4)


def test_enumerate_weights():
    assert len(n3.enumerate_weights(M34)) == 4
    assert len(n3.enumerate_weights(-1)) == 6
    assert n3.enumerate_weights(F(-3, 10)) == []
    with pytest.raises(UnsupportedCaseError):
        n3.enumerate_weights(F(-1, 2))


def test_integrability_flags():
    f = n3.integrability_flags(n3.N3Weight(False, M34, 0))
    assert f["theta_integrable"] and f["j_Lambda"] == 2
    f = n3.integrability_flags(n3.N3Weight(False, M34, 1))
    assert not f["alpha0_integrable"]
    f = n3.integrability_flags(n3.N3Weight(False, M34, 1, 1, "I", 0, 0))
    assert not f["degenerate"]
    # level -1, m2 = 2 is the alpha0-integrable member
    f = n3.integrability_flags(n3.N3Weight(False, -1, 2))
    assert f["alpha0_integrable"] and not f["theta_integrable"]


def test_weight_label():
    w = n3.N3Weight(False, M34, 1, 3, "I", 0, 1)
    assert w.label() == "n3:dot=0:m=-3/4:m2=1:M=3:J=I:k1=0:k2=1"


def test_rhat_product_oracle():
    def product_rhat(tau, z1, z2, t, odd_plus, N=150):
        q = e2pi(tau)
        evens = [e2pi(-(z1 - z2) / 2), e2pi(z1 + z2)]
        odds = [e2pi(z1), e2pi((z1 + z2) / 2), e2pi(z2)]
        val = e2pi(t / 2) * e2pi(z1 / 2)
        for x in evens:
            val *= (1.0 - x)
        for x in odds:
            val /= (1.0 + x) if odd_plus else (1.0 - x)
        qn = 1.0 + 0j
        for _ in range(N):
            qn *= q
            val *= (1.0 - qn) ** 2
            for x in evens:
                val *= (1.0 - qn * x) * (1.0 - qn / x)
            for x in odds:
                if odd_plus:
                    val /= (1.0 + qn * x) * (1.0 + qn / x)
                else:
                    val /= (1.0 - qn * x) * (1.0 - qn / x)
        return val

    # the superdenominator divides by theta_11, the plus one by theta_10
    for plus, sector in ((False, Sector.of(0, 0)), (True, Sector.of(F(1, 2), 0))):
        a = product_rhat(TAU, Z1, Z2, T, plus)
        b = n3.rhat(TAU, Z1, Z2, T, sector, P)
        assert abs(a - b) < 1e-11 * max(1.0, abs(b))


def test_rhat_refuses_a_twisted_affine_sector():
    for eps in (0, F(1, 2)):
        with pytest.raises(ValueError, match="no twisted N=3 affine denominator"):
            n3.rhat(TAU, Z1, Z2, T, Sector.of(eps, F(1, 2)), P)


def test_admissible_routes_agree():
    for J, k1, k2 in (("I", 0, 1), ("III", 1, 0)):
        if J == "III" and k2 == 0:
            k1, k2 = 0, 1
        for dotted in (False, True):
            for modified in (False, True):
                w = n3.N3Weight(dotted, M34, 1, 3, J, k1, k2)
                a = n3.numerator_B(w, TAU, Z1, Z2, T, modified, P)
                b = n3.admissible_numerator_psi(w, TAU, Z1, Z2, T, modified, P)
                assert abs(a - b) < 1e-9


def test_admissible_m1_reduces_to_integrable():
    w0 = n3.N3Weight(False, M34, 1)
    w1 = n3.N3Weight(False, M34, 1, 1, "I", 0, 0)
    a = n3.numerator_B(w0, TAU, Z1, Z2, T, False, P)
    b = n3.numerator_B(w1, TAU, Z1, Z2, T, False, P)
    assert abs(a - b) < 1e-12


@pytest.mark.parametrize("M, k1, k2", [(1, 1, 1), (1, 1, 0), (1, 0, 1), (3, 0, 0)])
def test_integrable_weights_have_no_admissible_data(M, k1, k2):
    # the numerators of a J = "none" weight ignore k1 and k2 while its
    # characteristic numbers read them: (-5/4, 1, 1, "none", 0, 1) would
    # report h = -1/2 and s = -1 for the numerator of h = 1/4 and s = 1/2
    with pytest.raises(ValueError, match="integrable weights"):
        n3.N3Weight(False, F(-5, 4), 1, M, "none", k1, k2)


@pytest.mark.parametrize("args", [(False, M34, 0, 0, "II"), (True, F(-5, 4), 1, -1, "IV", 1, 0),
                                  (False, M34, 0, -2, "Iprime", 0, 0)])
def test_admissible_weights_need_a_positive_m(args):
    # at M = 0 the characteristic numbers divided by zero
    with pytest.raises(ValueError, match="M must be a positive integer"):
        n3.N3Weight(*args)


@pytest.mark.parametrize("args, message", [
    *(((False, m, 0), "positive integer n") for m in (F(0), F(-1, 4), F(1, 4))),
    *((args, "m2 out of range") for args in ((False, M34, 5), (True, M34, -2), (True, -1, -2),
                                             (False, -1, 3, 3, "I", 0, 1)))])
def test_weights_outside_the_family_are_refused(args, message):
    # at construction, not at the first numerator: a level needs n = -4m - 2
    # >= 1, and m2 lies in 0..n as enumerate_weights yields it ((False,
    # -3/4, 5) had h = 5/4)
    with pytest.raises(ValueError, match=message):
        n3.N3Weight(*args)


def test_theta_partner_is_b_data_not_a_weight():
    # the theta partner of the dotted n = m2 = 2 weight has the label -2,
    # outside 0..n: supercharacter_numerator reads its B data alone
    partner, theta_pair = n3.N3Weight(True, -1, 2)._b_partner
    assert theta_pair and partner == n3._b_terms(True, 2, -2)
    assert partner[:2] == (True, MockIndex.of(1, F(-1, 2)))


def test_unsupported_types_error():
    with pytest.raises(UnsupportedCaseError):
        n3.numerator_B(n3.N3Weight(False, M34, 0, 3, "II", 1, 1), TAU, Z1, Z2, T)


def test_eps_prime_parity_rule():
    w = n3.N3Weight(False, M34, 0, 3, "I", 1, 0)
    # k1 odd forces the half-shifted index class
    from mockforms.mock import PsiIndex

    idx = PsiIndex.of(3, 1, 1, 0, HalfInt(1), HalfInt(-1))
    assert idx.eps_prime.twice == 1
    assert n3.numerator_B(w, TAU, Z1, Z2, T, False, P) is not None


def test_qhr_characteristics_examples():
    w = n3.N3Weight(False, M34, 0, 1, "I", 0, 0)
    ch = n3.qhr_characteristics(w)
    assert ch["h"] == 0
    assert ch["c"] == 1  # level with n = 1, M = 1
    # the twisted spin sits half a unit below the untwisted one
    assert ch["s_tw"] == ch["s"] - F(1, 2)


def test_characteristics_type_isomorphisms():
    for dotted in (False, True):
        a = n3.qhr_characteristics(n3.N3Weight(dotted, M34, 1, 5, "I", 0, 1))
        b = n3.qhr_characteristics(n3.N3Weight(dotted, M34, 1, 5, "IV", 1, 1))
        assert a["h"] == b["h"] and a["s"] == b["s"]


def test_vanishing_rule():
    # degenerate admissible weight: k1 + k2 = (M-1)/2 and even 2m + m2
    w = n3.N3Weight(False, -1, 2, 3, "I", 0, 1)
    assert n3.qhr_characteristics(w)["vanishes"]
    assert n3.qhr_character(w, TAU, 0.19 + 0.07j, SECTORS["minus"], True, P) == 0


def test_c1_chain():
    from mockforms.theta import ThetaIndex, dedekind_eta, theta_jm

    z = 0.17 + 0.06j
    tgt = lambda s: (theta_jm(ThetaIndex.of(s, 1), TAU, z, 0.0, P)
                     / dedekind_eta(TAU, P))
    cases = [
        (SECTORS["minus"], n3.N3Weight(False, M34, 0), 0),
        (SECTORS["plus"], n3.N3Weight(True, M34, 1), 0),
        (SECTORS["plus_tw"], n3.N3Weight(False, M34, 1), 0),
        (SECTORS["plus"], n3.N3Weight(False, M34, 1), 1),
        (SECTORS["minus"], n3.N3Weight(True, M34, 0), 1),
        (SECTORS["plus_tw"], n3.N3Weight(True, M34, 1), 1),
        (SECTORS["plus_tw"], n3.N3Weight(False, M34, 0), None),
    ]
    for sector, w, s in cases:
        v = n3.qhr_character(w, TAU, z, sector, False, P)
        want = 0.0 if s is None else tgt(s)
        assert abs(v - want) < 1e-8
    assert n3.qhr_character(n3.N3Weight(False, M34, 0), TAU, z, SECTORS["minus_tw"], False, P) == 0


def test_fundamental_domain_examples():
    idx = n3.FIndex.of(3, 1, 0, SECTORS["plus_tw"], 1, 2)
    nf, ph = n3.fundamental_domain(idx)
    assert (nf.j.value, nf.k.value) == (1, 2) and ph == 1.0

    idx = n3.FIndex.of(3, 1, 0, SECTORS["plus_tw"], 2, 1)
    nf, ph = n3.fundamental_domain(idx)
    assert nf.j.value <= nf.k.value
    a = n3.f_function(idx, TAU, 0.19 + 0.07j, P)
    b = ph * n3.f_function(nf, TAU, 0.19 + 0.07j, P)
    assert abs(a - b) < 1e-10

    idx0 = n3.FIndex.of(3, 2, F(1, 2), SECTORS["minus"], 1, 2)
    idx1 = n3.FIndex.of(3, 2, F(1, 2), SECTORS["minus"], 4, 5)
    a = n3.f_function(idx0, TAU, 0.19 + 0.07j, P)
    b = n3.f_function(idx1, TAU, 0.19 + 0.07j, P)
    assert abs(a - b) < 1e-9


def test_fundamental_domain_random_consistency():
    import random

    rng = random.Random(11)
    z = 0.19 + 0.07j
    for _ in range(12):
        M = rng.choice([1, 3, 5])
        n_ = rng.choice([1, 2]) if M == 3 else 1
        par = rng.choice([0, 1])
        j = HalfInt(2 * rng.randint(-2, 2) + par)
        k = HalfInt(2 * rng.randint(-2, 2) + par)
        idx = n3.FIndex.of(M, n_, rng.choice([0, F(1, 2)]),
                           Sector.of(rng.choice([0, F(1, 2)]), rng.choice([0, F(1, 2)])), j, k)
        nf, ph = n3.fundamental_domain(idx)
        a = n3.f_function(idx, TAU, z, P)
        b = ph * n3.f_function(nf, TAU, z, P)
        assert abs(a - b) < 1e-8 * max(1.0, abs(a))


def test_primed_types():
    # non-principal ranges admit k1 <= 0 and assemble like their unprimed
    # counterparts
    w = n3.N3Weight(False, M34, 1, 3, "Iprime", -1, 1)
    v = n3.numerator_B(w, TAU, Z1, Z2, T, True, P)
    u = n3.admissible_numerator_psi(w, TAU, Z1, Z2, T, True, P)
    assert abs(v - u) < 1e-9
    with pytest.raises(ValueError):
        n3.N3Weight(False, M34, 0, 3, "Iprime", 1, 0)


def test_twisted_vanishing_flag_matches_raw_values():
    # the twisted-sector vanishing flag must agree with the raw quotient
    # (no masking of nonzero values, no missed zeros), levels -3/4 and -1
    z = 0.17 + 0.06j
    for m in (M34, F(-1)):
        n_ = int(-4 * F(m) - 2)
        for dotted in (False, True):
            for m2 in range(n_ + 1):
                w = n3.N3Weight(dotted, m, m2)
                flag = n3.qhr_characteristics(w)["vanishes_tw"]
                num = n3.numerator(w, TAU, z, -z, 0.0, SECTORS["plus"], False, P)
                den = n3.n3_denominator(TAU, z, SECTORS["plus_tw"], P)
                raw = abs(num / den)
                assert flag == (raw < 1e-12), (m, dotted, m2, raw)


def test_twisted_super_sector_has_no_denominator():
    # N=3 has three denominators; the twisted super sector (0, 0) has none
    with pytest.raises(ValueError):
        n3.n3_denominator(TAU, 0.17 + 0.06j, SECTORS["minus_tw"], P)


def test_twisted_supercharacters_vanish():
    # the reduced character in the sector (0, 0) is 0 for every weight
    for m in (M34, F(-1)):
        for w in n3.enumerate_weights(m):
            assert n3.qhr_character(w, TAU, 0.17 + 0.06j, SECTORS["minus_tw"], False, P) == 0


def test_twisted_sectors_are_the_plain_ones_at_the_twisted_point():
    w = n3.N3Weight(False, M34, 1)
    moved = n3.twisted_point(TAU, Z1, Z2, T)
    for twisted, plain in (("minus_tw", "minus"), ("plus_tw", "plus")):
        for modified in (False, True):
            a = n3.numerator(w, TAU, Z1, Z2, T, SECTORS[twisted], modified, P)
            assert a == n3.numerator(w, TAU, *moved, SECTORS[plain], modified, P)


def test_reduced_characters_read_the_numerator_in_the_affine_sector():
    # the reduced character is the numerator in sector.affine at (z, -z, 0);
    # in an untwisted sector that is, to the bit, the numerator in the sector
    # itself at the substitution (z + tau/2, -z + tau/2, tau/4)
    z = 0.17 + 0.06j
    w = n3.N3Weight(True, M34, 1)
    for name in ("plus", "minus", "plus_tw"):
        sec = SECTORS[name]
        den = n3.n3_denominator(TAU, z, sec, P)
        want = n3.numerator(w, TAU, z, -z, 0.0, sec.affine, False, P) / den
        assert n3.qhr_character(w, TAU, z, sec, False, P) == want
        if sec.eps_prime.twice:
            sub = n3.numerator(w, TAU, z + TAU / 2, -z + TAU / 2, TAU / 4, sec, False, P)
            assert sub / den == want
