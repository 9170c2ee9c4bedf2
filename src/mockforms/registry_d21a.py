"""The D(2,1;a) laws of the identity registry (tag d21a): the numerator
families and their reflections (section 10), the Hamiltonian reduction and
the reduced characters (section 11), the boundary case (section 12) and
the exact runners.  The module registry imports this one at its end and
calls _d21a_pairs(), so these laws register in their place among the 87."""

import cmath
import math
from fractions import Fraction

from .qkernel import PoleProximityError, e2pi
from .theta import ThetaIndex
from .verifier import register
from .registry import EPS_PAIRS, H, IdentitySpec, _S, _S_t, _T, _call, _laws, _same
from . import family_n4 as n4
from . import family_d21a as d2, theta as th


def _d21a_pairs():
    # (p, q, n) of the laws at a = -2/3; every plan builds its own D21Params,
    # so the data a plan's objects form lives as long as the plan
    P211 = (2, 1, 1)

    # the index of a numerator function is a D21Index
    pq = lambda laws: _laws(lambda x, tau, z1, z2, z3, t, policy: d2.PQ_function(
        x, tau, z1, z2, z3, t, policy=policy), lambda pt: (*pt.zs, 0.03), laws)
    image = lambda action: lambda tau, *a: (tau, *action(tau, *a))
    # the S and T phases e(2 deg eps eps'), e(-deg eps'^2) of the sector (eps, eps')
    phases = lambda deg, eps, epsp: (e2pi(2 * deg * Fraction(eps) * Fraction(epsp)),
                                     e2pi(-deg * Fraction(epsp) ** 2))

    def lem1012(p, q, n, which):
        pr = d2.D21Params(p, q, n)
        j = 1
        x = d2.D21Index.of(which, j, pr)
        refl = 2 * n * (pr.p if which == "P" else pr.q)
        return [(x, image(action), d2.D21Index.of(which, y, pr), -1)
                for action, y in ((d2.r_theta, -j), (d2.r_alpha2, j), (d2.r_alpha3, j),
                                  (d2.r_alpha0, -j - refl))]

    register(IdentitySpec("lemma10.12", "reflection action on the numerator families",
                          "d21a", 1e-8,
                          [{"p": 2, "q": 1, "n": 1, "which": w} for w in ("P", "Q")],
                          pq(lem1012)))

    def st_laws(which, pr, eps, epsp):
        """[S-law, T-law] at j = 1 of `which` in the sector (eps, eps'): P, Q at
        (0, 0), where the shift factors are e(0) = 1, and f, g.  The S-image
        is a row of the degree-2n(p+q) Theta S-matrix."""
        big = 2 * pr.n * (pr.p + pr.q)
        deg = pr.n * (pr.p if which in "Pf" else pr.q)
        j = 1
        ph, ph_t = phases(deg, eps, epsp)
        K = complex(pr.K)
        x = d2.D21Index.of(which, j, pr, n4.Sector.of(eps, epsp))
        return [(x, _S_t, [(e2pi(Fraction(-j * k, big)), d2.D21Index.of(which, k, pr, x.sector.S))
                           for k in range(big)],
                 lambda tau, z1, z2, z3, t: (
                     ph * cmath.sqrt(-1j * tau) * tau / math.sqrt(big)
                     * e2pi(K * d2.zz_value(pr, z1, z2, z3) / (2 * tau)))),
                (x, _T, d2.D21Index.of(which, j, pr, x.sector.T),
                 ph_t * e2pi(Fraction(j * j, 2 * big)))]

    register(IdentitySpec("prop10.21", "numerator family S and T laws", "d21a", 1e-6,
                          [{"p": p, "q": 1, "n": 1, "which": w, "lab": lab}
                           for p in (1, 2) for w in ("P", "Q") for lab in ("S", "T")],
                          pq(lambda p, q, n, which, lab: [
                              st_laws(which, d2.D21Params(p, q, n), 0, 0)["ST".index(lab)]]),
                          grid=(2, 2)))

    def lem112():
        pr = d2.D21Params(*P211)
        j = 1
        big = pr.n * (pr.p + pr.q)
        # (variant, f or g, shift, sign): the f or g index is j + shift in
        # the affine sector of the variant
        return [((d2.PQ_function, d2.D21Index.of("P" if which == "f" else "Q", j, pr), sec),
                 _same, (d2.fg_lower, d2.D21Index.of(which, j + shift, pr, sec.affine)), sgn)
                for variant, which, shift, sgn in (
                    ("minus", "f", 0, 1.0), ("plus", "f", 0, 1.0),
                    ("minus_tw", "f", 0, -1.0), ("plus_tw", "f", 0, -1.0),
                    ("minus", "g", 0, 1.0), ("minus_tw", "g", big, -1.0),
                    ("plus", "g", 0, (-1.0) ** j),
                    ("plus_tw", "g", big, -((-1.0) ** (j + pr.n * pr.p))))
                for sec in [n4.SECTORS[variant]]]

    register(IdentitySpec("lemma11.2", "sector variants in terms of the shifted basis",
                          "d21a", 1e-8, [{}], _laws(_call, lambda pt: (*pt.zs, 0.02), lem112)))

    def lem117(eps, epsp):
        pr = d2.D21Params(*P211)
        sec = n4.Sector.of(eps, epsp)
        hr = lambda tau, y2, y3: (tau, *d2.hr_point(tau, y2, y3))
        return [((d2.fg_lower, d2.D21Index.of(low, 1, pr, sec)), hr,
                 (d2.FG_function, d2.D21Index.of(up, 1 + pr.n * k, pr, sec.affine)), None)
                for low, up, k in (("f", "F", pr.p), ("g", "G", pr.q))]

    register(IdentitySpec("lemma11.7", "Hamiltonian reduction of the basis functions",
                          "d21a", 1e-8, EPS_PAIRS, _laws(_call, lambda pt: pt.zs[:2], lem117)))

    # the index of a reduced basis function is a D21Index
    fg = lambda laws: _laws(lambda *a: d2.FG_function(*a), lambda pt: pt.zs[:2], laws)
    big = 3   # n (p + q) at P211

    def rem116():
        pr = d2.D21Params(*P211)
        F = lambda j: d2.D21Index.of("F", j, pr, n4.Sector.of(0, H))
        return [(F(-1), _same, F(1), -1), (F(1 + 2 * big), _same, F(1), None),
                (F(big + 1), _same, F(big - 1), -1)]

    register(IdentitySpec("rem11.6", "index symmetries of the reduced basis",
                          "d21a", 1e-10, [{}], fg(rem116)))

    def lem118(which, eps, epsp):
        pr = d2.D21Params(*P211)
        deg = pr.n * (pr.p if which == "F" else pr.q)
        j = 1
        ph, ph_t = phases(deg, eps, epsp)
        x = d2.D21Index.of(which, j, pr, n4.Sector.of(eps, epsp))
        return [(x, _S,
                 [(math.sin(math.pi * j * k / big), d2.D21Index.of(which, k, pr, x.sector.S))
                  for k in range(1, big)],
                 lambda tau, y2, y3: ((-1j * tau) ** 1.5 * ph * math.sqrt(2.0 / big) * e2pi(
                     pr.n * (pr.q * y2 * y2 + pr.p * y3 * y3) / (4 * tau)))),
                (x, _T, d2.D21Index.of(which, j, pr, x.sector.T),
                 e2pi(Fraction(j * j, 4 * big)) * ph_t)]

    register(IdentitySpec("lemma11.8", "reduced basis S and T laws", "d21a", 1e-6,
                          [{"which": w, **e} for w in ("F", "G") for e in EPS_PAIRS],
                          fg(lem118), grid=(2, 2)))

    b4 = lambda laws: _laws(lambda x, tau, y2, y3, policy: d2.b4_denominator(
        tau, y2, y3, x, policy), lambda pt: pt.zs[:2], laws)

    def eq1113(eps, epsp):
        s = n4.Sector.of(eps, epsp)
        sgn = s.S_sign
        return [(s, _S, s.S, lambda tau, y2, y3: (
            sgn * (-1j * tau) ** 1.5 * cmath.exp(1j * math.pi * (y2 * y2 + y3 * y3) / (2 * tau))))]

    register(IdentitySpec("eq11.13", "reduced denominator S-law", "d21a", 1e-8, EPS_PAIRS,
                          b4(eq1113)))

    register(IdentitySpec("eq11.14", "reduced denominator T-law", "d21a", 1e-8, EPS_PAIRS,
                          b4(lambda eps, epsp: [(
                              n4.Sector.of(eps, epsp), _T, n4.Sector.of(eps, epsp).T,
                              (1j ** int(2 * Fraction(epsp))) * e2pi(Fraction(1, 8)))])))

    register(IdentitySpec("prop11.14", "basis function S and T laws", "d21a", 1e-6,
                          [{"which": w, "eps": e, "epsp": ep} for w in ("f", "g")
                           for (e, ep) in ((Fraction(0), Fraction(0)), (H, Fraction(0)),
                                           (Fraction(0), H))],
                          _laws(lambda *a: d2.fg_lower(*a), lambda pt: (*pt.zs, 0.02),
                                lambda which, eps, epsp: st_laws(
                                    which, d2.D21Params(*P211), eps, epsp)), grid=(2, 2)))

    def p1111(m2, m3, flavor):
        w, minus = d2.D21Weight(d2.D21Params(*P211), 1, m2, m3), n4.SECTORS["minus"]
        return [((d2.big_n4_qhr, w, minus, flavor), _same, lambda tau, y2, y3, policy: (
            d2.modified_supercharacter_numerator(w, tau, *d2.hr_point(tau, y2, y3), flavor, policy)
            / d2.b4_denominator(tau, y2, y3, minus, policy)), None)]

    register(IdentitySpec("prop11.11", "reduced character table vs case assembly",
                          "d21a", 1e-8,
                          [{"m2": 0, "m3": 0, "flavor": f} for f in ("P", "Q")]
                          + [{"m2": 0, "m3": 1, "flavor": f} for f in ("P", "Q")],
                          _laws(_call, lambda pt: pt.zs[:2], p1111)))

    def rem1113(p, s, sector):
        w, sec = d2.D21Weight(d2.D21Params(p, 1, 1), 1, 0, s), n4.SECTORS[sector]
        ts = s if sec.eps_prime.twice else p - s - 1
        x = [ThetaIndex.of(j, m) for j, m in ((ts + 1, p + 1), (-(ts + 1), p + 1), (1, 2), (-1, 2))]

        def quotient(tau, y2, y3, policy):
            big_theta = lambda i: th.theta_jm(x[i], tau, y3, 0, policy)
            return (big_theta(0) - big_theta(1)) / (big_theta(2) - big_theta(3))
        return [((d2.big_n4_qhr, w, sec, "Q"), _same, quotient, None)]

    register(IdentitySpec("rem11.13", "collapsing-level reduced characters", "d21a",
                          1e-8, [{"p": p, "s": s, "sector": sec} for p in (2, 3)
                                 for s in range(p) for sec in ("minus", "minus_tw")],
                          _laws(_call, lambda pt: pt.zs[:2], rem1113), grid=(2, 2)))

    def probe_1115(policy):
        pr = d2.D21Params(*P211)
        tau = 0.9j + 0.1
        y2 = 0.21 + 0.06j
        w = d2.D21Weight(pr, 1, 0, 1)
        mags = []
        for center in (0.0, 0.5, tau / 2, (tau + 1) / 2):
            for radius in (1e-2, 1e-3):
                for k in range(8):
                    y3 = center + radius * cmath.exp(2j * math.pi * k / 8)
                    try:
                        v = d2.big_n4_qhr(w, tau, y2, y3, n4.SECTORS["minus_tw"], "P", policy)
                    except PoleProximityError:
                        continue
                    mags.append(abs(v))
        mags.sort()
        med = mags[len(mags) // 2]
        return max(mags) / med, 0

    register(IdentitySpec("prop11.15", "no blow-up near candidate second-variable poles",
                          "d21a", 10.0, [{}], None, runner=probe_1115))

    def eq127(eps, epsp, j):
        pr = d2.D21Params(*P211)
        p = pr.p
        ph = e2pi(-Fraction(p, p + 1) * 0.02)   # e(-p t / (p + 1)) at the t of the point
        s1 = (-1.0) ** (1 - 2 * float(epsp))
        s2 = (-1.0) ** (2 * float(eps) * (1 - 2 * float(epsp)))
        xp, xm = ThetaIndex.of(j, p + 1), ThetaIndex.of(-j, p + 1)
        g = d2.D21Index.of("g", j, pr, n4.Sector.of(eps, epsp))
        a_, b_ = g.sector.a, g.sector.b

        def explicit(tau, z1, z2, z3, t, policy):
            ab = lambda aa, bb, u: th.jacobi_theta(aa, bb, tau, u, policy)
            pref = th.eta_theta_quotient(tau, ph, (), ((1, 1), (1, 1, z1 - z3, 1),
                                                    (1, 1, z2 + z3, 1)), policy)
            t1 = (s1 * th.theta_jm(xp, tau, z1 + z2 / (p + 1) - p * z3 / (p + 1), 0, policy)
                  * ab(a_, b_, z3) * ab(a_, b_, z1 - z2 - z3))
            t2 = (s2 * th.theta_jm(xm, tau, z1 - z2 / (p + 1) - (p + 2) * z3 / (p + 1), 0, policy)
                  * ab(a_, b_, z1) * ab(a_, b_, z2))
            return pref * (t1 - t2)
        return [(g, _same, explicit, None)]

    # the member at g is the boundary quotient g / R-hat of its sector
    register(IdentitySpec("eq12.7", "boundary quotient explicit form", "d21a", 1e-9,
                          [{**e, "j": 1} for e in EPS_PAIRS],
                          _laws(lambda g, tau, z1, z2, z3, t, policy: (
                              d2.fg_lower(g, tau, z1, z2, z3, t, policy)
                              / d2.rhat(tau, z1, z2, z3, g.sector, policy)),
                              lambda pt: (*pt.zs, 0.02), eq127)))

    register(IdentitySpec("eq12.8", "affine denominator S and T laws", "d21a", 1e-8, EPS_PAIRS,
                          _laws(lambda x, tau, z1, z2, z3, policy: d2.rhat(
                              tau, z1, z2, z3, x, policy), lambda pt: pt.zs,
                              lambda eps, epsp: [
                                  (n4.Sector.of(eps, epsp), _S, n4.Sector.of(eps, epsp).S,
                                   lambda tau, *zs: 1j * (-1j * tau) ** 1.5),
                                  (n4.Sector.of(eps, epsp), _T, n4.Sector.of(eps, epsp).T,
                                   e2pi(Fraction(1, 24)))])))

    # the index of a boundary supercharacter is its weight
    boundary = lambda laws: _laws(lambda w, tau, z1, z2, z3, t, policy: (
        d2.boundary_case_characters(w, tau, z1, z2, z3, t, policy=policy)),
        lambda pt: (*pt.zs, 0.02), laws)

    def p124a(p):
        pr = d2.D21Params(p, 1, 1)
        sm = d2.s_matrix_and_fusion(p)
        K = complex(pr.K)
        return [(wt, _S_t, list(zip(row, sm["weights"])),
                 lambda tau, z1, z2, z3, t: e2pi(K * d2.zz_value(pr, z1, z2, z3) / (2 * tau)))
                for wt, row in zip(sm["weights"], sm["S"])]

    register(IdentitySpec("prop12.4a", "boundary supercharacter S-rows", "d21a", 1e-6,
                          [{"p": 1}, {"p": 2}], boundary(p124a), grid=(2, 2)))

    def p124b(p):
        sm = d2.s_matrix_and_fusion(p)
        return [(wt, _T, wt, ph) for wt, ph in zip(sm["weights"], sm["T"])]

    register(IdentitySpec("prop12.4b", "boundary supercharacter T-phases", "d21a",
                          1e-8, [{"p": 1}, {"p": 2}], boundary(p124b), grid=(2, 2)))

    def fusion_check(policy):
        bad = 0
        for p in (1, 2):
            sm = d2.s_matrix_and_fusion(p)
            N = len(sm["weights"])
            f = sm["fusion"]
            js = sm["j_residues"]
            for i in range(N):
                for j in range(N):
                    for k in range(N):
                        want = 1 if (js[i] + js[j] + js[k]) % (2 * (p + 1)) == 0 else 0
                        perm = f(i, j, k)
                        if perm != want or f(j, i, k) != want or f(k, j, i) != want:
                            bad += 1
        return float(bad), 0

    register(IdentitySpec("rem12.5", "fusion table matches the combinatorial rule",
                          "d21a", 0.5, [{}], None, runner=fusion_check))

    def eq1015_check(policy):
        worst = 0.0
        for params in (d2.D21Params(1, 1, 1), d2.D21Params(2, 1, 1), d2.D21Params(3, 2, 2)):
            forms = d2.quadratic_forms(params)
            if any(f != forms[0] for f in forms):
                worst = 1.0
        return worst, 0

    register(IdentitySpec("eq10.15", "quadratic-form identities (exact rational)",
                          "d21a", 0.5, [{}], None, runner=eq1015_check))
