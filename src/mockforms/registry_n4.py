"""The N=4 laws of the identity registry (tag n4): the derivative
numerator and its wrappers (sections 6 and 8), the reduced characters
(section 7) and the chi basis (section 9).  The module registry imports
this one at its end and calls _n4_pairs(), so these laws register in
their place among the 87."""

import cmath
import math
from fractions import Fraction

from .qkernel import e2pi
from .mock import MockIndex, PsiIndex
from .verifier import register
from .registry import (EPS_PAIRS, H, IdentitySpec, _S, _S_t, _T, _balanced_table, _call,
                       _laws, _same, _zero, _zs)
from . import family_n4 as n4, modification as md


def _n4_pairs():
    # the index of a derivative wrapper of degree m is the index
    # (M, -m, 0, eps, j, k) of its modified wrapper; at scale one with no
    # shifts, (1, -m, 0, 0, 0, 0), it is the derivative numerator
    # (D0 + m (z1-z2)/(2 tau)) of the modified assembly at index (-m, 0)
    wrapper = lambda M, m, eps, j, k: PsiIndex.of(M, -m, 0, eps, j, k)
    scale_one = lambda m: wrapper(1, m, 0, 0, 0)
    # the S-image of a Jacobi form of negative index in (z1, z2, t)
    s_dual = lambda tau, z1, z2, t, *_: (-1 / tau, z1 / tau, z2 / tau, t + z1 * z2 / tau)
    # the derivative wrapper as a law's member, read from family_n4 at each call
    derivative = lambda *a: n4.psi_P(*a)

    def lem63(m):
        # the S-law, then the collapse on (z + a tau, z + b tau) at z + u,
        # u = 0 and 1/2, with the phase ph = e(m u (a + b))
        idx, x = MockIndex.of(-m, 0), scale_one(m)
        a, b = 1, 0
        return [(x, s_dual, x, lambda tau, *_: tau ** 2)] + [
            (x, lambda tau, z1, z2, t, z, u=u: (tau, z + u + a * tau, z + u + b * tau,
                                                t - (a + b) * z),
             lambda tau, z1, z2, t, z, policy, u=u, ph=ph: (
                 m / 2 * (b - a) * ph * e2pi(m * a * b * tau) * e2pi(m * t)
                 * md.phi_tilde(idx, tau, z + u, z + u, 0, policy)), None)
            for u, ph in ((0, 1), (0.5, e2pi(Fraction(m, 2))))]

    # the point is (z1, z2, t, z), and the derivative numerator reads the
    # first four of its arguments
    register(IdentitySpec("lemma6.3", "derivative numerator: S and collapse laws",
                          "n4", 1e-6, [{"m": -1}, {"m": -2}],
                          _laws(lambda x, *a: n4.psi_P(x, *a[:4], a[-1]),
                                lambda pt: (pt.zs[0], pt.zs[1], 0.03, pt.zs[2]), lem63)))

    def dual_tilde(idx, tau, z1, z2, t, m, policy):
        """e(m t) phi_tilde(idx, tau, z1, z2, 0), a Jacobi form of index m"""
        return e2pi(m * t) * md.phi_tilde(idx, tau, z1, z2, 0.0, policy)

    def lem62(m):
        # hypothesis and conclusion of the derivative transfer, instantiated
        # on the modified assembly: the S-law and swap symmetry of the input
        # together with the S-law of its derivative combination
        f, g = (dual_tilde, MockIndex.of(-m, 0), m), (n4.psi_P, scale_one(m))
        return [(f, s_dual, f, lambda tau, *a: tau),
                (f, lambda tau, z1, z2, t: (tau, z2, z1, t), f, None),
                (g, s_dual, g, lambda tau, *a: tau ** 2)]

    register(IdentitySpec("lemma6.2", "derivative transfer: hypothesis and conclusion",
                          "n4", 1e-6, [{"m": -2}], _laws(_call, _zs(0.03), lem62)))

    def collapse(m, numerator):
        # the derivative numerator at (z + tau/2, z - tau/2, tau/4) (lemma6.4,
        # c = -m/2) or the modified assembly there at t = -tau/4 (rem6.5,
        # c = 1) is, for h = +-1, c e(-h m z) e(-m tau/4) Phi~^{[-m;0]} on
        # the diagonal z + h tau/2
        idx = MockIndex.of(-m, 0)
        x, c, sign = (scale_one(m), -m / 2, 1) if numerator else (idx, 1, -1)
        image = lambda tau, z: (tau, z + tau / 2, z - tau / 2, sign * tau / 4)
        return [(x, image, lambda tau, z, policy, h=h: (
                    c * e2pi(-h * m * z) * e2pi(-m * tau / 4)
                    * md.phi_tilde(idx, tau, z + h * tau / 2, z + h * tau / 2, 0, policy)), None)
                for h in (1, -1)]

    register(IdentitySpec("lemma6.4", "derivative numerator collapse on the shifted diagonal",
                          "n4", 1e-7, [{"m": -1}, {"m": -2}],
                          _laws(derivative, lambda pt: (pt.z,), lambda m: collapse(m, True))))
    register(IdentitySpec("rem6.5", "modified assembly collapse on the shifted diagonal",
                          "n4", 1e-8, [{"m": -1}, {"m": -2}],
                          _laws(lambda *a: md.phi_tilde(*a), lambda pt: (pt.z,),
                                lambda m: collapse(m, False))))

    # the index of a reduced character is (weight, Sector)
    integrable = lambda x, tau, z, policy: n4.qhr_character_integrable(x[0], tau, z, x[1], policy)

    def p71a(m, m2):
        idx, plus, m0 = MockIndex.of(-m, 0), n4.SECTORS["plus"], m + m2
        return [((n4.N4Weight(m, m2), plus), _same, lambda tau, z, policy: (
            -((-1.0) ** m) * m0 * e2pi(m * z) * e2pi(-m * tau / 4)
            * md.phi_tilde(idx, tau, z + 0.5 - tau / 2, z + 0.5 - tau / 2, 0, policy)
            / n4.n4_denominator(tau, z, plus, policy)), None)]

    register(IdentitySpec("prop7.1a", "two closed forms of the reduced character agree",
                          "n4", 1e-8, [{"m": -1, "m2": 0}, {"m": -2, "m2": 1}],
                          _laws(integrable, lambda pt: (pt.z,), p71a)))

    def denominated(x, tau, z, policy):
        """the reduced character at index x = (weight, sector) times its denominator"""
        return integrable(x, tau, z, policy) * n4.n4_denominator(tau, z, x[1], policy)

    def p72(m, rel):
        w = n4.N4Weight(m, 1 if m < -1 else 0)
        if rel < 4:
            name, c = [("plus", (-1.0) ** m), ("minus", -1.0), ("plus_tw", -1.0),
                       ("minus_tw", 1.0)][rel]
            s = n4.SECTORS[name]
            return [((w, s), _S, (w, s.S), lambda tau, z: c * tau * e2pi(-m * z * z / tau))]
        name, c = [("plus", e2pi(Fraction(m, 4))), ("plus_tw", 1.0)][rel - 4]
        s = n4.SECTORS[name]
        return [((w, s), _T, (w, s.T), c)]

    register(IdentitySpec("prop7.2", "reduced-character S and T relations", "n4",
                          1e-6, [{"m": m, "rel": r} for m in (-1, -2) for r in range(6)],
                          _laws(denominated, lambda pt: (pt.z,), p72), grid=(3, 2)))

    def th73b(m, eps, epsp):
        w, s = n4.N4Weight(m, 1 if m < -1 else 0), n4.Sector.of(eps, epsp)
        cm = -6 * (m + 1)
        # sign and phase constants re-derived in the anchored normalization
        # (the trivial module at level -1 has all characters equal to 1)
        sgn = (-1.0) ** ((m + 1) * int(2 * eps) * int(2 * epsp))
        return [((w, s), _S, (w, s.S),
                 lambda tau, z: sgn * cmath.exp(1j * math.pi * cm * z * z / (3 * tau))),
                ((w, s), _T, (w, s.T),
                 e2pi(Fraction((m + 1) * int(2 * epsp), 4)))]

    register(IdentitySpec("th7.3b", "reduced-character laws in shift notation", "n4",
                          1e-6, [{"m": m, **e} for m in (-1, -2) for e in EPS_PAIRS],
                          _laws(integrable, lambda pt: (pt.z,), th73b), grid=(2, 2)))

    def rem74(m):
        # deliberately wrong twist: the S-relation must fail visibly
        w, minus_tw, plus_tw = n4.N4Weight(m, 1), n4.SECTORS["minus_tw"], n4.SECTORS["plus_tw"]

        def bad(tau, z, policy):
            w1, w2, wt = n4.w0_prime_point(tau, z + tau / 2, z - tau / 2, tau / 4)
            num = n4.admissible_supernumerator(w, tau, w1, w2, wt, policy)
            bad_tw = num / n4.n4_denominator(tau, z, minus_tw, policy)
            return (-tau * e2pi(-m * z * z / tau) * bad_tw
                    * n4.n4_denominator(tau, z, plus_tw, policy))
        return [((w, n4.SECTORS["minus"]), _S, bad, None)]

    register(IdentitySpec("rem7.4x", "alternative twist breaks the S-relation (recorded)",
                          "n4", 1e-2, [{"m": -2}], _laws(denominated, lambda pt: (pt.z,), rem74),
                          grid=(2, 2), check="exceeds"))

    psi_p = lambda laws: _laws(derivative, _zs(0.02), laws)
    diagonal = lambda tau, z1, z2, t: (tau, z1 + 1, z2 + 1, t)

    def lem82(M, m):
        j, k = Fraction(3, 2), -H
        x = wrapper(M, m, H, j, k)
        return [(x, lambda tau, z1, z2, t: (tau, z2, z1, t), wrapper(M, m, H, k, j), -1),
                (x, lambda tau, z1, z2, t: (tau, -z1, -z2, t), wrapper(M, m, H, -j, -k), None)]

    register(IdentitySpec("lemma8.2", "derivative wrapper swap and negation laws",
                          "n4", 1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}], psi_p(lem82)))

    def lem83(M, m):
        j, k = Fraction(3, 2), -H
        x0, x = scale_one(m), wrapper(M, m, H, j, k)
        return [(x0, diagonal, x0, None),
                (x, diagonal, x, e2pi(-Fraction(m, M) * (j + k)))]

    register(IdentitySpec("lemma8.3", "derivative wrapper diagonal shifts", "n4",
                          1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}], psi_p(lem83)))

    def lem85(M, m):
        j, k = 1, 0
        idx, x0 = MockIndex.of(-m, 0), scale_one(m)
        c, cm, cj, ck, cv = (complex(x) for x in (-Fraction(m, M) * j * k, -Fraction(m, M),
                                                  j, k, Fraction(m * (j - k), 2 * M)))

        def explicit(tau, z1, z2, t, policy):
            pref = e2pi(c * tau) * e2pi(cm * (ck * z1 + cj * z2))
            g = n4.psi_P(x0, M * tau, z1 + cj * tau, z2 + ck * tau, 0, policy)
            v = md.phi_tilde(idx, M * tau, z1 + cj * tau, z2 + ck * tau, 0, policy)
            return pref * (g + cv * v)
        return [(wrapper(M, m, 0, j, k), _same, explicit, None)]

    register(IdentitySpec("lemma8.5", "derivative wrapper explicit form", "n4",
                          1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}],
                          _laws(derivative, _zs(0), lem85)))

    def lem84(M, m):
        # termwise derivative of the modification at index-shifted arguments
        # in terms of the derivative numerator and the multiplier split
        j, k, eps = 1, -1, 0.5
        idx, x0 = MockIndex.of(-m, 0), scale_one(m)
        c = complex(Fraction(m * (j - k), 2 * M))
        image = lambda tau, z1, z2, t: (M * tau, z1 + j * tau + eps, z2 + k * tau + eps, t)

        def split(tau, z1, z2, t, policy):
            u = image(tau, z1, z2, t)
            v = md.phi_tilde(idx, *u, policy, want_d0=True)[0]
            g = n4.psi_P(x0, *u, policy)
            return g - (m * (z1 - z2) / (2 * M * tau) + c) * v
        return [(idx, image, split, None)]

    # the member is the D0 part of the modification
    register(IdentitySpec("lemma8.4", "shifted-argument derivative split", "n4",
                          1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}],
                          _laws(lambda x, *a: md.phi_tilde(x, *a, want_d0=True)[1], _zs(0.0),
                                lem84)))

    register(IdentitySpec("rem8.6", "scale-one derivative wrapper vanishes on the diagonal",
                          "n4", 1e-10, [{"m": -1, "eps": Fraction(0)}, {"m": -2, "eps": H}],
                          _laws(derivative, lambda pt: (pt.z, pt.z, 0.07), lambda m, eps: [
                              (wrapper(1, m, eps, *((1, 0) if eps == 0 else (H, -H))), _same,
                               _zero, None)])))

    # psi_P on the diagonal z1 = z2, where its T-law holds
    on_diagonal = lambda x, tau, z1, z2, t, policy: n4.psi_P(x, tau, z1, z1, t, policy)

    def p87(M, m, which):
        eps, epsp = H, Fraction(0)
        j, k = 1, -1
        x = wrapper(M, m, eps, j, k)
        if which == "T":
            # off the diagonal the tau-dependent multiplier spoils the T-shift,
            # so the T-law is the diagonal statement used by the chi basis
            ph = e2pi(-Fraction(m, M) * j * k)
            return [((on_diagonal, x), _T, (on_diagonal, wrapper(M, m, abs(eps - epsp), j, k)),
                     ph)]
        cm = complex(-Fraction(m, M))
        return [((n4.psi_P, x), _S_t, [(c, (n4.psi_P, wrapper(M, m, epsp, a0, b0)))
                                       for c, a0, b0 in _balanced_table(M, eps, m, j, k)],
                 lambda tau, z1, z2, t: tau ** 2 / M * e2pi(cm * z1 * z2 / tau))]

    register(IdentitySpec("prop8.7", "derivative wrapper S and T laws", "n4", 1e-6,
                          [{"M": M, "m": m, "which": w} for (M, m) in ((2, -1), (3, -2))
                           for w in ("S", "T")], _laws(_call, _zs(0.02), p87), grid=(2, 2)))

    def rem88(M, m):
        # the wrapper and the derivative wrapper share their indices
        j, k = H, -H
        y = wrapper(M, m, H, j, k)
        rows = []
        for (a, b) in ((1, 0), (0, 1)):
            x, ph = wrapper(M, m, H, j + a * M, k + b * M), e2pi(Fraction(m * (a - b), 2))
            rows += [((f, x), _same, (f, y), ph) for f in (md.psi_tilde, n4.psi_P)]
        return rows

    register(IdentitySpec("rem8.8", "wrapper and derivative wrapper index periodicity",
                          "n4", 1e-8, [{"M": 2, "m": -1}, {"M": 3, "m": -2}],
                          _laws(_call, _zs(0), rem88)))

    def th96(M, m, J, k1, k2, m2):
        w = n4.N4Weight(m, m2, M, J, k1, k2)
        return [((n4.qhr_character_admissible, w, sec), _same,
                 lambda tau, z, policy, sec=sec: (
                     n4.numerator(w, tau, z + tau / 2, z - tau / 2, tau / 4, sec, policy)
                     / n4.n4_denominator(tau, z, sec, policy)), None)
                for sec in n4.SECTORS.values()]

    register(IdentitySpec(
        "th9.6", "chi assembly equals the substituted numerators", "n4", 1e-8,
        [{"M": 1, "m": -1, "J": "I", "k1": 0, "k2": 0, "m2": 0},
         {"M": 3, "m": -2, "J": "I", "k1": 1, "k2": 0, "m2": 1},
         {"M": 3, "m": -2, "J": "III", "k1": 0, "k2": 1, "m2": 0}],
        _laws(_call, lambda pt: (pt.z,), th96), grid=(2, 2)))

    chi = lambda laws: _laws(lambda *a: n4.chi(*a), lambda pt: (pt.z,), laws)

    def th97(M, m, alpha, which):
        eps, epsp = H, Fraction(0)
        j, k = 1, -1
        x = n4.ChiIndex.of(alpha, M, m, n4.Sector.of(eps, epsp), j, k)
        if which == "T":
            return [(x, _T, n4.ChiIndex.of(alpha, M, m, x.sector.T, j, k),
                     e2pi(-Fraction(m, M) * j * k - Fraction(1, 2) * epsp))]
        sgn, cw = x.sector.S_sign, -2j * math.pi * (Fraction(m, M) + 1)
        return [(x, _S, [(c, n4.ChiIndex.of(alpha, M, m, x.sector.S, a0, b0))
                         for c, a0, b0 in _balanced_table(M, eps, m, j, k)],
                 lambda tau, z: sgn * tau ** alpha / M * cmath.exp(cw * z * z / tau))]

    register(IdentitySpec("th9.7", "chi S and T laws", "n4", 1e-6,
                          [{"M": M, "m": m, "alpha": a, "which": w}
                           for (M, m) in ((2, -1), (3, -2)) for a in (0, 1)
                           for w in ("S", "T")], chi(th97), grid=(2, 2)))

    def th98a(M, m, alpha):
        eps, epsp = H, Fraction(0)
        j, k = Fraction(3, 2), H
        # the S-sum over (a, b) in (eps + {0..M-1})^2, a outer, and its
        # rewriting over a <= b with sine (alpha = 1) or cosine weights
        cells = [(c, n4.ChiIndex.of(alpha, M, m, n4.Sector.of(eps, epsp).S, a0, b0))
                 for c, a0, b0 in _balanced_table(M, eps, m, j, k)]
        terms = []
        for ia in range(M):
            for ib in range(ia + alpha, M):   # alpha = 1 leaves out a = b
                a, b = Fraction(eps) + ia, Fraction(eps) + ib
                arg = math.pi * float(Fraction(m, M) * (k - j) * (a - b))
                ph = cmath.exp(1j * math.pi * float(Fraction(m, M) * (j + k) * (a + b)))
                w = (2j * ph * math.sin(arg) if alpha == 1
                     else (2 - (1 if a == b else 0)) * ph * math.cos(arg))
                terms.append((w, cells[ia * M + ib][1]))
        return [(cells, _same, terms, None)]

    register(IdentitySpec("th9.8a", "sine/cosine rewriting of the chi S-sum", "n4",
                          1e-8, [{"M": M, "m": m, "alpha": a}
                                 for (M, m) in ((2, -1), (3, -2)) for a in (0, 1)],
                          chi(th98a), grid=(2, 2)))

    def rem95(M, m):
        j, k = Fraction(3, 2), -H
        sec = n4.Sector.of(H, H)
        x1, x2, x3, x4, x5 = (n4.ChiIndex.of(alpha, M, m, sec, jj, kk) for alpha, jj, kk in (
            (1, j, k), (1, k, j), (0, j, k), (0, k, j), (1, j, j)))
        x6 = n4.ChiIndex.of(1, 1, m, n4.Sector.of(H, 0), 1, 0)
        return [(x1, _same, x2, -1), (x3, _same, x4, None),
                (x5, _same, _zero, None), (x6, _same, _zero, None)]

    register(IdentitySpec("rem9.5", "chi symmetries and vanishing", "n4", 1e-10,
                          [{"M": 3, "m": -2}], chi(rem95)))
