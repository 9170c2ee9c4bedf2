"""The N=3 laws of the identity registry (tag n3): the f-basis laws of
sections 4 and 5, the collapsing-level numerator closed forms, the
reflection pairing, and the reduced numerators and characters against the
f-functions.  The module registry imports this one at its end and calls
_n3_pairs(), so these laws register in their place among the 87."""

import math
from fractions import Fraction

from .qkernel import e2pi
from .theta import ThetaIndex
from .verifier import register
from .registry import H, IdentitySpec, _S, _T, _call, _laws, _s_table, _same, _zero, _zs
from . import family_n3 as n3, theta as th
from .family_n4 import SECTORS, Sector

# N=3's names of its three sectors with a denominator, for n3.c1 and th4.11
_SECTORS = {"ns_plus": SECTORS["plus"], "ns_minus": SECTORS["minus"],
            "ramond": SECTORS["plus_tw"]}


def _n3_pairs():
    MN = [(1, 1), (3, 1), (3, 2)]
    sectors = [{"M": M, "n": n, "sg": sg, "sgp": sgp} for (M, n) in MN
               for (sg, sgp) in ((Fraction(0), H), (H, Fraction(0)), (H, H))]
    f = lambda laws: _laws(lambda *a: n3.f_function(*a), lambda pt: (pt.z,), laws)
    fidx = n3.FIndex.of

    def lem44(M, n, sg, sgp):
        idxs = [fidx(M, n, eps, Sector.of(sg, sgp), 1 + eps, 2 + eps) for eps in (Fraction(0), H)]
        return [(idx, _same, *n3.move_swap(idx)) for idx in idxs]

    register(IdentitySpec("lemma4.4", "f-basis skew swap", "n3", 1e-8, sectors, f(lem44)))

    def lem45(M, n):
        idx = fidx(M, n, H, SECTORS["minus"], 1, 2)
        return [(idx, _same, *n3.move_translate(idx, -1, 0))]

    register(IdentitySpec("lemma4.5", "f-basis period translation", "n3", 1e-8,
                          [{"M": M, "n": n} for (M, n) in MN], f(lem45)))

    def p46a(M, n, sg, sgp):
        eps, epsp = H, Fraction(0)
        j, k = (1, 2) if M > 1 else (0, 0)
        ph = e2pi(Fraction(n, 2 * M) * sg * sgp)
        x, eps_s = fidx(M, n, eps, Sector.of(sg, sgp), j, k), abs(epsp - sgp)
        return [(x, _S, [(c, fidx(M, n, eps_s, x.sector.S, a, b))
                         for c, a, b in _s_table(M, eps, n, j, k, sgp)],
                 lambda tau, z: tau / M * e2pi(n * z * z / (4 * M * tau)) * ph)]

    register(IdentitySpec("prop4.6a", "f-basis S-transform", "n3", 1e-6, sectors, f(p46a),
                          grid=(2, 2)))

    def p46b(M, n, sg):
        j, k = (1, 2) if M > 1 else (0, 0)
        base = e2pi(Fraction(n, M) * (Fraction(j * k) - Fraction(1, 16)))
        x, y = (fidx(M, n, H, Sector.of(sg, sgp), j, k) for sgp in (0, H))
        # in the (1/2, 1/2) row the law also moves eps to 0, with a phase
        eps_t, c = ((H, base) if sg == 0 else
                    (Fraction(0), base * e2pi(Fraction(n, M) * Fraction(k - j, 2))))
        return [(x, _T, fidx(M, n, H, x.sector.T, j, k), e2pi(Fraction(n * j * k, M))),
                (y, _T, fidx(M, n, eps_t, y.sector.T, j, k), c)]

    register(IdentitySpec(
        "prop4.6b", "f-basis T-transforms", "n3", 1e-8,
        [{"M": M, "n": n, "sg": sg} for (M, n) in MN for sg in (Fraction(0), H)],
        f(p46b)))

    def rem415(M, n, variant):
        # relations obtained by composing the swap and translation moves
        sg, sgp = (H, H) if variant == 3 else (H, Fraction(0))
        idx = fidx(M, n, H, Sector.of(sg, sgp), Fraction(2 * M + 1, 2), Fraction(M + 2, 2))
        mid, p1 = n3.move_swap(idx)
        fin, p2 = n3.move_translate(mid, math.floor(mid.j.value / M),
                                    math.floor(mid.k.value / M))
        return [(idx, _same, fin, p1 * p2)]

    for variant, eqid in ((1, "eq4.23"), (2, "eq4.24"), (3, "eq4.25")):
        register(IdentitySpec(
            eqid, "composed swap/translation index relation", "n3", 1e-6,
            [{"M": 3, "n": 1, "variant": variant}, {"M": 3, "n": 2, "variant": variant}],
            f(rem415)))

    def rem413(M, eps, sg, sgp):
        j, k = (1, 2) if M > 1 else (0, 0)
        idx = fidx(M, 1, eps, Sector.of(sg, sgp), j, k)
        e, fs, fsp = float(eps), float(sg), float(sgp)
        ph = -1j * e2pi(Fraction(1, 2 * M) * (k - j) * sg)
        c1, c2, c3, cz = (complex(c) for c in (Fraction(1, M), j + sgp / 2, k - sgp / 2,
                                               Fraction(1, 2 * M) * (j + k)))

        def closed(tau, z, policy):
            pref = ph * e2pi(tau * c1 * c2 * c3) * e2pi(cz * z)
            num = (th.dedekind_eta(M * tau, policy) ** 3
                   * th.jacobi_theta(1, 1, M * tau, z + (j + k) * tau, policy))
            d1 = th.jacobi_theta(1, 1, M * tau, (z + fs + fsp * tau) / 2 + j * tau + e, policy)
            d2 = th.jacobi_theta(1, 1, M * tau, (z - fs - fsp * tau) / 2 + k * tau - e, policy)
            return pref * num / (d1 * d2)
        return [(idx, _same, closed, None)]

    register(IdentitySpec(
        "rem4.13", "f-basis closed form at unit degree", "n3", 1e-9,
        [{"M": M, "eps": e, "sg": sg, "sgp": sgp} for M in (1, 3) for e in (Fraction(0), H)
         for (sg, sgp) in ((Fraction(0), H), (H, H))], f(rem413)))

    def rem414(n):
        out = []
        plus, minus = SECTORS["plus"], SECTORS["minus"]
        for eps in (Fraction(0), H):
            out += [(fidx(1, n, eps, plus, H, H), _same, fidx(1, n, H - eps, plus, 0, 0),
                     e2pi(n * (Fraction(eps) + Fraction(1, 4)))),
                    (fidx(1, n, eps, minus, H, H), _same,
                     fidx(1, n, eps, minus, 0, 0), e2pi(n * Fraction(eps)))]
        return out

    register(IdentitySpec("rem4.14", "f-basis reductions at modular scale one",
                          "n3", 1e-8, [{"n": 1}, {"n": 2}], f(rem414)))

    def eq5x(m2, which):
        # (sector, unit constant, theta labels of the z1 and z2 denominators,
        # b label of the (z1 + z2)/2 theta); the plus rows carry recorded unit
        # constants pinned by the collapsing-level identities
        sec, u, (a, b), b1 = {
            5: (SECTORS["minus"], 1j, (1, 1), 0),
            6: (SECTORS["minus"], -1j, (0, 1), 0),
            7: (SECTORS["plus"], (-1j) ** (m2 + 1) * 1j, (1, 0), 1),
            8: (SECTORS["plus"], (-1j) ** (m2 + 1) * 1j, (0, 0), 1),
            9: (SECTORS["plus_tw"], (1j) ** (m2 + 1) * 1j, (1, 0), 1),
            10: (SECTORS["plus_tw"], (-1j) ** (1 - m2) * -1j, (0, 0), 1),
        }[which]
        twisted = not sec.eps_prime.twice
        dotted = which % 2 == 0
        w = n3.N3Weight(dotted, Fraction(-3, 4), m2)
        c = m2 if dotted else 1 - m2

        def closed(tau, z1, z2, t, policy):
            pre = u * e2pi(-t / 4)
            s = tau if twisted else 0   # subtracting 0 leaves a complex as it is
            if twisted:
                pre = pre * e2pi(-tau / 16) * e2pi((z1 + z2) / 8)
            return th.eta_theta_quotient(
                2 * tau, pre, ((1, 3), (1, 1, z1 - z2, 1), (1 - m2, b1, (z1 + z2 - s) / 2, 1)),
                ((a, b, z1 - s / 2, 1), (a, b, z2 - s / 2, 1), (c, 0, (z1 - z2) / 2, 1)), policy)
        return [((n3.numerator, w, sec, False), _same, closed, None)]

    for which in (5, 6, 7, 8, 9, 10):
        register(IdentitySpec(
            f"eq5.{which:02d}", "collapsing-level numerator closed form", "n3",
            1e-9, [{"m2": 0, "which": which}, {"m2": 1, "which": which}],
            _laws(_call, _zs(0.04), eq5x)))

    # the index of a numerator family member is its integrable weight
    def eq35(m, m2):
        w = n3.N3Weight(False, Fraction(m), m2)
        return [(w, lambda tau, z1, z2, t: (tau, -z2 + tau, -z1 + tau, t - z1 - z2 + tau),
                 n3.N3Weight(True, w.m, w.n - m2), None)]

    register(IdentitySpec("eq3.5", "reflection pairing of the two numerator families",
                          "n3", 1e-9, [{"m": -1, "m2": m2} for m2 in (0, 1, 2)],
                          _laws(lambda w, tau, z1, z2, t, policy: n3.b_value(
                              w._b_data, tau, z1, z2, t, False, policy), _zs(0.03), eq35)))

    def p37(m, M, J, k1, k2, dotted, modified):
        w = n3.N3Weight(dotted, Fraction(m), 1, M, J, k1, k2)
        return [((n3.numerator_B, w, modified), _same,
                 (n3.admissible_numerator_psi, w, modified), None)]

    register(IdentitySpec(
        "prop3.7", "translated numerators vs wrapped assembly", "n3", 1e-9,
        [{"m": Fraction(-3, 4), "M": 3, "J": J, "k1": k1, "k2": k2,
          "dotted": d, "modified": mod}
         for (J, k1, k2) in (("I", 0, 1), ("III", 0, 1)) for d in (False, True)
         for mod in (False, True)], _laws(_call, _zs(0.03), p37)))

    def th411(m, M, J, k1, k2, dotted):
        w = n3.N3Weight(dotted, Fraction(m), 1, M, J, k1, k2)
        n_ = w.n
        if J == "I":
            jj = Fraction(k1 + (M if dotted else 0), 2)
            kk = -Fraction(k1 + 2 * k2 - (M if dotted else 0), 2)
        else:
            jj = Fraction(k1 + 2 * k2 - (M if dotted else 0), 2)
            kk = -Fraction(k1 + (M if dotted else 0), 2)
        # the exact scalars: the sign of admissible_numerator_psi, divided
        # in a plus sector by the constant its numerator applies
        sign = 0.5 if J == "I" else -0.5
        char_sign = sign / (1j * e2pi(-n3._lambda_theta(w) / 2))
        sgn = (-1.0) ** w.m2
        # the reduced numerator of each sector, and the f-functions in it
        return [((n3.numerator, w, sec.affine, True), lambda tau, z: (tau, z, -z, 0.0),
                 [(1.0, (n3.f_function, n3.FIndex.of(M, n_, 0, sec, jj, kk))),
                  (-sgn, (n3.f_function, n3.FIndex.of(M, n_, H, sec, jj, kk)))],
                 char_sign if sec.eps.twice else sign)
                for sec in _SECTORS.values()]

    register(IdentitySpec(
        "th4.11", "reduced numerators equal f-combinations up to scalars", "n3",
        1e-7, [{"m": Fraction(-3, 4), "M": 3, "J": "I", "k1": 0, "k2": 1, "dotted": False},
               {"m": Fraction(-3, 4), "M": 3, "J": "III", "k1": 0, "k2": 1, "dotted": True},
               {"m": Fraction(-1, 1), "M": 3, "J": "I", "k1": 1, "k2": 0, "dotted": False}],
        _laws(_call, lambda pt: (pt.z,), th411), grid=(4, 3)))

    def c1(dotted, m2, sector, s):
        if s is None:
            y = _zero
        else:
            idx = ThetaIndex.of(s, 1)
            y = lambda tau, z, policy: (th.theta_jm(idx, tau, z, 0, policy)
                                        / th.dedekind_eta(tau, policy))
        return [((n3.qhr_character, n3.N3Weight(dotted, Fraction(-3, 4), m2),
                  _SECTORS[sector], False), _same, y, None)]

    register(IdentitySpec(
        "n3.c1", "collapsing-level reduced characters equal degree-one theta quotients",
        "n3", 1e-8,
        [{"dotted": False, "m2": 0, "sector": "ns_minus", "s": 0},
         {"dotted": False, "m2": 0, "sector": "ns_plus", "s": 0},
         {"dotted": True, "m2": 1, "sector": "ns_minus", "s": 0},
         {"dotted": True, "m2": 1, "sector": "ns_plus", "s": 0},
         {"dotted": False, "m2": 1, "sector": "ramond", "s": 0},
         {"dotted": False, "m2": 1, "sector": "ns_minus", "s": 1},
         {"dotted": False, "m2": 1, "sector": "ns_plus", "s": 1},
         {"dotted": True, "m2": 0, "sector": "ns_minus", "s": 1},
         {"dotted": True, "m2": 0, "sector": "ns_plus", "s": 1},
         {"dotted": True, "m2": 1, "sector": "ramond", "s": 1},
         {"dotted": False, "m2": 0, "sector": "ramond", "s": None},
         {"dotted": True, "m2": 0, "sector": "ramond", "s": None}],
        _laws(_call, lambda pt: (pt.z,), c1), grid=(3, 2)))
