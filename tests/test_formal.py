import copy
import hashlib
import itertools
import json
import math
import pickle
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mockforms.formal import (
    GR_ONE,
    FormalSeries,
    GRat,
    ZArg,
    expand_eta_quotient,
    expand_jacobi_theta,
    expand_phi,
    expand_phi1,
    expand_theta,
    series_equal,
)
from mockforms.mock import MockIndex
from mockforms.qkernel import TruncationPolicy, UnsupportedCaseError


def test_theta_expansion_examples():
    s = expand_theta(0, 1, 4)
    assert s.terms == {
        (F(0), 0, 0): GR_ONE,
        (F(1), 2, 0): GR_ONE, (F(1), -2, 0): GR_ONE,
        (F(4), 4, 0): GR_ONE, (F(4), -4, 0): GR_ONE,
    }
    s = expand_theta(1, 1, 4)
    assert set(s.terms) == {(F(1, 4), 1, 0), (F(1, 4), -1, 0),
                            (F(9, 4), 3, 0), (F(9, 4), -3, 0)}


def test_theta_index_periodicity_formal():
    d = expand_theta(1, 2, 8) - expand_theta(5, 2, 8)
    assert not d.terms


def test_series_reflexivity_and_difference_reporting():
    a = expand_theta(0, 2, 6)
    assert series_equal(a, a) == (True, None)
    b = a + FormalSeries({(F(2), 0, 0): GR_ONE}, 6)
    eq, diff = series_equal(a, b)
    assert not eq and diff[0] == (F(2), 0, 0)


def test_ring_laws():
    a = expand_theta(0, 1, 6)
    b = expand_theta(1, 1, 6)
    c = expand_jacobi_theta(0, 1, 6)
    lhs = (a + b) * c
    rhs = a * c + b * c
    assert series_equal(lhs, rhs)[0]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(-2, 2), st.integers(-3, 3)),
                min_size=1, max_size=5))
def test_scalar_distributivity(monos):
    a = FormalSeries({(F(q), b, 0): GRat(F(c)) for q, b, c in monos}, 8)
    two = GRat(F(2))
    assert series_equal(a + a, a.scale(two))[0]


def _doubling_proof():
    lhs = expand_phi(1, 0, 10, tau_scale=2).scale(GRat(F(2)))
    r1 = expand_phi(2, 0, 10, 1, ZArg.of(F(1, 2), 0), ZArg.of(0, F(1, 2)))
    r2 = expand_phi(2, 0, 10, 1, ZArg.of(F(1, 2), 0, F(1, 2)),
                    ZArg.of(0, F(1, 2), F(-1, 2)))
    return series_equal(lhs, r1 + r2, zwindow=10)


def _antisymmetry_proof():
    a = expand_phi(2, 1, 8)
    b = expand_phi(2, 1, 8, 1, ZArg.of(0, -1), ZArg.of(-1, 0))
    return series_equal(a, b.scale(-GR_ONE), zwindow=8)


def test_doubling_formal_exact():
    eq, diff = _doubling_proof()
    assert eq, diff


def test_antisymmetry_formal_exact():
    eq, diff = _antisymmetry_proof()
    assert eq, diff


def test_weyl_sum_matches_wrapped_series():
    # the translated Weyl-sum series for the spo(2|3) numerator at level
    # -3/4 equals the half-degree wrapped series, order q^5
    order = F(5)
    m2 = 0

    def weyl_f(swap):
        out = FormalSeries(None, order, zmax=48)
        for j in range(-6, 7):
            alpha = F(j * j - j * (m2 + 1))
            if alpha > order:
                continue
            zeta = (F(m2 + 1, 2) - F(j, 2), F(j, 2))
            if swap:
                zeta = (zeta[1], zeta[0])
            den_zeta = (0, 2) if swap else (2, 0)
            num = FormalSeries({(alpha, int(2 * zeta[0]), int(2 * zeta[1])): GR_ONE},
                               order, zmax=None)
            geom = {}
            # 1/(1 - zeta_i q^{-2j}) in the annulus regime
            dq = F(-2 * j)
            if dq >= 0:
                r = 0
                while True:
                    a2 = dq * r
                    if alpha + a2 > order or r > 24:
                        break
                    geom[(a2, den_zeta[0] * r, den_zeta[1] * r)] = GR_ONE
                    r += 1
            else:
                r = 1
                while True:
                    a2 = -dq * r
                    if alpha + a2 > order or r > 24:
                        break
                    geom[(a2, -den_zeta[0] * r, -den_zeta[1] * r)] = -GR_ONE
                    r += 1
                if dq < 0:
                    pass
            out = out + num * FormalSeries(geom, order, zmax=48)
        return out

    lhs = weyl_f(False) - weyl_f(True)
    rhs = expand_phi(F(1, 2), F(m2 + 1, 2), order, tau_scale=2,
                     z1=ZArg.of(1, 0), z2=ZArg.of(0, -1), zcap=24)
    eq, diff = series_equal(lhs, rhs, zwindow=8)
    assert eq, diff


def test_round_trip_numeric():
    tau = 2j
    z1, z2 = 0.21 + 0.45j, 0.37 + 0.41j
    s = expand_phi1(1, 0, 12, zcap=40)
    from mockforms.mock import phi1

    approx = s.eval_at(tau, z1, z2)
    exact = phi1(MockIndex.of(1, 0), tau, z1, z2, TruncationPolicy())
    assert abs(approx - exact) < 1e-12


def test_eta_power_two_routes():
    # eta^p against q^{p scale/24} prod (1 - q^{n scale})^p multiplied out
    # factor by factor, the product for p built on the one for p - 1
    # below order 0 the product's first factor cuts its constant 1, so both
    # routes are empty and eta's order is checked against top alone
    for order in (F(-1), F(-1, 3), F(0), F(1, 3), F(8), F(35, 4), F(12)):
        for scale in (F(1), F(2), F(1, 2), F(3, 2)):
            facs = [{(F(0), 0, 0): GR_ONE, (n * scale, 0, 0): -GR_ONE}
                    for n in range(1, int(order // scale) + 1)]
            prod = FormalSeries.constant(order=order)
            for p in range(1, 31):
                top = order + p * scale / 24
                prod = prod * FormalSeries({(scale / 24, 0, 0): GR_ONE}, top)
                for fac in facs:
                    prod = prod * FormalSeries(fac, top)
                eta = expand_eta_quotient(p, order, scale)
                assert prod.zmax is None and (order < 0 or prod.order == top)
                assert (eta.terms, eta.order, eta.zmax) == (prod.terms, top, None), (
                    p, order, scale)
    e24 = expand_eta_quotient(24, 10)
    low = {k[0]: v for k, v in e24.terms.items() if k[0] <= 3}
    assert low[F(1)].re == 1 and low[F(2)].re == -24 and low[F(3)].re == 252
    for p in (0, -1):
        with pytest.raises(ValueError):
            expand_eta_quotient(p, 10)
    for p in (2.5, F(3)):
        with pytest.raises(TypeError):
            expand_eta_quotient(p, 10)


def test_eta24_is_ramanujan_tau():
    # eta^24 = sum tau(n) q^n to q^100, checked by laws of tau that no table
    # of its values could satisfy by accident
    e24 = expand_eta_quotient(24, 99)
    assert e24.order == 100 and all(k[1:] == (0, 0) and c.im == 0 for k, c in e24.terms.items())
    tau = {int(k[0]): c.re for k, c in e24.terms.items()}
    assert set(tau) == set(range(1, 101)) and tau[1] == 1
    for n in range(1, 101):                         # Ramanujan's congruence
        assert (tau[n] - sum(d ** 11 for d in range(1, n + 1) if n % d == 0)) % 691 == 0, n
    for m in range(2, 51):                          # multiplicativity
        for n in range(m + 1, 100 // m + 1):
            if math.gcd(m, n) == 1:
                assert tau[m * n] == tau[m] * tau[n], (m, n)
    for p in (2, 3, 5, 7):                          # the Hecke relation at p^2
        assert tau[p * p] == tau[p] ** 2 - p ** 11, p


def _phi_by_definition(m, s, order, scale, z1, z2, zcap, sign):
    """Phi_1(u1, u2) - Phi_1(-u2, -u1), the assembly expand_phi sums at once."""
    nz1, nz2 = ZArg(-z2.a1, -z2.a2, -z2.c), ZArg(-z1.a1, -z1.a2, -z1.c)
    return (expand_phi1(m, s, order, scale, z1, z2, zcap, sign)
            - expand_phi1(m, s, order, scale, nz1, nz2, zcap, sign))


_HALF = F(1, 2)
_GEN = ZArg.of(_HALF, -1, F(1, 4))
# argument pairs (u1, u2): the standard pair, quarter and half offsets, general
# coefficients, reflected and swapped arguments, and half-integer zeta steps
_ZPAIRS = ((ZArg.of(1, 0), ZArg.of(0, 1)), (ZArg.of(1, 0, _HALF), ZArg.of(0, 1, F(1, 4))),
           (_GEN, ZArg.of(0, 1)), (ZArg.of(1, 0), _GEN), (_GEN, _GEN),
           (ZArg.of(1, 0), ZArg.of(0, _HALF)), (ZArg.of(-1, 0), ZArg.of(0, -1)),
           (ZArg.of(_HALF, 0), ZArg.of(0, _HALF)), (ZArg.of(0, 1), ZArg.of(1, 0)))


def test_phi_is_its_definition():
    # store for store, and an unsupported input raises as the first of the two
    # Phi_1 expansions that fails
    seen, raised = 0, set()
    for m, s, scale, zcap, sign, order, (z1, z2) in itertools.product(
            (_HALF, 1, F(3, 2), 2), (-F(3, 2), -1, -_HALF, 0, _HALF, 1, F(5, 2)),
            (1, 2, _HALF), (3, 8, 24), (1, -1), (8, F(35, 4)), _ZPAIRS):
        args = (m, s, order, scale, z1, z2, zcap, sign)
        try:
            want = _phi_by_definition(*args)
        except UnsupportedCaseError as exc:
            with pytest.raises(UnsupportedCaseError) as got:
                expand_phi(*args)
            assert str(got.value) == str(exc), args
            raised.add(str(exc))
            continue
        got = expand_phi(*args)
        assert (got._store, got._den, got._top, got.order, got.zmax) == (
            want._store, want._den, want._top, want.order, want.zmax), args
        seen += 1
    assert seen > 1000 and len(raised) >= 3


_UNITS = (GR_ONE, GRat(0, 1), -GR_ONE, GRat(0, -1))


def _phi1_walk(m, s, order, scale, z1, z2, zcap, sign):
    """Phi_1's terms (key, i^k) one by one in Fractions, in the engine's
    order: j walks out from 0 while q_j <= order, and each geometric run
    steps while it is inside order and the zeta window (a pure zeta run at
    most 2 zcap + 5 terms)."""
    m, s, order, scale = F(m), F(s), F(order), F(scale)
    js = [0] if order >= 0 else []
    for step in (1, -1):
        j = step
        while scale * (m * j * j + s * j) <= order:
            js.append(j)
            j += step
    for j in js:
        t1, t2 = m * j + s, m * j                   # e^{2 pi i (t1 u1 + t2 u2)}
        alpha = scale * (m * j * j + s * j)
        b1, b2 = 2 * (t1 * z1.a1 + t2 * z2.a1), 2 * (t1 * z1.a2 + t2 * z2.a2)
        k = 4 * (t1 * z1.c + t2 * z2.c) + (2 if sign < 0 and j % 2 else 0)
        dq, d1, d2, dk = scale * j, 2 * z1.a1, 2 * z1.a2, 4 * z1.c
        lead = 0
        if (dq, d1, d2) < (0, 0, 0):                # 1/(1-w) = -w^{-1}/(1-w^{-1})
            dq, d1, d2, dk = -dq, -d1, -d2, -dk
            alpha, b1, b2, k, lead = alpha + dq, b1 + d1, b2 + d2, k + dk + 2, d1
        r = 0
        while alpha <= order and max(abs(b1), abs(b2)) <= 2 * zcap + 2 * abs(lead) + 2:
            yield (alpha, int(b1), int(b2)), _UNITS[int(k) % 4]
            alpha, b1, b2, k, r = alpha + dq, b1 + d1, b2 + d2, k + dk, r + 1
            if dq == 0 and r > 2 * zcap + 4:
                break


def _termwise(terms):
    """(sum, cancelled, revived) of (key, GRat) terms taken one by one: the
    nonzero sums, the keys whose running sum reached 0, and the keys that
    took a further term after it did."""
    out, cancelled, revived = {}, set(), set()
    for key, c in terms:
        if key in cancelled:
            revived.add(key)
        out[key] = out.get(key, GRat(0)) + c
        if not out[key]:
            cancelled.add(key)
    return {key: c for key, c in out.items() if c}, cancelled, revived


def _phi1_reference(*args):
    return _termwise(_phi1_walk(*args))[0]


def test_phi1_matches_termwise_reference():
    seen = 0
    for m, s, scale, (zcap, sign), (z1, z2) in itertools.product(
            (_HALF, 1, F(3, 2)), (-F(3, 2), -_HALF, 0, _HALF, 1), (1, 2, _HALF),
            ((3, 1), (8, -1)), _ZPAIRS):
        args = (m, s, 8, scale, z1, z2, zcap, sign)
        try:
            got = expand_phi1(*args)
        except UnsupportedCaseError:
            continue
        assert got.terms == _phi1_reference(*args), args
        assert (got.order, got.zmax) == (8, 2 * zcap)
        seen += 1
    assert seen > 300


def _phi_walk(m, s, order, scale, z1, z2, zcap, sign):
    """Phi's terms in the engine's order: Phi_1(u1, u2), then minus Phi_1 at
    the swap-negated arguments (-u2, -u1)."""
    nz1, nz2 = ZArg(-z2.a1, -z2.a2, -z2.c), ZArg(-z1.a1, -z1.a2, -z1.c)
    yield from _phi1_walk(m, s, order, scale, z1, z2, zcap, sign)
    for key, c in _phi1_walk(m, s, order, scale, nz1, nz2, zcap, sign):
        yield key, -c


def test_phi_cancels_inside_its_accumulator():
    # with general half-integer arguments the two halves of Phi, and runs of
    # one half, meet on a key with opposite units: the store holds no zero
    # and equals the termwise sum
    rng = random.Random(27)

    def arg():
        return ZArg.of(_HALF * rng.randint(-3, 3), _HALF * rng.randint(-3, 3),
                       F(rng.randint(-4, 4), 4))

    seen = cancelled = 0
    while seen < 300:
        args = (_HALF * rng.randint(1, 4), _HALF * rng.randint(-4, 4), 6,
                rng.choice((1, 2, _HALF)), arg(), arg(), rng.choice((3, 8)), rng.choice((1, -1)))
        try:
            got = expand_phi(*args)
        except UnsupportedCaseError:
            continue
        want, gone, _ = _termwise(_phi_walk(*args))
        assert got.terms == want and (0, 0) not in got._store.values(), args
        seen, cancelled = seen + 1, cancelled + len(gone)
    assert cancelled > 300
    # a key that cancels and then takes a later term: once it cancels again,
    # once it ends nonzero
    for args, key, kept in (
            ((1, -1, 8, 1, ZArg.of(0, 1), ZArg.of(0, -1, _HALF), 3, 1), (F(0), 0, -2), False),
            ((2, -2, 6, _HALF, ZArg.of(0, _HALF, 1), ZArg.of(0, -1, 1), 2, 1), (F(0), 0, -2), True)):
        got = expand_phi(*args)
        want, _, revived = _termwise(_phi_walk(*args))
        assert key in revived and (key in want) is kept
        assert got.terms == want and (0, 0) not in got._store.values()


def _theta_walk(j, m, order, scale, z):
    """Theta_{j,m}'s terms (key, i^k) in Fractions, n = j/2m + k ascending."""
    j, m, order, scale = F(j), F(m), F(order), F(scale)
    kmax = math.isqrt(math.floor(order / (scale * m))) + 2
    for k in range(-kmax, kmax + 1):
        n = j / (2 * m) + k
        if scale * m * n * n <= order:
            t = m * n
            key = (scale * t * n, int(2 * t * z.a1), int(2 * t * z.a2))
            yield key, _UNITS[int(4 * t * z.c) % 4]


def test_theta_cancels_n_against_minus_n():
    # with u = c constant, n and -n share the key (scale m n^2, 0, 0), and
    # e^{2 pi i m n c} + e^{-2 pi i m n c} is 0 where 4 m n c is odd
    cancelled = 0
    for j, m, c, scale in itertools.product(
            (0, _HALF, 1, F(3, 2), 2), (_HALF, 1, F(3, 2), 2),
            (0, F(1, 4), _HALF, -_HALF, F(3, 4), 1), (1, 2, _HALF)):
        z = ZArg.of(0, 0, c)
        try:
            got = expand_theta(j, m, 12, scale, z)
        except UnsupportedCaseError:
            continue
        want, gone, _ = _termwise(_theta_walk(j, m, 12, scale, z))
        assert got.terms == want and (0, 0) not in got._store.values(), (j, m, c, scale)
        cancelled += len(gone)
    assert cancelled > 100


def test_expansion_stores_hold_no_zero():
    # every expansion the benchmark's op kinds make keeps its store free of
    # (0, 0), which series_equal's dict comparison relies on
    calls = list(_expansion_calls().values())
    for m, s, scale, (z1, z2) in itertools.product(
            (_HALF, 1, F(3, 2)), (-1, 0, _HALF), (1, _HALF), _ZPAIRS):
        calls += [lambda a=(m, s, 8, scale, z1, z2): expand_phi1(*a),
                  lambda a=(m, s, 8, scale, z1, z2): expand_phi(*a),
                  lambda a=(s + 1, m, 8, scale, z1): expand_theta(*a)]
    calls += [lambda a=a, b=b: expand_jacobi_theta(a, b, 8) for a in (0, 1) for b in (0, 1)]
    stored = 0
    for call in calls:
        try:
            s = call()
        except (ValueError, UnsupportedCaseError):
            continue
        assert (0, 0) not in s._store.values()
        stored += 1
    assert stored > 1500


def test_unsupported_index_error():
    # the messages name the failing piece
    for call, msg in (
            (lambda: expand_phi1(1, 0, 6, z1=ZArg.of(0, 0, F(1, 2))),
             "denominator is constant; index unsupported"),
            (lambda: expand_phi(F(3, 2), F(1, 2), 8, z1=ZArg.of(F(1, 2), -1, F(1, 4))),
             "zeta exponent 1/2*(1/2,-1) leaves (1/2)Z"),
            (lambda: expand_phi1(F(3, 2), 0, 8, z1=ZArg.of(F(1, 2), -1, F(1, 4))),
             "zeta exponent 3/2*(1/2,0) leaves (1/2)Z"),
            (lambda: expand_phi(F(3, 2), F(1, 2), 8, z1=ZArg.of(1, 0, F(1, 3))),
             "phase exponent 1/6 is not a quarter integer"),
            (lambda: expand_phi(1, F(1, 2), 8, z2=ZArg.of(0, F(1, 2))),
             "zeta exponent 1/2*(0,-1/2) leaves (1/2)Z"),
            # m j (u1 + u2) fails first at j = -1: q^{6/2} is past order 2
            (lambda: expand_phi1(F(1, 2), F(5, 2), 2, z2=ZArg.of(F(1, 2), 0)),
             "zeta exponent -1/2*(3/2,0) leaves (1/2)Z")):
        with pytest.raises(UnsupportedCaseError) as exc:
            call()
        assert str(exc.value) == msg
    expand_phi1(1, F(1, 2), 8, z2=ZArg.of(0, F(1, 2)))       # only Phi's second half fails
    # below order 0 no j is reached, so neither failing piece is formed
    assert not expand_phi1(F(1, 2), F(5, 2), -5, z2=ZArg.of(F(1, 2), 0)).terms
    assert not expand_phi1(1, 0, -1, z1=ZArg.of(0, 0, F(1, 2))).terms


def test_phi1_zeta_runs():
    # the j = 0 run zeta_1^{(s + r)/2}, r >= 0, ends at the zeta window
    # 2 zcap + 2 or after 2 zcap + 5 terms, whichever comes first
    half_z1 = ZArg.of(F(1, 2), 0)
    for s, b1s in ((0, range(0, 9)), (-3, range(-3, 8))):
        got = expand_phi1(4, s, 0, 1, half_z1, ZArg.of(0, 1), zcap=3)
        assert got.terms == {(F(0), b1, 0): GR_ONE for b1 in b1s}, s


GOLDEN = Path(__file__).parent / "golden" / "formal_expansions.json"


def _fingerprint(call):
    """sha256 of (order, zmax, sorted terms as strings), or the name of the
    error the call raises."""
    try:
        s = call()
    except (ValueError, UnsupportedCaseError) as exc:
        return type(exc).__name__
    terms = sorted(f"{a} {b1} {b2} {c}" for (a, b1, b2), c in s.terms.items())
    text = f"{s.order}|{s.zmax}|" + ";".join(terms)
    return hashlib.sha256(text.encode()).hexdigest()


def _expansion_calls():
    """Labelled calls of Theta, Phi_1, Phi and eta^p over small exact inputs."""
    half = F(1, 2)
    calls = {}
    zs = {"z1": ZArg.of(1, 0), "hz": ZArg.of(half, 0, F(1, 4)),
          "dz": ZArg.of(1, -1, half)}
    for j in (0, half, 1, 2, 3, 4):
        for m in (half, 1, 2, 3, 4):
            for order in (0, F(1, 3), 8, 12):
                for scale in (1, 2):
                    for zn, z in zs.items():
                        calls[f"theta j={j} m={m} order={order} scale={scale} {zn}"] = (
                            lambda j=j, m=m, o=order, sc=scale, z=z:
                                expand_theta(j, m, o, sc, z))
    for m2 in range(1, 7):
        for s2 in range(-m2, m2 + 1):
            for order in (8, 12):
                for scale in (1, 2):
                    for off in (0, half):
                        z1, z2 = ZArg.of(1, 0, off), ZArg.of(0, 1, off)
                        args = (F(m2, 2), F(s2, 2), order, scale, z1, z2)
                        tail = f"m={F(m2, 2)} s={F(s2, 2)} order={order} scale={scale} off={off}"
                        calls[f"phi1 {tail}"] = lambda a=args: expand_phi1(*a)
                        calls[f"phi {tail}"] = lambda a=args: expand_phi(*a)
    for p in (*range(1, 9), 24):
        for order in (8, F(35, 4), 12):
            for scale in (1, 2):
                calls[f"eta p={p} order={order} scale={scale}"] = (
                    lambda p=p, o=order, sc=scale: expand_eta_quotient(p, o, sc))
    return calls


def test_expansions_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = {label: _fingerprint(call) for label, call in _expansion_calls().items()}
    assert set(got) == set(want)
    bad = sorted(label for label in want if got[label] != want[label])
    assert not bad, bad[:10]


def test_inexact_inputs_are_refused():
    # a float exponent used to give keys such as 0.30000000000000004 when
    # squared, and a float coefficient part multiplied as a float
    with pytest.raises(TypeError, match="q-exponent"):
        FormalSeries({(0.1, 0, 0): GR_ONE, (0.2, 0, 0): GR_ONE}, 1)
    with pytest.raises(TypeError, match="zeta exponents"):
        FormalSeries({(F(1), 1.0, 0): GR_ONE}, 4)
    for c in (GRat(0.5), GRat(0, 0.5), GRat(F(1), 1.5), 1):
        with pytest.raises(TypeError, match="coefficient"):
            FormalSeries({(F(1), 0, 0): c}, 4)
    with pytest.raises(TypeError, match="coefficient"):
        FormalSeries.constant(GRat(0.5))
    with pytest.raises(TypeError, match="coefficient"):
        expand_theta(0, 1, 4).scale(GRat(0.5))
    ok = FormalSeries({(1, 2, -2): GRat(3, F(1, 2)), (F(1, 3), 0, 0): GR_ONE}, 4)
    assert len((ok * ok).terms) == 3
    # a float order or tau_scale used to enter through its binary value, so
    # order 0.3 dropped a q^{3/10} term and expand_theta's order read
    # 5404319552844595/18014398509481984
    for bad in (0.3, float("nan"), float("inf")):
        with pytest.raises(TypeError, match="order"):
            FormalSeries({(F(3, 10), 0, 0): GR_ONE}, bad)
        for what, call in (
                ("order", lambda: expand_theta(0, 1, bad)),
                ("tau_scale", lambda: expand_theta(0, 1, 4, bad)),
                ("order", lambda: expand_phi1(1, 0, bad)),
                ("tau_scale", lambda: expand_phi1(1, 0, 4, bad)),
                ("order", lambda: expand_phi(1, 0, bad)),
                ("tau_scale", lambda: expand_phi(1, 0, 4, bad)),
                ("order", lambda: expand_eta_quotient(3, bad)),
                ("tau_scale", lambda: expand_eta_quotient(3, 4, bad)),
                ("order", lambda: expand_jacobi_theta(0, 1, bad)),
                ("tau_scale", lambda: expand_jacobi_theta(0, 1, 4, bad))):
            with pytest.raises(TypeError, match=what):
                call()
    # a tau_scale <= 0 has no q-expansion: Phi_1 and Phi used to walk j forever,
    # Theta and eta to divide by zero or return negative q-powers
    for bad in (0, -1, F(-1, 2)):
        for call in (lambda: expand_theta(0, 1, 4, bad), lambda: expand_phi1(1, 0, 4, bad),
                     lambda: expand_phi(1, 0, 4, bad), lambda: expand_eta_quotient(3, 4, bad),
                     lambda: expand_jacobi_theta(0, 1, 4, bad)):
            with pytest.raises(ValueError, match="tau_scale"):
                call()
    assert FormalSeries({(F(3, 10), 0, 0): GR_ONE}, F(3, 10)).terms == {(F(3, 10), 0, 0): GR_ONE}
    assert expand_theta(0, 1, F(3, 10)).order == F(3, 10)


def test_expansions_have_int_coefficients():
    # exact integers throughout; a Fraction part appears only where d0's
    # half-integer weights make one
    for s in (expand_theta(1, F(3, 2), 8, 2, ZArg.of(1, 0, F(1, 2))),
              expand_phi1(F(3, 2), F(1, 2), 8), expand_phi(2, 1, 8, sign=-1),
              expand_eta_quotient(5, 8), expand_jacobi_theta(1, 1, 8),
              expand_jacobi_theta(0, 1, 8)):
        assert s.terms
        assert all(type(c.re) is int and type(c.im) is int for c in s.terms.values())
        assert all(type(k[0]) is F for k in s.terms)
    units = {(c.re, c.im) for c in expand_jacobi_theta(1, 1, 8).terms.values()}
    assert units == {(0, 1), (0, -1)}
    d = FormalSeries({(F(1), 3, 0): GR_ONE, (F(2), 2, 0): GR_ONE}, 4).d0()
    assert d.terms == {(F(1), 3, 0): GRat(F(3, 2)), (F(2), 2, 0): GR_ONE}
    assert type(d.terms[(F(2), 2, 0)].re) is int


def _fraction_calls(monkeypatch, method, call) -> int:
    """Calls of Fraction.<method> made by call(), counted by wrapping it
    (restored on return)."""
    count = 0
    wrapped = getattr(F, method)

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return wrapped(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(F, method, counting)
        call()
    return count


def test_exact_work_ceilings(monkeypatch):
    # Fractions are formed where a value enters or leaves a series, not per
    # coefficient operation.  Measured: eta^24 to q^12 made 9,798 with
    # Fraction exponents and coefficients, 408 on integer loops over
    # Fraction-keyed series, 26 on integer-keyed series raised by squaring and
    # 5 by the power recurrence; the tau-doubled Phi to q^10 made 1,472, 32,
    # 16 as two Phi_1 series and a difference, 14 in one accumulator and 2
    # with its zeta arguments read as int ratios.  With an int tau_scale read
    # as it is and Theta's k-bound formed in ints: eta^24 5 -> 3, Phi 2 -> 1,
    # the tau-doubled Theta_{1,3/2} 6 -> 2, and the two proofs 25 -> 22 and
    # 10 -> 8, all but three and two of them their own ZArg and GRat arguments.
    def made(call):
        return _fraction_calls(monkeypatch, "__new__", call)

    assert made(lambda: expand_eta_quotient(24, 12)) <= 3
    assert made(lambda: expand_phi(1, 0, 10, tau_scale=2)) <= 1
    assert made(lambda: expand_theta(1, F(3, 2), 8, 2)) <= 2
    assert made(_doubling_proof) <= 22
    assert made(_antisymmetry_proof) <= 8


def test_series_arithmetic_hashes_no_fraction(monkeypatch):
    # series are keyed on integer q-numerators: the arithmetic and the proofs
    # hash no Fraction (on Fraction keys the antisymmetry proof hashed 722
    # and the doubling proof 1,951); only the `terms` view does
    def hashes(call):
        return _fraction_calls(monkeypatch, "__hash__", call)

    a = expand_phi(2, 1, 8)
    b = expand_phi(2, 1, 8, 1, ZArg.of(0, -1), ZArg.of(-1, 0))
    c = expand_theta(1, F(3, 2), 8, 2)
    for call in (lambda: a + b, lambda: a * b, lambda: a + c, lambda: a * c,
                 lambda: series_equal(a, b), lambda: series_equal(a, c, zwindow=4),
                 _antisymmetry_proof, _doubling_proof):
        assert hashes(call) == 0
    assert hashes(lambda: c.terms) > 0


def test_terms_view_writes_through():
    # `terms` is a view of the int store; an edit through it re-forms the
    # series, so the arithmetic never reads stale terms
    s = expand_theta(1, 1, 6)
    orig = FormalSeries(dict(s.terms), s.order, s.zmax)
    t = s.terms
    k = next(iter(t))
    t[k] = t[k] + t[k]
    assert s.terms is t and t[k] == GRat(2)
    assert (s - orig).terms == {k: GR_ONE}
    del t[k]
    assert k not in s.terms and (orig - s).terms == {k: GR_ONE}
    # as in FormalSeries(...): a zero or a term past order is dropped, a new
    # exponent denominator is aligned, a bad term raises and changes nothing
    t[(F(1), 0, 0)] = GRat(0)
    t[(F(7), 0, 0)] = GR_ONE
    assert (F(1), 0, 0) not in t and (F(7), 0, 0) not in t
    t[(F(1, 7), 0, 0)] = GR_ONE
    assert (s - orig).terms == {k: -GR_ONE, (F(1, 7), 0, 0): GR_ONE}
    before = dict(t)
    with pytest.raises(TypeError, match="q-exponent"):
        t[(0.5, 0, 0)] = GR_ONE
    with pytest.raises(TypeError):
        t.update({(F(2), 0, 0): GR_ONE})
    for edit in (t.clear, t.popitem, lambda: t.pop(k), lambda: t.setdefault(k, GR_ONE)):
        with pytest.raises(TypeError):
            edit()
    with pytest.raises(TypeError):
        t |= {(F(2), 0, 0): GR_ONE}
    assert s.terms == before and series_equal(s, FormalSeries(before, s.order, s.zmax))[0]
    s.terms = dict(orig.terms)
    assert series_equal(s, orig) == (True, None) and s.terms == orig.terms
    # a copy of the series has its own view; a copy of the view is a dict
    for c in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        c.terms[k] = GRat(5)
        assert s.terms[k] == GR_ONE and series_equal(s, orig)[0]
        assert not series_equal(c, s)[0]
    for c in (copy.copy(s.terms), copy.deepcopy(s.terms)):
        assert type(c) is dict and c == s.terms
        c[k] = GRat(5)
        assert s.terms[k] == GR_ONE
    # a view that outlives its series is a dict of its own
    lone = expand_theta(1, 1, 6).terms
    other = next(x for x in lone if x != k)
    lone[k] = GRat(5)
    del lone[other]
    want = {**orig.terms, k: GRat(5)}
    del want[other]
    assert lone == want
    # a wrong output built the way perfbench/selftest.py builds one
    bad = copy.copy(s)
    bad.terms = dict(s.terms)
    bad.terms[k] = bad.terms[k] + bad.terms[k]
    assert bad.terms[k] == GRat(2) and s.terms[k] == GR_ONE
    assert series_equal(bad, s)[1] == (k, GRat(2), GR_ONE)


# The series arithmetic with every exponent and coefficient part a Fraction,
# term by term through _add_term: the engine's multiplication before its
# integer loops, kept as the reference for the property test below.

class _RefSeries:
    def __init__(self, terms, order, zmax):
        self.terms = {}
        self.order = F(order)
        self.zmax = zmax
        for (a, b1, b2), c in terms.items():
            if c and a <= self.order:
                self.terms[(F(a), b1, b2)] = GRat(F(c.re), F(c.im))

    def zspan(self):
        return max((max(abs(b1), abs(b2)) for (_, b1, b2) in self.terms), default=0)

    def _add_term(self, key, c):
        if not c:
            return
        cur = self.terms.get(key)
        new = cur + c if cur is not None else c
        if new:
            self.terms[key] = new
        elif cur is not None:
            del self.terms[key]

    def __add__(self, other):
        order = min(self.order, other.order)
        out = _RefSeries({}, order, _ref_zmin(self.zmax, other.zmax))
        for k, c in self.terms.items():
            if k[0] <= order:
                out._add_term(k, c)
        for k, c in other.terms.items():
            if k[0] <= order:
                out._add_term(k, c)
        return out

    def __neg__(self):
        out = _RefSeries({}, self.order, self.zmax)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        out = _RefSeries({}, self.order, self.zmax)
        if c:
            out.terms = {k: v * c for k, v in self.terms.items()}
        return out

    def __mul__(self, other):
        min_q_self = min((k[0] for k in self.terms), default=F(0))
        min_q_other = min((k[0] for k in other.terms), default=F(0))
        order = min(self.order + min_q_other, other.order + min_q_self)
        cands = []
        if self.zmax is not None:
            cands.append(self.zmax - other.zspan())
        if other.zmax is not None:
            cands.append(other.zmax - self.zspan())
        out = _RefSeries({}, order, min(cands) if cands else None)
        for (a1, b1, c1), x in self.terms.items():
            for (a2, b2, c2), y in other.terms.items():
                a = a1 + a2
                if a <= order:
                    out._add_term((a, b1 + b2, c1 + c2), x * y)
        return out

    def d0(self):
        out = _RefSeries({}, self.order, self.zmax)
        for (a, b1, b2), c in self.terms.items():
            w = F(b1 - b2, 2)
            if w:
                out.terms[(a, b1, b2)] = c * GRat(w, F(0))
        return out


def _ref_zmin(a, b):
    return b if a is None else a if b is None else min(a, b)


def _ref_series_equal(a, b, zwindow=None):
    order = min(a.order, b.order)
    zmax = _ref_zmin(a.zmax, b.zmax)
    if zwindow is not None:
        zmax = _ref_zmin(zmax, 2 * zwindow)
    zero = GRat(F(0), F(0))
    diffs = []
    for k in set(a.terms) | set(b.terms):
        alpha, b1, b2 = k
        if alpha > order or (zmax is not None and max(abs(b1), abs(b2)) > zmax):
            continue
        ca, cb = a.terms.get(k, zero), b.terms.get(k, zero)
        if ca.re != cb.re or ca.im != cb.im:
            diffs.append((k, ca, cb))
    if not diffs:
        return True, None
    diffs.sort(key=lambda d: d[0])
    return False, diffs[0]


_BASE = {(F(0), 0, 0): GR_ONE, (F(1), 2, -2): GRat(2, F(-1, 3)), (F(3), -4, 0): GRat(0, 1)}


def test_series_equal_cases():
    # (x, y, zwindow) as FormalSeries arguments (terms, order, zmax); each
    # pair is compared by the engine and by the reference, and a first
    # difference must print the same
    def with_(**extra):
        return {**_BASE, **{k: GRat(*c) for k, c in extra.get("terms", {}).items()}}

    cases = [
        # equal, and differing only outside the zeta window: of zwindow, of
        # one series' zmax; with zwindow=None and no zmax the difference shows
        ((_BASE, 8, None), (_BASE, 8, None), None, True),
        ((_BASE, 8, None), (with_(terms={(F(1), 6, 0): (1,)}), 8, None), 2, True),
        ((_BASE, 8, None), (with_(terms={(F(1), 0, -6): (1,)}), 8, None), 2, True),
        ((_BASE, 8, 4), (with_(terms={(F(2), -5, 0): (1,)}), 8, None), None, True),
        ((_BASE, 8, None), (with_(terms={(F(2), -5, 0): (1,)}), 8, None), None, False),
        ((_BASE, 8, None), (with_(terms={(F(0), 40, -40): (0, 1)}), 8, None), None, False),
        ((_BASE, 8, 6), (with_(terms={(F(1), 6, 0): (1,)}), 8, 8), 3, False),
        # differing only past the common order, and at it
        ((_BASE, 4, None), (with_(terms={(F(5), 0, 0): (1,)}), 8, None), None, True),
        ((_BASE, 5, None), (with_(terms={(F(5), 0, 0): (1,)}), 8, None), None, False),
        # operands over different dens, aligned before the comparison
        ((_BASE, 4, None), (with_(terms={(F(13, 3), 0, 0): (1,)}), F(13, 3), None), None, True),
        ((_BASE, 4, None), (with_(terms={(F(1, 3), 0, 0): (F(1, 2),)}), 4, None), None, False),
        ((with_(terms={(F(1, 2), 1, 0): (1,)}), 4, None),
         (with_(terms={(F(1, 3), 0, 0): (1,)}), 4, None), None, False),
        ((with_(terms={(F(3, 8), 2, 0): (1,)}), F(7, 2), None),
         (with_(terms={(F(3, 8), 2, 0): (1, 1)}), F(10, 3), None), 1, False),
        # several differences: the least key is reported, a coefficient
        # against another or against a missing term (0+0i)
        ((_BASE, 8, None), ({**_BASE, (F(1), 2, -2): GRat(F(1, 2), 3), (F(2), 0, 0): GR_ONE,
                              (F(1), 4, 0): -GR_ONE}, 8, None), None, False),
        ((_BASE, 8, None), ({k: c for k, c in _BASE.items() if k[0]}, 8, None), 3, False),
    ]
    for x_args, y_args, zwindow, equal in cases:
        got = series_equal(FormalSeries(*x_args), FormalSeries(*y_args), zwindow)
        want = _ref_series_equal(_RefSeries(*x_args), _RefSeries(*y_args), zwindow)
        assert got == want and got[0] is equal, (x_args, y_args, zwindow)
        if not equal:
            assert [str(c) for c in got[1][1:]] == [str(c) for c in want[1][1:]]
            assert type(got[1][0][0]) is F


def _same_series(got, ref):
    assert (0, 0) not in got._store.values()        # series_equal relies on it
    assert got.order == ref.order and str(got.order) == str(ref.order)
    assert all(type(k[0]) is F for k in got.terms)
    assert got.zmax == ref.zmax
    assert sorted(map(repr, got.terms)) == sorted(map(repr, ref.terms))
    assert got.terms == ref.terms
    assert {k: str(c) for k, c in got.terms.items()} == {k: str(c) for k, c in ref.terms.items()}


_DENS = (1, 2, 3, 8, 24)
_part = st.one_of(st.integers(-3, 3),
                  st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4))))
_coefficient = st.builds(GRat, _part, _part)
_series_args = st.tuples(
    st.dictionaries(st.tuples(st.builds(F, st.integers(-8, 40), st.sampled_from(_DENS)),
                              st.integers(-4, 4), st.integers(-4, 4)),
                    _coefficient, max_size=8),
    st.builds(F, st.integers(0, 40), st.sampled_from(_DENS)),
    st.one_of(st.none(), st.integers(0, 8)))


@settings(max_examples=100, deadline=None)
@given(_series_args, _series_args, _coefficient, st.one_of(st.none(), st.integers(0, 4)))
def test_arithmetic_matches_fraction_reference(a_args, b_args, c, zwindow):
    a, b = FormalSeries(*a_args), FormalSeries(*b_args)
    ra, rb = _RefSeries(*a_args), _RefSeries(*b_args)
    _same_series(a * b, ra * rb)
    _same_series(a * b * a, ra * rb * ra)
    _same_series(a + b, ra + rb)
    _same_series(a - b, ra - rb)
    _same_series(a.scale(c), ra.scale(c))
    _same_series(a.d0(), ra.d0())
    _same_series((a * b).d0(), (ra * rb).d0())
    # mixed denominators in one chain: every step aligns its operands' stores
    _same_series((a + b) * a - b.scale(c), (ra + rb) * ra - rb.scale(c))
    # the terms view is a boundary: a series rebuilt from it is the same series
    for s in (a, b, a * b, a - b, a.scale(c), a.d0()):
        _same_series(FormalSeries(s.terms, s.order, s.zmax), s)
    for x, y, rx, ry in ((a, b, ra, rb), (a * b, b * a, ra * rb, rb * ra),
                         (a + b, b + a, ra + rb, rb + ra)):
        got, want = series_equal(x, y, zwindow), _ref_series_equal(rx, ry, zwindow)
        assert got == want
        if got[1] is not None:
            assert [str(c) for c in got[1][1:]] == [str(c) for c in want[1][1:]]
