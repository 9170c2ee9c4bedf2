import hashlib
import json
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


def test_doubling_formal_exact():
    lhs = expand_phi(1, 0, 10, tau_scale=2).scale(GRat(F(2)))
    r1 = expand_phi(2, 0, 10, 1, ZArg.of(F(1, 2), 0), ZArg.of(0, F(1, 2)))
    r2 = expand_phi(2, 0, 10, 1, ZArg.of(F(1, 2), 0, F(1, 2)),
                    ZArg.of(0, F(1, 2), F(-1, 2)))
    eq, diff = series_equal(lhs, r1 + r2, zwindow=10)
    assert eq, diff


def test_antisymmetry_formal_exact():
    a = expand_phi(2, 1, 8)
    b = expand_phi(2, 1, 8, 1, ZArg.of(0, -1), ZArg.of(-1, 0))
    eq, diff = series_equal(a, b.scale(-GR_ONE), zwindow=8)
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
            geom = FormalSeries(None, order, zmax=48)
            # 1/(1 - zeta_i q^{-2j}) in the annulus regime
            dq = F(-2 * j)
            if dq >= 0:
                r = 0
                while True:
                    a2 = dq * r
                    if alpha + a2 > order or r > 24:
                        break
                    geom._add_term((a2, den_zeta[0] * r, den_zeta[1] * r), GR_ONE)
                    r += 1
            else:
                r = 1
                while True:
                    a2 = -dq * r
                    if alpha + a2 > order or r > 24:
                        break
                    geom._add_term((a2, -den_zeta[0] * r, -den_zeta[1] * r), -GR_ONE)
                    r += 1
                if dq < 0:
                    pass
            out = out + num * geom
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
    # eta^p against q^{p/24} prod (1 - q^n)^p multiplied out factor by factor
    order = F(10)
    for p in (1, 3, 8, 24):
        for scale in (1, 2):
            eta = expand_eta_quotient(p, order, scale)
            top = order + F(p * scale, 24)
            prod = FormalSeries({(F(p * scale, 24), 0, 0): GR_ONE}, top)
            for n in range(1, int(order // scale) + 1):
                fac = FormalSeries({(F(0), 0, 0): GR_ONE, (F(n * scale), 0, 0): -GR_ONE}, top)
                for _ in range(p):
                    prod = prod * fac
            assert eta.order == top and eta.zmax is None
            assert eta.terms == prod.terms, (p, scale)
    e24 = expand_eta_quotient(24, 10)
    low = {k[0]: v for k, v in e24.terms.items() if k[0] <= 3}
    assert low[F(1)].re == 1 and low[F(2)].re == -24 and low[F(3)].re == 252
    for p in (0, -1):
        with pytest.raises(ValueError):
            expand_eta_quotient(p, 10)


def test_unsupported_index_error():
    with pytest.raises(UnsupportedCaseError):
        expand_phi1(1, 0, 6, z1=ZArg.of(0, 0, F(1, 2)))


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
