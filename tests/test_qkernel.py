import math
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import mockforms.qkernel as qkernel
from mockforms.qkernel import (
    DEFAULT_POLICY,
    DomainError,
    EvalPoint,
    HalfInt,
    PoleProximityError,
    TruncationOverflowError,
    TruncationPolicy,
    _index_range,
    guard_pole,
    lattice_distance,
    nome,
)
from mockforms.family_d21a import D21Index, D21Params, PQ_function
from mockforms.mock import MockIndex, PsiIndex, phi1, psi
from mockforms.modification import phi_tilde_reduced, psi_tilde, r_window
from mockforms.theta import ThetaIndex, dedekind_eta, theta_jm

NAN, INF = float("nan"), float("inf")
PSI_INDEX = PsiIndex.of(3, 2, 0, 0, 1, -1)
PQ_INDEX = D21Index.of("P", 1, D21Params(2, 1, 1))
BAD_TAU = (-1j, 0j, complex(NAN, 1.0), complex(-INF, 1.0), complex(0.0, INF),
           complex(0.0, NAN))
BAD_Z = (complex(NAN, 0.1), complex(0.2, INF), NAN)


def test_nome():
    assert abs(nome(1j) - math.exp(-2 * math.pi)) < 1e-16
    assert abs(abs(nome(1j + 1)) - abs(nome(1j))) < 1e-16
    assert abs(nome(0.5 + 2j)) < 1.0
    for tau in BAD_TAU:
        for fn in (nome, dedekind_eta):
            with pytest.raises(DomainError):
                fn(tau)


# Every kernel that checks its point, given a bad tau or a bad z.  A NaN
# must fail at once instead of summing n_max terms of NaN.
POINT_KERNELS = {
    "theta_jm": lambda tau, z: theta_jm(ThetaIndex.of(1, 2), tau, z),
    "phi1_z1": lambda tau, z: phi1(MockIndex.of(1, 0), tau, z, 0.1),
    "phi1_z2": lambda tau, z: phi1(MockIndex.of(1, 0), tau, 0.1, z),
    "r_correction": lambda tau, z: r_window(0.0, 1.0, tau, z, DEFAULT_POLICY, buckets=(0,)),
    "psi_tilde": lambda tau, z: psi_tilde(PSI_INDEX, tau, z, 0.2),
    "phi_tilde_reduced": lambda tau, z: phi_tilde_reduced(MockIndex.of(2, 1), tau, z, 0.1),
    "PQ_function": lambda tau, z: PQ_function(PQ_INDEX, tau, z, 0.2, 0.3),
    "lattice_distance": lambda tau, z: lattice_distance(z, tau),
    "EvalPoint": lambda tau, z: EvalPoint(tau, (z,)),
}


@pytest.mark.parametrize("name", sorted(POINT_KERNELS))
def test_kernels_reject_bad_points(name):
    kernel = POINT_KERNELS[name]
    for tau in BAD_TAU:
        with pytest.raises(DomainError):
            kernel(tau, 0.3)
    for z in BAD_Z:
        with pytest.raises(DomainError):
            kernel(0.1 + 1j, z)


# Im z / Im tau past the double range: no index to sum from, and no untyped
# OverflowError from round(inf).  Below Im tau = pole_guard / n_max the pole
# guard of phi1 refuses first.
OVERFLOW_Z = {
    "theta_jm": (lambda: theta_jm(ThetaIndex.of(1, 2), 1e-300j, 1e200j), DomainError),
    "theta_jm_tiny_im_tau": (lambda: theta_jm(ThetaIndex.of(1, 2), 0.5 + 1e-12j, -1e300j),
                             DomainError),
    "r_correction": (lambda: r_window(0.0, 1.0, 0.5 + 1e-12j, -1e300j, DEFAULT_POLICY,
                                      buckets=(0,)), DomainError),
    "phi1_z2": (lambda: phi1(MockIndex.of(1, 0), 0.5 + 1e-3j, 0.1, -1e306j), DomainError),
    "phi1_z1": (lambda: phi1(MockIndex.of(1, 0), 0.5 + 1e-3j, -1e306j, 0.1), DomainError),
    "phi1_tiny_im_tau": (lambda: phi1(MockIndex.of(1, 0), 0.5 + 1e-12j, 0.1, -1e300j),
                         TruncationOverflowError),
    "lattice_distance": (lambda: lattice_distance(-1e300j, 0.5 + 1e-12j), DomainError),
    # the prefactor of the wrapper, past the double range
    "psi": (lambda: psi(PSI_INDEX, 1j, 0.1 + 1e17j, 0.2), DomainError),
    "psi_tilde": (lambda: psi_tilde(PSI_INDEX, 1j, 0.1 + 1e17j, 0.2), DomainError),
    # a lattice coordinate 2^52 or more: no multiple of tau to pull out
    "phi_tilde_reduced_z1": (lambda: phi_tilde_reduced(MockIndex.of(2, 1), 1j, 0.1 + 1e300j, 0.2),
                             DomainError),
    "phi_tilde_reduced_z2": (lambda: phi_tilde_reduced(MockIndex.of(2, 1), 1j, 0.2,
                                                       0.1 + 2.0 ** 52 * 1j), DomainError),
    "phi_tilde_reduced_tiny_im_tau": (lambda: phi_tilde_reduced(
        MockIndex.of(2, 1), 0.5 + 1e-12j, 0.1 + 1e-300j, 0.2 - 1e300j), DomainError),
    "PQ_function": (lambda: PQ_function(PQ_INDEX, 1j, 0.1 + 1e300j, 0.2, 0.3), DomainError),
}


@pytest.mark.parametrize("name", sorted(OVERFLOW_Z))
def test_overflow_sized_im_z_is_a_typed_error(name):
    call, error = OVERFLOW_Z[name]
    with pytest.raises(error):
        call()


def test_lattice_distance_basics():
    assert lattice_distance(0.0, 2j) == 0.0
    assert abs(lattice_distance(0.5, 2j) - 0.5) < 1e-15


def brute_lattice_distance(z, tau):
    """Scan of all 49 points a + b tau with a, b within 3 of the rounded
    (1, tau)-coordinates of z."""
    y = z.imag / tau.imag
    a0, b0 = round(z.real - y * tau.real), round(y)
    return min(abs(z - (a + b * tau))
               for a in range(a0 - 3, a0 + 4) for b in range(b0 - 3, b0 + 4))


@settings(max_examples=300, deadline=None)
@given(st.complex_numbers(max_magnitude=8.0),
       st.builds(complex, st.floats(min_value=-1.0, max_value=1.0),
                 st.floats(min_value=0.05, max_value=3.0)))
@example(0.3 + 0.4j, 1j)
# a near tie between two columns of one lattice row, where the nearest
# integer to the row coordinate is not the column of least rounded distance
@example(2.1078654681392455 + 3.1155141280833707j, 0.9439807811627494 + 0.45805281094743944j)
def test_lattice_distance_brute_force(z, tau):
    assert lattice_distance(z, tau) == brute_lattice_distance(z, tau)


@settings(max_examples=60, deadline=None)
@given(st.integers(-2, 2), st.integers(-2, 2))
def test_lattice_distance_invariance(a, b):
    tau = 0.3 + 0.9j
    z = 0.21 + 0.13j
    d0 = lattice_distance(z, tau)
    d1 = lattice_distance(z + a + b * tau, tau)
    assert abs(d0 - d1) < 1e-12


def test_pole_guard_beyond_seven_rows():
    # 5 tau - 1 is 5e-4 from z, five rows away: outside the 7 rows of
    # lattice_distance, inside the pole guard
    tau, z = 0.2003 + 1e-4j, 1.0015
    assert lattice_distance(z, tau) > DEFAULT_POLICY.pole_guard
    with pytest.raises(PoleProximityError):
        guard_pole(z, tau, DEFAULT_POLICY)
    with pytest.raises(PoleProximityError):
        phi1(MockIndex.of(1, 0), tau, z, 0.1)
    # tau is 3.6e-4 from z, but ten columns off in the (1, tau) coordinates
    # of z when Re tau = 10
    with pytest.raises(PoleProximityError):
        guard_pole(10 + 9.6e-4j, 10 + 6e-4j, DEFAULT_POLICY)
    # a scan that needs more than n_max rows raises instead of running
    with pytest.raises(TruncationOverflowError):
        guard_pole(0.3, 1e-300j, DEFAULT_POLICY)


def exact_lattice_distance(z, tau, reach):
    """Distance from z to the lattice points of every row within reach of
    z, taking the nearest columns of each row."""
    y = z.imag / tau.imag
    rows = range(math.floor(y - reach), math.ceil(y + reach) + 1)
    return min(abs(z - (a + b * tau)) for b in rows
               for a in range(math.floor((z - b * tau).real) - 1,
                              math.floor((z - b * tau).real) + 3))


@settings(max_examples=200, deadline=None)
@given(st.complex_numbers(max_magnitude=2.0),
       st.builds(complex, st.floats(min_value=-20.0, max_value=20.0),
                 st.floats(min_value=2e-5, max_value=0.01)))
def test_pole_guard_matches_exact_distance(z, tau):
    guard = DEFAULT_POLICY.pole_guard
    d = exact_lattice_distance(z, tau, guard / tau.imag + 1)
    if d < guard * (1 - 1e-9):
        with pytest.raises(PoleProximityError):
            guard_pole(z, tau, DEFAULT_POLICY)
    elif d > guard * (1 + 1e-9):
        guard_pole(z, tau, DEFAULT_POLICY)


def reference_guard_message(z, tau, policy):
    """The full-window pole scan that guard_pole narrows to a row band: all
    rows within max(3, ceil(pole_guard / Im tau) + 1) of z, each at the two
    columns around (z - b tau).real.  Returns the error message, or None."""
    z, tau = complex(z), complex(tau)
    tau = tau - round(tau.real)
    w = max(3, math.ceil(policy.pole_guard / tau.imag) + 1)
    y = z.imag / tau.imag
    a0, b0 = round(z.real - y * tau.real), round(y)
    d = math.inf
    for b in range(b0 - w, b0 + w + 1):
        bt = b * tau
        a = min(max(math.floor((z - bt).real), a0 - w), a0 + w - 1)
        d = min(d, abs(z - (a + bt)), abs(z - (a + 1 + bt)))
    if d < policy.pole_guard:
        return (f"z = {z:.6g} is within {d:.3g} of the period lattice "
                f"(guard {policy.pole_guard:g})")
    return None


@settings(max_examples=400, deadline=None)
@given(st.floats(min_value=math.log(2e-5), max_value=math.log(3.0)).map(math.exp),
       st.floats(min_value=-20.0, max_value=20.0),
       st.integers(-4, 4), st.one_of(st.integers(-4, 4), st.integers(-10 ** 6, 10 ** 6)),
       st.sampled_from([1e-3, 0.02]), st.sampled_from([1, -1]), st.integers(-6, 6),
       st.one_of(st.none(), st.floats(min_value=-0.5, max_value=0.5)),
       st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=2.0)))
@example(0.31, 0.0, 0, 1, 0.02, 1, -1, None, 0.0)
@example(2e-5, 10.0, 1, -3, 1e-3, -1, 2, None, 0.0)
@example(0.31, 0.0, 0, 10 ** 6, 0.02, 1, 1, None, 0.0)
@example(2e-5, 10.0, 1, -10 ** 6, 1e-3, -1, 2, None, 0.0)
@example(0.8, -0.4, 0, 3, 0.02, 1, 0, 0.5, 0.0)
def test_pole_guard_row_band_matches_full_window(im_tau, re_tau, a, b, guard, side, ulps,
                                                 row, dx):
    # z sits in row b of a + b tau, |Im z| up to 1e6 Im tau, either a few
    # ulps of the row coordinate from pole_guard off the row (row None) or
    # at row * Im tau off it
    policy = TruncationPolicy(pole_guard=guard)
    tau = complex(re_tau, im_tau)
    step = math.ulp(max(abs(b * im_tau), guard))
    off = side * guard + ulps * step if row is None else row * im_tau
    z = a + b * tau + complex(dx * guard, off)
    expected = reference_guard_message(z, tau, policy)
    with patch.object(qkernel, "_lattice_scan", wraps=qkernel._lattice_scan) as scan:
        try:
            guard_pole(z, tau, policy)
            got = None
        except PoleProximityError as err:
            got = str(err)
    if not scan.called:
        # the row bound returned: the full-window scan finds no point close
        assert expected is None
    assert got == expected


def test_overflowing_terms_raise_domain_error():
    with pytest.raises(DomainError, match="overflowed"):
        theta_jm(ThetaIndex.of(0, 1), 1j, 50j)


@pytest.mark.parametrize("a, log_c", [
    (1.0, INF),
    (1.0, NAN),
    (1e-300, 1.0),      # a cut about 1e150 wide
    (1e-32, 1.0),       # a cut about 5.5e16 = 12 * 2^52 wide
])
def test_index_range_refuses_a_cut_that_is_not_an_index(a, log_c):
    # the refusal is typed: no ValueError or OverflowError from math.ceil of
    # a cut that is NaN, inf or past 2^52
    for tol in (1e-12, 1e-6):
        with pytest.raises(TruncationOverflowError):
            _index_range(0, 0.0, a, log_c, 0.0, TruncationPolicy(tol=tol))


def test_halfint():
    h = HalfInt.of(0.5)
    assert h.twice == 1
    assert (h + h).twice == 2
    assert (-h).twice == -1
    assert not h.is_integer()
    assert HalfInt.of(2).is_integer()
    with pytest.raises(ValueError):
        HalfInt.of(0.3)
    for x in (Fraction(-3, 2), Fraction(4), Fraction(0), Fraction(7, 2)):
        assert HalfInt.of(x).twice == 2 * x
    with pytest.raises(ValueError):
        HalfInt.of(Fraction(1, 3))


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(tol=-1.0)
    with pytest.raises(ValueError):
        TruncationPolicy(n_max=2)
    # a non-finite tol or guard would make every log-space tail target
    # infinite, and a series would sum nothing
    for bad in (INF, NAN, 0.0):
        with pytest.raises(ValueError):
            TruncationPolicy(tol=bad)
        with pytest.raises(ValueError):
            TruncationPolicy(pole_guard=bad)
    p = TruncationPolicy()
    assert p.tol == 1e-12 and p.n_max == 4000 and p.pole_guard == 1e-3
    # the hash is computed once; equal policies stay one memo key
    same = TruncationPolicy(1e-12, 4000, 1e-3)
    assert p == same and hash(p) == hash(same) and len({p: 1, same: 2}) == 1
    assert hash(TruncationPolicy(tol=1e-9)) != hash(p)
