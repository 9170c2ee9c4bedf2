"""The per-point leaf-kernel memo of verifier.verify: values equal to
uncached evaluation bit for bit, errors never cached, and no memo alive
outside verify()."""

import math
from fractions import Fraction as F

import pytest

import mockforms.verifier as V
from mockforms.mock import MockIndex, _phi1_core, phi, phi1
from mockforms.modification import r_window
from mockforms.qkernel import (
    DEFAULT_POLICY,
    DomainError,
    EvalPoint,
    PoleProximityError,
    TruncationPolicy,
    _POINT_MEMO,
)
from mockforms.theta import ThetaIndex, dedekind_eta, jacobi_theta, theta_jm

# the policy verify() evaluates the identities with
VERIFY_POLICY = TruncationPolicy(DEFAULT_POLICY.tol, DEFAULT_POLICY.n_max, 0.02)
PAIR_IDS = [i for i in V.registry_ids() if V.get_spec(i).runner is None]
# a point whose components include 0.0 and -0.0
SIGNED_ZERO_POINT = EvalPoint(complex(-0.0, 0.8), (complex(0.21, -0.0),
                                                   complex(-0.0, 0.17),
                                                   complex(0.0, -0.13)))


def scoped(fn):
    token = _POINT_MEMO.set({})
    try:
        return fn(), _POINT_MEMO.get()
    finally:
        _POINT_MEMO.reset(token)


def evaluate_params(spec, pt):
    """repr of every parameter set's (lhs, rhs) pairs at pt, or the error."""
    out = []
    for prm in spec.params:
        try:
            out.append(repr(spec.plan(**prm)(pt, VERIFY_POLICY)))
        except PoleProximityError as exc:
            out.append(f"PoleProximityError: {exc}")
    return out


@pytest.mark.parametrize("where", ["first_grid_point", "signed_zero_point"])
def test_memo_matches_uncached_closures(where):
    mismatched = []
    for identity_id in PAIR_IDS:
        spec = V.get_spec(identity_id)
        if where == "first_grid_point":
            pt = V.standard_grid(*spec.grid, 1, VERIFY_POLICY)[0]
        else:
            pt = SIGNED_ZERO_POINT
        with_memo, _ = scoped(lambda: evaluate_params(spec, pt))
        if with_memo != evaluate_params(spec, pt):
            mismatched.append(identity_id)
    assert mismatched == []


def kernel_calls():
    """Leaf-kernel calls at arguments that are equal as numbers but differ in
    the sign of a zero or in type."""
    tau0 = (0.8j, complex(-0.0, 0.8), 1 + 0.8j)
    zeros = (0.0, -0.0, 0, 0j, -0j, complex(0.0, -0.0), complex(-0.0, 0.0))
    nonzero = (0.3, 0.3 + 0j, complex(0.3, -0.0))
    calls = []
    for tau in tau0:
        calls.append(lambda tau=tau: dedekind_eta(tau))
        for z in zeros + nonzero:
            calls += [
                lambda tau=tau, z=z: theta_jm(ThetaIndex.of(1, 2), tau, z),
                lambda tau=tau, z=z: theta_jm(ThetaIndex.of(0, 1), tau, z),
                lambda tau=tau, z=z: theta_jm(ThetaIndex.of(1, 2), tau, 0.1, z),
                lambda tau=tau, z=z: phi1(MockIndex.of(1, 0), tau, 0.23 + 0.04j, z),
                lambda tau=tau, z=z: phi(MockIndex.of(2, 1), tau, 0.23 + 0.04j, 0.31 - 0.05j,
                                         z, DEFAULT_POLICY, -1),
                lambda tau=tau, z=z: r_window(0.0, 1.0, tau, z, DEFAULT_POLICY, buckets=(0,)),
                lambda tau=tau, z=z: r_window(1.0, 1.0, tau, z, DEFAULT_POLICY, True, (0,)),
            ]
    return calls


def test_memo_keeps_signed_zeros_and_types_apart():
    calls = kernel_calls()
    with_memo, memo = scoped(lambda: [repr(c()) for c in calls])
    assert memo
    assert with_memo == [repr(c()) for c in calls]


def test_theta_index_shifted_by_2m_is_a_hit():
    tau, z = 0.31j, 0.12 - 0.07j

    def twice():
        return (theta_jm(ThetaIndex.of(1, 2), tau, z),
                theta_jm(ThetaIndex.of(1 + 4, 2), tau, z),
                len(_POINT_MEMO.get()))

    (a, b, size), memo = scoped(twice)
    assert size == 1 and len(memo) == 1
    assert repr(a) == repr(b) == repr(theta_jm(ThetaIndex.of(5, 2), tau, z))


def test_theta_ab_shares_the_entry_of_theta_at_twice_z():
    # theta_a0 at z and Theta_{a/2,1/2} at 2z are one series: one entry each a
    tau, z = 0.31 + 0.2j, 0.12 - 0.07j

    def both():
        return [(jacobi_theta(a, 0, tau, z), theta_jm(ThetaIndex.of(F(a, 2), F(1, 2)), tau, 2 * z))
                for a in (0, 1)]

    pairs, memo = scoped(both)
    assert len(memo) == 2
    assert [repr(x) for x, _ in pairs] == [repr(y) for _, y in pairs]


def test_pole_error_is_raised_again_and_not_stored():
    tau = 0.31j

    def at_pole():
        for _ in range(2):
            with pytest.raises(PoleProximityError):
                phi1(MockIndex.of(1, 0), tau, tau + 1e-4, 0.1, VERIFY_POLICY)
        # another Appell sum at the same z1 (other m, s, z2) scans again
        with pytest.raises(PoleProximityError):
            phi1(MockIndex.of(2, 1), tau, tau + 1e-4, 0.3, VERIFY_POLICY)
        return len(_POINT_MEMO.get())

    size, _ = scoped(at_pole)
    assert size == 0


TAU, Z, T = 0.8j, 0.21 - 0.07j, 0.3 + 0.05j
# each refused point changes one argument of (TAU, Z, T): Im tau <= 0, or a NaN
REFUSED = [(complex(0.0, -0.8), Z, T), (0.8 + 0j, Z, T), (complex(math.nan, 0.8), Z, T),
           (TAU, complex(math.nan, -0.07), T), (TAU, Z, complex(0.3, math.nan))]


def memoized_kernels(tau, z, t):
    """The memoized kernels at one point, t as Theta's t and the Appell
    sums' z2; dedekind_eta, which reads tau only, comes last."""
    return [lambda: theta_jm(ThetaIndex.of(1, 2), tau, z, t, VERIFY_POLICY),
            lambda: _phi1_core(1.0, 0.0, tau, z, t, VERIFY_POLICY),
            lambda: _phi1_core(2.0, 0.5, tau, z, t, VERIFY_POLICY, -1, True),
            lambda: r_window(0.5, 1.0, tau, z + t, VERIFY_POLICY),
            lambda: dedekind_eta(tau, VERIFY_POLICY)]


@pytest.mark.parametrize("tau, z, t", REFUSED)
def test_memo_lookup_before_the_check_still_refuses(tau, z, t):
    # the kernels look the memo up before checking the point: a refused
    # argument must still raise, and be stored nowhere, after valid calls
    # at the neighbouring point have filled the memo
    def refuse():
        for call in memoized_kernels(TAU, Z, T):
            call()
        before = dict(_POINT_MEMO.get())
        refused = memoized_kernels(tau, z, t)
        if tau == TAU:
            refused.pop()   # the refused argument is not one eta reads
        for call in refused:
            with pytest.raises(DomainError):
                call()
        return before

    before, memo = scoped(refuse)
    assert len(before) >= 5
    assert list(memo) == list(before)


def test_no_memo_outside_verify():
    assert _POINT_MEMO.get() is None
    theta_jm(ThetaIndex.of(1, 2), 0.5j, 0.1)
    assert _POINT_MEMO.get() is None
    V.suite("theta")
    assert _POINT_MEMO.get() is None


def test_memo_scope_is_per_point_and_reset_after_errors(monkeypatch):
    spec = V.get_spec("eq1.4")
    seen = []
    real_plan = spec.plan

    def recording(**prm):
        run = real_plan(**prm)

        def recorded(pt, policy):
            seen.append((pt, id(_POINT_MEMO.get())))
            assert isinstance(_POINT_MEMO.get(), dict)
            return run(pt, policy)
        return recorded

    monkeypatch.setattr(spec, "plan", recording)
    V.verify("eq1.4")
    assert _POINT_MEMO.get() is None
    memo_of = {}
    for pt, memo_id in seen:
        assert memo_of.setdefault(pt, memo_id) == memo_id
    assert len(memo_of) == len(V.standard_grid(*spec.grid, 1))

    def raising(**prm):
        def run(pt, policy):
            raise RuntimeError("closure failed")
        return run

    monkeypatch.setattr(spec, "plan", raising)
    with pytest.raises(RuntimeError):
        V.verify("eq1.4")
    assert _POINT_MEMO.get() is None


def test_run_point_returns_with_the_memo_reset():
    # a run that meets a pole gives None and the others their pair lists,
    # and the memo is reset before _run_point returns, so a caller that
    # walks the grid lazily keeps no memo alive between points
    def pole(pt, policy):
        raise PoleProximityError("near a pole")

    spec = V.get_spec("eq1.4")
    runs = [spec.plan(**prm) for prm in spec.params[:2]]
    pt = V.standard_grid(*spec.grid, 1)[0]
    out = V._run_point([runs[0], pole, runs[1]], pt, VERIFY_POLICY)
    assert _POINT_MEMO.get() is None
    assert out == [runs[0](pt, VERIFY_POLICY), None, runs[1](pt, VERIFY_POLICY)]


def test_custom_runner_runs_without_memo(monkeypatch):
    runner_id = next(i for i in V.registry_ids() if V.get_spec(i).runner is not None)
    spec = V.get_spec(runner_id)
    seen = []

    def runner(policy):
        seen.append(_POINT_MEMO.get())
        return 0.0, 0

    monkeypatch.setattr(spec, "runner", runner)
    V.verify(runner_id)
    assert seen == [None]
