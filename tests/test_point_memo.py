"""The per-point leaf-kernel memo of verifier.verify: values equal to
uncached evaluation bit for bit, errors never cached, and no memo alive
outside verify()."""

import pytest

import mockforms.verifier as V
from mockforms.mock import MockIndex, phi, phi1
from mockforms.modification import CorrectionIndex, r_correction, r_correction_dv
from mockforms.qkernel import (
    DEFAULT_POLICY,
    EvalPoint,
    PoleProximityError,
    TruncationPolicy,
    _POINT_MEMO,
)
from mockforms.theta import ThetaIndex, dedekind_eta, theta_jm

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
            out.append(repr(spec.pair(pt, VERIFY_POLICY, **prm)))
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
                lambda tau=tau, z=z: r_correction(CorrectionIndex.of(0, 1), tau, z),
                lambda tau=tau, z=z: r_correction_dv(CorrectionIndex.of(1, 1), tau, z),
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


def test_pole_error_is_raised_again_and_not_stored():
    tau = 0.31j

    def at_pole():
        for _ in range(2):
            with pytest.raises(PoleProximityError):
                phi1(MockIndex.of(1, 0), tau, tau + 1e-4, 0.1, VERIFY_POLICY)
        return len(_POINT_MEMO.get())

    size, _ = scoped(at_pole)
    assert size == 0


def test_no_memo_outside_verify():
    assert _POINT_MEMO.get() is None
    theta_jm(ThetaIndex.of(1, 2), 0.5j, 0.1)
    assert _POINT_MEMO.get() is None
    V.suite("theta")
    assert _POINT_MEMO.get() is None


def test_memo_scope_is_per_point_and_reset_after_errors(monkeypatch):
    spec = V.get_spec("eq1.4")
    seen = []
    real_pair = spec.pair

    def recording(pt, policy, **prm):
        seen.append((pt, id(_POINT_MEMO.get())))
        assert isinstance(_POINT_MEMO.get(), dict)
        return real_pair(pt, policy, **prm)

    monkeypatch.setattr(spec, "pair", recording)
    V.verify("eq1.4")
    assert _POINT_MEMO.get() is None
    memo_of = {}
    for pt, memo_id in seen:
        assert memo_of.setdefault(pt, memo_id) == memo_id
    assert len(memo_of) == len(V.standard_grid(*spec.grid, 1))

    def raising(pt, policy, **prm):
        raise RuntimeError("closure failed")

    monkeypatch.setattr(spec, "pair", raising)
    with pytest.raises(RuntimeError):
        V.verify("eq1.4")
    assert _POINT_MEMO.get() is None


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
