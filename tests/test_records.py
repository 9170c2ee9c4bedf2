"""The value classes of the package are qkernel._record records, which must
behave as stdlib frozen dataclasses of the same fields: each is checked
against a dataclasses.dataclass(frozen=True) twin built from its annotated
fields and class-body defaults."""

import dataclasses
import inspect
import itertools
from fractions import Fraction as F

import pytest

from mockforms import family_d21a, family_n3, family_n4, formal, mock, qkernel, theta
from mockforms.family_d21a import D21Index, D21Params, D21Weight
from mockforms.family_n3 import FIndex, N3Weight
from mockforms.family_n4 import ChiIndex, N4Weight, Sector
from mockforms.formal import GRat, ZArg
from mockforms.mock import MockIndex, PsiIndex
from mockforms.qkernel import EvalPoint, HalfInt, TruncationPolicy, _replace
from mockforms.theta import ThetaIndex

H = F(1, 2)
# sample instances of each record; calling a factory twice gives equal
# instances that are not identical
SAMPLES = {
    TruncationPolicy: lambda: [TruncationPolicy(), TruncationPolicy(1e-10, 100),
                               TruncationPolicy(pole_guard=0.01)],
    HalfInt: lambda: [HalfInt(3), HalfInt(-1), HalfInt(0)],
    EvalPoint: lambda: [EvalPoint(1j, (0.1,)), EvalPoint(0.5 + 1j, (0.1, 0.2j)),
                        EvalPoint(1j, (0.1, 0.2, 0.3))],
    ThetaIndex: lambda: [ThetaIndex.of(1, 2), ThetaIndex.of(H, F(3, 2)), ThetaIndex.of(-1, 2)],
    MockIndex: lambda: [MockIndex.of(1, 0), MockIndex.of(H, H), MockIndex.of(2, -1)],
    PsiIndex: lambda: [PsiIndex.of(3, 1, 0, 0, 1, -1), PsiIndex.of(3, 1, 0, H, H, -H),
                       PsiIndex.of(2, F(3, 2), H, 0, 0, 0)],
    GRat: lambda: [GRat(), GRat(1, H), GRat(1), GRat(F(1), 0)],
    ZArg: lambda: [ZArg.of(1, 0), ZArg.of(0, 1, H), ZArg()],
    N3Weight: lambda: [N3Weight(False, F(-3, 4), 0), N3Weight(True, F(-3, 4), 1),
                       N3Weight(False, F(-3, 4), 1, 3, "I", 0, 1)],
    FIndex: lambda: [FIndex.of(3, 1, 0, Sector.of(H, 0), 1, 2),
                     FIndex.of(3, 2, H, Sector.of(0, H), 1, 2)],
    N4Weight: lambda: [N4Weight(-1, 0), N4Weight(-2, 1, 3, "I", 0, 1)],
    Sector: lambda: [Sector.of(0, 0), Sector.of(H, 0), Sector.of(0, H)],
    ChiIndex: lambda: [ChiIndex.of(0, 3, -1, Sector.of(0, 0), 1, -1),
                       ChiIndex.of(1, 3, -2, Sector.of(H, 0), 1, 0)],
    D21Params: lambda: [D21Params(1, 1, 1), D21Params(2, 1, 1)],
    D21Weight: lambda: [D21Weight(D21Params(2, 1, 1), 0, 0, 1), D21Weight(D21Params(2, 1, 1), 1, 0, 0)],
    D21Index: lambda: [D21Index.of("P", 1, D21Params(2, 1, 1)),
                       D21Index.of("g", 0, D21Params(2, 1, 1), Sector.of(H, H))],
}
# classes whose own __repr__ the record keeps
OWN_REPR = {HalfInt: lambda x: f"HalfInt({x.twice}/2)"}


def twin(cls):
    """A stdlib frozen dataclass of cls's annotated fields and defaults."""
    names = cls.__dict__["__annotations__"]
    body = {"__annotations__": dict(names), "__qualname__": cls.__qualname__}
    body.update({n: cls.__dict__[n] for n in names if n in cls.__dict__})
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))


def test_every_record_has_samples():
    records = {obj for mod in (qkernel, theta, mock, formal, family_n3, family_n4, family_d21a)
               for obj in vars(mod).values()
               if isinstance(obj, type) and obj.__module__ == mod.__name__
               and obj.__dict__.get("__setattr__") is qkernel._refuse_assignment}
    assert records == set(SAMPLES) and len(records) == 16


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
def test_record_behaves_as_a_frozen_dataclass(cls):
    Twin = twin(cls)
    names = tuple(f.name for f in dataclasses.fields(Twin))
    assert cls._fields == names
    signature = lambda c: [(p.name, p.default) for p in inspect.signature(c.__init__).parameters.values()]
    assert signature(cls) == signature(Twin)
    objs = SAMPLES[cls]() + SAMPLES[cls]()
    twins = [Twin(**{n: getattr(x, n) for n in names}) for x in objs]
    for x, t in zip(objs, twins):
        assert repr(x) == (OWN_REPR[cls](x) if cls in OWN_REPR else repr(t))
        assert hash(x) == hash(t)
        assert x != t and t != x
        for name in (names[0], "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
    for (x, t), (y, u) in itertools.product(zip(objs, twins), repeat=2):
        assert (x == y, x != y) == (t == u, t != u)
    n = len(objs) // 2
    assert all(objs[i] == objs[i + n] and objs[i] is not objs[i + n] for i in range(n))


def test_replace_builds_through_init():
    w = N3Weight(False, F(-3, 4), 1, 3, "I", 0, 1)
    v = _replace(w, m2=0)
    assert v == N3Weight(False, F(-3, 4), 0, 3, "I", 0, 1) and w.m2 == 1
    # __post_init__ runs: it normalises m and checks the new data
    assert type(_replace(w, m=-1).m) is F
    with pytest.raises(ValueError):
        _replace(w, J="none")
    with pytest.raises(TypeError):
        _replace(w, level=0)


def test_cached_property_on_a_record():
    idx = PsiIndex.of(3, 1, 0, H, 1, -1)
    frame = idx._frame
    assert idx._frame is frame and vars(idx)["_frame"] is frame
    assert frame[0] == MockIndex.of(1, 0)
    # the B-term partner, m2 -> n - m2 with the dot flipped, is its B data
    w = N3Weight(False, -1, 2)
    assert w.n == 2 and vars(w)["n"] == 2
    assert w._b_partner == (N3Weight(True, -1, 0)._b_data, False)
    assert w._b_partner is vars(w)["_b_partner"]
