"""Every index constructor reads its numbers one way: integer data through
qkernel.int_of, half-integer data through HalfInt.of.  A constructor that
reads them another way (a truncating int(), a float tolerance) fails here."""

from fractions import Fraction as F

import pytest

from mockforms.family_d21a import D21Index, D21Params, D21Weight
from mockforms.family_n3 import FIndex, N3Weight
from mockforms.family_n4 import ChiIndex, N4Weight, enumerate_weights
from mockforms.mock import PsiIndex

H = F(1, 2)
# constructor, valid arguments, {position: field} of its integer data, and
# the positions of its half-integer data
READERS = {
    "PsiIndex.of": (PsiIndex.of, (3, 1, 0, 0, 1, -1), {0: "M"}, (1, 2, 3, 4, 5)),
    "FIndex.of": (FIndex.of, (3, 1, 0, H, H, 1, 2), {0: "M", 1: "n"}, (2, 3, 4, 5, 6)),
    "ChiIndex.of": (ChiIndex.of, (1, 2, -1, H, 0, 1, -1),
                    {0: "alpha", 1: "M", 2: "m"}, (3, 4, 5, 6)),
    "D21Index.of": (D21Index.of, ("P", 1, D21Params(2, 1, 1), H, 0), {1: "j"}, (3, 4)),
    "N4Weight": (N4Weight, (-2, 1, 3, "I", 1, 0),
                 {0: "m", 1: "m2", 2: "M", 4: "k1", 5: "k2"}, ()),
    "N3Weight": (N3Weight, (False, F(-3, 4), 0, 3, "I", 0, 1),
                 {2: "m2", 3: "M", 5: "k1", 6: "k2"}, ()),
    "D21Weight": (D21Weight, (D21Params(3, 2, 1), 1, 1, 2), {1: "j", 2: "m2", 3: "m3"}, ()),
    "D21Params": (D21Params, (3, 2, 1), {0: "p", 1: "q", 2: "n"}, ()),
}


@pytest.mark.parametrize("name", READERS)
def test_index_data_is_read_one_way(name):
    make, args, ints, halves = READERS[name]
    at = lambda pos, x: make(*args[:pos], x, *args[pos + 1:])
    for pos, field in ints.items():
        n = args[pos]
        # an int stays, and an integral Fraction or float becomes the int
        for x in (n, F(n), float(n)):
            got = getattr(at(pos, x), field)
            assert type(got) is int and got == n, (field, x)
        for x in (n + H, n - 0.5):
            with pytest.raises(ValueError, match="not an integer"):
                at(pos, x)
        with pytest.raises(TypeError):
            at(pos, str(n))
    for pos in halves:
        for x in (0.5000000001, 0.3):
            with pytest.raises(ValueError, match="not a half-integer"):
                at(pos, x)


def test_n4_weights_read_the_level_one_way():
    # enumerate_weights returns a list, not a record, so it is not a READERS row
    want = enumerate_weights(-2)
    assert [w.m for w in want] == [-2] * 3 and all(type(w.m) is int for w in want)
    for x in (F(-2), -2.0):
        assert enumerate_weights(x) == want
    for x in (F(-5, 2), -2.5):
        with pytest.raises(ValueError, match="not an integer"):
            enumerate_weights(x)
    with pytest.raises(TypeError):
        enumerate_weights("-2")
