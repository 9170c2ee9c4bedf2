"""The exact data of every family weight over a fixed sweep, digest for digest.

For each N=3, N=4 and D(2,1;a) weight of the sweep the golden pins the
characteristic numbers of the reduction, the integrability flags or tests,
the Lambda0 label, the (j, k) of each N=4 sector, the psi-route terms and
the admissible point of N=3, and the B numerators of the integrable N=3
weights at one point.  Each value is its repr (a dict as its sorted items),
or the name of the error it raised, so an exact restatement passes and a
changed number, float bit or refusal fails.  The golden holds one 16-hex
sha256 prefix per family and type.
"""

import hashlib
import json
import pathlib
from fractions import Fraction as F

from mockforms import family_d21a as D
from mockforms import family_n3 as N3
from mockforms import family_n4 as N4

CHARACTERISTICS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "characteristics.json"
KS = range(-2, 3)
POINT = (complex(0.13, 0.87), complex(0.31, 0.22), complex(-0.17, 0.41), complex(0.05, 0.03))


def _value(f):
    """repr of f(), a dict as its sorted items, or the name of its error."""
    try:
        got = f()
    except Exception as exc:
        return type(exc).__name__
    return repr(sorted(got.items()) if isinstance(got, dict) else got)


def _weights(make, types, Ms):
    """Every weight make(M, J, k1, k2) the constructor accepts: M = 1,
    k1 = k2 = 0 for "none", else M in Ms and k1, k2 in KS."""
    for J in types:
        for M, k1, k2 in ([(1, 0, 0)] if J == "none"
                          else [(M, a, b) for M in Ms for a in KS for b in KS]):
            try:
                yield make(M, J, k1, k2)
            except ValueError:
                pass


def _n3_rows():
    for k in range(3, 8):             # n = k - 2 = 1..5
        for dotted in (False, True):
            for m2 in range(k - 1):
                for w in _weights(lambda M, J, k1, k2: N3.N3Weight(dotted, F(-k, 4), m2, M, J, k1, k2),
                                  N3._J_VALUES, (1, 2, 3, 5)):
                    row = [w.label(), _value(lambda: N3.qhr_characteristics(w)),
                           _value(lambda: N3.integrability_flags(w)),
                           _value(lambda: w._psi_terms),
                           _value(lambda: N3._admissible_point(w, *POINT))]
                    if w.J == "none":
                        row += [_value(lambda: N3.b_value(w._b_data, *POINT, mod)) for mod in (False, True)]
                    yield f"n3:{w.J}", row


def _n4_rows():
    for m in range(0, -7, -1):
        for m2 in range(-m + 1):
            for w in _weights(lambda M, J, k1, k2: N4.N4Weight(m, m2, M, J, k1, k2),
                              N4._J_VALUES, (1, 2, 3, 5)):
                yield f"n4:{w.J}", [w.label(), _value(lambda: N4.qhr_characteristics(w)),
                                    _value(lambda: N4._lambda_alpha2(w)),
                                    *(_value(lambda: N4.admissible_jk(w, s))
                                      for s in N4.SECTORS.values())]


def _d21a_rows():
    for p in range(1, 6):
        for q in range(1, p + 1):
            for n in (1, 2, 3):
                try:
                    params = D.D21Params(p, q, n)
                except ValueError:
                    continue
                for j, ws in D.enumerate_weights(params).items():
                    for w in ws:
                        yield f"d21a:j{j}", [w.label(), _value(lambda: D.integrability_tests(w)),
                                             _value(lambda: D.level_zero_label(w)),
                                             _value(lambda: D.qhr_characteristics(w))]


def _digests() -> dict:
    """{family:type: 16-hex sha256 prefix of its rows, in sweep order}."""
    hashes = {}
    for rows in (_n3_rows(), _n4_rows(), _d21a_rows()):
        for key, row in rows:
            hashes.setdefault(key, hashlib.sha256()).update(repr(row).encode())
    return {key: h.hexdigest()[:16] for key, h in hashes.items()}


def test_characteristics_match_golden():
    assert _digests() == json.loads(CHARACTERISTICS_GOLDEN.read_text())


if __name__ == "__main__":
    # rewrite the golden: python tests/test_characteristics.py (with src on the path)
    CHARACTERISTICS_GOLDEN.write_text(json.dumps(_digests(), indent=1) + "\n")
