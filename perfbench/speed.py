"""Machine-speed probe.

The benchmark host is shared: a fixed pure-Python loop runs up to 1.6 times
slower for stretches of seconds to minutes while other tenants are busy, and
every op of the program slows by the same factor (per-op time times
throughput stays within 4% across runs).  So the benchmark times a fixed
probe next to the ops and scales each op's wall time by REFERENCE_S / probe
time: the result is the time the op would take at the speed at which the
probe takes REFERENCE_S.  Over 50 suite passes this cut the quartile spread
of pass times from 0.185 to 0.033.  The probe is the same code on the parent
and on a change, so it cannot favour either; raw wall times are reported
next to the corrected ones.
"""

from __future__ import annotations

import cmath
import time
from fractions import Fraction

REFERENCE_S = 1e-3


def probe() -> float:
    """Seconds taken by a fixed mix of the program's kinds of work: complex
    exponentials, Fraction arithmetic and dict updates."""
    t0 = time.perf_counter()
    acc = 0j
    for k in range(1500):
        acc += cmath.exp(1j * k * 1e-3) * (k % 7)
    f = Fraction(1, 3)
    for k in range(60):
        f = (f * 3 + k) / 4
    d = {}
    for k in range(600):
        d[k % 97] = d.get(k % 97, 0) + k
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale for work timed between two probes."""
    return REFERENCE_S / ((before + after) / 2)
