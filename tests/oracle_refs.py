"""mpmath references shared by the oracle tests: perfbench/oracle.py (dps
30), loaded by path and read-only, and the v-derivative of R, which
perfbench does not have, summed from the formula of the r_window docstring
with the same helpers."""

import importlib.util
import pathlib

from mpmath import mp

_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle",
    pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def r_dv_reference(j, m, tau, v):
    """(1/2 pi i) dR_{j;m}/dv at dps 30, summed termwise:
    (n (sgn - E(x_n)) - sqrt(m / Im tau) e^{-pi x_n^2} / pi) e^{2 pi i w_n}."""
    j, m = oracle._mpq(j), oracle._mpq(m)
    tau, v = oracle._mpc(tau), oracle._mpc(v)
    scale = mp.sqrt(tau.imag / m)
    n_star = 2 * m * v.imag / tau.imag
    sqrt_pi = mp.sqrt(mp.pi)
    dscale = mp.sqrt(m / tau.imag) / mp.pi

    def amp(t, w, x):
        if t == 0:
            return 0.0
        return oracle._abs(t) * (1.0 + abs(float(mp.log(abs(t)))) + oracle.TWO_PI * oracle._abs(w)
                                 + oracle.TWO_PI * float(x) ** 2)

    def term(k):
        n = j + 2 * m * k
        sgn = 1 if k >= 0 else -1
        x = (n - n_star) * scale
        w = -n * n * tau / (4 * m) + n * v
        e = oracle._e(w)
        value = sgn * mp.erfc(sgn * sqrt_pi * x) * e
        slope = dscale * mp.exp(-mp.pi * x * x) * e
        return n * value - slope, amp(n * value, w, x) + amp(slope, w, x)

    return oracle._walk(term, int(mp.nint((n_star - j) / (2 * m))), run=5)
