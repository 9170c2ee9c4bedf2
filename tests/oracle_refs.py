"""mpmath references shared by the oracle tests: perfbench/oracle.py (dps
30), loaded by path and read-only, and two derivatives perfbench does not
have, summed with the same helpers: the v-derivative of R, from the formula
of the r_window docstring, and the D0-derivative of the Appell assembly,
from that of the _phi1_core docstring.  D0 of Phi_add and of Phi-tilde are
assembled from them."""

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


def phi_d0_reference(m, s, tau, z1, z2):
    """(value, D0 value) of Phi^{[m;s]} at dps 30, the D0 part summed termwise
    from the _phi1_core docstring: D0 (N/D) = s N/D + N w/D^2."""
    def d0(m, s, tau, z1, z2):
        m, s = oracle._mpq(m), oracle._mpq(s)
        tau, z1, z2 = oracle._mpc(tau), oracle._mpc(z1), oracle._mpc(z2)
        A, B, C = m * tau, m * (z1 + z2) + s * tau, s * z1

        def term(j):
            arg = A * j * j + B * j + C
            warg = z1 + j * tau
            w = oracle._e(warg)
            den = 1 - w
            num = oracle._e(arg)
            amp = (1.0 + oracle.TWO_PI * oracle._abs(arg)
                   + 2.0 * oracle._abs(w) * (1.0 + oracle.TWO_PI * oracle._abs(warg))
                   / oracle._abs(den))
            value, slope = num / den, num * w / (den * den)
            return (s * value + slope,
                    (abs(float(s)) * oracle._abs(value) + oracle._abs(slope)) * amp)

        return oracle._walk(term, int(mp.nint(-s / (2 * m) - (z1 + z2).imag / (2 * tau.imag))))

    da, ca = d0(m, s, tau, z1, z2)
    db, cb = d0(m, s, tau, -oracle._mpc(z2), -oracle._mpc(z1))
    return oracle.phi(m, s, tau, z1, z2), (da - db, ca + cb)


def phi_add_d0_reference(m, s, tau, z1, z2):
    """(value, cond) of the D0 part of Phi_add: (1/2) sum over the window of
    (1/2 pi i) dR_{j;m}/dv (Theta_{-j,m} - Theta_{j,m})."""
    z1, z2 = oracle._mpc(z1), oracle._mpc(z2)
    total = cond = 0
    for r in range(int(2 * m)):
        j = s + r
        ta, ca = oracle.theta_jm(-j, m, tau, z1 + z2)
        tb, cb = oracle.theta_jm(j, m, tau, z1 + z2)
        t, c = oracle._mul(r_dv_reference(j, m, tau, (z1 - z2) / 2), (ta - tb, ca + cb))
        total += t
        cond += c
    return total / 2, cond / 2


def phi_tilde_d0_reference(m, s, tau, z1, z2):
    """(value, D0 value) of Phi-tilde, each as (mp value, cond), summed at
    (z1, z2) itself."""
    (va, ca), (da, cda) = phi_d0_reference(m, s, tau, z1, z2)
    vb, cb = oracle.phi_add(m, s, tau, z1, z2)
    db, cdb = phi_add_d0_reference(m, s, tau, z1, z2)
    return (va + vb, ca + cb), (da + db, cda + cdb)
