"""Independent mpmath references for the eval-sweep kernels.

Each reference sums the defining series from the module docstrings of
``theta``, ``mock`` and ``modification`` at ``mp.dps = 30``; the Dedekind eta
function comes from ``mpmath.eta``.  No code of the program is used.

Every reference returns ``(value, cond)``.  ``cond`` is a rounding scale:
the sum over the terms of |term| * (1 + |error-amplifying factors|), where
the factors are the magnitudes of the exponent arguments (a phase argument
x contributes 2 pi |x|), propagated through sums and products.  A double
precision evaluation of the same series cannot be expected to come closer to
the exact value than a small multiple of eps * cond, so the gate accepts

    |program - reference| <= policy.tol + ROUNDING_ULPS * eps * cond.

policy.tol is the program's own truncation contract; the second term is the
unavoidable rounding of double arithmetic, not a loosening of it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

mp.dps = 30
STOP = mpf(10) ** -28
EPS = 2.0 ** -52
ROUNDING_ULPS = 64
TWO_PI = 2.0 * math.pi


def _mpc(z) -> mpc:
    """The exact value of a double (or an mpc, unchanged) as an mpc."""
    if isinstance(z, mpc):
        return z
    z = complex(z)
    return mpc(z.real, z.imag)


def _mpq(x) -> mpf:
    x = Fraction(x)
    return mpf(x.numerator) / x.denominator


def _e(x):
    """exp(2 pi i x) in mpmath."""
    return mp.expjpi(2 * x)


def _abs(x) -> float:
    return float(abs(x))


def _walk(term, k0: int, run: int = 4, cap: int = 200_000):
    """Sum term(k) over all integers k, walking outward from k0 in both
    directions until `run` consecutive terms fall below STOP times the
    largest term seen.  term returns (mp value, float cond)."""
    total, cond = mpc(0), 0.0
    biggest = mpf(0)
    for step, first in ((1, k0), (-1, k0 - 1)):
        small = 0
        k = first
        for _ in range(cap):
            t, c = term(k)
            total += t
            cond += c
            a = abs(t)
            biggest = max(biggest, a)
            small = small + 1 if a <= STOP * biggest else 0
            if small >= run:
                break
            k += step
        else:
            raise RuntimeError("reference series did not converge")
    return total, cond


def gauss_sum(A, B, c0):
    """sum over n in c0 + Z of exp(2 pi i (A n^2 + B n)), Im A > 0."""
    c0 = _mpq(c0)

    def term(k):
        n = c0 + k
        arg = A * n * n + B * n
        t = _e(arg)
        return t, _abs(t) * (1.0 + TWO_PI * _abs(arg))

    return _walk(term, int(mp.nint(-B.imag / (2 * A.imag) - c0)))


def theta_jm(j, m, tau, z):
    """Theta_{j,m}(tau, z) = sum_{n in Z + j/2m} q^{m n^2} e^{2 pi i m n z}."""
    m = Fraction(m)
    return gauss_sum(_mpq(m) * _mpc(tau), _mpq(m) * _mpc(z), Fraction(j) / (2 * m) % 1)


def jacobi_theta(a, b, tau, z):
    """theta_ab(tau, z) = sum_{k in Z + a/2} e^{pi i k^2 tau + 2 pi i k (z + b/2)}."""
    return gauss_sum(_mpc(tau) / 2, _mpc(z) + mpf(b) / 2, Fraction(a, 2))


def dedekind_eta(tau):
    tau = complex(tau)
    v = mpmath.eta(_mpc(tau))
    # the program multiplies out prod (1 - q^n) with q^n built by repeated
    # multiplication: factor n carries about n ulps of error in q^n
    aq = math.exp(-TWO_PI * tau.imag)
    amp, n, qn = 1.0 + TWO_PI * abs(tau) / 24, 1, aq
    while qn > 1e-20 * (1.0 - aq):
        amp += 1.0 + n * qn / max(1.0 - qn, 1e-300)
        n += 1
        qn *= aq
    return v, _abs(v) * amp


def phi1(m, s, tau, z1, z2):
    """sum_j e^{2 pi i (m j (z1+z2) + s z1)} q^{m j^2 + j s} / (1 - e^{2 pi i z1} q^j)."""
    m, s = _mpq(m), _mpq(s)
    tau, z1, z2 = _mpc(tau), _mpc(z1), _mpc(z2)
    A, B, C = m * tau, m * (z1 + z2) + s * tau, s * z1

    def term(j):
        arg = A * j * j + B * j + C
        warg = z1 + j * tau
        w = _e(warg)
        den = 1 - w
        t = _e(arg) / den
        amp = 1.0 + TWO_PI * _abs(arg) + _abs(w) * (1.0 + TWO_PI * _abs(warg)) / _abs(den)
        return t, _abs(t) * amp

    return _walk(term, int(mp.nint(-s / (2 * m) - (z1 + z2).imag / (2 * tau.imag))))


def phi(m, s, tau, z1, z2):
    a, ca = phi1(m, s, tau, z1, z2)
    b, cb = phi1(m, s, tau, -_mpc(z2), -_mpc(z1))
    return a - b, ca + cb


def r_correction(j, m, tau, v):
    """R_{j;m}(tau, v) = sum_{n in j + 2m Z} (sgn - E(x_n)) e^{-pi i n^2 tau/2m + 2 pi i n v},
    sgn = +1 for n >= j, x_n = (n - 2m Im v / Im tau) sqrt(Im tau / m),
    sgn - E(x) = sgn erfc(sgn sqrt(pi) x)."""
    j, m = _mpq(j), _mpq(m)
    tau, v = _mpc(tau), _mpc(v)
    scale = mp.sqrt(tau.imag / m)
    n_star = 2 * m * v.imag / tau.imag
    sqrt_pi = mp.sqrt(mp.pi)

    def term(k):
        n = j + 2 * m * k
        sgn = 1 if k >= 0 else -1
        x = (n - n_star) * scale
        w = -n * n * tau / (4 * m) + n * v
        t = sgn * mp.erfc(sgn * sqrt_pi * x) * _e(w)
        if t == 0:
            return t, 0.0
        amp = (1.0 + abs(float(mp.log(abs(t)))) + TWO_PI * _abs(w)
               + TWO_PI * float(x) ** 2)
        return t, _abs(t) * amp

    return _walk(term, int(mp.nint((n_star - j) / (2 * m))), run=5)


def _mul(x, y):
    (vx, cx), (vy, cy) = x, y
    v = vx * vy
    return v, _abs(vx) * cy + _abs(vy) * cx + _abs(v)


def phi_add(m, s, tau, z1, z2):
    """(1/2) sum_{j=s}^{s+2m-1} R_{j;m}(tau, (z1-z2)/2)
    (Theta_{-j,m} - Theta_{j,m})(tau, z1+z2)."""
    m, s = Fraction(m), Fraction(s)
    z1, z2 = _mpc(z1), _mpc(z2)
    v, zs = (z1 - z2) / 2, z1 + z2
    total, cond = mpc(0), 0.0
    for r in range(int(2 * m)):
        j = s + r
        ta, ca = theta_jm(-j, m, tau, zs)
        tb, cb = theta_jm(j, m, tau, zs)
        t, c = _mul(r_correction(j, m, tau, v), (ta - tb, ca + cb))
        total += t
        cond += c
    return total / 2, cond / 2


def phi_tilde(m, s, tau, z1, z2):
    a, ca = phi(m, s, tau, z1, z2)
    b, cb = phi_add(m, s, tau, z1, z2)
    return a + b, ca + cb


def psi_tilde(M, m, s, eps, a, b, tau, z1, z2):
    """q^{m a b/M} e^{(2 pi i m/M)(b z1 + a z2)}
    Phi-tilde^{[m;s]}(M tau, z1 + a tau + eps, z2 + b tau + eps)."""
    mq, aq, bq, eq = (_mpq(x) for x in (m, a, b, eps))
    tau, z1, z2 = _mpc(tau), _mpc(z1), _mpc(z2)
    parg = mq * aq * bq * tau / M + (mq / M) * (bq * z1 + aq * z2)
    pref = _e(parg)
    inner = phi_tilde(m, s, M * tau, z1 + aq * tau + eq, z2 + bq * tau + eq)
    return _mul((pref, _abs(pref) * (1.0 + TWO_PI * _abs(parg))), inner)


def reference(kernel: str, p: dict):
    """(value, cond) of one eval-sweep op, given its parameter record."""
    if kernel == "theta_jm":
        return theta_jm(p["j"], p["m"], p["tau"], p["z"])
    if kernel == "dedekind_eta":
        return dedekind_eta(p["tau"])
    if kernel == "jacobi_theta":
        return jacobi_theta(p["a"], p["b"], p["tau"], p["z"])
    if kernel == "psi_tilde":
        return psi_tilde(p["M"], p["m"], p["s"], p["eps"], p["a"], p["b"],
                         p["tau"], p["z1"], p["z2"])
    fn = {"phi1": phi1, "phi": phi, "phi_tilde": phi_tilde}[kernel]
    return fn(p["m"], p["s"], p["tau"], p["z1"], p["z2"])


def check(kernel: str, p: dict, value: complex, tol: float):
    """(error, bound) of a program value against its reference."""
    ref, cond = reference(kernel, p)
    err = abs(complex(ref) - complex(value))
    # cond is summed in floats from mp terms; keep it finite
    bound = tol + ROUNDING_ULPS * EPS * min(cond, 1e300)
    return err, bound
