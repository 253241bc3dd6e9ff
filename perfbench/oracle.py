"""Arbitrary-precision reference values for the benchmark's checks.

Every value is computed with mpmath at ORACLE_DPS (30) significant digits or
more, from the definition of the object or from mpmath's own special
functions, never from eiskern's closed forms:

* eps_r(z)  -- r = 1: pi*cot(pi*z); r >= 2: Hurwitz zeta(r, z) + (-1)^r zeta(r, 1-z)
* h_r(z)    -- the defining alternating series sum_{k in Z} (-1)^k sgn(k) (z+ik)^(-r)
* Omega(z)  -- mp.quad of the defining integral 2 int_0^(1/2) sinh(zu) cot(pi u) du
* kernels   -- mp.digamma, mp.polygamma, mp.gamma, mp.zeta, mp.altzeta
* B~_(2m+1)(1/2) -- the defining Fourier series at the half point

This module never imports eiskern.
"""
from __future__ import annotations

import math

from mpmath import mp

ORACLE_DPS = 30
DOUBLE_MAX = 1.7976931348623157e308

# The orchestrator's mpmath context is the oracle's alone: values are returned,
# and compared with the program's doubles, at ORACLE_DPS digits.
mp.dps = ORACLE_DPS


def _z(z):
    return mp.mpc(complex(z))


def eisenstein(r: int, z) -> mp.mpc:
    """eps_r(z) = sum_{k in Z} (z+k)^(-r), symmetric summation for r = 1."""
    # the Hurwitz pair cancels down to ~e^(-2 pi |Im z|) of its terms' size
    extra = int(2.0 * math.pi * abs(complex(z).imag) / math.log(10.0)) + 5
    with mp.workdps(ORACLE_DPS + extra):
        w = _z(z)
        if r == 1:
            v = mp.pi * mp.cot(mp.pi * w)
        else:
            v = mp.zeta(r, w) + (-1) ** r * mp.zeta(r, 1 - w)
    return +v


def hilbert_eisenstein(r: int, z) -> mp.mpc:
    """h_r(z) = sum_{k>=1} (-1)^k [(z+ik)^(-r) - (z-ik)^(-r)] (r = 1 summed symmetrically)."""
    with mp.workdps(ORACLE_DPS + 5):
        w = _z(z)
        if r == 1:
            w2 = w * w
            v = 2j * mp.nsum(lambda k: (-1) ** (int(k) - 1) * k / (w2 + k * k), [1, mp.inf])
        else:
            v = mp.nsum(lambda k: (-1) ** int(k) * ((w + 1j * k) ** (-r) - (w - 1j * k) ** (-r)),
                        [1, mp.inf])
    return +v


def omega(z) -> mp.mpc:
    """Omega(z) = 2 int_0^(1/2) sinh(z u) cot(pi u) du by tanh-sinh quadrature."""
    with mp.workdps(ORACLE_DPS + 5):
        w = _z(z)
        if w == 0:
            return mp.mpc(0)
        # for large |z| the mass sits in a layer of width ~1/|z| below u = 1/2
        pts = [0, mp.mpf(1) / 2]
        if abs(w) > 50:
            pts = [0, mp.mpf(1) / 2 - 20 / abs(w), mp.mpf(1) / 2]
        v = 2 * mp.quad(lambda u: mp.sinh(w * u) * mp.cot(mp.pi * u), pts)
    return +v


def omega_bounds(x: float) -> tuple[mp.mpf, mp.mpf]:
    """The two-sided sinh-log bounds of Omega on the real line, (lower, upper)."""
    with mp.workdps(ORACLE_DPS + 5):
        ax = abs(mp.mpf(x))
        z3 = mp.zeta(3)
        pref = mp.sinh(ax / 2) / mp.pi
        lo = pref * mp.log((z3 * ax ** 2 + 8 * mp.pi ** 2) / (3 * ax ** 2 + 2 * mp.pi ** 2))
        hi = pref * mp.log((3 * ax ** 2 + 8 * mp.pi ** 2) / (z3 * ax ** 2 + 2 * mp.pi ** 2))
        if x < 0:
            lo, hi = -hi, -lo
    return +lo, +hi


def conj_bernoulli_half(m: int) -> mp.mpf:
    """B~_(2m+1)(1/2) = -2 (2m+1)! sum_k sin(pi k - (2m+1) pi/2) / (2 pi k)^(2m+1)."""
    s = 2 * m + 1
    with mp.workdps(ORACLE_DPS + 5):
        # sin(pi k - s pi/2) = (-1)^(k+m+1) for odd s
        series = mp.nsum(lambda k: (-1) ** (int(k) + m + 1) / (2 * mp.pi * k) ** s, [1, mp.inf])
        v = -2 * mp.factorial(s) * series
    return +v


def mathieu_alternating(r: float, x: float) -> mp.mpf:
    """S~_r(x) = sum_{k>=1} (-1)^(k-1) 2k / (k^2 + x^2)^r."""
    with mp.workdps(ORACLE_DPS + 5):
        x2 = mp.mpf(x) ** 2
        rr = mp.mpf(r)
        v = mp.nsum(lambda k: (-1) ** (int(k) - 1) * 2 * k / (k * k + x2) ** rr, [1, mp.inf])
    return +v


def digamma(z) -> mp.mpc:
    with mp.workdps(ORACLE_DPS):
        return mp.digamma(_z(z))


def polygamma(r: int, z) -> mp.mpc:
    with mp.workdps(ORACLE_DPS):
        return mp.polygamma(r, _z(z))


def gamma(z) -> mp.mpc:
    with mp.workdps(ORACLE_DPS):
        return mp.gamma(_z(z))


def riemann_zeta(s: float) -> mp.mpf:
    with mp.workdps(ORACLE_DPS):
        return mp.zeta(mp.mpf(s))


def dirichlet_eta(s: float) -> mp.mpf:
    with mp.workdps(ORACLE_DPS):
        return mp.altzeta(mp.mpf(s))


# ---------------------------------------------------------------------------
# comparison helpers

def representable(v) -> bool:
    """True when every component of v fits in an IEEE double."""
    return all(abs(c) <= DOUBLE_MAX for c in _parts(v))


def _parts(v):
    if isinstance(v, (tuple, list)):
        out = []
        for c in v:
            out.extend(_parts(c))
        return out
    return [mp.mpc(v)]


def rel_error(got: complex, want) -> float:
    """|got - want| / |want|; absolute error when |want| underflows a double."""
    w = mp.mpc(want)
    d = abs(mp.mpc(got) - w)
    scale = abs(w)
    if scale < 1e-300:
        return float(d) if d > 1e-300 else 0.0
    return float(d / scale)


def digits(rel_err: float) -> float:
    """Correct significant digits, capped at 17 (exact agreement)."""
    return min(17.0, -math.log10(max(rel_err, 1e-17)))
