"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

Every panel applies one embedded pair: the 21-point Kronrod rule K21, whose
nodes contain those of the 10-point Gauss rule G10 (Kronrod 1965).  A panel
costs 21 integrand calls and returns K21 as its value and |K21 - G10| as its
error.  A panel is accepted when that error falls below its share of the
tolerance budget, and is bisected otherwise.  The reported error adds to the
accepted errors a rounding floor eps*|half-width|*sum w_K |f| per panel; the
floor never enters the acceptance test, where a cancelling integrand would
bisect to the depth cap.
"""
from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import QuadratureFailure

# The error budget max(ABS_TOL, _REL_TOL*|first K21 estimate|) is halved at
# each bisection; _MAX_DEPTH caps how often a panel may be bisected.
_MAX_DEPTH = 28
ABS_TOL = 1e-12
_REL_TOL = 1e-11
_EPS = sys.float_info.epsilon

# (node x, K21 weight, G10 weight) for x >= 0, the rule mirrored on x < 0: the
# QUADPACK qk21 constants xgk, wgk, wg (Piessens et al., QUADPACK, Springer
# 1983) rounded to doubles.  G10 uses every second node and not the centre.
_GK21 = (
    (0.9956571630258081, 0.011694638867371874, 0.0),
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.2943928627014602, 0.14277593857706009, 0.0),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
    (0.0, 0.1494455540029169, 0.0),
)
_PAIRS, _CENTRE = _GK21[:-1], _GK21[-1][1]


def _gk21(f: Callable[[float], complex], lo: float,
          hi: float) -> tuple[complex, float, float]:
    """K21 over [lo, hi], |K21 - G10| and the rounding floor eps*|half|*sum w_K |f|."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fc = f(mid)
    kronrod, gauss, mag = _CENTRE * fc, 0.0, _CENTRE * abs(fc)
    for x, wk, wg in _PAIRS:
        f1 = f(mid - half * x)
        f2 = f(mid + half * x)
        s = f1 + f2
        kronrod += wk * s
        gauss += wg * s
        mag += wk * (abs(f1) + abs(f2))
    return half * kronrod, abs(half * (kronrod - gauss)), _EPS * abs(half) * mag


def adaptive_quad(f: Callable[[float], complex], a: float,
                  b: float) -> tuple[complex, float, int]:
    """Integrate f over [a, b]; returns (value, err_estimate, panel_count).

    panel_count counts every application of the rule.  Raises
    QuadratureFailure when a subinterval still misses its budget after
    _MAX_DEPTH bisections.
    """
    if a == b:
        return 0.0 + 0.0j, 0.0, 0
    first = _gk21(f, a, b)
    value, err, panels = 0.0 + 0.0j, 0.0, 1
    stack = [(a, b, first, max(ABS_TOL, _REL_TOL * abs(first[0])), 0)]
    while stack:
        lo, hi, (est, disc, floor), budget, depth = stack.pop()
        if disc <= budget or disc <= 1e-16 * abs(est):
            value += est
            err += disc + floor
        elif depth >= _MAX_DEPTH:
            raise QuadratureFailure(
                f"panel [{lo}, {hi}] still off by {disc:.3e} at depth {_MAX_DEPTH}")
        else:
            mid = 0.5 * (lo + hi)
            panels += 2
            stack.append((lo, mid, _gk21(f, lo, mid), budget / 2.0, depth + 1))
            stack.append((mid, hi, _gk21(f, mid, hi), budget / 2.0, depth + 1))
    return value, err, panels


def quad_segments(f: Callable[[float], complex], a: float,
                  T: float) -> tuple[complex, float, int]:
    """adaptive_quad over [a, T] on segments that double from length max(1, a)."""
    value = 0.0 + 0.0j
    err = 0.0
    panels = 0
    lo, seg = a, max(1.0, a)
    while lo < T:
        hi = min(lo + seg, T)
        v, e, p = adaptive_quad(f, lo, hi)
        value += v
        err += e
        panels += p
        lo, seg = hi, seg * 2.0
    return value, err, panels


def quad_decaying_tail(f: Callable[[float], complex], a: float, rate: float,
                       cutoff_scale: float = 1.0) -> tuple[complex, float, int]:
    """Integrate f over [a, oo) for |f(t)| <~ cutoff_scale * e^(-rate*t).

    Truncates at T where the exponential bound drops below the absolute
    tolerance ABS_TOL and integrates geometric segments adaptively.
    """
    if rate <= 0:
        raise QuadratureFailure("tail integral needs a positive decay rate")
    target = ABS_TOL * 0.1
    T = a + max(8.0, (math.log(max(cutoff_scale, 1e-300)) - math.log(target)) / rate)
    value, err, panels = quad_segments(f, a, T)
    return value, err + target, panels  # target: truncated tail allowance
