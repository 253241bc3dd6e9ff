"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

Every panel applies one embedded pair: the 21-point Kronrod rule K21, whose
nodes contain those of the 10-point Gauss rule G10 (Kronrod 1965).  A panel
costs 21 integrand calls and returns K21 as its value and |K21 - G10| as its
error.  A panel is accepted when that error falls below its share of the
tolerance budget or within 1024 rounding floors eps*|half-width|*sum w_K |f|, where a
cancelling integrand gains nothing from a bisection, and is bisected otherwise; the
reported error adds the floor to each accepted |K21 - G10|.  Integrals to infinity
have one tail rule, quad_decaying_tail: the caller states a majorant, and only this
module picks the truncation point.
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
        if disc <= budget or disc <= 1024.0 * floor:
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


def quad_decaying_tail(f: Callable[[float], complex], a: float, rate: float,
                       power: float = 0.0, log_scale: float = 0.0) -> tuple[complex, float, int]:
    """Integrate f over [a, oo) for |f(t)| <= e^log_scale t^power e^(-rate t)/(1 - e^-t).

    t^power e^(-rate t) is log-concave, so past T it stays below its tangent
    exponential and the tail over [T, oo) is at most e^log_scale times
    tail(T) = T^power e^(-rate T)/(slope (1 - e^-T)), slope = rate - power/T.
    T starts at a + max(8, 30/rate) and grows by 1.5 until tail(T) < ABS_TOL/40;
    [a, T] is integrated by adaptive_quad on segments that double from length
    max(1, a), and e^log_scale tail(T) joins the error.
    """
    if rate <= 0:
        raise QuadratureFailure("tail integral needs a positive decay rate")
    T = a + max(8.0, 30.0 / rate)
    # The cut ignores log_scale.  A cut on the scaled tail shortens T wherever the
    # scale is below 1, as the 2/(r-1)! of the Eisenstein integrand is for r >= 3,
    # and there the worst error on the strip grids (seeds default, 1, 2; r <= 6)
    # grows from 1.5e-13 to 2.7e-13 relative against 30-digit mpmath.
    for _ in range(40):
        slope = rate - power / T
        if slope > 0.0:
            log_tail = power * math.log(T) - rate * T - math.log(slope * -math.expm1(-T))
            if log_tail < math.log(ABS_TOL / 40.0):
                break
        T *= 1.5
    else:
        raise QuadratureFailure(f"no cut with a tail below {ABS_TOL / 40.0:.1e} up to T = {T:.3e}")
    value, err, panels = 0.0 + 0.0j, 0.0, 0
    lo, seg = a, max(1.0, a)
    while lo < T:
        hi = min(lo + seg, T)
        v, e, p = adaptive_quad(f, lo, hi)
        value += v
        err += e
        panels += p
        lo, seg = hi, seg * 2.0
    return value, err + math.exp(log_scale + log_tail), panels
