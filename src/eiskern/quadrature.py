"""Adaptive Gauss-Legendre quadrature for complex-valued integrands.

The a posteriori error convention is the two-level panel difference: a panel
is accepted when |GL(a,b) - GL(a,m) - GL(m,b)| falls below its share of the
tolerance budget, and the accepted differences accumulate into the reported
error estimate.  Every panel uses one 20-point rule, computed at import in
plain floats.
"""
from __future__ import annotations

import math
from typing import Callable

from .controls import QuadControl, DEFAULT_QUAD
from .errors import QuadratureFailure


def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Ascending nodes and weights of the n-point rule, by Newton on P_n."""
    def legendre(x: float) -> tuple[float, float]:
        # P_n(x) by the three-term recurrence, then P_n'(x) from P_n and P_(n-1)
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    xs, ws = [], []
    for i in range(n):
        x = -math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(6):  # quadratic convergence from a start within ~1e-3
            p, dp = legendre(x)
            x -= p / dp
        dp = legendre(x)[1]
        xs.append(x)
        ws.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple(xs), tuple(ws)


_XS, _WS = _gauss_legendre(20)


def _panel(f: Callable[[float], complex], a: float, b: float) -> complex:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0 + 0.0j
    for x, w in zip(_XS, _WS):
        total += w * f(mid + half * x)
    return half * total


def adaptive_quad(f: Callable[[float], complex], a: float, b: float,
                  ctl: QuadControl = DEFAULT_QUAD) -> tuple[complex, float, int]:
    """Integrate f over [a, b]; returns (value, err_estimate, panel_count).

    Raises QuadratureFailure when a subinterval still misses its budget at
    ctl.max_depth.
    """
    if a == b:
        return 0.0 + 0.0j, 0.0, 0
    rough = _panel(f, a, b)
    tol = max(ctl.abs_tol, ctl.rel_tol * abs(rough))
    value = 0.0 + 0.0j
    err = 0.0
    panels = 0
    stack = [(a, b, rough, tol, 0)]
    while stack:
        lo, hi, coarse, budget, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        fine = left + right
        disc = abs(fine - coarse)
        panels += 2
        if disc <= budget or disc <= 1e-16 * abs(fine):
            value += fine
            err += disc
        elif depth >= ctl.max_depth:
            raise QuadratureFailure(
                f"panel [{lo}, {hi}] still off by {disc:.3e} at max_depth={ctl.max_depth}")
        else:
            stack.append((lo, mid, left, budget / 2.0, depth + 1))
            stack.append((mid, hi, right, budget / 2.0, depth + 1))
    return value, err, panels


def quad_decaying_tail(f: Callable[[float], complex], a: float, rate: float,
                       ctl: QuadControl = DEFAULT_QUAD,
                       cutoff_scale: float = 1.0) -> tuple[complex, float, int]:
    """Integrate f over [a, oo) for |f(t)| <~ cutoff_scale * e^(-rate*t).

    Truncates at T where the exponential bound drops below the absolute
    tolerance and integrates geometric segments adaptively.
    """
    if rate <= 0:
        raise QuadratureFailure("tail integral needs a positive decay rate")
    target = ctl.abs_tol * 0.1
    T = a + max(8.0, (math.log(max(cutoff_scale, 1e-300)) - math.log(target)) / rate)
    value = 0.0 + 0.0j
    err = 0.0
    panels = 0
    lo = a
    seg = max(1.0, a)
    while lo < T:
        hi = min(lo + seg, T)
        v, e, p = adaptive_quad(f, lo, hi, ctl)
        value += v
        err += e
        panels += p
        lo = hi
        seg *= 2.0
    err += target  # truncated tail allowance
    return value, err, panels
