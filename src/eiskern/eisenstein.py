"""Classical Eisenstein series by four independent routes.

eps_r(z) = sum_{k in Z} (z+k)^(-r) with poles on the integers; the r = 1
series carries the symmetric (Eisenstein) summation convention and equals
pi*cot(pi*z).  Routes: symmetric partial sums with Richardson extrapolation,
trigonometric closed forms (r <= 3), the polygamma reflection combination,
and the strip-reduced exponential/hyperbolic integral representation.
"""
from __future__ import annotations

import cmath
import math
import sys

from .controls import Evaluation
from .errors import NonConvergence, PoleError, StripError, UnsupportedOrder
from .numkern import PI, as_complex, cot, digamma, polygamma
from .quadrature import ABS_TOL, quad_segments
from .summation import REL_TOL, richardson_limit

_EPS = sys.float_info.epsilon
INTEGER_GUARD = 1e-10  # hard floor; verification grids keep distance >= 0.05


def _guard_integer(z: complex, guard: float = INTEGER_GUARD) -> None:
    n = round(z.real)
    if abs(z - n) < guard:
        raise PoleError(f"eisenstein series has a pole at the integer {n}")


def _require_order(r: int) -> None:
    if r < 1:
        raise UnsupportedOrder("order r must be a positive integer")


def eisenstein_direct(r: int, z) -> Evaluation:
    """Symmetric partial sums of the defining series.

    r = 1 uses the paired-term form 1/z + sum_k 2z/(z^2 - k^2) whose tail is
    O(1/N); r >= 2 pairs (z+k)^(-r) + (z-k)^(-r).  The partial sums at
    N = 8*2^j, j <= 11 (at most 16384 terms) are Richardson-extrapolated
    until the tableau diagonal moves by at most REL_TOL; err_estimate is that
    last correction plus the rounding floor N*eps*|value|.  NonConvergence
    when that correction at 16384 terms still exceeds
    max(REL_TOL*|value|, 1e-14*max(1, |value|)).
    """
    _require_order(r)
    z = as_complex(z)
    _guard_integer(z)

    if r == 1:
        z2 = z * z
        term = lambda k: 2.0 * z / (z2 - k * k)
        first = 1.0 / z
    else:
        term = lambda k: (z + k) ** (-r) + (z - k) ** (-r)
        first = z ** (-r)

    value, err, used = richardson_limit(term, 8, 11, first=first, rel_tol=REL_TOL)
    # err includes the rounding floor; convergence is judged on the truncation part
    tol = max(REL_TOL * abs(value), 1e-14 * max(1.0, abs(value)))
    if err > tol + used * _EPS * abs(value):
        raise NonConvergence(f"eisenstein_direct(r={r}): err {err:.2e} after {used} terms")
    return Evaluation(value, err, used, "direct")


def eisenstein_closed(r: int, z) -> complex:
    """Trigonometric closed forms: pi*cot, pi^2/sin^2, pi^3*cot/sin^2."""
    _require_order(r)
    z = as_complex(z)
    _guard_integer(z)
    if r > 3:
        raise UnsupportedOrder("closed trigonometric forms exist for r in {1, 2, 3} only")
    w = PI * z
    if r == 1:
        return PI * cot(w)
    try:
        s = cmath.sin(w)
        s2 = s * s
    except OverflowError:
        s2 = math.inf
    if not cmath.isfinite(s2):
        # 1/sin^2(w) = -4q/(1-q)^2 with q = e^(+-2iw), |q| <= 1: underflows instead
        q = cmath.exp(2j * w if w.imag >= 0 else -2j * w)
        inv_s2 = -4.0 * q / (1.0 - q) ** 2
        return PI * PI * inv_s2 if r == 2 else PI ** 3 * cot(w) * inv_s2
    if r == 2:
        return PI * PI / s2
    return PI ** 3 * cot(w) / s2


def eisenstein_polygamma(r: int, z) -> complex:
    """eps_r(z) = [psi_(r-1)(1-z) + (-1)^r psi_(r-1)(z)] / (r-1)!, psi_0 = psi."""
    _require_order(r)
    z = as_complex(z)
    _guard_integer(z)
    if r == 1:
        return digamma(1.0 - z) - digamma(z)
    g = math.factorial(r - 1)
    return (polygamma(r - 1, 1.0 - z) + (-1.0) ** r * polygamma(r - 1, z)) / g


def _strip_reduce(z: complex) -> complex:
    return z - math.floor(z.real)


def _integrand_factory(r: int, zeta: complex, form: str):
    """Integrand t^(r-1)/(e^t - 1) * (e^(-zeta*t) + (-1)^r e^(zeta*t)), overflow-safe.

    Both exponents are regrouped through e^(-t) so every exponential has a
    non-positive real part for Re zeta in [0, 1); the hyperbolic form keeps
    the cosh/sinh split explicit and switches to exponential halves once
    |Re zeta|*t could overflow.
    """
    even = (r % 2 == 0)

    def exponential(t: float) -> complex:
        if t == 0.0:
            t = 1e-300
        den = -math.expm1(-t)  # 1 - e^-t, exact for small t
        if (not even) and abs(zeta) * t < 0.5:
            num = -2.0 * math.exp(-t) * cmath.sinh(zeta * t)
        else:
            num = cmath.exp(-(1.0 + zeta) * t) + (-1.0) ** r * cmath.exp(-(1.0 - zeta) * t)
        return t ** (r - 1) * num / den

    def hyperbolic(t: float) -> complex:
        if t == 0.0:
            t = 1e-300
        den = -math.expm1(-t)
        if abs(zeta.real) * t > 600.0:
            num = cmath.exp(-(1.0 + zeta) * t) + (-1.0) ** r * cmath.exp(-(1.0 - zeta) * t)
        elif even:
            num = 2.0 * math.exp(-t) * cmath.cosh(zeta * t)
        else:
            num = -2.0 * math.exp(-t) * cmath.sinh(zeta * t)
        return t ** (r - 1) * num / den

    return hyperbolic if form == "hyperbolic" else exponential


def eisenstein_integral(r: int, z, form: str = "exponential") -> Evaluation:
    """Strip-reduced integral representation.

    eps_r(z) = zeta^(-r) + (1/(r-1)!) int_0^oo t^(r-1)/(e^t-1)
               (e^(-zeta t) + (-1)^r e^(zeta t)) dt,   zeta = z - floor(Re z).

    The hyperbolic form replaces the bracket by 2cosh(zeta t) (r even) or
    -2sinh(zeta t) (r odd).  The tail is truncated where the bound
    t^(r-1) e^((|Re zeta|-1) t) falls below the quadrature tolerance.
    """
    _require_order(r)
    if form not in ("exponential", "hyperbolic"):
        raise ValueError("form must be 'exponential' or 'hyperbolic'")
    z = as_complex(z)
    _guard_integer(z)
    zeta = _strip_reduce(z)
    if zeta.real == 0.0 and z.imag == 0.0:
        raise StripError("strip reduction landed on the pole line Re zeta = 0 with real z")
    # Fold Re zeta > 1/2 through eps_r(w) = (-1)^r eps_r(1-w): the integrand's
    # oscillatory amplitude grows like e^(Re zeta * t), so the half-strip is
    # the well-conditioned side.
    sign = 1.0
    if zeta.real > 0.5:
        zeta = 1.0 - zeta
        sign = (-1.0) ** r

    f = _integrand_factory(r, zeta, form)
    g = math.factorial(r - 1)
    rate = 1.0 - abs(zeta.real)  # decay of the slower exponential
    T = _tail_cutoff(r, rate)
    value, err, panels = quad_segments(f, 0.0, T)
    tail_bound = 2.0 * T ** (r - 1) * math.exp(-rate * T) / rate
    total = sign * (zeta ** (-r) + value / g)
    return Evaluation(total, err / g + tail_bound / g, panels, f"integral-{form}")


def _tail_cutoff(r: int, rate: float) -> float:
    if rate <= 0:
        raise StripError("strip reduction produced |Re zeta| >= 1")
    T = max(30.0 / rate, 8.0)
    for _ in range(40):
        bound = 2.0 * T ** (r - 1) * math.exp(-rate * T) / rate
        if bound < 0.05 * ABS_TOL:
            break
        T *= 1.5
    return T


def product_identity_residual(r: int, z) -> complex:
    """eps_(r+2)(z) - eps_(r+1)(z)*eps_r(z), each factor by its best route.

    Closed trigonometric forms are used through order 3, the polygamma
    representation above.  Identically ~0 only for r = 1.
    """
    _require_order(r)
    z = as_complex(z)
    _guard_integer(z)

    def best(order: int) -> complex:
        if order <= 3:
            return eisenstein_closed(order, z)
        return eisenstein_polygamma(order, z)

    return best(r + 2) - best(r + 1) * best(r)
