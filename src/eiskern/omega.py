"""The complete Omega function by five independent routes, with moments,
two-sided bounds, the large-x envelope, and the first-order ODE residual.

Omega(z) = 2 int_0^(1/2) sinh(z*u) cot(pi*u) du, entire and odd, equal to the
periodic Hilbert transform of the 1-periodized exponential evaluated at 0.

Route dispatch used elsewhere in the package: real z goes to the digamma
closed form (valid on all of R), complex z inside |z| < 0.9*2pi as well;
anything else is integrated.  The partial-fraction route exists for
verification.
"""
from __future__ import annotations

import cmath
import functools
import math

from .controls import Evaluation
from .errors import DomainError, NonConvergence, PoleError, StepError
from .hilbert_eisenstein import mathieu_E
from .numkern import PI, as_complex, bernoulli_number, coth, digamma, eta_odd, riemann_zeta
from .quadrature import adaptive_quad
from .summation import REL_TOL, alternating_sum

_TWO_PI = 2.0 * PI
_HEAD = 1e-3  # analytic head panel below which the integrand uses its series
_ZETA3 = riemann_zeta(3.0)  # shared by the bounds and the envelope
_LOG_SPACE_X = 1400.0  # sinh(x/2) overflows past x ~ 1420.9; beyond this, log space


def _sinh_half_over_pi(ax: float, factor: float) -> float:
    """sinh(ax/2)/pi * factor for ax >= 0, in log space for ax > 1400 so that
    only a product that is itself not a double raises (DomainError)."""
    if ax <= _LOG_SPACE_X:
        return math.sinh(0.5 * ax) / PI * factor
    if factor == 0.0:
        return 0.0
    try:
        mag = math.exp(0.5 * ax - math.log(_TWO_PI) + math.log(abs(factor)))
    except OverflowError:
        raise DomainError(f"Omega-scale value at x = {ax:g} is not representable "
                          "in double precision") from None
    return math.copysign(mag, factor)


def _require_re_in_range(z: complex) -> None:
    """The integrands and sinh(z/2) of the complex routes overflow past |Re z| ~ 1420."""
    if abs(z.real) > _LOG_SPACE_X:
        raise DomainError(f"this Omega route requires |Re z| <= {_LOG_SPACE_X:g}; "
                          "real z has the log-space digamma route")


def _real_brace(x: float) -> float:
    """The digamma brace of omega_digamma for real x, as a sum of real parts."""
    return (2.0 * math.log(2.0)
            + 2.0 * digamma(1.0 + 1j * x / (4.0 * PI)).real
            - 2.0 * digamma(1.0 + 1j * x / (2.0 * PI)).real)


def _definition_integrand(z: complex):
    def f(u: float) -> complex:
        return cmath.sinh(z * u) / math.tan(PI * u)
    return f


def _head_integral(z: complex, a: float) -> complex:
    # int_0^a sinh(zu)cot(pi u) du = (z/pi)[a + c2 a^3/3 + c4 a^5/5 + O(a^7 z^6)]
    c2 = z * z / 6.0 - PI * PI / 3.0
    c4 = z ** 4 / 120.0 - z * z * PI * PI / 18.0 - PI ** 4 / 45.0
    return (z / PI) * (a + c2 * a ** 3 / 3.0 + c4 * a ** 5 / 5.0)


def omega_quadrature(z) -> Evaluation:
    """Adaptive quadrature of the definition; the u -> 0 panel is analytic."""
    z = as_complex(z)
    _require_re_in_range(z)
    if z == 0:
        return Evaluation(0.0 + 0.0j, 0.0, 0, "quadrature")
    head = _head_integral(z, _HEAD)
    body, err, panels = adaptive_quad(_definition_integrand(z), _HEAD, 0.5)
    head_err = abs(z) ** 7 * _HEAD ** 7 / 5040.0 + abs(z) * PI ** 5 * _HEAD ** 7
    return Evaluation(2.0 * (head + body), 2.0 * err + 2.0 * head_err, panels, "quadrature")


def omega_digamma(z) -> complex:
    """Closed form (1/pi) sinh(z/2) {2 log 2 + psi(1+iz/4pi) + psi(1-iz/4pi)
    - psi(1+iz/2pi) - psi(1-iz/2pi)}; all real z, complex z only inside |z| < 2pi.

    Real |z| > 1400 is computed in log space; DomainError where Omega(z) is
    not a double."""
    z = as_complex(z)
    if z.imag != 0.0 and abs(z) >= _TWO_PI:
        raise DomainError("digamma route for complex z requires |z| < 2*pi; "
                          "use the quadrature or partial-fraction route")
    if z == 0:
        return 0.0 + 0.0j
    if z.imag == 0.0 and abs(z.real) > _LOG_SPACE_X:
        v = _sinh_half_over_pi(abs(z.real), _real_brace(z.real))
        return complex(v if z.real > 0 else -v)
    brace = (2.0 * math.log(2.0)
             + digamma(1.0 + 1j * z / (4.0 * PI)) + digamma(1.0 - 1j * z / (4.0 * PI))
             - digamma(1.0 + 1j * z / (2.0 * PI)) - digamma(1.0 - 1j * z / (2.0 * PI)))
    return cmath.sinh(0.5 * z) / PI * brace


def omega_partial_fraction(z) -> Evaluation:
    """Partial-fraction route: Omega(z) = (2/pi) sinh(z/2) sum_k (-1)^(k-1) k/(w^2+k^2)
    with w = z/(2 pi); poles where w hits i*Z minus 0."""
    z = as_complex(z)
    _require_re_in_range(z)
    w = z / _TWO_PI
    k = round(w.imag)
    if k != 0 and abs(w - 1j * k) < 1e-10:
        raise PoleError(f"partial-fraction route has a pole at z = {1j * k * _TWO_PI}")
    if z == 0:
        return Evaluation(0.0 + 0.0j, 0.0, 0, "partial-fraction")
    w2 = w * w
    s, err, used = alternating_sum(lambda k: k / (w2 + k * k))
    pref = 2.0 / PI * cmath.sinh(0.5 * z)
    return Evaluation(pref * s, abs(pref) * err, used, "partial-fraction")


# ---------------------------------------------------------------------------
# moments and the Taylor routes

# Cached up to the largest k asked for: omega_taylor stops at k < 400, the
# closed moment route adds the caller's k.
@functools.cache
def _taylor_coefficient(k: int) -> float:
    # coefficient of z^(2k+1): 4^(-k) sum_{n<=k} (-1)^n eta(2n+1) / (pi^(2n+1) (2(k-n)+1)!)
    s = 0.0
    for n in range(k + 1):
        s += (-1.0) ** n * eta_odd(n) / (PI ** (2 * n + 1) * math.factorial(2 * (k - n) + 1))
    return s / 4.0 ** k


def omega_moment(k: int, route: str = "closed") -> float:
    """Odd moment Omega_(2k+1) = 2 int_0^(1/2) u^(2k+1) cot(pi u) du.

    route "closed": the finite eta combination (2k+1)!/4^k * sum_n ...;
    route "quadrature": the defining integral;
    route "series": (4^(-k)/pi)[1/(2k+1) + sum_n (-1)^n B_2n pi^(2n)/((2n)!(2k+2n+1))].
    """
    if k < 0:
        raise DomainError("moment index must be >= 0")
    if route == "closed":
        return math.factorial(2 * k + 1) * _taylor_coefficient(k)
    if route == "quadrature":
        def f(u: float) -> complex:
            return u ** (2 * k + 1) / math.tan(PI * u)
        head = _HEAD ** (2 * k + 1) / (PI * (2 * k + 1)) \
            - PI * _HEAD ** (2 * k + 3) / (3.0 * (2 * k + 3))
        body, _, _ = adaptive_quad(f, _HEAD, 0.5)
        return 2.0 * (head + body.real)
    if route == "series":
        s = 1.0 / (2 * k + 1)
        n = 0
        term = 1.0
        while abs(term) > 1e-18 and n < 60:
            n += 1
            b = float(bernoulli_number(2 * n))
            term = (-1.0) ** n * b * PI ** (2 * n) / (math.factorial(2 * n) * (2 * k + 2 * n + 1))
            s += term
        return s / (4.0 ** k * PI)
    raise DomainError(f"unknown moment route {route!r}")


def omega_taylor(z, variant: str = "eta") -> Evaluation:
    """Taylor routes on |z| < 2pi.

    variant "moments": sum_k Omega_(2k+1) z^(2k+1)/(2k+1)! with closed-form
    moments; variant "eta": the rearranged double sum with explicit eta
    coefficients.  The two coefficient sets are algebraically identical,
    which the moment tests pin down numerically.
    """
    if variant not in ("moments", "eta"):
        raise DomainError(f"unknown taylor variant {variant!r}")
    z = as_complex(z)
    if abs(z) >= _TWO_PI:
        raise DomainError("taylor routes require |z| < 2*pi")
    if z == 0:
        return Evaluation(0.0 + 0.0j, 0.0, 0, f"taylor-{variant}")
    total = 0.0 + 0.0j
    zp = z
    z2 = z * z
    ratio = abs(z2) / (4.0 * PI * PI)
    k = 0
    while k < 400:
        if variant == "moments":
            coeff = omega_moment(k, "closed") / math.factorial(2 * k + 1)
        else:
            coeff = _taylor_coefficient(k)
        t = coeff * zp
        total += t
        zp *= z2
        k += 1
        if k >= 4 and abs(t) <= REL_TOL * max(1e-300, abs(total)):
            tail = abs(t) * ratio / max(1e-12, 1.0 - ratio)
            return Evaluation(total, tail, k, f"taylor-{variant}")
    raise NonConvergence("omega_taylor: term budget exhausted")


# ---------------------------------------------------------------------------
# bounds, envelope, ODE residual, PV fold

def omega_bounds(x: float) -> tuple[float, float]:
    """Two-sided sinh-log bounds; the pair swaps for negative x.

    lower = (1/pi) sinh(x/2) log((zeta(3) x^2 + 8 pi^2)/(3 x^2 + 2 pi^2)),
    upper the same with numerator/denominator coefficient pattern swapped.
    Computed in log space for |x| > 1400; DomainError where a bound is not a
    double.
    """
    x = float(x)
    if x == 0.0:
        return 0.0, 0.0
    ax = abs(x)
    lo = _sinh_half_over_pi(
        ax, math.log((_ZETA3 * ax * ax + 8.0 * PI * PI) / (3.0 * ax * ax + 2.0 * PI * PI)))
    hi = _sinh_half_over_pi(
        ax, math.log((3.0 * ax * ax + 8.0 * PI * PI) / (_ZETA3 * ax * ax + 2.0 * PI * PI)))
    if x > 0:
        return lo, hi
    return -hi, -lo


def omega_asymptotic_envelope(x: float) -> tuple[float, float, float]:
    """Envelope coefficients for Omega(x)/e^(x/2) at large x plus the measured ratio.

    Returns ((1/2pi) log(zeta(3)/3), (1/2pi) log(3/zeta(3)), ratio) where the
    ratio is computed overflow-free as (1 - e^(-x))/(2 pi) * brace(x) through
    the digamma route; membership in [lo, hi] is the checkable claim, the
    measured ratio itself is report-only.
    """
    x = float(x)
    if x < 10.0:
        raise DomainError("envelope check is defined for x >= 10")
    lo_coef = math.log(_ZETA3 / 3.0) / _TWO_PI
    hi_coef = math.log(3.0 / _ZETA3) / _TWO_PI
    ratio = -math.expm1(-x) / (2.0 * PI) * _real_brace(x)
    return lo_coef, hi_coef, ratio


def omega_ode_residual(x: float, h: float) -> float:
    """Residual of the first-order ODE solved by Omega.

    |Omega'(x) - (1/2) coth(x/2) Omega(x) + (x/(2 pi^3)) sinh(x/2) E(x/(2 pi))|
    with Omega' a central difference of the digamma route and E the
    alternating Mathieu forcing from mathieu_E.  At x = 0 every piece is
    replaced by its limit, with E(0) = 2 eta(3) entering the (vanishing)
    forcing term.
    """
    if not (1e-7 <= h <= 1e-3):
        raise StepError("step h must lie in [1e-7, 1e-3]")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    d_omega = (omega_digamma(x + h) - omega_digamma(x - h)).real / (2.0 * h)
    if abs(x) < 1e-8:
        x_lim = 1e-6
        damp = 0.5 * coth(0.5 * x_lim).real * omega_digamma(x_lim).real
        forcing = (x / PI ** 3) * math.sinh(0.5 * x) * mathieu_E(0.0).value.real
        return abs(d_omega - damp + forcing)
    damp = 0.5 * coth(0.5 * x).real * omega_digamma(x).real
    e_val = mathieu_E(x / _TWO_PI).value.real
    forcing = (x / (2.0 * PI ** 3)) * math.sinh(0.5 * x) * e_val
    return abs(d_omega - damp + forcing)


def omega_eval(z) -> Evaluation:
    """Default route dispatch: digamma for real z and for complex |z| < 0.9*2pi
    (measured to be the cheapest accurate representation there), quadrature
    beyond; the partial-fraction and Taylor routes stay verification-only."""
    z = as_complex(z)
    if z.imag == 0.0 or abs(z) < 0.9 * _TWO_PI:
        val = omega_digamma(z)
        return Evaluation(val, 8e-16 * max(1.0, abs(val)), 0, "digamma")
    return omega_quadrature(z)


def omega_pv_hilbert(z) -> Evaluation:
    """Principal-value Hilbert-transform form, folded onto [0, 1/2].

    PV int_(-1/2)^(1/2) e^(zu) cot(pi u) du  =  int_0^(1/2) (e^(zu) - e^(-zu)) cot(pi u) du,
    evaluated without rewriting the difference as 2 sinh so the fold stays an
    independent code path.
    """
    z = as_complex(z)
    _require_re_in_range(z)
    if z == 0:
        return Evaluation(0.0 + 0.0j, 0.0, 0, "pv-fold")

    def f(u: float) -> complex:
        return (cmath.exp(z * u) - cmath.exp(-z * u)) / math.tan(PI * u)

    head = 2.0 * _head_integral(z, _HEAD)  # same series limit as the definition
    body, err, panels = adaptive_quad(f, _HEAD, 0.5)
    return Evaluation(head + body, err + 4e-16 * abs(head), panels, "pv-fold")
