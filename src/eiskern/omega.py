"""The complete Omega function by five independent routes, with moments,
two-sided bounds, the large-x envelope, and the first-order ODE residual.

Omega(z) = 2 int_0^(1/2) sinh(z*u) cot(pi*u) du, entire and odd, equal to the
periodic Hilbert transform of the 1-periodized exponential evaluated at 0, and
-(i/pi) sinh(z/2) h_1(z/2pi): the digamma and partial-fraction routes scale the h_1
routes of hilbert_eisenstein; quadrature, Taylor and the PV fold are computed here.

The quadrature route is eval's default; the others exist for verification, and
the digamma closed form alone reaches real |x| past 1400 (in log space).
"""
from __future__ import annotations

import cmath
import functools
import math
import sys

from .errors import DomainError, Evaluation, StepError, doubles_only
from .hilbert_eisenstein import _h1_brace, he_direct, mathieu_E
from .numkern import PI, as_complex, as_index, bernoulli_number, coth, eta_odd, riemann_zeta
from .quadrature import adaptive_quad
from .summation import power_series

_TWO_PI = 2.0 * PI
_EPS = sys.float_info.epsilon
_ZETA3 = riemann_zeta(3.0)  # shared by the bounds and the envelope
_ENVELOPE_LO = math.log(_ZETA3 / 3.0) / _TWO_PI
_ENVELOPE_HI = math.log(3.0 / _ZETA3) / _TWO_PI
_LOG_SPACE_X = 1400.0  # sinh(x/2) overflows past x ~ 1420.9; beyond this, log space
_CLOSED_MOMENT_K = 5  # largest k for which the closed moment route keeps 11 digits


@doubles_only("Omega-scale value at x = {ax:g} is not representable in double precision")
def _sinh_half_over_pi(ax: float, factor: float) -> float:
    """sinh(ax/2)/pi * factor for ax >= 0, in log space for ax > 1400; DomainError there
    where the product is not a double, or where the factor is 0 or nan (a brace that
    rounded to 0, a ratio of overflowed terms), which leaves the product unknown."""
    if ax <= _LOG_SPACE_X:
        return math.sinh(0.5 * ax) / PI * factor
    if not 0.0 < abs(factor) < math.inf:
        raise DomainError(f"Omega-scale value at x = {ax:g} is not a double: its factor "
                          f"of sinh(x/2)/pi evaluates to {factor}")
    return math.copysign(math.exp(0.5 * ax - math.log(_TWO_PI) + math.log(abs(factor))), factor)


def _require_re_in_range(z: complex) -> None:
    """The integrands and sinh(z/2) of the complex routes overflow past |Re z| ~ 1420."""
    if abs(z.real) > _LOG_SPACE_X:
        raise DomainError(f"this Omega route requires |Re z| <= {_LOG_SPACE_X:g}; "
                          "real z has the log-space digamma route")


def omega_quadrature(z) -> Evaluation:
    """Adaptive quadrature of the definition over [0, 1/2]; the rule never samples
    u = 0, where sinh(zu) cot(pi u) tends to z/pi.  The claim adds eps/2 |z| |value| to
    the panel errors for the rounding of z*u inside sinh, which grows with |Re z|.
    At z = 0 one panel gives 0, claim 0."""
    z = as_complex(z)
    _require_re_in_range(z)
    value, err, panels = adaptive_quad(lambda u: cmath.sinh(z * u) / math.tan(PI * u), 0.0, 0.5)
    value *= 2.0
    return Evaluation(value, 2.0 * err + 0.5 * _EPS * abs(z) * abs(value), panels, "quadrature")


def omega_digamma(z) -> complex:
    """Closed form (1/pi) sinh(z/2) {2 log 2 + psi(1+iz/4pi) + psi(1-iz/4pi)
    - psi(1+iz/2pi) - psi(1-iz/2pi)}, the brace being -i h_1(z/2pi) from
    hilbert_eisenstein._h1_brace; all real z, complex z only inside |z| < 2pi.

    Real |z| > 1400 is computed in log space; DomainError where Omega(z) is
    not a double."""
    return _omega_digamma(as_complex(z))[0]


def _omega_digamma(z: complex) -> tuple[complex, float]:
    """omega_digamma(z) and the rounding bound of its brace,
    8 eps |sinh(z/2)|/pi (2 log 2 + sum |psi|) + eps |value|, from the same four psi."""
    if z.imag != 0.0 and abs(z) >= _TWO_PI:
        raise DomainError("digamma route for complex z requires |z| < 2*pi; "
                          "use the quadrature or partial-fraction route")
    brace, rounding = _h1_brace(z / _TWO_PI)
    if z.imag == 0.0 and abs(z.real) > _LOG_SPACE_X:
        v = _sinh_half_over_pi(abs(z.real), brace.real)
        # |sinh(x/2)|/pi = |v/brace|, which need not be a double where v is
        return complex(v if z.real > 0 else -v), abs(v) * (rounding / abs(brace.real) + _EPS)
    scale = cmath.sinh(0.5 * z) / PI
    value = scale * brace
    return value, abs(scale) * rounding + _EPS * abs(value)


def omega_partial_fraction(z) -> Evaluation:
    """Partial-fraction route: Omega(z) = (2/pi) sinh(z/2) sum_k (-1)^(k-1) k/(w^2+k^2)
    with w = z/(2 pi), the sum being -(i/2) h_1(w) from hilbert_eisenstein.he_direct
    (its pole guard and domain |Im w| < 4096).  The error is |(2/pi) sinh(z/2)| times
    he_direct's, twice the propagated error, which covers the rounding of w."""
    z = as_complex(z)
    _require_re_in_range(z)
    h = he_direct(1, z / _TWO_PI)
    pref = 2.0 / PI * cmath.sinh(0.5 * z)
    return Evaluation(pref * (-0.5j * h.value), abs(pref) * h.err_estimate, h.terms_used,
                      "partial-fraction")


# ---------------------------------------------------------------------------
# moments and the Taylor routes

# Both coefficient tables are cached up to the largest k that omega_taylor
# asks for; the closed moment route adds k <= _CLOSED_MOMENT_K.
@functools.cache
def _taylor_coefficient(k: int) -> float:
    # coefficient of z^(2k+1): 4^(-k) sum_{n<=k} (-1)^n eta(2n+1) / (pi^(2n+1) (2(k-n)+1)!)
    s = 0.0
    for n in range(k + 1):
        s += (-1.0) ** n * eta_odd(n) / (PI ** (2 * n + 1) * math.factorial(2 * (k - n) + 1))
    return s / 4.0 ** k


@functools.cache
def _moment_coefficient(k: int) -> float:
    # the same coefficient Omega_(2k+1)/(2k+1)! from the Bernoulli series
    return omega_moment(k, "series") / math.factorial(2 * k + 1)


def omega_moment(k: int, route: str = "closed") -> float:
    """Odd moment Omega_(2k+1) = 2 int_0^(1/2) u^(2k+1) cot(pi u) du.

    route "closed": the finite eta combination (2k+1)!/4^k * sum_n ..., k <= 5;
    its alternating sum cancels (relative error 7.9e-12 at k = 5, 1.5e-7 at
    k = 8), so larger k raise DomainError;
    route "quadrature": the defining integral;
    route "series": (4^(-k)/pi)[1/(2k+1) + sum_n (-1)^n B_2n pi^(2n)/((2n)!(2k+2n+1))],
    k <= 511.
    """
    k = as_index(k, 0, "moment index must be >= 0")
    if route == "closed":
        if k > _CLOSED_MOMENT_K:
            raise DomainError(f"closed moment route requires k <= {_CLOSED_MOMENT_K} "
                              "(it cancels to few digits beyond); use route 'series'")
        return math.factorial(2 * k + 1) * _taylor_coefficient(k)
    if route == "quadrature":
        return 2.0 * adaptive_quad(lambda u: u ** (2 * k + 1) / math.tan(PI * u), 0.0, 0.5)[0].real
    if route == "series":
        if k > 511:  # 4^512 = 2^1024 overflows
            raise DomainError(f"series moment route requires k <= 511, where 4^k is a double; got {k}")
        # B_2n/(2n)! = 2 (-1)^(n+1) zeta(2n)/(2 pi)^(2n): the terms in pi^2 shrink by at most 1/4
        s, _, _ = power_series(lambda n: (-1) ** n * float(bernoulli_number(2 * n) / math.factorial(2 * n))
                               / (2 * k + 2 * n + 1), PI * PI, 0.25)
        return s.real / (4.0 ** k * PI)
    raise DomainError(f"unknown moment route {route!r}")


def omega_taylor(z, variant: str = "eta") -> Evaluation:
    """Taylor routes on |z| < 2pi.

    variant "moments": sum_k Omega_(2k+1) z^(2k+1)/(2k+1)! with the moments
    from their Bernoulli series; variant "eta": the rearranged double sum with
    explicit eta coefficients.  The two coefficient sets are computed
    independently (Bernoulli numbers against eta(2n+1)), so their agreement
    is a check of both.  At z = 0 the series stops after its 4 terms at 0, claim 0.
    """
    if variant not in ("moments", "eta"):
        raise DomainError(f"unknown taylor variant {variant!r}")
    z = as_complex(z)
    if abs(z) >= _TWO_PI:
        raise DomainError("taylor routes require |z| < 2*pi")
    coefficient = _moment_coefficient if variant == "moments" else _taylor_coefficient
    z2 = z * z
    s, err, used = power_series(coefficient, z2, abs(z2) / (4.0 * PI * PI))
    return Evaluation(z * s, abs(z) * err, used, f"taylor-{variant}")


# ---------------------------------------------------------------------------
# bounds, envelope, ODE residual, PV fold

def omega_bounds(x: float) -> tuple[float, float]:
    """Two-sided sinh-log bounds; the pair swaps for negative x.

    lower = (1/pi) sinh(x/2) log((zeta(3) x^2 + 8 pi^2)/(3 x^2 + 2 pi^2)),
    upper the same with numerator/denominator coefficient pattern swapped.
    Computed in log space for |x| > 1400; DomainError where a bound is not a
    double.  At x = 0 (either sign) sinh(0) makes both bounds 0.
    """
    x = float(x)
    ax = abs(x)
    lo = _sinh_half_over_pi(
        ax, math.log((_ZETA3 * ax * ax + 8.0 * PI * PI) / (3.0 * ax * ax + 2.0 * PI * PI)))
    hi = _sinh_half_over_pi(
        ax, math.log((3.0 * ax * ax + 8.0 * PI * PI) / (_ZETA3 * ax * ax + 2.0 * PI * PI)))
    if x >= 0:
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
    if not 10.0 <= x < math.inf:  # inf and nan have no envelope value either
        raise DomainError(f"envelope check is defined for finite x >= 10, got {x}")
    ratio = -math.expm1(-x) / (2.0 * PI) * _h1_brace(x / _TWO_PI)[0].real
    return _ENVELOPE_LO, _ENVELOPE_HI, ratio


def omega_log_envelope(x: float) -> tuple[float, float, float]:
    """Logs of |lower| and upper envelope, e^(x/2) times each coefficient, and
    of the approximant hi*sinh(x/2), overflow-free at any large x."""
    x = float(x)
    if not 10.0 <= x < math.inf:  # inf and nan have no envelope value either
        raise DomainError(f"envelope check is defined for finite x >= 10, got {x}")
    log_hi = math.log(_ENVELOPE_HI)
    return (0.5 * x + math.log(-_ENVELOPE_LO), 0.5 * x + log_hi,
            log_hi + 0.5 * x + math.log1p(-math.exp(-x)) - math.log(2.0))


def omega_ode_residual(x: float, h: float) -> float:
    """Residual of the first-order ODE solved by Omega.

    |Omega'(x) - (1/2) coth(x/2) Omega(x) + (x/(2 pi^3)) sinh(x/2) E(x/(2 pi))|
    with Omega' a central difference of the digamma route and E the
    alternating Mathieu forcing from mathieu_E.  For |x| < 1e-8 the damping
    term coth(x/2) Omega(x) is taken at x = 1e-6, near its limit; the one
    forcing formula holds for every x, with mathieu_E's continuity value there.
    """
    if not (1e-7 <= h <= 1e-3):
        raise StepError("step h must lie in [1e-7, 1e-3]")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    d_omega = (omega_digamma(x + h) - omega_digamma(x - h)).real / (2.0 * h)
    x_damp = x if abs(x) >= 1e-8 else 1e-6
    damp = 0.5 * coth(0.5 * x_damp).real * omega_digamma(x_damp).real
    forcing = (x / (2.0 * PI ** 3)) * math.sinh(0.5 * x) * mathieu_E(x / _TWO_PI).value.real
    return abs(d_omega - damp + forcing)


def omega_eval(z) -> Evaluation:
    """Digamma for real z and for complex |z| < 0.9*2pi, quadrature beyond.  No route
    of eval or verify runs it: it is kept for perfbench's eval-mix workload, and
    the digamma brace cancels at large real x (relative errors up to 2e-10 below
    x = 1400, where the quadrature route keeps 5e-14)."""
    z = as_complex(z)
    if z.imag == 0.0 or abs(z) < 0.9 * _TWO_PI:
        return Evaluation(*_omega_digamma(z), 0, "digamma")
    return omega_quadrature(z)


def omega_pv_hilbert(z) -> Evaluation:
    """Principal-value Hilbert-transform form, folded onto [0, 1/2].

    PV int_(-1/2)^(1/2) e^(zu) cot(pi u) du  =  int_0^(1/2) (e^(zu) - e^(-zu)) cot(pi u) du,
    evaluated without rewriting the difference as 2 sinh so the fold stays an
    independent code path.  At z = 0 one panel gives 0, claim 8e-16 of cancellation.
    """
    z = as_complex(z)
    _require_re_in_range(z)
    def f(u: float) -> complex:
        return (cmath.exp(z * u) - cmath.exp(-z * u)) / math.tan(PI * u)

    # e^(zu) - e^(-zu) cancels at small u, so the fold's own head [0, a] comes from
    # int_0^a 2 sinh(zu)cot(pi u) du = (2z/pi)[a + c2 a^3/3 + c4 a^5/5 + O(a^7 z^6)];
    # the definition route integrates from 0 and shares no head with the fold
    a = 1e-3
    c2 = z * z / 6.0 - PI * PI / 3.0
    c4 = z ** 4 / 120.0 - z * z * PI * PI / 18.0 - PI ** 4 / 45.0
    head = 2.0 * z / PI * (a + c2 * a ** 3 / 3.0 + c4 * a ** 5 / 5.0)
    body, err, panels = adaptive_quad(f, a, 0.5)
    # e^(zu) - e^(-zu) keeps 2 eps cosh(Re z/2) of rounding, beyond the panel floors
    cancel = 2.0 * _EPS * math.cosh(0.5 * z.real) * -math.log(math.sin(PI * a)) / PI
    return Evaluation(head + body, err + cancel + 4e-16 * abs(head), panels, "pv-fold")
