"""Conjugate Bernoulli numbers and functions.

The odd-index conjugate values at 1/2 come in an eta form and a zeta form
(algebraically equal), the periodic conjugate functions as Fourier series
whose boundary polylog is a Bose-Einstein integral, and the exponential generating
function of the half-point values is G(z) = (iz/2pi) h_1(z/2pi): its closed form and
coefficient series scale the h_1 routes of hilbert_eisenstein.  The zeta
representations recover zeta at odd and even integers and at fractional
arguments; the final operation evaluates the conjectured finite double sum
for the odd periodic conjugate functions against the Fourier oracle without
asserting agreement.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import DomainError, doubles_only
from .hilbert_eisenstein import he_closed, he_taylor
from .numkern import PI, as_complex, as_index, bernoulli_poly, coth, digamma, eta_odd, riemann_zeta
from .omega import _taylor_coefficient
from .quadrature import adaptive_quad, quad_decaying_tail
from .summation import power_tail

_TWO_PI = 2.0 * PI
_LOG2 = math.log(2.0)
_DIRECT_ORDER = 170  # 2 Gamma(a+1) is a double through a = 170
_FIRST_TERM_ORDER = 64  # past it Li_s(w) rounds to w; through it t^(s-1), e^t stay doubles


@doubles_only("order {a}: the value is not a double")
def _prefactor(rest: float, a: float) -> float:
    """rest * 2 Gamma(a+1) (2 pi)^(-a), the scale of every Fourier and zeta form here; past
    a = _DIRECT_ORDER in log space, with DomainError where the product is no double either."""
    if a <= _DIRECT_ORDER:
        return 2.0 * math.gamma(a + 1.0) * _TWO_PI ** (-a) * rest
    log_scale = _LOG2 + math.lgamma(a + 1.0) - a * math.log(_TWO_PI)
    return math.copysign(math.exp(log_scale + math.log(abs(rest))), rest) if rest else rest


# ---------------------------------------------------------------------------
# boundary polylog sum_{k>=1} e^(2 pi i k x) / k^s

def periodic_polylog(s: float, x: float) -> complex:
    """sum_{k>=1} e^(2 pi i k x) k^(-s) for real s, x.

    x on the integers needs s > 1 and sums 40 terms plus the Euler-Maclaurin tail.
    Elsewhere s > 0 and Li_s(w) = (w/Gamma(s)) int_0^oo t^(s-1)/(e^t - w) dt, w = e^(2 pi i x)
    (Bose-Einstein, DLMF 25.12.11): on [0, 1], t = u^m, m = ceil(3.5/s), so the integrand
    vanishes like u^(ms-1), ms - 1 >= 2.5, and adaptive_quad runs in v = m(1 - u) on [0, m],
    breakpoint 50; on [1, oo) quad_decaying_tail under the majorant t^(s-1)/(Gamma(s)(e^t - 1)).
    Past s = 64 the first term (w, or 1 on the integers) is the sum to within 2^(1-s), below
    its rounding; there the Euler-Maclaurin tail would also multiply an overflowed (s)_(2j-1)
    by an underflowed power of 40 into nan.  DomainError unless s and x are finite.
    """
    if not (math.isfinite(s) and math.isfinite(x)):
        raise DomainError(f"polylog requires finite s and x, got s = {s}, x = {x}")
    d = x - round(x)  # exact signed distance to the nearest integer
    if abs(d) < 1e-12:
        if s <= 1.0:
            raise DomainError("polylog at integer x requires s > 1")
        if s > _FIRST_TERM_ORDER:  # the first term, as off the integers below
            return complex(1.0)
        return complex(sum(k ** (-s) for k in range(1, 41)) + power_tail(s, 40))
    if s <= 0.0:
        raise DomainError("polylog requires s > 0 away from the integers")
    w = cmath.exp(2j * PI * d)
    if s > _FIRST_TERM_ORDER:  # |Li_s(w) - w| <= 2^(1-s) is below the rounding of w
        return w
    one_minus_w = -2j * math.sin(PI * d) * cmath.exp(1j * PI * d)  # no cancellation near d = 0
    g, m = math.gamma(s), max(1, math.ceil(3.5 / s))
    span = min(m, 50)  # t = u^m climbs from e^-50 to 1 over v in [0, span]

    def head(v: float) -> complex:  # t^(s-1)/(Gamma(s)(e^t - w)) dt/dv at t = u^m, u = 1 - v/m
        t = math.exp(m * math.log1p(-v / m))  # free of the rounding of u near u = 1
        return (1.0 - v / m) ** (m * s - 1.0) / (g * (math.expm1(t) + one_minus_w))
    near = adaptive_quad(head, 0.0, span, m)[0]
    far = quad_decaying_tail(lambda t: t ** (s - 1.0) / (g * (math.expm1(t) + one_minus_w)),
                             1.0, 1.0, power=s - 1.0, log_scale=-math.lgamma(s))[0]
    return w * (near + far)


# ---------------------------------------------------------------------------
# conjugate Bernoulli values

def conj_bernoulli_half(m: int, form: str = "eta") -> float:
    """Odd conjugate Bernoulli value at the half point, B~_(2m+1)(1/2).

    form "eta":  (-1)^(m+1) 2 (2m+1)! (2 pi)^(-2m-1) eta(2m+1)
    form "zeta": (-1)^m 2 (2m+1)! (2 pi)^(-2m-1) (2^(-2m) - 1) zeta(2m+1), which at m = 0
    degenerates to 0 * zeta(1) and is taken at its limit value -log(2)/pi so the two forms
    stay comparable for every m.  zeta(2m+1) is the Euler-Maclaurin sum of periodic_polylog
    at x = 0, apart from the alternating eta sum.  DomainError from m = 130 on (no double).
    """
    m = as_index(m, 0, "index m must be >= 0")
    if form == "eta":
        return _prefactor((-1.0) ** (m + 1) * eta_odd(m), 2 * m + 1)
    if form == "zeta":
        if m == 0:
            return -_LOG2 / PI
        zeta = periodic_polylog(2 * m + 1, 0.0).real
        return _prefactor((-1.0) ** m * (2.0 ** (-2 * m) - 1.0) * zeta, 2 * m + 1)
    raise DomainError(f"unknown form {form!r}")


def conj_bernoulli_periodic(n: int, x: float) -> float:
    """Periodic conjugate Bernoulli function of odd index 2n+1 by Fourier series.

    B~_(2n+1)(x) = -2 (2n+1)! sum_k sin(2 pi k x - (2n+1) pi/2) / (2 pi k)^(2n+1);
    the n = 0 case needs x off the integers (log singularity there).
    """
    n = as_index(n, 0, "index n must be >= 0")
    s = 2 * n + 1
    phase = cmath.exp(-1j * s * PI / 2.0)
    li = periodic_polylog(float(s), x)
    return _prefactor(-(phase * li).imag, s)


def conj_bernoulli_genfun(z) -> complex:
    """Exponential generating function G(z) = sum_k B~_k(1/2) z^k / k! in closed form.

    Real z, and |z| < 0.1 where the coth compensation below cancels, use
    G = (iz/2pi) h_1(z/2pi) = -(z/(2 sinh(z/2))) Omega(z) with he_closed (exactly real
    for real z); other z use the one-sided digamma branch computed here,
    -(z/pi){log 2 + psi(1+iz/4pi) - psi(1+iz/2pi)} + (iz/2){coth(z/4) - coth(z/2)} - i.
    Valid on |z| < 2 pi.
    """
    z = as_complex(z)
    if abs(z) >= _TWO_PI:
        raise DomainError("generating function branch requires |z| < 2*pi")
    if z.imag == 0.0 or abs(z) < 0.1:
        return 0.5j * z / PI * he_closed(1, z / _TWO_PI)
    return (-(z / PI) * (_LOG2 + digamma(1.0 + 1j * z / (4.0 * PI))
                         - digamma(1.0 + 1j * z / (2.0 * PI)))
            + 0.5j * z * (coth(0.25 * z) - coth(0.5 * z)) - 1j)


def conj_genfun_series(z) -> complex:
    """Coefficient series sum_k B~_k(1/2) z^k/k! on |z| < 2 pi.

    The odd terms B~_(2m+1)(1/2) z^(2m+1)/(2m+1)! = -(z/pi) (-1)^m eta(2m+1) (z/2pi)^(2m),
    the (2m+1)! cancelled, are (iz/2pi) times the eta series of h_1(z/2pi), summed by
    hilbert_eisenstein.he_taylor.
    """
    z = as_complex(z)
    if abs(z) >= _TWO_PI:
        raise DomainError("coefficient series requires |z| < 2*pi")
    return 0.5j * z / PI * he_taylor(z / _TWO_PI).value


# ---------------------------------------------------------------------------
# zeta representations

def zeta_odd_via_conj(m: int) -> float:
    """zeta(2m+1) = (-1)^m B~_(2m+1)(1) / (2 (2m+1)! (2 pi)^(-2m-1)), one quotient at every m.

    B~_(2m+1)(1) is recovered from the half-point value through B~_(2m+1)(1/2) =
    (2^(-2m) - 1) B~_(2m+1)(1), so DomainError from m = 130 on, where that is no double.
    """
    m = as_index(m, 1, "odd-zeta representation needs m >= 1")
    b_one = conj_bernoulli_half(m) / (2.0 ** (-2 * m) - 1.0)
    return (-1.0) ** m * b_one / _prefactor(1.0, 2 * m + 1)


def zeta_even_euler(m: int) -> float:
    """Euler: zeta(2m) = (-1)^(m+1) 2^(2m-1) pi^(2m) B_(2m) / (2m)!."""
    m = as_index(m, 1, "even-zeta representation needs m >= 1")
    return riemann_zeta(2.0 * m)  # its even-integer branch is this closed form


def fractional_bernoulli(alpha: float, x: float) -> float:
    """Periodic fractional Bernoulli function
    B_alpha(x) = -2 Gamma(alpha+1) sum_k cos(pi(2kx - alpha/2)) / (2 pi k)^alpha.

    Interpolates the classical Bernoulli polynomials at integer alpha; the domain
    is periodic_polylog's: alpha > 0, and alpha > 1 with x on the integers.
    """
    li = periodic_polylog(alpha, x)
    phase = cmath.exp(-1j * PI * alpha / 2.0)
    return _prefactor(-(phase * li).real, alpha)


def ramanujan_bstar(alpha: float) -> float:
    """Sign-free fractional Bernoulli number B*_alpha = 2 Gamma(alpha+1) zeta(alpha) / (2 pi)^alpha."""
    if not 1 < alpha < math.inf:
        raise DomainError(f"ramanujan_bstar requires alpha > 1 and finite, got {alpha}")
    return _prefactor(riemann_zeta(alpha), alpha)


# ---------------------------------------------------------------------------
# conjectured finite double sum

class ConjectureCheck(NamedTuple):
    double_sum: float
    fourier: float
    discrepancy: float


def conjecture_double_sum(j: int, z: float) -> ConjectureCheck:
    """Conjectured closed form of B~_(2j+1)(z) as a finite double sum.

    -(2j+1)!/pi * sum_{k<=j} B_(2j-2k)(z)/(4^k (2j-2k)!)
                * sum_{n<=k} (-1)^n eta(2n+1)/(pi^(2n) (2(k-n)+1)!)

    evaluated next to the Fourier-series oracle.  The discrepancy is
    returned for reporting; nothing here asserts it vanishes.  j <= 84, where
    (2j+1)! is a double.
    """
    j = as_index(j, 0, f"conjecture checks require 0 <= j <= 84, where (2j+1)! is a double; "
                       f"got {j}", 84)
    if not (0.0 < z < 1.0):
        raise DomainError(f"conjecture checks run on finite z with 0 < z < 1, got {z}")
    total = 0.0
    for k in range(j + 1):
        inner = PI * 4.0 ** k * _taylor_coefficient(k)  # Omega's z^(2k+1) coefficient = inner/(pi 4^k)
        total += bernoulli_poly(2 * j - 2 * k, z) / (4.0 ** k * math.factorial(2 * j - 2 * k)) * inner
    double_sum = -math.factorial(2 * j + 1) / PI * total
    fourier = conj_bernoulli_periodic(j, z)
    return ConjectureCheck(double_sum, fourier, abs(double_sum - fourier))
