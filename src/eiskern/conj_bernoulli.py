"""Conjugate Bernoulli numbers and functions.

The odd-index conjugate values at 1/2 come in an eta form and a zeta form
(algebraically equal), the periodic conjugate functions come as Fourier
series resummed through a boundary polylog, and the exponential generating
function of the half-point values has a digamma closed form.  The zeta
representations recover zeta at odd and even integers and at fractional
arguments; the final operation evaluates the conjectured finite double sum
for the odd periodic conjugate functions against the Fourier oracle without
asserting agreement.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import DomainError, NonConvergence
from .numkern import (PI, as_complex, bernoulli_number, bernoulli_poly, coth,
                      digamma, dirichlet_eta, riemann_zeta)
from .summation import REL_TOL, power_tail, wynn_epsilon

_TWO_PI = 2.0 * PI
_LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# boundary polylog sum_{k>=1} e^(2 pi i k x) / k^s

def periodic_polylog(s: float, x: float) -> complex:
    """sum_{k>=1} e^(2 pi i k x) k^(-s) for real s, x.

    x on the integers needs s > 1 (Euler-Maclaurin tail); x on the half
    integers is the alternating zeta sum; elsewhere the conditionally
    convergent sum is resummed by the epsilon algorithm on a block of
    partial sums.
    """
    xf = x - math.floor(x)
    if xf < 1e-12 or xf > 1.0 - 1e-12:
        if s <= 1.0:
            raise DomainError("polylog at integer x requires s > 1")
        n = 40
        total = sum(k ** (-s) for k in range(1, n + 1))
        return complex(total + power_tail(s, n))
    if s <= 0.0:
        raise DomainError("polylog requires s > 0 away from the integers")
    if abs(xf - 0.5) < 1e-12:
        return complex(-dirichlet_eta(s))
    w = cmath.exp(2j * PI * xf)
    partials: list[complex] = []
    acc = 0.0 + 0.0j
    wk = 1.0 + 0.0j
    k = 0
    for block in (48, 96, 192, 384, 768):
        while k < block:
            k += 1
            wk *= w
            acc += wk / k ** s
            partials.append(acc)
        value, err = wynn_epsilon(partials[-64:])
        if err <= max(REL_TOL * abs(value), 1e-15 * max(1.0, abs(value))):
            return value
    if err <= 1e-9 * max(1.0, abs(value)):
        return value
    raise NonConvergence(f"periodic polylog did not settle at s={s}, x={x}")


# ---------------------------------------------------------------------------
# conjugate Bernoulli values

def conj_bernoulli_half(m: int, form: str = "eta") -> float:
    """Odd conjugate Bernoulli value at the half point, B~_(2m+1)(1/2).

    form "eta":  (-1)^(m+1) (2m+1)! 2^(-2m) pi^(-2m-1) eta(2m+1)
    form "zeta": (-1)^m (2m+1)! (4^(-2m) - 2^(-2m)) pi^(-2m-1) zeta(2m+1),
    which at m = 0 degenerates to 0 * zeta(1) and is taken at its limit
    value -log(2)/pi so the two forms stay comparable for every m.
    """
    if m < 0:
        raise DomainError("index m must be >= 0")
    if form == "eta":
        return ((-1.0) ** (m + 1) * math.factorial(2 * m + 1)
                * 2.0 ** (-2 * m) * PI ** (-2 * m - 1) * dirichlet_eta(float(2 * m + 1)))
    if form == "zeta":
        if m == 0:
            return -_LOG2 / PI
        return ((-1.0) ** m * math.factorial(2 * m + 1)
                * (4.0 ** (-2 * m) - 2.0 ** (-2 * m)) * PI ** (-2 * m - 1)
                * riemann_zeta(float(2 * m + 1)))
    raise DomainError(f"unknown form {form!r}")


def conj_bernoulli_periodic(n: int, x: float) -> float:
    """Periodic conjugate Bernoulli function of odd index 2n+1 by Fourier series.

    B~_(2n+1)(x) = -2 (2n+1)! sum_k sin(2 pi k x - (2n+1) pi/2) / (2 pi k)^(2n+1);
    the n = 0 case needs x off the integers (log singularity there).
    """
    if n < 0:
        raise DomainError("index n must be >= 0")
    x = float(x)
    xf = x - math.floor(x)
    if n == 0 and (xf < 1e-12 or xf > 1.0 - 1e-12):
        raise DomainError("B~_1 requires x not an integer")
    s = 2 * n + 1
    phase = cmath.exp(-1j * s * PI / 2.0)
    li = periodic_polylog(float(s), x)
    return -2.0 * math.factorial(s) * _TWO_PI ** (-s) * (phase * li).imag


def conj_bernoulli_genfun(z) -> complex:
    """Exponential generating function sum_k B~_k(1/2) z^k / k! in closed form.

    Real z uses -(z/pi){log 2 + Re psi(1+iz/4pi) - Re psi(1+iz/2pi)}; complex
    z uses the one-sided digamma branch with the coth compensation
    -(z/pi){log 2 + psi(1+iz/4pi) - psi(1+iz/2pi)} + (iz/2){coth(z/4) - coth(z/2)} - i,
    falling back to the symmetric two-sided digamma form near z = 0 where the
    coth compensation cancels catastrophically.  Valid on |z| < 2 pi.
    """
    z = as_complex(z)
    if abs(z) >= _TWO_PI:
        raise DomainError("generating function branch requires |z| < 2*pi")
    for k in range(1, 5):
        for sgn in (1.0, -1.0):
            if abs(z - sgn * k * (1.0 + 1.0j)) < 1e-10:
                raise DomainError("argument on the excluded lattice (1+i)Z")
    if z == 0:
        return 0.0 + 0.0j
    if z.imag == 0.0:
        x = z.real
        val = -(x / PI) * (_LOG2
                           + digamma(1.0 + 1j * x / (4.0 * PI)).real
                           - digamma(1.0 + 1j * x / (2.0 * PI)).real)
        return complex(val)
    if abs(z) < 0.1:
        sym = (digamma(1.0 + 1j * z / (4.0 * PI)) + digamma(1.0 - 1j * z / (4.0 * PI))
               - digamma(1.0 + 1j * z / (2.0 * PI)) - digamma(1.0 - 1j * z / (2.0 * PI)))
        return -(_LOG2 / PI) * z - z / _TWO_PI * sym
    return (-(z / PI) * (_LOG2 + digamma(1.0 + 1j * z / (4.0 * PI))
                         - digamma(1.0 + 1j * z / (2.0 * PI)))
            + 0.5j * z * (coth(0.25 * z) - coth(0.5 * z)) - 1j)


def conj_genfun_series(z) -> complex:
    """Truncated coefficient series sum_k B~_k(1/2) z^k/k! (odd k <= 41 only)."""
    z = as_complex(z)
    total = 0.0 + 0.0j
    for m in range(21):
        k = 2 * m + 1
        total += conj_bernoulli_half(m) * z ** k / math.factorial(k)
    return total


# ---------------------------------------------------------------------------
# zeta representations

def zeta_odd_via_conj(m: int) -> float:
    """zeta(2m+1) = (-1)^m 2^(2m) pi^(2m+1) B~_(2m+1)(1) / (2m+1)!.

    B~_(2m+1)(1) is recovered from the half-point value through
    B~_(2m+1)(1/2) = (2^(-2m) - 1) B~_(2m+1)(1).
    """
    if m < 1:
        raise DomainError("odd-zeta representation needs m >= 1")
    b_one = conj_bernoulli_half(m) / (2.0 ** (-2 * m) - 1.0)
    return ((-1.0) ** m * 2.0 ** (2 * m) * PI ** (2 * m + 1)
            * b_one / math.factorial(2 * m + 1))


def zeta_even_euler(m: int) -> float:
    """Euler: zeta(2m) = (-1)^(m+1) 2^(2m-1) pi^(2m) B_(2m) / (2m)!."""
    if m < 1:
        raise DomainError("even-zeta representation needs m >= 1")
    b = float(bernoulli_number(2 * m))
    return (-1.0) ** (m + 1) * 2.0 ** (2 * m - 1) * PI ** (2 * m) * b / math.factorial(2 * m)


def fractional_bernoulli(alpha: float, x: float) -> float:
    """Periodic fractional Bernoulli function
    B_alpha(x) = -2 Gamma(alpha+1) sum_k cos(pi(2kx - alpha/2)) / (2 pi k)^alpha.

    Interpolates the classical Bernoulli polynomials at integer alpha; x on
    the integers requires alpha > 1.
    """
    if alpha <= 0:
        raise DomainError("fractional index must satisfy alpha > 0")
    x = float(x)
    xf = x - math.floor(x)
    if (xf < 1e-12 or xf > 1.0 - 1e-12) and alpha <= 1.0:
        raise DomainError("x must avoid the integers for alpha <= 1")
    li = periodic_polylog(alpha, x)
    phase = cmath.exp(-1j * PI * alpha / 2.0)
    return -2.0 * math.gamma(alpha + 1.0) * _TWO_PI ** (-alpha) * (phase * li).real


def ramanujan_bstar(alpha: float) -> float:
    """Sign-free fractional Bernoulli number B*_alpha = 2 Gamma(alpha+1) zeta(alpha) / (2 pi)^alpha."""
    if alpha <= 1:
        raise DomainError("ramanujan_bstar requires alpha > 1")
    return 2.0 * math.gamma(alpha + 1.0) * _TWO_PI ** (-alpha) * riemann_zeta(alpha)


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
    returned for reporting; nothing here asserts it vanishes.
    """
    if j < 0:
        raise DomainError("index j must be >= 0")
    if not (0.0 < z < 1.0):
        raise DomainError("conjecture checks run on 0 < z < 1")
    total = 0.0
    for k in range(j + 1):
        inner = sum((-1.0) ** n * dirichlet_eta(float(2 * n + 1))
                    / (PI ** (2 * n) * math.factorial(2 * (k - n) + 1))
                    for n in range(k + 1))
        total += bernoulli_poly(2 * j - 2 * k, z) / (4.0 ** k * math.factorial(2 * j - 2 * k)) * inner
    double_sum = -math.factorial(2 * j + 1) / PI * total
    fourier = conj_bernoulli_periodic(j, z)
    return ConjectureCheck(double_sum, fourier, abs(double_sum - fourier))
