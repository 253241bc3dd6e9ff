"""Hilbert-Eisenstein series and the Mathieu-series companions.

h_r(z) = sum_{k in Z} (-1)^k sgn(k) (z + ik)^(-r), poles on i*Z minus 0,
z = 0 admitted with h_1(0) = 2i log 2.  Routes: Eisenstein-summed /
normally convergent direct summation, digamma-polygamma closed forms,
the Taylor expansion in eta values on |z| < 1, the real-axis Re/Im split,
and the connection through the classical Eisenstein series.

The closed forms below were cross-checked against the direct summation
oracle; where printed sources disagree on signs or factors of two, the
oracle-consistent version is implemented (see the test suite).
"""
from __future__ import annotations

import math

from .controls import Evaluation
from .errors import DomainError, NonConvergence, PoleError
from .eisenstein import eisenstein_closed, eisenstein_direct
from .numkern import PI, as_complex, coth, digamma, dirichlet_eta, eta_odd, polygamma
from .quadrature import adaptive_quad, quad_decaying_tail
from .summation import REL_TOL, alternating_sum

IM_AXIS_GUARD = 1e-10  # hard floor; suites keep distance >= 0.05

_TWO_I_LOG2 = 2j * math.log(2.0)


def _guard_imaginary_integers(z: complex, guard: float = IM_AXIS_GUARD) -> None:
    k = round(z.imag)
    if k != 0 and abs(z - 1j * k) < guard:
        raise PoleError(f"Hilbert-Eisenstein series has a pole at {1j * k}")


def he_direct(r: int, z) -> Evaluation:
    """Direct summation of the defining series.

    r = 1 reduces the symmetric sum to 2i sum_k (-1)^(k-1) k/(z^2+k^2);
    r >= 2 sums the normally convergent pairs (-1)^k [(z+ik)^(-r) - (z-ik)^(-r)].
    Both go through alternating_sum.
    """
    if r < 1:
        raise DomainError("order r must be a positive integer")
    z = as_complex(z)
    _guard_imaginary_integers(z)
    if z == 0 and r == 1:
        return Evaluation(_TWO_I_LOG2, 0.0, 0, "direct")
    if r == 1:
        z2 = z * z
        value, err, used = alternating_sum(lambda k: k / (z2 + k * k))
        return Evaluation(2j * value, 2.0 * err, used, "direct")
    value, err, used = alternating_sum(
        lambda k: (z + 1j * k) ** (-r) - (z - 1j * k) ** (-r))
    return Evaluation(-value, err, used, "direct")


def he_closed(r: int, z) -> complex:
    """Digamma / polygamma closed forms.

    r = 1:  2i log 2 + i{psi(1+iz/2) + psi(1-iz/2) - psi(1+iz) - psi(1-iz)}
    r >= 2: i^r/(r-1)! {2^(1-r) psi_(r-1)(1-iz/2) + (-2)^(1-r) psi_(r-1)(1+iz/2)
                        - psi_(r-1)(1-iz) - (-1)^(r-1) psi_(r-1)(1+iz)}
    """
    if r < 1:
        raise DomainError("order r must be a positive integer")
    z = as_complex(z)
    _guard_imaginary_integers(z)
    if r == 1:
        return _TWO_I_LOG2 + 1j * (digamma(1.0 + 0.5j * z) + digamma(1.0 - 0.5j * z)
                                   - digamma(1.0 + 1j * z) - digamma(1.0 - 1j * z))
    g = math.factorial(r - 1)
    return (1j ** r / g) * (
        2.0 ** (1 - r) * polygamma(r - 1, 1.0 - 0.5j * z)
        + (-2.0) ** (1 - r) * polygamma(r - 1, 1.0 + 0.5j * z)
        - polygamma(r - 1, 1.0 - 1j * z)
        - (-1.0) ** (r - 1) * polygamma(r - 1, 1.0 + 1j * z))


def he_taylor(z) -> Evaluation:
    """h_1 on the unit disc: 2i sum_n (-1)^n eta(2n+1) z^(2n), |z| < 1."""
    z = as_complex(z)
    if abs(z) >= 1.0:
        raise DomainError("he_taylor requires |z| < 1")
    z2 = z * z
    total = 0.0 + 0.0j
    p = 1.0 + 0.0j
    n = 0
    while n < 2000:
        t = (-1.0) ** n * eta_odd(n) * p
        total += t
        n += 1
        p *= z2
        if abs(t) <= REL_TOL * max(1e-300, abs(total)) and n >= 3:
            tail = abs(p) / max(1e-300, 1.0 - abs(z2))
            return Evaluation(2j * total, 2.0 * tail, n, "taylor")
    raise NonConvergence("he_taylor: term budget exhausted inside |z| < 1")


def he_real(r: int, x: float) -> complex:
    """Real-axis form: a single Re (r odd) or Im (r even) polygamma combination.

    Mirror symmetry of psi collapses the closed form to
      r = 1:       2i log 2 + 2i Re{psi(1+ix/2) - psi(1+ix)}
      r >= 3 odd:  2i (-1)^((r-1)/2)/(r-1)! Re{2^(1-r) psi_(r-1)(1+ix/2) - psi_(r-1)(1+ix)}
      r even:      2i (-1)^(r/2-1)/(r-1)!  Im{2^(1-r) psi_(r-1)(1+ix/2) - psi_(r-1)(1+ix)}
    and the result is purely imaginary by construction.
    """
    if r < 1:
        raise DomainError("order r must be a positive integer")
    x = float(x)
    _guard_imaginary_integers(complex(x))
    if r == 1:
        inner = digamma(1.0 + 0.5j * x) - digamma(1.0 + 1j * x)
        return _TWO_I_LOG2 + 2j * inner.real
    g = math.factorial(r - 1)
    inner = 2.0 ** (1 - r) * polygamma(r - 1, 1.0 + 0.5j * x) - polygamma(r - 1, 1.0 + 1j * x)
    if r % 2 == 1:
        return 2j * (-1.0) ** ((r - 1) // 2) / g * inner.real
    return 2j * (-1.0) ** (r // 2 - 1) / g * inner.imag


def he_via_eisenstein(r: int, x: float, form: str = "eisenstein") -> complex:
    """h_r on the real axis through the classical Eisenstein series.

    r = 1, form "eisenstein":
        2i log 2 + 2i Re{eps_1(ix/2) - eps_1(ix) + psi(ix/2) - psi(ix)}
    r = 1, form "coth": same with eps_1(iy) continued to -i*pi*coth(pi*y).
    r >= 2: the eps_r / psi_(r-1) combination obtained by eliminating the
    reflected polygamma arguments from the closed form.
    """
    if r < 1:
        raise DomainError("order r must be a positive integer")
    x = float(x)
    if x == 0.0:
        raise DomainError("he_via_eisenstein requires x != 0")
    if form not in ("eisenstein", "coth"):
        raise ValueError("form must be 'eisenstein' or 'coth'")
    if r == 1:
        if form == "coth":
            eps_part = -1j * PI * (coth(PI * x / 2.0) - coth(PI * x))
        else:
            eps_part = eisenstein_closed(1, 0.5j * x) - eisenstein_closed(1, 1j * x)
        inner = eps_part + digamma(0.5j * x) - digamma(1j * x)
        return _TWO_I_LOG2 + 2j * inner.real

    def eps(order: int, w: complex) -> complex:
        if order <= 3:
            return eisenstein_closed(order, w)
        return eisenstein_direct(order, w).value

    g = math.factorial(r - 1)
    sgn = (-1.0) ** (r - 1)
    ir = 1j ** r
    e_part = ir * (2.0 ** (1 - r) * (eps(r, 0.5j * x) + sgn * eps(r, -0.5j * x))
                   - eps(r, 1j * x) - sgn * eps(r, -1j * x))
    p_part = sgn * ir / g * (
        2.0 ** (1 - r) * (polygamma(r - 1, 0.5j * x) + sgn * polygamma(r - 1, -0.5j * x))
        - polygamma(r - 1, 1j * x) - sgn * polygamma(r - 1, -1j * x))
    return e_part + p_part


# ---------------------------------------------------------------------------
# Mathieu series

def mathieu(r: float, x: float, alternating: bool) -> Evaluation:
    """S_r(x) = sum 2k/(k^2+x^2)^r (r > 1) or the alternating variant (r > 0)."""
    if alternating:
        if r <= 0:
            raise DomainError("alternating Mathieu series requires r > 0")
        x2 = float(x) ** 2
        value, err, used = alternating_sum(lambda k: 2.0 * k / (k * k + x2) ** r)
        return Evaluation(complex(value.real), err, used, "series-alternating")
    if r <= 1:
        raise DomainError("Mathieu series requires r > 1")
    x2 = float(x) ** 2
    total = 0.0
    k = 0
    while k < 200_000:
        k += 1
        total += 2.0 * k / (k * k + x2) ** r
        # midpoint-rule tail for the remaining monotone terms
        corr = ((k + 0.5) ** 2 + x2) ** (1.0 - r) / (r - 1.0)
        est = 2.0 * (2.0 * r - 1.0) / (k * k + x2) ** r  # ~ |f'(k)|/24 scale guard
        if est <= REL_TOL * (total + corr):
            return Evaluation(complex(total + corr), est, k, "series-tail-corrected")
    raise NonConvergence("mathieu: 200000 terms exhausted")


def mathieu_E(x: float) -> Evaluation:
    """Forcing term of the Omega ODE: the alternating Mathieu series S~_2.

    For x != 0 computed from the integral (1/x) int_0^oo u sin(xu)/(e^u+1) du,
    which resums the series exactly; |x| < 1e-8 returns the continuity value
    2*eta(3).
    """
    x = float(x)
    if abs(x) < 1e-8:
        val = 2.0 * dirichlet_eta(3.0)
        return Evaluation(complex(val), 4e-16 * val, 0, "continuity-limit")

    def f(u: float) -> float:
        return u * math.sin(x * u) / (math.exp(u) + 1.0)

    head, e1, p1 = adaptive_quad(f, 0.0, 2.0)
    tail, e2, p2 = quad_decaying_tail(f, 2.0, rate=0.7, cutoff_scale=30.0)
    val = (head + tail).real / x
    return Evaluation(complex(val), (e1 + e2) / abs(x), p1 + p2, "integral")
