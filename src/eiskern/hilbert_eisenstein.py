"""Hilbert-Eisenstein series and the Mathieu-series companions.

h_r(z) = sum_{k in Z} (-1)^k sgn(k) (z + ik)^(-r), poles on i*Z minus 0,
z = 0 admitted with h_1(0) = 2i log 2.  Routes: Eisenstein-summed /
normally convergent direct summation, digamma-polygamma closed forms,
the Taylor expansion in eta values on |z| < 1, the real-axis Re/Im split,
and the connection through the classical Eisenstein series.  This is the one
module that evaluates h_1: Omega and the conjugate-Bernoulli generating
function scale its routes.

The closed forms below were cross-checked against the direct summation
oracle; where printed sources disagree on signs or factors of two, the
oracle-consistent version is implemented (see the test suite).
"""
from __future__ import annotations

import math

from .errors import DomainError, Evaluation, PoleError, doubles_only
from .eisenstein import eisenstein_closed, eisenstein_direct
from .numkern import as_complex, as_order, as_real, digamma, dirichlet_eta, eta_odd, polygamma
from .quadrature import quad_decaying_tail
from .summation import alternating_sum, power_series, richardson_limit

IM_AXIS_GUARD = 1e-10  # hard floor; suites keep distance >= 0.05

_TWO_I_LOG2 = 2j * math.log(2.0)


def _guard_imaginary_integers(z: complex) -> None:
    k = round(z.imag)
    if k != 0 and abs(z - 1j * k) < IM_AXIS_GUARD:
        raise PoleError(f"Hilbert-Eisenstein series has a pole at {1j * k}")


@doubles_only("he_direct(r={r}, z={z}) requires z^2 and every power (z +- ik)^r "
              "of its terms to be doubles")
def he_direct(r: int, z) -> Evaluation:
    """Direct summation of the defining series.

    r = 1 reduces the symmetric sum to 2i sum_k (-1)^(k-1) k/(z^2+k^2);
    r >= 2 sums the normally convergent pairs (-1)^k [(z+ik)^(-r) - (z-ik)^(-r)].
    Both go through alternating_sum from k > |Im z| on (moment sequences): |Im z| < 4096.
    The origin takes the same series: h_1(0) = 2i log 2 to the last bit, from 32 terms.
    DomainError where z^2 (r = 1) or a power (z +- ik)^r of a term is not a double.
    """
    r = as_order(r)
    z = as_complex(z)
    _guard_imaginary_integers(z)
    start = math.floor(abs(z.imag)) + 1
    if r == 1:
        z2 = z * z
        value, err, used = alternating_sum(lambda k: k / (z2 + k * k), start=start)
        # z2 carries 2 eps|z|^2 < 4.5e-16|z|^2 of rounding, cancelled in z2 + k^2 for k < 1.5|z|
        cancel = sum(k / abs(z2 + k * k) ** 2 for k in range(1, min(int(1.5 * abs(z)), used) + 1))
        return Evaluation(2j * value, 2.0 * (err + 4.5e-16 * abs(z2) * cancel), used, "direct")
    value, err, used = alternating_sum(
        lambda k: (z + 1j * k) ** (-r) - (z - 1j * k) ** (-r), start=start)
    return Evaluation(-value, err, used, "direct")


def he_closed(r: int, z) -> complex:
    """Digamma / polygamma closed forms.

    r = 1:  i{2 log 2 + psi(1+iz/2) + psi(1-iz/2) - psi(1+iz) - psi(1-iz)}, from _h1_brace
    r >= 2: i^r/(r-1)! {2^(1-r) psi_(r-1)(1-iz/2) + (-2)^(1-r) psi_(r-1)(1+iz/2)
                        - psi_(r-1)(1-iz) - (-1)^(r-1) psi_(r-1)(1+iz)}
    """
    r = as_order(r)
    z = as_complex(z)
    _guard_imaginary_integers(z)
    if r == 1:
        return 1j * _h1_brace(z)[0]
    # the bracket first: polygamma's DomainError comes before (r-1)! overflows a double
    bracket = (2.0 ** (1 - r) * polygamma(r - 1, 1.0 - 0.5j * z)
               + (-2.0) ** (1 - r) * polygamma(r - 1, 1.0 + 0.5j * z)
               - polygamma(r - 1, 1.0 - 1j * z)
               - (-1.0) ** (r - 1) * polygamma(r - 1, 1.0 + 1j * z))
    return (1j ** r / math.factorial(r - 1)) * bracket


def _h1_brace(w: complex) -> tuple[complex, float]:
    """The brace B = 2 log 2 + psi(1+iw/2) + psi(1-iw/2) - psi(1+iw) - psi(1-iw) of
    h_1(w) = iB, the one four-digamma form (Omega(z) = (1/pi) sinh(z/2) B(z/2pi)), and
    its rounding bound 8 eps (2 log 2 + sum |psi|)."""
    psi = (digamma(1.0 + 0.5j * w), digamma(1.0 - 0.5j * w),
           digamma(1.0 + 1j * w), digamma(1.0 - 1j * w))
    return (2.0 * math.log(2.0) + psi[0] + psi[1] - psi[2] - psi[3],
            8.0 * math.ulp(1.0) * (2.0 * math.log(2.0) + sum(map(abs, psi))))


def he_taylor(z) -> Evaluation:
    """h_1 on the unit disc: 2i sum_n (-1)^n eta(2n+1) z^(2n), |z| < 1.  Past n = 3 the
    terms shrink by |z|^2 to within the 0.8% rise of eta, inside the rounding floor."""
    z = as_complex(z)
    if abs(z) >= 1.0:
        raise DomainError("he_taylor requires |z| < 1")
    z2 = z * z
    value, err, used = power_series(eta_odd, -z2, abs(z2))
    return Evaluation(2j * value, 2.0 * err, used, "taylor")


def he_real(r: int, x: float) -> complex:
    """Real-axis form: a single Re (r odd) or Im (r even) polygamma combination.

    Mirror symmetry of psi collapses the closed form to
      r = 1:       2i log 2 + 2i Re{psi(1+ix/2) - psi(1+ix)}
      r >= 3 odd:  2i (-1)^((r-1)/2)/(r-1)! Re{2^(1-r) psi_(r-1)(1+ix/2) - psi_(r-1)(1+ix)}
      r even:      2i (-1)^(r/2-1)/(r-1)!  Im{2^(1-r) psi_(r-1)(1+ix/2) - psi_(r-1)(1+ix)}
    and the result is purely imaginary by construction; no pole lies on the real axis.
    DomainError for a z off the real axis.
    """
    r = as_order(r)
    x = as_real(x)
    if r == 1:
        inner = digamma(1.0 + 0.5j * x) - digamma(1.0 + 1j * x)
        return _TWO_I_LOG2 + 2j * inner.real
    g = math.factorial(r - 1)
    inner = 2.0 ** (1 - r) * polygamma(r - 1, 1.0 + 0.5j * x) - polygamma(r - 1, 1.0 + 1j * x)
    if r % 2 == 1:
        return 2j * (-1.0) ** ((r - 1) // 2) / g * inner.real
    return 2j * (-1.0) ** (r // 2 - 1) / g * inner.imag


def he_via_eisenstein(r: int, x: float) -> complex:
    """h_r on the real axis through the classical Eisenstein series.

    r = 1:  2i log 2 + 2i Re{eps_1(ix/2) - eps_1(ix) + psi(ix/2) - psi(ix)}
    r >= 2: the eps_r / psi_(r-1) combination obtained by eliminating the
    reflected polygamma arguments from the closed form.  DomainError for x off the real axis.
    """
    r = as_order(r)
    x = as_real(x)
    if x == 0.0:
        raise DomainError("he_via_eisenstein requires x != 0")
    if r == 1:
        inner = (eisenstein_closed(1, 0.5j * x) - eisenstein_closed(1, 1j * x)
                 + digamma(0.5j * x) - digamma(1j * x))
        return _TWO_I_LOG2 + 2j * inner.real

    def eps(order: int, w: complex) -> complex:
        if order <= 3:
            return eisenstein_closed(order, w)
        return eisenstein_direct(order, w).value

    sgn = (-1.0) ** (r - 1)
    ir = 1j ** r
    # the polygamma bracket first: its DomainError comes before (r-1)! overflows a double
    bracket = (2.0 ** (1 - r) * (polygamma(r - 1, 0.5j * x) + sgn * polygamma(r - 1, -0.5j * x))
               - polygamma(r - 1, 1j * x) - sgn * polygamma(r - 1, -1j * x))
    e_part = ir * (2.0 ** (1 - r) * (eps(r, 0.5j * x) + sgn * eps(r, -0.5j * x))
                   - eps(r, 1j * x) - sgn * eps(r, -1j * x))
    return e_part + sgn * ir / math.factorial(r - 1) * bracket


# ---------------------------------------------------------------------------
# Mathieu series

@doubles_only("mathieu(r={r}, x={x}) requires every (k^2 + x^2)^r of its terms to be a double")
def mathieu(r: float, x: float, alternating: bool) -> Evaluation:
    """S_r(x) = sum 2k/(k^2+x^2)^r (r > 1, 2r an integer) by Richardson in 1/N^2 on the
    endpoint-corrected sums (lead 2r - 2) from N >= 3|x|, so on |x| <= 11823/3, or the
    alternating S~_r (r > 0).  NonConvergence also from |x| of about 335 (r = 1.5), 385 (r = 2),
    505 (r = 3), 650 (r = 4) and 1925 (r = 10).  DomainError where r, x or a term is no double."""
    r, x = as_real(r), as_real(x)
    if alternating:
        if r <= 0:
            raise DomainError("alternating Mathieu series requires r > 0")
        x2 = x ** 2
        value, err, used = alternating_sum(lambda k: 2.0 * k / (k * k + x2) ** r, start=1)
        return Evaluation(complex(value.real), err, used, "alternating")
    if r <= 1 or (2.0 * r) % 1.0:
        raise DomainError("Mathieu series requires r > 1 with 2r an integer")
    x2 = x ** 2
    # 2k/(k^2+x^2)^r = 2 sum_j C(-r, j) x^(2j) k^(1-2r-2j): past N > |x| the tail of the
    # endpoint-corrected sums is N^(2-2r) times a series in 1/N^2 when 2r is an integer
    value, err, used = richardson_limit(lambda k: 2.0 * k / (k * k + x2) ** r, lead=2 * r - 2,
                                        start=3.0 * abs(x), floor=0.0)
    return Evaluation(complex(value.real), err, used, "series-richardson")


def mathieu_E(x: float) -> Evaluation:
    """Forcing term of the Omega ODE: the alternating Mathieu series S~_2.

    For x != 0 computed from the integral (1/x) int_0^oo u sin(xu)/(e^u+1) du,
    which resums the series exactly; |x| < 1e-8 returns the continuity value
    2*eta(3), from no panel, under the same label.
    """
    x = as_real(x)
    if abs(x) < 1e-8:
        val = 2.0 * dirichlet_eta(3.0)
        return Evaluation(complex(val), 4e-16 * val, 0, "integral")

    def f(u: float) -> float:
        return u * math.sin(x * u) / (math.exp(u) + 1.0)

    value, err, panels = quad_decaying_tail(f, 0.0, rate=1.0, power=1.0)  # |f| <= u e^-u
    return Evaluation(complex(value.real / x), err / abs(x), panels, "integral")
