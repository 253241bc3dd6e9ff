"""Kernel special functions consumed by every other module.

Gamma, digamma and polygamma for complex arguments, Riemann zeta / Dirichlet
eta / Dirichlet lambda on the real line, exact-rational Bernoulli numbers and
polynomials, the Pochhammer symbol, the odd-zeta power series with its
digamma closed forms, and the real-part-of-digamma integral.

Algorithm notes (also the tested contracts):

* psi_r for every order r >= 0 (psi_0 = psi) comes from one kernel, _psi:
  the recurrence psi_r(z) = psi_r(z+1) + (-1)^(r+1) r! z^(-r-1) shifts Re z up
  to >= 14, where the asymptotic series with Bernoulli-number tail (DLMF
  5.11.2, 5.15.8) is accurate to ~1e-16.  digamma first reflects Re z < 0
  through psi(z) = psi(1 - z) - pi*cot(pi*z); polygamma has no reflection and
  shifts from any Re z.  The direct summation of the defining series is kept
  in the test suite as the slow oracle.
* cot, 1/sin^2 (csc2) and coth share one q-form, q = e^(+-2iw) with |q| <= 1.
* zeta for non-even-integer s > 1 is eta(s) / (1 - 2^(1-s)) because the
  alternating series is stable down to s -> 1+; even integer s uses the
  exact Bernoulli closed form.
"""
from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

from .controls import Evaluation
from .errors import DomainError, NonConvergence, PoleError
from .quadrature import adaptive_quad, quad_decaying_tail
from .summation import alternating_sum, power_series

EULER_GAMMA = 0.5772156649015328606065120900824024
PI = math.pi

POLE_GUARD = 1e-12  # hard rejection radius around poles

# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials (exact rational arithmetic internally)

# One entry per index up to the largest n asked for: B_20 for polygamma,
# B_120 for the moment series, and the caller's own n through the public API.
@functools.cache
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention); B_(2m+1) = 0 for m >= 1."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n < 2 or n % 2:
        return {0: Fraction(1), 1: Fraction(-1, 2)}.get(n, Fraction(0))
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 over the nonzero B_k; ascending k keeps recursion shallow
    return -sum(math.comb(n + 1, k) * bernoulli_number(k) for k in (0, 1, *range(2, n, 2))) / (n + 1)


def bernoulli_poly(n: int, x: float) -> float:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k x^(n-k)."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    return float(sum(float(math.comb(n, k) * bernoulli_number(k)) * x ** (n - k) for k in range(n + 1)))


# ---------------------------------------------------------------------------
# helpers

def as_complex(z) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("argument must have finite real and imaginary part")
    return z


def _guard_nonpositive_integer(z: complex, what: str) -> None:
    if abs(z.imag) <= POLE_GUARD:
        n = round(z.real)
        if n <= 0 and abs(z - n) <= POLE_GUARD:
            raise PoleError(f"{what} has a pole at the non-positive integer {n}")


def _q_form(w: complex) -> tuple[complex, complex, complex]:
    """(i s, q, q - 1) with q = e^(2isw) and s = +-1 the sign of Im w, so |q| <= 1 and
    nothing overflows for large |Im w|; q - 1 = 2 e^(isw) sinh(isw) where |2w| < 1,
    so it keeps its relative accuracy near the pole at w = 0."""
    i_s = 1j if w.imag >= 0 else -1j
    v = 2.0 * i_s * w
    q = cmath.exp(v)
    return i_s, q, (q - 1.0 if abs(v) >= 1.0 else 2.0 * cmath.exp(0.5 * v) * cmath.sinh(0.5 * v))


def cot(w: complex) -> complex:
    """Complex cotangent i s (q + 1)/(q - 1), overflow-safe for large |Im w|."""
    i_s, q, d = _q_form(w)
    return i_s * (q + 1.0) / d


def csc2(w: complex) -> complex:
    """1/sin^2(w) = -4q/(q - 1)^2 with the q of cot: underflows where sin^2 would overflow."""
    _, q, d = _q_form(w)
    return -4.0 * q / (d * d)


def coth(w: complex) -> complex:
    """Complex hyperbolic cotangent coth(w) = i*cot(iw), overflow-safe for large |Re w|."""
    return 1j * cot(1j * w)


# ---------------------------------------------------------------------------
# Gamma

_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos(z: complex) -> tuple[complex, complex, complex]:
    """(w, t, x) with Gamma(z) = sqrt(2 pi) t^(w+1/2) e^(-t) x, w = z - 1, Re z >= 1/2."""
    w = z - 1.0
    x = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        x += _LANCZOS[i] / (w + i)
    return w, w + _LANCZOS_G + 0.5, x


def _log_sin(w: complex) -> complex:
    """log sin(w) up to a multiple of 2 pi i, overflow-safe for large |Im w|:
    -+iw + log(+-(i/2)(1 - q)) with q = e^(+-2iw), |q| <= 1."""
    sgn = 1.0 if w.imag >= 0 else -1.0
    return -sgn * 1j * w + cmath.log(sgn * 0.5j * (1.0 - cmath.exp(sgn * 2j * w)))


def _log_gamma(z: complex) -> complex:
    """log Gamma(z) up to a multiple of 2 pi i: the Lanczos form in log space,
    for Re z < 1/2 through log pi - log sin(pi z) - log Gamma(1 - z)."""
    if z.real < 0.5:
        return math.log(PI) - _log_sin(PI * z) - _log_gamma(1.0 - z)
    w, t, x = _lanczos(z)
    return (w + 0.5) * cmath.log(t) - t + cmath.log(math.sqrt(2.0 * PI) * x)


def gamma(z) -> complex:
    """Gamma function, principal value, complex arguments admitted.

    Positive real arguments use the C library; elsewhere a Lanczos
    approximation (g = 7, 9 terms) with the reflection formula for
    Re z < 1/2.  Relative accuracy ~1e-13 on moderate arguments.  Where the
    Lanczos product or the reflection overflows, Gamma(z) is formed in log
    space, where it may underflow to 0; raises DomainError when Gamma(z)
    is too large for a double.
    """
    z = as_complex(z)
    _guard_nonpositive_integer(z, "gamma")
    if z.imag == 0.0 and z.real > 0.0:
        try:
            return complex(math.gamma(z.real))
        except OverflowError:
            pass
    try:
        if z.real < 0.5:
            d = cmath.sin(PI * z) * gamma(1.0 - z)
            if cmath.isfinite(d):
                return PI / d
        else:
            w, t, x = _lanczos(z)
            v = math.sqrt(2.0 * PI) * t ** (w + 0.5) * cmath.exp(-t) * x
            if cmath.isfinite(v):
                return v
    except (OverflowError, DomainError):
        pass
    try:
        return cmath.exp(_log_gamma(z))
    except OverflowError:
        raise DomainError(f"gamma({z}) is not representable in double precision") from None


# ---------------------------------------------------------------------------
# digamma / polygamma

_SHIFT_RE = 14.0


def digamma(z) -> complex:
    """Digamma psi(z): the reflection psi(z) = psi(1 - z) - pi*cot(pi*(z - n)) for Re z < 0,
    then _psi.  cot has period pi, and n = round(Re z) keeps the distance to the pole at n,
    which pi*z would lose to rounding."""
    z = as_complex(z)
    _guard_nonpositive_integer(z, "digamma")
    if z.real < 0.0:  # Re(1 - z) > 1: no pole, no second reflection
        return _psi(0, 1.0 - z) - PI * cot(PI * (z - round(z.real)))
    return _psi(0, z)


def polygamma(r: int, z) -> complex:
    """Polygamma psi_r(z), r >= 1; shift-then-asymptotic scheme.

    psi_r(z) = (-1)^(r+1) r! sum_{k>=0} (z+k)^(-(r+1)).  DomainError where a term
    of that r!-scaled sum is not a double: near 0 at high order, and at every z
    from r = 151, where the asymptotic coefficients overflow, and for Re z < 14 - 2^20.
    """
    if r < 1:
        raise DomainError("polygamma order must be >= 1 (use digamma for r = 0)")
    z = as_complex(z)
    _guard_nonpositive_integer(z, "polygamma")
    if z.real < _SHIFT_RE - 2 ** 20:  # 2^20 unit shifts take about 0.4 s
        raise DomainError(f"polygamma({r}, {z}): Re z < 14 - 2^20 until ROADMAP item 8's reflection")
    try:
        value = _psi(r, z)
    except (OverflowError, ZeroDivisionError):  # w^-(r+1) overflows, or its reciprocal underflows
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise DomainError(f"polygamma({r}, {z}): a term of its r!-scaled series is not a double")
    return value


def _psi(r: int, z: complex) -> complex:
    """psi_r(z), r >= 0 (psi_0 = psi), off the poles: the recurrence
    psi_r(w) = psi_r(w+1) + (-1)^(r+1) r! w^(-r-1) shifts Re w up to >= 14, where
    psi_r(w) ~ (-1)^(r-1) [L_r + r!/(2 w^(r+1)) + sum_j B_2j (2j+r-1)!/(2j)! w^(-2j-r)]
    (DLMF 5.11.2, 5.15.8) with L_0 = -log w and L_r = (r-1)!/w^r."""
    lead, half, asy = _psi_asy(r)
    acc = 0.0 + 0.0j
    w = z
    while w.real < _SHIFT_RE:  # 2*half = (-1)^(r+1) r!, the coefficient of the recurrence
        acc += 2.0 * half * w ** -(r + 1) if r else -1.0 / w
        w += 1.0
    inv = 1.0 / w
    inv2 = inv * inv
    if r:
        p = inv ** r
        s = lead * p + half * p * inv
        p *= inv2
    else:
        s = cmath.log(w) + half * inv
        p = inv2
    for a in asy:
        s += a * p
        p *= inv2
    return s + acc


@functools.cache
def _psi_asy(r: int) -> tuple[float, float, tuple[float, ...]]:
    """The asymptotic coefficients of psi_r with the sign (-1)^(r-1) folded in, one
    tuple per order: the lead (r-1)! (none for psi, whose lead is log w), r!/2, then
    B_2j (2j+r-1)!/(2j)! for j = 1..10, or 1..6 for psi, whose seventh term is below
    1e-17 relative at |w| >= 14."""
    sign = (-1.0) ** (r - 1)
    return (sign * math.factorial(r - 1) if r else None, sign * math.factorial(r) / 2,
            tuple(sign * float(bernoulli_number(2 * j)) * math.factorial(2 * j + r - 1) / math.factorial(2 * j)
                  for j in range(1, 11 if r else 7)))


# ---------------------------------------------------------------------------
# zeta family on the real line

def dirichlet_eta(s: float) -> float:
    """Dirichlet eta(s) = sum (-1)^(n-1) n^(-s), s > 0; eta(1) = log 2 exactly."""
    if s <= 0:
        raise DomainError("dirichlet_eta requires s > 0")
    if s == 1.0:
        return math.log(2.0)
    value, _, _ = alternating_sum(lambda k: k ** (-s), start=1)
    return value.real


def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1; even integers s <= 170 use the exact Bernoulli closed form."""
    if s <= 1:
        raise DomainError("riemann_zeta requires s > 1")
    n = round(s)
    if abs(s - n) <= 1e-12 and n % 2 == 0 and n <= 170:
        m = n // 2
        b = bernoulli_number(2 * m)
        return float((-1) ** (m + 1)) * 2.0 ** (2 * m - 1) * PI ** (2 * m) * float(b) / math.factorial(2 * m)
    return dirichlet_eta(s) / -math.expm1((1.0 - s) * math.log(2.0))


def dirichlet_lambda(r: float) -> float:
    """lambda(r) = sum_{k>=0} (2k+1)^(-r) = (1 - 2^(-r)) zeta(r), r > 1."""
    if r <= 1:
        raise DomainError("dirichlet_lambda requires r > 1")
    return -math.expm1(-r * math.log(2.0)) * riemann_zeta(r)


# One entry per n asked for: he_taylor stops within power_series' 4000 terms,
# the Omega Taylor coefficients at the largest k that omega_taylor or the
# closed moment route (the caller's k) asks for, conj_bernoulli_half at m.
@functools.cache
def eta_odd(n: int) -> float:
    """eta(2n+1), n >= 0: the odd eta values behind both Taylor expansions."""
    return dirichlet_eta(float(2 * n + 1))


# ---------------------------------------------------------------------------
# Pochhammer

def pochhammer(rho, sigma: int) -> complex:
    """Rising factorial (rho)_sigma as a finite product; (rho)_0 = 1, (0)_0 = 1.

    The product is exactly 0 when rho is a non-positive integer and
    sigma > -rho; otherwise raises DomainError when it overflows.
    """
    if sigma < 0:
        raise ValueError("pochhammer requires sigma >= 0")
    rho = as_complex(rho)
    if rho.imag == 0.0 and rho.real <= 0.0 and rho.real.is_integer() and sigma > -rho.real:
        return 0.0 + 0.0j
    out = 1.0 + 0.0j
    for i in range(sigma):
        out *= rho + i
    if not cmath.isfinite(out):
        raise DomainError(f"({rho})_{sigma} is not representable in double precision")
    return out


# ---------------------------------------------------------------------------
# odd-zeta power series and its digamma closed forms

_ZETA_ODD_VARIANTS = ("plain", "alternating", "real_part")


def zeta_odd_series(z, variant: str = "plain") -> Evaluation:
    """Power series sum_k zeta(2k+1) z^(2k) (k >= 1) against its digamma form.

    variant "plain":        sum zeta(2k+1) z^(2k)        = -[psi(1+z)+psi(1-z)]/2 - gamma
    variant "alternating":  sum (-1)^(k-1) zeta(2k+1) z^(2k)
                                                         = [psi(1+iz)+psi(1-iz)]/2 + gamma
    variant "real_part":    same series, z real,          = gamma + Re psi(1+iz)

    Returns the digamma form; the truncated-series value and the discrepancy
    between the two representations land in Evaluation.diagnostics.
    """
    if variant not in _ZETA_ODD_VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    z = as_complex(z)
    if variant == "real_part" and z.imag != 0.0:
        raise DomainError("real_part variant requires real z")
    if abs(z) >= 1.0:
        raise DomainError("zeta_odd_series requires |z| < 1")

    if variant == "plain":
        closed = -0.5 * (digamma(1.0 + z) + digamma(1.0 - z)) - EULER_GAMMA
    elif variant == "alternating":
        closed = 0.5 * (digamma(1.0 + 1j * z) + digamma(1.0 - 1j * z)) + EULER_GAMMA
    else:
        closed = complex(EULER_GAMMA + digamma(1.0 + 1j * z).real)

    # zeta(2k+3)/zeta(2k+1) < 1, so the terms in w = +-z^2 shrink at least by |z|^2
    w = z * z if variant == "plain" else -z * z
    try:
        series, tail, used = power_series(lambda k: riemann_zeta(2 * k + 1) if k else 0.0, w, abs(w))
    except NonConvergence as exc:  # the series is only a diagnostic here
        series, tail, used = exc.partial.value, exc.partial.err_estimate, exc.partial.terms_used
    if variant != "plain":
        series = -series
    return Evaluation(
        value=closed,
        err_estimate=16 * abs(closed) * 1e-16 + 1e-300,
        terms_used=used,
        route="digamma",
        diagnostics={"series_value": series, "pair_discrepancy": abs(series - closed),
                     "series_tail_bound": tail},
    )


# ---------------------------------------------------------------------------
# integral form of Re psi on the vertical line through 1

def digamma_realpart_integral(t: float) -> float:
    """-gamma + 2*int_0^oo e^(-u) sin^2(t*u/(2*pi)) / sinh(u) du = Re psi(1 + i*t/(2*pi))."""
    if not math.isfinite(t):
        raise DomainError("t must be finite")
    freq = t / (2.0 * PI)

    def f(u: float) -> float:
        return math.exp(-u) * math.sin(freq * u) ** 2 / math.sinh(u)

    # |f| <= e^-u/sinh(u) <= 2 e^(-2u)/(1 - e^-u); the smallest node of the head,
    # even at the depth cap, is above 1e-11, where sin^2/sinh is still well scaled
    head, _, _ = adaptive_quad(f, 0.0, 2.0)
    tail, _, _ = quad_decaying_tail(f, 2.0, rate=2.0, log_scale=math.log(2.0))
    return -EULER_GAMMA + 2.0 * (head + tail).real
