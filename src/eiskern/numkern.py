"""Kernel special functions consumed by every other module.

Gamma, digamma and polygamma for complex arguments, Riemann zeta / Dirichlet
eta / Dirichlet lambda on the real line, exact-rational Bernoulli numbers and
polynomials, the Pochhammer symbol, the odd-zeta power series and the
real-part-of-digamma integral.

Algorithm notes (also the tested contracts):

* psi_r for every order r >= 0 (psi_0 = psi) comes from one kernel, _psi:
  the recurrence psi_r(z) = psi_r(z+1) + (-1)^(r+1) r! z^(-r-1) shifts Re z up
  to >= 14, where the asymptotic series with Bernoulli-number tail (DLMF
  5.11.2, 5.15.8) is accurate to ~1e-16.  digamma and polygamma first reflect
  Re z < 0 through psi_r(z) = (-1)^r psi_r(1 - z) - pi^(r+1) cot^(r)(pi*z), the
  r-th cot derivative a polynomial in cot and 1/sin^2 (near the real axis, its
  pole terms), so their cost does not grow with |z|.  The direct summation of
  the defining series is kept in the test suite as the slow oracle.
* cot, 1/sin^2 (csc2) and coth share one q-form, q = e^(+-2iw) with |q| <= 1.
* zeta for non-even-integer s > 1 is eta(s) / (1 - 2^(1-s)) because the
  alternating series is stable down to s -> 1+; even integer s uses the
  exact Bernoulli closed form.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
import sys
from fractions import Fraction

from .errors import DomainError, Evaluation, PoleError, doubles_only
from .quadrature import quad_decaying_tail
from .summation import alternating_sum, power_series

EULER_GAMMA = 0.5772156649015328606065120900824024
PI = math.pi
_PI_LO = 1.2246467991473532e-16  # pi - PI
LOG_MAX = math.log(sys.float_info.max)

POLE_GUARD = 1e-12  # hard rejection radius around poles

# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials (exact rational arithmetic internally)

# One entry per index up to the largest n asked for: B_20 for polygamma,
# B_120 for the moment series, and the caller's own n through the public API.
@functools.cache
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention); B_(2m+1) = 0 for m >= 1."""
    n = as_index(n, 0, f"Bernoulli index n must be >= 0, got {n}")
    if n < 2 or n % 2:
        return {0: Fraction(1), 1: Fraction(-1, 2)}.get(n, Fraction(0))
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 over the nonzero B_k; ascending k keeps recursion shallow
    return -sum(math.comb(n + 1, k) * bernoulli_number(k) for k in (0, 1, *range(2, n, 2))) / (n + 1)


def log_bernoulli(n: int) -> float:
    """log |B_n| for even n >= 2 from |B_n| = 2 n! zeta(n)/(2 pi)^n, with zeta(n) taken as 1:
    a lower bound, short by log zeta(n) < 2^(2-n)."""
    return math.log(2.0) + math.lgamma(n + 1) - n * math.log(2.0 * PI)


@doubles_only("bernoulli_poly({n}, {x}) requires a finite x, every term C(n,k) B_k x^(n-k) "
              "and their sum to be doubles")
def bernoulli_poly(n: int, x: float) -> float:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k x^(n-k); DomainError where a
    term or the sum is not a double, at every x from n = 259 on."""
    n = as_index(n, 0, f"Bernoulli index n must be >= 0, got {n}")
    # a C(n,k) B_k past the largest double by a factor e is no double whatever x is:
    # rejected before any exact B_k is built; nearer, the exact terms decide
    if any(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + log_bernoulli(k)
           > LOG_MAX + 1.0 for k in range(2, n + 1, 2)):
        raise OverflowError("a coefficient C(n,k) B_k is not a double")
    return float(sum(float(math.comb(n, k) * bernoulli_number(k)) * x ** (n - k) for k in range(n + 1)))


# ---------------------------------------------------------------------------
# helpers

def as_complex(z) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("argument must have finite real and imaginary part")
    return z


def as_real(x) -> float:
    """A finite argument with no imaginary part, as a float; DomainError otherwise."""
    z = as_complex(x)
    if z.imag != 0.0:
        raise DomainError(f"a real argument is required, got {z}")
    return z.real


def as_index(n, least: int, message: str, most: float = math.inf) -> int:
    """An index or order n: an integer in [least, most] in the sense of operator.index, so
    2 and True pass and 2.0 does not; DomainError(message) otherwise."""
    index = operator.index(n) if hasattr(type(n), "__index__") else least - 1
    if not least <= index <= most:
        raise DomainError(message)
    return index


def as_order(r) -> int:
    """The order r >= 1 of an Eisenstein or Hilbert-Eisenstein series or of polygamma."""
    return as_index(r, 1, "order r must be a positive integer")


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


@doubles_only("gamma({z}) is not representable in double precision")
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
    return cmath.exp(_log_gamma(z))


# ---------------------------------------------------------------------------
# digamma / polygamma

_SHIFT_RE = 14.0


def digamma(z) -> complex:
    """Digamma psi(z) = psi_0(z), by _psi_reflected: for Re z < 0 the reflection
    psi(z) = psi(1 - z) - pi*cot(pi*(z - n)), n = round(Re z)."""
    z = as_complex(z)
    _guard_nonpositive_integer(z, "digamma")
    return _psi_reflected(0, z)


@doubles_only("polygamma({r}, {z}): psi_r or a term of its asymptotic series or reflection "
              "is not a double")
def polygamma(r: int, z) -> complex:
    """Polygamma psi_r(z), r >= 1, by _psi_reflected, in a time bounded in |z|.

    DomainError where psi_r(z) or a term of its sums is not a double: near a pole at
    high order, and at every z from r = 151, where the asymptotic coefficients overflow.
    """
    r = as_order(r)  # digamma is psi_0
    z = as_complex(z)
    _guard_nonpositive_integer(z, "polygamma")
    return _psi_reflected(r, z)  # w^-(r+1) may overflow, or its reciprocal underflow to 0


_CANCEL = 64.0  # the largest cancellation accepted in the sum of _cot_poly


def _psi_reflected(r: int, z: complex) -> complex:
    """psi_r(z), r >= 0, off the poles, at a cost bounded in |z|: _psi for Re z >= 0, else
    the reflection psi_r(z) = (-1)^r psi_r(1 - z) - pi^(r+1) cot^(r)(pi*x), x = z - n with
    n = round(Re z) (DLMF 5.15.6), so Re(1 - z) > 1 and _psi shifts nothing past its target.
    cot has period pi, and x keeps the distance to the pole at n, which pi*z would lose
    to rounding.  For r >= 1, cot^(r) is _cot_poly's sum in u = cot and v = csc2 where
    |Im x| >= 1/2 and that sum cancels by at most _CANCEL.  Elsewhere pole terms stand
    for it, which keep x^(-r-1) exact where pi^(r+1) (pi*x)^(-r-1) would round r + 1
    times, and cancel only where cot^(r) is exponentially small, at large |Im x|: for
    |Im x| < 1/2 the shifts of _psi from z itself where Re z >= -14 (at most the target
    + 14), else the reflection at x, pi^(r+1) cot^(r)(pi*x) = (-1)^r psi_r(1 - x) -
    psi_r(x), at most the target + 1 shifts each."""
    if z.real >= 0.0:
        return _psi(r, z)
    x = z - round(z.real)
    if not r:
        return _psi(0, 1.0 - z) - PI * cot(PI * x)
    if abs(x.imag) < 0.5 and z.real >= -_SHIFT_RE:  # 14 shifts more at most: no dearer
        return _psi(r, z)
    psi = _psi(r, 1.0 - z)  # first: from r = 151 it raises before _cot_poly builds P_r
    sign = -1.0 if r % 2 else 1.0
    if abs(x.imag) >= 0.5:
        w = PI * x
        v = csc2(w)
        av = abs(v)
        s = bound = 0.0
        for c in reversed(_cot_poly(r)):  # Horner in v, and the same sum of magnitudes
            s = s * v + c
            bound = bound * av + abs(c)
        if bound <= _CANCEL * abs(s):
            return sign * psi - PI ** (r + 1) * (s if r % 2 else cot(w) * s)
    return sign * (psi - _psi(r, 1.0 - x)) + _psi(r, x)


@functools.cache
def _cot_poly(r: int) -> tuple[int, ...]:
    """The integers c_b of cot^(r)(w) = P_r = u^a sum_b c_b v^b, u = cot w, v = csc2 w =
    1 + u^2, a = 1 for even r and 0 for odd r (M. E. Hoffman, Amer. Math. Monthly 102, 1995):
    P_0 = u and P_(r+1) = -v dP_r/du with dv/du = 2u and u^2 -> v - 1.  A sum in v, not
    in u alone: cot^(r) vanishes at u = +-i, which v = 0 factors out exactly, and a sum
    in u would cancel there, at large |Im w|."""
    if not r:
        return (1,)
    c = (*_cot_poly(r - 1), 0)
    if r % 2:  # -v (Q + 2(v - 1) Q') from P_(r-1) = u Q(v)
        return tuple(2 * b * c[b] - (2 * b - 1) * c[b - 1] if b else 0 for b in range(len(c)))
    return tuple(-2 * b * c[b] for b in range(len(c) - 1))  # -2uv Q' from P_(r-1) = Q(v)


def _psi(r: int, z: complex) -> complex:
    """psi_r(z), r >= 0 (psi_0 = psi), off the poles: the recurrence
    psi_r(w) = psi_r(w+1) + (-1)^(r+1) r! w^(-r-1) shifts Re w up to >= max(14, r + 6), where
    psi_r(w) ~ (-1)^(r-1) [L_r + r!/(2 w^(r+1)) + sum_j B_2j (2j+r-1)!/(2j)! w^(-2j-r)]
    (DLMF 5.11.2, 5.15.8) with L_0 = -log w and L_r = (r-1)!/w^r.  The terms grow with r:
    at |w| = 14 they stop short of the rounding level from r of about 20."""
    lead, half, asy = _psi_asy(r)
    acc = 0.0 + 0.0j
    w = z
    if r:
        # (-1)^(r+1) r!, the coefficient of the recurrence, and where the shifts stop
        coef, power, top = 2.0 * half, -(r + 1), max(_SHIFT_RE, r + 6.0)
        while w.real < top:
            acc += coef * w ** power
            w += 1.0
    else:
        while w.real < _SHIFT_RE:
            acc -= 1.0 / w
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
    """Dirichlet eta(s) = sum (-1)^(n-1) n^(-s), finite s > 0, one alternating sum at every s."""
    if not 0 < s < math.inf:
        raise DomainError(f"dirichlet_eta requires s > 0 and finite, got {s}")
    value, _, _ = alternating_sum(lambda k: k ** (-s), start=1)
    return value.real


def zeta_closed_index(s: float) -> int:
    """m where riemann_zeta(s) takes the Bernoulli closed form, s = 2m <= 170; else 0."""
    n = round(s)
    return n // 2 if abs(s - n) <= 1e-12 and n % 2 == 0 and 0 < n <= 170 else 0


def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1; even integers s <= 170 use the exact Bernoulli closed form,
    within 4.5e-16 relative of zeta(s) through s = 170; odd integers read the cached
    eta_odd((s - 1)/2), the same double as dirichlet_eta(s)."""
    if not 1 < s < math.inf:
        raise DomainError(f"riemann_zeta requires s > 1 and finite, got {s}")
    m = zeta_closed_index(s)
    if m:
        b = bernoulli_number(2 * m)
        # PI^(2m) carries 2m times the rounding of PI; (1 + 2m*_PI_LO/PI) restores it
        return (float((-1) ** (m + 1)) * 2.0 ** (2 * m - 1) * PI ** (2 * m) * float(b)
                / math.factorial(2 * m) * (1.0 + 2 * m * _PI_LO / PI))
    eta = eta_odd(int(s) // 2) if s == int(s) and int(s) % 2 else dirichlet_eta(s)
    return eta / -math.expm1((1.0 - s) * math.log(2.0))


def dirichlet_lambda(r: float) -> float:
    """lambda(r) = sum_{k>=0} (2k+1)^(-r) = (1 - 2^(-r)) zeta(r), r > 1."""
    if not 1 < r < math.inf:
        raise DomainError(f"dirichlet_lambda requires r > 1 and finite, got {r}")
    return -math.expm1(-r * math.log(2.0)) * riemann_zeta(r)


# One entry per n asked for: he_taylor and zeta_odd_series stop within
# power_series' 4000 terms, the Omega Taylor coefficients at the largest k that
# omega_taylor or the closed moment route (the caller's k) asks for,
# conj_bernoulli_half at m, and riemann_zeta at each odd integer s it is given.
@functools.cache
def eta_odd(n: int) -> float:
    """eta(2n+1), n >= 0: the odd eta values behind both Taylor expansions."""
    return dirichlet_eta(float(2 * n + 1))


# ---------------------------------------------------------------------------
# Pochhammer

@doubles_only("({rho})_{sigma} is not representable in double precision")
def pochhammer(rho, sigma: int) -> complex:
    """Rising factorial (rho)_sigma as a finite product; (rho)_0 = 1, (0)_0 = 1.

    The product is exactly 0 when rho is a non-positive integer and
    sigma > -rho; otherwise raises DomainError when it overflows.
    """
    if sigma < 0:
        raise DomainError(f"pochhammer requires sigma >= 0, got {sigma}")
    rho = as_complex(rho)
    if rho.imag == 0.0 and rho.real <= 0.0 and rho.real.is_integer() and sigma > -rho.real:
        return 0.0 + 0.0j
    out = 1.0 + 0.0j
    for i in range(sigma):
        out *= rho + i
    return out


# ---------------------------------------------------------------------------
# odd-zeta power series

def zeta_odd_series(z) -> Evaluation:
    """The power series sum_{k>=1} zeta(2k+1) z^(2k) on |z| < 1, which sums to the digamma
    form -[psi(1+z) + psi(1-z)]/2 - gamma; the numkern.identities suite compares the two.
    NonConvergence where 4000 terms do not reach the rounding of the sum: from |z| of about
    0.9955 on the imaginary axis and 0.9961 on the real axis."""
    z = as_complex(z)
    if abs(z) >= 1.0:
        raise DomainError("zeta_odd_series requires |z| < 1")
    # zeta(2k+3)/zeta(2k+1) < 1, so the terms in w = z^2 shrink at least by |z|^2
    w = z * z
    value, err, used = power_series(lambda k: riemann_zeta(2 * k + 1) if k else 0.0, w, abs(w))
    return Evaluation(value, err, used, "series")


# ---------------------------------------------------------------------------
# integral form of Re psi on the vertical line through 1

def digamma_realpart_integral(t: float) -> float:
    """-gamma + 2*int_0^oo e^(-u) sin^2(t*u/(2*pi)) / sinh(u) du = Re psi(1 + i*t/(2*pi))."""
    if not math.isfinite(t):
        raise DomainError("t must be finite")
    freq = t / (2.0 * PI)

    def f(u: float) -> float:
        return math.exp(-u) * math.sin(freq * u) ** 2 / math.sinh(u)

    # |f| <= e^-u/sinh(u) <= 2 e^(-2u)/(1 - e^-u); the smallest node, even at the
    # depth cap on [0, 1], is above 5e-12, where sin^2/sinh is still well scaled
    value, _, _ = quad_decaying_tail(f, 0.0, rate=2.0, log_scale=math.log(2.0))
    return -EULER_GAMMA + 2.0 * value.real
