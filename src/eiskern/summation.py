"""One engine per kind of series, each with a known error bound, run on a property its
caller states: Richardson in 1/N^2 with a stated leading exponent, on endpoint-corrected
partial sums over a fixed ratio-1.5 step schedule, for monotone sums of rational terms;
CRVZ (Cohen-Rodriguez Villegas-Zagier, Exp. Math. 9, 2000) from a stated start of the
moment sequence for alternating sums; summation to the rounding of the sum with a stated
geometric tail bound for power series.  Reported errors add a rounding floor to the
truncation estimate, which decides convergence; a Richardson correction within its floor
eps*sum|t_k| counts as converged.  No series runs the epsilon algorithm."""
from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Sequence

from .controls import Evaluation
from .errors import DomainError, NonConvergence

_EPS = sys.float_info.epsilon
REL_TOL = 1e-12  # NonConvergence past 128*REL_TOL (alternating sums) or REL_TOL (Richardson callers)
_RATIO_STEPS = tuple(round(8 * 1.5 ** j) for j in range(19))  # 8, 12, 18, ..., 11823 <= 16384
_RATIO_TOL = 3e-13  # stopping at REL_TOL, Richardson on _RATIO_STEPS loses digits
_POWER_TERMS = 4000  # he_taylor needs 2660 terms at |z| = 0.993


@functools.cache
def _richardson_weights(lead: float) -> tuple[tuple[tuple[float, ...], float], ...]:
    """Row j of Richardson extrapolation on _RATIO_STEPS with known tail exponents: the
    weights w_0..w_j, summing to 1, that cancel h^lead, h^(lead+2), ..., h^(lead+2j-2)
    in sum w_n T(h_n), and the row's noise amplification sum|w|.  In x = (8/N)^2,
    w_n is proportional to 1/(x_n^(lead/2) prod_(i != n) (x_n - x_i)) (Sidi 2003,
    ch. 1-2); x_n^(lead/2) is taken relative to x_j, so no lead overflows."""
    ns = _RATIO_STEPS
    xs = [(8.0 / n) ** 2 for n in ns]
    rows = []
    for j in range(len(ns)):
        raw = [(ns[n] / ns[j]) ** lead / math.prod(xs[n] - xs[i] for i in range(j + 1) if i != n)
               for n in range(j + 1)]
        total = math.fsum(raw)
        w = tuple(v / total for v in raw)
        rows.append((w, math.fsum(map(abs, w))))
    return tuple(rows)


def richardson_limit(term: Callable[[int], complex], first: complex = 0.0, *,
                     lead: float) -> tuple[complex, float, int, float]:
    """Extrapolate S = first + sum_{k>=1} term(k) from partial sums at N in _RATIO_STEPS.

    The caller states the series' leading tail exponent `lead`: the endpoint-corrected
    partial sum T_N = S_N - t_N/2 misses S by h^lead (c_0 + c_1 h^2 + ...), h = 1/N,
    when the terms expand in every other power of 1/k (the half last term cancels the
    odd Euler-Maclaurin corrections).  Row j combines every T_N so far with the weights
    of _richardson_weights (Romberg's case of Richardson extrapolation; Bulirsch-Stoer
    1964); each block of terms enters the running sum in one exactly rounded fsum.
    Stops after the first row j >= 1 whose correction corr = |R_j - R_(j-1)| is at most
    _RATIO_TOL*|R_j| or within the rounding floor eps*sum|t_k|, which settles sums whose
    value cancels to about 0.  Returns (value, err_estimate = corr
    + L_j*((j + 2)*eps*|value| + eps*sum|t_k|), N, corr), where L_j = sum|w| (<= 14.9
    for lead >= 1) amplifies the rounding of the T_N, each carrying one rounding per
    block of the running sum and one for the endpoint correction; corr reads 0 once
    within that floor, and the caller judges convergence from corr.
    """
    ns = _RATIO_STEPS
    rows = _richardson_weights(lead)
    acc, mass = complex(first), abs(first)  # mass = |first| + sum |t_k|
    ts: list[complex] = []                  # T_N at each step so far
    value = 0.0 + 0.0j
    for j, n in enumerate(ns):
        block = [term(k) for k in range(ns[j - 1] + 1 if j else 1, n + 1)]
        acc = complex(math.fsum([acc.real, *(t.real for t in block)]),
                      math.fsum([acc.imag, *(t.imag for t in block)]))
        mass += sum(map(abs, block))
        ts.append(acc - 0.5 * block[-1])
        weights, amp = rows[j]
        prev, value = value, sum(w * t for w, t in zip(weights, ts))
        corr = abs(value - prev) if j else abs(value)
        settled = corr <= _EPS * mass
        if j and (settled or corr <= _RATIO_TOL * abs(value)):
            break
    return value, corr + amp * ((j + 2) * _EPS * abs(value) + _EPS * mass), n, 0.0 if settled else corr


def _crvz(terms: Sequence[complex], n: int) -> complex:
    """CRVZ Algorithm 1: sum (-1)^k terms[k] over the first n terms; for
    moment sequences the error is <= 2 (3+sqrt 8)^-n sum|terms[k]|."""
    d = math.cosh(n * math.log(3.0 + math.sqrt(8.0)))
    b, c, s = -1.0, -d, 0.0 + 0.0j
    for k in range(n):
        c = b - c
        s += c * terms[k]
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return s / d


def alternating_sum(term: Callable[[int], complex], *, start: int) -> tuple[complex, float, int]:
    """Sum_{k>=1} (-1)^(k-1) term(k) with term(k) the unsigned tail.

    The caller states `start`, from which on the terms are a moment sequence int_0^1 u^k
    w(u) du (CRVZ's hypothesis; 1/(k + c) and (k + c)^(-r) are one for k > -Re c).  The
    terms k < start enter one exactly rounded fsum, CRVZ on the 32 terms from `start` the
    rest; err = trunc + sqrt(n)*eps*sum|t_k| over all n = start + 31 terms, with trunc =
    |CRVZ_32 - CRVZ_24|.  NonConvergence (last estimate in `partial`) when trunc exceeds
    128*REL_TOL*|value|; DomainError for start outside 1..4096, which bounds the cost."""
    if not 1 <= start <= 4096:
        raise DomainError(f"alternating_sum: start = {start} outside 1..4096")
    terms = [term(k) for k in range(1, start + 32)]
    value = _crvz(terms[start - 1:], 32)
    trunc = abs(value - _crvz(terms[start - 1:], 24))
    if start > 1:  # (-1)^(k-1) term(k) for k < start, and for k = start the tail's CRVZ value
        signed = [t if k % 2 else -t for k, t in enumerate(terms[:start - 1] + [value], 1)]
        value = complex(math.fsum(t.real for t in signed), math.fsum(t.imag for t in signed))
    err = trunc + math.sqrt(len(terms)) * _EPS * sum(map(abs, terms))
    if trunc > max(128.0 * REL_TOL * abs(value), 1e-16):
        raise NonConvergence("alternating series: CRVZ did not reach 128*REL_TOL",
                             Evaluation(value, err, len(terms), "alternating"))
    return value, err, len(terms)


def wynn_epsilon(partials: Sequence[complex]) -> tuple[complex, float]:
    """Shanks-type limit of partial sums via the epsilon table; its estimate is no bound.
    No module calls it; it stays for the benchmark's layer tracer until ROADMAP item 4.

    Returns the deepest even-column entry and, as error estimate, its distance to the
    previous even column plus the rounding floor of the n partial sums,
    sqrt(n)*eps*(|s_0| + sum|s_(i+1) - s_i|).  A sequence whose last two partial sums
    are equal has settled: the floor is its error."""
    n = len(partials)
    if n < 3:
        return partials[-1], abs(partials[-1])
    floor = math.sqrt(n) * _EPS * (abs(partials[0]) + sum(
        abs(b - a) for a, b in zip(partials, partials[1:])))
    if partials[-1] == partials[-2]:
        return partials[-1], floor
    # a zero term repeats a partial sum; its zero difference would end the table early
    eps_cur = [a for a, b in zip(partials, partials[1:]) if a != b] + [partials[-1]]
    eps_prev = [0.0 + 0.0j] * (len(eps_cur) + 1)   # column -1
    best = prev_best = eps_cur[-1]
    col = 0
    while len(eps_cur) >= 2:
        nxt = []
        for i in range(len(eps_cur) - 1):
            d = eps_cur[i + 1] - eps_cur[i]
            if d == 0:
                return eps_cur[i + 1], floor
            nxt.append(eps_prev[i + 1] + 1.0 / d)
        eps_prev, eps_cur = eps_cur, nxt
        col += 1
        if col % 2 == 0 and eps_cur:
            prev_best, best = best, eps_cur[-1]
    return best, abs(best - prev_best) + floor


def power_series(coeff: Callable[[int], complex], w: complex,
                 ratio: float) -> tuple[complex, float, int]:
    """Sum_{n>=0} coeff(n) w^n until a term t_n (n >= 3) is within the rounding of the
    sum, |t_n| <= eps*|S|.  The caller's ratio < 1 bounds |t_(k+1)/t_k| past it, so the
    tail is at most |t_n| ratio/(1 - ratio).  Returns (value, err_estimate = that tail +
    n*eps*|S|, n terms); NonConvergence (last estimate in `partial`) after 4000 terms."""
    total, p = 0.0 + 0.0j, 1.0 + 0.0j
    for n in range(1, _POWER_TERMS + 1):
        t = coeff(n - 1) * p
        total += t
        p *= w
        if n > 3 and abs(t) <= _EPS * abs(total):
            break
    err = abs(t) * ratio / max(1.0 - ratio, _EPS) + n * _EPS * abs(total)
    if abs(t) > _EPS * abs(total):
        raise NonConvergence(f"power series: |w| = {abs(w):.6g} needs more than {n} terms",
                             Evaluation(total, err, n, "power-series"))
    return total, err, n


def power_tail(s: float, n: int) -> float:
    """Euler-Maclaurin estimate of sum_{k>n} k^(-s) for real s > 1.

    tail = n^(1-s)/(s-1) - n^(-s)/2 + sum_{j<=8} B_2j/(2j)! (s)_{2j-1} n^(-s-2j+1)
    """
    from .numkern import bernoulli_number  # local import avoids a cycle

    tail = n ** (1.0 - s) / (s - 1.0) - 0.5 * n ** (-s)
    rising = s
    fact = 1.0
    for j in range(1, 9):
        fact *= (2 * j - 1) * (2 * j)
        if j > 1:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
        b = float(bernoulli_number(2 * j))
        tail += b / fact * rising * n ** (-s - 2 * j + 1)
    return tail
