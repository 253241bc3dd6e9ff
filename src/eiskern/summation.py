"""One engine per kind of series, each with a known error bound: Richardson in 1/N
on a fixed ratio-1.5 step schedule for monotone sums of rational terms; CRVZ
(Cohen-Rodriguez Villegas-Zagier, Exp. Math. 9, 2000), with the epsilon algorithm as
fallback, for alternating sums; summation to the rounding of the sum with a geometric
tail bound for power series inside their disc.  Reported errors add a rounding floor
to the truncation estimate, which decides convergence; a Richardson correction within
its floor eps*sum|t_k| counts as converged.  All are linear in the partial sums."""
from __future__ import annotations

import math
import sys
from itertools import accumulate
from typing import Callable, Sequence

from .controls import Evaluation
from .errors import NonConvergence

_EPS = sys.float_info.epsilon
REL_TOL = 1e-12  # alternating sums stop here; Richardson callers raise NonConvergence past it
_RATIO_STEPS = tuple(round(8 * 1.5 ** j) for j in range(19))  # 8, 12, 18, ..., 11823 <= 16384
_RATIO_TOL = 3e-13  # stopping at REL_TOL, Richardson on _RATIO_STEPS loses digits
_POWER_TERMS = 4000  # he_taylor needs 2660 terms at |z| = 0.993


def richardson_limit(term: Callable[[int], complex],
                     first: complex = 0.0) -> tuple[complex, float, int, float]:
    """Extrapolate S = first + sum_{k>=1} term(k) from partial sums at N in _RATIO_STEPS.

    Neville-Aitken table in h = 1/N over the steps N = round(8*1.5^j) (Bulirsch-Stoer
    1964; Sidi 2003, ch. 1-2): stage m removes the h^m term of the tail, as for
    symmetric sums of rational terms; each block of terms enters the running sum in
    one exactly rounded fsum.  Stops after the first row j >= 1 whose diagonal
    correction corr is at most _RATIO_TOL*|R[j][j]| or within the rounding floor
    eps*sum|t_k|, which settles sums whose value cancels to about 0.  Returns
    (value, err_estimate = corr + N*eps*|value| + eps*sum|t_k|, N, corr), with corr
    read as 0 once within that floor; the caller judges convergence from corr.
    """
    ns = _RATIO_STEPS
    acc, mass = complex(first), abs(first)  # mass = |first| + sum |t_k|
    table: list[complex] = []               # table[m] = R[j-1][m] of the last row
    for j, n in enumerate(ns):
        block = [term(k) for k in range(ns[j - 1] + 1 if j else 1, n + 1)]
        acc = complex(math.fsum([acc.real, *(t.real for t in block)]),
                      math.fsum([acc.imag, *(t.imag for t in block)]))
        mass += sum(map(abs, block))
        row = [acc]
        for m in range(1, j + 1):
            row.append(row[m - 1] + (row[m - 1] - table[m - 1]) / (n / ns[j - m] - 1.0))
        corr = abs(row[-1] - table[-1]) if j else abs(acc)
        settled = corr <= _EPS * mass
        table = row
        if j and (settled or corr <= _RATIO_TOL * abs(row[-1])):
            break
    return table[-1], corr + n * _EPS * abs(table[-1]) + _EPS * mass, n, 0.0 if settled else corr


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


def alternating_sum(term: Callable[[int], complex]) -> tuple[complex, float, int]:
    """Sum_{k>=1} (-1)^(k-1) term(k) with term(k) the unsigned tail.

    CRVZ on 32 terms with truncation error |CRVZ_32 - CRVZ_24|; if that
    misses REL_TOL, the epsilon algorithm on blocks of 128, 512, 2048 terms
    until one meets it (NonConvergence, last estimate in `partial`, when even
    2048 terms miss 128*REL_TOL).  The error adds the floor sqrt(n)*eps*sum|t_k|.
    """
    converged = lambda v, e, mult=1.0: e <= max(mult * REL_TOL * abs(v), 1e-16)
    terms = [term(k) for k in range(1, 33)]
    value = _crvz(terms, 32)
    trunc = abs(value - _crvz(terms, 24))
    if not converged(value, trunc):
        # modulated moduli defeat CRVZ; epsilon resums unit-circle transients
        for size in (128, 512, 2048):
            terms += [term(k) for k in range(len(terms) + 1, size + 1)]
            partials = list(accumulate(t if j % 2 == 0 else -t for j, t in enumerate(terms)))
            value, trunc = wynn_epsilon(partials[-64:])
            if converged(value, trunc):
                break
    err = trunc + math.sqrt(len(terms)) * _EPS * sum(map(abs, terms))
    if not converged(value, trunc, 128.0):  # best effort: a generous multiple
        raise NonConvergence("alternating series: acceleration did not reach REL_TOL",
                             Evaluation(value, err, len(terms), "alternating"))
    return value, err, len(terms)


def wynn_epsilon(partials: Sequence[complex]) -> tuple[complex, float]:
    """Shanks-type limit of a sequence of partial sums via the epsilon table.

    Returns the deepest even-column entry and, as error estimate, its
    distance to the previous even column plus the rounding floor of the
    n partial sums, sqrt(n)*eps*(|s_0| + sum|s_(i+1) - s_i|).  A sequence
    whose last two partial sums are equal has settled: the floor is its
    error.  Suited to power-series partial sums on the boundary of
    convergence.
    """
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
