"""Series acceleration: Richardson; for alternating sums CRVZ (Cohen-Rodriguez
Villegas-Zagier, Exp. Math. 9, 2000) with the epsilon algorithm as fallback.
Reported errors add a rounding floor to the truncation estimate, which alone
decides convergence.  All are linear (or rational) in the partial sums."""
from __future__ import annotations

import math
import sys
from itertools import accumulate
from typing import Callable, Sequence

from .controls import SumControl, DEFAULT_SUM
from .errors import NonConvergence

_EPS = sys.float_info.epsilon


def richardson_limit(term: Callable[[int], complex], n0: int, levels: int,
                     first: complex = 0.0, rel_tol: float = 0.0) -> tuple[complex, float, int]:
    """Extrapolate S = first + sum_{k>=1} term(k) from partial sums at n0*2^j.

    Assumes the tail of the partial sums expands in powers of 1/N, which
    holds for symmetric sums of rational terms; table stage m removes the
    1/N^m term.  Stops after the first row j >= 1 whose diagonal correction
    |R[j][j] - R[j-1][j-1]| is at most rel_tol*|R[j][j]| (rel_tol = 0: full
    tableau).  Returns (value, err_estimate, largest N used); err_estimate is
    the last diagonal correction plus the rounding floor N*eps*|value|.
    """
    acc = complex(first)
    k = 1
    table: list[complex] = []          # table[m] = R[j][m] of the last row
    for j in range(levels + 1):
        n_max = n0 * 2 ** j
        while k <= n_max:
            acc += term(k)
            k += 1
        row = [acc]
        for m in range(1, j + 1):
            row.append(row[m - 1] + (row[m - 1] - table[m - 1]) / (2.0 ** m - 1.0))
        corr = abs(row[-1] - table[-1]) if j else abs(acc)
        table = row
        if j and corr <= rel_tol * abs(row[-1]):
            break
    return table[-1], corr + n_max * _EPS * abs(table[-1]), n_max


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


def alternating_sum(term: Callable[[int], complex], ctl: SumControl = DEFAULT_SUM,
                    start: int = 1) -> tuple[complex, float, int]:
    """Sum_{k>=start} (-1)^(k-start) term(k) with term(k) the unsigned tail.

    CRVZ on n = min(32, max_terms) terms with truncation error
    |CRVZ_n - CRVZ_(n-8)|; if that misses rel_tol, the epsilon algorithm on
    blocks of 128, 512, 2048 terms (capped by max_terms) until one meets it.
    The error adds the rounding floor sqrt(n)*eps*sum|t_k|.
    """
    converged = lambda v, e, mult=1.0: e <= max(mult * ctl.rel_tol * abs(v), 1e-16)
    n = min(32, ctl.max_terms)
    terms = [term(start + j) for j in range(n)]
    value = _crvz(terms, n)
    trunc = abs(value - _crvz(terms, n - 8))
    if not converged(value, trunc):
        # modulated moduli defeat CRVZ; epsilon resums unit-circle transients
        for size in sorted({min(b, ctl.max_terms) for b in (128, 512, 2048)}):
            terms += [term(start + j) for j in range(len(terms), size)]
            partials = list(accumulate(t if j % 2 == 0 else -t for j, t in enumerate(terms)))
            value, trunc = wynn_epsilon(partials[-64:])
            if converged(value, trunc):
                break
        if not converged(value, trunc, 128.0):  # best effort: a generous multiple
            raise NonConvergence("alternating series: acceleration did not reach rel_tol")
    return value, trunc + math.sqrt(len(terms)) * _EPS * sum(map(abs, terms)), len(terms)


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


def power_tail(s: float, n: int, j_max: int = 8) -> float:
    """Euler-Maclaurin estimate of sum_{k>n} k^(-s) for real s > 1.

    tail = n^(1-s)/(s-1) - n^(-s)/2 + sum_j B_2j/(2j)! (s)_{2j-1} n^(-s-2j+1)
    """
    from .numkern import bernoulli_number  # local import avoids a cycle

    tail = n ** (1.0 - s) / (s - 1.0) - 0.5 * n ** (-s)
    rising = s
    fact = 1.0
    for j in range(1, j_max + 1):
        fact *= (2 * j - 1) * (2 * j)
        if j > 1:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
        b = float(bernoulli_number(2 * j))
        tail += b / fact * rising * n ** (-s - 2 * j + 1)
    return tail
