"""Direct tests of the series acceleration engines against closed values."""
from __future__ import annotations

import math

import numpy as np
import pytest

from eiskern.summation import (alternating_sum, power_tail, richardson_limit,
                               wynn_epsilon)

LOG2 = math.log(2.0)


def test_alternating_sum_log2():
    v, err, used = alternating_sum(lambda k: 1.0 / k)
    assert v.real == pytest.approx(LOG2, abs=1e-14)
    assert err <= 1e-12 and used < 100


def test_alternating_sum_slow_decay():
    # eta(1/2), terms k^(-1/2): hopeless without acceleration
    want = 0.6048986434216304
    v, _, _ = alternating_sum(lambda k: k ** -0.5)
    assert v.real == pytest.approx(want, abs=1e-13)


def test_alternating_sum_aitken_fallback_on_nonmonotone_terms():
    # absolutely convergent but with non-monotone moduli
    term = lambda k: (2.0 + math.sin(k)) / k ** 2
    k = np.arange(1, 2_000_001, dtype=float)
    brute = math.fsum((-1.0) ** (k - 1) * (2.0 + np.sin(k)) / k ** 2)
    v, _, _ = alternating_sum(term)
    assert v.real == pytest.approx(brute, abs=1e-9)


def test_alternating_sum_wynn_fallback_runs():
    # CRVZ misses on modulated moduli, so the epsilon algorithm takes over
    term = lambda k: (2.0 + math.sin(k)) / k ** 2
    k = np.arange(1, 2_000_001, dtype=float)
    brute = math.fsum((-1.0) ** (k - 1) * (2.0 + np.sin(k)) / k ** 2)
    v, err, used = alternating_sum(term)
    assert used > 32
    assert v.real == pytest.approx(brute, abs=1e-9)


def test_dirichlet_eta_terms_against_mpmath():
    mp = pytest.importorskip("mpmath")
    from eiskern import dirichlet_eta
    for s in (0.01, 0.5, 1.5, 3.0, 7.0, 4001.0):
        want = float(mp.altzeta(s))
        assert abs(dirichlet_eta(s) - want) <= 2e-15
        v, err, used = alternating_sum(lambda k: k ** -s)
        assert used == 32 and abs(v.real - want) <= 2e-15


def test_richardson_limit_stops_at_convergence():
    # the full tableau would sum 16*2^8 terms; the diagonal settles at 16*2^6
    v, err, n = richardson_limit(lambda k: 1.0 / k ** 2, 16, 8, rel_tol=1e-12)
    assert n <= 16 * 2 ** 6
    assert v.real == pytest.approx(math.pi ** 2 / 6.0, abs=1e-11)
    assert abs(v.real - math.pi ** 2 / 6.0) <= err


def test_richardson_limit_basel():
    # sum 1/k^2 with tail ~ 1/N: Richardson recovers pi^2/6 from few terms
    v, err, n = richardson_limit(lambda k: 1.0 / k ** 2, 16, 6)
    assert v.real == pytest.approx(math.pi ** 2 / 6.0, abs=1e-11)
    assert err < 1e-9 and n == 16 * 2 ** 6


def test_wynn_epsilon_geometric():
    # partial sums of sum 0.9^k: slow geometric, epsilon nails the limit
    partials, acc = [], 0.0
    for k in range(1, 30):
        acc += 0.9 ** k
        partials.append(acc)
    v, err = wynn_epsilon(partials)
    assert v.real == pytest.approx(9.0, abs=1e-10)
    # sum 0.5^k with the k = 2 term zero: the repeated partial sum is not the limit
    partials = [sum(0.5 ** j for j in range(1, k + 1) if j != 2) for k in range(1, 40)]
    v, err = wynn_epsilon(partials)
    assert abs(v - 0.75) <= err <= 1e-14


def test_wynn_epsilon_boundary_logarithm():
    # sum e^(i k pi/2)/k = -log(1 - i)
    import cmath
    w = cmath.exp(1j * math.pi / 2)
    partials, acc = [], 0.0 + 0.0j
    wk = 1.0 + 0.0j
    for k in range(1, 100):
        wk *= w
        acc += wk / k
        partials.append(acc)
    v, _ = wynn_epsilon(partials[-64:])
    assert abs(v - (-cmath.log(1 - 1j))) < 1e-12


def test_power_tail_matches_zeta():
    from eiskern import riemann_zeta
    for s in (1.5, 2.0, 3.2):
        n = 25
        head = sum(k ** (-s) for k in range(1, n + 1))
        assert head + power_tail(s, n) == pytest.approx(riemann_zeta(s), rel=1e-13)


def test_wynn_epsilon_exact_limit_has_rounding_floor():
    # the sequence reaches its limit exactly; the error is not claimed to be 0
    v, err = wynn_epsilon([0.5, 0.75, 1.0, 1.0, 1.0])
    assert v == 1.0 and err > 0.0


def test_err_estimate_bounds_true_error():
    mp = pytest.importorskip("mpmath")
    from eiskern import eisenstein_direct, he_direct
    from eiskern.suites import SuiteConfig, strip_grid

    @mp.workdps(30)
    def eps_oracle(r, z):
        z = mp.mpc(z)
        if r == 1:
            return complex(mp.pi * mp.cot(mp.pi * z))
        return complex((mp.psi(r - 1, 1 - z) + (-1) ** r * mp.psi(r - 1, z)) / mp.factorial(r - 1))

    for z in strip_grid(SuiteConfig()):
        for r in range(1, 7):
            ev = eisenstein_direct(r, z)
            assert abs(ev.value - eps_oracle(r, z)) <= ev.err_estimate, (r, z)

    @mp.workdps(30)
    def he_oracle(r, z):
        z = mp.mpc(z)
        return complex(mp.nsum(lambda k: (-1) ** k * ((z + 1j * k) ** -r - (z - 1j * k) ** -r),
                               [1, mp.inf]))

    for z in (0.3 + 0.2j, 1.5 - 0.7j, 0.8, 2.5 + 0.4j):
        for r in range(1, 5):
            ev = he_direct(r, z)
            assert abs(ev.value - he_oracle(r, z)) <= ev.err_estimate, (r, z)

    for s in (0.01, 0.5, 1.5, 3.0, 7.0, 4001.0):
        v, err, _ = alternating_sum(lambda k: k ** -s)
        assert abs(v.real - float(mp.altzeta(s))) <= err, s
