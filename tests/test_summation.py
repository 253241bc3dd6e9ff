"""Direct tests of the series acceleration engines against closed values."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from eiskern import Evaluation, NonConvergence
from eiskern.summation import (REL_TOL, alternating_sum, power_series, power_tail,
                               richardson_limit, wynn_epsilon)

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
    # the ratio-1.5 schedule runs to 11823 terms; for sum 1/k^2 the diagonal settles at 205
    v, err, n, corr = richardson_limit(lambda k: 1.0 / k ** 2)
    assert n == 205 and 0.0 < corr <= 3e-13 * abs(v)
    # a sum that cancels to about 0 stops on its rounding floor, with corr read as 0
    v, err, n, corr = richardson_limit(lambda k: 1.0 / k ** 2, first=-math.pi ** 2 / 6.0)
    assert corr == 0.0 and n < 11823 and abs(v) <= err <= 1e-15
    # a tail in N^(-1/2) has no expansion in 1/N: the whole schedule runs and the
    # correction it returns is left for the caller to judge
    v, err, n, corr = richardson_limit(lambda k: k ** -1.5)
    assert n == 11823 and corr > 1e-4


def test_richardson_limit_basel():
    # sum 1/k^2 with tail ~ 1/N: Richardson recovers pi^2/6 from few terms
    v, err, n, corr = richardson_limit(lambda k: 1.0 / k ** 2)
    assert v.real == pytest.approx(math.pi ** 2 / 6.0, abs=1e-14)
    assert abs(v.real - math.pi ** 2 / 6.0) <= err < 1e-12
    assert 0.0 < corr < err  # err adds the rounding floors to the last correction


def test_alternating_sum_nonconvergence_keeps_last_estimate():
    # random moduli defeat both CRVZ and the epsilon algorithm
    term = lambda k: random.Random(k).random() / k
    with pytest.raises(NonConvergence) as info:
        alternating_sum(term)
    last = info.value.partial
    assert isinstance(last, Evaluation) and last.terms_used == 2048
    assert math.isfinite(abs(last.value)) and last.err_estimate > 128 * REL_TOL * abs(last.value)


def test_power_series_geometric_limit():
    for w in (0.5, 0.5j, -0.9):
        v, err, n = power_series(lambda n: 1.0, w, abs(w))
        assert abs(v - 1.0 / (1.0 - w)) <= err <= 1e-13, w
        assert n > 3
    # a zero sum stops at the first four terms
    assert power_series(lambda n: 0.0, 0.5, 0.5) == (0.0, 0.0, 4)


def test_power_series_nonconvergence_at_cap():
    with pytest.raises(NonConvergence) as info:
        power_series(lambda n: 1.0, 0.9999, 0.9999)
    last = info.value.partial
    assert isinstance(last, Evaluation) and last.terms_used == 4000
    assert abs(last.value - 1e4) <= last.err_estimate


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
    from eiskern import (eisenstein_direct, eisenstein_integral, he_direct, he_taylor, mathieu,
                         omega_pv_hilbert, omega_quadrature, omega_taylor)
    from eiskern.suites import SuiteConfig, disc_sample, strip_grid

    @mp.workdps(30)
    def eps_oracle(r, z):
        z = mp.mpc(z)
        if r == 1:
            return complex(mp.pi * mp.cot(mp.pi * z))
        if r > 8:  # |k| <= 200: the rest is below 1e-19, beside values of at least 10 here
            return complex(mp.fsum((z + k) ** -r for k in range(-200, 201)))
        return complex((mp.psi(r - 1, 1 - z) + (-1) ** r * mp.psi(r - 1, z)) / mp.factorial(r - 1))

    grid = [(r, z) for z in strip_grid(SuiteConfig()) for r in range(1, 7)]
    # far from the real axis the value is tiny beside its terms: the cancellation floor
    far = [(r, z) for z in (0.3 + 10j, 0.3 + 30j, 0.2 + 15j) for r in (2, 3)]
    # past r = 8 the terms are float powers, past r = 100 through exp(r log z)
    high = [(r, z) for z in (0.3 + 0.4j, 0.45 + 0.01j, 0.8 - 0.7j, 5.3 + 0.2j) for r in (9, 150, 400)]
    for r, z in grid + far + high:
        ev = eisenstein_direct(r, z)
        assert abs(ev.value - eps_oracle(r, z)) <= ev.err_estimate, (r, z)
    # the quadrature routes: panel errors, rounding floors and the tail bound
    for r, z in grid:
        want = eps_oracle(r, z)
        for form in ("exponential", "hyperbolic"):
            ev = eisenstein_integral(r, z, form)
            assert abs(ev.value - want) <= ev.err_estimate, (r, z, form)

    @mp.workdps(30)
    def omega_oracle(z):
        z = mp.mpc(z)
        return complex(2 * mp.quad(lambda u: mp.sinh(z * u) * mp.cot(mp.pi * u), [0, 0.25, 0.5]))

    for z in disc_sample(SuiteConfig(), n=8) + [0.5, 1.0, 6.28, 20.0]:
        want = omega_oracle(z)
        routes = [omega_quadrature, omega_pv_hilbert]
        if abs(z) < 2 * math.pi:
            routes += [lambda z: omega_taylor(z, "eta"), lambda z: omega_taylor(z, "moments")]
        for i, route in enumerate(routes):
            ev = route(z)
            assert abs(ev.value - want) <= ev.err_estimate, (i, z)

    @mp.workdps(30)
    def he_oracle(r, z):
        z = mp.mpc(z)
        return complex(mp.nsum(lambda k: (-1) ** k * ((z + 1j * k) ** -r - (z - 1j * k) ** -r),
                               [1, mp.inf]))

    for z in (0.3 + 0.2j, 1.5 - 0.7j, 0.8, 2.5 + 0.4j):
        for r in range(1, 5):
            ev = he_direct(r, z)
            assert abs(ev.value - he_oracle(r, z)) <= ev.err_estimate, (r, z)

    @mp.workdps(30)
    def h1_oracle(z):
        z = mp.mpc(z)
        return complex(2j * mp.log(2) + 1j * (mp.digamma(1 + 0.5j * z) + mp.digamma(1 - 0.5j * z)
                                              - mp.digamma(1 + 1j * z) - mp.digamma(1 - 1j * z)))

    for z in (0.5, -0.35, 0.3 + 0.3j, 0.2 - 0.6j, 0.85, 0.99j):
        ev = he_taylor(z)
        assert abs(ev.value - h1_oracle(z)) <= ev.err_estimate, z

    @mp.workdps(30)
    def mathieu_oracle(r, x):
        # the first 2000 terms plus the Euler-Maclaurin tail of the rest
        r, x2, n = mp.mpf(r), mp.mpf(x) ** 2, mp.mpf(2000)
        f = lambda k: 2 * k / (k * k + x2) ** r
        tail = (n * n + x2) ** (1 - r) / (r - 1) - f(n) / 2 - mp.fsum(
            mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.diff(f, n, 2 * j - 1) for j in (1, 2, 3))
        return float(mp.fsum(f(mp.mpf(k)) for k in range(1, 2001)) + tail)

    for r in (1.5, 2, 2.5, 3, 4):
        for x in (0, 0.5, 1, 3, 10):
            ev = mathieu(r, x, False)
            assert abs(ev.value - mathieu_oracle(r, x)) <= ev.err_estimate, (r, x)

    for s in (0.01, 0.5, 1.5, 3.0, 7.0, 4001.0):
        v, err, _ = alternating_sum(lambda k: k ** -s)
        assert abs(v.real - float(mp.altzeta(s))) <= err, s
