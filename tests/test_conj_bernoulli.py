"""Conjugate Bernoulli values, Fourier series, generating function,
zeta representations and the reported conjecture check."""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from eiskern import (DomainError, bernoulli_poly, conj_bernoulli_genfun,
                     conj_bernoulli_half, conj_bernoulli_periodic,
                     conj_genfun_series, conjecture_double_sum,
                     dirichlet_eta, fractional_bernoulli, omega_digamma,
                     omega_moment, periodic_polylog, ramanujan_bstar,
                     riemann_zeta, zeta_even_euler, zeta_odd_via_conj)

PI = math.pi
LOG2 = math.log(2.0)


def fourier_brute(n: int, x: float, terms: int = 2_000_000) -> float:
    """Direct Fourier partial sum with the alternating-style half-term tail."""
    k = np.arange(1, terms + 2, dtype=float)
    t = np.sin(2 * PI * k * x - (2 * n + 1) * PI / 2.0) / (2 * PI * k) ** (2 * n + 1)
    t[-1] *= 0.5
    return -2.0 * math.factorial(2 * n + 1) * math.fsum(t)


# ---------------------------------------------------------------------------
# half-point values

def test_half_point_values():
    assert conj_bernoulli_half(0) == pytest.approx(-LOG2 / PI, abs=1e-16)
    want = 9.0 / 8.0 * riemann_zeta(3.0) / PI ** 3
    assert conj_bernoulli_half(1) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("m", range(7))
def test_eta_and_zeta_forms_agree(m):
    a = conj_bernoulli_half(m, "eta")
    b = conj_bernoulli_half(m, "zeta")
    assert abs(a - b) <= 1e-13 * abs(a)


def test_half_point_against_moment_combinations():
    q = [omega_moment(k, "quadrature") for k in range(3)]
    assert abs(-q[0] - conj_bernoulli_half(0)) <= 1e-9
    assert abs(q[0] / 4.0 - q[1] - conj_bernoulli_half(1)) <= 1e-9
    # three-moment combination from the generating function expansion
    assert abs(-(7.0 / 48.0) * q[0] + (5.0 / 6.0) * q[1] - q[2]
               - conj_bernoulli_half(2)) <= 1e-9


# ---------------------------------------------------------------------------
# periodic conjugate functions

def test_periodic_closed_log_form():
    assert conj_bernoulli_periodic(0, 0.5) == pytest.approx(-LOG2 / PI, abs=1e-13)
    want = -(1.0 / PI) * math.log(2.0 * math.sin(PI / 4.0))
    assert conj_bernoulli_periodic(0, 0.25) == pytest.approx(want, abs=1e-12)
    for x in (0.1, 0.35, 0.62, 0.9):
        want = -(1.0 / PI) * math.log(2.0 * math.sin(PI * x))
        assert conj_bernoulli_periodic(0, x) == pytest.approx(want, abs=1e-11)


def test_periodic_half_matches_closed_value():
    assert conj_bernoulli_periodic(1, 0.5) == pytest.approx(conj_bernoulli_half(1), abs=1e-14)
    assert conj_bernoulli_periodic(2, 0.5) == pytest.approx(conj_bernoulli_half(2), abs=1e-14)


def test_periodic_against_brute_fourier():
    for (n, x) in [(1, 0.3), (2, 0.7), (1, 0.25)]:
        assert conj_bernoulli_periodic(n, x) == pytest.approx(fourier_brute(n, x), abs=1e-11)


def test_periodic_domain_guard():
    with pytest.raises(DomainError):
        conj_bernoulli_periodic(0, 1.0)
    assert math.isfinite(conj_bernoulli_periodic(1, 0.0))


def test_polylog_boundary_values():
    # Li_1(e^(2 pi i x)) = -log(1 - e^(2 pi i x))
    for x in (0.25, 0.4):
        want = -cmath.log(1.0 - cmath.exp(2j * PI * x))
        assert abs(periodic_polylog(1.0, x) - want) <= 1e-11
    assert abs(periodic_polylog(2.0, 0.0) - riemann_zeta(2.0)) <= 1e-13
    assert abs(periodic_polylog(3.0, 0.5) + dirichlet_eta(3.0)) <= 1e-15
    # s >= 5 with x near the integers, where the epsilon algorithm resums a slowly turning
    # phase; at (8.07, 0.00195) an accelerator that accepts a wrong sum is off by 5e16
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for s, x in ((8.07, 0.00195), (5.0, 0.001), (6.5, 0.999), (12.0, 0.0005),
                     (5.5, 2.0013), (9.0, -0.003)):
            want = complex(mp.polylog(s, mp.expjpi(2 * mp.mpf(x))))
            assert abs(periodic_polylog(s, x) - want) <= 1e-10 * abs(want), (s, x)
        # the Bose-Einstein integral where the epsilon algorithm was 5.9e-11, 1.5e-12 and
        # 6e-12 off, where t^(s-1) with s just above 1 bisected to the depth cap without
        # the substitution t = u^m, where a small s squeezed the rise of u^m between two
        # nodes (5.9e-6 off), within 1e-7 of an integer, where 1 - w formed as a difference
        # cancels (1.6e-9 off at (0.5, 1e-9)), and past the order where k^s overflowed
        for s, x in ((5.0, 0.001), (6.0666, 0.990989645), (0.01, 0.01),
                     (1.3838, 0.216986941), (1e-5, 0.3), (0.5, 1e-9), (1.0, 1 - 1e-7),
                     (250.0, 0.3)):
            want = complex(mp.polylog(s, mp.expjpi(2 * mp.mpf(x))))
            assert abs(periodic_polylog(s, x) - want) <= 1e-13 * abs(want), (s, x)
        assert abs(periodic_polylog(1e6, 0.01) - complex(mp.expjpi(0.02))) <= 1e-15


def test_polylog_first_term_on_the_integers():
    # past s = 64 the sum at integer x is its first term 1; the Euler-Maclaurin tail there
    # multiplied an overflowed rising factorial by 0 into nan (fractional(1e300, 0) was nan)
    from eiskern.summation import power_tail
    for s in (64.5, 65.0, 100.0, 170.0, 1e3, 1e300):
        for x in (0.0, 3.0, -2.0, 1e-13):
            got = periodic_polylog(s, x)
            assert got == 1.0 and math.copysign(1.0, got.imag) == 1.0
            old = complex(sum(k ** (-s) for k in range(1, 41)) + power_tail(s, 40))
            assert math.isnan(old.real) or (old.real, old.imag) == (got.real, got.imag)
    with pytest.raises(DomainError, match="not a double"):
        fractional_bernoulli(1e300, 0.0)


def test_polylog_quadrature_stays_bounded(monkeypatch):
    # at most about 40 panels from s = 1e-12 to 64 and x down to 1e-11 from an integer
    from eiskern import conj_bernoulli as cb
    from eiskern import quadrature
    panels, original = [], quadrature.adaptive_quad

    def counting(f, *edges):
        out = original(f, *edges)
        panels[-1] += out[2]
        return out

    monkeypatch.setattr(cb, "adaptive_quad", counting)
    monkeypatch.setattr(quadrature, "adaptive_quad", counting)  # the tail's segments
    for s in (1e-12, 1e-9, 1e-5, 0.05, 0.5, 1.0, 3.0, 10.0, 30.0, 64.0):
        for x in (0.3, 0.5, 1e-3, 1e-6, 1e-9, 1 - 1e-11):
            panels.append(0)
            periodic_polylog(s, x)
    assert max(panels) <= 48


def test_large_orders_in_log_space_or_typed_error():
    # past order 170 the factorial or gamma prefactor is no double: it is formed in log
    # space while the value is one, and DomainError names the order where it is not
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        def prefactor(a):  # 2 Gamma(a+1) (2 pi)^(-a)
            return 2 * mp.gamma(a + 1) / (2 * mp.pi) ** a

        def fourier(a, x):  # e^(-i pi a/2) Li_a(e^(2 pi i x)), the bracket of both Fourier forms
            return mp.expjpi(-a / 2) * mp.polylog(a, mp.expjpi(2 * mp.mpf(x)))

        cases = [
            (conj_bernoulli_half(100), -prefactor(201) * mp.altzeta(201)),
            (conj_bernoulli_half(100, "zeta"), -prefactor(201) * mp.altzeta(201)),
            (conj_bernoulli_half(129), prefactor(259) * mp.altzeta(259)),
            (zeta_odd_via_conj(100), mp.zeta(201)),
            (conj_bernoulli_periodic(100, 0.3), -prefactor(201) * mp.im(fourier(201, 0.3))),
            (fractional_bernoulli(180.5, 0.3),
             -prefactor(mp.mpf(180.5)) * mp.re(fourier(mp.mpf(180.5), 0.3))),
            (ramanujan_bstar(180), prefactor(180) * mp.zeta(180)),
            (ramanujan_bstar(171.3), prefactor(mp.mpf(171.3)) * mp.zeta(mp.mpf(171.3))),
        ]
        for got, want in cases:
            assert abs(got - want) <= 1e-12 * abs(want), (got, want)
    for call in (lambda: conj_bernoulli_half(200), lambda: conj_bernoulli_half(200, "zeta"),
                 lambda: zeta_odd_via_conj(200), lambda: conj_bernoulli_periodic(200, 0.3),
                 lambda: fractional_bernoulli(400.5, 0.3), lambda: ramanujan_bstar(400.0)):
        with pytest.raises(DomainError, match="not a double"):
            call()
    from eiskern.conj_bernoulli import _prefactor
    assert _prefactor(0.0, 300.5) == 0.0  # an exact zero stays one past order 170


# ---------------------------------------------------------------------------
# generating function

def test_genfun_zero_and_small():
    assert conj_bernoulli_genfun(0.0) == 0.0
    z = 0.05 + 0.02j
    assert abs(conj_bernoulli_genfun(z) - conj_genfun_series(z)) <= 1e-12


def test_genfun_series_to_the_edge_of_its_disc():
    # the series runs to the rounding of its sum, not a fixed count of terms
    # (21 terms were 0.14 off at z = 6)
    for z in (4.0, 5.0, 6.0, 3 + 2j, -4.5 + 1j):
        assert abs(conj_genfun_series(z) - conj_bernoulli_genfun(z)) <= 1e-14, z
    with pytest.raises(DomainError):
        conj_genfun_series(2 * PI)


def test_genfun_triangle():
    for zr in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        z = complex(zr)
        g = conj_bernoulli_genfun(z)
        s = conj_genfun_series(z)
        o = -(z / (2.0 * cmath.sinh(z / 2.0))) * omega_digamma(z)
        assert abs(g - s) <= 1e-8
        assert abs(g - o) <= 1e-8
        assert abs(s - o) <= 1e-8


def test_genfun_complex_branch():
    for z in (1 + 0.5j, 2 - 1.3j, -3 + 2j):
        o = -(z / (2.0 * cmath.sinh(z / 2.0))) * omega_digamma(z)
        assert abs(conj_bernoulli_genfun(z) - o) <= 1e-12


def test_genfun_domain_guards():
    with pytest.raises(DomainError):
        conj_bernoulli_genfun(7.0)
    # G is analytic at k(1+i), on the disc for |k| <= 4: the closed branch meets the series
    for k in (1, 2, 3, 4, -1, -2, -3, -4):
        for dz in (0.0, 1e-8, 1e-8j):
            z = k * (1 + 1j) + dz
            assert abs(conj_bernoulli_genfun(z) - conj_genfun_series(z)) < 1e-13


# ---------------------------------------------------------------------------
# zeta representations

@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_zeta_odd_round_trip(m):
    assert zeta_odd_via_conj(m) == pytest.approx(riemann_zeta(float(2 * m + 1)), rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_zeta_even_euler(m):
    want = {1: PI ** 2 / 6.0, 2: PI ** 4 / 90.0, 3: PI ** 6 / 945.0}[m]
    assert zeta_even_euler(m) == pytest.approx(want, rel=1e-14)


def test_fractional_interpolates_bernoulli_polys():
    assert fractional_bernoulli(2.0, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert fractional_bernoulli(3.0, 0.25) == pytest.approx(bernoulli_poly(3, 0.25), abs=1e-9)
    for n in (2, 3, 4):
        for x in (0.0, 0.25, 0.5):
            assert fractional_bernoulli(float(n), x) == pytest.approx(
                bernoulli_poly(n, x), abs=1e-9)


def test_fractional_zeta_round_trip():
    for a in (1.5, 2.5, 3.2):
        b = fractional_bernoulli(a, 0.0)
        z = -1.0 / math.cos(a * PI / 2.0) * 2.0 ** (a - 1) * PI ** a * b / math.gamma(a + 1.0)
        assert z == pytest.approx(riemann_zeta(a), rel=1e-8)


def test_fractional_domain():
    with pytest.raises(DomainError):
        fractional_bernoulli(0.8, 0.0)
    assert math.isfinite(fractional_bernoulli(0.8, 0.3))


def test_bstar_values():
    assert ramanujan_bstar(2.0) == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert ramanujan_bstar(3.0) == pytest.approx(0.05815227, abs=1e-7)
    assert ramanujan_bstar(5.0) == pytest.approx(0.025413275, abs=1e-7)
    with pytest.raises(DomainError):
        ramanujan_bstar(1.0)


# ---------------------------------------------------------------------------
# conjecture

def test_conjecture_collapses_at_lowest_index():
    c = conjecture_double_sum(0, 0.5)
    assert c.double_sum == pytest.approx(-LOG2 / PI, abs=1e-14)
    assert c.discrepancy <= 1e-12


def test_conjecture_reports_z_independence_defect():
    # the double sum is z-independent at the lowest index, the oracle is not
    c = conjecture_double_sum(0, 0.25)
    assert c.double_sum == pytest.approx(-LOG2 / PI, abs=1e-14)
    assert c.discrepancy > 0.01


def test_conjecture_higher_indices_are_reported():
    for (j, z) in [(1, 0.5), (2, 0.5), (1, 0.25)]:
        c = conjecture_double_sum(j, z)
        assert math.isfinite(c.double_sum)
        assert math.isfinite(c.fourier)
        assert c.discrepancy == abs(c.double_sum - c.fourier)


def test_conjecture_domain():
    with pytest.raises(DomainError):
        conjecture_double_sum(1, 0.0)
    with pytest.raises(DomainError):
        conjecture_double_sum(-1, 0.5)
