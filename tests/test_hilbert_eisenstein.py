"""Hilbert-Eisenstein series: closed forms vs the direct summation oracle,
difference/symmetry properties, the derivative ladder, Mathieu companions."""
from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest

from eiskern import (DomainError, PoleError, dirichlet_eta,
                     he_closed, he_direct, he_real, he_taylor,
                     he_via_eisenstein, mathieu, mathieu_E)

PI = math.pi
LOG2 = math.log(2.0)


def brute_he(r: int, z: complex, n: int = 400_000) -> complex:
    """Alternating partial sums of the defining series with the half-term
    tail correction S ~ S_n + t_(n+1)/2 (error O(|t'|/4) ~ 1/n^2)."""
    k = np.arange(1, n + 2, dtype=float)
    if r == 1:
        terms = 2j * (-1.0) ** (k - 1) * k / (z * z + k * k)
    else:
        terms = (-1.0) ** k * ((z + 1j * k) ** (-r) - (z - 1j * k) ** (-r))
    terms[-1] *= 0.5
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def grid(n=10, seed=99):
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-2, 2), rng.uniform(-1.8, 1.8))
        if abs(z) > 0.15 and min(abs(z - 1j * k) for k in (-2, -1, 1, 2)) >= 0.1:
            pts.append(z)
    return pts


# ---------------------------------------------------------------------------
# first order

def test_h1_at_zero():
    assert he_direct(1, 0).value == 2j * LOG2
    assert abs(he_closed(1, 0) - 2j * LOG2) < 1e-14


def test_h1_direct_against_brute():
    for z in (0.4 + 0.3j, 1.0, 3 + 0.5j):
        slow = brute_he(1, z)
        fast = he_direct(1, z).value
        assert abs(fast - slow) <= 1e-10 * abs(slow)


def test_h1_closed_matches_direct_everywhere():
    pts = grid() + [3 + 0.5j, -2.4 + 1.3j]
    for z in pts:
        d = he_direct(1, z).value
        c = he_closed(1, z)
        assert abs(c - d) <= 1e-9 * max(abs(d), 1e-3)


def test_h1_symmetry_even():
    z0 = 0.4 + 0.3j
    assert abs(he_closed(1, -z0) - he_direct(1, z0).value) < 1e-12


def test_h2_scaled_alternating_mathieu():
    # h_2(z) = 2 i z S~_2(z), S~_2 by its integral: the alternating series runs he_direct's terms
    s = mathieu_E(1.0).value.real
    assert abs(he_direct(2, 1.0).value - 2j * s) < 1e-12


def test_pole_guard():
    with pytest.raises(PoleError):
        he_direct(1, 1j * (1 + 1e-12))
    with pytest.raises(PoleError):
        he_closed(2, 2j)


# ---------------------------------------------------------------------------
# higher order closed forms

@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_hr_closed_against_brute(r):
    for z in (0.7, 0.4 + 0.3j, 1.2):
        slow = brute_he(r, z)
        fast = he_closed(r, z)
        assert abs(fast - slow) <= 1e-10 * max(abs(slow), 1e-6)


def test_h2_trigamma_combination():
    # closed form of h_2 written with the trigamma function directly
    from eiskern import polygamma
    z = 0.7
    want = (0.5 * (polygamma(1, 1 + 0.35j) - polygamma(1, 1 - 0.35j))
            - polygamma(1, 1 + 0.7j) + polygamma(1, 1 - 0.7j))
    assert abs(he_closed(2, z) - want) < 1e-14


# ---------------------------------------------------------------------------
# Taylor route

def test_taylor_at_zero_and_disc():
    assert he_taylor(0.0).value == pytest.approx(2j * LOG2, abs=1e-14)
    assert abs(he_taylor(0.5).value - he_closed(1, 0.5)) < 1e-10
    assert abs(he_taylor(0.3 + 0.3j).value - he_direct(1, 0.3 + 0.3j).value) < 1e-10
    with pytest.raises(DomainError):
        he_taylor(1.0)


# ---------------------------------------------------------------------------
# real-axis forms

def test_he_real_examples():
    assert he_real(1, 0.0) == pytest.approx(2j * LOG2, abs=1e-14)
    assert he_real(1, 1.0).real == 0.0
    assert abs(he_real(3, 0.8) - he_direct(3, 0.8).value) <= 1e-9


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_he_real_matches_direct(r):
    for x in (0.5, 1.0, 2.3):
        v = he_real(r, x)
        assert v.real == 0.0
        assert abs(v - he_direct(r, x).value) <= 1e-9 * max(1.0, abs(v))


def test_via_eisenstein_forms():
    assert abs(he_via_eisenstein(1, 1.0) - he_closed(1, 1.0)) <= 1e-9
    assert abs(he_via_eisenstein(1, 0.5) - he_closed(1, 0.5)) <= 1e-9
    assert abs(he_via_eisenstein(2, 1.2) - he_direct(2, 1.2).value) <= 1e-8
    with pytest.raises(DomainError):
        he_via_eisenstein(1, 0.0)


# ---------------------------------------------------------------------------
# structural properties

def test_difference_equation():
    for z in grid():
        for r in (1, 2, 3, 4, 5):
            lhs = he_closed(r, z) + he_closed(r, z + 1j)
            rhs = z ** (-r) - (z + 1j) ** (-r)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_negation_symmetry():
    for z in grid():
        for r in (1, 2, 3, 4):
            lhs = he_closed(r, -z)
            rhs = (-1.0) ** (r + 1) * he_direct(r, z).value
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_derivative_ladder_and_second_difference():
    h = 1e-5
    for z in grid(4, seed=17):
        for r in (1, 2, 3, 4):
            fd = (he_closed(r, z + h) - he_closed(r, z - h)) / (2 * h)
            exact = -r * he_closed(r + 1, z)
            assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))
        h2 = 1e-4
        second = (he_closed(2, z + h2) - 2 * he_closed(2, z) + he_closed(2, z - h2)) / h2 ** 2
        assert abs(second / 6.0 - he_closed(4, z)) <= 1e-5 * max(1.0, abs(he_closed(4, z)))


def test_sinh_partial_fractions():
    z = 0.7 + 0.2j
    n = 10_000
    k = np.arange(1, n + 1, dtype=float)
    s = 1.0 / z + math.fsum((2.0 * z * (-1.0) ** k / (z * z + k * k)).real) \
        + 1j * math.fsum((2.0 * z * (-1.0) ** k / (z * z + k * k)).imag)
    assert abs(s - PI / cmath.sinh(PI * z)) <= 1e-8


def test_purely_imaginary_on_real_axis():
    for x in (0.4, 1.0, 2.2, 3.7):
        assert he_direct(1, x).value.real == pytest.approx(0.0, abs=1e-12)
        assert he_closed(2, x).real == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Mathieu series

def test_mathieu_values():
    from eiskern import riemann_zeta
    assert mathieu(2.0, 0.0, False).value.real == pytest.approx(2 * riemann_zeta(3.0), rel=1e-10)
    assert mathieu(2.0, 0.0, True).value.real == pytest.approx(2 * dirichlet_eta(3.0), rel=1e-12)
    # brute alternating oracle at x = 1
    k = np.arange(1, 2_000_001, dtype=float)
    terms = (-1.0) ** (k - 1) * 2.0 * k / (k * k + 1.0) ** 2
    brute = math.fsum(terms[0::2] + terms[1::2])
    assert mathieu(2.0, 1.0, True).value.real == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("fn, r, z", [
    (he_direct, 3, 1e300), (he_direct, 1, 1e300), (he_direct, 21, -1e300),
    (he_direct, 400, 1e-5 + 0.99999j),
    (he_via_eisenstein, 100, 780.791502948219), (he_closed, 400, 0.3 + 0.4j),
    (he_real, 400, 0.5), (he_via_eisenstein, 400, 0.5),
])
def test_past_the_double_range_raises_domain_error(fn, r, z):
    # z^2 and complex powers through exponent 100 overflow to nan without raising, powers
    # past it raise OverflowError, and (r-1)! past r = 171 is no double: each route raises
    # DomainError, never a nan or a raw OverflowError (the closed forms evaluate their
    # polygamma bracket first)
    with pytest.raises(DomainError, match="doubles?$"):
        fn(r, z)


def test_mathieu_domain():
    with pytest.raises(DomainError):
        mathieu(1.0, 0.5, False)
    with pytest.raises(DomainError):  # the tail expands in powers of 1/N only for integer 2r
        mathieu(1.1, 0.5, False)
    with pytest.raises(DomainError):
        mathieu(0.0, 0.5, True)


def test_mathieu_E():
    # E(0) is the branch's 2*eta(3), so the integral just off zero is its reference
    e0 = mathieu_E(0.0).value.real
    assert e0 == pytest.approx(mathieu_E(1e-7).value.real, rel=1e-13)
    e1 = mathieu_E(1.0).value.real
    assert e1 == pytest.approx(mathieu(2.0, 1.0, True).value.real, abs=1e-9)
    assert mathieu_E(-1.0).value.real == pytest.approx(e1, rel=1e-12)
