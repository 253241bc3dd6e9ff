"""Kernel function tests against slow brute-force oracles.

The oracles live in this file and use nothing from the package's fast paths:
digamma from partial sums of its defining series with Richardson
extrapolation, polygamma from direct summation with an integral tail
correction, eta from alternating partial sums with iterated Aitken.
"""
from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest

from eiskern import (EULER_GAMMA, DomainError, PoleError, bernoulli_number,
                     bernoulli_poly, digamma, digamma_realpart_integral,
                     dirichlet_eta, dirichlet_lambda, gamma, pochhammer,
                     polygamma, riemann_zeta, zeta_odd_series)

PI = math.pi
LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# oracles

def digamma_oracle(z: complex) -> complex:
    """psi(z) = -gamma + sum_k (1/k - 1/(z+k-1)), Richardson-extrapolated."""
    def partial(n: int) -> complex:
        s = 0.0 + 0.0j
        for k in range(1, n + 1):
            s += 1.0 / k - 1.0 / (z + k - 1.0)
        return s - EULER_GAMMA

    sums = [partial(400 * 2 ** j) for j in range(7)]
    row = sums
    for m in range(1, 7):
        fac = 2.0 ** m - 1.0
        row = [row[i + 1] + (row[i + 1] - row[i]) / fac for i in range(len(row) - 1)]
    return row[0]


def polygamma_oracle(r: int, z: complex, n: int = 200_000) -> complex:
    """(-1)^(r+1) r! [sum_(k<=n) (z+k)^-(r+1) + midpoint tail], fsum-rounded."""
    terms = [(z + k) ** (-(r + 1)) for k in range(n + 1)]
    terms.append((z + n + 0.5) ** (-r) / r)
    s = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return (-1.0) ** (r + 1) * math.factorial(r) * s


def eta_oracle(s: float, terms: int = 4000) -> float:
    """Alternating partial sums resummed by iterated Aitken delta-squared."""
    partial = []
    acc = 0.0
    for k in range(1, terms + 1):
        acc += (-1.0) ** (k - 1) * k ** (-s)
        partial.append(acc)
    seq = partial[-41:]
    while len(seq) >= 3:
        nxt = []
        for i in range(len(seq) - 2):
            a, b, c = seq[i], seq[i + 1], seq[i + 2]
            d = c - 2 * b + a
            nxt.append(c - (c - b) ** 2 / d if d != 0 else c)
        seq = nxt
    return seq[-1]


def zeta_oracle(s: float) -> float:
    return eta_oracle(s) / -math.expm1((1.0 - s) * LOG2)


# ---------------------------------------------------------------------------
# gamma

def test_gamma_examples():
    assert gamma(1) == pytest.approx(1.0, abs=1e-14)
    assert gamma(5) == pytest.approx(24.0, abs=1e-12)
    assert gamma(0.5) == pytest.approx(math.sqrt(PI), rel=1e-14)
    # the direct Lanczos product overflows: log space, a DomainError past a double
    assert gamma(160 + 1j) == pytest.approx(1.0338721720042359e282 - 2.7495261835884845e282j,
                                            rel=1e-12)
    for z in (200, 172 + 1j):
        with pytest.raises(DomainError):
            gamma(z)
    assert abs(gamma(-170.5 + 1j)) < 1e-300    # reflection of a finite Gamma(171.5 - i)
    # sin(pi z) or Gamma(1 - z) overflows: the reflection runs in log space
    assert gamma(-0.5 + 227j) == pytest.approx(
        -1.1518337829078916e-157 - 1.0159198242067677e-157j, rel=1e-11)
    assert gamma(-3 + 300j) == pytest.approx(
        -2.8792833658719148e-214 - 1.1465666882439301e-213j, rel=1e-11)
    assert gamma(-171.5) == pytest.approx(1.9316265431711996e-310, abs=1e-320)
    assert gamma(-180.5) == 0    # -1.16e-330 underflows


def test_gamma_recurrence_grid():
    rng = random.Random(7)
    for _ in range(60):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if min(abs(z - n) for n in range(-5, 6)) < 0.1:
            continue
        lhs = gamma(z + 1)
        rhs = z * gamma(z)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_gamma_pole_guard():
    with pytest.raises(PoleError):
        gamma(0)
    with pytest.raises(PoleError):
        gamma(-3 + 1e-14j)


# ---------------------------------------------------------------------------
# digamma / polygamma

def test_digamma_special_values():
    assert digamma(1).real == pytest.approx(-EULER_GAMMA, abs=1e-14)
    assert digamma(2).real == pytest.approx(1.0 - EULER_GAMMA, abs=1e-14)
    assert digamma(0.5).real == pytest.approx(-EULER_GAMMA - 2 * LOG2, abs=1e-13)


@pytest.mark.parametrize("z", [0.5, 2.3, 1 + 1j, 0.25 - 0.75j, 3.7 + 2.2j, -1.4 + 0.6j])
def test_digamma_against_series_oracle(z):
    assert abs(digamma(z) - digamma_oracle(complex(z))) < 2e-12


def test_digamma_recurrence_and_reflection_grids():
    rng = random.Random(11)
    count = 0
    while count < 200:
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if min(abs(z - n) for n in range(-6, 7)) < 0.1:
            continue
        count += 1
        assert abs(digamma(z + 1) - digamma(z) - 1.0 / z) <= 1e-12 * max(1.0, abs(digamma(z)))
        refl = digamma(1 - z) - digamma(z) - PI / cmath.tan(PI * z)
        assert abs(refl) <= 1e-11 * max(1.0, abs(digamma(z)))


def test_digamma_conjugate_symmetry():
    rng = random.Random(13)
    for _ in range(50):
        z = complex(rng.uniform(0.2, 5), rng.uniform(-5, 5))
        assert abs(digamma(z.conjugate()) - digamma(z).conjugate()) <= 1e-13 * max(1.0, abs(digamma(z)))


def test_polygamma_examples_via_summation_oracle():
    assert abs(polygamma(1, 1) - polygamma_oracle(1, 1.0)) < 1e-10
    assert polygamma(1, 1).real == pytest.approx(PI ** 2 / 6.0, rel=1e-13)
    assert abs(polygamma(2, 1) - polygamma_oracle(2, 1.0)) < 1e-12
    assert polygamma(1, 0.5).real == pytest.approx(PI ** 2 / 2.0, rel=1e-13)


@pytest.mark.parametrize("r,z", [(1, 0.7 + 0.4j), (2, 1.5 - 2j), (3, 0.3), (4, 2 + 1j)])
def test_polygamma_against_summation_oracle(r, z):
    assert abs(polygamma(r, z) - polygamma_oracle(r, complex(z))) < 5e-11


def test_polygamma_matches_finite_differences():
    h = 1e-5
    pts = [1.3, 2.0 + 0.5j, 0.8 - 0.3j, 3.1]
    for z in pts:
        for r in (1, 2, 3, 4, 5):
            lower = digamma if r == 1 else (lambda w, rr=r - 1: polygamma(rr, w))
            fd = (lower(z + h) - lower(z - h)) / (2 * h)
            exact = polygamma(r, z)
            assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))


def test_polygamma_pole_and_order_guards():
    with pytest.raises(PoleError):
        polygamma(1, -2)
    with pytest.raises(DomainError):
        polygamma(0, 1.0)


# ---------------------------------------------------------------------------
# zeta family

def test_zeta_values():
    assert riemann_zeta(2) == pytest.approx(PI ** 2 / 6.0, rel=1e-15)
    assert riemann_zeta(4) == pytest.approx(PI ** 4 / 90.0, rel=1e-15)
    assert riemann_zeta(3) == pytest.approx(zeta_oracle(3.0), rel=1e-12)
    assert riemann_zeta(3) == pytest.approx(1.2020569031595943, rel=1e-13)
    with pytest.raises(DomainError):
        riemann_zeta(1.0)


def test_eta_values():
    assert dirichlet_eta(1) == LOG2
    assert dirichlet_eta(2) == pytest.approx(PI ** 2 / 12.0, rel=1e-14)
    assert dirichlet_eta(3) == pytest.approx(eta_oracle(3.0), rel=1e-12)
    assert dirichlet_eta(3) == pytest.approx(0.9015426773696957, rel=1e-13)
    with pytest.raises(DomainError):
        dirichlet_eta(0.0)


def test_lambda_values():
    assert dirichlet_lambda(2) == pytest.approx(PI ** 2 / 8.0, rel=1e-14)
    assert dirichlet_lambda(4) == pytest.approx(PI ** 4 / 96.0, rel=1e-14)
    assert dirichlet_lambda(3) == pytest.approx(
        sum((2 * k + 1) ** -3.0 for k in range(200_000)), rel=1e-10)
    with pytest.raises(DomainError):
        dirichlet_lambda(1.0)


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.5])
def test_eta_zeta_lambda_relations(s):
    assert dirichlet_eta(s) == pytest.approx(
        -math.expm1((1 - s) * LOG2) * riemann_zeta(s), rel=1e-12)
    assert dirichlet_lambda(s) == pytest.approx(
        -math.expm1(-s * LOG2) * riemann_zeta(s), rel=1e-12)


# ---------------------------------------------------------------------------
# Bernoulli

def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(7) == 0
    assert all(bernoulli_number(2 * m + 1) == 0 for m in range(1, 12))


def test_bernoulli_recurrence_closure_exact():
    for n in range(2, 21):
        total = sum(Fraction(math.comb(n, k)) * bernoulli_number(k) for k in range(n))
        assert total == 0


def test_bernoulli_poly():
    assert bernoulli_poly(0, 0.3) == 1.0
    assert bernoulli_poly(1, 0.25) == pytest.approx(-0.25, abs=1e-15)
    assert bernoulli_poly(2, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert bernoulli_poly(3, 0.25) == pytest.approx(3.0 / 64.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Pochhammer

def test_pochhammer():
    assert pochhammer(0, 0) == 1
    assert pochhammer(3, 2) == 12
    assert pochhammer(2.5, 0) == 1
    assert pochhammer(1j, 3) == pytest.approx(1j * (1j + 1) * (1j + 2), rel=1e-15)
    with pytest.raises(DomainError):  # overflow is an error, not nan
        pochhammer(1.5, 10 ** 5)
    with pytest.raises(DomainError):
        pochhammer(2.0 + 3.0j, 400)


def test_pochhammer_exact_zero():
    # the zero factor at i = 300 comes after the partial product overflows
    assert pochhammer(-300, 500) == 0
    assert pochhammer(-300.0 + 0j, 301) == 0
    assert pochhammer(0, 1) == 0
    assert pochhammer(-3, 3) == -6      # stops just before the zero factor


# ---------------------------------------------------------------------------
# odd-zeta series

def test_zeta_odd_series_at_zero():
    ev = zeta_odd_series(0.0, "plain")
    assert abs(ev.value) < 1e-14
    assert abs(ev.diagnostics["series_value"]) == 0.0


def test_zeta_odd_series_plain_value():
    # truncated series oracle: sum_k zeta(2k+1) (1/2)^(2k), k <= 40
    series = sum(zeta_oracle(2.0 * k + 1.0) * 0.25 ** k for k in range(1, 41))
    ev = zeta_odd_series(0.5, "plain")
    assert ev.value.real == pytest.approx(series, rel=1e-11)
    assert ev.value.real == pytest.approx(2 * LOG2 - 1.0, rel=1e-13)
    assert ev.diagnostics["pair_discrepancy"] < 1e-11


def test_zeta_odd_series_alternating_matches_real_part():
    a = zeta_odd_series(0.5, "alternating")
    b = zeta_odd_series(0.5, "real_part")
    assert abs(a.value - b.value) < 1e-13
    assert a.value.real == pytest.approx(0.24832930767207, abs=1e-12)


def test_zeta_odd_series_domain():
    with pytest.raises(DomainError):
        zeta_odd_series(1.2, "plain")
    with pytest.raises(DomainError):
        zeta_odd_series(0.3 + 0.2j, "real_part")


# ---------------------------------------------------------------------------
# digamma real-part integral

def test_digamma_realpart_integral():
    assert digamma_realpart_integral(0.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert digamma_realpart_integral(2 * PI) == pytest.approx(
        digamma_oracle(1 + 1j).real, abs=1e-10)
    assert digamma_realpart_integral(PI) == pytest.approx(
        digamma_oracle(1 + 0.5j).real, abs=1e-10)
