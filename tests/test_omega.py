"""Omega function: five-route agreement, moments, bounds, envelope, ODE.

The slow oracle is a composite-Simpson quadrature of the defining integral
with the analytic series head near u = 0, built on numpy and nothing from
the package's quadrature engine.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from eiskern import (DomainError, StepError, dirichlet_eta,
                     omega_asymptotic_envelope, omega_bounds, omega_digamma,
                     omega_moment, omega_ode_residual, omega_partial_fraction,
                     omega_pv_hilbert, omega_quadrature, omega_taylor,
                     riemann_zeta)

PI = math.pi
LOG2 = math.log(2.0)


def omega_brute(z: complex, n: int = 160_001, head: float = 1e-4) -> complex:
    """2 * simpson(sinh(zu) cot(pi u), [head, 1/2]) + analytic head panel."""
    z = complex(z)
    u = np.linspace(head, 0.5, n)
    f = np.sinh(z * u) / np.tan(PI * u)
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    h = (0.5 - head) / (n - 1)
    body = h / 3.0 * complex(math.fsum((w * f).real), math.fsum((w * f).imag))
    c2 = z * z / 6.0 - PI * PI / 3.0
    head_val = (z / PI) * (head + c2 * head ** 3 / 3.0)
    return 2.0 * (body + head_val)


def moment_brute(k: int, n: int = 160_001, head: float = 1e-4) -> float:
    u = np.linspace(head, 0.5, n)
    f = u ** (2 * k + 1) / np.tan(PI * u)
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    h = (0.5 - head) / (n - 1)
    body = h / 3.0 * math.fsum(w * f)
    head_val = head ** (2 * k + 1) / (PI * (2 * k + 1))
    return 2.0 * (body + head_val)


# ---------------------------------------------------------------------------
# routes

def test_omega_zero():
    assert omega_quadrature(0.0).value == 0.0
    assert omega_digamma(0.0) == 0.0


def test_quadrature_against_brute():
    for z in (1.0, 2.5, 1 + 1j, -1.5 + 0.5j):
        assert abs(omega_quadrature(z).value - omega_brute(z)) < 5e-11


def test_digamma_route_examples():
    assert abs(omega_digamma(1.0) - omega_quadrature(1.0).value) <= 1e-10
    # beyond |z| = 2pi stays valid on the real axis
    assert abs(omega_digamma(20.0) - omega_quadrature(20.0).value) \
        <= 1e-8 * abs(omega_digamma(20.0))
    with pytest.raises(DomainError):
        omega_digamma(5 + 5j)


def test_partial_fraction_route():
    assert omega_partial_fraction(0.0).value == 0.0
    q = omega_quadrature(1 + 1j).value
    assert abs(omega_partial_fraction(1 + 1j).value - q) <= 1e-8
    d = omega_digamma(2 * PI)
    assert abs(omega_partial_fraction(2 * PI).value - d) <= 1e-10 * abs(d)


def test_taylor_routes():
    assert omega_taylor(0.0, "eta").value == 0.0
    assert abs(omega_taylor(1.0, "eta").value - omega_digamma(1.0)) <= 1e-10
    both = [omega_taylor(3.0, v).value for v in ("moments", "eta")]
    assert abs(both[0] - both[1]) <= 1e-10
    with pytest.raises(DomainError):
        omega_taylor(6.5, "eta")


def test_five_route_agreement_sample():
    for z in (0.8, -2.0, 1.5 - 1.0j, 0.5 + 2.5j, 4.0):
        vals = [omega_quadrature(z).value, omega_digamma(z),
                omega_partial_fraction(z).value,
                omega_taylor(z, "moments").value, omega_taylor(z, "eta").value]
        for i in range(5):
            for j in range(i + 1, 5):
                assert abs(vals[i] - vals[j]) <= 1e-8 * max(1.0, abs(vals[i]))


def test_purely_imaginary_on_imaginary_axis():
    v = omega_quadrature(1j).value
    assert v.real == 0.0
    assert v.imag != 0.0


# ---------------------------------------------------------------------------
# symmetries

def test_mirror_and_reflexivity():
    for x in (-2.0, -1.0, 0.5, 1.0, 2.0):
        for y in (-2.0, -1.0, 0.5, 1.0, 2.0):
            z = complex(x, y)
            assert abs(omega_digamma(z.conjugate()) - omega_digamma(z).conjugate()) <= 1e-12
            assert abs(omega_digamma(-z) + omega_digamma(z)) <= 1e-12
            a, b = omega_digamma(complex(x, y)), omega_digamma(complex(x, -y))
            assert abs(a.real - b.real) <= 1e-12
            assert abs(a.imag + b.imag) <= 1e-12
    assert omega_digamma(1.7).imag == 0.0


# ---------------------------------------------------------------------------
# moments

def test_first_moment_closed_value():
    assert omega_moment(0, "closed") == pytest.approx(LOG2 / PI, abs=1e-15)


def test_moment_examples():
    om3 = (LOG2 / PI - 6.0 * dirichlet_eta(3.0) / PI ** 3) / 4.0
    assert omega_moment(1, "closed") == pytest.approx(om3, abs=1e-16)
    om5 = (LOG2 / PI - 20.0 * dirichlet_eta(3.0) / PI ** 3
           + 120.0 * dirichlet_eta(5.0) / PI ** 5) / 16.0
    assert omega_moment(2, "closed") == pytest.approx(om5, abs=1e-16)


@pytest.mark.parametrize("k", range(6))
def test_moment_three_routes_and_brute(k):
    c = omega_moment(k, "closed")
    q = omega_moment(k, "quadrature")
    s = omega_moment(k, "series")
    assert abs(c - q) <= 1e-10
    assert abs(c - s) <= 1e-10
    assert abs(c - moment_brute(k)) <= 1e-9


# ---------------------------------------------------------------------------
# bounds and envelope

def test_bounds_zero_and_sign():
    assert omega_bounds(0.0) == (0.0, 0.0)
    lo, hi = omega_bounds(1.0)
    assert lo < omega_digamma(1.0).real < hi
    lo_n, hi_n = omega_bounds(-1.0)
    assert lo_n == -hi and hi_n == -lo
    assert lo_n < omega_digamma(-1.0).real < hi_n


def test_bounds_grid_strict():
    for i in range(1, 81):
        x = i / 10.0
        lo, hi = omega_bounds(x)
        v = omega_digamma(x).real
        assert lo < v < hi
        lo, hi = omega_bounds(-x)
        assert lo < omega_digamma(-x).real < hi


def test_large_x_in_log_space_or_typed_error():
    # past x = 1400 sinh(x/2) overflows but Omega(x) and its bounds stay doubles
    for x in (1410.0, 1440.0):
        v = omega_digamma(x).real
        assert math.isfinite(v) and omega_digamma(-x).real == -v
        # Omega(x) = ratio * e^(x/2), split so that no factor overflows
        ratio = omega_asymptotic_envelope(x)[2]
        assert v == pytest.approx((ratio * math.exp(0.25 * x)) * math.exp(0.25 * x), rel=1e-12)
    lo, hi = omega_bounds(1410.0)
    assert lo < omega_digamma(1410.0).real < hi
    with pytest.raises(DomainError):
        omega_digamma(1e4)
    with pytest.raises(DomainError):
        omega_bounds(2000.0)
    # the complex routes overflow past |Re z| ~ 1420: finite up to 1400, typed beyond
    routes = (omega_quadrature, omega_pv_hilbert, omega_partial_fraction)
    for z in (1400 + 1j, -1400 + 1j):
        assert all(cmath.isfinite(route(z).value) for route in routes)
    for z in (1430 + 1j, 1500 + 1j, -1500 + 1j):
        for route in routes:
            with pytest.raises(DomainError, match=r"\|Re z\| <= 1400"):
                route(z)


def test_envelope_membership_and_caption_constant():
    z3 = riemann_zeta(3.0)
    for x in (10.0, 20.0, 40.0, 500.0):
        lo, hi, ratio = omega_asymptotic_envelope(x)
        assert lo == pytest.approx(math.log(z3 / 3.0) / (2 * PI), rel=1e-14)
        assert hi == pytest.approx(math.log(3.0 / z3) / (2 * PI), rel=1e-14)
        assert lo <= ratio <= hi
    assert round(omega_asymptotic_envelope(500.0)[1], 3) == 0.146
    with pytest.raises(DomainError):
        omega_asymptotic_envelope(5.0)


# ---------------------------------------------------------------------------
# ODE residual

@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0, 3.0, 5.0])
def test_ode_residual_small(x):
    assert omega_ode_residual(x, 1e-5) <= 1e-6


def test_ode_residual_step_guard():
    with pytest.raises(StepError):
        omega_ode_residual(1.0, 1e-2)
    with pytest.raises(StepError):
        omega_ode_residual(1.0, 1e-9)


# ---------------------------------------------------------------------------
# PV Hilbert fold and generating-function link

def test_pv_hilbert_fold():
    for z in (1.0, 2.0, 1 + 1j, -0.5 + 2j, 3.3):
        assert abs(omega_pv_hilbert(z).value - omega_quadrature(z).value) <= 1e-9


def test_generating_function_link():
    from eiskern import conj_genfun_series
    for zr in (-1.0, -0.5, 0.5, 1.0):
        z = complex(zr)
        lhs = -(z / (2.0 * cmath.sinh(z / 2.0))) * omega_digamma(z)
        assert abs(lhs - conj_genfun_series(z)) <= 1e-8
