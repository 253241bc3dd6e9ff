"""Eisenstein series: route cross-checks, closed values, properties."""
from __future__ import annotations

import math
import random

import pytest

from eiskern import (DomainError, NonConvergence, PoleError, UnsupportedOrder,
                     eisenstein_closed, eisenstein_direct, eisenstein_integral,
                     eisenstein_polygamma, polygamma, product_identity_residual)

PI = math.pi


def brute_symmetric_sum(r: int, z: complex, n: int = 60_000) -> complex:
    """Symmetric partial sum with a midpoint tail integral, the slow oracle."""
    terms = [z ** float(-r)]
    for k in range(1, n + 1):
        terms.append((z + k) ** float(-r) + (z - k) ** float(-r))
    if r >= 2:
        terms.append(((z + n + 0.5) ** (1 - r) + (-1.0) ** r * (n + 0.5 - z) ** (1 - r)) / (r - 1))
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def jittered_grid(n=20, seed=20260808):
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(-2, 2))
        if min(abs(z - m) for m in (0, 1)) >= 0.05:
            pts.append(z)
    return pts


# ---------------------------------------------------------------------------
# direct route

def test_direct_examples():
    assert abs(eisenstein_direct(1, 0.5).value) < 1e-12
    # at zeros of the odd orders the correction settles within the rounding floor of
    # the terms; a stop relative to |value| alone would run to the 11823-term cap
    for r in (1, 3, 5, 7):
        ev = eisenstein_direct(r, 0.5)
        assert ev.terms_used <= 692 and abs(ev.value) <= ev.err_estimate
    assert eisenstein_direct(2, 0.5).value.real == pytest.approx(PI ** 2, rel=1e-12)
    # eps_4(1/2) = 2^4 * 2 * lambda(4) with lambda(4) = pi^4/96
    assert eisenstein_direct(4, 0.5).value.real == pytest.approx(PI ** 4 / 3.0, rel=1e-12)
    # odd orders vanish at 1/2 while the terms near it are large: the cancellation
    # floor of err_estimate must not count against convergence
    for r in (5, 7):
        ev = eisenstein_direct(r, 0.5)
        assert abs(ev.value) < 1e-12 and ev.err_estimate < 1e-12


def test_direct_leading_terms_are_correctly_rounded():
    from eiskern.eisenstein import _rounded_pair
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for z in (0.1280903794458049 - 1.593242025677199j, 0.05 + 0.0067j, -3.7 + 1e-9j, 0.5 + 0j):
            w = mp.mpc(z)
            for r in range(1, 9):
                for k in range(3):
                    want = (w + k) ** -r + (w - k) ** -r if k else w ** -r
                    assert _rounded_pair(z, k, r) == complex(want), (z, r, k)


def test_direct_against_raw_partial_sums():
    for (r, z) in [(2, 0.3 + 0.4j), (3, 0.7 - 1.1j), (5, 0.2 + 0.1j)]:
        slow = brute_symmetric_sum(r, z)
        fast = eisenstein_direct(r, z).value
        assert abs(fast - slow) <= 1e-11 * abs(slow)


def test_direct_route_borrows_nothing_from_the_polygamma_route():
    # the direct route is checked against the polygamma route: no Bernoulli number,
    # psi asymptotics or Euler-Maclaurin tail may enter its extrapolation
    import sys
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for r in (1, 2, 3, 8, 9):
            eisenstein_direct(r, 0.3 + 0.4j)
    finally:
        sys.setprofile(None)
    assert "richardson_limit" in reached
    assert not reached & {"bernoulli_number", "polygamma", "digamma", "_psi", "_psi_asy", "power_tail"}


def test_direct_pole_guard():
    with pytest.raises(PoleError):
        eisenstein_direct(2, 1.0 + 1e-12j)


# ---------------------------------------------------------------------------
# closed forms

def test_closed_values():
    assert eisenstein_closed(1, 0.25) == pytest.approx(PI, rel=1e-14)
    assert eisenstein_closed(2, 0.25) == pytest.approx(2 * PI ** 2, rel=1e-14)
    assert eisenstein_closed(3, 0.25) == pytest.approx(2 * PI ** 3, rel=1e-13)
    # sin(pi z)^2 overflows while the value underflows towards 0
    assert eisenstein_closed(2, 0.3 + 114j) == pytest.approx(
        1.0198432478e-310 - 3.1387547743e-310j, rel=1e-9)
    for z in (0.5 + 200j, 0.5 + 400j, 0.25 - 400j):
        for r in (2, 3):
            assert abs(eisenstein_closed(r, z)) < 1e-300
    with pytest.raises(UnsupportedOrder):
        eisenstein_closed(4, 0.25)
    # near the real axis and a pole other than 0, against 30-digit mpmath
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for z in (0.05, 0.999, 2.5 + 0.01j):
            w = mp.pi * mp.mpc(z)
            want = (mp.pi * mp.cot(w), (mp.pi / mp.sin(w)) ** 2, mp.pi ** 3 * mp.cot(w) / mp.sin(w) ** 2)
            for r in (1, 2, 3):
                v = complex(want[r - 1])
                assert abs(eisenstein_closed(r, z) - v) <= 1e-14 * abs(v), (r, z)


# ---------------------------------------------------------------------------
# polygamma route

def test_polygamma_route_examples():
    assert abs(eisenstein_polygamma(1, 0.5)) < 1e-13
    assert eisenstein_polygamma(2, 0.5).real == pytest.approx(PI ** 2, rel=1e-13)
    d = eisenstein_direct(3, 0.3).value
    assert abs(eisenstein_polygamma(3, 0.3) - d) <= 1e-10 * abs(d)


# ---------------------------------------------------------------------------
# integral route

def test_integral_examples():
    assert abs(eisenstein_integral(1, 0.5).value) < 1e-12
    assert eisenstein_integral(2, 0.5).value.real == pytest.approx(PI ** 2, rel=1e-11)
    d = eisenstein_direct(3, 0.3).value
    assert abs(eisenstein_integral(3, 2.3).value - d) <= 1e-10 * abs(d)


def test_integral_forms_agree():
    # r = 21 and 40 take the weight t^(r-1)/(r-1)! in log space
    for (r, z) in [(1, 0.3 + 0.7j), (2, 0.6), (4, 0.7 - 1.3j), (5, 0.45 + 0.2j),
                   (21, 0.3 + 0.4j), (40, 0.45 + 0.01j)]:
        a = eisenstein_integral(r, z, form="exponential").value
        b = eisenstein_integral(r, z, form="hyperbolic").value
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_route_agreement_grid():
    for z in jittered_grid():
        for r in range(1, 7):
            d = eisenstein_direct(r, z).value
            p = eisenstein_polygamma(r, z)
            q = eisenstein_integral(r, z).value
            scale = max(abs(d), abs(p))
            assert abs(d - p) <= 1e-8 * scale
            assert abs(d - q) <= 1e-8 * scale
            assert abs(p - q) <= 1e-8 * scale
            if r <= 3:
                c = eisenstein_closed(r, z)
                assert abs(d - c) <= 1e-10 * max(abs(d), abs(c))


# ---------------------------------------------------------------------------
# properties

def test_periodicity_and_parity():
    for z in jittered_grid(6, seed=5):
        for r in (1, 2, 3, 4):
            a = eisenstein_polygamma(r, z)  # one route on both sides would move alike
            assert abs(eisenstein_direct(r, z + 1).value - a) <= 1e-10 * max(1.0, abs(a))
            assert abs(eisenstein_direct(r, -z).value - (-1.0) ** r * a) <= 1e-10 * max(1.0, abs(a))


def test_derivative_ladder():
    h = 1e-5
    for z in jittered_grid(4, seed=9):
        for r in range(1, 7):
            fd = (eisenstein_polygamma(r, z + h) - eisenstein_polygamma(r, z - h)) / (2 * h)
            exact = -r * eisenstein_polygamma(r + 1, z)
            assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# product identity

def test_product_identity_holds_for_r1():
    # eps_3 by polygamma: the closed eps_3 is the arithmetic of eps_1 * eps_2
    for z in jittered_grid(10, seed=3):
        want = eisenstein_polygamma(3, z)
        assert abs(eisenstein_closed(1, z) * eisenstein_closed(2, z) - want) <= 1e-9 * abs(want)


def test_product_identity_residual_exact_value_r2():
    res = product_identity_residual(2, 0.5)
    assert res.real == pytest.approx(PI ** 4 / 3.0, rel=1e-10)
    assert abs(res.imag) < 1e-12


def test_product_identity_uniqueness_witness():
    for r in (2, 3, 4):
        res = abs(product_identity_residual(r, 0.25))
        assert res > 0.05 * abs(eisenstein_polygamma(r + 2, 0.25))


def test_direct_route_stops_early_and_is_accurate():
    # strip grids of two seeds, each point also shifted by 1, orders 1..8
    from eiskern.suites import SuiteConfig, strip_grid
    pts = [w for seed in (20260808, 1) for z in strip_grid(SuiteConfig(seed=seed)) for w in (z, z + 1)]
    grid = [(r, z) for z in pts for r in range(1, 9)]
    evs = [eisenstein_direct(r, z) for r, z in grid]
    assert all(ev.terms_used <= 308 for ev in evs)
    assert sum(ev.terms_used for ev in evs) / len(evs) <= 100
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(20):
        for (r, z), ev in zip(grid, evs):
            w = mp.mpc(z)
            want = complex(mp.pi * mp.cot(mp.pi * w) if r == 1 else
                           (mp.psi(r - 1, 1 - w) + (-1) ** r * mp.psi(r - 1, w)) / mp.factorial(r - 1))
            assert abs(ev.value - want) <= ev.err_estimate, (r, z)
            worst = max(worst, abs(ev.value - want) / abs(want))
    assert worst <= 5e-14


def test_integral_route_at_high_order_where_the_integral_cancels():
    # a panel within 1024 rounding floors of its own is accepted; on the per-panel budget
    # alone the first three bisected to the depth cap and raised QuadratureFailure.  With
    # only zeta^(-r) summed, the integral cancelled against it to no correct digit at r = 84
    # and 339 (relative error 2.1 and 1.3e23 under an absolute claim that held)
    mp = pytest.importorskip("mpmath")
    cases = [(150, 0.8808 - 0.3666j, "exponential"), (150, 0.7713 - 0.3592j, "hyperbolic"),
             (200, 0.05 + 0.3j, "hyperbolic")]
    cases += [(r, z, form) for r, z in ((84, -1.4896 - 0.5958j), (339, 1.5461 - 0.5363j))
              for form in ("exponential", "hyperbolic")]
    with mp.workdps(60):
        for r, z, form in cases:
            ev = eisenstein_integral(r, z, form)
            w = mp.mpc(z)
            want = complex((mp.psi(r - 1, 1 - w) + (-1) ** r * mp.psi(r - 1, w)) / mp.factorial(r - 1))
            assert abs(ev.value - want) <= ev.err_estimate <= 1e-13 * abs(want), (r, z, form)


def test_integral_route_far_from_the_real_axis():
    # the Hurwitz tails past |k| < 4 decay like e^(-3.5t) or faster, so the panels
    # that resolve the oscillation e^(i Im(zeta) t) stay few (3153 and 383 with
    # zeta^(-r) alone summed); the value underflows beside terms of order 1/|Im z|,
    # so the error is held relative to max(1, |value|)
    mp = pytest.importorskip("mpmath")
    for r, z, cap in ((2, 0.3 + 300j, 600), (5, 0.3 + 30j, 80)):
        ev = eisenstein_integral(r, z)
        assert ev.terms_used <= cap, (r, z, ev.terms_used)
        with mp.workdps(120):
            w = mp.mpc(z)
            want = complex((mp.pi / mp.sin(mp.pi * w)) ** 2 if r == 2 else
                           (mp.psi(r - 1, 1 - w) + (-1) ** r * mp.psi(r - 1, w)) / mp.factorial(r - 1))
        assert abs(ev.value - want) <= ev.err_estimate, (r, z)
        assert abs(ev.value - want) <= 1e-12 * max(1.0, abs(want)), (r, z)


def test_integral_route_borrows_nothing_from_the_direct_route():
    # the integral route is checked against the direct and polygamma routes: its head
    # (zeta+k)^(-r), |k| < 4, may not use the direct route's exact roundings or
    # extrapolation, nor any psi kernel
    import sys
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for r in (1, 2, 3, 8, 21):
            for form in ("exponential", "hyperbolic"):
                eisenstein_integral(r, 0.3 + 0.4j, form)
    finally:
        sys.setprofile(None)
    assert "quad_decaying_tail" in reached
    assert not reached & {"_rounded_pair", "richardson_limit", "polygamma", "digamma", "_psi",
                          "bernoulli_number"}


def test_integral_route_work_guard(monkeypatch):
    # every panel is one G10/K21 application, 21 integrand calls; the default
    # strip grid needs 84 calls per value, four panels (249 with zeta^(-r) alone
    # outside the integral, 406.5 with the two-level rule)
    from eiskern import eisenstein as eis
    from eiskern.suites import SuiteConfig, strip_grid
    calls = 0
    factory = eis._integrand_factory

    def counting(*args):
        f = factory(*args)

        def counted(t):
            nonlocal calls
            calls += 1
            return f(t)
        return counted

    monkeypatch.setattr(eis, "_integrand_factory", counting)
    grid = [(r, z) for z in strip_grid(SuiteConfig()) for r in range(1, 7)]
    panels = sum(eisenstein_integral(r, z).terms_used for r, z in grid)
    assert calls == 21 * panels
    assert calls / len(grid) <= 110


@pytest.mark.parametrize("r", [103, 150, 200])
def test_large_order_value_or_typed_error(r):
    z = 0.3 + 0.4j
    want = eisenstein_direct(r, z).value
    ev = eisenstein_integral(r, z)
    assert abs(ev.value - want) <= 1e-12 * abs(want)
    assert abs(ev.value - want) <= ev.err_estimate + 1e-14 * abs(want)
    if r <= 151:  # the polygamma route's asymptotic coefficients hold (r+18)!
        assert abs(eisenstein_polygamma(r, z) - want) <= 1e-12 * abs(want)
    else:
        with pytest.raises(DomainError, match="not a double"):
            eisenstein_polygamma(r, z)


def test_not_a_double_raises_typed_error():
    with pytest.raises(DomainError, match="doubles"):
        eisenstein_integral(400, 0.01 + 0.01j)  # |zeta^-400| = 1e768
    with pytest.raises(DomainError, match="not a double"):
        eisenstein_polygamma(150, 0.45 + 0.01j)  # 149! (0.45)^-150 = 1e312
    # w^-(r+1) overflows (r = 140), its reciprocal underflows to 0 (r = 60), or the
    # asymptotic coefficients overflow (r = 160, and r = 2000 before its reflection builds
    # a cot derivative 2000 recursions deep): a typed error, never a raw one
    for r, z in ((140, 1e-3 + 1e-3j), (60, 1e-8 + 1e-8j), (160, 0.3 + 0.4j), (2000, -5 + 3j)):
        with pytest.raises(DomainError, match="not a double"):
            polygamma(r, z)


def test_direct_raises_where_a_power_overflows_to_nan():
    # CPython's complex powers through exponent 100 overflow to nan+nanj without raising:
    # here (z+k)^100 past k of about 11000; the route raises the DomainError it documents
    with pytest.raises(DomainError, match=r"every term \(z\+k\)\^\(-r\) to be a double"):
        eisenstein_direct(100, -3.777286919096399 + 664.7098613310925j)


def test_direct_sums_past_early_terms_that_underflow():
    # at (100, -2000.5) every term up to k of about 290 underflows to 0, so the first rows
    # settle on 0 after 12 terms; Richardson holds its stop until N >= 3|z| and sums the
    # real value (the terms at k = 2000 and 2001 give 2 * 0.5^-100 = 2.535e30)
    ev = eisenstein_direct(100, -2000.5)
    want = eisenstein_polygamma(100, -2000.5)
    assert ev.terms_used == 7882 and abs(want) > 2.5e30
    assert abs(ev.value - want) <= ev.err_estimate


def test_direct_domain_ends_at_a_third_of_the_last_step():
    # the expansion in 1/N^2 holds from N >= 3|z|, and the last step is 11823 terms: every
    # |z| > 11823/3 raises for every order, the silent zero at (100, -5000.5) included
    for r, z in ((1, 3941.5 + 0.3j), (2, -3942.5), (5, 0.3 + 3942j), (8, 3942.2),
                 (12, -3941.3 - 1j), (100, -5000.5)):
        with pytest.raises(NonConvergence, match=r"N >= "):
            eisenstein_direct(r, z)
