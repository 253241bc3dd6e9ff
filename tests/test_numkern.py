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
import time
from fractions import Fraction

import pytest

from eiskern import (EULER_GAMMA, DomainError, NonConvergence, PoleError, bernoulli_number,
                     bernoulli_poly, digamma, digamma_realpart_integral,
                     dirichlet_eta, dirichlet_lambda, gamma, pochhammer,
                     polygamma, riemann_zeta, zeta_odd_series)
from eiskern import numkern as nk

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


def test_digamma_reflection_keeps_the_distance_to_the_pole():
    # pi*z rounds away the distance to the nearest negative integer (2.7e-11, 5.9e-10
    # and 1.1e-10 relative error with z unreduced); cot(pi*(z - n)) keeps it
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for x in (-2.999999, -999.9999, -999999.75):
            want = float(mp.digamma(x))
            assert abs(digamma(x) - want) <= 4e-16 * abs(want), x


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


@pytest.mark.parametrize("r,z", [(1, 0.7 + 0.4j), (2, 1.5 - 2j), (3, 0.3), (4, 2 + 1j),
                                 (4, -20.3 + 1j), (12, 0.7 + 0.4j), (12, -3.6 + 0.5j)])
def test_polygamma_against_summation_oracle(r, z):
    # relative, since psi_12 reaches 1.6e11 here; values of modulus <= 750 stay within
    # 7.5e-12 absolute
    want = polygamma_oracle(r, complex(z))
    assert abs(polygamma(r, z) - want) <= 1e-14 * abs(want)


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


def test_one_order_precondition_for_every_series_route():
    # every Eisenstein and Hilbert-Eisenstein route and polygamma take an int r >= 1 in
    # the sense of operator.index: a float order used to raise TypeError or, in he_direct,
    # to return a number
    import eiskern
    names = ("eisenstein_direct", "eisenstein_closed", "eisenstein_polygamma",
             "eisenstein_integral", "product_identity_residual", "he_direct", "he_closed",
             "he_real", "he_via_eisenstein", "polygamma")
    for name in names:
        for r in (2.5, 2.0, 0, -1, "2", None):
            with pytest.raises(DomainError, match="order r must be a positive integer"):
                getattr(eiskern, name)(r, 0.3)
    assert nk.as_order(True) == 1 and type(nk.as_order(True)) is int
    assert polygamma(True, 0.3) == polygamma(1, 0.3)


def test_one_index_precondition_for_every_index_argument():
    # an index is an int in the sense of operator.index, as an order is: B_2.5 read 0, a
    # half-integer conjugate index gave a complex number or the next index's value, and
    # bernoulli_poly, the closed moment and the double sum raised TypeError
    import eiskern as ek
    calls = {
        "Bernoulli index n must be >= 0": (ek.bernoulli_number, lambda n: bernoulli_poly(n, 0.3)),
        "index m must be >= 0": (ek.conj_bernoulli_half,),
        "index n must be >= 0": (lambda n: ek.conj_bernoulli_periodic(n, 0.3),),
        "odd-zeta representation needs m >= 1": (ek.zeta_odd_via_conj,),
        "even-zeta representation needs m >= 1": (ek.zeta_even_euler,),
        "moment index must be >= 0": tuple(lambda k, route=route: ek.omega_moment(k, route)
                                           for route in ("closed", "quadrature", "series")),
        "conjecture checks require 0 <= j <= 84": (lambda j: ek.conjecture_double_sum(j, 0.3),),
    }
    for message, fs in calls.items():
        for f in fs:
            for bad in (2.5, 1.5, 0.5, 2.0, -1, "2", None):
                with pytest.raises(DomainError, match=message):
                    f(bad)
    with pytest.raises(DomainError, match="j <= 84"):
        ek.conjecture_double_sum(85, 0.3)
    assert nk.as_index(True, 0, "") == 1 and type(nk.as_index(True, 0, "")) is int
    assert bernoulli_number(True) == Fraction(-1, 2)
    assert ek.omega_moment(True, "series") == ek.omega_moment(1, "series")


def _psi_reference(mp, r: int, z: complex):
    """psi_r(z) from mpmath: its psi where Re z >= 0, else its psi at 1 - z and mp.diff of
    cot at w = pi*(z - n), n = round(Re z), since mpmath's own psi at Re z of about -1e12
    does not return within a minute."""
    z = mp.mpc(z.real, z.imag)
    if z.real >= 0:
        return mp.psi(r, z)
    w = mp.pi * (z - mp.nint(z.real))
    return (-1) ** r * mp.psi(r, 1 - z) - mp.pi ** (r + 1) * mp.diff(mp.cot, w, r)


def _best_seconds(*fs, repeats: int = 7, calls: int = 40) -> list[float]:
    """Seconds per call of each f, the best of `repeats` rounds that take turns, so a slow
    phase of the host falls on every f alike."""
    best = [math.inf] * len(fs)
    for _ in range(repeats):
        for i, f in enumerate(fs):
            t0 = time.perf_counter()
            for _ in range(calls):
                f()
            best[i] = min(best[i], time.perf_counter() - t0)
    return [b / calls for b in best]


def test_polygamma_reflects_far_left_in_bounded_time():
    # polygamma reflects Re z < 0 once, for every order: he_closed(2, 0.5+3e12i) reads
    # psi_1 at Re z = 1 - 3e12, where a unit shift per step never returned
    from eiskern import eisenstein_polygamma, he_closed
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        psi1 = lambda z: _psi_reference(mp, 1, z)
        z = 0.5 + 3e12j
        he2 = -0.5 * psi1(1 - 0.5j * z) + 0.5 * psi1(1 + 0.5j * z) + psi1(1 - 1j * z) - psi1(1 + 1j * z)
        cases = ((lambda: he_closed(2, z), he2),
                 (lambda: polygamma(1, -1e12 + 0.5j), psi1(-1e12 + 0.5j)),
                 (lambda: eisenstein_polygamma(2, -1e12 + 0.5), mp.pi ** 2),
                 (lambda: polygamma(1, -30000.7), mp.psi(1, -30000.7)))
        for call, want in cases:
            want = complex(want)
            assert abs(call() - want) <= 1e-14 * abs(want), want
            assert _best_seconds(call)[0] < 1e-3


@pytest.mark.parametrize("r", range(9))
def test_psi_reflection_sweep_against_mpmath(r):
    # seeded points with Re z in [-1e6, 0), |Im z| <= 30, at least 0.05 from the poles;
    # cot^(r) read as a sum in cot alone loses 4-5 digits at (6, -54.556205-3.883516i),
    # where cot is near i
    mp = pytest.importorskip("mpmath")
    f = digamma if r == 0 else lambda z: polygamma(r, z)
    rng = random.Random(100 + r)
    points = [complex(-54.556205, -3.883516)]
    while len(points) < 24:
        x = -10 ** rng.uniform(-1.5, 6)
        z = complex(x, rng.uniform(-30, 30) if len(points) % 2 else rng.uniform(-3, 3))
        if abs(z - round(x)) >= 0.05:
            points.append(z)
    with mp.workdps(40):
        for z in points:
            want = complex(_psi_reference(mp, r, z))
            assert abs(f(z) - want) <= 1e-14 * abs(want), z
    # the cost is bounded in |z|: Re z = -1e6 costs at most about twice what Re z = -1 does
    # (three _psi sums against one), where a unit shift per step made it some 1e4 times
    near, far = _best_seconds(lambda: f(-1.0 + 0.3j), lambda: f(-1e6 + 0.3j))
    assert far <= 4.0 * near


def test_polygamma_near_the_real_axis_keeps_the_pole_term_exact():
    # at |Im z| < 1/2 pole terms stand for pi^(r+1) cot^(r)(pi*x), which rounds pi*x and
    # raises it to -(r + 1): the sum in cot and 1/sin^2 is 1.1e-14, 3.1e-15 and 2.6e-15 off
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for r, z in ((7, -10443.503645152869 + 0.0951860280258196j),
                     (5, -22008.439803118003 + 0.03500047249408311j),
                     (7, -8568.611591443467 + 0.04772029714918924j)):
            want = complex(_psi_reference(mp, r, z))
            assert abs(polygamma(r, z) - want) <= 2e-15 * abs(want), (r, z)


def test_polygamma_high_orders_near_half_integers():
    # at high order near Re z = n +- 1/2 the sum in cot and 1/sin^2 cancels: by 28 at
    # (35, -1000.45+1i), where it stands, and by 1.6e3, 4.3e4 and 4.9e11 at the next
    # three points, where psi_r at z - n takes its place, as it does at |Im z| < 1/2
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for r, z in ((35, -1000.45 + 1j), (50, -30.5 + 1j), (99, -2000.5 + 1j),
                     (140, -100.5 + 0.7j), (99, -30.55 + 0.2j), (20, -2.5 + 0.4j)):
            want = complex(mp.psi(r, mp.mpc(z.real, z.imag)))
            assert abs(polygamma(r, z) - want) <= 1e-14 * abs(want), (r, z)


@pytest.mark.parametrize("r", (20, 50, 100, 150))
def test_polygamma_keeps_its_digits_at_high_order(r):
    # the asymptotic terms grow with r, so _psi shifts Re w to max(14, r + 6): at 14 for
    # every r, (100, 14.5+10i) was 0.18 and (150, 14.5+10i) 2.8e2 relative off
    mp = pytest.importorskip("mpmath")
    rng = random.Random(200 + r)
    points = [14.5 + 10j, 14.5 + 21.4j, 0.5 + 30j]
    points += [complex(rng.uniform(0.5, 40), rng.uniform(-40, 40)) for _ in range(12)]
    with mp.workdps(40):
        for z in points:
            want = complex(mp.psi(r, mp.mpc(z.real, z.imag)))
            assert abs(polygamma(r, z) - want) <= 1e-13 * abs(want), z


def _psi_shift_loop(r: int, z: complex) -> complex:
    """The slow oracle for _psi's shift loop: its one-line form, which takes the
    coefficient and the exponent apart at every unit shift; the asymptotic tail is _psi's."""
    lead, half, asy = nk._psi_asy(r)
    acc = 0.0 + 0.0j
    w = z
    while w.real < nk._SHIFT_RE:
        acc += 2.0 * half * w ** -(r + 1) if r else -1.0 / w
        w += 1.0
    inv = 1.0 / w
    inv2 = inv * inv
    if r:
        p = inv ** r
        s = lead * p + half * p * inv
        p *= inv2
    else:
        s = cmath.log(w) + half * inv
        p = inv2
    for a in asy:
        s += a * p
        p *= inv2
    return s + acc


def _outcome(f, *args):
    try:
        v = complex(f(*args))
    except (ArithmeticError, DomainError, PoleError) as exc:
        return type(exc)
    return v.real.hex(), v.imag.hex()


def test_psi_shift_loop_is_bit_identical_to_its_one_line_form(monkeypatch):
    # hoisting 2*half and -(r + 1) out of the loop, and r = 0's own loop acc -= 1/w,
    # change no rounding: the same double, signed zeros included, at every point
    grid = [complex(x, y) for x in [-100.0 + 1.37 * i for i in range(103)] + [-0.5, 0.25, 13.9, 40.0]
            for y in (0.0, -0.0, 0.5, -3.25, 17.0)]
    fast = [[_outcome(nk._psi, r, z) for z in grid] for r in range(9)]
    public = [_outcome(digamma, z) for z in grid] + [
        _outcome(polygamma, r, z) for r in range(1, 9) for z in grid]
    monkeypatch.setattr(nk, "_psi", _psi_shift_loop)
    assert fast == [[_outcome(_psi_shift_loop, r, z) for z in grid] for r in range(9)]
    assert public == [_outcome(digamma, z) for z in grid] + [
        _outcome(polygamma, r, z) for r in range(1, 9) for z in grid]


# ---------------------------------------------------------------------------
# zeta family

def test_zeta_values():
    assert riemann_zeta(2) == pytest.approx(PI ** 2 / 6.0, rel=1e-15)
    assert riemann_zeta(4) == pytest.approx(PI ** 4 / 90.0, rel=1e-15)
    assert riemann_zeta(3) == pytest.approx(zeta_oracle(3.0), rel=1e-12)
    assert riemann_zeta(3) == pytest.approx(1.2020569031595943, rel=1e-13)
    with pytest.raises(DomainError):
        riemann_zeta(1.0)


def test_zeta_even_closed_form_to_full_accuracy():
    # PI ** (2m) alone carries 2m times the rounding of pi: 6.6e-15 off at s = 170
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for n in range(2, 171, 2):
            want = mp.zeta(n)
            assert abs(riemann_zeta(float(n)) - want) <= 1e-15 * want, n


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


def test_bernoulli_numbers_match_mpmath():
    mp = pytest.importorskip("mpmath")
    for n in range(131):
        assert bernoulli_number(n) == Fraction(*mp.bernfrac(n)), n


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
    ev = zeta_odd_series(0.0)
    assert ev.value == 0 and ev.err_estimate == 0 and ev.route == "series"


def test_zeta_odd_series_plain_value():
    # truncated series oracle: sum_k zeta(2k+1) (1/2)^(2k), k <= 40
    series = sum(zeta_oracle(2.0 * k + 1.0) * 0.25 ** k for k in range(1, 41))
    ev = zeta_odd_series(0.5)
    assert ev.value.real == pytest.approx(series, rel=1e-11)
    # the digamma form -[psi(3/2) + psi(1/2)]/2 - gamma = 2 log 2 - 1
    assert abs(ev.value - (2 * LOG2 - 1.0)) <= ev.err_estimate < 1e-14


def test_zeta_odd_series_alternating_value():
    # at iz the series alternates: sum_k (-1)^k zeta(2k+1) (1/2)^(2k), k <= 40
    series = sum((-1) ** k * zeta_oracle(2.0 * k + 1.0) * 0.25 ** k for k in range(1, 41))
    ev = zeta_odd_series(0.5j)
    assert ev.value.real == pytest.approx(series, rel=1e-11)
    assert ev.value == pytest.approx(-0.24832930767207, abs=1e-12)
    # off both axes, against the digamma form from the oracle
    z = 0.3 + 0.2j
    ev = zeta_odd_series(z)
    closed = -0.5 * (digamma_oracle(1 + z) + digamma_oracle(1 - z)) - EULER_GAMMA
    assert abs(ev.value - closed) < 1e-13


def test_zeta_odd_series_domain():
    for z in (1.2, 1.0, -1j):
        with pytest.raises(DomainError):
            zeta_odd_series(z)
    # 4000 terms reach the rounding of the sum up to |z| of about 0.9961 on the real axis
    ev = zeta_odd_series(0.996)
    closed = -0.5 * (digamma(1.996) + digamma(0.004)) - EULER_GAMMA
    assert ev.terms_used <= 4000 and abs(ev.value - closed) <= ev.err_estimate
    with pytest.raises(NonConvergence):
        zeta_odd_series(0.997)


# ---------------------------------------------------------------------------
# digamma real-part integral

def test_digamma_realpart_integral():
    assert digamma_realpart_integral(0.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert digamma_realpart_integral(2 * PI) == pytest.approx(
        digamma_oracle(1 + 1j).real, abs=1e-10)
    assert digamma_realpart_integral(PI) == pytest.approx(
        digamma_oracle(1 + 0.5j).real, abs=1e-10)
