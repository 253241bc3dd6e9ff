"""Direct tests of the series acceleration engines against closed values."""
from __future__ import annotations

import cmath
import math
import random

import pytest

from eiskern import DomainError, Evaluation, NonConvergence, digamma
from eiskern.summation import (REL_TOL, alternating_sum, power_series, power_tail,
                               richardson_limit, wynn_epsilon)

LOG2 = math.log(2.0)


def test_alternating_sum_log2():
    v, err, used = alternating_sum(lambda k: 1.0 / k, start=1)
    assert v.real == pytest.approx(LOG2, abs=1e-14)
    assert err <= 1e-12 and used < 100


def test_alternating_sum_slow_decay():
    # eta(1/2), terms k^(-1/2): hopeless without acceleration
    want = 0.6048986434216304
    v, _, _ = alternating_sum(lambda k: k ** -0.5, start=1)
    assert v.real == pytest.approx(want, abs=1e-13)


def test_alternating_sum_rejects_non_moment_terms():
    # absolutely convergent, but modulated moduli are no moment sequence: CRVZ's
    # truncation (6.8e-9) exceeds 128*REL_TOL*|value| and nothing else is tried
    with pytest.raises(NonConvergence) as info:
        alternating_sum(lambda k: (2.0 + math.sin(k)) / k ** 2, start=1)
    assert info.value.partial.terms_used == 32


def test_alternating_sum_start_sums_the_head_exactly():
    # 1/(k + c) is a moment sequence from k > -Re c on: with c = -5.5 + 0.25i CRVZ must
    # start at k = 6, and the five terms before it enter one fsum; the sum is
    # (psi(1 + c/2) - psi((1 + c)/2))/2
    c = -5.5 + 0.25j
    want = 0.5 * (digamma(1.0 + 0.5 * c) - digamma(0.5 + 0.5 * c))
    v, err, used = alternating_sum(lambda k: 1.0 / (k + c), start=6)
    assert used == 37 and abs(v - want) <= err <= 1e-13
    with pytest.raises(NonConvergence):
        alternating_sum(lambda k: 1.0 / (k + c), start=1)
    # a moment sequence from k = 1 on gives the same sum from any later start
    v1, _, _ = alternating_sum(lambda k: k ** -2.0, start=1)
    v9, err9, _ = alternating_sum(lambda k: k ** -2.0, start=9)
    assert abs(v9 - math.pi ** 2 / 12.0) <= err9 and abs(v1 - v9) <= 4e-16
    for start in (0, 4097):
        with pytest.raises(DomainError, match="start"):
            alternating_sum(lambda k: 1.0 / k, start=start)


def _crvz_recurrence(terms, n):
    """The slow oracle for the weight table: CRVZ Algorithm 1 as its recurrence, which
    rebuilds the weights c_k at every call."""
    d = math.cosh(n * math.log(3.0 + math.sqrt(8.0)))
    b, c, s = -1.0, -d, 0.0 + 0.0j
    for k in range(n):
        c = b - c
        s += c * terms[k]
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return s / d


def _bits(v):
    v = complex(v)
    return v.real.hex(), v.imag.hex()


def test_crvz_weight_table_is_bit_identical_to_the_recurrence(monkeypatch):
    # the table adds the same products in the same order as the recurrence, so every
    # sum is the same double, signed zeros included; any float terms are admitted
    from eiskern import summation
    rng = random.Random(24)
    for _ in range(200):
        terms = [rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-20, 20) for _ in range(32)]
        if rng.random() < 0.5:
            terms = [complex(t, rng.gauss(0.0, abs(t))) for t in terms]
        for n in (32, 24):
            assert _bits(summation._crvz(terms, n)) == _bits(_crvz_recurrence(terms, n))

    def moment_term(rng):
        # sum_j a_j (k + c_j)^(-p_j): a combination of moment sequences for k > -c_j,
        # complex where an a_j or a c_j is
        parts = []
        for _ in range(rng.randint(1, 3)):
            a = rng.uniform(0.1, 3.0) * (1.0 if rng.random() < 0.5 else cmath.exp(1j * rng.uniform(0.0, 6.3)))
            c = rng.uniform(-0.9, 5.0) + (1j * rng.uniform(-2.0, 2.0) if rng.random() < 0.3 else 0.0)
            parts.append((a, c, rng.uniform(0.3, 4.0)))
        return lambda k: sum(a * (k + c) ** -p for a, c, p in parts)

    def outcome(term, start):
        try:
            value, err, _ = alternating_sum(term, start=start)
        except NonConvergence as exc:
            value, err = exc.partial.value, exc.partial.err_estimate
        return _bits(value), _bits(err)

    for start in range(1, 65):
        term = moment_term(rng)
        fast = outcome(term, start)
        with monkeypatch.context() as m:
            m.setattr(summation, "_crvz", _crvz_recurrence)
            assert outcome(term, start) == fast


def test_dirichlet_eta_terms_against_mpmath():
    mp = pytest.importorskip("mpmath")
    from eiskern import dirichlet_eta
    for s in (0.01, 0.5, 1.5, 3.0, 7.0, 4001.0):
        want = float(mp.altzeta(s))
        assert abs(dirichlet_eta(s) - want) <= 2e-15
        v, err, used = alternating_sum(lambda k: k ** -s, start=1)
        assert used == 32 and abs(v.real - want) <= 2e-15


def test_richardson_limit_stops_at_convergence():
    # the ratio-1.5 schedule runs to 11823 terms; for sum 1/k^2 the 91-term row repeats
    # the 61-term row bit for bit, so the table stops there on its rounding floor
    v, err, n = richardson_limit(lambda k: 1.0 / k ** 2, lead=1, start=1, floor=0.0)
    assert n == 91 and abs(v - math.pi ** 2 / 6.0) <= err
    # sum k^(-3/2), tail N^(-1/2) (c_0 + c_1/N^2 + ...): the ratio test stops it at 91
    zeta32 = 2.6123753486854883  # zeta(3/2) rounded once (mpmath)
    v, err, n = richardson_limit(lambda k: k ** -1.5, lead=0.5, start=1, floor=0.0)
    assert n == 91 and abs(v - zeta32) <= err <= 1e-11
    # a sum that cancels to about 0 stops on its rounding floor; its error is that floor
    # eps*sum|t_k| times the row's noise amplification (<= 14.9)
    v, err, n = richardson_limit(lambda k: 1.0 / k ** 2, first=-math.pi ** 2 / 6.0, lead=1,
                                 start=1, floor=0.0)
    mass = math.pi ** 2 / 3.0
    assert n < 11823 and abs(v) <= err <= 14.9 * 2.3e-16 * mass
    # a tail in N^(-1/2) has no expansion in N^-1, N^-3, ...: the whole schedule runs and
    # the engine itself raises, with its last estimate as the partial
    with pytest.raises(NonConvergence) as info:
        richardson_limit(lambda k: k ** -1.5, lead=1, start=1, floor=0.0)
    last = info.value.partial
    assert last.route == "richardson" and last.terms_used == 11823 and last.err_estimate > 1e-4


def test_richardson_limit_never_stops_before_start():
    # the expansion is stated to hold from N >= start only: neither a converged row nor a
    # settled one (the sum cancelling to 0) ends the table before it
    for start, want in ((0, 91), (91, 91), (91.5, 137), (1000, 1038), (11823, 11823)):
        v, err, n = richardson_limit(lambda k: 1.0 / k ** 2, lead=1, start=start, floor=0.0)
        assert n == want and abs(v - math.pi ** 2 / 6.0) <= err, start
        v, err, n = richardson_limit(lambda k: 1.0 / k ** 2, first=-math.pi ** 2 / 6.0, lead=1,
                                     start=start, floor=0.0)
        assert n == want and abs(v) <= err <= 1e-13, start


def test_richardson_limit_raises_when_start_lies_past_the_schedule():
    # 11823 is the last step, so a start past it can never be met: the value so far is
    # right, but the engine cannot vouch for it
    with pytest.raises(NonConvergence, match="N >= 11824") as info:
        richardson_limit(lambda k: 1.0 / k ** 2, lead=1, start=11824, floor=0.0)
    last = info.value.partial
    assert last.route == "richardson" and last.terms_used == 11823
    assert abs(last.value - math.pi ** 2 / 6.0) <= last.err_estimate


def test_richardson_limit_floor_counts_a_small_value_as_zero():
    # with the wrong lead the last correction of 1e-12 k^(-3/2) is about 1e-15: far above
    # REL_TOL*|value|, but below an absolute floor of 1e-14 the caller states, so the
    # value is accepted as correct to that floor
    term = lambda k: 1e-12 * k ** -1.5
    v, err, n = richardson_limit(term, lead=1, start=1, floor=1e-14)
    assert n == 11823 and abs(v - 2.6123753486854883e-12) <= 1e-14
    with pytest.raises(NonConvergence):
        richardson_limit(term, lead=1, start=1, floor=0.0)


def test_richardson_limit_raises_overflow_for_a_term_that_is_no_double():
    # a nan term would pass every convergence test and leave as NonConvergence with a nan
    # partial; inf and -inf in one block would make fsum raise ValueError
    for bad in (math.nan, math.inf, complex(0.0, -math.inf), (math.inf, -math.inf)):
        pair = bad if isinstance(bad, tuple) else (1.0 / 49 ** 2, bad)
        term = lambda k: pair[k - 49] if k in (49, 50) else 1.0 / k ** 2
        with pytest.raises(OverflowError, match="k = 61"):
            richardson_limit(term, lead=1, start=1, floor=0.0)
    # finite terms whose magnitudes overflow together, and an extrapolate that overflows
    with pytest.raises(OverflowError, match="k = 8"):
        richardson_limit(lambda k: 1e308, lead=1, start=1, floor=0.0)
    with pytest.raises(OverflowError, match="extrapolated value"):
        richardson_limit(lambda k: 1.0 / k ** 2, first=1.7e308, lead=1, start=1, floor=0.0)


def test_richardson_limit_basel():
    # sum 1/k^2 with tail ~ 1/N: Richardson recovers pi^2/6 from few terms
    v, err, n = richardson_limit(lambda k: 1.0 / k ** 2, lead=1, start=1, floor=0.0)
    assert v.real == pytest.approx(math.pi ** 2 / 6.0, abs=1e-14)
    assert abs(v.real - math.pi ** 2 / 6.0) <= err < 1e-12


def test_richardson_limit_zeta4_with_known_exponents():
    # sum k^-4: T_N = S_N - N^-4/2 misses zeta(4) by N^-3 (1/3 + c_1/N^2 + ...); at
    # 61 terms the table is exact to the last bit (the 1/N table took 205 terms)
    zeta4 = 1.0823232337111381  # zeta(4) = pi^4/90 rounded once (mpmath)
    v, err, n = richardson_limit(lambda k: k ** -4.0, lead=3, start=1, floor=0.0)
    assert n <= 61 and abs(v.real - zeta4) <= 2e-16 * zeta4 and abs(v.real - zeta4) <= err


def test_richardson_weights_cancel_the_stated_powers():
    from eiskern.summation import _RATIO_STEPS, _richardson_weights
    for lead in (0.5, 1, 2, 3, 7, 399):
        for j, (w, amp) in enumerate(_richardson_weights(lead)):
            assert math.fsum(w) == pytest.approx(1.0, abs=1e-14)
            assert amp == pytest.approx(math.fsum(map(abs, w)))
            assert 1.0 <= amp <= (14.9 if lead >= 1 else 38.1)  # every caller has lead >= 1
            hs = [8.0 / n for n in _RATIO_STEPS[:j + 1]]
            for m in range(min(j, 4)):  # h^lead, h^(lead+2), ... vanish
                scale = max(abs(c) * h ** (lead + 2 * m) for c, h in zip(w, hs))
                assert abs(math.fsum(c * h ** (lead + 2 * m) for c, h in zip(w, hs))) <= 1e-12 * scale


def _endpoint_corrected_sum(term, first, n):
    ts = [complex(first)] + [term(k) for k in range(1, n + 1)]
    return complex(math.fsum(t.real for t in ts), math.fsum(t.imag for t in ts)) - 0.5 * ts[-1]


def test_richardson_lead_matches_the_tail_at_every_call_site(monkeypatch):
    # a caller's lead must be the exponent of its series' tail: the error of
    # T_N = S_N - t_N/2 against 40-digit mpmath falls as N^-lead between N = 203 and 456
    mp = pytest.importorskip("mpmath")
    import pathlib
    from eiskern import eisenstein as eis, hilbert_eisenstein as he
    src = pathlib.Path(eis.__file__).parent
    callers = {p.stem for p in src.glob("*.py") if p.stem != "summation"
               and "richardson_limit(" in p.read_text()}
    assert callers == {"eisenstein", "hilbert_eisenstein"}  # a new call site needs a case here
    seen = {}
    for module in (eis, he):
        def spy(term, first=0.0, *, lead, real=module.richardson_limit, **stated):
            seen.update(term=term, first=first, lead=lead)
            return real(term, first, lead=lead, **stated)
        monkeypatch.setattr(module, "richardson_limit", spy)

    def slope(exact):
        errs = [abs(mp.mpc(_endpoint_corrected_sum(seen["term"], seen["first"], n)) - exact)
                for n in (203, 456)]
        return float(mp.log(errs[0] / errs[1]) / mp.log(mp.mpf(456) / 203))

    with mp.workdps(40):
        z = 0.3 + 4j  # |z| << 203, and the value is tiny beside the truncation errors
        w = mp.mpc(z)
        for r in range(1, 9):
            eis.eisenstein_direct(r, z)
            exact = mp.pi * mp.cot(mp.pi * w) if r == 1 else (
                mp.psi(r - 1, 1 - w) + (-1) ** r * mp.psi(r - 1, w)) / mp.factorial(r - 1)
            assert abs(slope(exact) - seen["lead"]) <= 0.15, ("eisenstein_direct", r)
        x = 5.0
        for r in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0):
            he.mathieu(r, x, False)
            assert abs(slope(_mathieu_exact(mp, r, x)) - seen["lead"]) <= 0.15, ("mathieu", r)


def _mathieu_exact(mp, r, x, n=2000):
    """sum 2k/(k^2+x^2)^r: the first n terms, the exact tail integral and three
    Euler-Maclaurin corrections (mpmath.sumem on [1, inf) is off by 3e-11 at r = 4, x = 8)."""
    r, x2, n = mp.mpf(r), mp.mpf(x) ** 2, mp.mpf(n)
    f = lambda k: 2 * k / (k * k + x2) ** r
    tail = (n * n + x2) ** (1 - r) / (r - 1) - f(n) / 2 - mp.fsum(
        mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.diff(f, n, 2 * j - 1) for j in (1, 2, 3))
    return mp.fsum(f(mp.mpf(k)) for k in range(1, int(n) + 1)) + tail


def test_alternating_sum_settled_partial_sums():
    # term(k) = e^(2 pi i k (x - 1/2))/k^s: no moment sequence, as the phase turns; the
    # sum is -Li_s(e^(2 pi i x)) = -1.0038-0.0123i, and a value once accepted here was
    # -4.8e16i with a claim of 4.3e-15.  CRVZ's truncation (3.3e-10) misses the limit
    s, x = 8.07, 0.00195
    with pytest.raises(NonConvergence) as info:
        alternating_sum(lambda k: cmath.exp(2j * math.pi * k * (x - 0.5)) / k ** s, start=1)
    partial = info.value.partial
    assert partial.terms_used == 32
    assert partial.err_estimate > 128 * REL_TOL * abs(partial.value)


def test_alternating_sum_nonconvergence_keeps_last_estimate():
    # random moduli defeat CRVZ
    term = lambda k: random.Random(k).random() / k
    with pytest.raises(NonConvergence) as info:
        alternating_sum(term, start=1)
    last = info.value.partial
    assert isinstance(last, Evaluation) and last.terms_used == 32
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
                         omega_partial_fraction, omega_pv_hilbert, omega_quadrature, omega_taylor)
    from eiskern.routes import ROUTES
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
    # up to |z| = 11823/3 the last row still spans N >= 3|z| (r = 5-8 extrapolate there)
    far += [(5, 0.3 + 3900j), (7, 0.3 - 3000j), (8, 0.05 + 2000j)]
    for r, z in grid + far + high:
        ev = eisenstein_direct(r, z)
        assert abs(ev.value - eps_oracle(r, z)) <= ev.err_estimate, (r, z)
    # beyond, an extrapolated stop at N < 3|z| raises: the last correction does not bound
    # the tail there, and returned values missed by 1.2-17 times their claims
    # (y = 5000: r = 7; 1e4: r = 6; 3e4: r = 4-7; 1e5: r = 4-8)
    for r, y in ((7, 5000), (6, 1e4), (4, 3e4), (7, 3e4), (4, 1e5), (8, 1e5)):
        with pytest.raises(NonConvergence):
            eisenstein_direct(r, complex(0.3, y))
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

    # from |Re z| of about 244 the rounding of z*u inside sinh outgrows the quadrature
    # route's panel errors (1000: 5.8e197 against a claim of 3.5e197 without its term)
    far = [1000.0, -1000.0, 1399.0, 250 - 7.5j]
    for z in disc_sample(SuiteConfig(), n=8) + [0.5, 1.0, 6.28, 20.0] + far:
        want = omega_oracle(z)
        routes = [omega_quadrature, omega_pv_hilbert]
        if abs(z) < 2 * math.pi:
            routes += [lambda z: omega_taylor(z, "eta"), lambda z: omega_taylor(z, "moments")]
        for i, route in enumerate(routes):
            ev = route(z)
            assert abs(ev.value - want) <= ev.err_estimate, (i, z)

    # the digamma route claims the rounding of its own four digamma values;
    # a flat 8e-16*max(1, |value|) missed the last four points (50: 1.4e-5 against 7.3e-8)
    digamma = ROUTES["omega"][1]["digamma"].run
    for z in (4.3436 - 0.7291j, 3.0, -4.2951 - 0.8875j, 2.9 + 3.1j, -3.7 + 2.2j, 50.0):
        ev = digamma(z)
        assert ev.route == "digamma" and abs(ev.value - omega_oracle(z)) <= ev.err_estimate, z

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
    def he_closed_oracle(r, z):
        z, psi = mp.mpc(z), lambda w: mp.psi(r - 1, w)
        return complex(mp.j ** r / mp.factorial(r - 1) * (
            mp.mpf(2) ** (1 - r) * psi(1 - 0.5j * z) + mp.mpf(-2) ** (1 - r) * psi(1 + 0.5j * z)
            - psi(1 - 1j * z) - (-1) ** (r - 1) * psi(1 + 1j * z)))

    # from |Im z| >= 1 on CRVZ starts at k = floor(|Im z|) + 1, where the terms become a
    # moment sequence; also 0.05 above an integer, 0.03 from the pole at 4i, where
    # z^2 + k^2 cancels, and near |Im z| = 30, where CRVZ from k = 1 loses up to 6 digits
    for z in (0.7 + 1.3j, -2.1 - 3.05j, 1.5 + 4.05j, -0.6 - 7.95j, -0.0495 + 4.03j, 3.2 - 29.6j,
              -0.4 + 30.3j):
        for r in range(1, 9):
            ev, want = he_direct(r, z), (h1_oracle(z) if r == 1 else he_closed_oracle(r, z))
            assert abs(ev.value - want) <= min(ev.err_estimate, 1e-11 * abs(want)), (r, z)

    @mp.workdps(30)
    def omega_digamma_oracle(z):
        z, psi = mp.mpc(z), mp.digamma
        return complex(mp.sinh(z / 2) / mp.pi * (2 * mp.log(2) + psi(1 + 1j * z / (4 * mp.pi))
                       + psi(1 - 1j * z / (4 * mp.pi)) - psi(1 + 1j * z / (2 * mp.pi))
                       - psi(1 - 1j * z / (2 * mp.pi))))

    # the partial fractions past |Im z| = 2 pi, and near a pole of the sum, where the
    # rounding of w = z/(2 pi) and of w^2 + k^2 dominates
    for z in (3.0 + 7.0j, -12.5 + 20.0j, 0.3 - 33.0j, 25.0 + 45.5j, -4.0 - 60.0j, 7.7 + 59.0j,
              -1.0353843323017031 - 57.641122679499894j, 0.5 + 2 * math.pi * 3.001j):
        ev = omega_partial_fraction(z)
        assert abs(ev.value - omega_digamma_oracle(z)) <= ev.err_estimate, z

    # at tiny |z| the difference e^(zu) - e^(-zu) cancels to eps/|zu| relative
    for z in (3e-7, 1e-5 - 2e-5j):
        ev = omega_pv_hilbert(z)
        assert abs(ev.value - omega_oracle(z)) <= ev.err_estimate, z

    @mp.workdps(30)
    def mathieu_oracle(r, x):
        want = _mathieu_exact(mp, r, x)
        if r == 2 and x:  # cross-check: S_2(x) = -Im psi_1(1 + ix)/x
            assert abs(want + mp.im(mp.psi(1, 1 + 1j * mp.mpf(x))) / x) <= 1e-25 * want
        return float(want)

    # Richardson needs N >> |x|: x = 300 takes 5255-7882 terms
    for r in (1.5, 2, 2.5, 3, 4):
        for x in (0, 0.5, 1, 3, 10, 30, 100, 300):
            ev = mathieu(r, x, False)
            assert abs(ev.value - mathieu_oracle(r, x)) <= ev.err_estimate, (r, x)

    for s in (0.01, 0.5, 1.5, 3.0, 7.0, 4001.0):
        v, err, _ = alternating_sum(lambda k: k ** -s, start=1)
        assert abs(v.real - float(mp.altzeta(s))) <= err, s
