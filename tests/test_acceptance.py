"""Acceptance gate: every stated criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Tolerances are pinned here, not configurable.
"""
from __future__ import annotations

import json
import math
import random

from eiskern import (conj_bernoulli_genfun, conj_bernoulli_half,
                     conj_genfun_series,
                     conjecture_double_sum, dirichlet_eta, eisenstein_closed,
                     eisenstein_direct, eisenstein_integral,
                     eisenstein_polygamma, fractional_bernoulli, he_closed,
                     he_direct, mathieu_E, omega_asymptotic_envelope,
                     omega_bounds, omega_digamma, omega_moment,
                     omega_ode_residual, omega_partial_fraction,
                     omega_quadrature, omega_taylor, product_identity_residual,
                     ramanujan_bstar, riemann_zeta, zeta_odd_via_conj)
from eiskern.cli import main as cli_main

PI = math.pi
LOG2 = math.log(2.0)
SEED = 20260808


def check(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num:02d}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def eta_oracle(s: float, terms: int = 4000) -> float:
    partial, acc = [], 0.0
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


def strip_points(n=20, seed=SEED):
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(-2, 2))
        if min(abs(z - m) for m in (0, 1)) >= 0.05:
            pts.append(z)
    return pts


def he_points(n=19, seed=SEED + 1):
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-2, 2), rng.uniform(-1.8, 1.8))
        if abs(z) > 0.15 and min(abs(z - 1j * k) for k in (-2, -1, 1, 2)) >= 0.05:
            pts.append(z)
    return pts


def test_criterion_01_eisenstein_route_agreement():
    worst = 0.0
    worst_closed = 0.0
    for z in strip_points():
        for r in range(1, 7):
            d = eisenstein_direct(r, z).value
            p = eisenstein_polygamma(r, z)
            q = eisenstein_integral(r, z).value
            scale = max(abs(d), abs(p), abs(q))
            worst = max(worst, abs(d - p) / scale, abs(d - q) / scale, abs(p - q) / scale)
            if r <= 3:
                c = eisenstein_closed(r, z)
                worst_closed = max(worst_closed, abs(d - c) / max(abs(d), abs(c)))
    check(1, "Eisenstein route agreement on the jittered strip grid",
          worst <= 1e-8 and worst_closed <= 1e-10,
          f"pairwise {worst:.2e} <= 1e-8, direct/closed {worst_closed:.2e} <= 1e-10")


def test_criterion_02_product_identity():
    worst = 0.0
    for z in strip_points():
        worst = max(worst, abs(product_identity_residual(1, z))
                    / abs(eisenstein_closed(3, z)))
    exact = product_identity_residual(2, 0.5)
    exact_ok = abs(exact - PI ** 4 / 3.0) <= 1e-10 * PI ** 4 / 3.0
    witness_ok = all(
        abs(product_identity_residual(r, 0.25))
        > 0.05 * abs(eisenstein_polygamma(r + 2, 0.25)) for r in (2, 3, 4))
    check(2, "product identity holds at order one and only there",
          worst <= 1e-9 and exact_ok and witness_ok,
          f"residual {worst:.2e} <= 1e-9, pi^4/3 check {exact_ok}, witness {witness_ok}")


def test_criterion_03_he_first_order_closed_form():
    worst = 0.0
    for z in he_points() + [3 + 0.5j]:
        d = he_direct(1, z).value
        c = he_closed(1, z)
        worst = max(worst, abs(c - d) / max(abs(d), abs(c)))
    origin = abs(he_closed(1, 0) - 2j * LOG2)
    check(3, "first-order HE closed form vs direct summation incl. 3+0.5i",
          worst <= 1e-9 and origin <= 1e-13,
          f"worst rel {worst:.2e} <= 1e-9, origin {origin:.2e} <= 1e-13")


def test_criterion_04_he_higher_orders():
    pts = he_points(10, seed=SEED + 2)
    worst_closed = worst_diff = worst_sym = worst_fd = 0.0
    for z in pts:
        for r in (2, 3, 4, 5):
            d = he_direct(r, z).value
            c = he_closed(r, z)
            worst_closed = max(worst_closed, abs(c - d) / max(1.0, abs(d)))
            lhs = he_closed(r, z) + he_closed(r, z + 1j)
            rhs = z ** (-r) - (z + 1j) ** (-r)
            worst_diff = max(worst_diff, abs(lhs - rhs) / max(1.0, abs(rhs)))
            sym = he_closed(r, -z) - (-1.0) ** (r + 1) * he_closed(r, z)
            worst_sym = max(worst_sym, abs(sym) / max(1.0, abs(c)))
    h = 1e-5
    for z in pts[:5]:
        for r in (2, 3, 4):
            fd = (he_closed(r, z + h) - he_closed(r, z - h)) / (2 * h)
            exact = -r * he_closed(r + 1, z)
            worst_fd = max(worst_fd, abs(fd - exact) / max(1.0, abs(exact)))
    check(4, "higher-order HE closed forms and structural properties",
          worst_closed <= 1e-8 and worst_diff <= 1e-9
          and worst_sym <= 1e-10 and worst_fd <= 1e-5,
          f"closed {worst_closed:.2e}, difference {worst_diff:.2e}, "
          f"symmetry {worst_sym:.2e}, derivative {worst_fd:.2e}")


def test_criterion_05_omega_route_agreement():
    rng = random.Random(SEED + 3)
    worst = 0.0
    pts = []
    while len(pts) < 20:
        z = complex(rng.uniform(-4.5, 4.5), rng.uniform(-2.1, 2.1))
        if 0.2 < abs(z) <= 5.0:
            pts.append(z)
    for z in pts:
        vals = [omega_quadrature(z).value, omega_digamma(z),
                omega_partial_fraction(z).value,
                omega_taylor(z, "moments").value, omega_taylor(z, "eta").value]
        for i in range(5):
            for j in range(i + 1, 5):
                worst = max(worst, abs(vals[i] - vals[j]) / max(1.0, abs(vals[i])))
    worst_axis = 0.0
    for x in (1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        q = omega_quadrature(x).value.real
        d = omega_digamma(x).real
        worst_axis = max(worst_axis, abs(q - d) / abs(d))
    check(5, "five-route Omega agreement and the real axis up to 30",
          worst <= 1e-8 and worst_axis <= 1e-8,
          f"pairwise {worst:.2e}, real-axis rel {worst_axis:.2e}")


def test_criterion_06_moments():
    first = abs(omega_moment(0, "closed") - LOG2 / PI)
    worst = 0.0
    for k in range(6):
        c = omega_moment(k, "closed")
        q = omega_moment(k, "quadrature")
        s = omega_moment(k, "series")
        worst = max(worst, abs(c - q), abs(c - s), abs(q - s))
    check(6, "odd moments: closed form, quadrature and series agree",
          first <= 1e-12 and worst <= 1e-10,
          f"log2/pi {first:.2e} <= 1e-12, triple {worst:.2e} <= 1e-10")


def test_criterion_07_bounds_and_envelope():
    strict = True
    for i in range(1, 81):
        x = i / 10.0
        lo, hi = omega_bounds(x)
        v = omega_digamma(x).real
        strict &= lo < v < hi
        lo, hi = omega_bounds(-x)
        strict &= lo < omega_digamma(-x).real < hi
    member = True
    for x in (10.0, 20.0, 40.0):
        lo, hi, ratio = omega_asymptotic_envelope(x)
        member &= lo <= ratio <= hi
    hi_coef = omega_asymptotic_envelope(500.0)[1]
    caption = round(hi_coef, 3) == 0.146
    # figure window reproduced in log space: envelope brackets the approximant
    logs_ok = True
    for x in (500.0, 502.0, 504.0):
        lo, hi, _ = omega_asymptotic_envelope(x)
        log_upper = 0.5 * x + math.log(hi)
        log_approx = math.log(hi) + 0.5 * x + math.log1p(-math.exp(-x)) - LOG2
        logs_ok &= log_approx <= log_upper
    check(7, "two-sided bounds strict, large-x envelope membership, 0.146 caption",
          strict and member and caption and logs_ok,
          f"strict {strict}, member {member}, caption {hi_coef:.5f}, logs {logs_ok}")


def test_criterion_08_ode_residual():
    worst = max(omega_ode_residual(x, 1e-5) for x in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0))
    e0 = mathieu_E(0.0).value.real
    check(8, "first-order ODE residual with the continuity value at zero",
          worst <= 1e-6 and abs(e0 - 2 * dirichlet_eta(3.0)) < 1e-14,
          f"max residual {worst:.2e} <= 1e-6")


def test_criterion_09_mirror_and_reflexivity():
    worst = 0.0
    grid = (-2.0, -1.0, 0.5, 1.0, 2.0)
    for x in grid:
        for y in grid:
            z = complex(x, y)
            worst = max(worst, abs(omega_digamma(z.conjugate()) - omega_digamma(z).conjugate()))
            a, b = omega_digamma(complex(x, y)), omega_digamma(complex(x, -y))
            worst = max(worst, abs(a.real - b.real), abs(a.imag + b.imag))
        worst = max(worst, abs(omega_digamma(x).imag),
                    abs(omega_quadrature(1j * x).value.real))
    check(9, "mirror symmetry and reflexivity on the 5x5 grid",
          worst <= 1e-12, f"worst residual {worst:.2e} <= 1e-12")


def test_criterion_10_zeta_representations():
    worst_even = 0.0
    for m in range(1, 7):
        from eiskern import zeta_even_euler
        series = eta_oracle(2.0 * m) / -math.expm1((1.0 - 2 * m) * LOG2)
        worst_even = max(worst_even, abs(zeta_even_euler(m) - series) / series)
    worst_odd = 0.0
    for m in (1, 2, 3):
        worst_odd = max(worst_odd, abs(zeta_odd_via_conj(m) - riemann_zeta(float(2 * m + 1)))
                        / riemann_zeta(float(2 * m + 1)))
    worst_frac = 0.0
    for a in (1.5, 2.5, 3.2):
        b = fractional_bernoulli(a, 0.0)
        z = -1.0 / math.cos(a * PI / 2.0) * 2.0 ** (a - 1) * PI ** a * b / math.gamma(a + 1.0)
        worst_frac = max(worst_frac, abs(z - riemann_zeta(a)) / riemann_zeta(a))
    check(10, "even, odd and fractional zeta representations round trip",
          worst_even <= 1e-12 and worst_odd <= 1e-12 and worst_frac <= 1e-8,
          f"even {worst_even:.2e}, odd {worst_odd:.2e}, fractional {worst_frac:.2e}")


def test_criterion_11_printed_constants():
    p = abs(ramanujan_bstar(3.0) - 0.05815227)
    q = abs(ramanujan_bstar(5.0) - 0.025413275)
    check(11, "sign-free fractional Bernoulli constants p and q",
          p <= 1e-7 and q <= 1e-7, f"p off by {p:.2e}, q off by {q:.2e}")


def test_criterion_12_conjugate_bernoulli():
    worst_forms = max(
        abs(conj_bernoulli_half(m, "eta") - conj_bernoulli_half(m, "zeta"))
        / abs(conj_bernoulli_half(m)) for m in range(7))
    q0 = omega_moment(0, "quadrature")
    q1 = omega_moment(1, "quadrature")
    worst_moments = max(abs(-q0 - conj_bernoulli_half(0)),
                        abs(q0 / 4.0 - q1 - conj_bernoulli_half(1)))
    worst_triangle = 0.0
    for zr in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        z = complex(zr)
        g = conj_bernoulli_genfun(z)
        s = conj_genfun_series(z)
        o = -(z / (2.0 * math.sinh(zr / 2.0))) * omega_digamma(z)
        worst_triangle = max(worst_triangle, abs(g - s), abs(g - o), abs(s - o))
    check(12, "conjugate Bernoulli forms, moment combinations, generating triangle",
          worst_forms <= 1e-13 and worst_moments <= 1e-9 and worst_triangle <= 1e-8,
          f"forms {worst_forms:.2e}, moments {worst_moments:.2e}, "
          f"triangle {worst_triangle:.2e}")


def test_criterion_13_conjecture_report_only():
    c = conjecture_double_sum(0, 0.5)
    base_ok = abs(c.double_sum + LOG2 / PI) <= 1e-12 and c.discrepancy <= 1e-12
    reported = [conjecture_double_sum(j, 0.5) for j in (1, 2)]
    finite = all(math.isfinite(r.discrepancy) for r in reported)
    # the CLI suite must carry the report-only flag
    from eiskern.suites import SuiteConfig, run_suites
    flagged = run_suites(SuiteConfig(), ["conjecture.double_sum"])[0].report_only
    check(13, "conjecture checked at the base index, higher ones reported only",
          base_ok and finite and flagged,
          f"base disc {c.discrepancy:.2e}, j=1,2 discs "
          + ", ".join(f"{r.discrepancy:.2e}" for r in reported))


def test_criterion_14_cli_determinism_and_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suites",
            "eisenstein.product,omega.moments,bstar.values,conjecture.double_sum",
            "--seed", "7"]
    rc1 = cli_main(args + ["--out", str(a)])
    rc2 = cli_main(args + ["--out", str(b)])
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    rc_fail = cli_main(["verify", "--suites", "omega.moments",
                        "--tol", "omega.moments=1e-30", "--out", str(tmp_path / "c.json")])
    rc_cfg = cli_main(["verify", "--suites", "not.a.suite"])
    capsys.readouterr()
    report = json.loads(a.read_text())
    schema_ok = all(set(r) == {"inputs", "lhs", "rhs", "abs_disc", "rel_disc",
                               "tol", "pass", "policy", "paper_anchor"}
                    for s in report for r in s["records"])
    check(14, "CLI determinism, schema and exit-code contract",
          rc1 == rc2 == 0 and identical and rc_fail == 1 and rc_cfg == 2 and schema_ok,
          f"identical {identical}, fail-injection rc {rc_fail}, config rc {rc_cfg}")
