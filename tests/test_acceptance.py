"""Acceptance gate: every stated criterion at its stated tolerance.

Each criterion reads the default verify run (the fixture all_suites) instead of recomputing
it.  For each family it names (a suite and the label words that hold no digit) it asserts at
least the stated number of records, that every record passed, and that none was judged at a
tolerance above the criterion's; a family that verify only reports (tolerance None) must carry
the report policy, and its criterion judges the values it needs.  Only what no verify record
gates calls the library: 07's lower envelope coefficient, 09's reflexivity and 14's CLI run.

`pytest tests/test_acceptance.py -v -s` prints one line per criterion with the worst
discrepancy of each family.  Tolerances are pinned here, not configurable.
"""
from __future__ import annotations

import json
import math
from itertools import combinations

from conftest import family
from eiskern import omega_asymptotic_envelope, omega_digamma, omega_quadrature
from eiskern.cli import main as cli_main


def judged(r) -> float:  # the discrepancy that the record's policy compares with its tol
    return {"rel": r.rel_disc, "abs_or_rel": min(r.abs_disc, r.rel_disc)}.get(r.policy, r.abs_disc)


def read(num: int, suites, suite: str, fam: str, least: int, tol: float | None) -> list:
    """The records of one family of the verify run, asserted as the module docstring says."""
    records = [r for s in suites if s.name == suite for r in s.records if family(r.inputs) == fam]
    ok = (lambda r: r.policy == "report") if tol is None else \
        (lambda r: r.policy != "report" and r.passed and r.tol <= tol)
    bad = [r.inputs for r in records if not ok(r)]
    line = (f"criterion {num:02d}: {suite} {fam!r}: {len(records)} records ({least} stated), "
            f"{len(bad)} {'gating' if tol is None else f'failed or above {tol:g}'}: {bad[:3]}")
    if len(records) < least or bad:
        print("[FAIL]", line)
        raise AssertionError(line)
    return records


def gate(num: int, desc: str, suites, families: list, ok: bool = True, detail: str = "") -> None:
    """Read each (suite, family, least records, tolerance) and print the criterion's line
    with the worst judged discrepancy of each family; ok and detail add what the criterion
    judges beyond the records' pass flags."""
    worst = [f"{fam or suite} {max(map(judged, read(num, suites, suite, fam, least, tol))):.1e}"
             for suite, fam, least, tol in families]
    detail = ", ".join(filter(None, worst + [detail]))
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_eisenstein_route_agreement(all_suites):
    pairs = ["direct/polygamma", "direct/integral", "polygamma/integral"]
    gate(1, "Eisenstein route agreement on the jittered strip grid", all_suites,
         [("eisenstein.routes", p, 144, 1e-8) for p in pairs]
         + [("eisenstein.routes", "direct/closed", 72, 1e-10),
            ("eisenstein.routes", "closed/integral", 72, 1e-8)])


def test_criterion_02_product_identity(all_suites):
    gate(2, "product identity holds at order one and only there", all_suites,
         [("eisenstein.product", "", 24, 1e-9), ("eisenstein.product", "exact value", 1, 1e-10),
          ("eisenstein.product", "uniqueness", 3, 0.0)])


def test_criterion_03_he_first_order_closed_form(all_suites):
    gate(3, "first-order HE closed form vs direct summation incl. 3+0.5i", all_suites,
         [("he.closed", "", 20, 1e-9), ("he.closed", "direct", 1, 1e-13)])


def test_criterion_04_he_higher_orders(all_suites):
    gate(4, "higher-order HE closed forms and structural properties", all_suites,
         [("he.higher", "closed", 40, 1e-8), ("he.higher", "difference", 30, 1e-9),
          ("he.higher", "symmetry", 30, 1e-10), ("he.higher", "derivative", 15, 1e-11)])


def test_criterion_05_omega_route_agreement(all_suites):
    routes = ("quadrature", "digamma", "partial-fraction", "taylor-moments", "taylor-eta")
    gate(5, "five-route Omega agreement and the real axis up to 30", all_suites,
         [("omega.routes", f"{a}/{b}", 20, 1e-8) for a, b in combinations(routes, 2)]
         + [("omega.routes", "real axis", 6, 1e-8)])


def test_criterion_06_moments(all_suites):
    gate(6, "odd moments: closed form, quadrature and series agree", all_suites,
         [("omega.moments", "first moment", 1, 1e-12)]
         + [("omega.moments", p, 6, 1e-10)
            for p in ("closed/quadrature", "closed/series", "quadrature/series")])


def test_criterion_07_bounds_and_envelope(all_suites):
    sides = [("omega.bounds", side, 160, 0.0) for side in ("lower", "upper")]
    margin = min(r.lhs.real for f in sides for r in read(7, all_suites, *f))
    # each ratio record holds (ratio, upper coefficient); the lower one is not reported
    ratios = read(7, all_suites, "omega.asymptotic", "measured ratio", 3, None)
    member = all(omega_asymptotic_envelope(float(r.inputs.split()[0][2:]))[0]
                 <= r.lhs.real <= r.rhs.real for r in ratios)
    (caption,) = read(7, all_suites, "omega.asymptotic", "caption constant", 1, None)
    gate(7, "two-sided bounds strict, large-x envelope membership, 0.146 caption", all_suites,
         sides, margin > 0.0 and member and caption.abs_disc <= 5e-4,
         f"least margin {margin:.1e}, member {member}, caption {caption.lhs.real:.5f}")


def test_criterion_08_ode_residual(all_suites):
    gate(8, "first-order ODE by the contour rule, Omega'(0) = log(2)/pi included", all_suites,
         [("omega.ode", "", 6, 1e-12)])


def test_criterion_09_mirror_and_reflexivity(all_suites):
    grid = (-2.0, -1.0, 0.5, 1.0, 2.0)
    reflexive = max(max(abs(omega_digamma(x).imag), abs(omega_quadrature(1j * x).value.real))
                    for x in grid)
    gate(9, "mirror symmetry and reflexivity on the 5x5 grid", all_suites,
         [("omega.symmetry", "mirror", 25, 1e-12), ("omega.symmetry", "oddness", 25, 1e-12)],
         reflexive <= 1e-12, f"reflexivity {reflexive:.1e} <= 1e-12")


def test_criterion_10_zeta_representations(all_suites):
    gate(10, "even, odd and fractional zeta representations round trip", all_suites,
         [("conj.roundtrips", "even zeta", 6, 1e-12), ("conj.roundtrips", "odd zeta", 4, 1e-12),
          ("conj.roundtrips", "fractional", 3, 1e-8),
          ("conj.roundtrips", "conjugate fractional", 3, 1e-10),
          ("conj.roundtrips", "interpolation", 9, 1e-12)])


def test_criterion_11_printed_constants(all_suites):
    labels = {r.inputs for r in read(11, all_suites, "bstar.values", "", 4, 1e-7)}
    gate(11, "sign-free fractional Bernoulli constants p and q", all_suites,
         [("bstar.values", "", 4, 1e-7)], {"alpha=3", "alpha=5"} <= labels)


def test_criterion_12_conjugate_bernoulli(all_suites):
    gate(12, "conjugate Bernoulli forms, moment combinations, generating triangle", all_suites,
         [("conj.values", "half-point", 7, 1e-13), ("conj.values", "moment combination", 3, 1e-9)]
         + [("conj.genfun", edge, 8, 1e-8)
            for edge in ("closed/series", "closed/omega", "series/omega")])


def test_criterion_13_conjecture_report_only(all_suites):
    reported = read(13, all_suites, "conjecture.double_sum", "report", 5, None)
    finite = all(math.isfinite(r.abs_disc) for r in reported)
    gate(13, "conjecture checked at the base index, higher ones reported only", all_suites,
         [("conj.values", "closed value", 1, 1e-12), ("conj.values", "fourier", 1, 1e-12)],
         finite, "reported discs " + ", ".join(f"{r.abs_disc:.1e}" for r in reported))


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
    gate(14, "CLI determinism, schema and exit-code contract", [], [],
         rc1 == rc2 == 0 and identical and rc_fail == 1 and rc_cfg == 2 and schema_ok,
         f"identical {identical}, fail-injection rc {rc_fail}, config rc {rc_cfg}")
