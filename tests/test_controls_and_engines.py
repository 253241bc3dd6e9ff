"""The result record, the quadrature rule, engine guards at the fixed
budgets, reproducible suite runs, and no check that holds by construction."""
from __future__ import annotations

import ast
import json
import math
import re
from collections import defaultdict

import numpy as np
import pytest

from eiskern import (Evaluation, NonConvergence, PoleError, QuadratureFailure,
                     eisenstein_direct, eisenstein_integral, mathieu_E,
                     omega_pv_hilbert, omega_quadrature)
from eiskern.quadrature import _GK21, adaptive_quad, quad_decaying_tail
from eiskern.suites import REPORT_ONLY, CheckSuite, SuiteConfig, report_text, run_suites


def test_evaluation_diagnostics_default():
    ev = Evaluation(1 + 0j, 0.0, 3, "test")
    assert ev.diagnostics == {}


def test_gauss_kronrod_rule():
    # the table holds x >= 0, centre last; the rule is its mirror image, the centre taken once
    assert all(type(v) is float for row in _GK21 for v in row)
    half, (x0, wk0, wg0) = _GK21[:-1], _GK21[-1]
    pos = [x for x, _, _ in half]
    assert x0 == 0.0 and wg0 == 0.0 and len(pos) == 10
    assert all(1.0 > a > b > 0.0 for a, b in zip(pos, pos[1:]))
    xs = [-x for x in pos] + [0.0] + pos[::-1]
    wk = [w for _, w, _ in half] + [wk0] + [w for _, w, _ in half[::-1]]
    wg = [w for _, _, w in half] + [0.0] + [w for _, _, w in half[::-1]]
    gx, gw = np.polynomial.legendre.leggauss(10)
    g10 = sorted((x, w) for x, w in zip(xs, wg) if w)
    assert max(abs(x - y) for (x, _), y in zip(g10, gx)) <= 1e-15
    assert max(abs(w - y) for (_, w), y in zip(g10, gw)) <= 1e-14
    moment = lambda ws, k: sum(w * x ** k for x, w in zip(xs, ws))
    exact = lambda k: 0.0 if k % 2 else 2.0 / (k + 1)
    assert all(abs(moment(wk, k) - exact(k)) <= 1e-14 for k in range(32))  # degree 3n+1 = 31
    assert all(abs(moment(wg, k) - exact(k)) <= 1e-14 for k in range(20))  # degree 2n-1 = 19
    assert abs(moment(wg, 20) - exact(20)) > 1e-8  # so |K21 - G10| sees the degree-20 part


def test_adaptive_quad_basics():
    v, err, panels = adaptive_quad(lambda t: math.exp(-t), 0.0, 5.0)
    assert v.real == pytest.approx(1.0 - math.exp(-5.0), rel=1e-12)
    assert err >= 0 and panels >= 1
    assert type(v) is complex
    for ev in (omega_quadrature(1.0), omega_quadrature(60.0), eisenstein_integral(2, 0.3),
               mathieu_E(1.0), omega_pv_hilbert(2.0 + 1j)):
        assert type(ev.value) is complex


def test_adaptive_quad_failure_on_depth():
    # the cusp keeps its bisected panels off budget down to the depth cap
    with pytest.raises(QuadratureFailure):
        adaptive_quad(lambda t: abs(t - 0.3537) ** 0.2, 0.0, 1.0)


def test_quad_decaying_tail_exact_integrals():
    # int_0^oo t^3/(e^t - 1) dt = pi^4/15 meets the majorant t^3 e^-t/(1 - e^-t) with equality
    v, err, panels = quad_decaying_tail(lambda t: t ** 3 / math.expm1(t), 0.0, 1.0, power=3.0)
    assert abs(v - math.pi ** 4 / 15.0) <= err < 1e-11 and panels >= 1
    v, err, _ = quad_decaying_tail(lambda t: t * math.exp(-2.0 * t), 0.0, 2.0, power=1.0)
    assert abs(v - 0.25) <= err < 1e-11
    with pytest.raises(QuadratureFailure):
        quad_decaying_tail(math.exp, 0.0, 0.0)


def test_one_tail_rule():
    # quadrature.py alone picks a truncation point: no other module reads its
    # tolerance or integrates a hand-cut [a, T]
    import pathlib
    import eiskern
    src = pathlib.Path(eiskern.__file__).parent
    offenders = [p.name for p in src.glob("*.py") if p.name != "quadrature.py"
                 and re.search(r"\bABS_TOL\b|\bquad_segments\b", p.read_text())]
    assert offenders == []


def test_one_alternating_engine():
    # every alternating sum states where its moment sequence starts, and no series
    # regains a heuristic accelerator: the epsilon algorithm, whose estimate is no
    # bound, is defined in summation.py and called nowhere in the package
    import ast
    import pathlib
    import eiskern
    src = pathlib.Path(eiskern.__file__).parent
    texts = {p.name: p.read_text() for p in src.glob("*.py")}
    assert {n for n, t in texts.items() if re.search(r"\bwynn_epsilon\b", t)} == {"summation.py"}
    calls = [(n, c) for n, t in texts.items() for c in ast.walk(ast.parse(t))
             if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)]
    assert {n for n, c in calls if c.func.id == "wynn_epsilon"} == set()
    alternating = [(n, c.lineno, {k.arg for k in c.keywords}) for n, c in calls
                   if c.func.id == "alternating_sum"]
    assert len(alternating) >= 5 and [a for a in alternating if "start" not in a[2]] == []


def _package_sources() -> dict:
    import pathlib
    import eiskern
    return {p.name: p.read_text() for p in pathlib.Path(eiskern.__file__).parent.glob("*.py")}


def _names(text: str) -> set:
    # every name a module reads, binds or imports
    tree = ast.parse(text)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {a.asname or a.name for n in ast.walk(tree)
               if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names})


def test_one_home_for_h1():
    # h_1 is evaluated in hilbert_eisenstein alone: Omega and the conjugate-Bernoulli
    # generating function scale its routes, so they sum no digamma brace, no alternating
    # partial fractions and no eta power series of their own
    texts = _package_sources()
    assert not {"digamma", "alternating_sum"} & _names(texts["omega.py"])
    assert "power_series" not in _names(texts["conj_bernoulli.py"])


def test_no_unused_imports():
    # a module imports no name it never uses; names listed in __all__ count as used
    unused = []
    for name, text in _package_sources().items():
        tree = ast.parse(text)
        imported = {(a.asname or a.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= {e.value for e in node.value.elts}
        unused += [(name, n) for n in sorted(imported - used)]
    assert unused == []


def test_direct_nonconvergence_far_from_real_axis():
    # the tail of sum (z+k)^-2 only settles once N >> |Im z|; 11823 terms are too few
    # from |Im z| of about 320 on (0.3+300i converges to 5e-18, claimed 6e-15)
    with pytest.raises(NonConvergence) as info:
        eisenstein_direct(2, 0.3 + 1000j)
    last = info.value.partial
    assert isinstance(last, Evaluation) and last.route == "direct"
    assert last.terms_used == 11823 and last.err_estimate > 1e-14


def test_integral_pole_guard():
    with pytest.raises(PoleError):
        eisenstein_integral(2, 3.0)


def test_run_suites_reproducible(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    names = ["bstar.values", "omega.moments", "eisenstein.product"]
    first = run_suites(SuiteConfig(), names)
    second = run_suites(SuiteConfig(), names)
    a = json.dumps([s.to_json() for s in first])
    b = json.dumps([s.to_json() for s in second])
    assert a == b


def test_report_text_matches_json_dumps(all_suites):
    reference = lambda suites: json.dumps([s.to_json() for s in suites], indent=1) + "\n"
    assert report_text(all_suites) == reference(all_suites)
    odd = CheckSuite("synthétique", override=1e-3)
    inf, nan = math.inf, math.nan
    odd.check('quote " backslash \\ tab \t z=0.5', complex(nan, inf), complex(-inf, 0.0),
              1e-12, "abs", "résumé of \u03b5_r at ½ \U0001d70b")
    odd.check("finite", 1e300 + 1e-300j, -2.5e-17, 1e-12, "abs_or_rel", "plain")
    odd.check("report", 3, -0.0, 1e9, "report", "reported")
    odd.lower_bound("bound", -inf, 0.0, "lower bound at -inf")
    odd.pass_count, odd.fail_count, odd.wall_time_ms = 3, 1, 1.5e-07
    empty = CheckSuite("empty", report_only=True)
    for suites in ([odd, empty], [empty], [empty, odd], []):
        assert report_text(suites) == reference(suites)


def test_run_suites_owns_report_only_and_timing(all_suites):
    assert {s.name for s in all_suites if s.report_only} == REPORT_ONLY
    for s in all_suites:
        assert s.wall_time_ms == 0.0
        assert s.pass_count == sum(r.passed for r in s.records)
        assert s.pass_count + s.fail_count == len(s.records) > 0


# a real a, or a complex a+bi as the labels print it
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?"
                     r"(?:[-+](?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?i)?")


def test_no_gating_family_holds_by_construction(all_suites):
    # A family is a label with its numbers replaced by #.  When every record of
    # a family has discrepancy exactly 0, its two sides run the same arithmetic
    # and the check cannot fail.
    families = defaultdict(list)
    for s in all_suites:
        if s.report_only:
            continue
        for r in s.records:
            if r.policy in ("abs", "rel", "abs_or_rel"):
                families[s.name, _NUMBER.sub("#", r.inputs)].append(r.abs_disc)
    exact = sorted(f for f, discs in families.items()
                   if len(discs) >= 3 and all(d == 0.0 for d in discs))
    assert exact == []
