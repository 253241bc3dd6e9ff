"""The result record, the quadrature rule, engine guards at the fixed
budgets, reproducible suite runs, and no check that holds by construction: no
two compared routes share an engine, every route is compared, a leaf kernel
scaled by 1 + 1e-9 fails a record and moves every unpinned comparison, and each
family whose sides once shared a kernel fails when that kernel moves."""
from __future__ import annotations

import ast
import cmath
import contextlib
import json
import math
import re
import sys
from collections import defaultdict

import numpy as np
import pytest

from eiskern import conj_bernoulli as cb
from eiskern import numkern as nk
from eiskern import summation as sm
from eiskern import (Evaluation, NonConvergence, PoleError, QuadratureFailure,
                     eisenstein_direct, eisenstein_integral, mathieu_E,
                     omega_pv_hilbert, omega_quadrature)
from eiskern.quadrature import _GK21, _gk21, adaptive_quad, quad_decaying_tail
from eiskern.routes import ROUTES
from eiskern.suites import (CheckSuite, GridSpec, SuiteConfig, _taylor, report_text,
                            run_suites, strip_grid)


def test_evaluation_has_four_fields():
    import eiskern.errors
    assert Evaluation is eiskern.errors.Evaluation
    assert Evaluation._fields == ("value", "err_estimate", "terms_used", "route")
    assert Evaluation(1 + 0j, 0.0, 3, "test").route == "test"


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
    offenders = [name for name, text in _package_sources().items() if name != "quadrature.py"
                 and re.search(r"\bABS_TOL\b|\bquad_segments\b", text)]
    assert offenders == []


def test_one_call_per_integral():
    # an integral's breakpoints go to one adaptive_quad call: no function outside
    # quadrature.py calls it twice, or cuts a head off the integrand that it then
    # hands to quad_decaying_tail
    split = []
    for name, text in _package_sources().items():
        if name == "quadrature.py":
            continue
        for fn in ast.walk(ast.parse(text)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            integrands = defaultdict(list)
            for c in ast.walk(fn):
                if isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.args:
                    integrands[c.func.id].append(ast.dump(c.args[0]))
            head, tail = integrands["adaptive_quad"], integrands["quad_decaying_tail"]
            if len(head) > 1 or set(head) & set(tail):
                split.append((name, fn.name))
    assert split == []


def test_doubles_only_maps_each_way_out_of_the_double_range():
    from eiskern.errors import DomainError, doubles_only

    @doubles_only("f({r}, {z}) needs a double")
    def f(r, z, how="value"):
        ev = Evaluation(z, 0.0, 1, "test")
        if how == "stop":
            raise NonConvergence("stop", ev)
        if how == "overflow":
            return 10.0 ** 400
        if how == "zero":
            return z / 0
        return {"value": z, "evaluation": ev, "claim": ev._replace(err_estimate=math.inf)}[how]

    assert f(1, 2.5) == 2.5 and f(1, 2j, "evaluation").value == 2j
    for r, z, how in ((1, math.nan, "value"), (2, complex(math.inf, 0), "evaluation"),
                      (3, 1.0, "claim"), (4, 1.0, "overflow"), (5, 1.0, "zero")):
        with pytest.raises(DomainError, match=re.escape(f"f({r}, {z}) needs a double")):
            f(r, z, how=how)
    with pytest.raises(DomainError, match=r"f\(6, 1.0\)"):
        f(z=1.0, r=6, how="zero")
    with pytest.raises(NonConvergence) as exc:  # a library error passes with its partial
        f(7, 1.5, "stop")
    assert exc.value.partial.value == 1.5
    assert f.__name__ == "f"  # the perf tracer rebinds functions by name


def test_one_rule_for_values_that_are_not_doubles():
    # errors.doubles_only alone turns an OverflowError or a ZeroDivisionError into a
    # DomainError; numkern.gamma keeps its fallback from the direct forms to log space.
    # A bare except, Exception or ArithmeticError would catch both as well
    wide = {"OverflowError", "ZeroDivisionError", "ArithmeticError", "Exception", "BaseException"}

    def catches(handler: ast.ExceptHandler) -> bool:
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return handler.type is None or any(isinstance(t, ast.Name) and t.id in wide for t in types)

    sites = []
    for name, text in sorted(_package_sources().items()):
        if name == "errors.py":
            continue
        tree = ast.parse(text)
        owner = {}
        for fn in ast.walk(tree):  # outer functions come first, so a node keeps the outermost
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        sites += [(name, owner.get(h)) for h in ast.walk(tree)
                  if isinstance(h, ast.ExceptHandler) and catches(h)]
    assert sites == [("numkern.py", "gamma")] * 2


def test_only_the_engines_judge_convergence():
    # each series engine stops on the property its caller states and raises NonConvergence
    # itself, with its last estimate: a route that judged an engine's result after the
    # fact could exempt a stop the engine made too early
    def raised(node: ast.Raise) -> str | None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)

    sites = sorted({name for name, text in _package_sources().items()
                    for node in ast.walk(ast.parse(text))
                    if isinstance(node, ast.Raise) and raised(node) == "NonConvergence"})
    assert sites == ["summation.py"]


def test_one_place_judges_a_record():
    # CheckSuite.check builds every record and the counts derive from the records: a
    # second site that built a record or stored a count could judge it by other rules
    texts = _package_sources()
    built = [n for n, t in texts.items() for c in ast.walk(ast.parse(t))
             if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "CheckRecord"]
    assert built == ["suites.py"]
    stored = [(n, node.lineno) for n, t in texts.items() for node in ast.walk(ast.parse(t))
              if isinstance(getattr(node, "ctx", None), ast.Store)
              and getattr(node, "attr", getattr(node, "id", None)) in ("pass_count", "fail_count")]
    assert stored == []


def test_one_alternating_engine():
    # every alternating sum states where its moment sequence starts, and no series
    # regains a heuristic accelerator: the epsilon algorithm, whose estimate is no
    # bound, is defined in summation.py and called nowhere in the package
    texts = _package_sources()
    assert {n for n, t in texts.items() if re.search(r"\bwynn_epsilon\b", t)} == {"summation.py"}
    calls = [(n, c) for n, t in texts.items() for c in ast.walk(ast.parse(t))
             if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)]
    assert {n for n, c in calls if c.func.id == "wynn_epsilon"} == set()
    alternating = [(n, c.lineno, {k.arg for k in c.keywords}) for n, c in calls
                   if c.func.id == "alternating_sum"]
    assert len(alternating) >= 5 and [a for a in alternating if "start" not in a[2]] == []


def test_no_claim_is_a_literal():
    # every err_estimate is computed by the route's engine: a literal claim marks a value
    # returned past the engine, as the origin shortcuts once returned 0 with claim 0
    def literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))

    sites = []
    for name, text in sorted(_package_sources().items()):
        for c in ast.walk(ast.parse(text)):
            if isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == "Evaluation":
                positional = [] if any(isinstance(a, ast.Starred) for a in c.args[:2]) else c.args[1:2]
                claims = positional + [k.value for k in c.keywords if k.arg == "err_estimate"]
                sites += [(name, c.lineno) for claim in claims if literal(claim)]
    assert sites == []


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
    assert isinstance(last, Evaluation) and last.route == "richardson"
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
    odd.check("bound", -inf, 0.0, 0.0, "lower_bound", "lower bound at -inf")
    odd.wall_time_ms = 1.5e-07
    assert (odd.pass_count, odd.fail_count) == (1, 3)  # only the report record passes
    empty = CheckSuite("empty")
    for suites in ([odd, empty], [empty], [empty, odd], []):
        assert report_text(suites) == reference(suites)


def test_run_suites_owns_report_only_and_timing(all_suites):
    # the suites perfbench expects to be report-only
    assert {s.name for s in all_suites if s.report_only} == {"omega.asymptotic",
                                                              "conjecture.double_sum"}
    for s in all_suites:
        assert s.wall_time_ms == 0.0
        assert s.pass_count == sum(r.passed for r in s.records)
        assert s.pass_count + s.fail_count == len(s.records) > 0


def test_a_suite_is_report_only_when_no_record_gates():
    # exactly when every record has the report policy, so an empty suite is report-only
    assert CheckSuite("empty").report_only
    for policy in ("abs", "rel", "abs_or_rel", "lower_bound"):
        suite = CheckSuite("s")
        suite.check("report", 1.0, 2.0, 1e-12, "report", "reported")
        assert suite.report_only
        suite.check("gate", 1.0, 1.0, 1e-12, policy, "gating")
        assert not suite.report_only, policy


def test_a_lower_bound_record_reports_its_shortfall():
    # lhs >= rhs - tol passes; below it, abs_disc is rhs - lhs and rel_disc that over |rhs|
    suite = CheckSuite("s")
    suite.check("above", 2.0, -0.5, 0.0, "lower_bound", "bound")
    suite.check("below", -0.5, -2.0, 0.0, "lower_bound", "bound")
    suite.check("short", -4.0, 2.0, 0.0, "lower_bound", "bound")
    above, below, short = suite.records
    assert above.passed and below.passed and (above.abs_disc, above.rel_disc) == (0.0, 0.0)
    assert not short.passed and (short.abs_disc, short.rel_disc) == (6.0, 3.0)
    assert (suite.pass_count, suite.fail_count) == (2, 1)


def test_a_tolerance_override_applies_to_every_gating_policy():
    # --tol replaces the tolerance of abs, rel, abs_or_rel and lower_bound records alike
    for override, passed in ((1.0, True), (0.01, False)):
        suite = CheckSuite("s", override=override)
        for policy in ("abs", "rel", "abs_or_rel"):
            suite.check(policy, 1.0, 1.5, 1e-12, policy, "gating")
        suite.check("lower_bound", 1.0, 1.5, 0.0, "lower_bound", "gating")
        suite.check("report", 1.0, 1.5, 1e9, "report", "reported")
        *gating, report = suite.records
        assert [(r.tol, r.passed) for r in gating] == [(override, passed)] * 4, override
        assert (report.tol, report.passed) == (1e9, True)


def test_the_counts_follow_the_records():
    # no count is stored: records appended after run_suites has returned are counted
    suite, = run_suites(SuiteConfig(), ["bstar.values"])
    assert (suite.pass_count, suite.fail_count) == (4, 0)
    suite.check("late fail", 1.0, 2.0, 1e-12, "abs", "appended")
    suite.check("late pass", 1.0, 1.0, 1e-12, "abs", "appended")
    assert (suite.pass_count, suite.fail_count) == (5, 1)
    assert suite.to_json()["fail_count"] == 1


def test_strip_grid_keeps_each_node_in_its_unit_strip():
    # the jitter reaches step/4 = 6.25, which once carried Re z to -4.46
    pts = strip_grid(SuiteConfig(grid=GridSpec(0.1, 0.9, 300, 400, 25)))
    assert len(pts) == 5 and all(0 < z.real < 1 for z in pts)


def test_taylor_recovers_coefficients_within_its_aliasing_bound():
    # 1/(1 - w) = sum u^k/(1 - z)^(k+1) at w = z + u has every coefficient at the size
    # its pole at reach |1 - z| allows: the rule on |u| = reach/3 reads c_k/(1 - q^32),
    # |q| = 1/3, so c_k to within 3^-32 from aliasing and about 3^k eps from rounding
    for z in (0j, 0.3 + 0.4j, -2.5 - 1j):
        for k, c in enumerate(_taylor(lambda w: 1 / (1 - w), z, abs(1 - z))):
            want = (1 - z) ** -(k + 1)
            assert abs(c - want) <= (3.0 ** -32 + 3 ** k * 1e-15) * abs(want), (z, k)
    # e^w is entire: any reach, c_k = e^z/k!
    z = 0.2 - 0.7j
    for k, c in enumerate(_taylor(cmath.exp, z, 2.0)):
        assert abs(c - cmath.exp(z) / math.factorial(k)) <= 3 ** k * 1e-15 * abs(cmath.exp(z))


_LADDERS = ["numkern.identities", "eisenstein.properties", "he.higher"]


def _ladder(suites) -> list:
    return [r for s in suites for r in s.records if r.inputs.startswith("derivative ")]


def test_derivative_ladders_hold_at_a_tenth_of_their_tolerance_over_seeds():
    # perfbench runs verify at its run's seed, where one failed record fails the run
    for seed in range(1, 11):
        records = _ladder(run_suites(SuiteConfig(seed=seed), _LADDERS))
        assert len(records) == 20 + 36 + 15
        assert all(r.rel_disc <= r.tol / 10 for r in records), seed
        assert {r.tol for r in records} == {1e-8, 1e-11}


def test_he_ladder_reaches_the_nearest_pole_on_a_tall_grid():
    # on Im z in [-3.5, 3.5] a fixed list of poles ik put 3i inside the sampling circle
    cfg = SuiteConfig(grid=GridSpec(0.1, 0.9, -3.5, 3.5, 0.5))
    records = _ladder(run_suites(cfg, ["he.higher"]))
    assert len(records) == 15 and all(r.passed for r in records)


# The leaf kernels behind each engine word of the route table
KERNELS = {
    "psi": (nk._psi, nk.digamma, nk.polygamma), "cot": (nk.cot, nk.csc2, nk.coth),
    "eta": (nk.dirichlet_eta, nk.eta_odd), "zeta": (nk.riemann_zeta,),
    "bernoulli": (nk.bernoulli_poly,), "polylog": (cb.periodic_polylog, sm.power_tail),
    "richardson": (sm.richardson_limit,), "alternating": (sm.alternating_sum,),
    "power_series": (sm.power_series,), "quadrature": (_gk21,),
}
# Kernels whose scaling fails no gating record, each with its reason
UNPROBED: dict = {}
# Label families (a suite and the words of a label that hold no digit) whose comparison
# records no scaled kernel moves, each with its reason
BLIND: dict = {}
DELTA = 1e-9


def _with_engines(obj: str, route: str, engines: str) -> dict:
    # a control table: ROUTES with one route's engine set replaced
    routes = ROUTES[obj][1]
    changed = routes[route]._replace(engines=frozenset(engines.split()))
    return {**ROUTES, obj: (ROUTES[obj][0], {**routes, route: changed})}


def test_every_engine_word_has_kernels():
    # an engine word with no kernels would never be scaled by the guard below
    words = lambda table: {e for _, rs in table.values() for r in rs.values() for e in r.engines}
    assert words(ROUTES) == set(KERNELS)
    assert words(_with_engines("epsilon", "closed", "cot abacus")) - set(KERNELS) == {"abacus"}


def _scaled(f, delta):
    def g(*args, **kwargs):  # a tuple keeps its bound (and terms): an engine's, _gk21's
        v = f(*args, **kwargs)
        return (v[0] * (1 + delta), *v[1:]) if isinstance(v, tuple) else v * (1 + delta)
    return g


@contextlib.contextmanager
def _scaling(kernels, delta=DELTA):
    # each kernel scaled by 1 + delta in every eiskern module that binds it, with the
    # caches cleared on the way in and out so that no value outlives its kernel
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "eiskern"]
    cached = [f for m in modules for f in vars(m).values() if hasattr(f, "cache_clear")]
    for f in cached:
        f.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            for module in modules:
                for name, kernel in [(n, v) for n, v in vars(module).items()
                                     if any(v is k for k in kernels)]:
                    mp.setattr(module, name, _scaled(kernel, delta))
            yield
    finally:
        for f in cached:
            f.cache_clear()


@pytest.fixture(scope="module")
def kernel_probe(all_suites):
    # Scale one kernel at a time and run the gating suites.  A record whose two sides ran
    # that kernel alike stays put; one that no kernel moves compares the same arithmetic
    # on both sides and cannot fail.  Returns the kernels that failed a record, the
    # (suite, label) pairs that moved, and the gating suites.
    gating = [s for s in all_suites if not s.report_only]
    failed, moved = set(), set()
    for kernel in (f for fs in KERNELS.values() for f in fs):
        with _scaling((kernel,)):
            runs = run_suites(SuiteConfig(), [s.name for s in gating])
        for before, after in zip(gating, runs):
            for r0, r1 in zip(before.records, after.records):
                if not r1.passed:
                    failed.add(kernel.__name__)
                if abs(r1.abs_disc - r0.abs_disc) > DELTA / 10 * max(abs(r0.lhs), abs(r0.rhs)):
                    moved.add((before.name, r0.inputs))
    return failed, moved, gating


def test_each_kernel_fails_a_record(kernel_probe):
    failed, _, _ = kernel_probe
    assert {f.__name__ for fs in KERNELS.values() for f in fs} - failed == set(UNPROBED)


def test_no_gating_family_holds_by_construction(kernel_probe):
    # a family is a suite and the words of a label that hold no digit; every comparison
    # record outside the blind families moves when some kernel does
    _, moved, gating = kernel_probe
    family = lambda label: " ".join(w for w in label.split() if not any(c.isdigit() for c in w))
    blind = {(s.name, family(r.inputs)) for s in gating for r in s.records
             if r.policy in ("abs", "rel", "abs_or_rel") and (s.name, r.inputs) not in moved}
    assert blind == set(BLIND)


# Families whose two sides once ran one kernel: the records that did, the kernels they
# shared, and a scale factor 1 + delta for them that moves one side past the tolerance.
# Each is a control of the probe above on a case that once escaped a guard.
_SHARED_KERNEL_FAMILIES = {
    "product r=1": ("eisenstein.product", r"r=1 ", (nk.cot, nk.csc2), DELTA),
    "eta/zeta": ("numkern.identities", r"eta/zeta s=(1\.5|3\.0|4\.5)$", (nk.dirichlet_eta,), DELTA),
    "odd zeta": ("conj.roundtrips", r"odd zeta ", (nk.dirichlet_eta,), DELTA),
    "he symmetry": ("he.higher", r"symmetry ", (nk.digamma, nk.polygamma), DELTA),
    # the brace's four digammas largely cancel, against 1e-8 absolute
    "genfun closed/omega": ("conj.genfun", r"closed/omega z=[-\d.]+$", (nk.digamma,), 1e-6),
    # exact values that a route once returned as the constant it is checked against
    "h_1(0)": ("he.closed", r"z=0 direct$", (sm.alternating_sum,), DELTA),
    "half-point m=0": ("conj.values", r"half-point m=0$", (sm.alternating_sum,), DELTA),
}


@pytest.mark.parametrize("suite, family, kernels, delta", _SHARED_KERNEL_FAMILIES.values(),
                         ids=list(_SHARED_KERNEL_FAMILIES))
def test_a_family_fails_when_the_kernel_its_sides_shared_moves(suite, family, kernels, delta):
    # two sides that both ran the scaled kernel would move together and pass
    with _scaling(kernels, delta):
        records = run_suites(SuiteConfig(), [suite])[0].records
    chosen = [r for r in records if re.match(family, r.inputs)]
    assert chosen and not all(r.passed for r in chosen)


@pytest.mark.parametrize("kernel", [sm.alternating_sum, nk._psi, _gk21],
                         ids=["alternating_sum", "_psi", "_gk21"])
def test_omega_ode_fails_when_a_kernel_of_either_side_moves(kernel):
    # Omega' by partial fractions (alternating) against Omega by psi and the Mathieu
    # forcing by quadrature: each side runs its own, so a 1e-9 move fails at 1e-12
    with _scaling((kernel,)):
        records = run_suites(SuiteConfig(), ["omega.ode"])[0].records
    assert len(records) == 6 and not all(r.passed for r in records)


# Route pairs that a gating agreement record compares although both run the engine
# they share, each with its reason
SHARED_ENGINE = {
    ("omega", "taylor-moments", "taylor-eta"):
        "one power_series stop rule over two coefficient tables, Bernoulli against eta",
}
# Routes of an object with several routes that no gating agreement record reads
UNCHECKED = {
    ("epsilon", None): "dispatches to the closed and polygamma routes, each checked",
}


def _gating_agreements(suites) -> set:
    return {r.routes for s in suites if not s.report_only for r in s.records if r.routes}


def _shared_engines(table, pairs) -> set:
    return {(obj, a, b) for obj, a, b in pairs if table[obj][1][a].engines & table[obj][1][b].engines}


def _unchecked_routes(table, pairs) -> set:
    compared = {(obj, route) for obj, a, b in pairs for route in (a, b)}
    return {(obj, route) for obj, (_, routes) in table.items() if len(routes) > 1
            for route in routes if (obj, route) not in compared}


def test_agreement_sides_share_no_engine(all_suites):
    # the engine sets are declared in the route table: two routes that ran one engine
    # could agree by construction
    pairs = _gating_agreements(all_suites)
    assert _shared_engines(ROUTES, pairs) == set(SHARED_ENGINE)
    # a direct route that also ran psi would share it with the polygamma route
    broken = _with_engines("epsilon", "direct", "richardson psi")
    assert _shared_engines(broken, pairs) - set(SHARED_ENGINE) == {("epsilon", "direct", "polygamma")}


def test_every_route_is_compared(all_suites):
    # every route of an object with two or more routes is one side of some gating
    # agreement record, apart from the pinned exceptions
    pairs = _gating_agreements(all_suites)
    assert _unchecked_routes(ROUTES, pairs) == set(UNCHECKED)
    # a second psi route that no record reads leaves both psi routes unchecked
    psi = ROUTES["psi"]
    broken = {**ROUTES, "psi": (psi[0], {**psi[1], "reflection": psi[1]["digamma"]})}
    assert _unchecked_routes(broken, pairs) - set(UNCHECKED) == {("psi", "digamma"),
                                                                 ("psi", "reflection")}
