"""CLI surface: subcommands, JSON report schema, CSV shapes, determinism,
exit-code contract."""
from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

import eiskern
from eiskern.cli import main
from eiskern.routes import ROUTES

FAST_SUITES = "omega.moments,bstar.values,eisenstein.product,conjecture.double_sum"


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cli_import_is_numpy_free():
    # -S: no site hooks add modules; only verify loads the suites, nothing loads dataclasses
    src = os.path.dirname(os.path.dirname(eiskern.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, eiskern; assert 'dataclasses' not in sys.modules;"
            "import eiskern.cli; loaded = {'numpy', 'eiskern.suites', 'dataclasses'} & set(sys.modules);"
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# eval

def test_eval_omega(capsys):
    # the default is the quadrature route, the first the table names
    rc, out, _ = run(["eval", "omega", "1"], capsys)
    assert rc == 0
    assert out.startswith("omega(1) = 0.22257033121871547  (route=quadrature, ")


def test_eval_he_origin(capsys):
    rc, out, _ = run(["eval", "he", "1", "0"], capsys)
    assert rc == 0
    assert f"{2 * math.log(2):.12f}"[:12] in out.replace("+", "")


def test_eval_epsilon(capsys):
    rc, out, _ = run(["eval", "epsilon", "2", "0.5"], capsys)
    assert rc == 0
    assert "9.8696044010893" in out


def test_eval_json(capsys):
    rc, out, _ = run(["eval", "zeta", "3", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["value"]["re"] == pytest.approx(1.2020569031595942, rel=1e-14)
    assert set(doc) == {"fn", "args", "value", "err_estimate", "route", "terms_used"}


def test_eval_routes(capsys):
    rc, out1, _ = run(["eval", "omega", "2", "--route", "quadrature", "--json"], capsys)
    rc2, out2, _ = run(["eval", "omega", "2", "--route", "partial-fraction", "--json"], capsys)
    assert rc == rc2 == 0
    a = json.loads(out1)["value"]["re"]
    b = json.loads(out2)["value"]["re"]
    assert a == pytest.approx(b, rel=1e-10)


def test_eval_unknown_function_exits_2(capsys):
    rc, _, err = run(["eval", "nosuch", "1"], capsys)
    assert rc == 2
    assert "unknown function" in err


def test_eval_help_names_every_function_and_route(capsys):
    # the help lists the functions eval knows, and a wrong argument count prints
    # every route the epsilon evaluator accepts
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--list" not in help_text
    assert all(name in help_text for name in [*ROUTES, "conjecture"])
    rc, _, err = run(["eval", "epsilon", "2"], capsys)
    assert rc == 2
    for route in ("direct", "closed", "polygamma", "integral"):
        assert route in err.split("--route ")[1].rstrip("]\n").split("|")
        assert run(["eval", "epsilon", "2", "0.3+0.4i", "--route", route], capsys)[0] == 0


def test_eval_domain_violation_exits_2_with_precondition(capsys):
    rc, _, err = run(["eval", "zeta", "0.5"], capsys)
    assert rc == 2
    assert "requires s > 1" in err


def test_eval_omega_not_a_double_exits_2(capsys):
    # Omega(1e4) ~ 9e2163: the default quadrature route stops at |Re z| = 1400, and the
    # log-space digamma route finds the value is no double
    rc, _, err = run(["eval", "omega", "1e4"], capsys)
    assert rc == 2
    assert "|Re z| <= 1400" in err
    rc, _, err = run(["eval", "omega", "1e4", "--route", "digamma"], capsys)
    assert rc == 2
    assert "not representable" in err


@pytest.mark.parametrize("fn, args, argv, precondition", [
    ("omega_digamma", (1e16,), ["eval", "omega", "1e300", "--route", "digamma"], "not a double"),
    ("omega_eval", (1e300,), None, "not a double"),
    ("omega_bounds", (1e155,), None, "not a double"),
    ("bernoulli_number", (-1,), ["eval", "bernoulli", "-2"], "n must be >= 0"),
    ("bernoulli_poly", (-1, 0.5), ["eval", "bpoly", "-1", "0.5"], "n must be >= 0"),
    ("pochhammer", (0.5, -1), None, "sigma >= 0"),
    ("riemann_zeta", (math.nan,), ["eval", "zeta", "nan"], "requires s > 1"),
    ("riemann_zeta", (math.inf,), None, "requires s > 1"),
    ("eisenstein_integral", (2, 0.3 + 0.2j, "hyp"), None, "'exponential' or 'hyperbolic'"),
])
def test_typed_error_names_the_precondition(fn, args, argv, precondition, capsys):
    # past |x| = 1400 the Omega brace rounds to 0 or zeta(3) x^2 overflows to a nan
    # factor; negative indices, s = nan or inf and an unknown form break preconditions as well
    with pytest.raises(eiskern.DomainError, match=re.escape(precondition)):
        getattr(eiskern, fn)(*args)
    if argv:
        rc, out, err = run(argv, capsys)
        assert rc == 2 and out == "" and precondition in err


@pytest.mark.parametrize("argv, precondition", [
    (["mathieu_alternating", "200", "10.0"], "(k^2 + x^2)^r of its terms to be a double"),
    (["epsilon", "400", "0.01", "--route", "direct"], "every term (z+k)^(-r) to be a double"),
    (["moment", "600", "--route", "series"], "requires k <= 511"),
    (["bpoly", "400", "0.5"], "C(n,k) B_k x^(n-k) and their sum to be doubles"),
    (["conjecture", "200", "0.3"], "require 0 <= j <= 84, where (2j+1)! is a double"),
    (["conjecture", "85", "0.3"], "require 0 <= j <= 84, where (2j+1)! is a double"),
    (["zeta", "inf"], "requires s > 1 and finite, got inf"),
    (["bernoulli", "400"], "B_400 is not a double"),
    (["he", "400", "0.5"], "a term of its asymptotic series or reflection is not a double"),
    (["fractional", "1e300", "0"], "the value is not a double"),
])
def test_eval_past_the_double_range_exits_2(argv, precondition, capsys):
    # a term that overflows a double (a denominator, a float power, 4^k, a Bernoulli
    # coefficient) raises DomainError, where a raw OverflowError used to end with a traceback
    rc, out, err = run(["eval", *argv], capsys)
    assert rc == 2 and out == "" and precondition in err


def test_eval_double_dash_after_an_option(capsys):
    # `--` may follow an option that follows the function name
    for argv, options_first in (
            (["epsilon", "2", "--route", "direct", "--", "-3+2i"],
             ["--route", "direct", "--", "epsilon", "2", "-3+2i"]),
            (["conjecture", "--json", "--", "1", "0.5"], ["--json", "--", "conjecture", "1", "0.5"])):
        rc, out, _ = run(["eval", *argv], capsys)
        assert rc == 0 and out and (rc, out) == run(["eval", *options_first], capsys)[:2]
    with pytest.raises(SystemExit) as exc:  # any other leftover stays an argparse error
        main(["eval", "epsilon", "2", "0.5", "--bogus"])
    assert exc.value.code == 2 and "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_bernoulli_size_bound_gives_the_exact_verdict():
    # eval bernoulli rejects n from the size of B_n before it builds the exact Fraction;
    # a B_n the bound let through that is no double would escape as an OverflowError
    from eiskern.routes import _bernoulli
    verdicts = {}
    for n in range(250, 301, 2):
        try:
            exact = math.isfinite(float(eiskern.bernoulli_number(n)))
        except OverflowError:
            exact = False
        try:
            verdicts[n] = _bernoulli(n) == float(eiskern.bernoulli_number(n))
        except eiskern.DomainError:
            verdicts[n] = False
        assert verdicts[n] == exact, n
    assert verdicts[258] and not verdicts[260]


def test_parse_complex_maps_only_the_imaginary_unit():
    from eiskern.cli import _parse_complex
    assert _parse_complex(" 0.37+0.6i ") == 0.37 + 0.6j
    assert _parse_complex("2i") == 2j and _parse_complex("1e4") == 1e4
    assert _parse_complex("-inf") == -math.inf and math.isnan(_parse_complex("nan").real)
    with pytest.raises(eiskern.ConfigError, match="cannot parse"):
        _parse_complex("1+2k")


def test_eval_zeta_labels_the_branch_that_ran(capsys):
    rc, out, _ = run(["eval", "zeta", "4"], capsys)
    assert rc == 0 and "route=bernoulli," in out
    rc, out, _ = run(["eval", "zeta", "3"], capsys)
    assert rc == 0 and "route=via-eta," in out


def test_eval_omega_complex_past_re_1400_exits_2(capsys):
    rc, _, err = run(["eval", "omega", "1500+1i"], capsys)
    assert rc == 2
    assert "|Re z| <= 1400" in err


def test_eval_epsilon_at_large_order(capsys):
    rc, out, _ = run(["eval", "epsilon", "103", "0.3+0.4i", "--route", "integral"], capsys)
    assert rc == 0 and "route=integral," in out
    rc, out, err = run(["eval", "epsilon", "200", "0.3+0.4i"], capsys)  # default route: polygamma
    assert rc == 2 and out == ""
    assert "not a double" in err


def test_eval_closed_moment_past_k_5_exits_2(capsys):
    rc, out, err = run(["eval", "moment", "20"], capsys)
    assert rc == 2 and out == ""
    assert "use route 'series'" in err
    rc, out, _ = run(["eval", "moment", "20", "--route", "series", "--json"], capsys)
    assert rc == 0
    assert json.loads(out)["value"]["re"] == pytest.approx(3.9651845345949627e-16, rel=1e-13)


def test_eval_he_real_axis_routes_reject_complex_z(capsys):
    rc, out, _ = run(["eval", "he", "1", "0.5+0.3i", "--json"], capsys)
    assert rc == 0
    value = json.loads(out)["value"]
    assert complex(value["re"], value["im"]) == pytest.approx(
        0.36423728261254806 + 1.0368832550179363j, rel=1e-12)
    for route in ("real", "eisenstein"):
        rc, _, err = run(["eval", "he", "1", "0.5+0.3i", "--route", route], capsys)
        assert rc == 2
        assert "a real argument is required" in err
    rc, out, _ = run(["eval", "he", "1", "0.5", "--route", "real"], capsys)
    assert rc == 0


def test_eval_he_taylor_route_is_h1_only(capsys):
    rc, out, err = run(["eval", "he", "2", "0.5", "--route", "taylor"], capsys)
    assert rc == 2 and out == ""
    assert "h_1 only" in err
    rc, out, _ = run(["eval", "he", "1", "0.5", "--route", "taylor", "--json"], capsys)
    assert rc == 0 and json.loads(out)["route"] == "taylor"


def test_eval_mathieu_unknown_route_exits_2(capsys):
    rc, out, err = run(["eval", "mathieu", "2", "1", "--route", "bogus"], capsys)
    assert rc == 2 and out == ""
    assert "unknown mathieu route 'bogus'" in err
    rc, out, _ = run(["eval", "mathieu", "2", "1", "--json"], capsys)
    assert rc == 0 and json.loads(out)["route"] == "series-richardson"


def test_eval_mathieu_objects_are_two_functions(capsys):
    # S_2 and the alternating series S~_2 are different functions, so each is its own
    # object; the alternating one's integral route (mathieu_E) computes r = 2 only
    rc, out, _ = run(["eval", "mathieu", "2", "1"], capsys)
    assert rc == 0 and out.startswith("mathieu(2, 1) = 0.79423354275931857  (route=series-richardson")
    for extra, shown in (([], "0.38171255654242348  (route=alternating"),
                         (["--route", "integral"], "0.381712556542423")):
        rc, out, _ = run(["eval", "mathieu_alternating", "2", "1", *extra], capsys)
        assert rc == 0 and out.startswith(f"mathieu_alternating(2, 1) = {shown}"), out
    rc, out, err = run(["eval", "mathieu_alternating", "3", "1", "--route", "integral"], capsys)
    assert rc == 2 and out == "" and "S~_2 only; use r = 2" in err


def test_eval_direct_raises_where_it_once_printed_a_silent_zero(capsys):
    # every term up to k of about 290 underflows to 0; past |z| = 11823/3 the direct
    # route cannot reach N >= 3|z| and exits 2 instead of printing 0 with a zero claim
    rc, out, err = run(["eval", "epsilon", "--route", "direct", "--", "100", "-5000.5"], capsys)
    assert rc == 2 and out == "" and "N >= 15001.5" in err


# arguments in every route's domain
_IN_DOMAIN = {"conjecture": "1 0.3", "bernoulli": "2", "bpoly": "2 0.3", "bstar": "2.5",
              "conj_half": "1", "conj_periodic": "1 0.3", "epsilon": "2 0.3+0.4i", "eta": "1.5",
              "fractional": "1.5 0.3", "genfun": "0.3+0.4i", "he": "1 0.5", "mathieu": "2 0.5",
              "mathieu_alternating": "2 0.5", "moment": "1", "omega": "0.5",
              "polygamma": "1 0.3+0.4i", "psi": "0.3+0.4i", "zeta": "2.5", "zeta_odd_conj": "1"}


@pytest.mark.parametrize("fn, route", [(fn, route) for fn, (_, routes) in ROUTES.items()
                                       for route in routes if route is not None])
def test_eval_labels_a_named_route_with_its_table_key(fn, route, capsys):
    # one name in --route, in the table and in the output, text and json alike
    rc, out, err = run(["eval", fn, *_IN_DOMAIN[fn].split(), "--route", route], capsys)
    assert rc == 0, err
    assert f"  (route={route}, " in out
    rc, out, _ = run(["eval", fn, *_IN_DOMAIN[fn].split(), "--route", route, "--json"], capsys)
    assert rc == 0 and json.loads(out)["route"] == route


@pytest.mark.parametrize("fn", list(ROUTES))
def test_eval_checks_route_of_every_function(fn, capsys):
    # a function without routes rejects every --route as well, where it used to ignore it
    args = ["1"] * len(ROUTES[fn][0].split())
    rc, out, err = run(["eval", "--route", "bogus", fn, *args], capsys)
    assert rc == 2 and out == ""
    assert err == f"configuration error: unknown {fn} route 'bogus'\n"


@pytest.mark.parametrize("fn, usage", [
    ("he", "he r z [--route closed|direct|taylor|real|eisenstein]"),
    ("omega", "omega z [--route quadrature|digamma|partial-fraction|taylor-moments|taylor-eta"
               "|pv-fold]"),
    ("mathieu", "mathieu r x"),
    ("mathieu_alternating", "mathieu_alternating r x [--route alternating|integral]"),
    ("conj_half", "conj_half m [--route eta|zeta]"),
    ("polygamma", "polygamma r z"),
    ("conjecture", "conjecture j z"),
])
def test_eval_usage_comes_from_the_route_table(fn, usage, capsys):
    assert run(["eval", fn], capsys) == (2, "", f"usage: eiskern eval {usage}\n")


_EDGE_INTS = ["0", "1", "3", "400"]
_EDGE_REALS = ["0", "0.5", "-2.5", "1e-12", "1e300"]
_EDGE_GRID = {"int": _EDGE_INTS, "real": _EDGE_REALS,
              "complex": _EDGE_REALS + ["0.3+0.4i", "-3+2i", "0.5+1e300i"]}


def test_eval_edge_grid_keeps_the_exit_code_contract(capsys):
    # every function, by default and by each named route, on one grid per argument kind:
    # exit 0 with a finite value and claim, or exit 2 with nothing on stdout, within 0.5 s;
    # never a raw exception, never a nan.  Then from _IN_DOMAIN's arguments, one
    # real or complex argument at a time set to nan, inf or -inf: exit 2 with nothing on
    # stdout and a message that names finiteness (or, where a route computes one order
    # only, the order it computes)
    import itertools
    import time

    def attempt(argv):
        try:
            return run(argv, capsys)
        except Exception as exc:  # noqa: BLE001 -- the contract excludes every one
            failures.append((argv, repr(exc)))

    failures, slow, count = [], [], 0
    for fn, (params, routes) in ROUTES.items():
        grids = [_EDGE_GRID[p.split(":")[1]] for p in params.split()]
        for route in dict.fromkeys([None, *routes]):
            for args in itertools.product(*grids):
                argv = ["eval", *(["--route", route] if route else []), "--json", "--", fn, *args]
                count += 1
                started = time.perf_counter()
                result = attempt(argv)
                if time.perf_counter() - started > 0.5:
                    slow.append(argv)
                if result is None:
                    continue
                rc, out, _ = result
                if rc == 0:
                    doc = json.loads(out)
                    numbers = ([doc["value"]["re"], doc["value"]["im"], doc["err_estimate"]]
                               if "value" in doc else [doc["double_sum"], doc["fourier"]])
                    if all(map(math.isfinite, numbers)):
                        continue
                elif rc == 2 and out == "":
                    continue
                failures.append((argv, rc, out))
    assert count == 831

    assert set(_IN_DOMAIN) == set(ROUTES)
    count = 0
    for fn, (params, routes) in ROUTES.items():
        base = _IN_DOMAIN[fn].split()
        for route in dict.fromkeys([None, *routes]):
            options = ["--route", route] if route else []
            assert run(["eval", *options, "--", fn, *base], capsys)[0] == 0, (fn, route)
            for i, kind in enumerate(params.split()):
                for bad in ("nan", "inf", "-inf") if not kind.endswith(":int") else ():
                    argv = ["eval", *options, "--", fn, *base[:i], bad, *base[i + 1:]]
                    count += 1
                    result = attempt(argv)
                    if result and not (result[0] == 2 and result[1] == "" and
                                       ("finite" in result[2] or "only; use r =" in result[2])):
                        failures.append((argv, *result))
    assert count == 141
    assert not failures, failures
    assert not slow, slow


# ---------------------------------------------------------------------------
# verify

def test_verify_selected_suites(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc, _, err = run(["verify", "--suites", FAST_SUITES, "--out", str(out)], capsys)
    assert rc == 0
    suites = json.loads(out.read_text())
    assert [s["suite"] for s in suites] == FAST_SUITES.split(",")
    rec = suites[0]["records"][0]
    assert set(rec) == {"inputs", "lhs", "rhs", "abs_disc", "rel_disc", "tol",
                        "pass", "policy", "paper_anchor"}
    assert {"re", "im"} == set(rec["lhs"])
    for s in suites:
        assert s["pass_count"] + s["fail_count"] == len(s["records"])
    assert "report-only" in err


def test_verify_unknown_suite_exits_2(capsys):
    rc, _, err = run(["verify", "--suites", "nope.nothing"], capsys)
    assert rc == 2
    assert "unknown suite" in err


def test_verify_repeated_suite_exits_2(capsys):
    # run twice, a suite would write two report objects of one name
    rc, out, err = run(["verify", "--suites", "bstar.values,omega.moments,bstar.values"], capsys)
    assert (rc, out) == (2, "")
    assert err == "configuration error: suite 'bstar.values' is named more than once\n"


def test_verify_repeated_tol_exits_2(capsys):
    # the later value once replaced the first, so the exit code hung on the order
    for tols in (["omega.moments=1e-30", "omega.moments=1"],
                 ["omega.moments=1", "omega.moments=1e-30"]):
        rc, out, err = run(["verify", "--suites", "omega.moments",
                            *(a for t in tols for a in ("--tol", t))], capsys)
        assert (rc, out) == (2, "")
        assert err == "configuration error: --tol sets suite 'omega.moments' more than once\n"


def test_verify_bad_tol_exits_2(capsys):
    rc, _, err = run(["verify", "--suites", "bstar.values", "--tol", "bstar.values=abc"], capsys)
    assert rc == 2
    rc, _, err = run(["verify", "--suites", "bstar.values", "--tol", "zzz=1e-3"], capsys)
    assert rc == 2 and "unknown suite 'zzz'; known: " in err


def test_verify_tol_for_a_suite_not_selected_exits_2(capsys):
    # the override once replaced no tolerance and verify exited 0, the injected failure unrun
    rc, out, err = run(["verify", "--suites", "bstar.values", "--tol", "omega.moments=1e-30"],
                       capsys)
    assert rc == 2 and out == ""
    assert "--tol sets suite omega.moments, which --suites does not select" in err


def test_an_unwritable_out_exits_2_naming_the_path(tmp_path, capsys):
    # the open error once left every command with a traceback and exit 1, which verify
    # gives a failed record
    out = str(tmp_path / "missing" / "x")
    for argv in (["verify", "--suites", "bstar.values"], ["table", "bstar"], ["plotdata", "fig1"]):
        rc, stdout, err = run(argv + ["--out", out], capsys)
        assert rc == 2 and stdout == "" and f"cannot write --out {out!r}" in err, argv


def test_verify_injected_failing_tolerance_exits_1(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc, _, _ = run(["verify", "--suites", "omega.moments",
                    "--tol", "omega.moments=1e-30", "--out", str(out)], capsys)
    assert rc == 1
    suites = json.loads(out.read_text())
    assert suites[0]["fail_count"] > 0


def test_report_only_suites_never_affect_exit(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc, _, _ = run(["verify", "--suites", "conjecture.double_sum",
                    "--tol", "conjecture.double_sum=1e-30", "--out", str(out)], capsys)
    assert rc == 0
    suites = json.loads(out.read_text())
    assert suites[0]["report_only"] is True


def test_verify_determinism_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suites", FAST_SUITES, "--seed", "42"]
    assert run(args + ["--out", str(a)], capsys)[0] == 0
    assert run(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_seed_changes_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "--suites", "eisenstein.product", "--seed", "1", "--out", str(a)], capsys)
    run(["verify", "--suites", "eisenstein.product", "--seed", "2", "--out", str(b)], capsys)
    assert a.read_bytes() != b.read_bytes()


def test_verify_grid_flag(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc, _, _ = run(["verify", "--suites", "eisenstein.product",
                    "--grid", "0.2,0.8,-1,1,0.3", "--out", str(out)], capsys)
    assert rc == 0
    rc, _, err = run(["verify", "--suites", "eisenstein.product", "--grid", "1,2,3"], capsys)
    assert rc == 2


def test_verify_grid_left_of_the_axis_takes_the_equals_form(tmp_path, capsys):
    # argparse reads a value that starts with "-" as an option, so a negative re_min needs "="
    out = tmp_path / "rep.json"
    rc, _, _ = run(["verify", "--suites", "eisenstein.product,he.closed",
                    "--grid=-3.9,-3.1,-1,1,0.4", "--out", str(out)], capsys)
    assert rc == 0
    for suite in json.loads(out.read_text()):  # each suite reads the grid at Re z < -3
        assert any("z=-3." in r["inputs"] for r in suite["records"]), suite["suite"]


def test_verify_grid_with_a_bound_that_is_no_finite_double_exits_2(capsys):
    # an inf bound made the grid axis append nodes until memory ran out
    for grid in ("0,inf,0,1,0.4", "0.1,0.9,nan,1.5,0.4", "0.1,0.9,-1.5,1.5,inf"):
        rc, out, err = run(["verify", "--suites", "eisenstein.routes", "--grid", grid], capsys)
        assert rc == 2 and out == "" and "needs finite values, a positive step" in err, grid


def test_verify_grid_node_count_is_bounded(capsys):
    # a step of 1e-7 asks for 2.4e14 nodes, and a step below the rounding of a bound never
    # moves off it; suites.GRID_NODES = 1024 (32 x 32) is the most
    for grid in ("0.1,0.9,-1.5,1.5,1e-7", "0.1,0.9,-1.5,1.5,0.05", "0,1e308,-1e308,1e308,1e-300",
                 "0,31,0,32,1", "1e20,1e20,0,1,1"):
        rc, out, err = run(["verify", "--suites", "eisenstein.routes", "--grid", grid], capsys)
        assert rc == 2 and out == "" and "1 to 1024 nodes" in err, grid
    rc, _, _ = run(["verify", "--suites", "bstar.values", "--grid", "0,31,0,31,1"], capsys)
    assert rc == 0


def test_verify_empty_grid_exits_2(capsys):
    # re_min > re_max built no node: eisenstein.routes passed 0 of 0 records and exited 0
    for grid in ("0.9,0.1,-1.5,1.5,0.4", "0.1,0.9,1.5,-1.5,0.4"):
        rc, out, err = run(["verify", "--suites", "eisenstein.routes", "--grid", grid], capsys)
        assert rc == 2 and out == "" and "1 to 1024 nodes" in err, grid


def test_verify_tolerance_that_is_no_finite_nonnegative_number_exits_2(capsys):
    # a nan tolerance failed all 576 records of eisenstein.routes with exit 1
    for tol in ("nan", "inf", "-1e-9"):
        rc, out, err = run(["verify", "--suites", "eisenstein.routes",
                            "--tol", f"eisenstein.routes={tol}"], capsys)
        assert rc == 2 and out == "" and "finite number >= 0" in err, tol


def test_verify_error_names_the_suite_route_and_arguments(capsys):
    # the direct route cannot stop at |Im z| >= 310 (r = 2): verify exits 2 with a message
    # naming the suite, the object, the route and its arguments before the engine's words
    argv = ["verify", "--suites", "eisenstein.routes", "--grid", "0.1,0.9,300,400,25"]
    rc, out, err = run(argv, capsys)
    assert rc == 2 and out == ""
    assert re.fullmatch(r"error: suite eisenstein\.routes: epsilon route direct at "
                        r"\(2, \(\S+j\)\): richardson: no stop at N >= \S+ in 11823 terms, "
                        r"last correction \S+\n", err), err
    # the error keeps its class and its last estimate
    from eiskern.suites import GridSpec, SuiteConfig, run_suites
    with pytest.raises(eiskern.NonConvergence, match="^suite eisenstein.routes: epsilon") as info:
        run_suites(SuiteConfig(grid=GridSpec(0.1, 0.9, 300, 400, 25)), ["eisenstein.routes"])
    assert info.value.partial.route == "richardson"


def test_verify_stdout_json(capsys):
    rc, out, _ = run(["verify", "--suites", "bstar.values"], capsys)
    assert rc == 0
    assert out.endswith("\n")
    suites = json.loads(out)
    assert suites[0]["suite"] == "bstar.values"


# ---------------------------------------------------------------------------
# table / plotdata

def test_table_moments(capsys):
    rc, out, _ = run(["table", "moments"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,closed,quadrature,series,max_disc"
    assert len(lines) == 7
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(math.log(2) / math.pi, rel=1e-15)
    assert float(row[4]) < 1e-10


def test_table_bstar(capsys):
    rc, out, _ = run(["table", "bstar"], capsys)
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert float(lines[2].split(",")[1]) == pytest.approx(0.05815227, abs=1e-7)


def test_table_zeta_roundtrip(capsys):
    rc, out, _ = run(["table", "zeta_roundtrip"], capsys)
    lines = out.strip().split("\n")
    assert len(lines) == 4
    discs = [float(line.split(",")[3]) for line in lines[1:]]
    # the oracle is the Euler-Maclaurin sum, no eta value: three exact zeros would say
    # that both columns read one kernel
    assert max(discs) < 1e-12 and max(discs) > 0


def test_table_conj_bernoulli(capsys):
    rc, out, _ = run(["table", "conj_bernoulli"], capsys)
    lines = out.strip().split("\n")
    assert len(lines) == 8
    for line in lines[1:]:
        assert float(line.split(",")[4]) < 1e-12


def test_plotdata_fig1(capsys):
    rc, out, _ = run(["plotdata", "fig1"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,omega,lower,upper"
    assert len(lines) == 322
    mid = lines[161].split(",")
    assert [float(v) for v in mid] == [0.0, 0.0, 0.0, 0.0]
    for line in lines[1:]:
        x, om, lo, hi = (float(v) for v in line.split(","))
        if x != 0.0:
            assert lo <= om <= hi


def test_plotdata_fig2(capsys):
    rc, out, _ = run(["plotdata", "fig2"], capsys)
    lines = out.strip().split("\n")
    assert len(lines) == 402
    header = lines[0].split(",")
    assert header[0] == "x" and "log_abs_approx" in header
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        # lower bound negative, approximant between it and the upper bound
        assert vals[1] == -1.0
        assert vals[6] <= vals[4]


def test_plotdata_deterministic(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    _, out1, _ = run(["plotdata", "fig1"], capsys)
    _, out2, _ = run(["plotdata", "fig1"], capsys)
    assert out1 == out2
