"""CLI surface: subcommands, JSON report schema, CSV shapes, determinism,
exit-code contract."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

import eiskern
from eiskern.cli import main

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
    rc, out, _ = run(["eval", "omega", "1"], capsys)
    assert rc == 0
    assert "0.2225703312187" in out
    assert "route=digamma" in out


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
    rc2, out2, _ = run(["eval", "omega", "2", "--route", "partial_fraction", "--json"], capsys)
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
    from eiskern.cli import REGISTRY
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--list" not in help_text
    assert all(name in help_text for name in [*REGISTRY, "conjecture"])
    rc, _, err = run(["eval", "epsilon", "2"], capsys)
    assert rc == 2
    for route in ("direct", "closed", "polygamma", "integral", "integral-exponential",
                  "integral-hyperbolic"):
        assert route in err.split("--route ")[1].rstrip("]\n").split("|")
        assert run(["eval", "epsilon", "2", "0.3+0.4i", "--route", route], capsys)[0] == 0


def test_eval_domain_violation_exits_2_with_precondition(capsys):
    rc, _, err = run(["eval", "zeta", "0.5"], capsys)
    assert rc == 2
    assert "requires s > 1" in err


def test_eval_omega_not_a_double_exits_2(capsys):
    rc, _, err = run(["eval", "omega", "1e4"], capsys)
    assert rc == 2
    assert "not representable" in err


def test_eval_omega_complex_past_re_1400_exits_2(capsys):
    rc, _, err = run(["eval", "omega", "1500+1i"], capsys)
    assert rc == 2
    assert "|Re z| <= 1400" in err


def test_eval_epsilon_at_large_order(capsys):
    rc, out, _ = run(["eval", "epsilon", "103", "0.3+0.4i", "--route", "integral"], capsys)
    assert rc == 0 and "route=integral-exponential" in out
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
    for extra, route in (([], "series-richardson"), (["--route", "alternating"], "series-alternating")):
        rc, out, _ = run(["eval", "mathieu", "2", "1", *extra, "--json"], capsys)
        assert rc == 0 and json.loads(out)["route"] == route


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


def test_verify_bad_tol_exits_2(capsys):
    rc, _, err = run(["verify", "--suites", "bstar.values", "--tol", "bstar.values=abc"], capsys)
    assert rc == 2
    rc, _, err = run(["verify", "--suites", "bstar.values", "--tol", "zzz=1e-3"], capsys)
    assert rc == 2


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
    for line in lines[1:]:
        assert float(line.split(",")[3]) < 1e-12


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
