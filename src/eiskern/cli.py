"""Command-line front end: verify | eval | table | plotdata.

verify runs named check suites over a configurable grid and emits a JSON
report (one object per suite) to stdout or --out; any failing record in a
non-report-only suite forces exit code 1 and configuration problems exit 2.
eval computes a named function at given points, table and plotdata emit CSV
with 17 significant digits.  Suites run one after another in the given
order; setting SOURCE_DATE_EPOCH zeroes wall_time_ms so identical
configurations produce byte-identical reports.
"""
from __future__ import annotations

import argparse
import sys

from . import conj_bernoulli as cb
from . import eisenstein as eis
from . import hilbert_eisenstein as he
from . import numkern as nk
from . import omega as om
from .controls import Evaluation
from .errors import ConfigError, EiskernError


def _fmt17(v: float) -> str:
    return f"{v:.17g}"


def _cell(c) -> str:
    return _fmt17(c) if isinstance(c, float) else str(c)


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eiskern",
        description="verify and evaluate the special-function identities in this package")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity/bound/conjecture suites")
    v.add_argument("--suites", default="all",
                   help="comma-separated suite names (default: all)")
    v.add_argument("--out", help="write the JSON report here instead of stdout")
    v.add_argument("--tol", action="append", default=[], metavar="NAME=VAL",
                   help="override every tolerance in suite NAME (repeatable)")
    v.add_argument("--grid", metavar="re_min,re_max,im_min,im_max,step",
                   help="complex grid specification")
    v.add_argument("--seed", type=int, default=20260808, help="grid jitter seed")

    e = sub.add_parser("eval", help="evaluate a named function")
    e.add_argument("fn", help=f"function name: conjecture, {', '.join(sorted(REGISTRY))}")
    e.add_argument("args", nargs="*", help="numeric arguments (complex as a+bi)")
    e.add_argument("--route", help="representation to use where several exist")
    e.add_argument("--json", action="store_true", help="machine-readable output")

    t = sub.add_parser("table", help="emit a CSV table")
    t.add_argument("name", choices=["moments", "conj_bernoulli", "zeta_roundtrip", "bstar"])
    t.add_argument("--out")

    pd = sub.add_parser("plotdata", help="emit CSV data behind the figures")
    pd.add_argument("figure", choices=["fig1", "fig2"])
    pd.add_argument("--out")
    return p


def _parse_complex(txt: str) -> complex:
    cleaned = txt.strip().replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise ConfigError(f"cannot parse {txt!r} as a real or complex number")


def _parse_int(txt: str) -> int:
    try:
        return int(txt)
    except ValueError:
        raise ConfigError(f"cannot parse {txt!r} as an integer")


def _parse_real(txt: str) -> float:
    z = _parse_complex(txt)
    if z.imag != 0:
        raise ConfigError(f"{txt!r}: a real argument is required here")
    return z.real


# ---------------------------------------------------------------------------
# eval registry

def _wrap(value, route: str) -> Evaluation:
    v = complex(value)
    return Evaluation(v, 8e-16 * max(1.0, abs(v)), 0, route)


def _eval_epsilon(args, route):
    r, z = _parse_int(args[0]), _parse_complex(args[1])
    route = route or ("closed" if r <= 3 else "polygamma")
    if route == "direct":
        return eis.eisenstein_direct(r, z)
    if route == "closed":
        return _wrap(eis.eisenstein_closed(r, z), "closed")
    if route == "polygamma":
        return _wrap(eis.eisenstein_polygamma(r, z), "polygamma")
    if route in ("integral", "integral-exponential"):
        return eis.eisenstein_integral(r, z)
    if route == "integral-hyperbolic":
        return eis.eisenstein_integral(r, z, form="hyperbolic")
    raise ConfigError(f"unknown epsilon route {route!r}")


def _eval_he(args, route):
    route = route or "closed"
    real_axis = route in ("real", "eisenstein")
    r, z = _parse_int(args[0]), (_parse_real if real_axis else _parse_complex)(args[1])
    if route == "closed":
        return _wrap(he.he_closed(r, z), "closed")
    if route == "direct":
        return he.he_direct(r, z)
    if route == "taylor":
        if r != 1:
            raise ConfigError("the taylor route computes h_1 only; use r = 1")
        return he.he_taylor(z)
    if route == "real":
        return _wrap(he.he_real(r, z), "real-axis")
    if route == "eisenstein":
        return _wrap(he.he_via_eisenstein(r, z), "via-eisenstein")
    raise ConfigError(f"unknown he route {route!r}")


def _eval_omega(args, route):
    z = _parse_complex(args[0])
    if route is None:
        return om.omega_eval(z)
    if route == "quadrature":
        return om.omega_quadrature(z)
    if route == "digamma":
        return _wrap(om.omega_digamma(z), "digamma")
    if route == "partial_fraction":
        return om.omega_partial_fraction(z)
    if route in ("taylor_moments", "taylor_eta"):
        return om.omega_taylor(z, route.split("_", 1)[1])
    raise ConfigError(f"unknown omega route {route!r}")


def _eval_moment(args, route):
    k = _parse_int(args[0])
    return _wrap(om.omega_moment(k, route or "closed"), route or "closed")


def _eval_mathieu(args, route):
    if route not in (None, "alternating"):
        raise ConfigError(f"unknown mathieu route {route!r}")
    return he.mathieu(_parse_real(args[0]), _parse_real(args[1]), route == "alternating")


REGISTRY = {
    "epsilon": (2, _eval_epsilon, "epsilon r z [--route direct|closed|polygamma|integral"
                                  "|integral-exponential|integral-hyperbolic]"),
    "he": (2, _eval_he, "he r z [--route closed|direct|taylor|real|eisenstein]"),
    "omega": (1, _eval_omega,
              "omega z [--route quadrature|digamma|partial_fraction|taylor_moments|taylor_eta]"),
    "psi": (1, lambda a, _r: _wrap(nk.digamma(_parse_complex(a[0])), "digamma"), "psi z"),
    "polygamma": (2, lambda a, _r: _wrap(nk.polygamma(_parse_int(a[0]), _parse_complex(a[1])),
                                         "polygamma"), "polygamma r z"),
    "gamma": (1, lambda a, _r: _wrap(nk.gamma(_parse_complex(a[0])), "lanczos"), "gamma z"),
    "zeta": (1, lambda a, _r: _wrap(nk.riemann_zeta(_parse_real(a[0])), "via-eta"),
             "zeta s"),
    "eta": (1, lambda a, _r: _wrap(nk.dirichlet_eta(_parse_real(a[0])), "alternating"), "eta s"),
    "lambda": (1, lambda a, _r: _wrap(nk.dirichlet_lambda(_parse_real(a[0])), "via-zeta"),
               "lambda r"),
    "bstar": (1, lambda a, _r: _wrap(cb.ramanujan_bstar(_parse_real(a[0])), "zeta"), "bstar alpha"),
    "moment": (1, _eval_moment, "moment k [--route closed|quadrature|series]"),
    "bernoulli": (1, lambda a, _r: _wrap(float(nk.bernoulli_number(_parse_int(a[0]))),
                                         "recurrence"), "bernoulli n"),
    "bpoly": (2, lambda a, _r: _wrap(nk.bernoulli_poly(_parse_int(a[0]), _parse_real(a[1])),
                                     "recurrence"), "bpoly n x"),
    "pochhammer": (2, lambda a, _r: _wrap(nk.pochhammer(_parse_complex(a[0]), _parse_int(a[1])),
                                          "product"), "pochhammer rho sigma"),
    "mathieu": (2, _eval_mathieu, "mathieu r x [--route alternating]"),
    "mathieu_e": (1, lambda a, _r: he.mathieu_E(_parse_real(a[0])), "mathieu_e x"),
    "conj_half": (1, lambda a, _r: _wrap(cb.conj_bernoulli_half(_parse_int(a[0]), _r or "eta"),
                                         _r or "eta"), "conj_half m [--route eta|zeta]"),
    "conj_periodic": (2, lambda a, _r: _wrap(cb.conj_bernoulli_periodic(
        _parse_int(a[0]), _parse_real(a[1])), "fourier"), "conj_periodic n x"),
    "genfun": (1, lambda a, _r: _wrap(cb.conj_bernoulli_genfun(_parse_complex(a[0])), "closed"),
               "genfun z"),
    "zeta_odd_conj": (1, lambda a, _r: _wrap(cb.zeta_odd_via_conj(_parse_int(a[0])),
                                             "conjugate"), "zeta_odd_conj m"),
    "fractional": (2, lambda a, _r: _wrap(cb.fractional_bernoulli(
        _parse_real(a[0]), _parse_real(a[1])), "fourier"), "fractional alpha x"),
}


def _print_json(obj) -> None:
    import json  # only --json output loads it
    print(json.dumps(obj))


def cmd_eval(ns) -> int:
    if ns.fn == "conjecture":
        if len(ns.args) != 2:
            print("usage: eiskern eval conjecture j z", file=sys.stderr)
            return 2
        c = cb.conjecture_double_sum(_parse_int(ns.args[0]), _parse_real(ns.args[1]))
        if ns.json:
            _print_json({"fn": "conjecture", "double_sum": c.double_sum,
                         "fourier": c.fourier, "discrepancy": c.discrepancy})
        else:
            print(f"double_sum={_fmt17(c.double_sum)} fourier={_fmt17(c.fourier)} "
                  f"discrepancy={c.discrepancy:.3e}")
        return 0
    if ns.fn not in REGISTRY:
        print(f"unknown function {ns.fn!r}; known: conjecture, {', '.join(sorted(REGISTRY))}",
              file=sys.stderr)
        return 2
    arity, fn, usage = REGISTRY[ns.fn]
    if len(ns.args) != arity:
        print(f"usage: eiskern eval {usage}", file=sys.stderr)
        return 2
    ev = fn(ns.args, ns.route)
    v = ev.value
    if ns.json:
        _print_json({"fn": ns.fn, "args": ns.args, "value": {"re": v.real, "im": v.imag},
                     "err_estimate": ev.err_estimate, "route": ev.route,
                     "terms_used": ev.terms_used})
    else:
        re = v.real + 0.0  # normalize negative zero for display
        shown = _fmt17(re) if v.imag == 0 else f"{_fmt17(re)}{v.imag:+.17g}i"
        print(f"{ns.fn}({', '.join(ns.args)}) = {shown}  "
              f"(route={ev.route}, err<={ev.err_estimate:.2e}, terms={ev.terms_used})")
    return 0


# ---------------------------------------------------------------------------
# verify: the suites are imported here, so other commands never load them

def _parse_verify_config(ns):
    from .suites import SUITES, GridSpec, SuiteConfig
    overrides = {}
    for item in ns.tol:
        if "=" not in item:
            raise ConfigError(f"--tol expects NAME=VAL, got {item!r}")
        name, val = item.split("=", 1)
        if name not in SUITES:
            raise ConfigError(f"--tol names unknown suite {name!r}")
        try:
            overrides[name] = float(val)
        except ValueError:
            raise ConfigError(f"--tol value {val!r} is not a number")
    grid = GridSpec()
    if ns.grid:
        parts = ns.grid.split(",")
        if len(parts) != 5:
            raise ConfigError("--grid expects re_min,re_max,im_min,im_max,step")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"--grid could not parse {ns.grid!r}")
        if vals[4] <= 0:
            raise ConfigError("--grid step must be positive")
        grid = GridSpec(*vals)
    names = list(SUITES) if ns.suites == "all" else [s for s in ns.suites.split(",") if s]
    if not names:
        raise ConfigError("--suites selected nothing")
    cfg = SuiteConfig(tolerance_overrides=overrides, grid=grid, seed=ns.seed)
    return cfg, names


def cmd_verify(ns) -> int:
    from .suites import report_text, run_suites
    cfg, names = _parse_verify_config(ns)
    results = run_suites(cfg, names)
    _write_out(report_text(results), ns)
    failed = False
    for s in results:
        marker = " (report-only)" if s.report_only else ""
        print(f"{s.name}: pass={s.pass_count} fail={s.fail_count}{marker}", file=sys.stderr)
        if not s.report_only and s.fail_count > 0:
            failed = True
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# tables and figure data

def _write_out(text: str, ns) -> None:
    if getattr(ns, "out", None):
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_out(rows: list[list], ns) -> int:
    _write_out("\n".join(",".join(_cell(c) for c in row) for row in rows) + "\n", ns)
    return 0


def cmd_table(ns) -> int:
    if ns.name == "moments":
        rows = [["k", "closed", "quadrature", "series", "max_disc"]]
        for k in range(6):
            c = om.omega_moment(k, "closed")
            q = om.omega_moment(k, "quadrature")
            s = om.omega_moment(k, "series")
            rows.append([k, c, q, s, max(abs(c - q), abs(c - s), abs(q - s))])
    elif ns.name == "conj_bernoulli":
        rows = [["m", "eta_form", "zeta_form", "fourier_half", "max_disc"]]
        for m in range(7):
            a = cb.conj_bernoulli_half(m, "eta")
            b = cb.conj_bernoulli_half(m, "zeta")
            f = cb.conj_bernoulli_periodic(m, 0.5)
            rows.append([m, a, b, f, max(abs(a - b), abs(a - f))])
    elif ns.name == "zeta_roundtrip":
        rows = [["argument", "via_conjugate", "series_oracle", "abs_disc"]]
        for m in (1, 2, 3):
            a = cb.zeta_odd_via_conj(m)
            b = nk.riemann_zeta(float(2 * m + 1))
            rows.append([2 * m + 1, a, b, abs(a - b)])
    else:  # bstar
        rows = [["alpha", "bstar"]]
        for a in (2.0, 3.0, 4.0, 5.0):
            rows.append([a, cb.ramanujan_bstar(a)])
    return _csv_out(rows, ns)


def cmd_plotdata(ns) -> int:
    if ns.figure == "fig1":
        rows = [["x", "omega", "lower", "upper"]]
        for i in range(321):
            x = (i - 160) * 0.05
            lo, hi = om.omega_bounds(x)
            rows.append([x, om.omega_digamma(x).real, lo, hi])
        return _csv_out(rows, ns)
    rows = [["x", "sign_lower", "log_abs_lower", "sign_upper", "log_abs_upper",
             "sign_approx", "log_abs_approx"]]
    for i in range(401):
        x = (50000 + i) / 100.0
        log_lower, log_upper, log_approx = om.omega_log_envelope(x)
        rows.append([x, -1.0, log_lower, 1.0, log_upper, 1.0, log_approx])
    return _csv_out(rows, ns)


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "verify":
            return cmd_verify(ns)
        if ns.command == "eval":
            return cmd_eval(ns)
        if ns.command == "table":
            return cmd_table(ns)
        return cmd_plotdata(ns)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EiskernError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
