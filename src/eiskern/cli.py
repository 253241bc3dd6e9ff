"""Command-line front end: verify | eval | table | plotdata.

verify runs named check suites over a configurable grid and emits a JSON
report (one object per suite) to stdout or --out; any failing record in a
non-report-only suite forces exit code 1 and configuration problems exit 2.
eval computes a named function at given points by the route --route names, read
from the table in eiskern.routes (by default its first route; an unknown route exits
2), and prints the value with the route's label, its table key; `--` may stand anywhere
before arguments that start with `-`.
table and plotdata emit CSV with 17 significant digits.  Suites run one after another
in the given order; setting SOURCE_DATE_EPOCH zeroes wall_time_ms so identical
configurations produce byte-identical reports.
"""
from __future__ import annotations

import argparse
import sys

from . import conj_bernoulli as cb
from . import omega as om
from .errors import ConfigError, EiskernError, Evaluation
from .routes import ROUTES, _wrap


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
    e.add_argument("fn", help=f"function name: {', '.join(ROUTES)}")
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
    cleaned = txt.strip()
    if cleaned.endswith("i"):  # the imaginary unit; "inf" and "nan" keep their letters
        cleaned = cleaned[:-1] + "j"
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
# eval: one route of the table in eiskern.routes

_PARSERS = {"int": _parse_int, "real": _parse_real, "complex": _parse_complex}


def _print_json(obj) -> None:
    import json  # only --json output loads it
    print(json.dumps(obj))


def cmd_eval(ns) -> int:
    if ns.fn not in ROUTES:
        print(f"unknown function {ns.fn!r}; known: {', '.join(ROUTES)}", file=sys.stderr)
        return 2
    params, routes = ROUTES[ns.fn]
    if len(ns.args) != len(params.split()):
        names = " ".join(p.split(":")[0] for p in params.split())
        choice = f" [--route {'|'.join(filter(None, routes))}]" if len(routes) > 1 else ""
        print(f"usage: eiskern eval {ns.fn} {names}{choice}", file=sys.stderr)
        return 2
    route = next(iter(routes)) if ns.route is None else ns.route
    if route not in routes:
        raise ConfigError(f"unknown {ns.fn} route {route!r}")
    kinds = (p.split(":")[1] for p in params.split())
    ev = routes[route].run(*(_PARSERS[kind](a) for kind, a in zip(kinds, ns.args)))
    if isinstance(ev, cb.ConjectureCheck):
        if ns.json:
            _print_json({"fn": ns.fn, **ev._asdict()})
        else:
            print(f"double_sum={_fmt17(ev.double_sum)} fourier={_fmt17(ev.fourier)} "
                  f"discrepancy={ev.discrepancy:.3e}")
        return 0
    if not isinstance(ev, Evaluation):
        ev = _wrap(ev, route or "default")
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
    for s in results:
        marker = " (report-only)" if s.report_only else ""
        print(f"{s.name}: pass={s.pass_count} fail={s.fail_count}{marker}", file=sys.stderr)
    return 1 if any(s.fail_count for s in results) else 0


# ---------------------------------------------------------------------------
# tables and figure data

def _write_out(text: str, ns) -> None:
    if getattr(ns, "out", None):
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # exit 2 with the path, not 1, which means a failed record
            raise ConfigError(f"cannot write --out {ns.out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _csv_out(rows: list[list], ns) -> int:
    _write_out("\n".join(",".join(_cell(c) for c in row) for row in rows) + "\n", ns)
    return 0


def cmd_table(ns) -> int:
    if ns.name == "moments":
        rows = [["k", "closed", "quadrature", "series", "max_disc"]]
        for k in range(6):
            c, q, s = (om.omega_moment(k, route) for route in ("closed", "quadrature", "series"))
            rows.append([k, c, q, s, max(abs(c - q), abs(c - s), abs(q - s))])
    elif ns.name == "conj_bernoulli":
        rows = [["m", "eta_form", "zeta_form", "fourier_half", "max_disc"]]
        for m in range(7):
            a, b = cb.conj_bernoulli_half(m, "eta"), cb.conj_bernoulli_half(m, "zeta")
            f = cb.conj_bernoulli_periodic(m, 0.5)
            rows.append([m, a, b, f, max(abs(a - b), abs(a - f))])
    elif ns.name == "zeta_roundtrip":
        rows = [["argument", "via_conjugate", "series_oracle", "abs_disc"]]
        for m in (1, 2, 3):
            a, b = cb.zeta_odd_via_conj(m), cb.periodic_polylog(2 * m + 1, 0.0).real
            rows.append([2 * m + 1, a, b, abs(a - b)])
    else:  # bstar
        rows = [["alpha", "bstar"]] + [[a, cb.ramanujan_bstar(a)] for a in (2.0, 3.0, 4.0, 5.0)]
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
    ns, extra = parser.parse_known_args(argv)
    # eval arguments after a `--` that follows an option are left over
    if ns.command == "eval" and extra[:1] == ["--"]:
        ns.args += extra[1:]
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    commands = {"verify": cmd_verify, "eval": cmd_eval, "table": cmd_table, "plotdata": cmd_plotdata}
    try:
        return commands[ns.command](ns)
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
