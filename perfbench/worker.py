"""The benchmark's eiskern process: set-up probes, eval-mix passes, traced runs.

Run by run.py with PYTHONPATH pointing at the checkout's src/.  It imports
eiskern and never mpmath; the tracer is imported only by the ``trace`` mode.

  worker.py ready WORKLOAD            import, warm every function, print "ready"
  worker.py passes eval-mix SEED SECONDS
  worker.py trace WORKLOAD SEED SECONDS SPANS_PATH
  worker.py grid SEED                 exact verify grid points by report label

Each mode except ``ready`` prints one JSON object on its last stdout line.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time

import workloads as wl

import eiskern
from eiskern.errors import EiskernError


def _c(x) -> list[float]:
    z = complex(x)
    return [z.real, z.imag]


def encode(result) -> dict:
    """JSON form of one call's outcome: value(s), err_estimate, or the error."""
    if isinstance(result, BaseException):
        return {"error": type(result).__name__, "typed": isinstance(result, EiskernError),
                "message": str(result)[:200]}
    if hasattr(result, "err_estimate"):
        return {"v": [_c(result.value)], "err": float(result.err_estimate)}
    if isinstance(result, tuple):
        return {"v": [_c(x) for x in result]}
    return {"v": [_c(result)]}


def resolve(ops):
    calls = []
    for fn, args, kwargs in ops:
        module, name = fn.split(".")
        calls.append((getattr(importlib.import_module(f"eiskern.{module}"), name), args, kwargs))
    return calls


def run_ops(calls, out: list) -> None:
    for i, (f, args, kwargs) in enumerate(calls):
        try:
            out[i] = f(*args, **kwargs)
        except Exception as exc:  # a failed call is an outcome the parent checks
            out[i] = exc


def _fingerprint(out: list) -> str:
    return json.dumps([encode(r) for r in out])


# ---------------------------------------------------------------------------
# set-up

def warm(workload: str) -> None:
    """One call of each function the workload uses, so lazy caches fill."""
    if workload == "eval-mix":
        seen = {}
        for op in wl.eval_mix_ops(0):
            seen.setdefault(op[0], op)
        run_ops(resolve(seen.values()), [None] * len(seen))
        return
    import eiskern.cli
    ek = eiskern
    ek.omega_eval(1.0)
    ek.omega_digamma(0.5)
    ek.omega_bounds(1.0)
    ek.he_closed(1, 0.0)
    ek.eisenstein_polygamma(4, 0.37 + 0.6j)
    ek.conj_bernoulli_half(1, "eta")
    ek.conj_bernoulli_half(1, "zeta")
    ek.conj_bernoulli_periodic(1, 0.5)
    eiskern.cli.build_parser()
    if workload == "cli-cold":
        return
    z = 0.3 + 0.4j
    for f in (ek.digamma, ek.gamma, ek.he_taylor, ek.omega_quadrature,
              ek.omega_partial_fraction, ek.omega_pv_hilbert, ek.conj_bernoulli_genfun,
              ek.conj_genfun_series):
        f(z)
    ek.polygamma(2, z)
    ek.riemann_zeta(3.0)
    ek.dirichlet_eta(3.0)
    ek.dirichlet_lambda(3.0)
    ek.zeta_odd_series(0.5)
    ek.digamma_realpart_integral(1.0)
    ek.eisenstein_direct(2, z)
    ek.eisenstein_integral(2, z)
    ek.eisenstein_closed(2, z)
    ek.product_identity_residual(1, z)
    ek.he_direct(2, z)
    ek.he_real(2, 0.5)
    ek.he_via_eisenstein(2, 0.5)
    ek.mathieu_E(0.5)
    ek.omega_taylor(z, "moments")
    ek.omega_taylor(z, "eta")
    for route in ("closed", "quadrature", "series"):
        ek.omega_moment(2, route)
    ek.omega_asymptotic_envelope(20.0)
    ek.omega_ode_residual(1.0, 1e-5)
    ek.zeta_odd_via_conj(1)
    ek.zeta_even_euler(1)
    ek.fractional_bernoulli(2.5, 0.25)
    ek.ramanujan_bstar(3.0)
    ek.conjecture_double_sum(1, 0.5)


# ---------------------------------------------------------------------------
# eval-mix passes (untraced)

def eval_mix_passes(seed: int, seconds: float) -> dict:
    ops = wl.eval_mix_ops(seed)
    calls = resolve(ops)
    out = [None] * len(calls)
    run_ops(calls, out)  # warm pass: fills lazy caches, outputs are checked
    first = [encode(r) for r in out]
    reference = json.dumps(first)
    pass_s, ref_s = [], []
    deterministic = True
    perf = time.perf_counter
    deadline = perf() + seconds
    while perf() < deadline or len(pass_s) < 5:
        t0 = perf()
        run_ops(calls, out)
        pass_s.append(perf() - t0)
        ref_s.append(wl.reference_loop_seconds())
        if len(pass_s) % 16 == 1 and _fingerprint(out) != reference:
            deterministic = False
    deterministic = deterministic and _fingerprint(out) == reference
    return {"ops": len(ops), "pass_s": pass_s, "reference_s": ref_s, "outputs": first,
            "deterministic": deterministic, **_process_facts()}


def _process_facts() -> dict:
    return {"tracer_loaded": "tracer" in sys.modules,
            "mpmath_loaded": "mpmath" in sys.modules}


# ---------------------------------------------------------------------------
# verify grid points, for matching report labels to exact inputs

def grid(seed: int) -> dict:
    from eiskern import suites
    cfg = suites.SuiteConfig(seed=seed)
    points = suites.strip_grid(cfg) + suites.axis_grid(cfg) + suites.disc_sample(cfg, 20, 5.0)
    return {"points": {suites._fmt(z): _c(z) for z in points}}


# ---------------------------------------------------------------------------
# traced runs

def _verify_pass(seed: int) -> dict:
    from eiskern import suites
    cfg = suites.SuiteConfig(seed=seed)
    perf = time.perf_counter
    suite_ms, results = {}, []
    for name in wl.SUITES:
        t0 = perf()
        results.extend(suites.run_suites(cfg, [name]))
        suite_ms[name] = (perf() - t0) * 1e3
    t0 = perf()
    payload = json.dumps([s.to_json() for s in results], indent=1) + "\n"
    report_ms = (perf() - t0) * 1e3
    return {"suite_ms": suite_ms, "report_ms": report_ms,
            "report_kb": len(payload.encode()) / 1024.0,
            "records": sum(len(s.records) for s in results),
            "gating_failures": sum(s.fail_count for s in results if not s.report_only)}


def _cli_pass(seed: int) -> dict:
    """The CLI list in-process; a call that raises counts as exit code 1,
    as the real CLI's traceback does."""
    import eiskern.cli
    codes = []
    for argv, _code in wl.cli_commands(seed):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                codes.append(eiskern.cli.main(list(argv)))
            except Exception:
                codes.append(1)
    return {"codes": codes}


def trace_run(workload: str, seed: int, seconds: float, spans_path: str) -> dict:
    import tracer as tr
    warm(workload)
    tracer = tr.Tracer()
    ops = wl.eval_mix_ops(seed)
    out = [None] * len(ops)

    def one_pass() -> tuple[float, dict]:
        if workload == "eval-mix":
            calls = resolve(ops)  # resolved per pass: the bindings change
            t0 = time.perf_counter()
            run_ops(calls, out)
            return time.perf_counter() - t0, {}
        t0 = time.perf_counter()
        facts = _verify_pass(seed) if workload == "verify-all" else _cli_pass(seed)
        return time.perf_counter() - t0, facts

    plain_s, traced_s, plain_facts, traced_facts = [], [], [], []
    totals: dict[str, dict] = {}
    spans: list = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced_s) < 2:
        elapsed, fact = one_pass()
        plain_s.append(elapsed)
        plain_facts.append(fact)
        tracer.install()
        try:
            elapsed, fact = one_pass()
        finally:
            tracer.uninstall()
        traced_s.append(elapsed)
        traced_facts.append(fact)
        pass_totals, spans = tracer.drain()
        for name, t in pass_totals.items():
            acc = totals.setdefault(name, dict.fromkeys(t, 0))
            for k, v in t.items():
                acc[k] += v
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "parent", "start", "end", "self"], "spans": spans}, fh)

    # the accuracy metrics use the eval-mix inputs of this seed on every workload
    run_ops(resolve(ops), out)
    return {"plain_s": plain_s, "traced_s": traced_s, "passes": len(traced_s),
            "totals": totals, "plain_facts": plain_facts, "traced_facts": traced_facts,
            "outputs": [encode(r) for r in out],
            **_process_facts()}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "ready":
        warm(argv[1])
        print("ready", flush=True)
        return 0
    if mode == "passes":
        result = eval_mix_passes(int(argv[2]), float(argv[3]))
    elif mode == "grid":
        result = grid(int(argv[1]))
    elif mode == "trace":
        result = trace_run(argv[1], int(argv[2]), float(argv[3]), argv[4])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
