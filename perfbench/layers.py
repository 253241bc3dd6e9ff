"""Per-layer metrics of the traced run: names, units and how each is derived.

The layers are the modules of src/eiskern.  Counts and self times are per
traced pass; ``.us`` is the mean inclusive time of one call under tracing.
A metric of a layer the workload never enters reads 0.
"""
from __future__ import annotations

import statistics

import workloads as wl

KERNELS = ("digamma", "polygamma", "gamma", "riemann_zeta", "dirichlet_eta")
KERNEL_DIGITS = ("digamma", "polygamma", "gamma")
# The other public numkern functions: traced so that numkern.self_ms holds
# the whole layer, with no metric of their own.
NUMKERN_OTHERS = ("bernoulli_number", "bernoulli_poly", "dirichlet_lambda", "pochhammer",
                  "zeta_odd_series", "digamma_realpart_integral")

OBJECT_FUNCTIONS = {
    "eisenstein": ("eisenstein_direct", "eisenstein_closed", "eisenstein_polygamma",
                   "eisenstein_integral", "product_identity_residual"),
    "hilbert_eisenstein": ("he_direct", "he_closed", "he_taylor", "he_real",
                           "he_via_eisenstein", "mathieu", "mathieu_E"),
    "omega": ("omega_quadrature", "omega_digamma", "omega_partial_fraction", "omega_taylor",
              "omega_moment", "omega_bounds", "omega_eval", "omega_asymptotic_envelope",
              "omega_ode_residual", "omega_pv_hilbert"),
    "conj_bernoulli": ("periodic_polylog", "conj_bernoulli_half", "conj_bernoulli_periodic",
                       "conj_bernoulli_genfun", "conj_genfun_series", "zeta_odd_via_conj",
                       "zeta_even_euler", "fractional_bernoulli", "ramanujan_bstar",
                       "conjecture_double_sum"),
}

# Routes returning an Evaluation that eval-mix calls; their accuracy and the
# honesty of their err_estimate are measured on the eval-mix inputs.
EVALUATION_ROUTES = (
    "eisenstein.eisenstein_integral", "hilbert_eisenstein.he_direct",
    "hilbert_eisenstein.he_taylor", "hilbert_eisenstein.mathieu",
    "hilbert_eisenstein.mathieu_E", "omega.omega_quadrature",
    "omega.omega_partial_fraction", "omega.omega_pv_hilbert", "omega.omega_eval",
    "omega.omega_taylor",
)

# The functions the tracer wraps, by module of src/eiskern.  The engines'
# functions are named by the metrics below; suites and cli are traced for
# their layer shares.
TRACED = {
    "numkern": KERNELS + NUMKERN_OTHERS,
    "summation": ("richardson_limit", "alternating_sum", "wynn_epsilon", "power_tail"),
    "quadrature": ("adaptive_quad", "quad_decaying_tail"),
    **OBJECT_FUNCTIONS,
    "suites": ("run_suites",),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)
# Functions whose result[2] counts their work (terms or panels).
WORK_COUNTED = ("summation.richardson_limit", "summation.alternating_sum",
                "quadrature.adaptive_quad", "quadrature.quad_decaying_tail")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name, in BENCHMARK.json order, with its unit."""
    m = {"numkern.self_ms": "ms"}
    for k in KERNELS:
        m[f"numkern.{k}.us"] = "us"
        m[f"numkern.{k}.calls"] = "count"
    for k in KERNEL_DIGITS:
        m[f"numkern.{k}.digits_min"] = "digits"
    m.update({
        "summation.richardson.calls": "count", "summation.richardson.terms": "count",
        "summation.richardson.self_ms": "ms",
        "summation.alternating.calls": "count", "summation.alternating.terms": "count",
        "summation.alternating.self_ms": "ms", "summation.alternating.wynn_fallbacks": "count",
        "summation.wynn.calls": "count", "summation.wynn.self_ms": "ms",
        "quadrature.adaptive.calls": "count", "quadrature.adaptive.panels": "count",
        "quadrature.adaptive.self_ms": "ms", "quadrature.tail.calls": "count",
    })
    for module, names in OBJECT_FUNCTIONS.items():
        for name in names:
            m[f"{module}.{name}.us"] = "us"
    for route in EVALUATION_ROUTES:
        m[f"{route}.digits_min"] = "digits"
        m[f"{route}.err_underclaims"] = "count"
    for suite in wl.SUITES:
        m[f"suites.{suite}.ms"] = "ms"
    m["suites.records"] = "count"
    m.update({"cli.import_ms": "ms", "cli.import_numpy_ms": "ms",
              "cli.report_ms": "ms", "cli.report_kb": "KB"})
    return m


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def derive(trace: dict, call_checks: list, import_ms: float, import_numpy_ms: float) -> dict:
    """Per-layer metric values from the worker's trace result."""
    passes = trace["passes"]
    totals = trace["totals"]

    def t(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    def per_pass(name: str, key: str) -> float:
        return t(name, key) / passes

    def us(name: str) -> float:
        calls = t(name, "calls")
        return t(name, "total_s") / calls * 1e6 if calls else 0.0

    def layer_self_ms(layer: str) -> float:
        return sum(v["self_s"] for k, v in totals.items()
                   if k.split(".")[0] == layer) / passes * 1e3

    m = {"numkern.self_ms": layer_self_ms("numkern")}
    for k in KERNELS:
        m[f"numkern.{k}.us"] = us(f"numkern.{k}")
        m[f"numkern.{k}.calls"] = per_pass(f"numkern.{k}", "calls")

    by_fn: dict[str, list] = {}
    for c in call_checks:
        if not c.failed:
            by_fn.setdefault(c.fn, []).append(c)
    for k in KERNEL_DIGITS:
        m[f"numkern.{k}.digits_min"] = _digits_min(by_fn.get(f"numkern.{k}", []))

    rich, alt, quad, tail = WORK_COUNTED
    wynn = "summation.wynn_epsilon"
    m.update({
        "summation.richardson.calls": per_pass(rich, "calls"),
        "summation.richardson.terms": per_pass(rich, "work"),
        "summation.richardson.self_ms": per_pass(rich, "self_s") * 1e3,
        "summation.alternating.calls": per_pass(alt, "calls"),
        "summation.alternating.terms": per_pass(alt, "work"),
        "summation.alternating.self_ms": per_pass(alt, "self_s") * 1e3,
        "summation.alternating.wynn_fallbacks": per_pass(wynn, "under"),
        "summation.wynn.calls": per_pass(wynn, "calls"),
        "summation.wynn.self_ms": per_pass(wynn, "self_s") * 1e3,
        "quadrature.adaptive.calls": per_pass(quad, "calls"),
        "quadrature.adaptive.panels": per_pass(quad, "work"),
        "quadrature.adaptive.self_ms": per_pass(quad, "self_s") * 1e3,
        "quadrature.tail.calls": per_pass(tail, "calls"),
    })
    for module, names in OBJECT_FUNCTIONS.items():
        for name in names:
            m[f"{module}.{name}.us"] = us(f"{module}.{name}")
    for route in EVALUATION_ROUTES:
        checks = by_fn.get(route, [])
        m[f"{route}.digits_min"] = _digits_min(checks)
        m[f"{route}.err_underclaims"] = sum(1 for c in checks if c.err_estimate < c.abs_err)

    facts = [f for f in trace["plain_facts"] if "suite_ms" in f]
    for suite in wl.SUITES:
        m[f"suites.{suite}.ms"] = _median([f["suite_ms"][suite] for f in facts])
    m["suites.records"] = _median([f["records"] for f in facts])
    m["cli.import_ms"] = import_ms
    m["cli.import_numpy_ms"] = import_numpy_ms
    m["cli.report_ms"] = _median([f["report_ms"] for f in facts])
    m["cli.report_kb"] = _median([f["report_kb"] for f in facts])
    return m


def _digits_min(checks: list) -> float:
    ds = [d for c in checks for d in c.digits]
    return min(ds) if ds else 0.0


def layer_shares(trace: dict) -> dict[str, float]:
    """Each layer's self time as a share of the traced pass time."""
    totals = trace["totals"]
    traced_pass_s = sum(trace["traced_s"]) / trace["passes"]
    shares = {}
    for layer in LAYERS:
        self_s = sum(v["self_s"] for k, v in totals.items() if k.split(".")[0] == layer)
        shares[layer] = self_s / trace["passes"] / traced_pass_s
    shares["outside traced layers"] = max(0.0, 1.0 - sum(shares.values()))
    return shares
