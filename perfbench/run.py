"""eiskern benchmark: one command, three workloads, checked outputs.

  python3 perfbench/run.py --workload verify-all|eval-mix|cli-cold \
      --seed N --seconds S --trace 0|1

Run from the root of a checkout; eiskern is loaded from ./src.  With
--trace 0 the last stdout line is {"correct", "attempted", "failed",
"metrics"} with the end-to-end metrics pass_ms, setup_s, peak_rss_mb and
digits_min; with --trace 1 the metrics are the per-layer ones of layers.py.
Lines before it describe the run (pass and set-up distributions, the speed
of the reference loop, tracing overhead, layer shares).

This process runs the mpmath oracle and never imports eiskern; every eiskern
process is a child, and at most one child runs at a time.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import checks
import layers
import workloads as wl

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
PY = sys.executable
QUANTILE = 0.05     # pass_ms and setup_s are this quantile of a run's samples
SETUP_PROBES = 5    # fresh starts timed before the passes, and again after
IMPORT_PROBES = 5


def quantile(xs: list[float], q: float) -> float:
    """Linear-interpolation quantile of the samples."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("EISKERN_THREADS", "SOURCE_DATE_EPOCH", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


ENV = child_env()


def run_worker(*args: str, timeout: float = 170.0) -> dict:
    p = subprocess.run([PY, os.path.join(BENCH_DIR, "worker.py"), *args], env=ENV,
                       capture_output=True, text=True, timeout=timeout)
    if p.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {p.returncode}: {p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def setup_probe(workload: str) -> float:
    """Seconds from starting a fresh interpreter to ready (eiskern imported,
    each function the workload uses called once)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([PY, os.path.join(BENCH_DIR, "worker.py"), "ready", workload],
                         env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = p.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = p.communicate(timeout=60)
    if line.strip() != "ready" or p.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err[-2000:]}")
    return elapsed


def cli_run(argv) -> tuple[int, str]:
    p = subprocess.run([PY, "-m", "eiskern.cli", *argv], env=ENV, capture_output=True,
                       text=True, timeout=120)
    return p.returncode, p.stdout


# ---------------------------------------------------------------------------
# workloads, untraced

def run_verify_all(seed: int, seconds: float, o: checks.Oracle):
    report = os.path.join(OUT_DIR, f"verify-{os.getpid()}.json")
    argv = wl.verify_argv(seed, report)
    pass_s, ref_s = [], []
    first = None
    deterministic = True
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(pass_s) < 3:
        t0 = time.perf_counter()
        rc, _ = cli_run(argv)
        pass_s.append(time.perf_counter() - t0)
        ref_s.append(wl.reference_loop_seconds())
        with open(report, encoding="utf-8") as fh:
            suites = json.load(fh)
        for s in suites:
            s.pop("wall_time_ms", None)
        if first is None:
            first = (rc, suites)
        elif (rc, suites) != first:
            deterministic = False
    os.remove(report)
    points = run_worker("grid", str(seed))["points"]
    verdict = checks.check_verify(o, seed, first[0], first[1], points)
    if not deterministic:
        verdict.wrong("verify reports differ between passes")
    return verdict, pass_s, ref_s, len(pass_s), 0


def run_eval_mix(seed: int, seconds: float, o: checks.Oracle):
    res = run_worker("passes", "eval-mix", str(seed), str(seconds))
    verdict, _ = checks.check_eval_mix(o, seed, res["outputs"])
    if not res["deterministic"]:
        verdict.wrong("eval-mix outputs differ between passes")
    if res["tracer_loaded"] or res["mpmath_loaded"]:
        verdict.wrong("the timed process loaded the tracer or mpmath")
    passes = len(res["pass_s"])
    return verdict, res["pass_s"], res["reference_s"], res["ops"] * passes, \
        len(verdict.failed) * passes


def run_cli_cold(seed: int, seconds: float, o: checks.Oracle):
    cmds = wl.cli_commands(seed)
    pass_s, ref_s = [], []
    command_s: dict[str, list[float]] = {" ".join(argv): [] for argv, _ in cmds}
    first = None
    deterministic = True
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(pass_s) < 3:
        outs = []
        t_pass = time.perf_counter()
        for argv, _code in cmds:
            t0 = time.perf_counter()
            outs.append(cli_run(argv))
            command_s[" ".join(argv)].append(time.perf_counter() - t0)
        pass_s.append(time.perf_counter() - t_pass)
        ref_s.append(wl.reference_loop_seconds())
        if first is None:
            first = outs
        elif outs != first:
            deterministic = False
    runs = [(argv, code, rc, out) for (argv, code), (rc, out) in zip(cmds, first)]
    verdict = checks.check_cli(o, runs)
    if not deterministic:
        verdict.wrong("CLI output differs between passes")
    print("info: cold start ms " + json.dumps({c: _dist(ts, 1e3) for c, ts in command_s.items()}))
    passes = len(pass_s)
    return verdict, pass_s, ref_s, len(cmds) * passes, len(verdict.failed) * passes


RUNNERS = {"verify-all": run_verify_all, "eval-mix": run_eval_mix, "cli-cold": run_cli_cold}


def _dist(xs: list[float], scale: float) -> dict:
    return {"n": len(xs), **{f"p{round(q * 100)}": quantile(xs, q) * scale
                             for q in (0.05, 0.1, 0.5, 0.9)}}


def measure(workload: str, seed: int, seconds: float) -> dict:
    o = checks.Oracle()
    setup = [setup_probe(workload) for _ in range(SETUP_PROBES)]
    verdict, pass_s, ref_s, attempted, failed = RUNNERS[workload](seed, seconds, o)
    setup += [setup_probe(workload) for _ in range(SETUP_PROBES)]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    info = {"workload": workload, "seed": seed, "pass_ms": _dist(pass_s, 1e3),
            "setup_s": _dist(setup, 1.0), "reference_loop_ms": _dist(ref_s, 1e3),
            "failed_ops": sorted(set(verdict.failed)), "problems": verdict.problems}
    print("info: " + json.dumps(info))
    for p in verdict.problems:
        print(f"problem: {p}")
    metrics = {
        "pass_ms": {"value": quantile(pass_s, QUANTILE) * 1e3, "unit": "ms"},
        "setup_s": {"value": quantile(setup, QUANTILE), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "digits_min": {"value": verdict.digits_min, "unit": "digits"},
    }
    return {"correct": verdict.correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# traced run

def import_probe() -> tuple[float, float]:
    """(import eiskern.cli, numpy's part of it) in ms from -X importtime."""
    p = subprocess.run([PY, "-X", "importtime", "-c", "import eiskern.cli"], env=ENV,
                       capture_output=True, text=True, timeout=60)
    entries = []  # (level, name, cumulative us); children precede their parent
    for line in p.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2][1:]
        name = field.lstrip()
        entries.append(((len(field) - len(name)) // 2, name, int(parts[1])))
    eiskern_us = sum(c for lvl, n, c in entries if lvl == 0 and n.split(".")[0] == "eiskern")
    numpy_us = 0
    for i, (lvl, name, cum) in enumerate(entries):
        if name.split(".")[0] != "numpy":
            continue
        parent = next((n for lv, n, _ in entries[i + 1:] if lv < lvl), "")
        if parent.split(".")[0] != "numpy":
            numpy_us += cum
    return eiskern_us / 1e3, numpy_us / 1e3


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    o = checks.Oracle()
    probes = [import_probe() for _ in range(IMPORT_PROBES)]
    import_ms = quantile([a for a, _ in probes], QUANTILE)
    numpy_ms = quantile([b for _, b in probes], QUANTILE)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json")
    trace = run_worker("trace", workload, str(seed), str(seconds), spans_path)
    verdict, call_checks = checks.check_eval_mix(o, seed, trace["outputs"])
    metrics = layers.derive(trace, call_checks, import_ms, numpy_ms)
    units = layers.metric_units()

    plain = quantile(trace["plain_s"], 0.5)
    traced = quantile(trace["traced_s"], 0.5)
    print(f"trace: {workload} seed {seed}, {trace['passes']} traced and "
          f"{len(trace['plain_s'])} untraced passes, spans in {spans_path}")
    print(f"trace overhead: traced pass median {traced * 1e3:.1f} ms vs untraced "
          f"{plain * 1e3:.1f} ms, +{(traced / plain - 1.0) * 100:.1f}%")
    for layer, share in layers.layer_shares(trace).items():
        print(f"layer share of traced pass_ms: {layer:22s} {share * 100:6.2f}%")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    # operations of the traced run's own passes, counted as in an untraced run
    facts = trace["plain_facts"] + trace["traced_facts"]
    correct = verdict.correct and not trace["mpmath_loaded"]
    if workload == "eval-mix":
        per_pass, failed = len(trace["outputs"]), len(verdict.failed) * len(facts)
    elif workload == "cli-cold":
        documented = [code for _, code in wl.cli_commands(seed)]
        per_pass = len(documented)
        failed = sum(c != d for f in facts for c, d in zip(f["codes"], documented))
        correct = correct and all(c == d for f in facts
                                  for c, d in zip(f["codes"], documented) if d == 0)
    else:
        per_pass = 1
        failed = sum(f["gating_failures"] > 0 for f in facts)
        correct = correct and failed == 0
    return {"correct": correct, "attempted": per_pass * len(facts), "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "eiskern", "__init__.py")):
        print("error: run from the root of an eiskern checkout (no src/eiskern here)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if ns.trace:
        result = measure_traced(ns.workload, ns.seed, ns.seconds)
    else:
        result = measure(ns.workload, ns.seed, ns.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
