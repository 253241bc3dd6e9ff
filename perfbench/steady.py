"""Steadiness check: run each workload ten times and compare the run-to-run
spread of every end-to-end metric with its bound.

  python3 perfbench/steady.py

Run from the root of a checkout.  Runs go round-robin over the workloads of
BENCHMARK.json, run i with seed i (1..10), each for run_seconds.  For each
workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median and the bound;
for each run the share of failed operations and the speed of the reference
loop timed beside the passes, so that a slow host phase can be told apart
from a slow program.  It exits 1 if a spread is above its bound, a run is
not correct, or the failed share differs between runs.  Raw results go to
perfbench/out/steady-<time>.json.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    p = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {p.returncode}: {p.stderr[-2000:]}")
    info = next((json.loads(x[len("info: "):]) for x in lines if x.startswith("info: {")), {})
    return {"workload": workload, "seed": seed, "result": json.loads(lines[-1]), "info": info}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    runs = []
    for seed in range(1, RUNS + 1):
        for w in workloads:
            r = run_once(w, seed, bench["run_seconds"])
            res = r["result"]
            print(f"{w:11s} seed {r['seed']:4d} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  f"reference_loop_ms p5={r['info']['reference_loop_ms']['p5']:.2f} "
                  f"median={r['info']['reference_loop_ms']['p50']:.2f} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
            runs.append(r)

    ok = True
    print()
    print(f"{'workload':11s} {'metric':12s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}")
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in mine}
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in mine]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
            ok = ok and spread <= m["bound"]
            print(f"{w:11s} {m['name']:12s} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread * 100:6.2f}% {m['bound'] * 100:5.1f}%{flag}")
        print(f"{w:11s} failed share per run: {sorted(shares)}; "
              f"all correct: {all(r['result']['correct'] for r in mine)}")
        ok = ok and len(shares) == 1 and all(r["result"]["correct"] for r in mine)
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "out", f"steady-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    print(f"raw results: {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
