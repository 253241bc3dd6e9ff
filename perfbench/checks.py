"""Checks of the program's outputs against the mpmath oracle.

Runs in the orchestrator, after the timed passes.  Nothing here compares
against a stored copy of earlier output: every expected value comes from
oracle.py or from a property the method must have (bounds that bracket
Omega, a recomputed discrepancy column, exact grid abscissae).
"""
from __future__ import annotations

import csv
import io
import random
import re
from dataclasses import dataclass, field

import oracle
import workloads as wl

TOL = 1e-9  # relative agreement demanded of every eval-mix / CLI value


class Oracle:
    """Memoised oracle lookups, keyed by object and exact arguments."""

    def __init__(self) -> None:
        self._memo: dict = {}

    def __call__(self, kind: str, *args):
        key = (kind, args)
        if key not in self._memo:
            self._memo[key] = getattr(oracle, kind)(*args)
        return self._memo[key]


def _want(o: Oracle, fn: str, args: tuple):
    """The oracle value of one eval-mix call (a tuple for omega_bounds)."""
    module, name = fn.split(".")
    if module == "numkern":
        return o(name, *args)
    if module == "eisenstein":
        return o("eisenstein", args[0], args[1])
    if module == "omega":
        if name == "omega_bounds":
            return o("omega_bounds", args[0])
        return o("omega", args[0])
    if name in ("he_direct", "he_closed", "he_real"):
        return o("hilbert_eisenstein", args[0], args[1])
    if name == "he_taylor":
        return o("hilbert_eisenstein", 1, args[0])
    if name == "mathieu":
        return o("mathieu_alternating", args[0], args[1])
    if name == "mathieu_E":
        return o("mathieu_alternating", 2, args[0])
    if name == "conj_bernoulli_half":
        return o("conj_bernoulli_half", args[0])
    if name == "zeta_odd_via_conj":
        return o("riemann_zeta", 2 * args[0] + 1)
    raise KeyError(f"no oracle for {fn}")


@dataclass
class Verdict:
    """Outcome of checking one run's outputs."""
    correct: bool = True
    failed: list = field(default_factory=list)   # labels of failed operations
    digits: list = field(default_factory=list)   # correct digits of each checked value
    problems: list = field(default_factory=list)

    def wrong(self, message: str) -> None:
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def digits_min(self) -> float:
        return min(self.digits) if self.digits else 0.0


@dataclass
class CallCheck:
    fn: str
    failed: bool
    agrees: bool
    rel_errs: list
    abs_err: float | None   # true error of an Evaluation's value
    err_estimate: float | None

    @property
    def digits(self) -> list[float]:
        return [oracle.digits(e) for e in self.rel_errs]


def judge_call(o: Oracle, op: tuple, enc: dict) -> CallCheck:
    """A call succeeds when it returns finite values that agree with the
    oracle, or raises a typed EiskernError where the true value is not a
    double.  Anything else is a failed operation."""
    fn, args, _kwargs = op
    want = _want(o, fn, args)
    wants = want if isinstance(want, tuple) else (want,)
    if "error" in enc:
        ok = enc["typed"] and not oracle.representable(want)
        return CallCheck(fn, not ok, True, [], None, None)
    values = [complex(*v) for v in enc["v"]]
    finite = all(v.real == v.real and v.imag == v.imag and abs(v) != float("inf")
                 for v in values)
    if not finite or not oracle.representable(want) or len(values) != len(wants):
        return CallCheck(fn, True, True, [], None, None)
    errs = [oracle.rel_error(v, w) for v, w in zip(values, wants)]
    agrees = all(e <= TOL for e in errs)
    if fn == "omega.omega_bounds" and values[0] != 0:
        om = complex(o("omega", args[0])).real
        agrees = agrees and values[0].real <= om <= values[1].real
    abs_err = float(abs(oracle.mp.mpc(values[0]) - oracle.mp.mpc(wants[0])))
    return CallCheck(fn, False, agrees, errs, abs_err, enc.get("err"))


def check_eval_mix(o: Oracle, seed: int, outputs: list) -> tuple[Verdict, list[CallCheck]]:
    ops = wl.eval_mix_ops(seed)
    fault_index = range(len(ops) - len(wl.FAULT_OPS), len(ops))
    v = Verdict()
    if len(outputs) != len(ops):
        v.wrong(f"{len(outputs)} outputs for {len(ops)} calls")
        return v, []
    results = []
    for i, (op, enc) in enumerate(zip(ops, outputs)):
        c = judge_call(o, op, enc)
        results.append(c)
        label = f"{op[0]}{op[1]}"
        if c.failed:
            v.failed.append(label)
            if i not in fault_index:
                v.wrong(f"unexpected failure {label}: {enc}")
            continue
        if not c.agrees:
            v.wrong(f"{label} = {enc['v']} disagrees with the oracle (rel err {c.rel_errs})")
        v.digits.extend(c.digits)
    return v, results


# ---------------------------------------------------------------------------
# verify-all

_EPS_LABEL = re.compile(r"^r=(\d+) z=(\S+) \S+/\S+$")
_HE1_LABEL = re.compile(r"^z=(\S+)( direct)?$")
_HER_LABEL = re.compile(r"^closed r=(\d+) z=(\S+)$")
_OMEGA_LABEL = re.compile(r"^z=(\S+) \S+/\S+$")
_OMEGA_REAL_LABEL = re.compile(r"^real axis x=(\S+)$")
H_SAMPLE = 16  # distinct h_r points checked per run (the series oracle is slow)


def _point(points: dict, text: str) -> complex:
    """Exact grid point behind a report label; fixed points parse exactly."""
    if text in points:
        return complex(*points[text])
    return complex(text.replace("i", "j"))


def _side_ok(err_abs: float, err_rel: float, tol: float, policy: str) -> bool:
    if policy == "rel":
        return err_rel <= tol
    return err_abs <= tol or err_rel <= tol


def check_verify(o: Oracle, seed: int, rc: int, suites: list, points: dict) -> Verdict:
    v = Verdict()
    if rc != 0:
        v.wrong(f"verify exited {rc}")
    names = [s["suite"] for s in suites]
    if names != list(wl.SUITES):
        v.wrong(f"suites in report: {names}")
    by_name = {s["suite"]: s for s in suites}
    for s in suites:
        if s["report_only"] != (s["suite"] in wl.REPORT_ONLY_SUITES):
            v.wrong(f"{s['suite']}: report_only is {s['report_only']}")
        if not s["report_only"] and s["fail_count"] != 0:
            v.wrong(f"{s['suite']}: fail_count {s['fail_count']}")

    def records(suite: str) -> list:
        return by_name.get(suite, {}).get("records", [])

    # records whose two sides are values of a named object
    targets = []  # (record, oracle kind, args)
    for rec in records("eisenstein.routes"):
        m = _EPS_LABEL.match(rec["inputs"])
        if not m:
            v.wrong(f"eisenstein.routes: unexpected label {rec['inputs']!r}")
            continue
        targets.append((rec, "eisenstein", (int(m[1]), _point(points, m[2]))))
    for rec in records("omega.routes"):
        m = _OMEGA_LABEL.match(rec["inputs"]) or _OMEGA_REAL_LABEL.match(rec["inputs"])
        if not m:
            v.wrong(f"omega.routes: unexpected label {rec['inputs']!r}")
            continue
        targets.append((rec, "omega", (_point(points, m[1]),)))
    h_targets = []
    for rec in records("he.closed"):
        m = _HE1_LABEL.match(rec["inputs"])
        if not m:
            v.wrong(f"he.closed: unexpected label {rec['inputs']!r}")
            continue
        h_targets.append((rec, "hilbert_eisenstein", (1, _point(points, m[1]))))
    for rec in records("he.higher"):
        m = _HER_LABEL.match(rec["inputs"])  # the other he.higher records are identities
        if m:
            h_targets.append((rec, "hilbert_eisenstein", (int(m[1]), _point(points, m[2]))))
    h_points = sorted({args for _, _, args in h_targets}, key=repr)
    chosen = set(random.Random(seed).sample(h_points, min(H_SAMPLE, len(h_points))))
    targets += [t for t in h_targets if t[2] in chosen]
    if not targets:
        v.wrong("no route records found in the report")

    for rec, kind, args in targets:
        want = o(kind, *args)
        for side in ("lhs", "rhs"):
            got = complex(rec[side]["re"], rec[side]["im"])
            rel = oracle.rel_error(got, want)
            ab = float(abs(oracle.mp.mpc(got) - want))
            v.digits.append(oracle.digits(rel))
            if not _side_ok(ab, rel, rec["tol"], rec["policy"]):
                v.wrong(f"{rec['inputs']} {side} off the oracle by rel {rel:.2e}")
    return v


# ---------------------------------------------------------------------------
# cli-cold

_EVAL_LINE = re.compile(r"^\w+\(.*\) = (\S+)  \(route=\S+, err<=\S+, terms=\d+\)$")


def _parse_value(text: str) -> complex:
    return complex(text.replace("i", "j"))


def _check_value(v: Verdict, label: str, got: complex, want) -> None:
    rel = oracle.rel_error(got, want)
    v.digits.append(oracle.digits(rel))
    if rel > TOL:
        v.wrong(f"{label}: {got!r} off the oracle by rel {rel:.2e}")


def check_cli(o: Oracle, runs: list) -> Verdict:
    """runs: [(argv, documented code, returncode, stdout)] of one pass."""
    v = Verdict()
    for argv, code, rc, out in runs:
        label = " ".join(argv)
        if rc != code:
            v.failed.append(label)
            if code == 0:
                v.wrong(f"`{label}` exited {rc}, documented {code}")
            continue
        if code != 0:
            continue
        if argv[0] == "eval":
            m = _EVAL_LINE.match(out.strip())
            if not m:
                v.wrong(f"`{label}` printed {out!r}")
                continue
            fn, args = argv[1], argv[2:]
            if fn == "omega":
                want = o("omega", _parse_value(args[0]))
            elif fn == "he":
                want = o("hilbert_eisenstein", int(args[0]), _parse_value(args[1]))
            else:
                want = o("eisenstein", int(args[0]), _parse_value(args[1]))
            _check_value(v, label, _parse_value(m[1]), want)
        elif argv[0] == "table":
            _check_conj_table(o, v, out)
        else:
            _check_fig1(o, v, out)
    return v


def _check_conj_table(o: Oracle, v: Verdict, out: str) -> None:
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["m", "eta_form", "zeta_form", "fourier_half", "max_disc"] or len(rows) != 8:
        v.wrong(f"conj_bernoulli table has header {rows[0]} and {len(rows)} rows")
        return
    for row in rows[1:]:
        m = int(row[0])
        a, b, f, disc = (float(x) for x in row[1:])
        want = o("conj_bernoulli_half", m)
        for name, got in (("eta", a), ("zeta", b), ("fourier", f)):
            _check_value(v, f"conj_bernoulli m={m} {name}", complex(got), want)
        if disc != max(abs(a - b), abs(a - f)):
            v.wrong(f"conj_bernoulli m={m}: max_disc {disc} is not the largest discrepancy")


FIG1_STRIDE = 16  # every 16th row (x = -8, -7.2, ..., 8) against the quadrature oracle


def _check_fig1(o: Oracle, v: Verdict, out: str) -> None:
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["x", "omega", "lower", "upper"] or len(rows) != 322:
        v.wrong(f"fig1 has header {rows[0]} and {len(rows)} rows")
        return
    data = [tuple(float(c) for c in row) for row in rows[1:]]
    for i, (x, om, lo, hi) in enumerate(data):
        if x != (i - 160) * 0.05:
            v.wrong(f"fig1 row {i}: x = {x}")
        if not lo <= om <= hi:
            v.wrong(f"fig1 x={x}: Omega {om} outside its bounds [{lo}, {hi}]")
    for x, om, lo, hi in data[::FIG1_STRIDE]:
        _check_value(v, f"fig1 Omega({x})", complex(om), o("omega", complex(x)))
        want_lo, want_hi = o("omega_bounds", x)
        _check_value(v, f"fig1 lower({x})", complex(lo), want_lo)
        _check_value(v, f"fig1 upper({x})", complex(hi), want_hi)
