"""Identity, bound and conjecture check suites behind the verification CLI.

Each suite body records CheckRecords for the identities it instantiates over a configurable
grid; run_suites builds its CheckSuite, times it and sorts its records by inputs, and the
pass and fail counts derive from the records.  CheckSuite.check builds each record: both
discrepancies, the tolerance and policy that decided the pass flag, and an anchor naming the
identity.  Only report-policy records never gate; a suite of only those is report-only.
The verify report is each suite's to_json() written by json, one record per line (report_text).

A route-agreement record (CheckSuite.agree) reads both routes through eiskern.routes and names
them in CheckRecord.routes, unreported; identity records and non-route helpers call the library.
Each gating record compares two code paths that differ in arithmetic, not only in order, sign or
conjugation: a check whose sides run the same arithmetic reads 0 on every input and cannot fail.
A derivative check reads one route's Taylor coefficients on a circle (_taylor) against another.
"""
from __future__ import annotations

import cmath
import json
import math
import os
import random
import time
from itertools import accumulate, combinations, islice, repeat, takewhile
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import conj_bernoulli as cb
from . import eisenstein as eis
from . import hilbert_eisenstein as he
from . import numkern as nk
from . import omega as om
from .errors import ConfigError, EiskernError, Evaluation
from .routes import ROUTES
from .summation import alternating_sum

LOG2 = math.log(2.0)
PI = math.pi
GRID_NODES = 1024  # the most nodes a grid may have, 42 times the default grid's 24


class GridSpec(NamedTuple):
    re_min: float = 0.1
    re_max: float = 0.9
    im_min: float = -1.5
    im_max: float = 1.5
    step: float = 0.4


class SuiteConfig(NamedTuple):
    tolerance_overrides: Mapping[str, float] = MappingProxyType({})
    grid: GridSpec = GridSpec()
    seed: int = 20260808


class CheckRecord(NamedTuple):
    inputs: str
    lhs: complex
    rhs: complex
    abs_disc: float
    rel_disc: float
    tol: float
    passed: bool
    policy: str
    paper_anchor: str
    routes: tuple | None  # (object, route, route) of an agreement record, else None

    def to_json(self) -> dict:
        return {
            "inputs": self.inputs,
            "lhs": {"re": self.lhs.real, "im": self.lhs.imag},
            "rhs": {"re": self.rhs.real, "im": self.rhs.imag},
            "abs_disc": self.abs_disc,
            "rel_disc": self.rel_disc,
            "tol": self.tol,
            "pass": self.passed,
            "policy": self.policy,
            "paper_anchor": self.paper_anchor,
        }


class CheckSuite:
    """The records of one suite; run_suites times them and sorts them by inputs."""

    def __init__(self, name: str, override: float | None = None):
        self.name = name
        self.override = override    # the --tol value replacing each gating tolerance
        self.records: list[CheckRecord] = []
        self.wall_time_ms = 0.0
        self._values: dict = {}  # route values by (object, route, args); neither is reported

    @property
    def pass_count(self) -> int:
        return sum(r.passed for r in self.records)

    @property
    def fail_count(self) -> int:
        return len(self.records) - self.pass_count

    @property
    def report_only(self) -> bool:
        """True when no record gates: every one has the report policy (so an empty suite)."""
        return all(r.policy == "report" for r in self.records)

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "records": [r.to_json() for r in self.records],
            "pass_count": self.pass_count,
            "fail_count": self.fail_count,
            "wall_time_ms": self.wall_time_ms,
            "report_only": self.report_only,
        }

    def check(self, inputs: str, lhs: complex, rhs: complex, tol: float,
              policy: str, anchor: str, routes: tuple | None = None) -> None:
        lhs, rhs = complex(lhs), complex(rhs)
        if self.override is not None and policy != "report":
            tol = self.override
        if policy == "lower_bound":  # passes iff lhs >= rhs - tol: the shortfall, over |rhs|
            abs_disc = max(0.0, rhs.real - lhs.real)
            rel_disc = abs_disc / max(abs(rhs), 1e-300)
        else:
            abs_disc = abs(lhs - rhs)
            rel_disc = abs_disc / max(abs(lhs), abs(rhs), 1e-300)
        ok = {"abs": abs_disc <= tol, "rel": rel_disc <= tol, "lower_bound": abs_disc <= tol,
              "abs_or_rel": abs_disc <= tol or rel_disc <= tol, "report": True}[policy]
        self.records.append(CheckRecord(inputs, lhs, rhs, abs_disc, rel_disc, tol, ok,
                                        policy, anchor, routes))

    def value(self, obj: str, route: str | None, args: tuple) -> complex:
        """The value of one table route at args, computed once per suite."""
        key = (obj, route, args)
        if key not in self._values:
            try:
                v = ROUTES[obj][1][route].run(*args)
            except EiskernError as exc:  # the same class, its message naming the call
                exc.args = (f"{obj} route {route} at {args}: {exc}",)
                raise
            self._values[key] = v.value if isinstance(v, Evaluation) else v
        return self._values[key]

    def agree(self, inputs: str, obj: str, a: str, b: str, args: tuple, tol: float,
              policy: str, anchor: str) -> None:
        """Record route a (lhs) against route b (rhs) of obj at the same args."""
        self.check(inputs, self.value(obj, a, args), self.value(obj, b, args), tol, policy,
                   anchor, (obj, a, b))


# ---------------------------------------------------------------------------
# the report: the JSON of each suite's to_json(), one record per line

def report_text(suites: list[CheckSuite]) -> str:
    """The verify report: a JSON array with one suite per header line, records moved last,
    and each record of the suite on a line of its own, so a grep shows a record whole."""
    blocks = []
    for s in suites:
        head = s.to_json()
        records = ",".join("\n" + json.dumps(r) for r in head.pop("records"))
        blocks.append(f'{json.dumps(head)[:-1]}, "records": [{records}]}}')
    return "[\n" + ",\n".join(blocks) + "\n]\n" if blocks else "[]\n"


# ---------------------------------------------------------------------------
# grids

def _axis(lo: float, hi: float, step: float, most: int | None = None) -> list[float]:
    """lo, lo + step, ... through hi, summed as a running total; at most `most` values."""
    return list(islice(takewhile(lambda v: v <= hi + 1e-9, accumulate(repeat(step), initial=lo)),
                       most))


def _clamp_strip(x: float, node: float, margin: float = 0.05) -> float:
    """x moved into the unit strip of its grid node, its fractional part kept off the integers."""
    return math.floor(node) + min(max(x - math.floor(x), margin), 1.0 - margin)


def _push_off_imag_integers(y: float, margin: float = 0.05) -> float:
    k = round(y)
    if k != 0 and abs(y - k) < margin:
        return k + (margin if y >= k else -margin)
    return y


def _jittered_grid(cfg: SuiteConfig, seed: int) -> list[tuple[float, float, float]]:
    """(Re node, x, y): grid nodes, each moved by a uniform jitter of at most step/4 per axis."""
    rng = random.Random(seed)
    g = cfg.grid
    a = g.step / 4.0
    return [(re, re + rng.uniform(-a, a), im + rng.uniform(-a, a))
            for re in _axis(g.re_min, g.re_max, g.step)
            for im in _axis(g.im_min, g.im_max, g.step)]


def strip_grid(cfg: SuiteConfig) -> list[complex]:
    """Jittered complex grid, each point in its node's unit strip and off the integers."""
    return [complex(_clamp_strip(x, node), y) for node, x, y in _jittered_grid(cfg, cfg.seed)]


def axis_grid(cfg: SuiteConfig) -> list[complex]:
    """Jittered complex grid kept off the nonzero imaginary integers."""
    pts = [complex(x, _push_off_imag_integers(y)) for _, x, y in _jittered_grid(cfg, cfg.seed + 1)]
    return [z + 0.1 if abs(z) < 0.05 else z for z in pts]


def disc_sample(cfg: SuiteConfig, n: int = 20, radius: float = 5.0) -> list[complex]:
    rng = random.Random(cfg.seed + 2)
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-radius * 0.9, radius * 0.9),
                    rng.uniform(-radius * 0.44, radius * 0.44))
        if abs(z) <= radius and abs(z) > 0.2:
            pts.append(z)
    return pts


def _fmt(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.6g}"
    return f"{z.real:.6g}{z.imag:+.6g}i"


def _taylor(f, z: complex, reach: float) -> list[complex]:
    """f^(k)(z)/k! for k < 8, f holomorphic on |w - z| < reach, by the trapezoidal rule over
    the n = 32 values f(z + rho w^j), rho = reach/3, w = e^(2 pi i/n) (Lyness & Moler 1967):
    aliasing adds c_(k+n) rho^n + ..., about 3^-n of c_k, and rounding about 3^k eps."""
    n = 32
    rho, roots = reach / 3.0, [cmath.exp(2j * PI * j / n) for j in range(n)]
    values = [f(z + rho * w) for w in roots]
    return [sum(v * roots[-j * k % n] for j, v in enumerate(values)) / (n * rho ** k)
            for k in range(8)]


# ---------------------------------------------------------------------------
# suites

def _unit_strip_draws(rng: random.Random, left: int, n: int = 200) -> list[complex]:
    """n points with left <= Re z < left + 1 and |Im z| <= 5, 0.1 off both integers."""
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(left, left + 1), rng.uniform(-5, 5))
        if min(abs(z - left), abs(z - left - 1)) >= 0.1:
            pts.append(z)
    return pts


def run_numkern_identities(rec: CheckSuite, cfg: SuiteConfig) -> None:
    rng = random.Random(cfg.seed + 3)

    # digamma reflects for Re z < 0: here psi(z) is reflected and psi(z+1) is not
    for z in _unit_strip_draws(rng, -1):
        rec.check(f"recurrence z={_fmt(z)}", nk.digamma(z + 1), nk.digamma(z) + 1.0 / z,
                  1e-12, "abs_or_rel", "digamma recurrence psi(z+1) = psi(z) + 1/z")
    # here neither psi(z) nor psi(1-z) is reflected, so the cotangent is independent
    for z in _unit_strip_draws(rng, 0):
        rec.check(f"reflection z={_fmt(z)}", nk.digamma(1.0 - z) - nk.digamma(z),
                  PI * nk.cot(PI * z), 1e-11, "abs_or_rel",
                  "digamma reflection against pi*cot(pi z)")

    # the nearest pole of digamma to a z with Re z > 0 is 0
    for z in (complex(1.1 + 1.8 * i, 0.3 * (i % 3 - 1)) for i in range(5)):
        taylor = _taylor(nk.digamma, z, abs(z))
        for r in range(1, 5):
            rec.check(f"derivative r={r} z={_fmt(z)}", taylor[r] * math.factorial(r),
                      nk.polygamma(r, z), 1e-11, "rel", "polygamma as the r-th derivative of digamma")

    # zeta as the Euler-Maclaurin sum of the polylog at x = 0: riemann_zeta divides eta
    for s in (1.5, 2.0, 3.0, 4.5):
        rec.check(f"eta/zeta s={s}", nk.dirichlet_eta(s),
                  -math.expm1((1 - s) * LOG2) * cb.periodic_polylog(s, 0.0).real, 1e-12, "rel",
                  "eta(s) = (1 - 2^(1-s)) zeta(s)")

    # dirichlet_eta, not riemann_zeta: zeta at even integers is computed from B_2m
    for m in range(1, 11):
        eta = nk.dirichlet_eta(2.0 * m)
        via_eta = ((-1) ** (m + 1) * 2.0 * math.factorial(2 * m) * eta
                   / (-math.expm1((1 - 2 * m) * LOG2) * (2.0 * PI) ** (2 * m)))
        rec.check(f"bernoulli/eta m={m}", complex(float(nk.bernoulli_number(2 * m))),
                  via_eta, 1e-12, "rel",
                  "B_2m = (-1)^(m+1) 2 (2m)! zeta(2m)/(2 pi)^(2m), zeta(2m) from eta(2m)")

    for z in (complex(0.5), 0.5j, complex(0.3), complex(0.0, -0.4)):
        rec.check(f"odd-zeta series z={_fmt(z)}", nk.zeta_odd_series(z).value,
                  -0.5 * (nk.digamma(1.0 + z) + nk.digamma(1.0 - z)) - nk.EULER_GAMMA,
                  1e-10, "abs_or_rel", "odd zeta power series against its digamma closed form")

    # not t = 0, where the integrand vanishes and both sides read -gamma
    for t, want in ((PI, nk.digamma(1 + 0.5j).real), (2 * PI, nk.digamma(1 + 1j).real)):
        rec.check(f"psi real-part integral t={t:.6g}",
                  nk.digamma_realpart_integral(t), want, 1e-10, "abs",
                  "integral form of Re psi on the line Re = 1")


def run_eisenstein_routes(rec: CheckSuite, cfg: SuiteConfig) -> None:
    anchor = "route agreement for the Eisenstein series"
    pairs = (("direct", "polygamma", 1e-8), ("direct", "integral", 1e-8),
             ("polygamma", "integral", 1e-8), ("direct", "closed", 1e-10),
             ("closed", "integral", 1e-8))
    for z in strip_grid(cfg):
        for r in range(1, 7):
            for a, b, tol in pairs[:5 if r <= 3 else 3]:  # closed forms through r = 3
                rec.agree(f"r={r} z={_fmt(z)} {a}/{b}", "epsilon", a, b, (r, z), tol, "rel", anchor)


def run_eisenstein_properties(rec: CheckSuite, cfg: SuiteConfig) -> None:
    pts = strip_grid(cfg)[:8]
    for z in pts:  # direct at z + 1 against polygamma at z: one route would move alike
        for r in (1, 2, 3, 4):
            a = eis.eisenstein_direct(r, z + 1).value
            b = eis.eisenstein_polygamma(r, z)
            rec.check(f"periodicity r={r} z={_fmt(z)}", a, b, 1e-10, "abs_or_rel",
                      "one-periodicity of the Eisenstein series")
    # eps_r' = -r eps_(r+1): the closed eps_1 (cot) sampled, its poles on the integers
    for z in pts[:6]:
        taylor = _taylor(lambda w: eis.eisenstein_closed(1, w), z, abs(z - round(z.real)))
        for r in range(1, 7):
            rec.check(f"derivative r={r} z={_fmt(z)}", taylor[r],
                      (-1) ** r * eis.eisenstein_polygamma(r + 1, z), 1e-8, "rel",
                      "derivative ladder eps_1^(r)/r! = (-1)^r eps_(r+1)")


def run_eisenstein_product(rec: CheckSuite, cfg: SuiteConfig) -> None:
    # eps_3 by polygamma: the closed eps_3, pi^3 cot csc^2, is the arithmetic of eps_1 * eps_2
    for z in strip_grid(cfg):
        rec.check(f"r=1 z={_fmt(z)}", eis.eisenstein_closed(1, z) * eis.eisenstein_closed(2, z),
                  eis.eisenstein_polygamma(3, z), 1e-9, "rel",
                  "product identity eps_3 = eps_1 * eps_2")
    res = eis.product_identity_residual(2, 0.5)
    rec.check("r=2 z=0.5 exact value", res, PI ** 4 / 3.0, 1e-10, "rel",
              "product residual at one half equals pi^4/3")
    for r in (2, 3, 4):
        res = abs(eis.product_identity_residual(r, 0.25))
        scale = abs(eis.eisenstein_polygamma(r + 2, 0.25))
        rec.check(f"uniqueness r={r} z=0.25", res / scale, 0.05, 0.0, "lower_bound",
                  "the product identity fails for every order above one")


def run_he_closed(rec: CheckSuite, cfg: SuiteConfig) -> None:
    pts = axis_grid(cfg)[:19] + [3 + 0.5j]
    for z in pts:
        rec.agree(f"z={_fmt(z)}", "he", "closed", "direct", (1, z), 1e-9, "rel",
                  "first-order HE closed digamma form vs direct summation")
    rec.check("z=0 direct", he.he_direct(1, 0).value, 2j * LOG2, 1e-13, "abs",
              "HE value 2i log 2 at the origin")


def run_he_higher(rec: CheckSuite, cfg: SuiteConfig) -> None:
    pts = axis_grid(cfg)[:10]
    for z in pts:
        for r in (2, 3, 4, 5):
            rec.agree(f"closed r={r} z={_fmt(z)}", "he", "closed", "direct", (r, z), 1e-8,
                      "rel", "higher-order HE polygamma form vs direct summation")
    for z in pts:
        for r in (1, 2, 3):
            lhs = he.he_closed(r, z) + he.he_closed(r, z + 1j)
            rhs = z ** (-r) - (z + 1j) ** (-r)
            rec.check(f"difference r={r} z={_fmt(z)}", lhs, rhs, 1e-9, "abs_or_rel",
                      "HE difference equation h_r(z) + h_r(z+i)")
            rec.check(f"symmetry r={r} z={_fmt(z)}", he.he_closed(r, -z),
                      (-1.0) ** (r + 1) * rec.value("he", "direct", (r, z)), 1e-10,
                      "abs_or_rel", "HE symmetry h_r(-z) = (-1)^(r+1) h_r(z)")
    # h_r' = -r h_(r+1): the closed h_1 sampled, its poles at ik, k != 0; h_(r+1) memoized
    for z in pts[:5]:
        reach = min(abs(z - 1j * k) for k in range(round(z.imag) - 1, round(z.imag) + 2) if k)
        taylor = _taylor(lambda w: he.he_closed(1, w), z, reach)
        for r in (1, 2, 3):
            rec.check(f"derivative r={r} z={_fmt(z)}", taylor[r],
                      (-1) ** r * rec.value("he", "direct", (r + 1, z)), 1e-11, "rel",
                      "HE derivative ladder h_1^(r)/r! = (-1)^r h_(r+1)")


def run_he_routes(rec: CheckSuite, cfg: SuiteConfig) -> None:
    for z in (0.5, -0.35, 0.3 + 0.3j, 0.2 - 0.6j, 0.85):
        rec.agree(f"taylor z={_fmt(complex(z))}", "he", "taylor", "closed", (1, z), 1e-8,
                  "abs_or_rel", "HE Taylor expansion in eta values on the unit disc")
    for x in (0.5, 1.0, 1.7):
        for r in (1, 2, 3, 4):
            rec.agree(f"real-axis r={r} x={x}", "he", "real", "direct", (r, x), 1e-9,
                      "abs_or_rel", "real-axis Re/Im split of the HE closed form")
    for x in (0.5, 1.0, 1.3):
        for r in (1, 2, 3, 4):
            rec.agree(f"via-eisenstein r={r} x={x}", "he", "eisenstein", "direct", (r, x), 1e-8,
                      "abs_or_rel", "HE through the classical Eisenstein series")
    for z in (0.7, 0.4 + 0.3j):
        s = 1.0 / z - alternating_sum(lambda k: 2.0 * z / (z * z + k * k), start=1)[0]
        rec.check(f"sinh expansion z={_fmt(complex(z))}", s, PI / cmath.sinh(PI * z),
                  1e-12, "abs", "alternating partial fractions of pi/sinh(pi z)")
    for x in (0.5, 1.0, 3.0):
        rec.agree(f"mathieu alternating r=2 x={x}", "mathieu_alternating", "alternating",
                  "integral", (2, x), 1e-12, "rel",
                  "alternating Mathieu series against its integral form")
        rec.check(f"mathieu r=2 x={x}", he.mathieu(2, x, False).value,
                  -nk.polygamma(1, 1.0 + 1j * x).imag / x, 1e-12, "rel",
                  "Mathieu series against -Im psi_1(1+ix)/x")


def run_omega_routes(rec: CheckSuite, cfg: SuiteConfig) -> None:
    anchor = "route agreement for the complete Omega function"
    names = ("quadrature", "digamma", "partial-fraction", "taylor-moments", "taylor-eta")
    for z in disc_sample(cfg, 20, 5.0):
        for a, b in combinations(names, 2):
            rec.agree(f"z={_fmt(z)} {a}/{b}", "omega", a, b, (z,), 1e-8, "abs_or_rel", anchor)
    for x in (1.0, 5.0, 10.0, 18.0, 25.0, 30.0):
        rec.agree(f"real axis x={x}", "omega", "quadrature", "digamma", (x,), 1e-8, "rel", anchor)


def run_omega_symmetry(rec: CheckSuite, cfg: SuiteConfig) -> None:
    grid = [-2.0, -1.0, 0.5, 1.0, 2.0]
    for x in grid:
        for y in grid:
            z = complex(x, y)
            pf = om.omega_partial_fraction(z).value
            rec.check(f"mirror z={_fmt(z)}", om.omega_digamma(z.conjugate()),
                      pf.conjugate(), 1e-12, "abs",
                      "mirror symmetry Omega(conj z) = conj Omega(z)")
            rec.check(f"oddness z={_fmt(z)}", om.omega_digamma(-z), -pf, 1e-12, "abs",
                      "oddness of the Omega function")


def run_omega_moments(rec: CheckSuite, cfg: SuiteConfig) -> None:
    rec.check("first moment", om.omega_moment(0, "closed"), LOG2 / PI, 1e-12, "abs",
              "first moment equals log(2)/pi")
    forms = {"closed": "closed eta form", "quadrature": "defining integral",
             "series": "Bernoulli series"}
    for k in range(6):
        for a, b in combinations(forms, 2):
            rec.agree(f"k={k} {a}/{b}", "moment", a, b, (k,), 1e-10, "abs",
                      f"odd moment {forms[a]} vs {forms[b]}")


def run_omega_bounds(rec: CheckSuite, cfg: SuiteConfig) -> None:
    anchor = "two-sided sinh-log bounds for Omega on the real line"
    for i in range(1, 81):
        for x in (i / 10.0, -(i / 10.0)):
            lo, hi = om.omega_bounds(x)
            val = om.omega_digamma(x).real
            rec.check(f"x={x:.1f} lower", val - lo, 0.0, 0.0, "lower_bound", anchor)
            rec.check(f"x={x:.1f} upper", hi - val, 0.0, 0.0, "lower_bound", anchor)


def run_omega_asymptotic(rec: CheckSuite, cfg: SuiteConfig) -> None:
    # reported only: the envelope holds unless Omega is off by a factor of about 4
    for x in (10.0, 20.0, 40.0):
        _, hi, ratio = om.omega_asymptotic_envelope(x)
        rec.check(f"x={x} measured ratio", complex(ratio), complex(hi), 1e9,
                  "report", "measured decay ratio, reported without assertion")
    _, hi, _ = om.omega_asymptotic_envelope(500.0)
    rec.check("caption constant", complex(hi), 0.146, 5e-4, "report",
              "upper envelope coefficient printed as 0.146")


def run_omega_ode(rec: CheckSuite, cfg: SuiteConfig) -> None:
    # Omega' by partial fractions (alternating) against psi, coth and quadrature; poles +-2 pi i
    for x in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0):
        d_omega = _taylor(lambda w: om.omega_partial_fraction(w).value, x, 3.0)[1]
        rec.check(f"x={x}", d_omega, om._ode_rhs(x), 1e-12, "rel",
                  "first-order ODE of the Omega function, Omega'(0) = log(2)/pi at x = 0")


def run_omega_identities(rec: CheckSuite, cfg: SuiteConfig) -> None:
    for z in (1.0, 2.0, 1 + 1j, -0.5 + 2j, 3.3):
        rec.agree(f"pv fold z={_fmt(complex(z))}", "omega", "pv-fold", "digamma", (z,),
                  1e-9, "abs", "principal-value Hilbert fold equals the digamma closed form")


def run_conj_values(rec: CheckSuite, cfg: SuiteConfig) -> None:
    c = cb.conjecture_double_sum(0, 0.5)
    rec.check("j=0 z=0.5 closed value", c.double_sum, -LOG2 / PI, 1e-12, "abs",
              "conjectured double sum at the half point, lowest index")
    rec.check("j=0 z=0.5 fourier", c.double_sum, c.fourier, 1e-12, "abs",
              "conjectured double sum vs Fourier oracle")
    for m in range(7):
        rec.agree(f"half-point m={m}", "conj_half", "eta", "zeta", (m,), 1e-13, "rel",
                  "conjugate Bernoulli half-point eta form vs zeta form")
    q0, q1, q2 = (om.omega_moment(k, "quadrature") for k in range(3))
    rec.check("moment combination m=0", -q0, cb.conj_bernoulli_half(0), 1e-9, "abs",
              "half-point value as the negated first moment")
    rec.check("moment combination m=1", q0 / 4.0 - q1, cb.conj_bernoulli_half(1),
              1e-9, "abs", "half-point value as a two-moment combination")
    rec.check("moment combination m=2", -(7.0 / 48.0) * q0 + (5.0 / 6.0) * q1 - q2,
              cb.conj_bernoulli_half(2), 1e-9, "abs",
              "half-point value as a three-moment combination")
    for x in (0.25, 0.5, 0.75, 0.1):
        rec.check(f"log closed form x={x}", cb.conj_bernoulli_periodic(0, x),
                  -(1.0 / PI) * math.log(2.0 * math.sin(PI * x)), 1e-10, "abs",
                  "first conjugate function as -log(2 sin(pi x))/pi")
    rec.check("fourier half-point n=1", cb.conj_bernoulli_periodic(1, 0.5),
              cb.conj_bernoulli_half(1), 1e-12, "abs",
              "Fourier series at one half against the closed value")


def run_conj_roundtrips(rec: CheckSuite, cfg: SuiteConfig) -> None:
    for m in range(1, 7):
        eta_route = nk.dirichlet_eta(float(2 * m)) / -math.expm1((1 - 2 * m) * LOG2)
        rec.check(f"even zeta m={m}", cb.zeta_even_euler(m), eta_route, 1e-12, "rel",
                  "Euler even-zeta closed form vs the alternating series")
    # zeta_odd_via_conj reads eta(2m+1), as riemann_zeta does: zeta here is the polylog sum
    for m in (1, 2, 3, 4):
        rec.check(f"odd zeta m={m}", cb.zeta_odd_via_conj(m),
                  cb.periodic_polylog(2 * m + 1, 0.0).real, 1e-12, "rel",
                  "odd zeta recovered from conjugate Bernoulli numbers")
    for a in (1.5, 2.5, 3.2):
        b = cb.fractional_bernoulli(a, 0.0)
        z = -1.0 / math.cos(a * PI / 2.0) * 2.0 ** (a - 1.0) * PI ** a * b / math.gamma(a + 1.0)
        rec.check(f"fractional alpha={a}", z, nk.riemann_zeta(a), 1e-8, "rel",
                  "zeta from the fractional Bernoulli number")
    for m in (1, 2, 3):
        a = 2 * m + 1
        bt = cb.conj_bernoulli_periodic(m, 0.0)
        z = 1.0 / math.sin(a * PI / 2.0) * 2.0 ** (a - 1.0) * PI ** a * bt / math.gamma(a + 1.0)
        rec.check(f"conjugate fractional m={m}", z, nk.riemann_zeta(float(a)), 1e-10,
                  "rel", "zeta from the conjugate fractional Bernoulli number")
    for n in (2, 3, 4):
        for x in (0.0, 0.25, 0.5):
            rec.check(f"interpolation n={n} x={x}",
                      cb.fractional_bernoulli(float(n), x),
                      nk.bernoulli_poly(n, x), 1e-12, "abs",
                      "fractional function interpolates the Bernoulli polynomials")


def run_conj_genfun(rec: CheckSuite, cfg: SuiteConfig) -> None:
    pts = [0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1 + 0.5j, -0.7 + 1.2j]
    for z in pts:
        z = complex(z)
        # Omega by partial fractions: at real z the closed branch is omega_digamma's brace
        o = -(z / (2.0 * cmath.sinh(z / 2.0))) * om.omega_partial_fraction(z).value
        tag = _fmt(z)
        rec.agree(f"closed/series z={tag}", "genfun", "closed", "series", (z,), 1e-12, "abs",
                  "generating-function closed branch vs coefficient series")
        g, s = rec.value("genfun", "closed", (z,)), rec.value("genfun", "series", (z,))
        rec.check(f"closed/omega z={tag}", g, o, 1e-8, "abs",
                  "generating-function closed branch vs the Omega product")
        rec.check(f"series/omega z={tag}", s, o, 1e-8, "abs",
                  "coefficient series vs the Omega product")


def run_bstar_values(rec: CheckSuite, cfg: SuiteConfig) -> None:
    rec.check("alpha=2", cb.ramanujan_bstar(2.0), 1.0 / 6.0, 1e-12, "abs",
              "sign-free fractional Bernoulli number at two")
    rec.check("alpha=3", cb.ramanujan_bstar(3.0), 0.05815227, 1e-7, "abs",
              "the printed constant p for the three-halves family")
    rec.check("alpha=4", cb.ramanujan_bstar(4.0),
              float(-nk.bernoulli_number(4)), 1e-12, "abs",
              "even values reduce to the classical Bernoulli numbers")
    rec.check("alpha=5", cb.ramanujan_bstar(5.0), 0.025413275, 1e-7, "abs",
              "the printed constant q for the five-halves family")


def run_conjecture_double_sum(rec: CheckSuite, cfg: SuiteConfig) -> None:
    # the lowest index at z = 1/2 gates in conj.values; elsewhere the sum misses the oracle
    for j, z in ((0, 0.25), (1, 0.5), (1, 0.25), (2, 0.5), (2, 0.3)):
        c = cb.conjecture_double_sum(j, z)
        rec.check(f"j={j} z={z} report", c.double_sum, c.fourier, 1e9, "report",
                  "conjectured double sum vs Fourier oracle, reported only")


SUITES = {
    "numkern.identities": run_numkern_identities,
    "eisenstein.routes": run_eisenstein_routes,
    "eisenstein.properties": run_eisenstein_properties,
    "eisenstein.product": run_eisenstein_product,
    "he.closed": run_he_closed,
    "he.higher": run_he_higher,
    "he.routes": run_he_routes,
    "omega.routes": run_omega_routes,
    "omega.symmetry": run_omega_symmetry,
    "omega.moments": run_omega_moments,
    "omega.bounds": run_omega_bounds,
    "omega.asymptotic": run_omega_asymptotic,
    "omega.ode": run_omega_ode,
    "omega.identities": run_omega_identities,
    "conj.values": run_conj_values,
    "conj.roundtrips": run_conj_roundtrips,
    "conj.genfun": run_conj_genfun,
    "bstar.values": run_bstar_values,
    "conjecture.double_sum": run_conjecture_double_sum,
}


def run_suites(cfg: SuiteConfig, names: list[str]) -> list[CheckSuite]:
    """Run the named suites in order, each body recording into its own CheckSuite; first a
    ConfigError for an unknown suite, run or overridden, a suite named twice, a grid that is
    not finite, steps by <= 0 or has no node or more than GRID_NODES, and a tolerance
    override that is no finite number >= 0 or is set for a suite that names does not run.
    An EiskernError from a suite keeps its class; its message gains the suite's name, and
    the object, route and arguments where it came through CheckSuite.value."""
    for name in [*names, *cfg.tolerance_overrides]:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    for i, name in enumerate(names):
        if name in names[:i]:  # it would run twice and write two reports of one name
            raise ConfigError(f"suite {name!r} is named more than once")
    g = cfg.grid
    if not (all(map(math.isfinite, g)) and g.step > 0 and 1 <= math.prod(
            len(_axis(lo, hi, g.step, GRID_NODES + 1)) for lo, hi in (g[:2], g[2:4])) <= GRID_NODES):
        raise ConfigError(f"grid {tuple(g)} needs finite values, a positive step and 1 to "
                          f"{GRID_NODES} nodes (re_min <= re_max, im_min <= im_max)")
    for name, tol in cfg.tolerance_overrides.items():
        if not 0.0 <= tol < math.inf:  # a nan tolerance fails every record
            raise ConfigError(f"tolerance {tol!r} of suite {name} is not a finite number >= 0")
        if name not in names:  # its override would replace no tolerance
            raise ConfigError(f"--tol sets suite {name}, which --suites does not select")
    results = []
    for name in names:
        suite = CheckSuite(name, cfg.tolerance_overrides.get(name))
        started = time.perf_counter()
        try:
            SUITES[name](suite, cfg)
        except EiskernError as exc:
            exc.args = (f"suite {name}: {exc}",)
            raise
        if os.environ.get("SOURCE_DATE_EPOCH") is None:  # set: byte-identical reports
            suite.wall_time_ms = (time.perf_counter() - started) * 1000.0
        suite.records.sort(key=lambda r: r.inputs)
        results.append(suite)
    return results
