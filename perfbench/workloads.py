"""Inputs of the three workloads, generated from the benchmark seed.

Imported by the orchestrator (which also loads the mpmath oracle) and by the
worker (which loads eiskern), so it imports neither.
"""
from __future__ import annotations

import math
import random
import time

WORKLOADS = ("verify-all", "eval-mix", "cli-cold")

# Named explicitly so that a suite added later does not change the work.
SUITES = (
    "numkern.identities", "eisenstein.routes", "eisenstein.properties",
    "eisenstein.product", "he.closed", "he.higher", "he.routes",
    "omega.routes", "omega.symmetry", "omega.moments", "omega.bounds",
    "omega.asymptotic", "omega.ode", "omega.identities", "conj.values",
    "conj.roundtrips", "conj.genfun", "bstar.values", "conjecture.double_sum",
)
REPORT_ONLY_SUITES = ("omega.asymptotic", "conjecture.double_sum")

# (argv, documented exit code).  `eval omega 1e4` is a domain error: Omega(1e4)
# ~ 9e2163 is not a double, and the documented code for that is 2.
CLI_COMMANDS = (
    (("eval", "omega", "1"), 0),
    (("eval", "he", "1", "0"), 0),
    (("eval", "epsilon", "4", "0.37+0.6i"), 0),
    (("table", "conj_bernoulli"), 0),
    (("plotdata", "fig1"), 0),
    (("eval", "omega", "1e4"), 2),
)

# eval-mix calls that fail today with a raw OverflowError.  Each succeeds once
# it returns a finite value that agrees with the oracle, or raises a typed
# EiskernError where the true value is not a double.
FAULT_OPS = (
    ("numkern.gamma", (200,), {}),
    ("numkern.gamma", (172 + 1j,), {}),
    ("omega.omega_digamma", (1e4,), {}),
    ("omega.omega_bounds", (2000.0,), {}),
    ("eisenstein.eisenstein_closed", (2, 0.5 + 400j), {}),
)


def verify_argv(seed: int, out_path: str) -> list[str]:
    return ["verify", "--suites", ",".join(SUITES), "--seed", str(seed), "--out", out_path]


def cli_commands(seed: int) -> list[tuple[tuple[str, ...], int]]:
    """The fixed CLI list in a seed-dependent order (the work is the same)."""
    cmds = list(CLI_COMMANDS)
    random.Random(seed).shuffle(cmds)
    return cmds


# ---------------------------------------------------------------------------
# eval-mix

def _off_nonpositive_integers(x: float, y: float, margin: float = 0.1) -> complex:
    if abs(y) < margin and x < 0.5:
        n = round(x)
        if abs(x - n) < margin:
            x = n + (margin if x >= n else -margin)
    return complex(x, y)


def _off_integers(x: float, margin: float = 0.05) -> float:
    n = round(x)
    if abs(x - n) < margin:
        x = n + (margin if x >= n else -margin)
    return x


def _off_imaginary_integers(z: complex, margin: float = 0.1) -> complex:
    k = round(z.imag)
    if k != 0 and abs(z.imag - k) < margin:
        z = complex(z.real, k + (margin if z.imag >= k else -margin))
    if abs(z) < margin:
        z += margin
    return z


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values, one uniform in each of n equal slices of [lo, hi), in seeded
    order: every seed covers the range alike, so a pass costs about the same."""
    vals = [lo + (j + rng.random()) * (hi - lo) / n for j in range(n)]
    rng.shuffle(vals)
    return vals


def _polar(r: float, phi: float) -> complex:
    return complex(r * math.cos(phi), r * math.sin(phi))


def _plane(rng: random.Random, n: int, re: tuple, im: tuple) -> list[complex]:
    return [complex(x, y) for x, y in zip(_strata(rng, n, *re), _strata(rng, n, *im))]


def _disc(rng: random.Random, n: int, re_max: float, im_max: float) -> list[complex]:
    """Points of the rectangle kept at least 0.2 away from the origin."""
    return [z if abs(z) > 0.2 else z + 0.2
            for z in _plane(rng, n, (-re_max, re_max), (-im_max, im_max))]


def _cells(rng: random.Random, n: int, re: tuple, im: tuple, n_im: int = 5) -> list[complex]:
    """One point in each cell of a fixed (n / n_im) x n_im grid over the
    rectangle, in fixed cell order: the hardest corner is hit by every seed."""
    n_re = n // n_im
    w_re = (re[1] - re[0]) / n_re
    w_im = (im[1] - im[0]) / n_im
    return [complex(re[0] + (j // n_im + rng.random()) * w_re,
                    im[0] + (j % n_im + rng.random()) * w_im) for j in range(n)]


def _kernel_args(rng: random.Random, n: int) -> list[complex]:
    """A third of the arguments lie in Re z < 0 down to -100."""
    k = n // 3
    left = _cells(rng, k, (-100.0, -0.5), (-3.0, 3.0))
    right = _cells(rng, k, (0.05, 40.0), (-20.0, 20.0))
    near = _cells(rng, n - 2 * k, (-0.5, 5.0), (-2.0, 2.0))
    return [_off_nonpositive_integers(z.real, z.imag) for z in left + right + near]


def _gamma_args(rng: random.Random, n: int) -> list[complex]:
    k = n // 3
    left = _cells(rng, k, (-100.0, -0.5), (-3.0, 3.0))
    right = _cells(rng, k, (0.5, 60.0), (-5.0, 5.0))
    real = [complex(x) for x in _strata(rng, n - 2 * k, 0.1, 150.0)]
    return [_off_nonpositive_integers(z.real, z.imag) for z in left + right + real]


def eval_mix_ops(seed: int) -> list[tuple[str, tuple, dict]]:
    """One pass: a seeded list of public-API calls, then the fixed fault inputs.

    The number and kind of calls never depend on the seed, only their
    arguments do, and those are stratified over fixed ranges.  Weights give
    each layer a visible share of the pass: numkern kernels, the
    alternating-sum engine (zeta, eta, he_direct, partial fractions,
    he_taylor, the alternating Mathieu series), adaptive quadrature (Omega,
    eps_r integral, Mathieu E, PV fold) and closed forms.  eisenstein_direct
    (Richardson) is left out on purpose.
    """
    rng = random.Random(seed)
    ops: list[tuple[str, tuple, dict]] = []

    def add(fn: str, *args, **kwargs) -> None:
        ops.append((fn, args, kwargs))

    for z in _kernel_args(rng, 120):
        add("numkern.digamma", z)
    for i, z in enumerate(_kernel_args(rng, 60)):
        add("numkern.polygamma", 1 + i % 4, z)
    for z in _gamma_args(rng, 60):
        add("numkern.gamma", z)
    for s in [2.0, 4.0, 6.0, 8.0] + _strata(rng, 16, 1.2, 12.0):
        add("numkern.riemann_zeta", s)
    for s in _strata(rng, 20, 0.2, 12.0):
        add("numkern.dirichlet_eta", s)

    for i, z in enumerate(_plane(rng, 20, (-0.9, 0.9), (-1.5, 1.5))):
        add("hilbert_eisenstein.he_direct", 1 + i % 4, _off_imaginary_integers(z))
    for z in _disc(rng, 12, 4.5, 2.2):
        add("omega.omega_partial_fraction", z)
    # the term count of the eta-coefficient series is set by |z| alone
    for radius in (0.4, 0.7):
        add("hilbert_eisenstein.he_taylor", _polar(radius, rng.uniform(0.0, 2.0 * math.pi)))
    for r, x in zip(_strata(rng, 12, 0.5, 3.0), _strata(rng, 12, 0.0, 5.0)):
        add("hilbert_eisenstein.mathieu", r, x, True)

    for x in _strata(rng, 6, -30.0, 30.0):
        add("omega.omega_quadrature", complex(x))
    for z in _disc(rng, 6, 4.5, 2.2):
        add("omega.omega_quadrature", z)
    for i, z in enumerate(_plane(rng, 10, (0.05, 0.95), (-1.5, 1.5))):
        add("eisenstein.eisenstein_integral", 1 + i % 6, z + rng.randint(-2, 2),
            form="hyperbolic" if i % 2 else "exponential")
    for x in _strata(rng, 10, -3.0, 3.0):
        add("hilbert_eisenstein.mathieu_E", x)
    for z in _disc(rng, 10, 4.5, 2.2):
        add("omega.omega_pv_hilbert", z)

    for i, z in enumerate(_plane(rng, 20, (-3.0, 3.0), (-2.0, 2.0))):
        add("eisenstein.eisenstein_closed", 1 + i % 3, complex(_off_integers(z.real), z.imag))
    for i, z in enumerate(_plane(rng, 20, (-3.0, 3.0), (-2.0, 2.0))):
        add("eisenstein.eisenstein_polygamma", 1 + i % 6, complex(_off_integers(z.real), z.imag))
    for i, z in enumerate(_plane(rng, 20, (-3.0, 3.0), (-3.0, 3.0))):
        add("hilbert_eisenstein.he_closed", 1 + i % 5, _off_imaginary_integers(z))
    for i, x in enumerate(_strata(rng, 10, -3.0, 3.0)):
        add("hilbert_eisenstein.he_real", 1 + i % 4, x)
    for x in _strata(rng, 6, -40.0, 40.0):
        add("omega.omega_digamma", complex(x))
    for z in _disc(rng, 6, 4.5, 2.2):
        add("omega.omega_digamma", z)
    for z in _disc(rng, 12, 10.0, 6.0):
        add("omega.omega_eval", z)
    for x in _strata(rng, 6, 0.1, 8.0):
        add("omega.omega_bounds", x if rng.random() < 0.5 else -x)
    for i, z in enumerate(_disc(rng, 10, 4.5, 2.2)):
        add("omega.omega_taylor", z, "moments" if i % 2 else "eta")
    first = rng.randrange(9)
    for i in range(10):
        add("conj_bernoulli.conj_bernoulli_half", (first + i) % 9, "zeta" if i % 2 else "eta")
    for m in (1, 2, 3, 4):
        add("conj_bernoulli.zeta_odd_via_conj", m)

    ops.extend(FAULT_OPS)
    return ops


# ---------------------------------------------------------------------------
# host-speed reference

def reference_loop_seconds() -> float:
    """Time a fixed pure-Python loop; its speed tells a slow host phase apart
    from a slow program.  Recorded beside the metrics, never as one."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed
