"""Tests of the benchmark's oracle and of its own bookkeeping.

  python3 -m pytest perfbench/test_oracle.py -q

The oracle is checked against exactly known values and, at generic points,
against independent mpmath formulas that the oracle itself does not use.
"""
from __future__ import annotations

import ast
import json
import os

import pytest
from mpmath import mp

import checks
import layers
import oracle
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def close(a, b, tol=1e-25) -> bool:
    return abs(mp.mpc(a) - mp.mpc(b)) <= tol * max(1, abs(mp.mpc(b)))


def test_exact_values():
    assert close(oracle.hilbert_eisenstein(1, 0), 2j * mp.log(2))
    assert close(oracle.eisenstein(2, 0.5), mp.pi ** 2)
    assert close(oracle.eisenstein(4, 0.5), mp.pi ** 4 / 3)
    assert close(oracle.eisenstein(1, 0.25), mp.pi)
    # Omega(z) = Omega_1 z + O(z^3) with the first moment Omega_1 = log 2 / pi
    assert close(oracle.omega(1e-10) / mp.mpf(1e-10), mp.log(2) / mp.pi, 1e-18)
    assert close(oracle.conj_bernoulli_half(0), -mp.log(2) / mp.pi)
    assert close(oracle.conj_bernoulli_half(1), 9 * mp.zeta(3) / (8 * mp.pi ** 3))
    assert close(oracle.mathieu_alternating(2, 0), mp.mpf(3) / 2 * mp.zeta(3))
    assert close(oracle.riemann_zeta(2.0), mp.pi ** 2 / 6)
    assert close(oracle.dirichlet_eta(1.0), mp.log(2))
    assert close(oracle.gamma(0.5), mp.sqrt(mp.pi))


@pytest.mark.parametrize("z", [0.37 + 0.6j, -1.3 + 0.2j, 2.1 - 1.7j])
def test_hilbert_eisenstein_against_digamma_form(z):
    psi = mp.digamma

    def h1(t):
        return 2j * mp.log(2) + 1j * (psi(1 + 0.5j * t) + psi(1 - 0.5j * t)
                                      - psi(1 + 1j * t) - psi(1 - 1j * t))

    w = mp.mpc(z)
    assert close(oracle.hilbert_eisenstein(1, z), h1(w), 1e-20)
    # the derivative ladder h_r' = -r h_(r+1) gives h_2 = -h_1'
    assert close(oracle.hilbert_eisenstein(2, z), -mp.diff(h1, w), 1e-20)


@pytest.mark.parametrize("z", [3.0, -7.5, 1.5 + 2j, 12.0 + 1j])
def test_omega_against_digamma_form(z):
    w = mp.mpc(z)
    psi = mp.digamma
    closed = mp.sinh(w / 2) / mp.pi * (2 * mp.log(2)
                                       + psi(1 + 1j * w / (4 * mp.pi)) + psi(1 - 1j * w / (4 * mp.pi))
                                       - psi(1 + 1j * w / (2 * mp.pi)) - psi(1 - 1j * w / (2 * mp.pi)))
    assert close(oracle.omega(z), closed, 1e-25)


@pytest.mark.parametrize("r,z", [(1, 0.3 + 0.4j), (3, -1.6 + 0.2j), (6, 0.9 - 1.4j), (2, 0.5 + 9j)])
def test_eisenstein_against_direct_sum(r, z):
    w = mp.mpc(z)
    direct = w ** (-r) + mp.nsum(lambda k: (w + k) ** (-r) + (w - k) ** (-r), [1, mp.inf])
    assert close(oracle.eisenstein(r, z), direct, 1e-20)


def test_large_arguments_are_not_doubles():
    assert not oracle.representable(oracle.gamma(200))
    assert not oracle.representable(oracle.gamma(172 + 1j))
    assert not oracle.representable(oracle.omega(1e4))
    assert not oracle.representable(oracle.omega_bounds(2000.0))
    tiny = oracle.eisenstein(2, 0.5 + 400j)
    assert oracle.representable(tiny) and abs(tiny) < mp.mpf("1e-1000")
    assert oracle.rel_error(0.0, tiny) == 0.0


def test_bounds_bracket_omega():
    for x in (0.3, 2.0, 7.9, -4.0):
        lo, hi = oracle.omega_bounds(x)
        assert lo <= mp.re(oracle.omega(x)) <= hi


def test_digits():
    assert oracle.digits(0.0) == 17.0
    assert abs(oracle.digits(1e-12) - 12.0) < 1e-12


def test_oracle_never_imports_eiskern():
    with open(os.path.join(HERE, "oracle.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(not a.name.startswith("eiskern") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("eiskern")


def test_judge_call():
    o = checks.Oracle()
    op = ("numkern.gamma", (200,), {})
    raw = {"error": "OverflowError", "typed": False, "message": ""}
    typed = {"error": "DomainError", "typed": True, "message": ""}
    assert checks.judge_call(o, op, raw).failed
    assert not checks.judge_call(o, op, typed).failed
    # a typed error where the value is a double is still a failure
    assert checks.judge_call(o, ("numkern.gamma", (5,), {}), typed).failed
    good = checks.judge_call(o, ("numkern.gamma", (5,), {}), {"v": [[24.0, 0.0]]})
    assert not good.failed and good.agrees
    bad = checks.judge_call(o, ("numkern.gamma", (5,), {}), {"v": [[24.1, 0.0]]})
    assert not bad.failed and not bad.agrees


def test_eval_mix_shape_does_not_depend_on_seed():
    a, b = wl.eval_mix_ops(1), wl.eval_mix_ops(99)
    assert [op[0] for op in a] == [op[0] for op in b]
    assert a != b
    assert a == wl.eval_mix_ops(1)
    assert list(a[-len(wl.FAULT_OPS):]) == list(wl.FAULT_OPS)


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == layers.metric_units()
