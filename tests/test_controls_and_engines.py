"""The result record, the quadrature rule, engine guards at the fixed
budgets and reproducible suite runs."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from eiskern import (Evaluation, NonConvergence, PoleError, QuadratureFailure,
                     eisenstein_direct, eisenstein_integral, mathieu_E,
                     omega_pv_hilbert, omega_quadrature)
from eiskern.quadrature import _WS, _XS, adaptive_quad
from eiskern.suites import REPORT_ONLY, SUITES, SuiteConfig, run_suites


def test_evaluation_diagnostics_default():
    ev = Evaluation(1 + 0j, 0.0, 3, "test")
    assert ev.diagnostics == {}


def test_gauss_legendre_rule():
    x, w = np.polynomial.legendre.leggauss(20)
    assert all(type(v) is float for v in _XS + _WS)
    assert max(abs(a - b) for a, b in zip(_XS, x)) <= 1e-15
    assert max(abs(a - b) for a, b in zip(_WS, w)) <= 1e-14
    for k in range(40):  # exact for polynomials of degree <= 2n - 1
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(sum(wi * xi ** k for xi, wi in zip(_XS, _WS)) - exact) <= 1e-14


def test_adaptive_quad_basics():
    v, err, panels = adaptive_quad(lambda t: math.exp(-t), 0.0, 5.0)
    assert v.real == pytest.approx(1.0 - math.exp(-5.0), rel=1e-12)
    assert err >= 0 and panels >= 2
    assert type(v) is complex
    for ev in (omega_quadrature(1.0), omega_quadrature(60.0), eisenstein_integral(2, 0.3),
               mathieu_E(1.0), omega_pv_hilbert(2.0 + 1j)):
        assert type(ev.value) is complex


def test_adaptive_quad_failure_on_depth():
    # the cusp keeps its bisected panels off budget down to the depth cap
    with pytest.raises(QuadratureFailure):
        adaptive_quad(lambda t: abs(t - 0.3537) ** 0.2, 0.0, 1.0)


def test_direct_nonconvergence_far_from_real_axis():
    # the tail of sum (z+k)^-2 only settles once N >> |Im z|; 16384 terms are too few
    with pytest.raises(NonConvergence):
        eisenstein_direct(2, 0.3 + 30j)


def test_integral_pole_guard():
    with pytest.raises(PoleError):
        eisenstein_integral(2, 3.0)


def test_run_suites_reproducible(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    names = ["bstar.values", "omega.moments", "eisenstein.product"]
    first = run_suites(SuiteConfig(), names)
    second = run_suites(SuiteConfig(), names)
    a = json.dumps([s.to_json() for s in first])
    b = json.dumps([s.to_json() for s in second])
    assert a == b


def test_run_suites_owns_report_only_and_timing(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    results = run_suites(SuiteConfig(), list(SUITES))
    assert {s.name for s in results if s.report_only} == REPORT_ONLY
    for s in results:
        assert s.wall_time_ms == 0.0
        assert s.pass_count == sum(r.passed for r in s.records)
        assert s.pass_count + s.fail_count == len(s.records) > 0
