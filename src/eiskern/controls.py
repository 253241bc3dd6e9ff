"""Control knobs and the common result record for series and quadrature engines.

Complex arguments and results are plain Python ``complex`` throughout the
package; only finite values are admitted into any operation's domain.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class SumControl:
    """Budget for symmetric / alternating summation.

    max_terms caps the largest index touched, rel_tol is the relative target
    for the truncation part of the a posteriori error estimate (Richardson
    stops once its tableau diagonal moves by at most rel_tol, CRVZ and the
    epsilon algorithm accept once their estimate meets it).
    """

    max_terms: int = 200_000
    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.max_terms < 8:
            raise ValueError("max_terms must be >= 8")
        if self.rel_tol < 16 * _EPS:
            raise ValueError("rel_tol must be >= 16*machine epsilon")


@dataclass(frozen=True)
class QuadControl:
    """Budget for adaptive quadrature on 20-point Gauss-Legendre panels.

    The error budget max(abs_tol, rel_tol * |one-panel estimate|) is halved
    at each bisection; max_depth caps how often a panel may be bisected.
    """

    max_depth: int = 28
    abs_tol: float = 1e-12
    rel_tol: float = 1e-11

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class Evaluation:
    """Value plus an a posteriori error estimate and route diagnostics.

    err_estimate follows one convention everywhere: for series it is the
    last-term (or last extrapolation correction) estimate, plus a rounding
    floor for the series engines; for quadrature the accumulated
    two-level panel difference.  It is a cheap conservative bound, not a
    guess.
    """

    value: complex
    err_estimate: float
    terms_used: int
    route: str
    diagnostics: dict = field(default_factory=dict)


DEFAULT_SUM = SumControl()
DEFAULT_QUAD = QuadControl()
