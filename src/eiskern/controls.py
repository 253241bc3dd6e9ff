"""The common result record of every series, quadrature and closed-form route.

Complex arguments and results are plain Python ``complex`` throughout the
package; only finite values are admitted into any operation's domain.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Evaluation:
    """Value plus an a posteriori error estimate and route diagnostics.

    err_estimate is, for the series engines, the last-term (or last
    extrapolation correction) estimate plus a rounding floor; for quadrature
    the accumulated two-level panel difference, which has no rounding floor
    and so can underclaim where rounding dominates.
    """

    value: complex
    err_estimate: float
    terms_used: int
    route: str
    diagnostics: dict = field(default_factory=dict)

