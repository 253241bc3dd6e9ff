"""The common result record of every series, quadrature and closed-form route.

Complex arguments and results are plain Python ``complex`` throughout the
package; only finite values are admitted into any operation's domain.
"""
from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple


class Evaluation(NamedTuple):
    """Value plus an a posteriori error estimate and route diagnostics.

    err_estimate is, for the series engines, the last-term (or last
    extrapolation correction) estimate plus a rounding floor; for quadrature
    the accumulated |K21 - G10| of the accepted panels plus the rounding floor
    eps*|half-width|*sum w_K|f| of each.
    """

    value: complex
    err_estimate: float
    terms_used: int
    route: str
    diagnostics: Mapping = MappingProxyType({})
