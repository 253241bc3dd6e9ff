"""The result record and the exception types shared by every evaluator in the package,
and the one rule for values that are not doubles.

Complex arguments and results are plain Python ``complex`` throughout the
package; only finite values are admitted into any operation's domain.
"""
import cmath
import functools
from typing import NamedTuple


class Evaluation(NamedTuple):
    """The common result of every series, quadrature and closed-form route: a value
    plus an a posteriori error estimate, the terms or panels it took and its route.

    err_estimate is, for the series engines, the last-term (or last
    extrapolation correction) estimate plus a rounding floor; for quadrature
    the accumulated |K21 - G10| of the accepted panels plus the rounding floor
    eps*|half-width|*sum w_K|f| of each.
    """

    value: complex
    err_estimate: float
    terms_used: int
    route: str


class EiskernError(Exception):
    """Base class for all library errors."""


class PoleError(EiskernError):
    """Argument lies on (or numerically too close to) a pole of the function."""


class DomainError(EiskernError):
    """Argument violates a stated precondition (wrong half-plane, disc, sign, ...)."""


class NonConvergence(EiskernError):
    """A series engine ran out of terms before its tolerance; `partial` is its last Evaluation."""

    def __init__(self, message: str, partial: Evaluation | None = None):
        super().__init__(message)
        self.partial = partial


class QuadratureFailure(EiskernError):
    """Adaptive quadrature hit max_depth before meeting the error target."""


class UnsupportedOrder(EiskernError):
    """A closed form exists only for low orders and a higher one was requested."""


class StepError(EiskernError):
    """Finite-difference step size outside the admissible range."""


class ConfigError(EiskernError):
    """Invalid CLI / suite configuration."""


def doubles_only(message: str):
    """Decorator for a function whose value must be a double: an OverflowError or a
    ZeroDivisionError inside it, a result that is not finite, or an Evaluation whose
    value or err_estimate is not finite becomes DomainError(message), the message
    formatted with the call's arguments by parameter name.  Library errors pass through."""
    def decorate(f):
        names = f.__code__.co_varnames[:f.__code__.co_argcount]

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            try:
                v = f(*args, **kwargs)
                if (cmath.isfinite(v.value) and cmath.isfinite(v.err_estimate)
                        if v.__class__ is Evaluation else cmath.isfinite(v)):
                    return v
            except (OverflowError, ZeroDivisionError):
                pass
            raise DomainError(message.format(**dict(zip(names, args)), **kwargs))

        return wrapper
    return decorate
