"""Exception types shared by every evaluator in the package."""
from .controls import Evaluation


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
