"""Exception types shared across the package.

Two families matter to callers: usage errors (bad arguments, bad config,
shape or capacity violations) and numerical errors (overflow, domain
violations, degenerate schedules, aborted training).  The CLI maps the
first family to exit code 2 and the second to exit code 3.
"""


class AstroseqError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(AstroseqError, ValueError):
    """An argument violates a documented precondition."""


class ConfigError(AstroseqError, ValueError):
    """A run config or stored run could not be parsed or validated."""


class ShapeError(InvalidArgumentError):
    """Matrix shapes are incompatible for the requested operation."""


class CapacityError(InvalidArgumentError):
    """A token count exceeds the capacity the parameters were built for."""


class DomainError(AstroseqError, ArithmeticError):
    """An input lies outside an operation's numerical domain."""


class NumericalOverflowError(AstroseqError, ArithmeticError):
    """A state variable or model output became non-finite.

    Carries the name of the offending variable so long runs can report
    where the blow-up happened.
    """

    def __init__(self, variable: str, message: str = ""):
        self.variable = variable
        super().__init__(message or f"non-finite values in {variable!r}")


class TapeConsumedError(AstroseqError, RuntimeError):
    """A backward sweep was requested on a tape that an earlier sweep consumed."""


class DegenerateScheduleError(AstroseqError, ArithmeticError):
    """A retention schedule could not be derived (no usable level increments)."""


class TrainingAbortError(AstroseqError, ArithmeticError):
    """Training stopped because gradients became non-finite."""

    def __init__(self, parameter: str, message: str = ""):
        self.parameter = parameter
        super().__init__(message or f"non-finite gradient for parameter {parameter!r}")


USAGE_ERRORS = (InvalidArgumentError, ConfigError)
NUMERICAL_ERRORS = (
    DomainError,
    NumericalOverflowError,
    DegenerateScheduleError,
    TrainingAbortError,
    TapeConsumedError,
)
