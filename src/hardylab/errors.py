"""Structured exception hierarchy.

Every failure mode callers are expected to branch on gets its own class;
all of them derive from HardyLabError so a CLI or test harness can catch
the whole family at once.
"""


class HardyLabError(Exception):
    """Base class for all structured errors raised by this package."""


class MalformedPartition(HardyLabError):
    """Breakpoints are not strictly increasing from 0 to infinity."""


class NegativityDetected(HardyLabError):
    """A function required to be nonnegative evaluated below -tol at a sample."""

    def __init__(self, message, x=None, value=None):
        super().__init__(message)
        self.x = x
        self.value = value


class LogPowerCapExceeded(HardyLabError):
    """An operation would raise a log power beyond the supported cap."""


class DivergentAtZero(HardyLabError):
    """The cumulative integral from 0 does not exist (exponent <= -1)."""


class DivergentAtInfinity(HardyLabError):
    """The tail integral of f(t)/t does not exist (exponent >= 0)."""


class NotMonotone(HardyLabError):
    """A nonincreasing function was required but the input increases somewhere."""


class NormDiverges(HardyLabError):
    """An Lp norm is infinite by the leading-exponent test at 0 or infinity."""


class NotConverged(HardyLabError):
    """Quadrature could not meet its error budget within the subdivision cap.

    Carries the best-effort partial result (a QuadResult whose err misses
    the budget) when one is available.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class BadExponent(HardyLabError):
    """An Lebesgue exponent outside (1, infinity) was supplied."""


class BadTolerance(HardyLabError):
    """A quadrature tolerance that is NaN or not positive was supplied."""


class DegenerateInput(HardyLabError):
    """The input function is a.e. zero, so a norm ratio is undefined."""


class EpsOutOfRange(HardyLabError):
    """The family parameter eps lies outside the validity range of the family."""


class InsufficientData(HardyLabError):
    """Not enough converged sweep records for extrapolation."""


class JumpDiscontinuity(HardyLabError):
    """A downward jump prevents the density transform; mollify first."""

    def __init__(self, message, x=None):
        super().__init__(message)
        self.x = x


class NoDecayAtInfinity(HardyLabError):
    """The function does not tend to 0 at infinity."""


class NotRepresentable(HardyLabError, ValueError):
    """The exact result of an operation leaves the power-log atom algebra,
    or an atom's coefficient or exponent is not finite (say, it overflowed)."""


class EquivalenceViolated(HardyLabError):
    """An identity that must hold analytically failed numerically (a bug)."""

    def __init__(self, message, x=None, gap=None):
        super().__init__(message)
        self.x = x
        self.gap = gap


class ParseError(HardyLabError):
    """The function DSL text could not be parsed."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
