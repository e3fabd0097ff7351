"""Exception types shared across the package."""

__all__ = [
    "SalpeterBoundsError",
    "DomainError",
    "ConvergenceError",
    "DivergentNormError",
    "PotentialClassError",
]


class SalpeterBoundsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SalpeterBoundsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(SalpeterBoundsError, RuntimeError):
    """An iterative computation failed to reach its requested tolerance."""


class DivergentNormError(SalpeterBoundsError, ValueError):
    """A requested L^s norm of a potential's negative part is infinite."""


class PotentialClassError(SalpeterBoundsError, ValueError):
    """The potential admits no usable exponent q: it is out of the bound's class."""
