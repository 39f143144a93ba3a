"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`RegBridgeError`, so
callers can catch one type at the boundary.  The leaf classes distinguish
the handful of failure modes the command-line driver maps to exit codes.
"""

__all__ = ["RegBridgeError", "SchemaError", "ParseError", "ValidationError",
           "SingularDesignError", "DegenerateModelError",
           "UnsupportedModelError"]


class RegBridgeError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(RegBridgeError):
    """A CSV file does not contain the columns the schema names."""


class ParseError(RegBridgeError):
    """A CSV cell could not be parsed as a finite number."""


class ValidationError(RegBridgeError, ValueError):
    """Arguments or data violate a documented precondition."""


class SingularDesignError(RegBridgeError):
    """The regressor Gram matrix is numerically singular."""


class DegenerateModelError(RegBridgeError):
    """The fit leaves no residual variance, so the statistic is undefined."""


class UnsupportedModelError(RegBridgeError):
    """No closed-form covariance ingredients exist for this model."""
