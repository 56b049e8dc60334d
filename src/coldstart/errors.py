"""Exception types shared across the package.

Input and argument problems raise ValueError subclasses (CLI exit code 2),
methodology failures raise MethodologyError subclasses (exit code 3).
"""


class ParseError(ValueError):
    """Malformed input data. Carries the 1-based line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class RatingRangeError(ParseError):
    """A rating value outside the range its scheme allows."""


class EmptyResultError(ValueError):
    """An operation produced an empty result where at least one row is required."""


class MethodologyError(RuntimeError):
    """Base class for failures of the method itself rather than of its inputs."""


class DegenerateModelError(MethodologyError):
    """Cluster structure too degenerate to evaluate (empty clusters, coincident centroids)."""
