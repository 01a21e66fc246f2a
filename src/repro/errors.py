"""Exception hierarchy for the ``repro`` library.

All exceptions raised by the library derive from :class:`ReproError`, so a
caller can catch every library-specific failure with a single ``except``
clause while still letting genuine programming errors (``TypeError`` and
friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class PolynomialError(ReproError):
    """Raised for invalid polynomial operations (e.g. division by a non-constant)."""


class ParseError(ReproError):
    """Raised when program source text cannot be tokenized or parsed.

    Attributes
    ----------
    line, column:
        1-based position of the offending token, when available.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)


class ValidationError(ReproError):
    """Raised when a parsed program violates the syntactic assumptions of Appendix A."""


class SemanticsError(ReproError):
    """Raised by the interpreter for runtime failures (e.g. calling an unknown function)."""


class SpecificationError(ReproError):
    """Raised for malformed pre-conditions, post-conditions or objectives."""


class SynthesisError(ReproError):
    """Raised when the invariant-synthesis pipeline receives inconsistent inputs."""


class SolverError(ReproError):
    """Raised when a Step-4 solver fails in a way that is not simply 'infeasible'."""
