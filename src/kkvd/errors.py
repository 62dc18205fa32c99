"""Exception types raised by the library.

Everything derives from :class:`KKError` so callers (notably the CLI) can
map any library failure to a single error path.
"""

from __future__ import annotations


class KKError(Exception):
    """Base class for all library errors."""


class InvalidLabel(KKError, ValueError):
    """A vertex label is not a positive integer."""


class TooManyVertices(KKError, ValueError):
    """A complex would need more distinct vertices than the mask width allows."""


class SizeMismatch(KKError, ValueError):
    """Faces of different cardinalities where a uniform size is required."""


class OutOfRange(KKError, ValueError):
    """A dimension index outside the valid range for the complex."""


class EmptyComplex(KKError, ValueError):
    """Operation undefined on the complex with no faces at all."""


class FaceNotInComplex(KKError, ValueError):
    """The given face does not belong to the complex."""


class VertexNotInComplex(KKError, ValueError):
    """The given vertex does not belong to the complex."""


class Overflow(KKError, OverflowError):
    """A binomial coefficient or count left the checked 64-bit range."""


class InvalidInput(KKError, ValueError):
    """An argument violates a documented precondition."""


class NotPure(KKError, ValueError):
    """The complex has facets of different dimensions."""


class NotExtremal(KKError, ValueError):
    """The extremal strategy was requested for a non-extremal complex."""


class LimitExceeded(KKError, ValueError):
    """More facets than the configured backtracking limit."""


class BudgetExceeded(KKError, ValueError):
    """More faces or distinct subcomplexes than a fixed budget allows."""


class ParseError(KKError, ValueError):
    """Malformed facet-list or certificate input."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
