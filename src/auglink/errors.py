"""Exception hierarchy.

Everything the library raises for bad *input* derives from AuglinkError, so
callers (the CLI in particular) can report per-file failures uniformly.
Programming errors (wrong argument types, impossible states) raise the usual
built-ins instead.
"""

from __future__ import annotations


class AuglinkError(Exception):
    """Base class for all input and domain errors raised by this package."""


class DiagramSyntaxError(AuglinkError):
    """The input text is not well-formed (position reported when known)."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class InvalidDiagramError(AuglinkError):
    """The input parses but violates a diagram invariant."""


class RegionError(AuglinkError):
    """A twist-region annotation or detected region is unusable."""


class NonAlternatingRegionError(RegionError):
    """A 2-strand chain mixes signs and must be reduced first."""


class AugmentError(AuglinkError):
    """The diagram/selection pair cannot be augmented."""


class ExportError(AugmentError):
    """The augmented link could not be laid out as a planar diagram."""


class GeometryError(AuglinkError):
    """A bound or certificate was queried outside its domain."""
