"""Exception types shared across the package."""

from __future__ import annotations


class CesaroSpacesError(Exception):
    """Base class for all package-specific errors."""


class DomainMismatchError(CesaroSpacesError):
    """Two objects were combined but live on different underlying intervals."""


class EvaluationDomainError(CesaroSpacesError):
    """A function was evaluated outside its domain or at a singular point."""


class RepresentationError(CesaroSpacesError):
    """An exact operation left the closed representation family.

    Raised e.g. when a piece would exceed the term budget, or when an
    exact integral cancels below its rounding bound.
    """


class UndefinedIntegralError(CesaroSpacesError):
    """An exact integral produced divergences of both signs."""


class TransformUndefinedError(CesaroSpacesError):
    """The averaging transform is undefined (non-integrable near zero)."""


class NotRearrangeableError(CesaroSpacesError):
    """Every super-level set of the function has infinite measure."""


class ValidationError(CesaroSpacesError):
    """A declared parameter object failed its structural checks."""


class NotInSpaceError(CesaroSpacesError):
    """A point test was requested for a function outside the space."""


class InvalidFamilyError(CesaroSpacesError):
    """A vanishing-set family is not decreasing or not null-intersecting."""


class ParseError(CesaroSpacesError):
    """A structured document could not be parsed."""


class MethodInapplicableError(CesaroSpacesError):
    """The requested method does not apply to the given input class."""
