"""Exception types shared across the library.

Two families matter to callers: :class:`DomainError` subclasses signal a
rejected input (the CLI maps them to exit code 2), while
:class:`InvariantViolation` signals an internal consistency failure and is
never raised on well-formed inputs.
"""

from __future__ import annotations


class HnlabError(Exception):
    """Base class for all library errors."""


class DomainError(HnlabError):
    """An input violates a documented precondition."""


class EmptyInput(DomainError):
    """A generator list was empty."""


class InvalidGenerator(DomainError):
    """A generator was not a positive integer or exceeded the configured cap."""


class NonCofinite(DomainError):
    """The generators have gcd > 1, so they do not span a numerical semigroup."""


class NotMember(DomainError):
    """An element required to lie in the semigroup does not."""


class UnsupportedMultiplicity(DomainError):
    """A cover query asked for a multiplicity other than the base's own."""


class BadMultiplicity(DomainError):
    """A ring multiplicity argument lies outside the supported range."""


class NotInCatalogue(DomainError):
    """The requested (id, n, m) combination is not a catalogued example."""


class DimensionMismatch(DomainError):
    """A weight vector and an exponent vector have different lengths."""


class InconsistentRecord(DomainError):
    """A case record's components do not sum to its stated multiplicity."""


class FrobeniusCapExceeded(DomainError):
    """Enumeration was aborted because the Frobenius number exceeds the cap."""


class InvariantViolation(HnlabError):
    """An internal self-check failed; indicates a bug, not bad input."""
