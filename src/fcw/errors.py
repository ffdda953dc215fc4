"""Exception hierarchy shared by the whole package."""

from __future__ import annotations


class FCWError(Exception):
    """Base class for all domain errors (CLI exit code 1)."""


class ParseError(FCWError):
    """Malformed input document or datum file (CLI exit code 2)."""


class ValidationError(FCWError):
    """A complex (or supplied boundary data) breaks a structural invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class WeightTooLong(FCWError):
    """A weight longer than a document may hold cannot be written."""


class NonIntegerCoefficient(FCWError):
    """mod2 requires every coefficient to be an integer."""


class EulerMismatch(FCWError):
    """Matching number needs both complexes to share the same t=1 Euler value."""


class UnsupportedCell(FCWError):
    """A finite-weight 0-cell has no attaching sphere."""


class NegativeWeight(FCWError):
    """Linearization entries must carry nonnegative weights."""


class InvalidBoundaries(FCWError):
    """User-supplied attaching data fails complex validation."""
