"""Exception types shared across the package.

Everything derives from :class:`QdimError` so callers can catch one base
class.  The subclasses mirror the failure modes of the public operations:
bad words, degenerate selections, mismatched ambient dimensions, and so on.
All of them are also ``ValueError`` subclasses, so code that predates these
names keeps working.
"""

from __future__ import annotations


class QdimError(ValueError):
    """Base class for all package-specific errors."""


class InvalidWord(QdimError):
    """A symbolic word contains symbols outside ``1..N`` or is malformed."""


class NotStrictSubset(QdimError):
    """A sub-system selection must be a *strict* subset of the level-n words."""


class EmptySelection(QdimError):
    """A sub-system selection must contain at least one word."""


class DimensionError(QdimError):
    """Ambient dimensions of the operands do not match."""


class InvalidInvariantSet(QdimError):
    """The candidate set K is not invariant under the supplied maps."""


class UseD0Path(QdimError):
    """The implicit-equation solver only covers r > 0; use d0_dimension."""


class DegenerateFit(QdimError):
    """A dimension fit could not be formed (zero error or too few points)."""


class NotNormalized(QdimError):
    """An operation requires probability measures (total mass 1)."""
