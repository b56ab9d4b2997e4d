"""Exception types shared across the library, and the type check of the
fields a caller passes its dataclasses."""

import numpy as np

# Concrete types, so that the check costs no ABC lookup per field.
REAL = (int, float, np.integer, np.floating)
INTEGER = (int, np.integer)


class RdnError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(RdnError):
    """Matrix has a malformed shape or non-finite entries."""


class SpectrumDomainError(RdnError):
    """A scalar function was applied outside the domain of the spectrum."""


class SingularOperator(RdnError):
    """A linear operator that must be invertible is numerically singular."""


class DimMismatch(RdnError):
    """Operands have incompatible dimensions."""


class InvalidPoint(RdnError):
    """A matrix required to be symmetric positive definite is not."""


class StepOverflow(RdnError):
    """An exponential-map step left the numerically representable cone."""


class InvalidRange(RdnError):
    """An invalid (low, high) spectrum range was requested."""


class StationaryOfMerit(RdnError):
    """Zero search direction at a point that is not a singularity."""


def require(kind: tuple[type, ...], **fields) -> None:
    """ValueError naming the first of ``fields`` that is a bool or is not of
    ``kind``: REAL or INTEGER, which take Python's and numpy's numbers."""
    what = "an integer" if kind is INTEGER else "a real number"
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{name} must be {what}, got {value!r}")
