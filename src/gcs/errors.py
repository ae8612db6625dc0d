"""The toolkit's one exception hierarchy, and the count and size checks.

Every fault the toolkit detects raises a GcsError, which the CLI reports as
one "gcs: error:" line with exit status 2. Bad input raises DomainError, or
DimensionMismatch where shapes disagree; a run that fails on valid input,
such as recovery whose every restart hit a nonfinite objective, raises
GcsError itself.
"""

import math
from numbers import Integral

import numpy as np


class GcsError(Exception):
    """Base class for all toolkit errors; raised itself for a failed run."""


class DimensionMismatch(GcsError):
    pass


class DomainError(GcsError):
    pass


def check_integer(name: str, value) -> None:
    """Raise DomainError unless value is an integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def check_counts(**counts: int) -> None:
    """Raise DomainError naming the first count that is not an integer >= 1."""
    for name, value in counts.items():
        check_integer(name, value)
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value}")


def check_array_size(what: str, *shape: int) -> None:
    """Raise DomainError, "<what> float64 entries exceed the largest array
    numpy can hold", where a float64 array of this shape would; callers check
    before they allocate, since numpy's own error is a ValueError."""
    if math.prod(int(d) for d in shape) * 8 > np.iinfo(np.intp).max:
        raise DomainError(f"{what} float64 entries exceed the largest array numpy can hold")
