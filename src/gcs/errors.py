"""The toolkit's one exception hierarchy, and the number and size checks.

Every fault the toolkit detects raises a GcsError, which the CLI reports as
one "gcs: error:" line with exit status 2. Bad input raises DomainError, or
DimensionMismatch where shapes disagree; a run that fails on valid input,
such as recovery whose every restart hit a nonfinite objective, raises
GcsError itself.
"""

import math
import sys
from numbers import Integral, Real

import numpy as np


class GcsError(Exception):
    """Base class for all toolkit errors; raised itself for a failed run."""


class DimensionMismatch(GcsError):
    pass


class DomainError(GcsError):
    pass


def check_number(name: str, value, least=None, *, integer=False, positive=False) -> None:
    """Raise DomainError, "<name> must be <rule>, got <value>", naming the
    first rule value breaks: it is not a bool, and is an integer where
    integer is set and else a finite real; it is > 0 where positive is set,
    and >= least where least is given.

    abs(value) <= float max is false for NaN and +-inf and, unlike
    math.isfinite, does not overflow on a Python int too large for a float.
    """
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        rule = "an integer" if integer else "a number"
    elif not (integer or abs(value) <= sys.float_info.max):
        rule = "finite"
    elif positive and not value > 0:
        rule = "positive"
    elif least is not None and not value >= least:
        rule = f">= {least}"
    else:
        return
    raise DomainError(f"{name} must be {rule}, got {value!r}")


def check_counts(**counts: int) -> None:
    """Raise DomainError naming the first count that is not an integer >= 1."""
    for name, value in counts.items():
        check_number(name, value, 1, integer=True)


def check_array_size(what: str, *shape: int) -> None:
    """Raise DomainError, "<what> float64 entries exceed the largest array
    numpy can hold", where a float64 array of this shape would; callers check
    before they allocate, since numpy's own error is a ValueError."""
    if math.prod(int(d) for d in shape) * 8 > np.iinfo(np.intp).max:
        raise DomainError(f"{what} float64 entries exceed the largest array numpy can hold")
