"""The toolkit's one exception hierarchy, and the count checks.

Every fault the toolkit detects raises a GcsError, which the CLI reports as
one "gcs: error:" line with exit status 2. Bad input raises DomainError, or
DimensionMismatch where shapes disagree; a run that fails on valid input,
such as recovery whose every restart hit a nonfinite objective, raises
GcsError itself.
"""

from numbers import Integral


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
