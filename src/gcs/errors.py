"""Exception types shared across the toolkit, and the count checks."""

from numbers import Integral


class GcsError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(GcsError):
    pass


class RankDeficient(GcsError):
    pass


class NotOrthonormal(GcsError):
    pass


class DomainError(GcsError):
    pass


class InvalidM(GcsError):
    pass


class NoBiases(GcsError):
    pass


class Unsupported(GcsError):
    pass


class DegenerateRange(GcsError):
    pass


class BadMagic(GcsError):
    pass


class TruncatedFile(GcsError):
    pass


class EmptyDataset(GcsError):
    pass


class NonfiniteLoss(GcsError):
    pass


class ZeroSignal(GcsError):
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
