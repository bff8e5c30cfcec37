"""Exception types shared across the library, and the integer checks that
raise one."""

import numpy as np


class TtspectralError(Exception):
    """Base class for all errors raised by this library."""


class ShapeError(TtspectralError, ValueError):
    """Operand shapes, axis counts, or element counts are incompatible."""


class DomainError(TtspectralError, ValueError):
    """Arguments lie outside an operation's mathematical domain."""


class NumericError(TtspectralError, ArithmeticError):
    """A numerical routine failed to converge or hit non-finite values."""


class DivergenceError(NumericError):
    """Gradient descent diverged; try a smaller learning rate."""


class BindingError(TtspectralError, ValueError):
    """Plan execution received missing or mismatched node data."""


class FileFormatError(TtspectralError, ValueError):
    """A matrix or parameter file is malformed."""


def check_integer(name: str, value, low: int | None = None) -> None:
    """Reject a bool, a non-integer (an integral float too) and, given
    ``low``, a value below it, naming ``name``; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")


def check_integers(name: str, values) -> tuple[int, ...]:
    """:func:`check_integer` on each value; the values as Python ints."""
    values = tuple(values)
    for value in values:
        check_integer(name, value)
    return tuple(map(int, values))
