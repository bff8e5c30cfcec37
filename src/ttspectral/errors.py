"""Exception types shared across the library."""


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
