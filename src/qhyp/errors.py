"""Exception types shared across the package."""


class QhypError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(QhypError, ValueError):
    """Operands have incompatible shapes."""


class NotSemisimpleError(QhypError):
    """The matrix is not diagonalizable over the quaternions."""


class UnsupportedElementError(QhypError):
    """The operation is not defined for this kind of element (e.g. parabolic)."""


class DegenerateConfigurationError(QhypError, ValueError):
    """A point configuration violates a nondegeneracy precondition."""


class InvalidSpecError(QhypError, ValueError):
    """A generator or profile specification is malformed or inconsistent."""


class NumericalError(QhypError, RuntimeError):
    """A numerical safeguard tripped (ill-conditioning, failed verification)."""
