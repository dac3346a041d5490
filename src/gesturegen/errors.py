"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError (and
subclasses), ShapeError, GeometryError and OSError -> 3, NumericalError -> 4.
"""


class GestureGenError(Exception):
    """Base class for all package errors."""


class ShapeError(GestureGenError):
    """Array dimensions incompatible with the requested operation."""


class ConfigError(GestureGenError):
    """Invalid configuration value or combination."""


class DataError(GestureGenError):
    """Dataset-level problem: missing files, mismatched corpora, bad labels."""


class ParseError(DataError):
    """Malformed input file. Carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GeometryError(GestureGenError):
    """Rotation-matrix input violates orthonormality tolerances."""


class NumericalError(GestureGenError):
    """Non-finite value encountered where finite math was required."""
