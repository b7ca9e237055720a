"""Exception types shared across the package, and the seeded generator that raises one."""

import numpy as np


class DelibError(Exception):
    """Base class for every error raised by this package."""


class IdentityError(DelibError):
    """An operation referenced an unknown or inactive participant or idea."""


class ParameterError(DelibError):
    """An argument or configuration value is outside its allowed range."""


class UndefinedRateError(ParameterError):
    """A completion rate was requested over an empty matrix."""


class CapacityError(DelibError):
    """An exact computation would exceed its enumeration cap."""


class NumericalError(DelibError):
    """A linear-algebra routine failed on its input."""


class FormatError(DelibError):
    """An input file does not conform to the expected format."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where += f" (line {line}"
            where += f", column {column})" if column is not None else ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


class FrozenMatrixError(DelibError):
    """A mutation was attempted on a matrix snapshot."""


def _seeded_rng(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)``; a seed it refuses, such as a negative one, raises ``ParameterError``."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}") from None
