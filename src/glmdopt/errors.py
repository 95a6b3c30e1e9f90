"""Exception types shared across the package."""

import numpy as np


class DomainError(ValueError):
    """Invalid input: a documented precondition or schema is violated."""


class SolverError(RuntimeError):
    """Numerical failure inside a solver (lost bracketing, residual blow-up)."""


def as_floats(values, message: str) -> np.ndarray:
    """``values`` as a float array: the one gate for numbers from outside the
    package. A number beyond the float range or a non-finite entry raises
    ``DomainError(message)``."""
    try:
        arr = np.asarray(values, dtype=float)
    except OverflowError:
        raise DomainError(message) from None
    if not np.isfinite(arr).all():
        raise DomainError(message)
    return arr
