"""Exception types shared across the package."""

import numpy as np


class DomainError(ValueError):
    """Invalid input: a documented precondition or schema is violated."""


class SolverError(RuntimeError):
    """Numerical failure inside a solver (lost bracketing, residual blow-up)."""


def as_floats(values, message: str) -> np.ndarray:
    """``values`` as a float array; numbers beyond the float range raise ``DomainError``."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise DomainError(message) from None
