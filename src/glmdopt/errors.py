"""Exception types, and the gates for numbers and integers from outside the package."""

import math
import operator

import numpy as np


class DomainError(ValueError):
    """Invalid input: a documented precondition or schema is violated."""


class SolverError(RuntimeError):
    """Numerical failure inside a solver (lost bracketing, residual blow-up)."""


def as_floats(values, message: str) -> np.ndarray:
    """``values`` as a float array: the one gate for numbers from outside the
    package. What does not convert to floats (a ragged array, a non-numeric
    string), a number beyond the float range or a non-finite entry raises
    ``DomainError(message)``."""
    try:
        arr = np.asarray(values, dtype=float)
    except (OverflowError, TypeError, ValueError):
        raise DomainError(message) from None
    if not (math.isfinite(arr) if arr.ndim == 0 else np.isfinite(arr).all()):
        raise DomainError(message)
    return arr


def as_float(value, message: str) -> float:
    """``value`` as a float: :func:`as_floats` for one number. An array that is not
    0-d raises ``DomainError(message)`` too."""
    arr = as_floats(value, message)
    if arr.ndim != 0:
        raise DomainError(message)
    return float(arr)


def as_int(value, message: str, least: int, bound=math.inf) -> int:
    """``value`` as an int in ``[least, bound)``: the one gate for integers from outside
    the package. What ``operator.index`` refuses, a ``bool`` or a value out of range
    raises ``DomainError(message)``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(message) from None
    if isinstance(value, bool) or not least <= count < bound:
        raise DomainError(message)
    return count


def _attempt(solve, *args):
    """``solve(*args)``, or the ``DomainError`` or ``SolverError`` it raises."""
    try:
        return solve(*args)
    except (DomainError, SolverError) as exc:
        return exc


def _one(rows: list):
    """The entry of a one-row result list, raised if it is the row's error."""
    (row,) = rows
    if isinstance(row, Exception):
        raise row
    return row
