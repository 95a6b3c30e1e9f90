"""Reference evaluations that the package does not ship: the subset expansion.

The D-optimality objective ``det(X' W X)`` is an order-``d`` homogeneous
polynomial in the allocation (Cauchy-Binet): every ``d``-row subset
contributes ``det(X[rows])^2 * prod(w[rows])`` times the product of the
corresponding ``p``'s. Summed term by term, it stays accurate where the
dense determinant loses all accuracy, e.g. for weights spanning many decades.
"""

import itertools

import numpy as np

from glmdopt import Allocation, DomainError

#: largest n for which objective_expansion enumerates the C(n, d) row subsets
EXPANSION_MAX_POINTS = 20


def objective_expansion(problem):
    """All d-row subsets with their objective coefficients.

    Returns ``[(rows, coeff), ...]`` where ``coeff = det(X[rows])^2 *
    prod(w[rows])``, so that ``sum(coeff * prod(p[rows]))`` over the list
    equals ``objective_det``. Guarded by ``EXPANSION_MAX_POINTS`` because
    the subset count grows as C(n, d).
    """
    n, d = problem.X.shape
    if n > EXPANSION_MAX_POINTS:
        raise DomainError(f"expansion too large: n={n} exceeds the guard {EXPANSION_MAX_POINTS}")
    terms = []
    for rows in itertools.combinations(range(n), d):
        minor = np.linalg.det(problem.X[list(rows), :])
        terms.append((rows, minor * minor * float(np.prod(problem.w[list(rows)]))))
    return terms


def expansion_value(terms, p) -> float:
    """Evaluate an expansion returned by :func:`objective_expansion` at p."""
    arr = p.p if isinstance(p, Allocation) else np.asarray(p, dtype=float)
    return sum(coeff * float(np.prod(arr[list(rows)])) for rows, coeff in terms)
