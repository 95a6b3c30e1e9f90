"""Design-problem types and the D-optimality objective.

A design problem is a fixed matrix ``X`` of candidate design points (rows;
first column all ones) together with positive information weights ``w``.
The decision variable is an allocation ``p`` on the rows, and the objective
is ``det(X' W X)`` with ``W = diag(p_i * w_i)``.

The determinant is also an order-``d`` homogeneous polynomial in ``p``:
every ``d``-row subset contributes ``det(X[rows])^2 * prod(w[rows])`` times
the product of the corresponding ``p``'s. The analytic solvers evaluate their
reduced (v-form) objectives and sensitivities with
:func:`vform_log_sensitivities`, and lift-one works from the sensitivities of
``X' W X``; the dense determinant and the subset expansion serve as
references for cross-checks only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SolverError
from .weights import WeightFunction

#: decimals used to canonicalize rows before exact duplicate comparison
ROW_DECIMALS = 12

#: simplex feasibility tolerances for allocations
ALLOC_NEG_TOL = 1e-12
ALLOC_SUM_TOL = 1e-12
#: a leave-one-out minor counts as zero below this fraction of the largest |minor|
MINOR_ZERO_REL = 1e-12
EPS = float(np.finfo(float).eps)
#: largest n for which objective_expansion enumerates the C(n, d) row subsets
EXPANSION_MAX_POINTS = 20


@dataclass(frozen=True)
class Allocation:
    """A probability vector over the design points.

    Entries within ``-1e-12`` of zero are clamped to exact zeros; the sum
    must equal one within ``1e-12``.
    """

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float).reshape(-1).copy()
        if not np.all(np.isfinite(arr)):
            raise DomainError("allocation entries must be finite")
        if np.any(arr < -ALLOC_NEG_TOL):
            raise DomainError(f"allocation entries must be nonnegative, got min {arr.min()!r}")
        arr[arr < 0.0] = 0.0
        if abs(arr.sum() - 1.0) > ALLOC_SUM_TOL:
            raise DomainError(f"allocation must sum to 1 within {ALLOC_SUM_TOL}, got {arr.sum()!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    def __len__(self) -> int:
        return self.p.size

    @classmethod
    def uniform(cls, n: int) -> "Allocation":
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class SolveReport:
    """Solver output: allocation, objective value, dispatch label, diagnostics."""

    allocation: Allocation
    objective: float
    case_label: str
    diagnostics: dict = field(default_factory=dict)


def _as_prob_vector(p, n: int) -> np.ndarray:
    arr = p.p if isinstance(p, Allocation) else np.asarray(p, dtype=float)
    if arr.shape != (n,):
        raise DomainError(f"allocation has shape {arr.shape}, expected ({n},)")
    return arr


@dataclass(frozen=True)
class DesignProblem:
    """Candidate design points, model parameters, and derived weights.

    ``w`` may be supplied directly (bypassing ``beta``/``weight_fn``) when the
    weights are known; otherwise it is derived as ``weight_fn(X @ beta)``.
    Rows must be distinct after rounding to ``ROW_DECIMALS`` decimals and the
    first column must be all ones.
    """

    X: np.ndarray
    beta: np.ndarray | None = None
    weight_fn: WeightFunction | None = None
    w: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2:
            raise DomainError("X must be a 2-d matrix")
        n, d = X.shape
        if n < d:
            raise DomainError(f"need at least as many design points as model terms, got {n} < {d}")
        if not np.all(np.isfinite(X)):
            raise DomainError("X must be finite")
        if not np.all(X[:, 0] == 1.0):
            raise DomainError("first column of X must be all ones (intercept)")
        canon = np.round(X, ROW_DECIMALS)
        if len({tuple(row) for row in canon}) != n:
            raise DomainError("rows of X must be distinct")
        X = X.copy()
        X.flags.writeable = False
        object.__setattr__(self, "X", X)

        beta = self.beta
        if beta is not None:
            beta = np.asarray(beta, dtype=float).reshape(-1)
            if beta.shape != (d,):
                raise DomainError(f"beta has length {beta.size}, expected {d}")
            if not np.all(np.isfinite(beta)):
                raise DomainError("beta must be finite")
            beta = beta.copy()
            beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)

        if self.w is None:
            if beta is None or self.weight_fn is None:
                raise DomainError("provide either w or both beta and weight_fn")
            w = np.asarray(self.weight_fn(X @ beta), dtype=float)
        else:
            w = np.asarray(self.w, dtype=float).reshape(-1).copy()
        if w.shape != (n,):
            raise DomainError(f"w has length {w.size}, expected {n}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise DomainError("weights must be positive and finite")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def n_points(self) -> int:
        return self.X.shape[0]

    @property
    def n_terms(self) -> int:
        return self.X.shape[1]


def objective_det(problem: DesignProblem, p) -> float:
    """det(X' W X) with W = diag(p_i * w_i), via pivoted elimination.

    A reference for tests and cross-checks. It loses all accuracy once the
    weights span many decades, so the solvers carry their objectives in log
    space instead.
    """
    arr = _as_prob_vector(p, problem.n_points)
    scaled = problem.X * (arr * problem.w)[:, None]
    return float(np.linalg.det(problem.X.T @ scaled))


def leave_one_out_minors(X):
    """``(minors, zero)`` of an (n, n-1) X: ``minors[i] = det(X without row i)``.

    One stacked ``np.linalg.det`` call. When X, its columns scaled to unit
    norm, has numerical rank below n-1, every minor is roundoff and ``zero``
    flags them all; otherwise it flags the minors at most ``MINOR_ZERO_REL``
    times the largest ``|minor|``. Neither test depends on how the factor
    levels are coded.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    cols = np.arange(n - 1)
    keep = cols + (cols >= np.arange(n)[:, None])  # row i skips index i
    minors = np.linalg.det(X[keep])
    # by Cauchy-Binet, vol2 is the squared volume of X with unit columns, so its
    # sigma_min^2 >= vol2 / (n-1)^(n-2); the SVD runs only when that bound does
    # not clear matrix_rank's tolerance n * eps * sigma_max <= n * eps * sqrt(n-1)
    colsq = np.einsum("ij,ij->j", X, X)
    vol2 = float(minors @ minors) / math.prod(colsq.tolist())
    certified = vol2 > 0.0 and math.log(vol2) > 2.0 * math.log(n * EPS) + (n - 1) * math.log(n - 1)
    if not certified and np.linalg.matrix_rank(X / np.sqrt(colsq)) < n - 1:
        return minors, np.ones(n, dtype=bool)
    zero = np.abs(minors) <= MINOR_ZERO_REL * np.max(np.abs(minors))
    return minors, zero


def objective_expansion(problem: DesignProblem):
    """All d-row subsets with their objective coefficients.

    Returns ``[(rows, coeff), ...]`` where ``coeff = det(X[rows])^2 *
    prod(w[rows])``, so that ``sum(coeff * prod(p[rows]))`` over the list
    equals :func:`objective_det`. Guarded by ``EXPANSION_MAX_POINTS`` because
    the subset count grows as C(n, d).
    """
    n, d = problem.X.shape
    if n > EXPANSION_MAX_POINTS:
        raise DomainError(f"expansion too large: n={n} exceeds the guard {EXPANSION_MAX_POINTS}")
    terms = []
    for rows in itertools.combinations(range(n), d):
        sub = problem.X[list(rows), :]
        minor = np.linalg.det(sub)
        coeff = minor * minor * float(np.prod(problem.w[list(rows)]))
        terms.append((rows, coeff))
    return terms


def expansion_value(terms, p) -> float:
    """Evaluate an expansion returned by :func:`objective_expansion` at p."""
    arr = p.p if isinstance(p, Allocation) else np.asarray(p, dtype=float)
    total = 0.0
    for rows, coeff in terms:
        total += coeff * float(np.prod(arr[list(rows)]))
    return total


def vform_log_sensitivities(v, p):
    """``(log f, d)`` for the v-form ``f(p) = sum_j v_j * prod_{i != j} p_i``.

    ``d_i = df/dp_i / f`` are the Kiefer-Wolfowitz sensitivities of the design
    problem this reduced objective stands for, and ``sum_i p_i d_i = n - 1``
    (Euler), so ``max_i d_i / (n - 1) - 1`` is its equivalence gap. Every
    product is a leave-one-out or leave-two-out product of prefix and suffix
    products, O(n^2) in all, so zero entries of ``p`` are handled exactly.
    Where ``f`` is zero, ``log f`` is ``-inf`` and ``d`` is not finite.
    """
    varr = np.asarray(v, dtype=float)
    parr = p.p if isinstance(p, Allocation) else np.asarray(p, dtype=float)
    if varr.ndim != 1 or varr.shape != parr.shape:
        raise DomainError("v and p must have the same length")
    n = parr.size
    # row 0 is (v, p); row 1 + i has v_i = 0 and p_i = 1, so its leave-one-out
    # sum is the leave-two-out sum df/dp_i
    marked = np.eye(n + 1, n, -1, dtype=bool)
    P = np.where(marked, 1.0, parr)
    # exclusive prefix products (layer 0) and reversed suffix products (layer 1)
    ends = np.ones((2, n + 1, n))
    ends[0, :, 1:] = P[:, :-1]
    ends[1, :, 1:] = P[:, :0:-1]
    cp = np.cumprod(ends, axis=2)
    sums = np.sum(np.where(marked, 0.0, varr) * cp[0] * cp[1, :, ::-1], axis=1)
    f, grad = sums[0], sums[1:]
    if f > 0.0:
        return math.log(f), grad / f
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.log(f)), grad / f


def vform_objective(v, p) -> float:
    """Reduced objective ``sum_j v_j * prod_{i != j} p_i`` for n nonnegative coefficients."""
    return safe_exp(vform_log_sensitivities(v, p)[0])


def safe_exp(x: float) -> float:
    """``exp(x)``, returning ``inf`` instead of raising past the float range."""
    with np.errstate(over="ignore"):
        return float(np.exp(x))


def _bisect_root(fn, lo: float, hi: float, max_iter: int = 200):
    """Bisect a sign change of fn on [lo, hi]; returns (root, iterations)."""
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo, 0
    if fhi == 0.0:
        return hi, 0
    if flo * fhi > 0.0:
        raise SolverError(f"bisection bracket lost: f({lo})={flo}, f({hi})={fhi}")
    it = 0
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid, it
        if (fm > 0.0) == (fhi > 0.0):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), it


def build_model_matrix(points, terms="main-effects") -> np.ndarray:
    """Model matrix from factor-level points and a term recipe.

    ``points`` is (n, k) factor levels. ``terms`` is either the string
    ``"main-effects"`` (intercept plus one column per factor) or an explicit
    list of factor-index tuples, one per column, where the empty tuple is the
    intercept and must come first; a tuple like (0, 2) yields the product
    column ``x1 * x3``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, k = pts.shape
    if isinstance(terms, str):
        if terms != "main-effects":
            raise DomainError(f"unknown term spec {terms!r}")
        recipe = [()] + [(j,) for j in range(k)]
    else:
        recipe = [tuple(t) for t in terms]
        if not recipe or recipe[0] != ():
            raise DomainError("explicit model terms must start with the intercept ()")
        for t in recipe:
            if any(j < 0 or j >= k for j in t):
                raise DomainError(f"term {t} references a factor outside 0..{k - 1}")
    cols = []
    for t in recipe:
        col = np.ones(n)
        for j in t:
            col = col * pts[:, j]
        cols.append(col)
    return np.column_stack(cols)


def full_factorial_design(k: int):
    """Two-level full factorial with all interactions except the order-k one.

    Returns ``(X, points)``: points are the 2^k sign combinations (+1 listed
    first, matching the conventional row order), and X is the 2^k x (2^k - 1)
    model matrix whose columns are the intercept, main effects, and every
    interaction of order < k. Deleting any single row leaves a square matrix
    whose squared determinant is 2^(k(2^k - 2)), the saturated family shape.
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    points = np.array(list(itertools.product([1.0, -1.0], repeat=k)))
    recipe = [()]
    for size in range(1, k):
        recipe.extend(itertools.combinations(range(k), size))
    X = build_model_matrix(points, recipe)
    return X, points
