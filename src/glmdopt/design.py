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
``X' W X``; the dense determinant :func:`objective_det` serves as a reference
for cross-checks only, and the subset expansion is left to the tests.

Callers sweep or draw many ``beta`` on one X, so the work on X alone is done
once per X, in an X frame: the checked read-only X and, each made on first
use, the leave-one-out minors with their rank decision and lift-one's rank
test, column scaling and QR work size. The last 16 frames are remembered by
the shape and bytes of X. A check or part that raises is not remembered, so
a bad X raises the same error on every call, and every result is bit for
bit the one computed without the frame.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, SolverError, as_floats, as_int
from .weights import WeightFunction

#: decimals used to canonicalize column-scaled rows before exact duplicate comparison
ROW_DECIMALS = 12

#: simplex feasibility tolerances for allocations
ALLOC_NEG_TOL = 1e-12
ALLOC_SUM_TOL = 1e-12
#: a leave-one-out minor counts as zero below this fraction of the largest |minor|
MINOR_ZERO_REL = 1e-12
EPS = float(np.finfo(float).eps)
#: scale_columns rescales a column of a d-column X whose largest |entry| is 2^e with
#: d |e| above this, so d in-range column scales multiply to within 2^-512..2^512
COLUMN_EXP_BUDGET = 512


@dataclass(frozen=True)
class Allocation:
    """A probability vector over the design points.

    Entries within ``-1e-12`` of zero are clamped to exact zeros; the sum
    must equal one within ``1e-12``.
    """

    p: np.ndarray

    def __post_init__(self):
        arr = as_floats(self.p, "allocation entries must be finite").reshape(-1).copy()
        if (arr < -ALLOC_NEG_TOL).any():
            raise DomainError(f"allocation entries must be nonnegative, got min {arr.min()!r}")
        arr[arr < 0.0] = 0.0
        if abs(arr.sum() - 1.0) > ALLOC_SUM_TOL:
            raise DomainError(f"allocation must sum to 1 within {ALLOC_SUM_TOL}, got {arr.sum()!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    @classmethod
    def uniform(cls, n: int) -> "Allocation":
        return cls(np.full(n, 1.0 / as_int(n, "n must be an integer >= 1", 1)))


@dataclass(frozen=True)
class SolveReport:
    """Solver output: allocation, objective value, dispatch label, diagnostics."""

    allocation: Allocation
    objective: float
    case_label: str
    diagnostics: dict = field(default_factory=dict)


def _as_prob_vector(p, n: int) -> np.ndarray:
    arr = p.p if isinstance(p, Allocation) else as_floats(p, "allocation entries must be finite")
    if arr.shape != (n,):
        raise DomainError(f"allocation has shape {arr.shape}, expected ({n},)")
    return arr


class _XFrame:
    """The X frame (see the module docstring); its arrays are read-only. ``minors``
    is :func:`leave_one_out_minors` of an (n, n-1) X; ``liftone`` is X after
    :func:`scale_columns`, the power of two divided out, each column's largest
    ``|entry|`` and the work size ``scipy.linalg.qr`` queries for a pivoted QR of X'."""

    def __init__(self, X):
        if X.ndim != 2 or X.shape[1] == 0:
            raise DomainError("X must be a 2-d matrix with an intercept column")
        n, d = X.shape
        if n < d:
            raise DomainError(f"need at least as many design points as model terms, got {n} < {d}")
        if not (X[:, 0] == 1.0).all():
            raise DomainError("first column of X must be all ones (intercept)")
        scale = np.abs(X).max(axis=0)
        canon = np.round(X / np.where(scale > 0.0, scale, 1.0), ROW_DECIMALS)
        if len(set(map(tuple, canon.tolist()))) != n:
            raise DomainError("rows of X must be distinct")
        self.X = X

    @functools.cached_property
    def minors(self):
        minors, zero, shift = leave_one_out_minors(self.X)
        minors.flags.writeable = zero.flags.writeable = False
        return minors, zero, shift

    @functools.cached_property
    def liftone(self):
        X = self.X
        scale = np.abs(X).max(axis=0)  # the rank tests must not depend on how levels are coded
        if not scale.all() or np.linalg.matrix_rank(X / scale) < X.shape[1]:
            raise DomainError("X must have full column rank")
        X, shift = scale_columns(X)
        size = np.abs(X).max(axis=0)
        X.flags.writeable = size.flags.writeable = False
        return X, shift, size, int(lapack.dgeqp3(X.T, lwork=-1)[3][0])


@functools.lru_cache(maxsize=16)
def _x_frame(shape, data: bytes) -> _XFrame:
    """The frame of the float X with this shape and these bytes."""
    return _XFrame(np.frombuffer(data).reshape(shape))


@dataclass(frozen=True)
class DesignProblem:
    """Candidate design points, model parameters, and derived weights.

    ``w`` may be supplied directly (bypassing ``beta``/``weight_fn``) when the
    weights are known; otherwise it is derived as ``weight_fn(X @ beta)``.
    Rows must be distinct after each column is divided by its largest |entry|
    and rounded to ``ROW_DECIMALS`` decimals, so the test does not depend on
    how the factor levels are coded; the first column must be all ones.
    ``X`` is the read-only copy of its X frame (see the module docstring), so
    the checks of X and the solvers' work on X alone run once per X.
    """

    X: np.ndarray
    beta: np.ndarray | None = None
    weight_fn: WeightFunction | None = None
    w: np.ndarray | None = None
    _frame: _XFrame = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X = as_floats(self.X, "X must be finite")
        frame = _x_frame(X.shape, X.tobytes())
        X = frame.X
        n, d = X.shape
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "_frame", frame)

        beta = self.beta
        if beta is not None:
            beta = as_floats(beta, "beta must be finite").reshape(-1)
            if beta.shape != (d,):
                raise DomainError(f"beta has length {beta.size}, expected {d}")
            beta = beta.copy()
            beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)

        message = "weights must be positive and finite"
        if self.w is None:
            if beta is None or self.weight_fn is None:
                raise DomainError("provide either w or both beta and weight_fn")
            try:
                w = self.weight_fn(X @ beta)
            except (FloatingPointError, RuntimeWarning):
                # a predictor or weight past the float range fails the gates
                # here, whatever the caller's np.errstate and warning filters
                with np.errstate(all="ignore"):
                    w = self.weight_fn(X @ beta)
            w = as_floats(w, message)
        else:
            w = as_floats(self.w, message).reshape(-1).copy()
        if w.shape != (n,):
            raise DomainError(f"w has length {w.size}, expected {n}")
        if (w <= 0.0).any():
            raise DomainError(message)
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


def scale_columns(X):
    """``(X / 2^e, sum(e))``: ``e_j`` brings an out-of-range column j to a largest
    ``|entry|`` in [1, 2), so a +-2^k coding becomes +-1, and is 0 for the
    other columns, which keep every bit."""
    # Python floats beat numpy's per-call overhead on the few columns of X
    e = [math.frexp(t)[1] - 1 for t in np.abs(X).max(axis=0).tolist()]
    e = [k if abs(k) * len(e) > COLUMN_EXP_BUDGET else 0 for k in e]
    return (np.ldexp(X, np.negative(e)) if any(e) else X), sum(e)


def leave_one_out_minors(X):
    """``(minors, zero, shift)`` of an (n, n-1) X: ``minors[i] 2^shift = det(X without row i)``.

    One stacked ``np.linalg.det`` call, on X rescaled by :func:`scale_columns`.
    When X, its columns scaled to unit largest ``|entry|``, has numerical rank
    below n-1, every minor is roundoff and ``zero`` flags them all; otherwise it
    flags the minors at most ``MINOR_ZERO_REL`` times the largest ``|minor|``.
    Neither test depends on how the factor levels are coded; a minor past the
    float range raises. The solvers take these from the X frame of their
    :class:`DesignProblem`, which calls this once per X.
    """
    X, shift = scale_columns(np.asarray(X, dtype=float))
    n = X.shape[0]
    cols = np.arange(n - 1)
    keep = cols + (cols >= np.arange(n)[:, None])  # row i: every row but i
    # by Cauchy-Binet, vol2 is the squared volume of X with unit-norm columns, so
    # its sigma_min^2 >= vol2 / (n-1)^(n-2); the SVD runs when that bound does not
    # clear matrix_rank's tolerance n * eps * sigma_max <= n * eps * sqrt(n-1) or overflows
    with np.errstate(all="ignore"):
        minors = np.linalg.det(X[keep])
        colsq = np.einsum("ij,ij->j", X, X)
        vol2 = (minors @ minors) / math.prod(colsq.tolist())
    top = np.max(np.abs(minors))
    if not math.isfinite(top):
        raise DomainError("X has a minor beyond the float range")
    certified = vol2 > 0.0 and math.log(vol2) > 2.0 * math.log(n * EPS) + (n - 1) * math.log(n - 1)
    if not certified and (not colsq.all() or np.linalg.matrix_rank(X / np.abs(X).max(axis=0)) < n - 1):
        return minors, np.ones(n, dtype=bool), shift
    return minors, np.abs(minors) <= MINOR_ZERO_REL * top, shift


@functools.lru_cache(maxsize=64)
def _marked(n: int) -> np.ndarray:
    """Read-only ``eye(n + 1, n, -1)`` mask of :func:`vform_log_sensitivities`."""
    marked = np.eye(n + 1, n, -1, dtype=bool)
    marked.flags.writeable = False
    return marked


def vform_log_sensitivities(v, p):
    """``(log f, d)`` for the v-form ``f(p) = sum_j v_j * prod_{i != j} p_i``.

    ``d_i = df/dp_i / f`` are the Kiefer-Wolfowitz sensitivities of the design
    problem this reduced objective stands for, and ``sum_i p_i d_i = n - 1``
    (Euler), so ``max_i d_i / (n - 1) - 1`` is its equivalence gap. Every
    product is a leave-one-out or leave-two-out product of prefix and suffix
    products, O(n^2) in all, so zero entries of ``p`` are handled exactly.
    Where ``f`` is zero, ``log f`` is ``-inf`` and ``d`` is not finite.

    ``v`` and ``p`` are one row (n,) or a stack of N rows (N, n), which gives
    an (N,) array of ``log f`` and an (N, n) ``d``; each row comes out as its
    own call would give it.
    """
    varr = np.asarray(v, dtype=float)
    parr = p.p if isinstance(p, Allocation) else np.asarray(p, dtype=float)
    if varr.ndim not in (1, 2) or varr.shape != parr.shape:
        raise DomainError("v and p must have the same length")
    n = parr.shape[-1]
    # row 0 of each layer is (v, p); row 1 + i has v_i = 0 and p_i = 1, so its
    # leave-one-out sum is the leave-two-out sum df/dp_i
    marked = _marked(n)
    P = np.where(marked, 1.0, parr.reshape(-1, 1, n))
    # exclusive prefix products (layer 0) and reversed suffix products (layer 1)
    ends = np.ones((2,) + P.shape)
    ends[0, :, :, 1:] = P[:, :, :-1]
    ends[1, :, :, 1:] = P[:, :, :0:-1]
    cp = np.cumprod(ends, axis=3)
    terms = np.where(marked, 0.0, varr.reshape(-1, 1, n)) * cp[0] * cp[1, :, :, ::-1]
    sums = np.add.reduce(terms, axis=2)
    f = sums[:, 0]
    log_f = f.tolist()
    if all(x > 0.0 for x in log_f):
        # math.log, not numpy's vector log, which may differ from it in the last bit
        log_f, d = [math.log(x) for x in log_f], sums[:, 1:] / f[:, None]
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            log_f = [math.log(x) if x > 0.0 else float(np.log(x)) for x in log_f]
            d = sums[:, 1:] / f[:, None]
    if varr.ndim == 1:
        return log_f[0], d[0]
    return np.array(log_f), d


def vform_objective(v, p) -> float:
    """Reduced objective ``sum_j v_j * prod_{i != j} p_i`` for n nonnegative coefficients."""
    parr = p if isinstance(p, Allocation) else as_floats(p, "allocation entries must be finite")
    return safe_exp(vform_log_sensitivities(as_floats(v, "coefficients must be finite"), parr)[0])


def safe_exp(x: float) -> float:
    """``exp(x)``, returning ``inf``, a subnormal or 0 instead of raising past the float range."""
    if -708.0 < x < 709.0:  # exp(-708) ~ 3.3e-308, exp(709) ~ 8.2e307: no event to silence
        return float(np.exp(x))
    with np.errstate(over="ignore", under="ignore"):
        return float(np.exp(x))


def build_model_matrix(points, terms="main-effects") -> np.ndarray:
    """Model matrix from factor-level points and a term recipe.

    ``points`` is (n, k) factor levels. ``terms`` is either the string
    ``"main-effects"`` (intercept plus one column per factor) or an explicit
    list of factor-index tuples, one per column, where the empty tuple is the
    intercept and must come first; a tuple like (0, 2) yields the product
    column ``x1 * x3``. Each index must be an integer in ``[0, k)``.
    """
    pts = np.atleast_2d(as_floats(points, "factor levels must be finite"))
    if pts.ndim != 2:
        raise DomainError(f"factor levels must be an (n, k) matrix, got shape {pts.shape}")
    n, k = pts.shape
    if isinstance(terms, str):
        if terms != "main-effects":
            raise DomainError(f"unknown term spec {terms!r}")
        recipe = [()] + [(j,) for j in range(k)]
    else:
        try:
            recipe = [tuple(t) for t in terms]
        except TypeError:
            raise DomainError("explicit model terms must be a list of factor-index tuples") from None
        if not recipe or recipe[0] != ():
            raise DomainError("explicit model terms must start with the intercept ()")
        for t in recipe:
            for j in t:
                as_int(j, f"term {t} references a factor outside 0..{k - 1}", 0, k)
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
    k = as_int(k, "k must be >= 2", 2)
    points = np.array(list(itertools.product([1.0, -1.0], repeat=k)))
    recipe = [()]
    for size in range(1, k):
        recipe.extend(itertools.combinations(range(k), size))
    X = build_model_matrix(points, recipe)
    return X, points
