"""D-optimal allocations for n design points with n-1 model parameters.

With one more point than parameters the objective reduces to

    f(p) = p1 ... pn * sum_j v_j / p_j,

where ``v_j`` is the squared determinant of X with row j deleted times the
product of the other points' weights. Every such problem, the four-point
two-factor one (n = 4) included, is reduced by one scale-safe function to a
:class:`SaturatedProblem`. Sorted ascending, the solution is:

* if the largest coefficient dominates the sum of the others, mass 1/(n-1)
  on every other point (objective ``v_n / (n-1)^(n-1)``);
* otherwise an interior stationary point where
  ``p_i (1/(n-1) - p_i) / v_i`` is the same constant ``mu / (4(n-1)^2)``
  for all i. Each quadratic has roots
  ``p_{i+/-} = (1 +/- sqrt(1 - mu v_i)) / (2(n-1))``; at most one point (the
  largest-v one) can take the minus root. ``mu`` solves ``h(mu) = n - 2``
  where ``h`` is the all-plus radical sum (strictly decreasing) or its
  last-term-flipped variant (decreasing then increasing), picked by whether
  ``sum_{j<n} sqrt(1 - v_j/v_n)`` is at most ``n - 2``.

Zero coefficients (a row lying in the span of some of the others) force
``p_i = 1/(n-1)`` on those points, which is exactly what the plus root gives
at ``v_i = 0``, so both branches handle them without special cases; with at
most two positive coefficients the largest dominates and the boundary
allocation is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import (
    Allocation,
    DesignProblem,
    SolveReport,
    _bisect_root,
    leave_one_out_minors,
    safe_exp,
    vform_log_sensitivities,
)
from .errors import DomainError, SolverError

#: dominant-coefficient boundary comparison uses this relative rounding
BOUNDARY_REL = 1e-12


@dataclass(frozen=True)
class SaturatedProblem:
    """Sorted reduced coefficients of an (n, n-1) design problem.

    ``v`` is ascending with ``zero_count`` exact zeros in front and at least
    one positive entry; ``true v = v * exp(log_scale)`` (``log_scale`` keeps
    extreme weight products representable; it is 0 when constructed from
    explicit values).
    """

    v: np.ndarray
    perm: np.ndarray
    n: int
    zero_count: int
    log_scale: float = 0.0

    def __post_init__(self):
        v = np.array(self.v, dtype=float)
        perm = np.array(self.perm, dtype=int)
        n = int(self.n)
        l = int(self.zero_count)
        if n < 3:
            raise DomainError("need at least three design points")
        if v.shape != (n,) or perm.shape != (n,):
            raise DomainError("v and perm must have length n")
        if not np.isfinite(v).all():
            raise DomainError("coefficients must be finite")
        if (v[1:] < v[:-1]).any():
            raise DomainError("v must be sorted ascending")
        if v[0] < 0.0:
            raise DomainError("coefficients must be nonnegative")
        if v[-1] <= 0.0:
            raise DomainError("at least one coefficient must be positive")
        if not 0 <= l < n or v[l] <= 0.0 or (l and v[l - 1] != 0.0):
            raise DomainError("zero_count must match the leading zeros of v")
        v.flags.writeable = perm.flags.writeable = False
        for name, value in (("v", v), ("perm", perm), ("n", n), ("zero_count", l)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "log_scale", float(self.log_scale))

    @classmethod
    def from_values(cls, v) -> "SaturatedProblem":
        raw = np.asarray(v, dtype=float).reshape(-1)
        perm = np.argsort(raw, kind="stable")
        return cls(raw[perm], perm, raw.size, int(np.sum(raw == 0.0)))


@dataclass(frozen=True)
class MuSolve:
    """Root of the radical-sum equation: value, branch, and solve quality."""

    mu: float
    branch: str  # "h1" (all plus roots) or "h2" (last point on the minus root)
    iterations: int
    residual: float


def _reduce(minors: np.ndarray, zero: np.ndarray, w: np.ndarray) -> SaturatedProblem:
    """``v_j = minors_j^2 * prod_{i != j} w_i`` from the leave-one-out minors.

    ``v_j / prod(w) = minors_j^2 / w_j`` is formed from mantissas and integer
    exponents (``frexp``) and scaled by a power of two, so that the largest
    ``v`` lies in [1/4, 2) however extreme the weights, the rounding is that
    of the direct ratio, and ``log_scale`` carries the scale. Minors flagged
    in ``zero`` give exact zeros; their exponents are clamped, since a
    roundoff minor over a tiny weight may exceed the float range.
    """
    fm, em = np.frexp(minors)
    fw, ew = np.frexp(w)
    e = 2 * em - ew
    e_top = int(e[~zero].max())
    v = np.ldexp(fm * fm / fw, np.minimum(e - e_top, 0))
    v[zero] = 0.0
    log_scale = e_top * math.log(2.0) + float(np.log(w).sum())
    perm = np.argsort(v, kind="stable")
    return SaturatedProblem(v[perm], perm, w.size, int(zero.sum()), log_scale)


def compute_v(problem: DesignProblem) -> SaturatedProblem:
    """Reduced coefficients from the leave-one-row-out determinants.

    Requires ``n == d + 1`` and rank ``n - 1``, as decided by
    :func:`~glmdopt.design.leave_one_out_minors`.
    """
    n, d = problem.X.shape
    if n != d + 1:
        raise DomainError(f"need exactly one more point than model terms, got {n} points, {d} terms")
    minors, zero = leave_one_out_minors(problem.X)
    if zero.all():
        raise DomainError("X has rank below the number of model terms; reparametrize the model")
    return _reduce(minors, zero, problem.w)


def _check_mu_domain(mu: float, vmax: float) -> None:
    if not np.isfinite(mu) or mu < 0.0 or mu * vmax > 1.0 + 1e-12:
        raise DomainError(f"mu={mu!r} outside [0, 1/max(v)]")


def h1_eval(mu: float, v) -> float:
    """Sum of sqrt(1 - mu v_j) over all points; n at mu=0, decreasing."""
    varr = np.asarray(v, dtype=float)
    _check_mu_domain(mu, float(varr.max()))
    return float(np.sum(np.sqrt(np.clip(1.0 - mu * varr, 0.0, None))))


def h2_eval(mu: float, v) -> float:
    """Same sum with the largest-v term subtracted instead of added."""
    varr = np.asarray(v, dtype=float)
    vmax = float(varr.max())
    _check_mu_domain(mu, vmax)
    r = np.sqrt(np.clip(1.0 - mu * varr, 0.0, None))
    k = int(np.argmax(varr))
    return float(np.sum(r) - 2.0 * r[k])


def root_mu(sp: SaturatedProblem) -> MuSolve:
    """Solve the radical-sum equation for mu on the appropriate branch.

    The all-plus branch is strictly decreasing on [0, 1/v_n] and is solved by
    plain bisection. On the flipped branch the function first decreases then
    increases; its stationary point is located first (the scaled derivative
    is increasing), and the equation is then bisected on the increasing side.
    """
    v = sp.v
    n = sp.n
    vn = v[-1]
    tail = float(np.sum(v[:-1]))
    if vn >= tail:
        raise DomainError("dominant largest coefficient: the boundary allocation is optimal")
    t = v / vn  # work in x = mu * v_n on [0, 1]
    target = float(n - 2)

    def h1x(x: float) -> float:
        return float(np.sum(np.sqrt(np.clip(1.0 - x * t, 0.0, None)))) - target

    edge = float(np.sum(np.sqrt(np.clip(1.0 - t[:-1], 0.0, None))))
    if edge <= target:
        x, iters = _bisect_root(h1x, 0.0, 1.0)
        branch = "h1"
        residual = abs(h1x(x))
    else:

        def h2x(x: float) -> float:
            r = np.sqrt(np.clip(1.0 - x * t, 0.0, None))
            return float(np.sum(r[:-1]) - r[-1]) - target

        def g2x(x: float) -> float:
            num = np.clip(1.0 - x, 0.0, None)
            return 1.0 - float(np.sum(t[:-1] * np.sqrt(num / (1.0 - x * t[:-1]))))

        xstar, it1 = _bisect_root(g2x, 0.0, 1.0)
        if h2x(xstar) >= 0.0:
            x, it2 = xstar, 0
        else:
            x, it2 = _bisect_root(h2x, xstar, 1.0)
        iters = it1 + it2
        branch = "h2"
        residual = abs(h2x(x))
    if residual > 1e-9 * max(1.0, target):
        raise SolverError(f"mu bisection failed to converge: residual {residual!r}")
    return MuSolve(x / vn, branch, iters, residual)


def solve_saturated(sp: SaturatedProblem) -> SolveReport:
    """Optimal allocation for a saturated problem, in the input point order.

    The reported objective is on the true coefficient scale
    (``exp(log_scale)`` times the stored one) and is carried in log space as
    the ``log_objective`` diagnostic; ``equivalence_gap = max_i d_i / (n - 1)
    - 1`` is the Kiefer-Wolfowitz certificate, zero exactly at the optimum.
    Interior solutions also report ``mu`` and the multiplier ``lambda`` on
    the true scale and the bisection quality.
    """
    v = sp.v
    n = sp.n
    vn = v[-1]
    tail = float(np.sum(v[:-1]))
    if vn >= tail * (1.0 - BOUNDARY_REL):
        p_sorted = np.full(n, 1.0 / (n - 1))
        p_sorted[-1] = 0.0
        diag = {"zero_count": float(sp.zero_count)}
        label = "saturated-boundary"
    else:
        ms = root_mu(sp)
        x = ms.mu * vn
        r = np.sqrt(np.clip(1.0 - x * (v / vn), 0.0, None))
        p_sorted = (1.0 + r) / (2.0 * (n - 1))
        if ms.branch == "h2":
            p_sorted[-1] = (1.0 - r[-1]) / (2.0 * (n - 1))
        p_sorted = p_sorted / p_sorted.sum()
        prod_p = float(np.prod(p_sorted))
        diag = {
            "mu": ms.mu * safe_exp(-sp.log_scale),
            "mu_scaled": ms.mu,
            "log_scale": sp.log_scale,
            "lambda": 4.0 * (n - 1) ** 2 * prod_p / ms.mu * safe_exp(sp.log_scale),
            "mu_residual": ms.residual,
            "bisect_iterations": float(ms.iterations),
            "zero_count": float(sp.zero_count),
        }
        label = f"saturated-{ms.branch}"

    log_f, d = vform_log_sensitivities(v, p_sorted)
    diag["log_objective"] = sp.log_scale + log_f
    diag["equivalence_gap"] = float(d.max()) / (n - 1) - 1.0
    p_out = np.empty(n)
    p_out[sp.perm] = p_sorted
    return SolveReport(Allocation(p_out), safe_exp(diag["log_objective"]), label, diag)
