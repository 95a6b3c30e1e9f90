"""D-optimal allocations for n design points with n-1 model parameters.

With one more point than parameters the objective reduces to

    f(p) = p1 ... pn * sum_j v_j / p_j,

where ``v_j`` is the squared determinant of X with row j deleted times the
product of the other points' weights. Every such problem, the four-point
two-factor one (n = 4) included, is reduced by one scale-safe function to a
:class:`SaturatedProblem`, which owns the order and the scale of ``v``.
Sorted ascending, with ``t_j = v_j / v_n``:

* at an interior optimum ``p_i (1/(n-1) - p_i) / v_i`` is the same constant
  ``mu / (4(n-1)^2)`` for all i, so ``p_i = (1 +/- sqrt(1 - mu v_i)) /
  (2(n-1))``; only the largest-v point can take the minus root. ``mu``
  solves the paper's radical-sum equation ``h(mu) = n - 2``, with all plus
  roots (``h1``, decreasing in mu) or the last one flipped (``h2``,
  decreasing then increasing);
* both branches are one equation in the signed root of the largest point,
  ``z in [-1, 1]``: ``p_n = (1 + z) / (2(n-1))``, ``mu v_n = 1 - z^2`` and
  ``p_j = (1 + r_j) / (2(n-1))`` with ``r_j = sqrt(1 - (1 - z^2) t_j)``. The
  constraint ``sum_{j<n} r_j + z = n - 2`` holds trivially at ``z = -1``;
  divided by ``1 + z`` it becomes

      M(z) = 1 - (1 - z) * sum_{j<n} t_j / (1 + r_j),

  free of cancellation and of the sign of the residual ``h(mu) - (n - 2)``
  on (-1, 1]. As z runs from -1 to 0, mu runs up from 0 to 1/v_n on
  ``h2``; from 0 to 1 it runs back down on ``h1``. The residual thus falls
  then rises, starting from 0 with slope ``M(-1)``: M, with ``M(1) = 1``,
  changes sign exactly once when ``M(-1) < 0`` and never otherwise.
  ``z >= 0`` is the ``h1`` branch, ``z < 0`` the ``h2`` one;
* ``M(-1) = 1 - sum_{j<n} t_j >= 0`` means the largest coefficient
  dominates the others; the optimum is then the point ``z = -1``: mass
  1/(n-1) on every other point (objective ``v_n / (n-1)^(n-1)``).

Zero coefficients (a row lying in the span of some of the others) force
``p_i = 1/(n-1)`` on those points, which is exactly what ``r_i = 1`` gives
at ``v_i = 0``, so they need no special case, nor does one that underflows
against the largest (an exact zero); with at most two positive
coefficients the largest dominates and the boundary allocation is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .errors import DomainError, SolverError, as_float, as_floats

#: dominant-coefficient boundary comparison uses this relative rounding
BOUNDARY_REL = 1e-12
#: step cap of the mu bisection
_BISECT_STEPS = 200
#: root_mu's error when the largest coefficient dominates
_DOMINANT = "dominant largest coefficient: the boundary allocation is optimal"


@dataclass(frozen=True)
class SaturatedProblem:
    """Reduced coefficients of an (n, n-1) design problem; owns order and scale.

    ``v`` is given in point order and stored ascending (``perm[k]`` is the
    point of sorted entry k), with ``zero_count`` exact zeros in front;
    ``true v = v * exp(log_scale)``. A largest entry outside [2^-128, 2^128)
    is scaled into [1/2, 1) by a power of two that moves into ``log_scale``,
    and an entry that underflows against it is an exact zero. In-range input
    stays unscaled: the four-point quartic coefficients overflow only near
    1e77, and numpy's ``v**3`` is not exactly homogeneous.
    """

    v: np.ndarray
    log_scale: float = 0.0
    perm: np.ndarray = field(init=False)
    n: int = field(init=False)
    zero_count: int = field(init=False)

    def __post_init__(self):
        raw = as_floats(self.v, "coefficients must be finite").reshape(-1)
        if raw.size < 3:
            raise DomainError("need at least three design points")
        perm = np.argsort(raw, kind="stable")
        v = raw[perm]
        if v[0] < 0.0:
            raise DomainError("coefficients must be nonnegative")
        if v[-1] <= 0.0:
            raise DomainError("at least one coefficient must be positive")
        log_scale = as_float(self.log_scale, "log_scale must be finite")
        if not 2.0**-128 <= v[-1] < 2.0**128:
            e = int(np.frexp(v[-1])[1])
            v = np.ldexp(v, -e)
            log_scale += e * math.log(2.0)
        v.flags.writeable = perm.flags.writeable = False
        zeros = int(np.count_nonzero(v == 0.0))
        derived = dict(v=v, log_scale=log_scale, perm=perm, n=v.size, zero_count=zeros)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def report(self, p_sorted: np.ndarray, label: str, diag: dict) -> SolveReport:
        """Report of ``p_sorted`` (sorted order) in point order, with ``log_objective =
        log_scale + log f`` and ``equivalence_gap = max_i d_i / (n - 1) - 1`` added to ``diag``."""
        log_f, d = vform_log_sensitivities(self.v, p_sorted)
        diag["log_objective"] = self.log_scale + log_f
        diag["equivalence_gap"] = float(d.max()) / (self.n - 1) - 1.0
        p_out = np.empty(self.n)
        p_out[self.perm] = p_sorted
        return SolveReport(Allocation(p_out), safe_exp(diag["log_objective"]), label, diag)


@dataclass(frozen=True)
class MuSolve:
    """Root of the radical-sum equation: value, branch, and solve quality."""

    mu: float
    branch: str  # "h1" (all plus roots) or "h2" (last point on the minus root)
    iterations: int
    residual: float


def _reduce(minors: np.ndarray, zero: np.ndarray, w: np.ndarray, shift: int) -> SaturatedProblem:
    """``v_j = (minors_j 2^shift)^2 * prod_{i != j} w_i`` from the leave-one-out minors.

    ``v_j / prod(w) = minors_j^2 / w_j`` is formed from mantissas and integer
    exponents (``frexp``) and scaled by a power of two, so that the largest
    ``v`` lies in [1/4, 2) however extreme the weights, the rounding is that
    of the direct ratio, and ``log_scale`` carries the scale, ``2 shift`` too.
    Minors flagged in ``zero`` give exact zeros; their exponents are clamped,
    since a roundoff minor over a tiny weight may exceed the float range.
    """
    fm, em = np.frexp(minors)
    fw, ew = np.frexp(w)
    e = 2 * em - ew
    e_top = int(e[~zero].max())
    v = np.ldexp(fm * fm / fw, np.minimum(e - e_top, 0))
    v[zero] = 0.0
    return SaturatedProblem(v, (e_top + 2 * shift) * math.log(2.0) + float(np.log(w).sum()))


def _saturated_minors(X):
    """:func:`~glmdopt.design.leave_one_out_minors` of an (n, n-1) X of rank n - 1."""
    n, d = X.shape
    if n != d + 1:
        raise DomainError(f"need exactly one more point than model terms, got {n} points, {d} terms")
    minors, zero, shift = leave_one_out_minors(X)
    if zero.all():
        raise DomainError("X has rank below the number of model terms; reparametrize the model")
    return minors, zero, shift


def compute_v(problem: DesignProblem) -> SaturatedProblem:
    """Reduced coefficients from the leave-one-row-out determinants.

    Requires ``n == d + 1`` and rank ``n - 1``, as decided by
    :func:`~glmdopt.design.leave_one_out_minors`.
    """
    minors, zero, shift = _saturated_minors(problem.X)
    return _reduce(minors, zero, problem.w, shift)


def _m(t, z, zz):
    """``M(z)`` of the module docstring over the last axis of ``t``, the ratios
    ``t_j = v_j / v_n``; ``zz`` is ``z * z`` shaped to broadcast against ``t``."""
    # 1 - (1 - z^2) t, exactly 1 at z = -1 and without cancellation at z = 0
    r = np.sqrt((1.0 - t) + zz * t)
    return 1.0 - (1.0 - z) * (t / (1.0 + r)).sum(axis=-1)


def _mu_solve(sp: SaturatedProblem, z: float, iters: int, residual: float) -> MuSolve:
    """The root ``z`` of ``M`` as a :class:`MuSolve`, or ``SolverError`` if it missed."""
    if residual > 1e-9 * max(1.0, sp.n - 2.0):
        raise SolverError(f"mu bisection failed to converge: residual {residual!r}")
    vn = sp.v[-1]
    return MuSolve((1.0 - z) * (1.0 + z) / vn, "h1" if z >= 0.0 else "h2", iters, residual)


def root_mu(sp: SaturatedProblem) -> MuSolve:
    """Solve the radical-sum equation for mu; the branch follows from the root.

    One bisection of ``M(z)`` on [-1, 1] (see the module docstring), where
    ``z`` is the signed root of the largest point: ``M(-1) < 0`` unless the
    largest coefficient dominates, ``M(1) = 1``, and the sign changes once.
    ``mu = (1 - z)(1 + z) / v_n``; the branch is ``h1`` for ``z >= 0`` and
    ``h2`` otherwise. The residual is that of ``h(mu) = n - 2``, which equals
    ``(1 + z) M(z)``.
    """
    t = sp.v[:-1] / sp.v[-1]

    def m(z: float) -> float:
        return float(_m(t, z, z * z))

    if m(-1.0) >= 0.0:
        raise DomainError(_DOMINANT)
    z, iters = _bisect_root(m, -1.0, 1.0, _BISECT_STEPS)
    return _mu_solve(sp, z, iters, abs((1.0 + z) * m(z)))


def _root_mu_rows(sps) -> list:
    """:func:`root_mu` of saturated problems of one size, as one lockstep bisection.

    Every row replays :func:`~glmdopt.design._bisect_root` on [-1, 1] with
    ``M`` from the same :func:`_m`: the same midpoints, the same stops at
    ``M(mid) == 0`` and at a midpoint equal to an end, and the same cap of
    ``_BISECT_STEPS`` steps, so each result equals ``root_mu``'s bit for bit.
    ``M(1)`` is exactly 1, so the bracket holds once ``M(-1) < 0``. A row
    leaves the batch when it stops. Entry i is the ``MuSolve`` of ``sps[i]``,
    or the ``DomainError`` or ``SolverError`` that ``root_mu`` raises for it.
    """
    out: list = [None] * len(sps)
    if not sps:
        return out
    V = np.stack([sp.v for sp in sps])
    T = V[:, :-1] / V[:, -1:]
    live = []
    for i, f_lo in enumerate(_m(T, -1.0, 1.0).tolist()):
        if f_lo >= 0.0:
            out[i] = DomainError(_DOMINANT)
        else:
            live.append(i)
    rows = np.array(live, dtype=np.intp)
    z = np.empty(len(sps))
    iters = np.full(len(sps), _BISECT_STEPS)
    t, lo, hi = T[rows], np.full(rows.size, -1.0), np.full(rows.size, 1.0)
    for it in range(1, _BISECT_STEPS + 1):
        if not rows.size:
            break
        mid = 0.5 * (lo + hi)
        fm = _m(t, mid, (mid * mid)[:, None])
        done = (mid == lo) | (mid == hi) | (fm == 0.0)
        up = fm > 0.0
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
        if done.any():
            z[rows[done]] = mid[done]
            iters[rows[done]] = it
            keep = ~done
            rows, t, lo, hi = rows[keep], t[keep], lo[keep], hi[keep]
    z[rows] = 0.5 * (lo + hi)
    zs = z[live]
    residual = np.abs((1.0 + zs) * _m(T[live], zs, (zs * zs)[:, None]))
    for i, zi, res in zip(live, zs.tolist(), residual.tolist()):
        try:
            out[i] = _mu_solve(sps[i], zi, int(iters[i]), res)
        except SolverError as exc:
            out[i] = exc
    return out


def _on_boundary(sp: SaturatedProblem) -> bool:
    """The largest coefficient dominates: the optimum is the point ``z = -1``."""
    return sp.v[-1] >= float(np.sum(sp.v[:-1])) * (1.0 - BOUNDARY_REL)


def _finish(sp: SaturatedProblem, ms: MuSolve | None) -> SolveReport:
    """Report of ``sp`` at the boundary allocation (``ms`` is None) or at the root ``ms``."""
    v = sp.v
    n = sp.n
    vn = v[-1]
    # the point z = -1 (mu = 0) is the boundary allocation; z itself is taken
    # from the constraint sum_{j<n} r_j + z = n - 2, accurate also near z = 0
    x = 0.0 if ms is None else ms.mu * vn
    r = np.sqrt(np.clip(1.0 - x * (v[:-1] / vn), 0.0, None))
    p_sorted = (1.0 + np.append(r, (n - 2) - float(np.sum(r)))) / (2.0 * (n - 1))
    if ms is None:
        diag = {"zero_count": float(sp.zero_count)}
        label = "saturated-boundary"
    else:
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
    return sp.report(p_sorted, label, diag)


def solve_saturated(sp: SaturatedProblem) -> SolveReport:
    """Optimal allocation for a saturated problem, in the input point order.

    The objective is on the true scale, carried in log space as the
    ``log_objective`` diagnostic next to the Kiefer-Wolfowitz
    ``equivalence_gap``, zero exactly at the optimum. Interior solutions also
    report ``mu`` and the multiplier ``lambda`` on the true scale and the
    bisection quality.
    """
    return _finish(sp, None if _on_boundary(sp) else root_mu(sp))
