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
  ``z >= 0`` is the ``h1`` branch, ``z < 0`` the ``h2`` one, so the sign of
  ``M(0) = sum_{j<n} sqrt(1 - t_j) - (n - 2)`` is the branch rule and picks
  the half bracket, [0, 1] or [-1, 0], on which Brent's method finds ``z``.
  ``M`` is evaluated on Python floats, for every n, and ``p`` follows from
  the root by the constraint;
* ``M(-1) = 1 - sum_{j<n} t_j >= 0``, in rounding, is the one dominance
  rule: the largest coefficient dominates the others, and the optimum is
  the point ``z = -1``, mass 1/(n-1) on every other point (objective ``v_n
  / (n-1)^(n-1)``). Every (n, n-1) row, the four-point ones too, takes its
  allocation from these steps on its own coefficients.

Zero coefficients (a row lying in the span of some of the others) force
``p_i = 1/(n-1)`` on those points, which is exactly what ``r_i = 1`` gives
at ``v_i = 0``, so they need no special case, nor does one that underflows
against the largest (an exact zero); with at most two positive
coefficients the largest dominates and the boundary allocation is exact.
Points tied with the largest share its root ``z``, which is then on
``h1``, so exact ties get equal mass; a tied largest dominates only exact
zeros, though rounding may absorb the others in ``M(-1)``.

Rows of one shape are solved as a stack: :func:`_reduce`, the one map from
weight rows (N, n) to problems (the corner check's too), puts each row's
largest coefficient in [1/4, 2), so no row needs a gate or another scale,
and :func:`_solve_rows` certifies the allocations of all rows in one call.
Only the root search, a solver's case label and the validation of each
report run row by row. :func:`compute_v`, :func:`solve_saturated`, the
four-point solvers and a single solve through ``glmdopt.cli.dispatch_solve``
are one-row calls of the same steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .design import (
    EPS,
    Allocation,
    DesignProblem,
    SolveReport,
    safe_exp,
    vform_log_sensitivities,
)
from .errors import DomainError, SolverError, _attempt, _one, as_float, as_floats

#: absolute and relative tolerances of the root search for z (brentq's smallest rtol)
_XTOL = 2.0**-60
_RTOL = 4.0 * EPS


@dataclass(frozen=True)
class SaturatedProblem:
    """Reduced coefficients of an (n, n-1) design problem; owns order and scale.

    ``v`` is given in point order and stored ascending (``perm[k]`` is the
    point of sorted entry k), with ``zero_count`` exact zeros in front;
    ``true v = v * exp(log_scale)``. The constructor gates coefficients from
    outside; a largest entry outside [2^-128, 2^128) is scaled into [1/2, 1)
    by a power of two that moves into ``log_scale``, and an entry that
    underflows against it is an exact zero. In-range input stays unscaled.
    """

    v: np.ndarray
    log_scale: float = 0.0
    perm: np.ndarray = field(init=False)
    n: int = field(init=False)
    zero_count: int = field(init=False)

    def __post_init__(self):
        v = as_floats(self.v, "coefficients must be finite").reshape(1, -1)
        if v.shape[1] < 3:
            raise DomainError("need at least three design points")
        if (v < 0.0).any():
            raise DomainError("coefficients must be nonnegative")
        top = float(v.max())
        if not top > 0.0:
            raise DomainError("at least one coefficient must be positive")
        log_scale = as_float(self.log_scale, "log_scale must be finite")
        if not 2.0**-128 <= top < 2.0**128:
            e = math.frexp(top)[1]
            with np.errstate(under="ignore"):  # an entry that underflows is an exact zero
                v = np.ldexp(v, -e)
            log_scale += e * math.log(2.0)
        (sp,) = self._rows(v, np.array([log_scale]))
        vars(self).update(vars(sp))  # frozen: no __setattr__

    @classmethod
    def _rows(cls, V: np.ndarray, log_scale: np.ndarray) -> list:
        """The problems of the rows of ``V`` (N, n) with ``log_scale`` (N,): each row
        sorted, its exact zeros counted. The rows are gated and scaled already."""
        N, n = V.shape
        perm = V.argsort(axis=1, kind="stable")
        v = V[np.arange(N)[:, None], perm]
        v.flags.writeable = perm.flags.writeable = False
        out = [object.__new__(cls) for _ in range(N)]
        for i, (sp, row, ls) in enumerate(zip(out, v.tolist(), log_scale.tolist())):
            vars(sp).update(v=v[i], log_scale=ls, perm=perm[i], n=n, zero_count=row.count(0.0))
        return out

    def _assemble(self, p_sorted, label, diag, log_f, gap) -> SolveReport:
        """Report of ``p_sorted`` (sorted order) in point order, with ``log_objective =
        log_scale + log f`` and ``equivalence_gap = max_i d_i / (n - 1) - 1`` added to
        ``diag``, from the certificates of :func:`_solve_rows`."""
        diag["log_objective"] = self.log_scale + log_f
        diag["equivalence_gap"] = gap
        p_out = np.empty(self.n)
        p_out[self.perm] = p_sorted
        return SolveReport(Allocation(p_out), safe_exp(diag["log_objective"]), label, diag)


@dataclass(frozen=True)
class MuSolve:
    """Root of the radical-sum equation: value, branch, and root-search quality
    (evaluations of ``M`` and the residual of ``h(mu) = n - 2``)."""

    mu: float
    branch: str  # "h1" (all plus roots) or "h2" (last point on the minus root)
    iterations: int
    residual: float


#: exponent that stands in for a zero minor's: its v underflows to an exact zero
_ZERO_EXPONENT = -(2**20)


def _reduce(minors: np.ndarray, zero: np.ndarray, shift: int, W: np.ndarray) -> list:
    """``v_j = (minors_j 2^shift)^2 * prod_{i != j} w_i`` from the leave-one-out minors,
    for each row ``w`` of the weight stack ``W`` (N, n): the rows' problems, in order.

    ``v_j / prod(w) = minors_j^2 / w_j`` is formed from mantissas and integer
    exponents (``frexp``) and scaled by a power of two, so that the largest
    ``v`` lies in [1/4, 2) however extreme the weights, the rounding is that
    of the direct ratio, and ``log_scale`` carries the scale, ``2 shift`` too.
    With finite minors, not all flagged, and positive finite weights, no row
    needs a gate or another scale. Minors flagged in ``zero`` give exact
    zeros: their exponents are replaced by one far below the others', since a
    roundoff minor over a tiny weight may exceed the float range. An entry
    that underflows is an exact zero too.
    """
    fm, em = np.frexp(minors)
    fw, ew = np.frexp(W)
    e = np.where(zero, _ZERO_EXPONENT, 2 * em) - ew
    e_top = np.maximum.reduce(e, axis=1)
    with np.errstate(under="ignore"):
        v = np.ldexp(fm * fm / fw, np.minimum(e - e_top[:, None], 0))
    log_scale = (e_top + 2 * shift) * math.log(2.0) + np.add.reduce(np.log(W), axis=1)
    return SaturatedProblem._rows(v, log_scale)


def _certificates(sps: list, p_sorted: list):
    """``(log f, equivalence gap)`` lists for sorted allocations of problems of one
    size, from one stacked :func:`~glmdopt.design.vform_log_sensitivities` call."""
    log_f, d = vform_log_sensitivities(np.array([sp.v for sp in sps]), np.array(p_sorted))
    n1 = sps[0].n - 1
    return log_f.tolist(), [top / n1 - 1.0 for top in np.maximum.reduce(d, axis=1).tolist()]


def _solve_rows(sps: list, prefix: str = "saturated-", case=None) -> list:
    """Reports of the problems ``sps``, all of one size, in order.

    Each row's sorted allocation and diagnostics come from
    :func:`_root_allocation`; its label is ``prefix`` and ``case(sp)``, or
    the branch without a ``case``. The certificates of all rows come from
    one stacked call, and each report is labelled, assembled and validated
    per row. A row whose root search, label or report raises
    ``DomainError`` or ``SolverError`` gets that error. A single solve is
    the one-row call, so every row equals its own solve bit for bit.
    """
    out = [_attempt(_root_allocation, sp) for sp in sps]
    live = [i for i, row in enumerate(out) if not isinstance(row, Exception)]
    if live:
        log_f, gap = _certificates([sps[i] for i in live], [out[i][0] for i in live])
        for i, lf, g in zip(live, log_f, gap):
            p_sorted, branch, diag = out[i]
            try:  # inline, not _attempt: a single solve pays this per call
                label = prefix + (case(sps[i]) if case else branch)
                out[i] = sps[i]._assemble(p_sorted, label, diag, lf, g)
            except (DomainError, SolverError) as exc:
                out[i] = exc
    return out


def _saturated_minors(frame):
    """The leave-one-out minors of an X frame whose X is (n, n-1) of rank n - 1."""
    n, d = frame.X.shape
    if n != d + 1:
        raise DomainError(f"need exactly one more point than model terms, got {n} points, {d} terms")
    minors, zero, shift = frame.minors
    if zero.all():
        raise DomainError("X has rank below the number of model terms; reparametrize the model")
    return minors, zero, shift


def compute_v(problem: DesignProblem) -> SaturatedProblem:
    """Reduced coefficients from the leave-one-row-out determinants.

    Requires ``n == d + 1`` and rank ``n - 1``, as decided once per X by the
    X frame of ``problem`` (see :mod:`glmdopt.design`).
    """
    minors, zero, shift = _saturated_minors(problem._frame)
    return _reduce(minors, zero, shift, problem.w[None])[0]


def root_mu(sp: SaturatedProblem) -> MuSolve:
    """Solve the radical-sum equation for mu; the branch is the sign of ``M(0)``.

    Brent's method (:func:`scipy.optimize.brentq`) finds the root ``z`` of
    ``M`` (see the module docstring) on [0, 1] (``h1``) when ``M(0) < 0`` and
    on [-1, 0] (``h2``) when ``M(0) > 0``; ``M(0) = 0`` is the root ``z = 0``
    on ``h1``. ``mu = (1 - z)(1 + z) / v_n``; ``iterations`` counts the
    evaluations of ``M``, and the residual, that of ``h(mu) = n - 2``, is
    ``(1 + z) M(z)``. A dominant largest coefficient is a ``DomainError``.
    """
    ms = _root_mu(sp.v)
    if ms is None:
        raise DomainError("dominant largest coefficient: the boundary allocation is optimal")
    return ms


def _root_mu(v: np.ndarray) -> MuSolve | None:
    """:func:`root_mu` on ascending coefficients ``v``, or ``None`` where ``M(-1) >= 0``.
    ``M`` is summed on Python floats, left to right as numpy sums fewer than
    eight terms: a brentq step costs a few microseconds, not the tens of
    numpy's per-call overhead. ``M(-1)`` is tested before the root's setup."""
    n = v.shape[0]
    *vs, vn = v.tolist()
    # M(-1) as m(-1.0) rounds it, every r_j exactly 1; with a v_j = v_n (a tie with
    # the largest) it is minus the sum of the others, negative if any is positive
    acc = 0.0
    for x in vs:
        acc += x / vn / 2.0
    if 1.0 - 2.0 * acc >= 0.0 and not (vs[-1] == vn and vs[-2] > 0.0):
        return None
    ts = [(t, 1.0 - t) for t in [x / vn for x in vs]]
    calls = 1

    def m(z: float) -> float:
        nonlocal calls
        calls += 1
        z2 = z * z
        acc = 0.0
        for t, s in ts:
            # 1 - (1 - z^2) t, exactly 1 at z = -1 and without cancellation at z = 0
            acc += t / (1.0 + math.sqrt(s + z2 * t))
        return 1.0 - (1.0 - z) * acc

    m0 = m(0.0)
    z = 0.0
    if m0 != 0.0:
        lo, hi = (0.0, 1.0) if m0 < 0.0 else (-1.0, 0.0)
        try:
            z = brentq(m, lo, hi, xtol=_XTOL, rtol=_RTOL)
        except RuntimeError as exc:
            raise SolverError(f"mu root search failed to converge: {exc}") from None
    iterations = calls
    residual = abs((1.0 + z) * m(z))
    if residual > 1e-9 * max(1.0, n - 2.0):
        raise SolverError(f"mu root search failed to converge: residual {residual!r}")
    return MuSolve((1.0 - z) * (1.0 + z) / vn, "h1" if m0 <= 0.0 else "h2", iterations, residual)


def solve_saturated(sp: SaturatedProblem) -> SolveReport:
    """Optimal allocation for a saturated problem, in the input point order.

    The objective is on the true scale, carried in log space as the
    ``log_objective`` diagnostic next to the Kiefer-Wolfowitz
    ``equivalence_gap``, zero exactly at the optimum. The label is
    ``saturated-`` and the branch, ``boundary`` where ``M(-1) >= 0``.
    Interior solutions also report ``mu`` and the multiplier ``lambda`` on
    the true scale and the root-search quality of :func:`root_mu`.
    """
    return _one(_solve_rows([sp]))


def _root_allocation(sp: SaturatedProblem):
    """Sorted allocation, branch and diagnostics of ``sp``, by the one rule of every
    (n, n-1) row: the root of ``M`` on ``sp.v``, or ``z = -1`` (module docstring)."""
    v, n = sp.v, sp.n
    ms = _root_mu(v)
    if ms is None:  # z = -1: mass 1/(n-1) on every point but the largest-v one
        return np.array([1.0 / (n - 1)] * (n - 1) + [0.0]), "boundary", {"zero_count": float(sp.zero_count)}
    *vs, vn = v.tolist()
    x = ms.mu * vn
    r = [math.sqrt(max(1.0 - x * t, 0.0)) for t in [vj / vn for vj in vs] if t < 1.0]
    # z itself is taken from the constraint sum_{j<n} r_j + z = n - 2, accurate
    # also near z = 0; the points tied with the largest share its root z >= 0,
    # and rounding may not take z below -1
    top = n - len(r)
    acc = 0.0
    for rj in r:  # left to right, as M; sum() compensates from Python 3.12 on
        acc += rj
    r += [max(((n - 2) - acc) / top, -1.0)] * top
    p = [(1.0 + rj) / (2.0 * (n - 1)) for rj in r]
    diag = {
        "mu": ms.mu * safe_exp(-sp.log_scale),
        "mu_scaled": ms.mu,
        "log_scale": sp.log_scale,
        "lambda": 4.0 * (n - 1) ** 2 * math.prod(p) / ms.mu * safe_exp(sp.log_scale),
        "mu_residual": ms.residual,
        "bisect_iterations": float(ms.iterations),
        "zero_count": float(sp.zero_count),
    }
    return np.array(p), ms.branch, diag
