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
  the half bracket, [0, 1] or [-1, 0], on which a safeguarded Newton
  iteration finds ``z``. With ``q_j = t_j / (1 + r_j)``, ``M' = sum q_j +
  (1 - z) z sum q_j^2 / r_j``, so one pass gives both. ``M`` is evaluated on
  Python floats, for every n, and ``p`` follows from the root by the
  constraint;
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

Rows of one shape are solved as one sorted array stack ``(v, perm,
log_scale)``: :func:`_reduce`, the one map from weight rows (N, n) to
coefficients (the corner check's too), scales each row's largest into
[1/4, 2), so no row needs a gate or another scale, and sorts each row as
the :class:`SaturatedProblem` constructor does. :func:`_solve_rows` takes
each row's allocation from :func:`_root_allocation`, certifies all rows in
one call and un-sorts them by ``perm``. The corner check reads only the
allocations and builds no report. :func:`solve_saturated`, the four-point
solvers and a single solve through ``glmdopt.cli.dispatch_solve`` are
one-row stacks, so each row equals its own solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import (
    EPS,
    Allocation,
    DesignProblem,
    SolveReport,
    safe_exp,
    vform_log_sensitivities,
)
from .errors import DomainError, SolverError, _attempt, _one, as_float, as_floats

#: evaluations of M after which the root search for z gives up
_MAX_EVALUATIONS = 100


@dataclass(frozen=True)
class SaturatedProblem:
    """Reduced coefficients of an (n, n-1) design problem; owns order and scale.

    ``v`` is given in point order and stored ascending (``perm[k]`` is the
    point of sorted entry k), with ``zero_count`` exact zeros in front;
    ``true v = v * exp(log_scale)``: one row of the solvers' sorted stack.
    The constructor gates coefficients from outside; a largest entry outside
    [2^-128, 2^128) is scaled into [1/2, 1) by a power of two that moves
    into ``log_scale``, and an entry that underflows against it is an exact
    zero. In-range input, a reduced row too, stays unscaled.
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
        (v,), (perm,) = _sort_rows(v)
        fields = dict(v=v, log_scale=log_scale, perm=perm, n=len(v), zero_count=v.tolist().count(0.0))
        for name, value in fields.items():
            object.__setattr__(self, name, value)  # frozen: no __setattr__

    def _stack(self):
        """The problem as a one-row stack of :func:`_solve_rows`."""
        return self.v[None], self.perm[None], np.array([self.log_scale])


def _sort_rows(V: np.ndarray):
    """The rows of ``V`` (N, n) sorted ascending, stably, and their sort permutations, read-only."""
    perm = V.argsort(axis=1, kind="stable")
    v = V[np.arange(len(V))[:, None], perm]
    v.flags.writeable = perm.flags.writeable = False
    return v, perm


def _unsort(P: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The sorted rows ``P`` (N, n) in point order, ``perm`` their sort permutations."""
    out = np.empty(perm.shape)
    out[np.arange(len(perm))[:, None], perm] = P
    return out


@dataclass(frozen=True)
class MuSolve:
    """Root of the radical-sum equation: value, branch, and root-search quality
    (evaluations of ``M`` and the residual of ``h(mu) = n - 2``)."""

    mu: float
    branch: str  # "h1" (all plus roots) or "h2" (last point on the minus root)
    iterations: int
    residual: float


def _reduce(parts, W: np.ndarray):
    """``v_j = (minors_j 2^shift)^2 * prod_{i != j} w_i`` from the leave-one-out minors'
    ``parts`` (:func:`~glmdopt.design._minor_parts`, held once per X by the X frame and
    the corner check), for each row ``w`` of the weight stack ``W`` (N, n): the sorted
    stack ``(v, perm, log_scale)``, ``v`` and ``perm`` (N, n) from :func:`_sort_rows`.

    ``v_j / prod(w) = (minors_j 2^shift)^2 / w_j`` is formed from mantissas and
    integer exponents (``frexp``) and scaled by a power of two, so that the
    largest ``v`` lies in [1/4, 2) however extreme the weights, the rounding
    is that of the direct ratio, and ``log_scale`` carries the scale. With
    finite minors, not all flagged, and positive finite weights, no row
    needs a gate or another scale. Minors flagged in ``zero`` give exact
    zeros: their exponents are replaced by one far below the others', since a
    roundoff minor over a tiny weight may exceed the float range. An entry
    that underflows is an exact zero too.
    """
    fm2, em2 = parts
    fw, ew = np.frexp(W)
    e = em2 - ew
    e_top = np.maximum.reduce(e, axis=1)
    with np.errstate(under="ignore"):
        v = np.ldexp(fm2 / fw, np.minimum(e - e_top[:, None], 0))
    log_scale = e_top * math.log(2.0) + np.add.reduce(np.log(W), axis=1)
    return (*_sort_rows(v), log_scale)


def _solve_rows(stack, prefix: str = "saturated-", case=None) -> list:
    """Reports of the rows of the sorted stack ``(v, perm, log_scale)`` (:func:`_reduce`).

    Each row's sorted allocation comes from :func:`_root_allocations`, and
    its label is ``prefix`` and ``case`` of the sorted row, or the branch.
    The certificates of all rows come from one stacked call; each report is
    assembled per row, in point order. A row whose root search, label or
    report raises ``DomainError`` or ``SolverError`` gets that error. A
    single solve is the one-row call, so every row equals its own solve.
    """
    V, perm, log_scale = stack
    rows, scales = V.tolist(), log_scale.tolist()
    out, p_sorted = _root_allocations(V)
    log_f, d = vform_log_sensitivities(V, p_sorted)  # nan, and unread, on the rows that raised
    n1 = V.shape[1] - 1
    gaps = [top / n1 - 1.0 for top in np.maximum.reduce(d, axis=1).tolist()]
    for i, (root, p, lf, gap) in enumerate(zip(out, _unsort(p_sorted, perm), log_f.tolist(), gaps)):
        if isinstance(root, Exception):
            continue
        (p_row, ms), ls = root, scales[i]
        try:  # inline, not _attempt: a single solve pays this per call
            label = prefix + (case(rows[i]) if case else "boundary" if ms is None else ms.branch)
            diag = {} if ms is None else {
                "mu": ms.mu * safe_exp(-ls),
                "mu_scaled": ms.mu,
                "log_scale": ls,
                "lambda": 4.0 * n1**2 * math.prod(p_row) / ms.mu * safe_exp(ls),
                "mu_residual": ms.residual,
                "bisect_iterations": float(ms.iterations),
            }
            diag.update(zero_count=float(rows[i].count(0.0)), log_objective=ls + lf, equivalence_gap=gap)
            out[i] = SolveReport(Allocation(p), safe_exp(diag["log_objective"]), label, diag)
        except (DomainError, SolverError) as exc:
            out[i] = exc
    return out


def _saturated_parts(frame):
    """The minors' parts of the reduction (:func:`_reduce`) of an X frame whose X is
    (n, n-1) of rank n - 1."""
    n, d = frame.X.shape
    if n != d + 1:
        raise DomainError(f"need exactly one more point than model terms, got {n} points, {d} terms")
    if frame.minors[1].all():
        raise DomainError("X has rank below the number of model terms; reparametrize the model")
    return frame.minor_parts


def compute_v(problem: DesignProblem) -> SaturatedProblem:
    """Reduced coefficients from the leave-one-row-out determinants.

    Requires ``n == d + 1`` and rank ``n - 1``, as decided once per X by the
    X frame of ``problem`` (see :mod:`glmdopt.design`).
    """
    v, perm, log_scale = _reduce(_saturated_parts(problem._frame), problem.w[None])
    return SaturatedProblem(_unsort(v, perm)[0], log_scale[0])  # a reduced row needs no scale


def root_mu(sp: SaturatedProblem) -> MuSolve:
    """Solve the radical-sum equation for mu; the branch is the sign of ``M(0)``.

    A safeguarded Newton iteration finds the root ``z`` of ``M`` (see the
    module docstring) on [0, 1] (``h1``) when ``M(0) < 0`` and on [-1, 0]
    (``h2``) when ``M(0) > 0``; ``M(0) = 0`` is the root ``z = 0`` on ``h1``.
    ``mu = (1 - z)(1 + z) / v_n``; ``iterations`` counts the evaluations of
    ``M``, and the residual, that of ``h(mu) = n - 2``, is ``(1 + z) M(z)``.
    A dominant largest coefficient is a ``DomainError``.
    """
    ms = _root_mu(sp.v.tolist())
    if ms is None:
        raise DomainError("dominant largest coefficient: the boundary allocation is optimal")
    return ms


def _root_mu(v: list) -> MuSolve | None:
    """:func:`root_mu` on ascending coefficients ``v``, or ``None`` where ``M(-1) >= 0``
    (tested before the root's setup). ``M`` and ``M'`` are summed on Python floats, left
    to right as numpy sums fewer than eight terms: a step costs a few microseconds, not
    numpy's tens of per-call overhead. Each value of ``M`` shrinks the half bracket by
    its sign; a step that leaves it (one landing on an end stays) or meets ``M' <= 0``
    bisects. The search stops on a step of at most 16 eps, or after one more Newton step
    once ``|M| <= 8 n eps``, M's own rounding: where ``M'`` is small, the first alone cycles."""
    n = len(v)
    *vs, vn = v
    # M(-1) as m(-1.0) rounds it, every r_j exactly 1; with a v_j = v_n (a tie with
    # the largest) it is minus the sum of the others, negative if any is positive
    acc = 0.0
    for x in vs:
        acc += x / vn / 2.0
    if 1.0 - 2.0 * acc >= 0.0 and not (vs[-1] == vn and vs[-2] > 0.0):
        return None
    ts = [(t, 1.0 - t) for t in [x / vn for x in vs]]

    def m(z: float):  # M(z) and M'(z) (module docstring)
        z2 = z * z
        a = b = 0.0
        for t, s in ts:
            # 1 - (1 - z^2) t, exactly 1 at z = -1 and without cancellation at z = 0
            r = math.sqrt(s + z2 * t)
            q = t / (1.0 + r)
            a += q
            if r > 0.0:  # r_j = 0 only at z = 0, for a tie with the largest
                b += q * q / r
        return 1.0 - (1.0 - z) * a, a + (1.0 - z) * z * b

    m0, d = m(0.0)
    z, mz, calls = 0.0, m0, 2
    lo, hi = (0.0, 1.0) if m0 < 0.0 else (-1.0, 0.0)
    while mz != 0.0:
        step = z - mz / d if d > 0.0 else math.nan  # nan: bisect
        newton = lo <= step <= hi
        if not newton:
            step = 0.5 * (lo + hi)
        stop = abs(step - z) <= 16.0 * EPS or newton and abs(mz) <= 8.0 * n * EPS
        z = step
        if stop:
            break
        if calls >= _MAX_EVALUATIONS:
            raise SolverError(f"mu root search failed to converge: {calls} evaluations of M")
        mz, d = m(z)
        calls += 1
        lo, hi = (z, hi) if mz < 0.0 else (lo, z)
    residual = abs((1.0 + z) * m(z)[0])
    if residual > 1e-9 * max(1.0, n - 2.0):
        raise SolverError(f"mu root search failed to converge: residual {residual!r}")
    return MuSolve((1.0 - z) * (1.0 + z) / vn, "h1" if m0 <= 0.0 else "h2", calls, residual)


def solve_saturated(sp: SaturatedProblem) -> SolveReport:
    """Optimal allocation for a saturated problem, in the input point order.

    The objective is on the true scale, carried in log space as the
    ``log_objective`` diagnostic next to the Kiefer-Wolfowitz
    ``equivalence_gap``, zero exactly at the optimum. The label is
    ``saturated-`` and the branch, ``boundary`` where ``M(-1) >= 0``.
    Interior solutions also report ``mu`` and the multiplier ``lambda`` on
    the true scale and the root-search quality of :func:`root_mu`.
    """
    return _one(_solve_rows(sp._stack()))


def _root_allocations(v: np.ndarray):
    """:func:`_root_allocation` of each row of the sorted ``v`` (N, n), or the error it
    raises, and the sorted allocations as one (N, n) array, nan on the rows that raised."""
    roots = [_attempt(_root_allocation, row) for row in v.tolist()]
    nan = [math.nan] * v.shape[1]
    return roots, np.array([nan if isinstance(r, Exception) else r[0] for r in roots]).reshape(v.shape)


def _root_allocation(v: list):
    """Sorted allocation (a list) and root (:class:`MuSolve`, or ``None`` at ``z = -1``)
    of the ascending floats ``v``: the one rule of every (n, n-1) row (module docstring)."""
    n = len(v)
    ms = _root_mu(v)
    if ms is None:  # z = -1: mass 1/(n-1) on every point but the largest-v one
        return [1.0 / (n - 1)] * (n - 1) + [0.0], None
    *vs, vn = v
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
    return [(1.0 + rj) / (2.0 * (n - 1)) for rj in r], ms
