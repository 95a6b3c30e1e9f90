"""Analytic D-optimal allocation for four distinct points of a two-factor model.

A 4x3 design matrix is the n = 4 member of the saturated family: by
Cauchy-Binet ``det(X' W X) = sum_j v_j prod_{i != j} p_i`` with
``v_j = minor_j^2 prod_{i != j} w_i`` (minor_j deletes row j), reduced by
the same function as :func:`~glmdopt.saturated.compute_v`. With two or more
zero minors (rank 2) the objective vanishes identically and the uniform
allocation is reported as the canonical, permutation-equivariant choice.
Otherwise the report is :func:`~glmdopt.solver4.solve_22`'s, whose case
only labels it; a zero ``v_j`` (one row in the span of two others) gives
its one-zero cases 2a-2d. A ``v_j`` that underflows against the largest
(weights decades apart) is an exact zero too:
:class:`~glmdopt.saturated.SaturatedProblem` owns its scale.
"""

from __future__ import annotations

import numpy as np

from .design import Allocation, DesignProblem, SolveReport
from .errors import DomainError, _one
from .saturated import SaturatedProblem, _reduce, _solve_rows
from .solver4 import _case_22


def _rank2(zero) -> bool:
    """Whether the zero flags of :func:`~glmdopt.design.leave_one_out_minors` say rank 2."""
    # Two or three near-zero minors cannot happen for distinct rows with an
    # intercept column except through roundoff on a rank-2 matrix.
    return np.count_nonzero(zero) >= 2


def _minors(problem: DesignProblem):
    """The leave-one-out minors of a 4x3 X, from its X frame (see :mod:`glmdopt.design`)."""
    if problem.X.shape != (4, 3):
        raise DomainError(f"need a 4x3 design matrix, got {problem.X.shape}")
    return problem._frame.minors


def compute_u(problem: DesignProblem) -> SaturatedProblem | None:
    """Reduced coefficients of a 4x3 X, or ``None`` when it has rank 2; the minors
    and the rank decision come from the X frame (see :mod:`glmdopt.design`)."""
    minors, zero, shift = _minors(problem)
    return None if _rank2(zero) else _reduce(minors, zero, shift, problem.w[None])[0]


def _solve_rows_u(minors, zero, shift, W) -> list:
    """The four-point solves of the weight rows ``W`` (N, 4) on an X with these
    leave-one-out minors, in row order: the saturated row stack's reports (or
    errors) with ``solve_22``'s case labels, or uniform on a rank-2 X. A single
    solve is the N = 1 call, so each row equals its :func:`solve_fourpoint` bit for bit."""
    if _rank2(zero):
        return [SolveReport(Allocation.uniform(4), 0.0, "degenerate-rank2", {}) for _ in W]
    return _solve_rows(_reduce(minors, zero, shift, W), "twofactor-", _case_22)


def solve_fourpoint(problem: DesignProblem) -> SolveReport:
    """Optimal allocation for any four distinct two-factor design points.

    The reported objective is ``det(X' W X)``, carried in log space as the
    ``log_objective`` diagnostic; ``equivalence_gap`` is the
    Kiefer-Wolfowitz certificate of :func:`~glmdopt.solver4.solve_22`. A
    rank-2 layout reports neither. The case label is that of ``solve_22``
    with ``twofactor-`` for its ``2x2-`` prefix.
    """
    return _one(_solve_rows_u(*_minors(problem), problem.w[None]))
