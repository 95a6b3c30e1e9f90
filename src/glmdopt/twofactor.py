"""Analytic D-optimal allocation for four distinct points of a two-factor model.

For a 4x3 design matrix the objective factors through the four 3x3
leave-one-row-out minors:

    det(X' W X) = w1 w2 w3 w4 * (u1 p2 p3 p4 + u2 p1 p3 p4 + u3 p1 p2 p4
                                 + u4 p1 p2 p3),

with ``u_i = minor_i^2 / w_i`` (minor_i deletes row i). Unlike the two-level
case the ``u_i`` can vanish, which drives the dispatch:

* all minors zero (rank 2): the objective is identically zero and every
  allocation is optimal; the uniform one is reported as the canonical,
  permutation-equivariant choice;
* otherwise (rank 3) the four-point reduced-objective solver applies
  verbatim with ``v := u``; an exactly zero ``u_i`` (one row in the span of
  two others) sends it to its rational closed forms.

The objective is reported as ``exp(sum log w + log f(u, p))``, which stays
accurate where the weights span many decades.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import Allocation, DesignProblem, SolveReport, leave_one_out_minors, safe_exp
from .errors import DomainError
from .solver4 import solve_22


@dataclass(frozen=True)
class UCoefficients:
    """Minor-based reduced coefficients of a 4x3 problem, in input order."""

    u: np.ndarray
    minors: np.ndarray
    perm: np.ndarray  # ascending sort of u
    rank_case: str  # "rank2" | "rank3_one_zero" | "rank3_general"


def compute_u(problem: DesignProblem) -> UCoefficients:
    """Reduced coefficients from the leave-one-row-out minors of a 4x3 X."""
    X = problem.X
    if X.shape != (4, 3):
        raise DomainError(f"need a 4x3 design matrix, got {X.shape}")
    minors, zero = leave_one_out_minors(X)
    n_zero = int(zero.sum())
    if n_zero == 0:
        rank_case = "rank3_general"
    elif n_zero == 1:
        rank_case = "rank3_one_zero"
    else:
        # Two or three near-zero minors cannot happen for distinct rows with
        # an intercept column except through roundoff on a rank-2 matrix.
        rank_case = "rank2"
        zero = np.ones(4, dtype=bool)
    u = np.where(zero, 0.0, minors * minors / problem.w)
    perm = np.argsort(u, kind="stable")
    return UCoefficients(u, minors, perm, rank_case)


def solve_fourpoint(problem: DesignProblem) -> SolveReport:
    """Optimal allocation for any four distinct two-factor design points.

    The reported objective is ``det(X' W X)``, carried in log space as the
    ``log_objective`` diagnostic; ``equivalence_gap`` is the
    Kiefer-Wolfowitz certificate of :func:`~glmdopt.solver4.solve_22`. A
    rank-2 layout reports neither.
    """
    uc = compute_u(problem)
    if uc.rank_case == "rank2":
        return SolveReport(Allocation.uniform(4), 0.0, "degenerate-rank2", {})

    report = solve_22(uc.u)
    prefix = "twofactor-" if uc.rank_case == "rank3_one_zero" else "twofactor-case-"
    label = prefix + report.case_label.removeprefix("2x2-case-")
    diag = dict(report.diagnostics)
    diag["log_objective"] += float(np.log(problem.w).sum())
    return SolveReport(report.allocation, safe_exp(diag["log_objective"]), label, diag)
