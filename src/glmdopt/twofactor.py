"""Analytic D-optimal allocation for four distinct points of a two-factor model.

A 4x3 design matrix is the n = 4 member of the saturated family: by
Cauchy-Binet ``det(X' W X) = sum_j v_j prod_{i != j} p_i`` with
``v_j = minor_j^2 prod_{i != j} w_i`` (minor_j deletes row j), reduced by
the same function as :func:`~glmdopt.saturated.compute_v`. With two or more
zero minors (rank 2) the objective vanishes identically and the uniform
allocation is reported as the canonical, permutation-equivariant choice.
Otherwise :func:`~glmdopt.solver4.solve_22` applies verbatim; a zero ``v_j``
(one row in the span of two others) sends it to its rational closed forms.
"""

from __future__ import annotations

from .design import Allocation, DesignProblem, SolveReport, leave_one_out_minors
from .errors import DomainError
from .saturated import SaturatedProblem, _reduce
from .solver4 import solve_22


def compute_u(problem: DesignProblem) -> SaturatedProblem | None:
    """Reduced coefficients of a 4x3 X, or ``None`` when it has rank 2."""
    X = problem.X
    if X.shape != (4, 3):
        raise DomainError(f"need a 4x3 design matrix, got {X.shape}")
    minors, zero = leave_one_out_minors(X)
    # Two or three near-zero minors cannot happen for distinct rows with an
    # intercept column except through roundoff on a rank-2 matrix.
    if zero.sum() >= 2:
        return None
    return _reduce(minors, zero, problem.w)


def solve_fourpoint(problem: DesignProblem) -> SolveReport:
    """Optimal allocation for any four distinct two-factor design points.

    The reported objective is ``det(X' W X)``, carried in log space as the
    ``log_objective`` diagnostic; ``equivalence_gap`` is the
    Kiefer-Wolfowitz certificate of :func:`~glmdopt.solver4.solve_22`. A
    rank-2 layout reports neither.
    """
    sp = compute_u(problem)
    if sp is None:
        return SolveReport(Allocation.uniform(4), 0.0, "degenerate-rank2", {})
    report = solve_22(sp)
    prefix = "twofactor-" if sp.zero_count else "twofactor-case-"
    label = prefix + report.case_label.removeprefix("2x2-case-")
    return SolveReport(report.allocation, report.objective, label, report.diagnostics)
