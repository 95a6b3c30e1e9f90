"""Locally D-optimal approximate designs for generalized linear models.

Analytic allocation solvers over pre-specified design points (four-point
two-factor problems and saturated n-point families), a lift-one
coordinate-ascent baseline for everything else, and a corner-support
analysis for two continuous factors.
"""

from .boundary import (
    BoundaryVerdict,
    ContinuousProblem,
    RegionGrid,
    RescaleTransform,
    check_boundary_optimal,
    corner_weights,
    h_ab,
    region_boundary_segments,
    region_sweep,
    rescale_problem,
)
from .design import (
    Allocation,
    DesignProblem,
    SolveReport,
    build_model_matrix,
    full_factorial_design,
    objective_det,
    vform_objective,
)
from .errors import DomainError, SolverError
from .liftone import LiftOneConfig, MultilinearObjective, fi_profile, liftone_maximize
from .saturated import (
    MuSolve,
    SaturatedProblem,
    compute_v,
    root_mu,
    solve_saturated,
)
from .solver4 import QuarticRoot, solve_22, solve_quartic
from .twofactor import compute_u, solve_fourpoint
from .weights import WeightFunction

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "BoundaryVerdict",
    "ContinuousProblem",
    "DesignProblem",
    "DomainError",
    "LiftOneConfig",
    "MultilinearObjective",
    "MuSolve",
    "QuarticRoot",
    "RegionGrid",
    "RescaleTransform",
    "SaturatedProblem",
    "SolveReport",
    "SolverError",
    "WeightFunction",
    "build_model_matrix",
    "check_boundary_optimal",
    "compute_u",
    "compute_v",
    "corner_weights",
    "fi_profile",
    "full_factorial_design",
    "h_ab",
    "liftone_maximize",
    "objective_det",
    "region_boundary_segments",
    "region_sweep",
    "rescale_problem",
    "root_mu",
    "solve_22",
    "solve_fourpoint",
    "solve_quartic",
    "solve_saturated",
    "vform_objective",
]
