"""The benchmark's tracer still finds every glmdopt hook it wraps.

``perfbench/tracer.py`` patches glmdopt from outside by name; a renamed
function or a dropped diagnostic key would silently empty its metrics.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import glmdopt.boundary
from glmdopt import (
    DesignProblem,
    SaturatedProblem,
    full_factorial_design,
    liftone_maximize,
    solve_22,
    solve_fourpoint,
    solve_saturated,
)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracer = _load_tracer()
    for module, func in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"glmdopt.{module}"), func)), (module, func)


def test_polish_hook_exists():
    assert callable(glmdopt.boundary.optimize.minimize)


def test_tracer_counts_a_liftone_solve():
    tracer = _load_tracer().Tracer().install()
    try:
        X, _ = full_factorial_design(3)
        report = glmdopt.liftone.liftone_maximize(DesignProblem(X, w=np.linspace(0.1, 0.3, 8)))
    finally:
        tracer.uninstall()
    assert {"sweeps", "converged"} <= set(report.diagnostics)
    metrics = tracer.metrics(1)
    assert metrics["liftone.liftone_maximize.calls"] == 1.0
    assert metrics["liftone.sweeps"] == report.diagnostics["sweeps"]
    assert metrics["liftone.converged_ratio"] == 1.0
    assert glmdopt.liftone.liftone_maximize is liftone_maximize


def test_tracer_counts_analytic_diagnostics():
    # the tracer reads these keys with a default of zero, so a dropped key
    # would silently zero its counters
    tracer = _load_tracer().Tracer().install()
    try:
        quartic = glmdopt.solver4.solve_22([1.0, 2.0, 3.0, 4.0])
        interior = glmdopt.saturated.solve_saturated(SaturatedProblem(range(1, 9)))
        four = glmdopt.twofactor.solve_fourpoint(DesignProblem(full_factorial_design(2)[0], w=[1.0, 2.0, 3.0, 4.0]))
    finally:
        tracer.uninstall()
    assert quartic.case_label == "2x2-case-v"
    assert interior.case_label == "saturated-h1"
    assert four.case_label == "twofactor-case-v"
    assert interior.diagnostics["bisect_iterations"] > 0
    metrics = tracer.metrics(1)
    assert metrics["solver4.case.2x2-case-v"] == 1.0
    assert metrics["twofactor.case.twofactor-case-v"] == 1.0
    assert metrics["saturated.case.saturated-h1"] == 1.0
    assert metrics["saturated.bisect_iterations"] == interior.diagnostics["bisect_iterations"]
    assert glmdopt.solver4.solve_22 is solve_22
    assert glmdopt.saturated.solve_saturated is solve_saturated
    assert glmdopt.twofactor.solve_fourpoint is solve_fourpoint
