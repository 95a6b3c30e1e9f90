"""The X frame: the work on X alone, done once per X and remembered by its bytes.

A frame must never change an output: a cold cache and a warm one give every
report, error and message bit for bit, and neither the caller's X nor a
rejected X leaks into a later solve.
"""

import numpy as np
import pytest

from glmdopt import (
    DesignProblem,
    DomainError,
    SolverError,
    WeightFunction,
    build_model_matrix,
    compute_u,
    compute_v,
    full_factorial_design,
)
from glmdopt import design
from glmdopt.cli import dispatch_rows, dispatch_solve

LAYOUTS = {
    "2x2": (build_model_matrix([[1, 1], [1, -1], [-1, 1], [-1, -1]]), 3.0, "analytic"),
    "generic": (
        build_model_matrix([[-0.9, -0.6], [0.8, -0.7], [0.3, 0.9], [-0.5, 0.2]]), 3.0, "analytic"
    ),
    "2^3": (full_factorial_design(3)[0], 1.0, "analytic"),
    "2^4": (full_factorial_design(4)[0], 0.5, "analytic"),
    "2^5": (full_factorial_design(5)[0], 0.3, "analytic"),
    "2^3-main": (build_model_matrix(full_factorial_design(3)[1]), 1.0, "auto"),
}
LINKS = ("logit", "probit", "log_poisson")


def fingerprint(result):
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    diag = sorted((k, float(v).hex()) for k, v in result.diagnostics.items())
    return result.case_label, result.allocation.p.tobytes(), float(result.objective).hex(), diag


def solve(X, beta, fn, method):
    try:
        return dispatch_solve(DesignProblem(X, beta=beta, weight_fn=fn), method, 1e-12)
    except (DomainError, SolverError) as exc:
        return exc


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_cold_and_warm_cache_agree_bit_for_bit(name):
    X, box, method = LAYOUTS[name]
    rng = np.random.default_rng(22)
    # every fourth draw is 20 times wider, where probit weights underflow: the
    # errors must match too
    widths = [20.0 * box if i % 4 == 3 else box for i in range(24)]
    draws = [(LINKS[i % 3], rng.uniform(-h, h, X.shape[1])) for i, h in enumerate(widths)]
    cold = []
    for link, beta in draws:
        design._x_frame.cache_clear()
        cold.append(fingerprint(solve(X, beta, WeightFunction.from_name(link), method)))
    warm = [fingerprint(solve(X, beta, WeightFunction.from_name(link), method)) for link, beta in draws]
    assert warm == cold
    assert design._x_frame.cache_info().hits >= len(draws) - 1
    assert any(f[0] == "DomainError" for f in cold) and any(f[0] != "DomainError" for f in cold)
    probit = WeightFunction.from_name("probit")
    problem = DesignProblem(X, weight_fn=probit, w=np.ones(X.shape[0]))
    betas = np.array([beta for _, beta in draws])
    rows = [fingerprint(r) for r in dispatch_rows(problem, betas, method, 1e-12)]
    assert rows == [fingerprint(solve(X, beta, probit, method)) for beta in betas]


def test_callers_X_is_copied():
    X = build_model_matrix([[-0.9, -0.6], [0.8, -0.7], [0.3, 0.9], [-0.5, 0.2]])
    kept = X.copy()
    w = np.array([1.0, 1.1, 0.9, 1.2])
    problem = DesignProblem(X, w=w)
    before = fingerprint(dispatch_solve(problem, "analytic", 1e-12))
    X[0, 1] = -0.4
    assert problem.X.tobytes() == kept.tobytes()
    assert fingerprint(dispatch_solve(problem, "analytic", 1e-12)) == before
    assert fingerprint(dispatch_solve(DesignProblem(kept, w=w), "analytic", 1e-12)) == before
    # the mutated X is another X, with a frame of its own
    moved = DesignProblem(X, w=w)
    assert moved.X.tobytes() == X.tobytes()
    assert fingerprint(dispatch_solve(moved, "analytic", 1e-12)) != before


@pytest.mark.parametrize(
    "X, solve_with, message",
    [
        ([[1, 1, 1], [1, 1, 1], [1, -1, 1], [1, 1, -1]], None, "rows of X must be distinct"),
        ([[2, 1, 1], [1, -1, 1], [1, 1, -1], [1, -1, -1]], None, "first column of X must be all ones"),
        ([[1, 2], [1, np.nan]], None, "X must be finite"),
        ([[1, -1, -1], [1, -0.5, -0.5], [1, 0.5, 0.5], [1, 1, 1]], "liftone", "full column rank"),
        (
            [[1, 1, 2, 1], [1, 2, 4, 0], [1, 3, 6, 1], [1, 4, 8, 0], [1, 5, 10, 1]],
            compute_v,
            "X has rank below the number of model terms",
        ),
        ([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1], [1, 0, 0]], compute_u, "need a 4x3 design"),
    ],
)
def test_rejected_X_raises_the_same_message_every_time(X, solve_with, message):
    design._x_frame.cache_clear()
    for _ in range(2):
        with pytest.raises(DomainError, match=message):
            problem = DesignProblem(X, w=np.ones(len(X)))
            if solve_with == "liftone":
                dispatch_solve(problem, "liftone", 1e-12)
            else:
                solve_with(problem)
    # a check of X that raises leaves no frame behind
    assert design._x_frame.cache_info().currsize == (0 if solve_with is None else 1)


def test_frame_arrays_are_read_only():
    X, _ = full_factorial_design(3)
    frame = DesignProblem(X * np.where(np.arange(7) == 0, 1.0, 2.0**300), w=np.ones(8))._frame
    lifted, shift, size, lwork = frame.liftone
    minors, zero, minor_shift = frame.minors
    assert (shift, minor_shift) == (6 * 300, 6 * 300) and lwork > 0
    for arr in (frame.X, minors, zero, lifted, size):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
