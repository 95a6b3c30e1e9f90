"""Command-line frontend: single solves, sweeps, region maps, benchmarks.

Problem files are JSON with fields:

* ``link``: weight-function kind (string), or an object
  ``{"kind": "tabulated", "eta": [...], "w": [...]}`` /
  ``{"kind": "constant", "value": c}``;
* ``beta``: model coefficients;
* ``design_points``: rows of factor levels (discrete problems), or
* ``bounds``: ``[lo1, hi1, lo2, hi2]`` (two continuous factors);
* ``model_terms``: optional, ``"main-effects"`` (default) or a list of
  factor-index lists per column starting with ``[]`` for the intercept;
  indices must be integers and are never truncated (``0.7`` is an error).

Exit codes: 0 success, 2 input error, 3 solver failure. All floats are
serialized with 17 significant digits, and non-finite ones as JSON ``null``;
CSV uses LF line endings and a header row. Random benchmark instances come
from numpy's PCG64 generator, so a seed pins the instance stream across
platforms.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from .boundary import (
    ContinuousProblem,
    check_boundary_optimal,
    grid_axis,
    region_boundary_segments,
    region_sweep,
    rescale_problem,
)
from .design import (
    DesignProblem,
    SolveReport,
    build_model_matrix,
    full_factorial_design,
)
from .errors import DomainError, SolverError, _one, as_floats, as_int
from .liftone import LiftOneConfig, _maximize_rows
from .saturated import _reduce, _saturated_minors, _solve_rows
from .twofactor import _solve_rows_u
from .weights import WeightFunction


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _dump_json(obj) -> str:
    # JSON has no NaN or Infinity: a round trip turns non-finite floats into null
    obj = json.loads(json.dumps(obj), parse_constant=lambda name: None)
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_lines(header, rows) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(str(c) if isinstance(c, str) else _fmt(c) for c in row))
    return "\n".join(out) + "\n"


def weight_fn_from_spec(spec) -> WeightFunction:
    if isinstance(spec, str):
        return WeightFunction.from_name(spec)
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "tabulated":
            if "eta" not in spec or "w" not in spec:
                raise DomainError("link: tabulated weight needs 'eta' and 'w' arrays")
            eta = _require_numbers(spec["eta"], "link.eta")
            return WeightFunction.tabulated(eta, _require_numbers(spec["w"], "link.w"))
        if kind in ("constant", "identity", "identity_constant"):
            value = spec.get("value", 1.0)
            if not isinstance(value, (int, float)):
                raise DomainError("link.value: expected a number")
            return WeightFunction.constant(_require_numbers([value], "link.value")[0])
        if isinstance(kind, str):
            return WeightFunction.from_name(kind)
        raise DomainError("link.kind: expected a string")
    raise DomainError("link: expected a string or an object with a 'kind' field")


def _require_numbers(obj, path: str) -> list:
    if not isinstance(obj, list) or not all(isinstance(x, (int, float)) for x in obj):
        raise DomainError(f"{path}: expected an array of numbers")
    return as_floats(obj, f"{path}: numbers must be finite").tolist()


def load_problem_file(path: str):
    """Parse a problem file into ('discrete', DesignProblem) or ('continuous', ContinuousProblem)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DomainError("problem file: expected a JSON object")
    if "link" not in raw:
        raise DomainError("link: field is required")
    if "beta" not in raw:
        raise DomainError("beta: field is required")
    fn = weight_fn_from_spec(raw["link"])
    beta = _require_numbers(raw["beta"], "beta")

    has_points = "design_points" in raw
    has_bounds = "bounds" in raw
    if has_points == has_bounds:
        raise DomainError("design_points/bounds: provide exactly one of them")

    if has_bounds:
        bounds = _require_numbers(raw["bounds"], "bounds")
        return "continuous", ContinuousProblem(np.array(beta), tuple(bounds), fn)

    pts_raw = raw["design_points"]
    if not isinstance(pts_raw, list) or not pts_raw:
        raise DomainError("design_points: expected a non-empty array of rows")
    width = None
    points = []
    for i, row in enumerate(pts_raw):
        vals = _require_numbers(row, f"design_points[{i}]")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise DomainError(f"design_points[{i}]: expected {width} numbers, got {len(vals)}")
        points.append(vals)
    try:
        X = build_model_matrix(np.array(points), raw.get("model_terms", "main-effects"))
    except DomainError as exc:
        raise DomainError(f"model_terms: {exc}") from exc
    # a weight past the float range is reported by DesignProblem's gate alone, not
    # also by numpy's floating-point warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        problem = DesignProblem(X, beta=np.array(beta), weight_fn=fn)
    return "discrete", problem


def dispatch_solve(problem: DesignProblem, method: str, tol: float) -> SolveReport:
    """Route a discrete problem to the solver its shape supports: the one-row call
    of :func:`_solve_rows_by_shape`, raising the row's error."""
    return _one(_solve_rows_by_shape(problem._frame, problem.w[None], method, tol))


def _solve_rows_by_shape(frame, W, method: str, tol: float) -> list:
    """The solve of every row of the weight stack ``W`` (N, n) on the X of the X
    ``frame`` (see :mod:`glmdopt.design`), by the solver that the shape of X and
    ``method`` pick, in row order: the report, or the ``DomainError`` or
    ``SolverError`` that row raises.

    Lift-one runs for method ``liftone`` on every shape and for ``auto`` on
    shapes with no analytic solver, as one lockstep stack. A saturated shape
    (``n == d + 1``) under ``analytic`` or ``auto`` runs as one saturated row
    stack (:mod:`glmdopt.saturated`), labelled with the four-point cases for
    a 4x3 X. An unknown method, a bad ``tol`` for lift-one, a shape with no
    analytic solver under ``analytic`` and an X error fail every row.
    """
    n, d = frame.X.shape
    if method not in ("auto", "analytic", "liftone"):
        return [DomainError(f"unknown method {method!r}")] * len(W)
    if method == "liftone" or (method == "auto" and n != d + 1):
        try:
            config = LiftOneConfig(tol=tol)
        except DomainError as exc:
            return [exc] * len(W)
        return _maximize_rows(frame, W, config)
    if n != d + 1:
        message = f"no analytic solver covers shape n={n}, d={d}; use --method liftone (or auto)"
        return [DomainError(message)] * len(W)
    try:
        minors, zero, shift = frame.minors if n == 4 else _saturated_minors(frame)
    except DomainError as exc:
        return [exc] * len(W)
    if n == 4:
        return _solve_rows_u(minors, zero, shift, W)
    return _solve_rows(_reduce(minors, zero, W, shift))


def _row_weights(problem: DesignProblem, betas):
    """``(W, errors)``: row i of W is ``weight_fn(X @ betas[i])``, and ``errors[i]``
    None where it passes the weight gate of :class:`DesignProblem`, else the
    ``DomainError`` that gate raises: "eta must be finite" where the predictor is
    not, otherwise "weights must be positive and finite". Overflow and invalid
    results raise no floating-point event, whatever the caller's ``np.errstate``."""
    X, fn = problem.X, problem.weight_fn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # one X @ beta per row: a stacked B @ X.T rounds differently; the weight
        # call is elementwise and takes the stack
        etas = np.array([X @ beta for beta in betas]).reshape(len(betas), X.shape[0])
        finite = np.isfinite(etas).all(axis=1)
        W = np.full_like(etas, np.nan)
        W[finite] = fn(etas[finite])
    good = (np.isfinite(W) & (W > 0.0)).all(axis=1).tolist()
    messages = ("eta must be finite", "weights must be positive and finite")
    errors = [None if ok else DomainError(messages[eta_ok]) for ok, eta_ok in zip(good, finite.tolist())]
    return W, errors


def dispatch_rows(problem: DesignProblem, betas, method: str, tol: float) -> list:
    """:func:`dispatch_solve` of ``problem`` with each row of ``betas`` as its
    coefficients, in row order: the report, or the ``DomainError`` or
    ``SolverError`` that row raises, each equal to the row's own solve bit for bit.

    ``problem`` gives X and the weight function. The rows share one weight
    call, gated per row as :class:`DesignProblem` gates it (see
    :func:`_row_weights`), and the rows that pass go through
    :func:`_solve_rows_by_shape` as one stack.
    """
    W, out = _row_weights(problem, betas)
    live = [i for i, err in enumerate(out) if err is None]
    for i, report in zip(live, _solve_rows_by_shape(problem._frame, W[live], method, tol)):
        out[i] = report
    return out


def _report_dict(report: SolveReport) -> dict:
    return {
        "allocation": [float(x) for x in report.allocation.p],
        "objective": float(report.objective),
        "case_label": report.case_label,
        "diagnostics": {k: float(v) for k, v in sorted(report.diagnostics.items())},
    }


def cmd_solve(args) -> int:
    LiftOneConfig(tol=args.tol)  # a bad --tol is an input error on every shape
    kind, problem = load_problem_file(args.problem)
    if kind == "continuous":
        if args.format != "json":
            raise DomainError("continuous problems serialize as JSON only")
        unit, transform = rescale_problem(problem)
        verdict = check_boundary_optimal(unit, s_grid_steps=args.grid_steps)
        from .boundary import CORNERS

        out = {
            "case_label": "boundary-check",
            "boundary_optimal": bool(verdict.boundary_optimal),
            "min_s": float(verdict.min_s),
            "argmin": [float(verdict.argmin[0]), float(verdict.argmin[1])],
            "allocation": [float(x) for x in verdict.p4.p],
            "objective": float(verdict.f_p4),
            "design_points": [[float(v) for v in row] for row in transform.from_unit(CORNERS)],
            "diagnostics": {
                "det_factor": float(transform.det_factor),
                "objective_original_scale": float(
                    verdict.f_p4 / (transform.det_factor**2)
                ),
            },
        }
        sys.stdout.write(_dump_json(out))
        return 0
    report = dispatch_solve(problem, args.method, args.tol)
    if args.format == "json":
        sys.stdout.write(_dump_json(_report_dict(report)))
    else:
        n = len(report.allocation.p)
        header = ["case_label", "objective"] + [f"p{i + 1}" for i in range(n)]
        row = [report.case_label, report.objective] + list(report.allocation.p)
        sys.stdout.write(_csv_lines(header, [row]))
    return 0


def _parse_range(text: str, want_steps: bool):
    parts = text.split(":")
    expect = 3 if want_steps else 2
    if len(parts) != expect:
        raise DomainError(f"--range: expected {'LO:HI:STEPS' if want_steps else 'LO:HI'}, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise DomainError(f"--range: non-numeric bound in {text!r}") from None
    if not want_steps:
        return lo, hi
    try:
        return lo, hi, int(parts[2])
    except ValueError:
        raise DomainError(f"--range: non-integer step count in {text!r}") from None


def cmd_sweep_beta(args) -> int:
    LiftOneConfig(tol=args.tol)  # a bad --tol is an input error on every shape
    kind, problem = load_problem_file(args.problem)
    if kind != "discrete":
        raise DomainError("sweep-beta needs a discrete problem (design_points)")
    lo, hi, steps = _parse_range(args.range, want_steps=True)
    d = problem.X.shape[1]
    idx = as_int(args.vary, f"--vary: index {args.vary} out of range for {d} coefficients", 0, d)
    values = grid_axis(lo, hi, steps)
    n = problem.X.shape[0]
    header = ["beta_value"] + [f"p{i + 1}" for i in range(n)] + ["objective", "case_label"]
    betas = np.tile(problem.beta, (values.size, 1))
    betas[:, idx] = values
    rows = []
    for val, report in zip(values, dispatch_rows(problem, betas, args.method, args.tol)):
        if not isinstance(report, SolveReport):
            raise report
        rows.append([val] + list(report.allocation.p) + [report.objective, report.case_label])
    sys.stdout.write(_csv_lines(header, rows))
    return 0


def cmd_region(args) -> int:
    lo, hi = _parse_range(args.range, want_steps=False)
    fn = WeightFunction.from_name(args.link)
    grid = region_sweep(
        args.beta0,
        (lo, hi),
        (lo, hi),
        args.steps,
        fn,
        s_grid_steps=args.grid_steps,
    )
    rows = []
    for i, b1 in enumerate(grid.beta1):
        for j, b2 in enumerate(grid.beta2):
            verdict = "1" if grid.verdict[i, j] else "0"
            if grid.failed[i, j]:
                verdict = "failed"
            rows.append([b1, b2, grid.min_s[i, j], verdict])
    sys.stdout.write(_csv_lines(["beta1", "beta2", "min_s", "verdict"], rows))
    if args.boundary:
        segs = region_boundary_segments(grid)
        text = _csv_lines(
            ["x1", "y1", "x2", "y2"], [[p1[0], p1[1], p2[0], p2[1]] for p1, p2 in segs]
        )
        with open(args.boundary, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


def _parse_dist(text: str):
    parts = text.split(":")
    if (parts[0], len(parts)) not in (("uniform", 3), ("normal", 2)):
        raise DomainError(f"--dist: expected uniform:LO:HI or normal:SIGMA, got {text!r}")
    try:
        params = [float(x) for x in parts[1:]]
    except ValueError:
        raise DomainError(f"--dist: non-numeric parameter in {text!r}") from None
    if parts[0] == "uniform":
        lo, hi = params
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise DomainError(f"--dist: need finite lo < hi, got {text!r}")
        return lambda rng, size: rng.uniform(lo, hi, size)
    (sigma,) = params
    if not (np.isfinite(sigma) and sigma > 0):
        raise DomainError(f"--dist: need a positive sigma, got {text!r}")
    return lambda rng, size: rng.normal(0.0, sigma, size)


def _parse_model(text: str):
    """Model matrix for ``--model``; ``2x2`` is the ``2^2`` main-effects matrix."""
    if text == "2x2":
        text = "2^2"
    if text.startswith("2^"):
        try:
            k = int(text[2:])
        except ValueError:
            raise DomainError(f"--model: bad factor count in {text!r}") from None
        X, _ = full_factorial_design(as_int(k, "--model: 2^k supports k from 2 to 6", 2, 7))
        return X
    raise DomainError(f"--model: expected 2x2 or 2^K, got {text!r}")


def cmd_bench(args) -> int:
    X = _parse_model(args.model)
    sample = _parse_dist(args.dist)
    fn = WeightFunction.from_name(args.link)
    as_int(args.n_instances, f"--n-instances: must be >= 0, got {args.n_instances}", 0)
    LiftOneConfig(tol=args.tol)  # a bad --tol is an input error, not a failure per instance
    seed = as_int(args.seed, f"--seed: must be >= 0, got {args.seed}", 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    betas = sample(rng, (args.n_instances, X.shape[1]))
    problem = DesignProblem(X, weight_fn=fn, w=np.ones(X.shape[0]))

    def run(method):
        """Log-objective per instance (None where the solve failed) and the wall time."""
        start = time.perf_counter()
        log_objectives = [
            report.diagnostics["log_objective"] if isinstance(report, SolveReport) else None
            for report in dispatch_rows(problem, betas, method, args.tol)
        ]
        return log_objectives, time.perf_counter() - start

    log_analytic, time_a = run("analytic")
    log_liftone, time_l = run("liftone")

    eff = [
        float(np.exp(ll - la))
        for la, ll in zip(log_analytic, log_liftone)
        if la is not None and ll is not None
    ]
    eff = np.array(eff) if eff else np.array([np.nan])
    rows = [
        ["analytic", args.n_instances, log_analytic.count(None), time_a, 1.0, 1.0, 1.0],
        [
            "liftone",
            args.n_instances,
            log_liftone.count(None),
            time_l,
            float(np.mean(eff)),
            float(np.percentile(eff, 1)),
            float(np.min(eff)),
        ],
    ]
    header = [
        "method",
        "n_instances",
        "failures",
        "total_time_s",
        "efficiency_mean",
        "efficiency_p01",
        "efficiency_min",
    ]
    sys.stdout.write(_csv_lines(header, rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glmdopt",
        description="Locally D-optimal approximate designs for generalized linear models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    grid_help = "points per edge of the unit square"
    tol_help = (
        "lift-one stops once d*log(1 + KW gap), a bound on the log-objective"
        " gain still available, is at most this"
    )

    p_solve = sub.add_parser("solve", help="solve a single problem file")
    p_solve.add_argument("problem", help="path to a JSON problem file")
    p_solve.add_argument("--method", choices=["auto", "analytic", "liftone"], default="auto")
    p_solve.add_argument("--tol", type=float, default=1e-12, help=tol_help)
    p_solve.add_argument("--format", choices=["json", "csv"], default="json")
    p_solve.add_argument("--grid-steps", type=int, default=201, dest="grid_steps", help=grid_help)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep-beta", help="solve along a grid of one coefficient")
    p_sweep.add_argument("problem")
    p_sweep.add_argument("--vary", type=int, required=True, help="coefficient index to vary")
    p_sweep.add_argument("--range", required=True, help="LO:HI:STEPS")
    p_sweep.add_argument("--method", choices=["auto", "analytic", "liftone"], default="analytic")
    p_sweep.add_argument("--tol", type=float, default=1e-12, help=tol_help)
    p_sweep.set_defaults(func=cmd_sweep_beta)

    p_region = sub.add_parser("region", help="corner-support verdicts over a slope grid")
    p_region.add_argument("--beta0", type=float, required=True)
    p_region.add_argument("--range", required=True, help="LO:HI applied to both slopes")
    p_region.add_argument("--steps", type=int, required=True)
    p_region.add_argument("--link", default="logit")
    p_region.add_argument("--grid-steps", type=int, default=201, dest="grid_steps", help=grid_help)
    p_region.add_argument("--boundary", help="also write region-edge segments to this CSV path")
    p_region.set_defaults(func=cmd_region)

    p_bench = sub.add_parser("bench", help="analytic vs lift-one on random instances")
    p_bench.add_argument("--model", default="2x2", help="2x2 or 2^K (K=2..6)")
    p_bench.add_argument("--dist", default="uniform:-3:3", help="uniform:LO:HI or normal:SIGMA")
    p_bench.add_argument("--n-instances", type=int, default=10000, dest="n_instances")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--link", default="logit")
    p_bench.add_argument("--tol", type=float, default=1e-12, help=tol_help)
    p_bench.set_defaults(func=cmd_bench)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
