"""The row path of ``sweep-beta`` and ``bench`` against one solve per row.

:func:`glmdopt.cli.dispatch_rows` makes one weight call for all rows, shares
the X-only work of a saturated shape across them and runs lift-one rows as
one lockstep stack; each row must still come out exactly as its own
:func:`glmdopt.cli.dispatch_solve`.
"""

import contextlib
import json
import warnings

import numpy as np
import pytest

from glmdopt import (
    BoundaryVerdict,
    ContinuousProblem,
    DesignProblem,
    DomainError,
    LiftOneConfig,
    RegionGrid,
    SolverError,
    WeightFunction,
    build_model_matrix,
    check_boundary_optimal,
    compute_v,
    full_factorial_design,
    region_sweep,
    solve_saturated,
)
from glmdopt import cli, liftone, saturated
from glmdopt.cli import dispatch_rows, main

INTERACTION = [[], [0], [1], [0, 1]]
LAYOUTS = {
    "2x2": (build_model_matrix([[1, 1], [1, -1], [-1, 1], [-1, -1]]), 3.0),
    "generic": (build_model_matrix([[-0.9, -0.6], [0.8, -0.7], [0.3, 0.9], [-0.5, 0.2]]), 3.0),
    # three points on a line: one zero minor, the one-zero cases 2a-2d
    "span": (build_model_matrix([[0, 0], [1, 1], [-1, -1], [1, -1]]), 3.0),
    "rank2": (build_model_matrix([[0, 0], [1, 1], [2, 2], [-1, -1]]), 3.0),
    "2^3": (full_factorial_design(3)[0], 1.0),
    "2^4": (full_factorial_design(4)[0], 0.5),
    "2^5": (full_factorial_design(5)[0], 0.3),
    "five": (build_model_matrix([[-1, -1], [1, -1], [-1, 1], [1, 1], [0.3, 0.5]], INTERACTION), 1.5),
    # four of the five points have x1 = x2: a dependent row, a zero v
    "five-dependent": (
        build_model_matrix([[0, 0], [1, 1], [-1, -1], [2, 2], [1, -1]], INTERACTION),
        0.7,
    ),
}
LINKS = ("logit", "probit", "log_poisson")


def fingerprint(result):
    """Everything a row reports, as exact bits: label, allocation, objective, diagnostics."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    diag = sorted((k, float(v).hex()) for k, v in result.diagnostics.items())
    alloc = result.allocation.p.tobytes()
    return result.case_label, alloc, float(result.objective).hex(), diag


def solve_each(problem, betas, method):
    out = []
    for beta in betas:
        try:
            row = DesignProblem(problem.X, beta=beta, weight_fn=problem.weight_fn)
            out.append(cli.dispatch_solve(row, method, 1e-12))
        except (DomainError, SolverError) as exc:
            out.append(exc)
    return out


def coefficient_rows(rng, d, box):
    """Seeded draws near zero and out to the boundary cases, plus special rows."""
    rows = [
        rng.uniform(-box, box, (40, d)),
        rng.uniform(-4.0 * box, 4.0 * box, (8, d)),
        np.zeros((1, d)),  # equal weights, so equal coefficients on a factorial
        # every weight near exp(-600): the scale lives in log_scale alone
        np.array([[-600.0] + [0.1] * (d - 1)]),
        # probit weights that underflow to zero: those rows fail
        np.array([[45.0] + [0.0] * (d - 1), [0.5, 45.0] + [0.0] * (d - 2)]),
    ]
    return np.vstack(rows)


def test_rows_match_one_solve_per_row():
    rng = np.random.default_rng(20261019)
    labels = set()
    records = 0
    lifted = []
    for name, (X, box) in LAYOUTS.items():
        for link in LINKS:
            problem = DesignProblem(X, weight_fn=WeightFunction.from_name(link), w=np.ones(len(X)))
            betas = coefficient_rows(rng, X.shape[1], box)
            for method in ("liftone", "analytic", "auto"):
                got = dispatch_rows(problem, betas, method, 1e-12)
                assert isinstance(got, list), (name, link)
                want = solve_each(problem, betas, method)
                assert [fingerprint(r) for r in got] == [fingerprint(r) for r in want], (name, link)
                records += len(want)
                if method == "liftone":
                    lifted += [(name, r) for r in got]
            labels |= {r.case_label for r in want if not isinstance(r, Exception)}
            if name == "five-dependent":
                solved = [r for r in want if not isinstance(r, Exception)]
                assert any(r.diagnostics["zero_count"] > 0 for r in solved)
    # lift-one certifies every row whose weights pass and whose X has full rank;
    # the rank-deficient layout fails on every row, each after its weight gate
    failures = {(name == "rank2", str(r)) for name, r in lifted if isinstance(r, Exception)}
    assert failures == {
        (True, "X must have full column rank"),
        (True, "weights must be positive and finite"),
        (False, "weights must be positive and finite"),
    }
    assert all(r.diagnostics["converged"] == 1.0 for _, r in lifted if not isinstance(r, Exception))
    assert records > 2500
    assert {
        "saturated-boundary",
        "saturated-h1",
        "saturated-h2",
        "twofactor-case-i",
        "twofactor-case-v",
        "twofactor-case-2a",
        "twofactor-case-2d",
        "degenerate-rank2",
    } <= labels


# beta = (0, 1, 2) puts the points of each layout at the knots of a tabulated weight:
# eta = (3, -1, 1, -3) on the 2x2 points, (0, 3, -3, -1) on the span points
KNOTS = [-3.0, -1.0, 0.0, 1.0, 3.0]
P22 = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
SPAN = [[0, 0], [1, 1], [-1, -1], [1, -1]]
RANK2 = [[0, 0], [1, 1], [2, 2], [-1, -1]]
#: label -> (points, weight of each point); the 2x2 minors are equal, so v_j ~ 1 / w_j,
#: and the span minors squared are (16, 4, 4, 0), so v ~ (16 / w_1, 4 / w_2, 4 / w_3, 0);
#: equal weights give exactly tied coefficients
LABEL_ROWS = {
    "twofactor-case-i": (P22, [1.0, 1.0, 1.0, 0.1]),
    "twofactor-case-ii": (P22, [1.0, 1.0, 0.5, 0.4]),
    "twofactor-case-iii": (P22, [1.0, 0.5, 0.5, 0.4]),
    "twofactor-case-iv": (P22, [1.0, 0.5, 0.4, 0.4]),
    "twofactor-case-v": (P22, [1.0, 0.5, 0.4, 0.3]),
    "twofactor-case-2a": (SPAN, [1.0, 1.0, 1.0, 1.0]),
    "twofactor-case-2b": (SPAN, [0.4, 0.125, 0.125, 1.0]),
    "twofactor-case-2c": (SPAN, [0.4, 0.0625, 0.0625, 1.0]),
    "twofactor-case-2d": (SPAN, [0.3, 0.125, 0.1, 1.0]),
    "degenerate-rank2": (RANK2, [1.0, 1.0, 1.0, 1.0]),
}


def label_problem(label):
    """The layout of ``label`` with a weight table that gives its row at beta = (0, 1, 2)."""
    points, w = LABEL_ROWS[label]
    X = build_model_matrix(points)
    eta = X @ [0.0, 1.0, 2.0]
    table = [w[list(eta).index(k)] if k in eta else 0.5 for k in KNOTS]
    fn = WeightFunction.tabulated(KNOTS, table)
    return DesignProblem(X, weight_fn=fn, w=np.ones(4))


def label_rows(rng):
    """The label row in the middle of seeded rows, some of them interior."""
    return np.vstack([rng.uniform(-1.0, 1.0, (5, 3)), [[0.0, 1.0, 2.0]], rng.uniform(-1.0, 1.0, (5, 3))])


@pytest.mark.parametrize("label", sorted(LABEL_ROWS))
def test_every_four_point_label_through_the_row_stack(label):
    problem = label_problem(label)
    betas = label_rows(np.random.default_rng(7))
    got = dispatch_rows(problem, betas, "analytic", 1e-12)
    want = solve_each(problem, betas, "analytic")
    assert [fingerprint(r) for r in got] == [fingerprint(r) for r in want]
    assert got[5].case_label == label


#: a 2x2 problem whose coefficients, v = (1e-8, 0.3, 0.7, 1) up to order and scale,
#: sit near the dominance boundary: the paper's closed forms left a gap of 7.1e-2
NEAR_DOMINANCE = {
    "link": {"kind": "tabulated", "eta": [-3, -1, 1, 3], "w": [1, 1 / 0.7, 1 / 0.3, 1e8]},
    "beta": [0, 1, 2],
    "design_points": P22,
}


def test_near_dominance_file_certified_alone_and_in_the_row_stack(tmp_path):
    path = tmp_path / "near.json"
    path.write_text(json.dumps(NEAR_DOMINANCE), encoding="utf-8")
    _, problem = cli.load_problem_file(str(path))
    want = solve_saturated(compute_v(problem)).diagnostics["log_objective"]
    single = cli.dispatch_solve(problem, "analytic", 1e-12)
    rows = dispatch_rows(problem, label_rows(np.random.default_rng(8)), "analytic", 1e-12)
    assert fingerprint(rows[5]) == fingerprint(single)
    assert single.case_label == "twofactor-case-v"
    assert single.diagnostics["equivalence_gap"] <= 1e-12
    assert single.diagnostics["log_objective"] == pytest.approx(want, abs=1e-13)


def test_rows_that_raise_mid_batch(monkeypatch):
    # the interior rows' root search fails (SolverError in the dispatch: too few
    # evaluations of M allowed), and one allocation is refused (DomainError in the
    # report); the other rows go on
    monkeypatch.setattr(saturated, "_MAX_EVALUATIONS", 2)
    allocation = saturated.Allocation

    def refuse(p):
        if p[0] == 1.0 / 3.0 and p[3] == 0.0:
            raise DomainError("synthetic refusal")
        return allocation(p)

    monkeypatch.setattr(saturated, "Allocation", refuse)
    problem = DesignProblem(LAYOUTS["2x2"][0], weight_fn=WeightFunction.logit(), w=np.ones(4))
    betas = np.random.default_rng(12).uniform(-3.0, 3.0, (60, 3))
    got = dispatch_rows(problem, betas, "analytic", 1e-12)
    want = solve_each(problem, betas, "analytic")
    assert [fingerprint(r) for r in got] == [fingerprint(r) for r in want]
    kinds = [type(r).__name__ for r in got]
    assert {"SolverError", "DomainError", "SolveReport"} <= set(kinds)
    # failures sit between reports, not only at the ends of the batch
    assert "SolveReport" in kinds[kinds.index("SolverError"):]


def test_x_errors_reach_every_row_after_its_weight_gate():
    # rank-deficient saturated X: the rank error, except where the weights fail first
    X = build_model_matrix([[0, 0], [1, 1], [-1, -1], [2, 2], [3, 3]], INTERACTION)
    problem = DesignProblem(X, weight_fn=WeightFunction.probit(), w=np.ones(5))
    betas = np.array([[0.1, 0.2, 0.3, 0.0], [45.0, 0.0, 0.0, 0.0], [0.0, 0.1, 0.0, 0.0]])
    got = [fingerprint(r) for r in dispatch_rows(problem, betas, "analytic", 1e-12)]
    assert got == [fingerprint(r) for r in solve_each(problem, betas, "analytic")]
    assert got[0][1].startswith("X has rank below") and got[1][1].startswith("weights must")


def test_other_shapes_and_methods_solve_row_by_row():
    # n = 5, d = 3 has no analytic solver: the liftone and auto rows run as one
    # lift-one stack and every analytic row gets the shape error, and each entry
    # must still equal that row's own solve
    X = build_model_matrix([[1, 1], [1, -1], [-1, 1], [-1, -1], [0, 0]])
    problem = DesignProblem(X, weight_fn=WeightFunction.logit(), w=np.ones(5))
    betas = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 3))
    for method in ("auto", "liftone", "analytic"):
        got = [fingerprint(r) for r in dispatch_rows(problem, betas, method, 1e-12)]
        assert got == [fingerprint(r) for r in solve_each(problem, betas, method)]


AUTO_LIFTONE = {
    "2^3 main effects": build_model_matrix(full_factorial_design(3)[1]),
    "3^2 interaction": build_model_matrix(
        [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)], INTERACTION
    ),
    "2^6 main effects": build_model_matrix(full_factorial_design(6)[1]),
}


@pytest.mark.parametrize("name", sorted(AUTO_LIFTONE))
def test_auto_rows_on_shapes_without_an_analytic_solver(name):
    X = AUTO_LIFTONE[name]
    problem = DesignProblem(X, weight_fn=WeightFunction.probit(), w=np.ones(len(X)))
    rng = np.random.default_rng(21)
    d = X.shape[1]
    # probit weights underflow on the rows with a coefficient of 45, mid-batch
    underflow = [[45.0] + [0.0] * (d - 1)]
    betas = np.vstack([rng.uniform(-0.5, 0.5, (6, d)), underflow, rng.uniform(-0.5, 0.5, (5, d))])
    got = dispatch_rows(problem, betas, "auto", 1e-12)
    want = solve_each(problem, betas, "auto")
    assert [fingerprint(r) for r in got] == [fingerprint(r) for r in want]
    kinds = ["error" if isinstance(r, Exception) else r.case_label for r in got]
    assert kinds == ["liftone"] * 6 + ["error"] + ["liftone"] * 5
    assert all(r.diagnostics["converged"] == 1.0 for r in got if not isinstance(r, Exception))


def test_liftone_rows_in_several_stacks(monkeypatch):
    # a stack holds at most _STACK_ENTRIES entries per (rows, n, d) array: with
    # room for three 8x4 rows, ten rows run as four stacks
    monkeypatch.setattr(liftone, "_STACK_ENTRIES", 3 * 32)
    X = build_model_matrix(full_factorial_design(3)[1])
    problem = DesignProblem(X, weight_fn=WeightFunction.logit(), w=np.ones(8))
    betas = np.random.default_rng(22).uniform(-1.0, 1.0, (10, 4))
    got = dispatch_rows(problem, betas, "auto", 1e-12)
    assert [fingerprint(r) for r in got] == [fingerprint(r) for r in solve_each(problem, betas, "auto")]


def test_liftone_stacks_bound_the_newton_arrays(monkeypatch):
    # the first Newton step's free set holds all n points, so a stack of a
    # 27-point, 4-term X is sized by its (rows, 28, 28) KKT arrays, not by
    # its (rows, 27, 4) ones: room for three such rows makes ten rows four stacks
    monkeypatch.setattr(liftone, "_STACK_ENTRIES", 3 * 27 * 28)
    sizes = []
    ascend = liftone._ascend
    monkeypatch.setattr(liftone, "_ascend", lambda state, P, cfg: sizes.append(len(P)) or ascend(state, P, cfg))
    X = build_model_matrix([[a, b, c] for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)])
    assert X.shape == (27, 4)
    problem = DesignProblem(X, weight_fn=WeightFunction.logit(), w=np.ones(27))
    betas = np.random.default_rng(23).uniform(-1.0, 1.0, (10, 4))
    got = dispatch_rows(problem, betas, "liftone", 1e-12)
    assert sizes == [3, 3, 3, 1]
    assert [fingerprint(r) for r in got] == [fingerprint(r) for r in solve_each(problem, betas, "liftone")]


def test_liftone_rows_at_the_sweep_cap():
    # with max_sweeps = 5 some rows certify on the last iteration and leave the
    # stack just before the rows that hit the cap are reported: each row must
    # still report its own objective and gap, as its own solve does
    X = build_model_matrix(full_factorial_design(3)[1])
    rng = np.random.default_rng(5)
    betas = np.vstack([rng.uniform(-1.0, 1.0, (6, 4)), [[0.8, 0.22, -0.21, 0.24], [0.05, 0.02, -0.03, 0.01]]])
    problems = [DesignProblem(X, beta=b, weight_fn=WeightFunction.logit()) for b in betas]
    config = LiftOneConfig(max_sweeps=5)
    got = liftone._maximize_rows(problems[0]._frame, np.array([p.w for p in problems]), config)
    assert [fingerprint(r) for r in got] == [fingerprint(liftone.liftone_maximize(p, config)) for p in problems]
    moves = [r.diagnostics["sweeps"] + r.diagnostics["newton_steps"] for r in got]
    converged = [r.diagnostics["converged"] for r in got]
    assert moves == [5.0] * len(got)
    # a row that certifies comes before one that is capped
    assert 0.0 in converged[converged.index(1.0) :]
    assert len(set(r.diagnostics["log_objective"] for r in got)) == len(got)


def test_liftone_row_whose_information_matrix_underflows():
    # logit weights near 5e-324 pass the weight gate, but X'WX underflows to
    # zero: that row's own error, between rows that solve
    X = build_model_matrix(full_factorial_design(3)[1])
    problem = DesignProblem(X, weight_fn=WeightFunction.logit(), w=np.ones(8))
    betas = np.array([[0.2, 0.1, -0.3, 0.4], [-744.0, 0.0, 0.0, 0.0], [-0.5, 0.3, 0.2, -0.1]])
    got = dispatch_rows(problem, betas, "liftone", 1e-12)
    want = solve_each(problem, betas, "liftone")
    assert [fingerprint(r) for r in got] == [fingerprint(r) for r in want]
    assert str(got[1]) == "degenerate objective: X'WX is not positive definite"
    assert got[0].case_label == got[2].case_label == "liftone"


def test_liftone_x_errors_reach_every_row_after_its_weight_gate():
    # five points on a line: no analytic shape, rank 2 of 3 columns
    X = build_model_matrix([[0, 0], [1, 1], [-1, -1], [2, 2], [3, 3]])
    problem = DesignProblem(X, weight_fn=WeightFunction.probit(), w=np.ones(5))
    betas = np.array([[0.1, 0.2, 0.3], [45.0, 0.0, 0.0], [0.0, 0.1, 0.0]])
    for method in ("auto", "liftone"):
        got = [fingerprint(r) for r in dispatch_rows(problem, betas, method, 1e-12)]
        assert got == [fingerprint(r) for r in solve_each(problem, betas, method)]
        assert [message for _, message in got] == [
            "X must have full column rank",
            "weights must be positive and finite",
            "X must have full column rank",
        ]


@contextlib.contextmanager
def warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_floating_point_events_are_row_errors():
    # exp overflows on row 1 and X @ beta on row 2: whatever the caller's
    # np.errstate or warning filters, each is that row's DomainError, as its
    # own DesignProblem raises it, between rows that solve
    X, _ = full_factorial_design(2)
    fn = WeightFunction.log_poisson()
    problem = DesignProblem(X, weight_fn=fn, w=np.ones(4))
    betas = np.array([[0.1, 0.2, 0.3], [800.0, 0.0, 0.0], [0.0, 1e308, 1e308], [-0.3, 0.1, 0.2]])
    messages = {1: "weights must be positive and finite", 2: "eta must be finite"}
    for context in (lambda: np.errstate(all="raise"), warnings_as_errors):
        for method in ("analytic", "liftone"):
            with context():
                got = dispatch_rows(problem, betas, method, 1e-12)
                assert isinstance(got, list)
                own = cli.dispatch_solve(DesignProblem(X, beta=betas[0], weight_fn=fn), method, 1e-12)
                assert fingerprint(got[0]) == fingerprint(own)
                want = solve_each(problem, betas, method)
                assert [fingerprint(r) for r in got] == [fingerprint(r) for r in want]
                assert not isinstance(got[3], Exception)
                for i, message in messages.items():
                    assert fingerprint(got[i]) == ("DomainError", message)
                    with pytest.raises(DomainError, match=f"^{message}$"):
                        DesignProblem(X, beta=betas[i], weight_fn=fn)


def outcome(call):
    """What ``call()`` returns, as exact bits (:func:`fingerprint` of a report, of each
    row of a list, of a corner verdict or of a region map), or its typed error."""
    try:
        result = call()
    except (DomainError, SolverError) as exc:
        return fingerprint(exc)
    if isinstance(result, list):
        return [fingerprint(row) for row in result]
    if isinstance(result, BoundaryVerdict):
        argmin = [float(x).hex() for x in result.argmin]
        return result.boundary_optimal, result.min_s.hex(), argmin, result.p4.p.tobytes(), result.f_p4.hex()
    if isinstance(result, RegionGrid):
        return result.min_s.tobytes(), result.verdict.tobytes(), result.failed.tobytes()
    return fingerprint(result)


def two_by_two(link, beta):
    return DesignProblem(LAYOUTS["2x2"][0], beta=np.array(beta), weight_fn=WeightFunction.from_name(link))


#: inputs whose weights, reductions or margins underflow; a region's beta is beta0 and
#: the half-widths of its slope ranges. The probit +-40 map holds nodes with zero corner
#: weights, and logit 800 has weights that underflow to zero
UNDERFLOW_INPUTS = [
    ("solve", "logit", (700.0, 1.0, 1.0)),
    ("solve", "probit", (-1.0, 30.0, 0.0)),
    ("solve", "logit", (800.0, 1.0, 1.0)),
    ("rows", "logit", (700.0, 1.0, 1.0)),
    ("rows", "probit", (-1.0, 30.0, 0.0)),
    ("rows", "logit", (800.0, 1.0, 1.0)),
    ("check", "logit", (700.0, 1.0, 1.0)),
    ("check", "probit", (-1.0, 30.0, 0.0)),
    ("check", "logit", (0.0, 360.0, 360.0)),
    ("region", "probit", (-1.0, 40.0, 40.0)),
    ("solve", "logit", (0.0, 360.0, 360.0)),
    ("rows", "logit", (0.0, 360.0, 360.0)),
]


@pytest.mark.parametrize("kind, link, beta", UNDERFLOW_INPUTS)
def test_underflow_under_errstate_raise(kind, link, beta):
    # an underflow is an exact zero, or a typed error where the result needs a
    # positive number: under np.errstate(all="raise") each call returns what it
    # returns under the default errstate, bit for bit, or raises the same typed error
    fn = WeightFunction.from_name(link)
    calls = {
        "solve": lambda: cli.dispatch_solve(two_by_two(link, beta), "auto", 1e-12),
        "rows": lambda: dispatch_rows(two_by_two(link, (0.0, 0.0, 0.0)), [beta], "auto", 1e-12),
        "check": lambda: check_boundary_optimal(ContinuousProblem(beta, (-1.0, 1.0, -1.0, 1.0), fn)),
        "region": lambda: region_sweep(beta[0], (-beta[1], beta[1]), (-beta[2], beta[2]), 41, fn),
    }
    want = outcome(calls[kind])
    with np.errstate(all="raise"):
        assert outcome(calls[kind]) == want
        if kind == "rows":
            # the row's error is the one its own DesignProblem raises
            assert want == [outcome(lambda: cli.dispatch_solve(two_by_two(link, beta), "auto", 1e-12))]


def test_liftone_underflow_under_errstate_raise():
    # products inside the lift-one stack underflow on this probit 2^3 main-effects
    # draw; under np.errstate(all="raise") the report is the default errstate's, bit for bit
    X = build_model_matrix([[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)])
    beta = (4.912061404017834, 6.266873194101812, -24.469618168736513, 2.0817798894300097)
    with np.errstate(all="ignore"):
        problem = DesignProblem(X, beta=np.array(beta), weight_fn=WeightFunction.from_name("probit"))
    want = outcome(lambda: cli.dispatch_solve(problem, "auto", 1e-12))
    assert want[0] == "liftone" and dict(want[3])["equivalence_gap"] == (0.0).hex()
    with np.errstate(all="raise"):
        assert outcome(lambda: cli.dispatch_solve(problem, "auto", 1e-12)) == want


def write_problem(tmp_path, payload):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SAT3 = {
    "link": "probit",
    "beta": [0.1, -0.2, 0.3, 0.05, -0.1, 0.2, 0.15],
    "design_points": [[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)],
    "model_terms": [[], [0], [1], [2], [0, 1], [0, 2], [1, 2]],
}


def per_row_main(monkeypatch, argv, capsys):
    """``main(argv)`` with the rows solved one at a time, as before the row path."""
    with monkeypatch.context() as m:
        m.setattr(cli, "dispatch_rows", lambda problem, betas, method, _: solve_each(problem, betas, method))
        rc = main(argv)
    return rc, capsys.readouterr()


def test_sweep_stops_at_the_first_failing_row(tmp_path, capsys, monkeypatch):
    # the middle row's probit weights underflow to zero (|eta| >= 40)
    argv = ["sweep-beta", write_problem(tmp_path, SAT3), "--vary", "1", "--range=-1:81:3"]
    want_rc, want = per_row_main(monkeypatch, argv, capsys)
    assert main(argv) == want_rc == 2
    got = capsys.readouterr()
    assert got.out == want.out == ""
    assert got.err == want.err == "input error: weights must be positive and finite\n"


def test_sweep_rows_match_the_per_row_loop(tmp_path, capsys, monkeypatch):
    argv = ["sweep-beta", write_problem(tmp_path, SAT3), "--vary", "2", "--range=-1:1:9"]
    want_rc, want = per_row_main(monkeypatch, argv, capsys)
    assert main(argv) == want_rc == 0
    got = capsys.readouterr()
    assert got.out == want.out
    assert len(got.out.splitlines()) == 10


def without_time(text):
    return [line.split(",")[:3] + line.split(",")[4:] for line in text.splitlines()]


def test_bench_without_instances(capsys):
    assert main(["bench", "--model", "2^3", "--n-instances", "0"]) == 0
    assert without_time(capsys.readouterr().out) == [
        ["method", "n_instances", "failures", "efficiency_mean", "efficiency_p01", "efficiency_min"],
        ["analytic", "0", "0", "1", "1", "1"],
        ["liftone", "0", "0", "nan", "nan", "nan"],
    ]


@pytest.mark.parametrize("model", ["2x2", "2^3"])
def test_bench_with_failing_instances_matches_the_per_row_loop(capsys, monkeypatch, model):
    argv = ["bench", "--model", model, "--link", "probit", "--dist", "uniform:-40:40"]
    argv += ["--n-instances", "30", "--seed", "4"]
    want_rc, want = per_row_main(monkeypatch, argv, capsys)
    assert main(argv) == want_rc == 0
    got = without_time(capsys.readouterr().out)
    assert got == without_time(want.out)
    # most instances fail on both methods; the rest are paired for efficiency
    analytic, liftone = got[1], got[2]
    assert int(analytic[2]) == int(liftone[2]) > 0
