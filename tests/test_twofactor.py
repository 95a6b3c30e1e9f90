"""Four distinct two-factor points: minor reduction and rank dispatch."""

import numpy as np
import pytest

from conftest import random_feasible
from glmdopt import (
    DesignProblem,
    DomainError,
    LiftOneConfig,
    WeightFunction,
    build_model_matrix,
    compute_u,
    compute_v,
    liftone_maximize,
    objective_det,
    solve_fourpoint,
    solve_saturated,
    vform_objective,
)
from glmdopt.design import leave_one_out_minors

X22 = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])

# rows 2, 3 and a fourth row on their affine span (0.4 r2 + 0.6 r3)
X_ONE_ZERO = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -0.2, 0.2]])

# all four points on the line x2 = x1
X_RANK2 = np.array([[1.0, -1, -1], [1, -0.5, -0.5], [1, 0.5, 0.5], [1, 1, 1]])


def _one_zero_problem(u_targets):
    """A one-zero problem whose reduced coefficients are proportional to u_targets."""
    minors = np.array([np.linalg.det(np.delete(X_ONE_ZERO, i, axis=0)) for i in range(4)])
    w = np.ones(4)
    for i in range(1, 4):
        w[i] = minors[i] ** 2 / u_targets[i]
    return DesignProblem(X_ONE_ZERO, w=w)


def _true_v(sp):
    """True-scale coefficients of a reduced problem, back in input order."""
    out = np.empty(sp.n)
    out[sp.perm] = sp.v * np.exp(sp.log_scale)
    return out


class TestComputeU:
    def test_two_level_matrix_coefficients(self, rng):
        w = rng.uniform(0.05, 0.25, 4)
        sp = compute_u(DesignProblem(X22, w=w))
        assert sp.n == 4 and sp.zero_count == 0
        minors, zero, shift = leave_one_out_minors(X22)
        assert not zero.any() and shift == 0
        assert np.abs(minors) == pytest.approx(np.full(4, 4.0), rel=1e-12)
        # v_j = minor_j^2 prod_{i != j} w_i
        assert _true_v(sp) == pytest.approx(16.0 * np.prod(w) / w, rel=1e-12)

    def test_rectangle_corner_minors(self):
        a1, b1, a2, b2 = -1.0, 1.0, -1.0, 1.0
        X = np.array([[1.0, b1, b2], [1, b1, a2], [1, a1, b2], [1, a1, a2]])
        minors, _, _ = leave_one_out_minors(X)
        span = (b1 - a1) * (b2 - a2)
        assert np.abs(minors) == pytest.approx(np.full(4, abs(span)), rel=1e-12)

    def test_general_rectangle_corner_minors(self):
        a1, b1, a2, b2 = 0.5, 2.0, -3.0, -1.0
        X = np.array([[1.0, b1, b2], [1, b1, a2], [1, a1, b2], [1, a1, a2]])
        minors, _, _ = leave_one_out_minors(X)
        span = (b1 - a1) * (b2 - a2)
        # deleting row 4 or 3 flips the orientation relative to deleting 1 or 2
        assert minors[3] == pytest.approx(-span, rel=1e-12)
        assert minors[2] == pytest.approx(-span, rel=1e-12)
        assert minors[1] == pytest.approx(span, rel=1e-12)
        assert minors[0] == pytest.approx(span, rel=1e-12)
        w = np.array([0.3, 0.1, 0.7, 0.2])
        sp = compute_u(DesignProblem(X, w=w))
        assert _true_v(sp) == pytest.approx(span**2 * np.prod(w) / w, rel=1e-12)

    def test_collinear_row_zeroes_the_right_coefficient(self):
        sp = compute_u(DesignProblem(X_ONE_ZERO, w=np.ones(4)))
        assert sp.zero_count == 1
        v = _true_v(sp)
        assert v[0] == 0.0
        assert np.all(v[1:] > 0.0)

    def test_weight_spread_on_a_zero_row(self):
        # the roundoff minor of the zero row over a tiny weight would exceed
        # the float range if it were scaled like the others
        w = np.array([1e-300, 1e300, 1e300, 1e300])
        sp = compute_u(DesignProblem(X_ONE_ZERO, w=w))
        assert sp.zero_count == 1 and sp.perm[0] == 0
        rep = solve_fourpoint(DesignProblem(X_ONE_ZERO, w=w))
        assert rep.case_label == "twofactor-case-2a"
        assert rep.diagnostics["equivalence_gap"] <= 1e-12

    def test_rank2_detected(self):
        assert compute_u(DesignProblem(X_RANK2, w=np.ones(4))) is None

    def test_shape_checked(self):
        X = np.column_stack([np.ones(5), np.arange(5.0), np.arange(5.0) ** 2])
        with pytest.raises(DomainError):
            compute_u(DesignProblem(X, w=np.ones(5)))


class TestSolveFourpoint:
    @pytest.mark.parametrize("b", [185.0, 187.0, 300.0])
    def test_weights_beyond_float_span_solve(self, b):
        # the weights run from e^-2b to e^2b, so from b = 187 on the smallest v
        # underflows against the largest without being a flagged zero minor; it
        # is an exact zero. At b = 185 it is tiny but positive: the label is the
        # same, since it does not follow underflow
        prob = DesignProblem(X22, beta=[0.0, b, b], weight_fn=WeightFunction.log_poisson())
        lift, fourpoint = liftone_maximize(prob), solve_fourpoint(prob)
        assert fourpoint.case_label == "twofactor-case-2a"
        for rep in (fourpoint, solve_saturated(compute_v(prob))):
            assert rep.allocation.p == pytest.approx(lift.allocation.p, abs=1e-9)
            assert rep.diagnostics["log_objective"] == pytest.approx(
                lift.diagnostics["log_objective"], abs=1e-12
            )

    def test_rank2_uniform_zero_objective(self):
        rep = solve_fourpoint(DesignProblem(X_RANK2, w=np.ones(4)))
        assert rep.case_label == "degenerate-rank2"
        assert np.array_equal(rep.allocation.p, np.full(4, 0.25))
        assert rep.objective == 0.0

    def test_zero_column_is_rank2(self):
        X = np.array([[1.0, 0, 1], [1, 0, 2], [1, 0, 3], [1, 0, 5]])
        assert solve_fourpoint(DesignProblem(X, w=np.ones(4))).case_label == "degenerate-rank2"

    def test_minors_beyond_float_range_solve(self):
        # the minors of these full-rank layouts over- or underflow unless their
        # columns are first rescaled by powers of two; lift-one solves them too
        w = np.arange(1.0, 5.0)
        ref = solve_fourpoint(DesignProblem(X22, w=w))
        assert ref.case_label == "twofactor-case-v"
        for scale in (1e200, 1e-200):
            problem = DesignProblem(X22 * np.array([1.0, scale, scale]), w=w)
            rep = solve_fourpoint(problem)
            assert rep.case_label == ref.case_label
            assert rep.allocation.p == pytest.approx(ref.allocation.p, abs=1e-15)
            log_objective = ref.diagnostics["log_objective"] + 4.0 * np.log(scale)
            assert rep.diagnostics["log_objective"] == pytest.approx(log_objective, rel=1e-14)
            lift = liftone_maximize(problem)
            assert lift.diagnostics["log_objective"] == pytest.approx(log_objective, rel=1e-12)

    def test_seeded_collinear_layouts_are_rank2(self):
        # every minor of four collinear points is roundoff; a threshold
        # relative to the largest minor once labelled about half of these
        # layouts with a rank-3 case
        rng = np.random.default_rng(0)
        for _ in range(200):
            x1 = rng.uniform(-1.0, 1.0, 4)
            X = np.column_stack([np.ones(4), x1, 0.3 * x1 + 0.1])
            rep = solve_fourpoint(DesignProblem(X, w=rng.uniform(0.1, 0.3, 4)))
            assert rep.case_label == "degenerate-rank2"
            assert np.array_equal(rep.allocation.p, np.full(4, 0.25))

    def test_offset_levels_match_plus_minus_one(self, rng):
        # recoding the levels {-1, 1} as {L, L+1} scales every minor by 1/4
        points = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        w = rng.uniform(0.05, 0.25, 4)
        ref = solve_fourpoint(DesignProblem(X22, w=w))
        rep = solve_fourpoint(DesignProblem(build_model_matrix((points + 1.0) / 2.0 + 1e6), w=w))
        assert rep.case_label == ref.case_label
        assert rep.allocation.p == pytest.approx(ref.allocation.p, abs=1e-9)

    def test_dominant_zero_case(self):
        rep = solve_fourpoint(_one_zero_problem([0.0, 1.0, 1.0, 3.0]))
        assert rep.case_label == "twofactor-case-2a"
        p = rep.allocation.p
        assert p[3] == pytest.approx(0.0, abs=1e-15)
        assert sorted(p)[1:] == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_strict_zero_case_closed_form(self):
        rep = solve_fourpoint(_one_zero_problem([0.0, 1.0, 2.0, 2.5]))
        assert rep.case_label == "twofactor-case-2d"
        # delta = 7.75: p = (1/3, 7/23.25, 6/23.25, 2.5/23.25)
        assert rep.allocation.p == pytest.approx(
            [1 / 3, 7 / 23.25, 6 / 23.25, 2.5 / 23.25], abs=1e-12
        )
        assert rep.allocation.p.sum() == pytest.approx(1.0, abs=1e-14)
        assert rep.allocation.p[0] == 1.0 / 3.0

    def test_tied_zero_case(self):
        rep = solve_fourpoint(_one_zero_problem([0.0, 1.0, 1.0, 1.0]))
        assert rep.case_label == "twofactor-case-2b"
        assert rep.allocation.p == pytest.approx([1 / 3, 2 / 9, 2 / 9, 2 / 9], abs=1e-12)

    def test_all_positive_delegates(self, rng):
        w = rng.uniform(0.05, 0.25, 4)
        rep = solve_fourpoint(DesignProblem(X22, w=w))
        assert rep.case_label.startswith("twofactor-case-")
        assert rep.objective == pytest.approx(
            objective_det(DesignProblem(X22, w=w), rep.allocation), rel=1e-12
        )


class TestInvariants:
    def _random_one_zero_u(self, rng):
        while True:
            u = np.sort(rng.uniform(0.1, 5.0, 3))
            if u[2] < u[0] + u[1] and np.min(np.diff(u)) > 1e-6 * u[2]:
                return np.concatenate([[0.0], u])

    def test_delta_factorization(self, rng):
        for _ in range(1000):
            u = self._random_one_zero_u(rng)
            _, u2, u3, u4 = u
            delta = 2 * u2 * u3 + 2 * u2 * u4 + 2 * u3 * u4 - u2**2 - u3**2 - u4**2
            r2, r3, r4 = np.sqrt([u2, u3, u4])
            prod = (r2 + r3 + r4) * (r2 + r3 - r4) * (r2 + r4 - r3) * (r3 + r4 - r2)
            assert delta > 0.0
            assert delta == pytest.approx(prod, rel=1e-12)

    def test_strict_zero_case_first_point_exact_third(self, rng):
        for _ in range(50):
            u = self._random_one_zero_u(rng)
            rep = solve_fourpoint(_one_zero_problem(u))
            if rep.case_label == "twofactor-case-2d":
                assert rep.allocation.p[0] == 1.0 / 3.0

    def test_dominates_random_allocations_and_liftone(self, rng):
        for _ in range(10):
            w = rng.uniform(0.05, 0.3, 4)
            problem = DesignProblem(X22, w=w)
            rep = solve_fourpoint(problem)
            for _ in range(1000):
                q = random_feasible(rng, 4)
                assert rep.objective >= objective_det(problem, q) - 1e-12 * rep.objective
            lift = liftone_maximize(problem, LiftOneConfig(tol=1e-14))
            assert rep.objective >= lift.objective - 1e-9 * rep.objective
            assert rep.objective == pytest.approx(lift.objective, rel=1e-9)

    def test_row_permutation_equivariance(self, rng):
        w = rng.uniform(0.05, 0.3, 4)
        base = solve_fourpoint(DesignProblem(X22, w=w)).allocation.p
        for _ in range(6):
            perm = rng.permutation(4)
            rep = solve_fourpoint(DesignProblem(X22[perm], w=w[perm]))
            assert rep.allocation.p == pytest.approx(base[perm], abs=1e-13)

    def test_reduced_objective_consistent_with_determinant(self, rng):
        w = rng.uniform(0.05, 0.3, 4)
        problem = DesignProblem(X22, w=w)
        sp = compute_u(problem)
        rep = solve_fourpoint(problem)
        lhs = objective_det(problem, rep.allocation)
        rhs = vform_objective(_true_v(sp), rep.allocation.p)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_one_zero_problem_realizes_targets(rng):
    u_target = np.array([0.0, 1.0, 2.0, 2.5])
    problem = _one_zero_problem(u_target)
    v = _true_v(compute_u(problem))
    assert v == pytest.approx(u_target * np.prod(problem.w), rel=1e-12)


@pytest.mark.parametrize(
    "link, beta0",
    [("logit", 173.0), ("logit", 200.0), ("logit", 300.0), ("logit", 400.0), ("probit", 37.0)],
)
def test_extreme_intercept_matches_saturated(link, beta0):
    # the weights span exp(-beta0) scales; four-point is the n = 4 saturated problem
    fn = WeightFunction.from_name(link)
    problem = DesignProblem(X22, beta=[beta0, 0.5, 0.3], weight_fn=fn)
    rep = solve_fourpoint(problem)
    ref = solve_saturated(compute_v(problem))
    assert np.abs(rep.allocation.p - ref.allocation.p).max() <= 1e-12
    assert rep.diagnostics["equivalence_gap"] <= 1e-9
    assert rep.diagnostics["log_objective"] == pytest.approx(
        ref.diagnostics["log_objective"], abs=1e-10
    )
