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
    liftone_maximize,
    objective_det,
    solve_fourpoint,
    vform_objective,
)

X22 = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])

# rows 2, 3 and a fourth row on their affine span (0.4 r2 + 0.6 r3)
X_ONE_ZERO = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -0.2, 0.2]])

# all four points on the line x2 = x1
X_RANK2 = np.array([[1.0, -1, -1], [1, -0.5, -0.5], [1, 0.5, 0.5], [1, 1, 1]])


def _one_zero_problem(u_targets):
    """A one-zero problem whose reduced coefficients match u_targets[1:]."""
    minors = np.array([np.linalg.det(np.delete(X_ONE_ZERO, i, axis=0)) for i in range(4)])
    w = np.ones(4)
    for i in range(1, 4):
        w[i] = minors[i] ** 2 / u_targets[i]
    return DesignProblem(X_ONE_ZERO, w=w)


class TestComputeU:
    def test_two_level_matrix_coefficients(self, rng):
        w = rng.uniform(0.05, 0.25, 4)
        uc = compute_u(DesignProblem(X22, w=w))
        assert uc.rank_case == "rank3_general"
        assert uc.u == pytest.approx(16.0 / w, rel=1e-12)
        assert np.abs(uc.minors) == pytest.approx(np.full(4, 4.0), rel=1e-12)

    def test_rectangle_corner_minors(self):
        a1, b1, a2, b2 = -1.0, 1.0, -1.0, 1.0
        X = np.array([[1.0, b1, b2], [1, b1, a2], [1, a1, b2], [1, a1, a2]])
        uc = compute_u(DesignProblem(X, w=np.ones(4)))
        span = (b1 - a1) * (b2 - a2)
        assert np.abs(uc.minors) == pytest.approx(np.full(4, abs(span)), rel=1e-12)

    def test_general_rectangle_corner_minors(self):
        a1, b1, a2, b2 = 0.5, 2.0, -3.0, -1.0
        X = np.array([[1.0, b1, b2], [1, b1, a2], [1, a1, b2], [1, a1, a2]])
        uc = compute_u(DesignProblem(X, w=np.ones(4)))
        span = (b1 - a1) * (b2 - a2)
        # deleting row 4 or 3 flips the orientation relative to deleting 1 or 2
        assert uc.minors[3] == pytest.approx(-span, rel=1e-12)
        assert uc.minors[2] == pytest.approx(-span, rel=1e-12)
        assert uc.minors[1] == pytest.approx(span, rel=1e-12)
        assert uc.minors[0] == pytest.approx(span, rel=1e-12)

    def test_collinear_row_zeroes_the_right_coefficient(self):
        uc = compute_u(DesignProblem(X_ONE_ZERO, w=np.ones(4)))
        assert uc.rank_case == "rank3_one_zero"
        assert uc.u[0] == 0.0
        assert np.all(uc.u[1:] > 0.0)

    def test_rank2_detected(self):
        uc = compute_u(DesignProblem(X_RANK2, w=np.ones(4)))
        assert uc.rank_case == "rank2"
        assert np.all(uc.u == 0.0)

    def test_shape_checked(self):
        X = np.column_stack([np.ones(5), np.arange(5.0), np.arange(5.0) ** 2])
        with pytest.raises(DomainError):
            compute_u(DesignProblem(X, w=np.ones(5)))


class TestSolveFourpoint:
    def test_rank2_uniform_zero_objective(self):
        rep = solve_fourpoint(DesignProblem(X_RANK2, w=np.ones(4)))
        assert rep.case_label == "degenerate-rank2"
        assert np.array_equal(rep.allocation.p, np.full(4, 0.25))
        assert rep.objective == 0.0

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
        assert rep.case_label == "twofactor-2a"
        p = rep.allocation.p
        assert p[3] == pytest.approx(0.0, abs=1e-15)
        assert sorted(p)[1:] == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_strict_zero_case_closed_form(self):
        rep = solve_fourpoint(_one_zero_problem([0.0, 1.0, 2.0, 2.5]))
        assert rep.case_label == "twofactor-2d"
        # delta = 7.75: p = (1/3, 7/23.25, 6/23.25, 2.5/23.25)
        assert rep.allocation.p == pytest.approx(
            [1 / 3, 7 / 23.25, 6 / 23.25, 2.5 / 23.25], abs=1e-12
        )
        assert rep.allocation.p.sum() == pytest.approx(1.0, abs=1e-14)
        assert rep.allocation.p[0] == 1.0 / 3.0

    def test_tied_zero_case(self):
        rep = solve_fourpoint(_one_zero_problem([0.0, 1.0, 1.0, 1.0]))
        assert rep.case_label == "twofactor-2b"
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
            if rep.case_label == "twofactor-2d":
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
        uc = compute_u(problem)
        rep = solve_fourpoint(problem)
        lhs = objective_det(problem, rep.allocation)
        rhs = float(np.prod(w)) * vform_objective(uc.u, rep.allocation.p)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_one_zero_problem_realizes_targets(rng):
    u_target = np.array([0.0, 1.0, 2.0, 2.5])
    uc = compute_u(_one_zero_problem(u_target))
    assert uc.u == pytest.approx(u_target, abs=1e-12)
