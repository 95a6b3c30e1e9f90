"""Objective evaluation, subset expansion, and design-matrix helpers."""

import itertools

import numpy as np
import pytest

import glmdopt
from glmdopt import (
    Allocation,
    DesignProblem,
    DomainError,
    WeightFunction,
    build_model_matrix,
    expansion_value,
    full_factorial_design,
    objective_det,
    objective_expansion,
    vform_objective,
)
from glmdopt.design import leave_one_out_minors

X22 = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])


def _problem(X, w):
    return DesignProblem(np.asarray(X, float), w=np.asarray(w, float))


class TestObjectiveDet:
    def test_unit_weights_uniform(self):
        # four triples of coefficient 16 at p_i = 1/4: 16 * 4 / 64 = 1
        prob = _problem(X22, np.ones(4))
        assert objective_det(prob, Allocation.uniform(4)) == pytest.approx(1.0, rel=1e-12)

    def test_rank_deficient_support_is_zero(self):
        prob = _problem(X22, np.ones(4))
        p = np.array([0.5, 0.5, 0.0, 0.0])  # two support points for three terms
        assert objective_det(prob, p) == pytest.approx(0.0, abs=1e-14)

    def test_eight_point_cross_check_against_expansion(self):
        # weights shaped so the reduced coefficients are 1..8
        X, _ = full_factorial_design(3)
        c = (np.prod(np.arange(1.0, 9.0)) / 2.0**18) ** (1.0 / 7.0)
        w = c / np.arange(1.0, 9.0)
        prob = _problem(X, w)
        p = np.array(
            [0.1394693827, 0.1359038626, 0.1321292663, 0.1281038353,
             0.1237697284, 0.1190427279, 0.1137915161, 0.1077896806]
        )
        p = p / p.sum()
        det_val = objective_det(prob, p)
        exp_val = expansion_value(objective_expansion(prob), p)
        assert det_val == pytest.approx(exp_val, rel=1e-10)
        assert det_val == pytest.approx(1.7530190502344328e-05, rel=1e-8)

    def test_dimension_mismatch(self):
        prob = _problem(X22, np.ones(4))
        with pytest.raises(DomainError):
            objective_det(prob, np.array([0.5, 0.5]))


class TestObjectiveExpansion:
    def test_two_level_main_effects_coefficients(self):
        prob = _problem(X22, np.ones(4))
        terms = objective_expansion(prob)
        assert len(terms) == 4
        for _, coeff in terms:
            assert coeff == pytest.approx(16.0, rel=1e-12)

    def test_rank_two_matrix_all_zero(self):
        X = np.array([[1.0, -1, -1], [1, -0.5, -0.5], [1, 0.5, 0.5], [1, 1, 1]])
        prob = _problem(X, np.ones(4))
        for _, coeff in objective_expansion(prob):
            assert coeff == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_direction_row_gives_single_zero(self):
        X = np.array([[1.0, 0, 0], [1, 1, 0], [1, 0, 1], [1, 2, 0]])
        prob = _problem(X, np.ones(4))
        coeffs = sorted(c for _, c in objective_expansion(prob))
        assert coeffs[0] == pytest.approx(0.0, abs=1e-12)
        assert coeffs[1] > 1e-6

    def test_guard_on_large_problems(self):
        n = 25
        X = np.column_stack([np.ones(n), np.arange(n, dtype=float)])
        prob = _problem(X, np.ones(n))
        with pytest.raises(DomainError, match="expansion too large"):
            objective_expansion(prob)


class TestObjectiveProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_det_equals_expansion(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = int(rng.integers(3, 9))
        d = int(rng.integers(2, min(n, 7) + 1))
        X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, d - 1))])
        w = rng.uniform(0.2, 3.0, n)
        prob = _problem(X, w)
        p = rng.dirichlet(np.ones(n))
        det_val = objective_det(prob, p)
        exp_val = expansion_value(objective_expansion(prob), p)
        assert det_val == pytest.approx(exp_val, rel=1e-10, abs=1e-13)

    def test_row_permutation_invariance(self, rng):
        X = np.column_stack([np.ones(5), rng.normal(0, 1, (5, 3))])
        w = rng.uniform(0.5, 2.0, 5)
        p = rng.dirichlet(np.ones(5))
        base = objective_det(_problem(X, w), p)
        for _ in range(5):
            perm = rng.permutation(5)
            assert objective_det(_problem(X[perm], w[perm]), p[perm]) == pytest.approx(
                base, rel=1e-10
            )

    def test_weight_scaling_homogeneity(self, rng):
        X = np.column_stack([np.ones(6), rng.normal(0, 1, (6, 3))])
        w = rng.uniform(0.5, 2.0, 6)
        p = rng.dirichlet(np.ones(6))
        base = objective_det(_problem(X, w), p)
        c = 2.7
        assert objective_det(_problem(X, c * w), p) == pytest.approx(c**4 * base, rel=1e-10)

    def test_root_concavity_on_segments(self, rng):
        # det^(1/d) is concave on the simplex: midpoint value dominates the mean
        X = np.column_stack([np.ones(6), rng.normal(0, 1, (6, 3))])
        prob = _problem(X, rng.uniform(0.5, 2.0, 6))
        d = 4
        for _ in range(25):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            mid = 0.5 * (p + q)
            lhs = objective_det(prob, mid) ** (1.0 / d)
            rhs = 0.5 * (objective_det(prob, p) ** (1.0 / d) + objective_det(prob, q) ** (1.0 / d))
            assert lhs >= rhs - 1e-12 * max(1.0, abs(rhs))


class TestValidation:
    def test_duplicate_rows_rejected(self):
        X = np.array([[1.0, 1, 1], [1, 1, 1], [1, -1, 1], [1, -1, -1]])
        with pytest.raises(DomainError, match="distinct"):
            _problem(X, np.ones(4))

    def test_near_duplicate_rows_rejected_after_rounding(self):
        X = X22.copy()
        X[1, 1:] = X[0, 1:] + 1e-15
        with pytest.raises(DomainError, match="distinct"):
            _problem(X, np.ones(4))

    def test_intercept_column_required(self):
        X = np.array([[2.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
        with pytest.raises(DomainError, match="ones"):
            _problem(X, np.ones(4))

    def test_more_terms_than_points_rejected(self):
        X = np.array([[1.0, 1, 1], [1, -1, 2]])
        with pytest.raises(DomainError):
            _problem(X, np.ones(2))

    def test_weights_must_be_positive(self):
        with pytest.raises(DomainError):
            _problem(X22, np.array([1.0, 1.0, 0.0, 1.0]))

    def test_beta_length_checked(self):
        with pytest.raises(DomainError, match="beta"):
            DesignProblem(X22, beta=[0.0, 1.0], weight_fn=WeightFunction.logit())

    def test_beta_weight_fn_derivation(self):
        prob = DesignProblem(X22, beta=[0.0, 0.0, 0.0], weight_fn=WeightFunction.logit())
        assert np.allclose(prob.w, 0.25)

    def test_allocation_validation(self):
        with pytest.raises(DomainError):
            Allocation(np.array([0.5, 0.6]))
        with pytest.raises(DomainError):
            Allocation(np.array([0.7, 0.5, -0.2]))
        a = Allocation(np.array([0.5, 0.5, -1e-14]))  # tiny negatives clamp to 0
        assert a.p[2] == 0.0


class TestMatrixBuilders:
    def test_main_effects(self):
        X = build_model_matrix([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        assert np.array_equal(X, X22)

    def test_explicit_recipe_with_interaction(self):
        X = build_model_matrix([[1, 2], [3, 4]], [(), (0,), (1,), (0, 1)])
        assert np.array_equal(X, np.array([[1.0, 1, 2, 2], [1, 3, 4, 12]]))

    def test_recipe_must_start_with_intercept(self):
        with pytest.raises(DomainError):
            build_model_matrix([[1, 2]], [(0,), ()])

    def test_recipe_index_bounds(self):
        with pytest.raises(DomainError):
            build_model_matrix([[1, 2]], [(), (5,)])

    def test_full_factorial_k2_matches_two_level_matrix(self):
        X, points = full_factorial_design(2)
        assert np.array_equal(X, X22)
        assert np.array_equal(points, X22[:, 1:])

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_full_factorial_minor_magnitudes(self, k):
        X, _ = full_factorial_design(k)
        n = 2**k
        assert X.shape == (n, n - 1)
        target = 2.0 ** (k * (n - 2))
        for j in range(n):
            minor = np.linalg.det(np.delete(X, j, axis=0))
            assert minor * minor == pytest.approx(target, rel=1e-9)


def test_vform_objective_matches_direct(rng):
    v = rng.uniform(0.1, 5.0, 6)
    p = rng.dirichlet(np.ones(6))
    direct = sum(v[j] * np.prod(np.delete(p, j)) for j in range(6))
    assert vform_objective(v, p) == pytest.approx(direct, rel=1e-12)
    p[2] = 0.0
    p = p / p.sum()
    direct = sum(v[j] * np.prod(np.delete(p, j)) for j in range(6))
    assert vform_objective(v, p) == pytest.approx(direct, rel=1e-12)


class TestLeaveOneOutMinors:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_bitwise_equal_to_row_deletion(self, rng, n):
        for _ in range(20):
            X = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, (n, n - 2))])
            minors, _ = leave_one_out_minors(X)
            expected = [np.linalg.det(np.delete(X, i, axis=0)) for i in range(n)]
            assert minors.tobytes() == np.array(expected).tobytes()

    def test_zero_mask(self):
        one_zero = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -0.2, 0.2]])
        rank2 = np.array([[1.0, -1, -1], [1, -0.5, -0.5], [1, 0.5, 0.5], [1, 1, 1]])
        assert leave_one_out_minors(X22)[1].tolist() == [False] * 4
        assert leave_one_out_minors(one_zero)[1].tolist() == [True, False, False, False]
        minors, zero = leave_one_out_minors(rank2)
        # every minor is roundoff, far below the Hadamard bound of X
        assert zero.tolist() == [True] * 4
        assert np.abs(minors).max() < 1e-15

    @pytest.mark.parametrize(
        "k, low, high", [(5, 0.0, 1.0), (6, 0.0, 1.0), (4, 1.0, 2.0), (2, 1e6, 1e6 + 1.0)]
    )
    def test_zero_mask_ignores_level_coding(self, k, low, high):
        # every minor of these saturated layouts is +-1, far below the product
        # of the column norms; a bound built from that product flags them all
        _, points = full_factorial_design(k)
        recipe = [()] + [t for size in range(1, k) for t in itertools.combinations(range(k), size)]
        X = build_model_matrix(np.where(points > 0.0, high, low), recipe)
        minors, zero = leave_one_out_minors(X)
        assert np.abs(minors) == pytest.approx(np.ones(2**k), rel=1e-9)
        assert not zero.any()

    def test_zero_mask_ignores_column_scale(self):
        # a 32-point layout takes the SVD rank test, which must see the columns
        # at unit norm: unscaled, this one would have numerical rank 30
        X, _ = full_factorial_design(5)
        X = X * np.where(np.arange(31) == 7, 1e-15, 1.0)
        assert np.linalg.matrix_rank(X) == 30
        assert not leave_one_out_minors(X)[1].any()


def test_public_names_pinned():
    assert set(glmdopt.__all__) == {
        "Allocation", "BoundaryVerdict", "ContinuousProblem", "DesignProblem", "DomainError",
        "LiftOneConfig", "MultilinearObjective", "MuSolve", "QuarticRoot", "RegionGrid",
        "RescaleTransform", "SaturatedProblem", "SolveReport", "SolverError",
        "WeightFunction", "back_substitute", "build_model_matrix",
        "check_boundary_optimal", "compute_u", "compute_v", "corner_weights", "expansion_value",
        "fi_profile", "full_factorial_design", "h1_eval", "h2_eval", "h_ab", "kkt_residual",
        "liftone_maximize", "objective_det", "objective_expansion", "quartic_largest_root",
        "region_boundary_segments", "region_sweep", "rescale_problem", "root_mu", "solve_22",
        "solve_fourpoint", "solve_quartic", "solve_saturated", "vform_objective", "weight_eval",
    }
    assert len(glmdopt.__all__) == 42
    assert all(hasattr(glmdopt, name) for name in glmdopt.__all__)
