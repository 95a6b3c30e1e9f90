"""Objective evaluation, subset expansion, and design-matrix helpers."""

import itertools
import warnings

import numpy as np
import pytest

import glmdopt
from glmdopt import (
    Allocation,
    ContinuousProblem,
    DesignProblem,
    DomainError,
    LiftOneConfig,
    MultilinearObjective,
    SaturatedProblem,
    WeightFunction,
    build_model_matrix,
    check_boundary_optimal,
    compute_v,
    corner_weights,
    fi_profile,
    full_factorial_design,
    h_ab,
    liftone_maximize,
    objective_det,
    region_sweep,
    solve_fourpoint,
    solve_saturated,
    vform_objective,
)
from glmdopt.boundary import grid_axis
from glmdopt.design import leave_one_out_minors, vform_log_sensitivities
from reference import back_substitute, expansion_value, objective_expansion

X22 = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
LOGIT = WeightFunction.from_name("logit")
UNIT_PROBLEM = ContinuousProblem(np.array([-1.0, 0.5, 0.5]), (-1.0, 1.0, -1.0, 1.0), LOGIT)


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

    def test_distinct_rows_ignore_column_scale(self, rng):
        # rows are compared at the scale of each column, so small codings of a
        # full-rank layout solve to the allocation of the +-1 coding
        w = np.arange(1.0, 5.0)
        ref = solve_fourpoint(_problem(X22, w))
        small = _problem(X22 * np.array([1.0, 1e-14, 1e-14]), w)
        assert solve_fourpoint(small).allocation.p == pytest.approx(ref.allocation.p, abs=1e-14)
        assert liftone_maximize(small).allocation.p == pytest.approx(ref.allocation.p, abs=1e-14)
        X, _ = full_factorial_design(3)
        w = rng.uniform(0.05, 0.25, 8)
        ref = solve_saturated(compute_v(_problem(X, w)))
        rep = solve_saturated(compute_v(_problem(X * np.where(np.arange(7) == 0, 1.0, 1e-20), w)))
        assert rep.allocation.p == pytest.approx(ref.allocation.p, abs=1e-14)

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

    def test_numbers_beyond_float_range_rejected(self):
        with pytest.raises(DomainError, match="beta"):
            DesignProblem(X22, beta=[10**400, 1.0, 1.0], weight_fn=WeightFunction.logit())
        with pytest.raises(DomainError, match="weights"):
            DesignProblem(X22, w=[1.0, 10**400, 1.0, 1.0])
        with pytest.raises(DomainError, match="X must be finite"):
            DesignProblem([[1, 10**400], [1, 0]], w=[1.0, 1.0])

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

    def test_allocation_beyond_float_range_rejected(self):
        with pytest.raises(DomainError, match="allocation entries must be finite"):
            Allocation([10**400, 0])

    # back_substitute is the paper's closed form in tests/reference.py; its
    # gate is pinned with the package's
    @pytest.mark.parametrize("bad", [10**400, float("nan")], ids=["overflow", "nan"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: vform_objective([x, 2.0, 3.0, 4.0], [0.25] * 4),
            lambda x: back_substitute(x, [1.0, 2.0, 3.0, 4.0]),
            lambda x: h_ab(x, 0.0, [0.25] * 4, [0.2, 0.1, 0.15, 0.25]),
            lambda x: corner_weights([x, 0.5, 0.5], LOGIT),
            lambda x: objective_det(_problem(X22, np.ones(4)), [x, 0.25, 0.25, 0.25]),
            lambda x: fi_profile(_problem(X22, np.ones(4)), [x, 0.25, 0.25, 0.25], 1),
            lambda x: SaturatedProblem([1.0, 2.0, 3.0], log_scale=x),
        ],
        ids=[
            "vform_objective", "back_substitute", "h_ab", "corner_weights",
            "objective_det", "fi_profile", "log_scale",
        ],
    )
    def test_public_helpers_reject_outside_numbers(self, call, bad):
        with pytest.raises(DomainError, match="finite"):
            call(bad)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: DesignProblem([[1, 0], [1]], w=[1, 1]),
            lambda: DesignProblem(np.ones((3, 0)), w=[1, 1, 1]),
            lambda: WeightFunction.constant("abc"),
            lambda: WeightFunction.constant({}),
            lambda: corner_weights([0.1, 0.2], LOGIT),
            lambda: h_ab(0.0, 0.0, [0.5, 0.5], [1.0, 1.0, 1.0, 1.0]),
            lambda: h_ab(0.0, 0.0, [0.25] * 4, [1.0, 1.0]),
            lambda: LiftOneConfig(tol=[1e-3, 1e-4]),
            lambda: WeightFunction.constant([1.0, 2.0]),
            lambda: back_substitute([2.0, 3.0], [1.0, 2.0, 3.0, 4.0]),
            lambda: SaturatedProblem([1.0, 2.0, 3.0], log_scale=[0.0, 1.0]),
            lambda: build_model_matrix(np.ones((2, 2, 2))),
        ],
        ids=[
            "ragged_X", "X_without_columns", "constant_string", "constant_dict",
            "corner_weights_2_betas", "h_ab_2_probs", "h_ab_2_weights", "tol_array",
            "constant_array", "back_substitute_array_root", "log_scale_array", "points_3d",
        ],
    )
    def test_malformed_arrays_raise_domain_error(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize(
        "bad", [float("nan"), 2.5, "3", True, np.True_, None],
        ids=["nan", "float", "str", "bool", "numpy-bool", "out-of-range"],
    )
    @pytest.mark.parametrize(
        "call, out_of_range",
        [
            (lambda c: check_boundary_optimal(UNIT_PROBLEM, s_grid_steps=c), 1),
            (lambda c: region_sweep(-1.0, (-1.0, 1.0), (-1.0, 1.0), c, LOGIT, s_grid_steps=11), 0),
            (lambda c: region_sweep(-1.0, (-1.0, 1.0), (-1.0, 1.0), 2, LOGIT, s_grid_steps=c), 1),
            (lambda c: grid_axis(0.0, 1.0, c), 0),
            (lambda c: Allocation.uniform(c), 0),
            (lambda c: build_model_matrix([[1.0, 2.0]], [(), (c,)]), 2),
            (lambda c: full_factorial_design(c), 1),
            (lambda c: LiftOneConfig(max_sweeps=c), 0),
            (lambda c: MultilinearObjective(np.prod, c, 1), 0),
            (lambda c: MultilinearObjective(np.prod, 4, c), 5),
            (lambda c: fi_profile(_problem(X22, np.ones(4)), [0.25] * 4, c), 4),
        ],
        ids=[
            "s_grid_steps", "sweep_steps", "sweep_s_grid_steps", "grid_axis", "uniform",
            "term_index", "factorial_k", "max_sweeps", "n_points", "degree", "coordinate",
        ],
    )
    def test_public_integers_pass_one_gate(self, call, out_of_range, bad):
        with pytest.raises(DomainError):
            call(out_of_range if bad is None else bad)

    def test_gated_integers_are_python_ints(self):
        assert type(LiftOneConfig(max_sweeps=np.int32(7)).max_sweeps) is int
        assert build_model_matrix([[1.0, 2.0]], [(), (np.int64(1),)]).tolist() == [[1.0, 2.0]]


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

    @pytest.mark.parametrize(
        "terms", [[(), 1], [(), (1.0,)], 7, None], ids=["int-term", "float-index", "int", "none"]
    )
    def test_recipe_terms_must_be_index_tuples(self, terms):
        with pytest.raises(DomainError):
            build_model_matrix([[1, 2]], terms)

    def test_levels_beyond_float_range_rejected(self):
        with pytest.raises(DomainError, match="factor levels must be finite"):
            build_model_matrix([[10**400, 1]])

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
            minors, _, _ = leave_one_out_minors(X)
            expected = [np.linalg.det(np.delete(X, i, axis=0)) for i in range(n)]
            assert minors.tobytes() == np.array(expected).tobytes()

    def test_zero_mask(self):
        one_zero = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -0.2, 0.2]])
        rank2 = np.array([[1.0, -1, -1], [1, -0.5, -0.5], [1, 0.5, 0.5], [1, 1, 1]])
        assert leave_one_out_minors(X22)[1].tolist() == [False] * 4
        assert leave_one_out_minors(one_zero)[1].tolist() == [True, False, False, False]
        minors, zero, _ = leave_one_out_minors(rank2)
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
        minors, zero, shift = leave_one_out_minors(X)
        assert np.abs(minors) == pytest.approx(np.ones(2**k), rel=1e-9)
        assert not zero.any() and shift == 0

    def test_zero_mask_ignores_column_scale(self):
        # unscaled, this 32-point layout would have numerical rank 30; the
        # small column is brought back near unit scale before any rank test
        X, _ = full_factorial_design(5)
        X = X * np.where(np.arange(31) == 7, 1e-15, 1.0)
        assert np.linalg.matrix_rank(X) == 30
        assert not leave_one_out_minors(X)[1].any()

    @pytest.mark.parametrize("e", [-400, 300])
    def test_columns_beyond_float_range_are_rescaled(self, e):
        # unscaled, every minor under- or overflows; rescaled columns are +-1
        # again, and the power of two comes back as the shift
        X, _ = full_factorial_design(3)
        minors, zero, shift = leave_one_out_minors(X)
        scaled = leave_one_out_minors(X * np.where(np.arange(7) == 0, 1.0, 2.0**e))
        assert scaled[0].tobytes() == minors.tobytes()
        assert scaled[1].tolist() == zero.tolist() == [False] * 8
        assert (shift, scaled[2]) == (0, 6 * e)


def test_public_names_pinned():
    assert set(glmdopt.__all__) == {
        "Allocation", "BoundaryVerdict", "ContinuousProblem", "DesignProblem", "DomainError",
        "LiftOneConfig", "MultilinearObjective", "MuSolve", "QuarticRoot", "RegionGrid",
        "RescaleTransform", "SaturatedProblem", "SolveReport", "SolverError",
        "WeightFunction", "build_model_matrix",
        "check_boundary_optimal", "compute_u", "compute_v", "corner_weights",
        "fi_profile", "full_factorial_design", "h_ab", "liftone_maximize", "objective_det",
        "region_boundary_segments", "region_sweep", "rescale_problem", "root_mu", "solve_22",
        "solve_fourpoint", "solve_quartic", "solve_saturated", "vform_objective",
    }
    assert len(glmdopt.__all__) == 34
    assert all(hasattr(glmdopt, name) for name in glmdopt.__all__)


class TestStackedSensitivities:
    """``vform_log_sensitivities`` on an (N, n) stack against one call per row, bit for bit."""

    @staticmethod
    def rows(rng, n):
        v = rng.uniform(0.0, 2.0, (60, n)) * np.exp(rng.uniform(-30.0, 30.0, (60, 1)))
        p = rng.dirichlet(np.ones(n), 60)
        p[:12, 0] = 0.0  # one exact zero: f > 0, d finite
        p[12:20, :2] = 0.0  # two exact zeros: f = 0, log f = -inf
        v[20:26] = 0.0  # f = 0 with every p positive
        v[26:30, 1:] = 0.0  # only v_0 positive, and a zero p_1 in its product: f = 0
        p[26:30, 1] = 0.0
        return v, p

    @pytest.mark.parametrize("n", [3, 4, 8, 32])
    def test_stack_matches_rows(self, rng, n):
        v, p = self.rows(rng, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_f, d = vform_log_sensitivities(v, p)
            singles = [vform_log_sensitivities(vi, pi) for vi, pi in zip(v, p)]
        assert log_f.shape == (len(v),) and d.shape == v.shape
        assert [float(x).hex() for x in log_f] == [float(x).hex() for x, _ in singles]
        assert d.tobytes() == np.array([di for _, di in singles]).tobytes()
        zero = np.isneginf(log_f)
        assert zero[12:30].all() and not zero[:12].any() and not zero[30:].any()
        assert not np.isfinite(d[zero]).all(axis=1).any()
        assert np.isfinite(d[~zero]).all()

    def test_one_row_stack_is_the_row(self):
        v, p = np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.1, 0.2, 0.3, 0.4])
        log_f, d = vform_log_sensitivities(v, p)
        log_fs, ds = vform_log_sensitivities(v[None], p[None])
        assert isinstance(log_f, float) and float(log_fs[0]).hex() == log_f.hex()
        assert ds[0].tobytes() == d.tobytes()

    def test_shapes_must_match(self):
        with pytest.raises(DomainError):
            vform_log_sensitivities(np.ones((2, 4)), np.ones((3, 4)) / 4)
        with pytest.raises(DomainError):
            vform_log_sensitivities(np.ones((1, 2, 4)), np.ones((1, 2, 4)) / 4)
