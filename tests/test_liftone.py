"""Lift-one coordinate ascent: profile exactness, monotonicity, convergence."""

import itertools
import json
import re

import numpy as np
import pytest

from glmdopt import (
    DesignProblem,
    DomainError,
    LiftOneConfig,
    SolverError,
    SolveReport,
    WeightFunction,
    build_model_matrix,
    compute_v,
    fi_profile,
    full_factorial_design,
    liftone_maximize,
    objective_det,
    solve_22,
    solve_fourpoint,
    solve_saturated,
    vform_objective,
)
from glmdopt.cli import dispatch_rows, dispatch_solve, main
from glmdopt.liftone import MultilinearObjective, profile_value
from reference import expansion_value, objective_expansion

X22 = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])


def _fingerprint(result):
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    diag = sorted((k, float(v).hex()) for k, v in result.diagnostics.items())
    return result.allocation.p.tobytes(), float(result.objective).hex(), diag


def _scaled(p, i, z):
    q = p * (1.0 - z) / (1.0 - p[i])
    q[i] = z
    return q


class TestProfile:
    def test_symmetric_problem_stationary_at_uniform(self):
        problem = DesignProblem(X22, w=np.ones(4))
        p = np.full(4, 0.25)
        for i in range(4):
            alpha, beta = fi_profile(problem, p, i)
            zstar = (alpha - 3 * beta) / (3 * (alpha - beta))
            assert zstar == pytest.approx(0.25, rel=1e-12)

    def test_all_mass_on_one_point_kills_objective(self, rng):
        problem = DesignProblem(X22, w=rng.uniform(0.1, 0.3, 4))
        p = rng.dirichlet(np.ones(4))
        for i in range(4):
            alpha, beta = fi_profile(problem, p, i)
            assert profile_value(alpha, beta, 3, 1.0) == 0.0
            assert objective_det(problem, _scaled(p, i, 1.0 - 1e-12)) == pytest.approx(
                0.0, abs=1e-20
            )

    def test_profile_matches_objective_at_probe_points(self, rng):
        problem = DesignProblem(X22, w=rng.uniform(0.1, 0.3, 4))
        p = rng.dirichlet(np.ones(4))
        for i in range(4):
            alpha, beta = fi_profile(problem, p, i)
            for z in (0.1, 0.3, 0.7):
                direct = objective_det(problem, _scaled(p, i, z))
                assert profile_value(alpha, beta, 3, z) == pytest.approx(direct, rel=1e-10)

    def test_profile_matches_on_larger_problem(self, rng):
        X, _ = full_factorial_design(3)
        problem = DesignProblem(X, w=rng.uniform(0.05, 0.3, 8))
        p = rng.dirichlet(np.ones(8))
        for i in (0, 3, 7):
            alpha, beta = fi_profile(problem, p, i)
            for z in rng.uniform(0.02, 0.95, 5):
                direct = objective_det(problem, _scaled(p, i, z))
                assert profile_value(alpha, beta, 7, z) == pytest.approx(direct, rel=1e-10)

    def test_full_mass_coordinate_rejected(self):
        problem = DesignProblem(X22, w=np.ones(4))
        with pytest.raises(DomainError, match="profile"):
            fi_profile(problem, np.array([1.0, 0.0, 0.0, 0.0]), 0)


class TestMaximize:
    def test_matches_analytic_two_level(self):
        problem = DesignProblem(X22, w=1.0 / np.array([1.0, 2.0, 3.0, 4.0]))
        lift = liftone_maximize(problem)
        analytic = solve_22([1.0, 2.0, 3.0, 4.0])
        # objectives differ by the constant 16 * prod(w)
        ratio = 16.0 * float(np.prod(problem.w))
        assert lift.objective == pytest.approx(ratio * analytic.objective, rel=1e-10)

    def test_eight_point_golden_instance(self):
        X, _ = full_factorial_design(3)
        c = (np.prod(np.arange(1.0, 9.0)) / 2.0**18) ** (1.0 / 7.0)
        problem = DesignProblem(X, w=c / np.arange(1.0, 9.0))
        lift = liftone_maximize(problem)
        assert lift.objective == pytest.approx(1.7530190502344328e-05, rel=1e-9)

    def test_boundary_case_converges_to_vertex_face(self):
        problem = DesignProblem(X22, w=1.0 / np.array([1.0, 2.0, 3.0, 7.0]))
        lift = liftone_maximize(problem)
        # the allocation drifts into the face slower than the objective locks in
        assert lift.allocation.p == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0.0], abs=1e-6)
        ratio = 16.0 * float(np.prod(problem.w))
        assert lift.objective == pytest.approx(ratio * 7.0 / 27.0, rel=1e-12)

    def test_monotone_ascent_per_step(self, rng):
        problem = DesignProblem(X22, w=rng.uniform(0.05, 0.3, 4))
        p = rng.dirichlet(np.ones(4))
        f = objective_det(problem, p)
        for _ in range(3):
            for i in range(4):
                alpha, beta = fi_profile(problem, p, i)
                denom = 3 * (alpha - beta)
                candidates = [0.0]
                if denom != 0.0:
                    z = (alpha - 3 * beta) / denom
                    if 0.0 < z < 1.0:
                        candidates.append(z)
                z_best = max(candidates, key=lambda z: profile_value(alpha, beta, 3, z))
                if profile_value(alpha, beta, 3, z_best) > f:
                    p = _scaled(p, i, z_best)
                f_new = objective_det(problem, p)
                assert f_new >= f - 1e-13 * abs(f)
                f = f_new
                assert p.sum() == pytest.approx(1.0, abs=1e-13)

    def test_degenerate_objective_rejected(self):
        # lift-one starts from the uniform allocation; an objective that is zero
        # there has no ascent direction to follow
        obj = MultilinearObjective(lambda p: 0.0, 4, 3)
        with pytest.raises(DomainError, match="degenerate objective: value is zero"):
            liftone_maximize(obj)

    def test_rank_deficient_matrix_rejected(self):
        X = np.array([[1.0, -1, -1], [1, -0.5, -0.5], [1, 0.5, 0.5], [1, 1, 1]])
        with pytest.raises(DomainError, match="rank"):
            liftone_maximize(DesignProblem(X, w=np.ones(4)))

    def test_vform_wrapper(self, rng):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        obj = MultilinearObjective(lambda p: vform_objective(v, p), 4, 3)
        lift = liftone_maximize(obj, LiftOneConfig(tol=1e-14))
        analytic = solve_22(v)
        assert lift.objective == pytest.approx(analytic.objective, rel=1e-10)
        # a black box reports its own value at the returned allocation
        assert lift.objective == obj.fn(lift.allocation.p)

    def test_square_saturated_case_uniform(self):
        # as many terms as points: uniform is optimal and reached immediately
        X = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1]])
        problem = DesignProblem(X, w=np.array([0.1, 0.2, 0.3]))
        lift = liftone_maximize(problem)
        assert lift.allocation.p == pytest.approx(np.full(3, 1 / 3), abs=1e-12)


class TestConfig:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            LiftOneConfig(tol=0.0)
        with pytest.raises(DomainError):
            LiftOneConfig(max_sweeps=0)

    def test_infinite_tol_rejected(self):
        # tol = inf would certify any allocation after one sweep
        with pytest.raises(DomainError, match="tol"):
            LiftOneConfig(tol=np.inf)

    @pytest.mark.parametrize("tol, value", [("1e-3", 1e-3), (True, 1.0), (np.float32(0.5), 0.5)])
    def test_tol_stored_as_gated_float(self, tol, value):
        cfg = LiftOneConfig(tol=tol)
        assert type(cfg.tol) is float and cfg.tol == value
        problem = DesignProblem(X22, w=np.arange(1.0, 5.0))
        ref = liftone_maximize(problem, LiftOneConfig(tol=value))
        assert liftone_maximize(problem, cfg).allocation.p.tolist() == ref.allocation.p.tolist()


LOGIT = WeightFunction.from_name("logit")


def _main_effects_2x3():
    return build_model_matrix(np.array(list(itertools.product([1.0, -1.0], repeat=3))))


class TestRankOne:
    def test_extreme_intercept_matches_saturated(self):
        # det(X'WX) underflows to 0.0 here; lift-one works in log det
        X, _ = full_factorial_design(4)
        rng = np.random.default_rng(5)
        beta = np.concatenate([[-50.0], rng.uniform(-1.0, 1.0, 14)])
        problem = DesignProblem(X, beta=beta, weight_fn=LOGIT)
        lift = liftone_maximize(problem)
        analytic = solve_saturated(compute_v(problem))
        assert lift.diagnostics["converged"] == 1.0
        assert lift.allocation.p == pytest.approx(analytic.allocation.p, abs=1e-6)
        M = X.T @ (X * (lift.allocation.p * problem.w)[:, None])
        sign, logdet = np.linalg.slogdet(M)
        assert sign == 1.0
        assert lift.diagnostics["log_objective"] == pytest.approx(logdet, rel=1e-12)

    def test_log_objective_beyond_float_range(self):
        # 2^6 saturated at levels +-10: det(X'WX) = exp(863), past the float range
        _, points = full_factorial_design(6)
        recipe = [()] + [t for size in range(1, 6) for t in itertools.combinations(range(6), size)]
        X = build_model_matrix(10.0 * points, recipe)
        problem = DesignProblem(X, w=np.linspace(1.0, 2.0, 64))
        lift = liftone_maximize(problem)
        analytic = solve_saturated(compute_v(problem))
        assert lift.objective == np.inf and lift.diagnostics["converged"] == 1.0
        assert lift.allocation.p == pytest.approx(analytic.allocation.p, abs=1e-9)
        log_objective = analytic.diagnostics["log_objective"]
        assert lift.diagnostics["log_objective"] == pytest.approx(log_objective, rel=1e-12)

    def test_rank_test_ignores_column_scale(self):
        # a 2x2 coded +-1e120 and a 2^3 saturated X with one column times 1e-15
        # have full rank, which matrix_rank on the raw columns does not see;
        # 2^3 main effects coded +-2^300 solve as the +-1 coding does, which
        # needs the pivoted QR and the basis change on rescaled columns
        w = np.arange(1.0, 5.0)
        ref = solve_fourpoint(DesignProblem(X22, w=w))
        lift = liftone_maximize(DesignProblem(X22 * np.array([1.0, 1e120, 1e120]), w=w))
        assert lift.allocation.p == pytest.approx(ref.allocation.p, abs=1e-12)
        log_objective = ref.diagnostics["log_objective"] + 4.0 * np.log(1e120)
        assert lift.diagnostics["log_objective"] == pytest.approx(log_objective, rel=1e-12)
        X, _ = full_factorial_design(3)
        problem = DesignProblem(X * np.where(np.arange(7) == 3, 1e-15, 1.0), w=np.linspace(1, 3, 8))
        lift = liftone_maximize(problem)
        analytic = solve_saturated(compute_v(problem))
        assert lift.allocation.p == pytest.approx(analytic.allocation.p, abs=1e-12)
        X = _main_effects_2x3()
        X_scaled = X * np.array([1.0, 2.0**300, 2.0**300, 2.0**300])
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = np.exp(rng.uniform(-5.0, 5.0, 8))
            ref = liftone_maximize(DesignProblem(X, w=w))
            lift = liftone_maximize(DesignProblem(X_scaled, w=w))
            assert np.array_equal(lift.allocation.p, ref.allocation.p)
            log_objective = ref.diagnostics["log_objective"] + 1800.0 * np.log(2.0)
            assert lift.diagnostics["log_objective"] == pytest.approx(log_objective, rel=1e-14)

    def test_collinear_points_with_decades_wide_weights(self):
        # three of the four points lie on a line; the pivoted QR of sqrt(w) X
        # takes the third one's roundoff residual for a pivot, ahead of the
        # point off the line whose probit weight is about 1e-46 or 1e-114
        X = build_model_matrix([[0, 0], [1, 1], [-1, -1], [1, -1]])
        for beta in ([2.38273693, -6.01585989, 10.99473386], [3.37643808, 8.73411021, -10.87181995]):
            problem = DesignProblem(X, beta=beta, weight_fn=WeightFunction.from_name("probit"))
            lift = liftone_maximize(problem)
            analytic = solve_fourpoint(problem)
            assert lift.diagnostics["converged"] == 1.0
            assert lift.allocation.p == pytest.approx(analytic.allocation.p, abs=1e-12)
            log_objective = analytic.diagnostics["log_objective"]
            assert lift.diagnostics["log_objective"] == pytest.approx(log_objective, rel=1e-12)

    @pytest.mark.parametrize(
        "points, beta",
        [
            # X[B] singular up to roundoff only: its determinant is not zero
            ([[0.1, 0.1], [0.37, 0.37], [-0.73, -0.73], [0.6, -0.4]], [-17.8, -13.0, 24.2]),
            ([[0.1, 0.1], [0.37, 0.37], [-0.73, -0.73], [0.6, -0.4]], [7.9, 31.7, -18.5]),
            # X[B] exactly singular, but the basis change is not exact
            ([[0, 0], [0.3, 0.3], [-0.3, -0.3], [0.3, -0.3]], [9.8, 39.1, -22.8]),
        ],
    )
    def test_collinear_points_off_the_binary_grid(self, points, beta):
        # the roundoff of a collinear point's coordinates, squared and weighted
        # by about 1e-40, outweighs the point off the line (1e-174 to 1e-269):
        # lift-one must not certify a design on the three collinear points
        problem = DesignProblem(build_model_matrix(points), beta=beta, weight_fn=WeightFunction.from_name("probit"))
        lift = liftone_maximize(problem)
        analytic = solve_fourpoint(problem)
        assert lift.diagnostics["converged"] == 1.0
        assert lift.allocation.p == pytest.approx(analytic.allocation.p, abs=1e-12)
        log_objective = analytic.diagnostics["log_objective"]
        assert lift.diagnostics["log_objective"] == pytest.approx(log_objective, rel=1e-12)

    def test_overflowing_inverse_is_a_solver_error(self, tmp_path):
        # a subnormal weight on the point off the line overflows M^-1 in the
        # first sweep; that row fails with a SolverError, without a
        # RuntimeWarning (an error in this suite), and the rows stacked with it
        # come out as their own solves
        probit = WeightFunction.from_name("probit")
        message = "M^-1 beyond the float range"
        points = [[0, 0], [0.3, 0.3], [-0.3, -0.3], [0.3, -0.3]]
        beta = [-26.807118820938488, -11.25420538789958, 27.050540826273792]
        with pytest.raises(SolverError, match=re.escape(message)):
            liftone_maximize(DesignProblem(build_model_matrix(points), beta, probit))
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"link": "probit", "beta": beta, "design_points": points}))
        assert main(["solve", str(path), "--method", "liftone"]) == 3
        rng = np.random.default_rng(0)
        failed = []
        for points in (points, [[0.1, 0.1], [0.37, 0.37], [-0.73, -0.73], [0.6, -0.4]]):
            problem = DesignProblem(build_model_matrix(points), weight_fn=probit, w=np.ones(4))
            betas = rng.uniform(-12.0, 12.0, (3000, 3)) / 0.37
            rows = dispatch_rows(problem, betas, "liftone", 1e-12)
            lost = [i for i, r in enumerate(rows) if isinstance(r, SolverError)]
            assert all(isinstance(r, (SolveReport, DomainError, SolverError)) for r in rows)
            assert all(str(rows[i]).startswith(message) for i in lost)
            for i in lost + list(range(0, 3000, 150)):
                try:
                    own = dispatch_solve(DesignProblem(problem.X, betas[i], probit), "liftone", 1e-12)
                except (DomainError, SolverError) as exc:
                    own = exc
                assert _fingerprint(rows[i]) == _fingerprint(own)
            failed.append(len(lost))
        assert failed == [14, 25]

    def test_equivalence_gap_certificate(self):
        X = _main_effects_2x3()
        rng = np.random.default_rng(3)
        converged = 0
        for _ in range(12):
            problem = DesignProblem(X, beta=rng.uniform(-1.0, 1.0, 4), weight_fn=LOGIT)
            lift = liftone_maximize(problem)
            if not lift.diagnostics["converged"]:
                continue
            converged += 1
            p = lift.allocation.p
            M_inv = np.linalg.inv(X.T @ (X * (p * problem.w)[:, None]))
            d = problem.w * np.einsum("ij,jk,ik->i", X, M_inv, X)
            gap = lift.diagnostics["equivalence_gap"]
            assert gap <= 1e-5
            assert gap == pytest.approx(d.max() / 4 - 1.0, abs=1e-9)
            assert lift.diagnostics["log_objective"] == pytest.approx(
                np.log(lift.objective), rel=1e-12
            )
        assert converged >= 10

    @pytest.mark.parametrize(
        "X",
        [
            _main_effects_2x3(),
            build_model_matrix(
                np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=2))),
                [[], [0], [1], [0, 1]],
            ),
            full_factorial_design(2)[0],
            full_factorial_design(3)[0],
            full_factorial_design(4)[0],
        ],
        ids=["2^3-main", "3^2-interaction", "2^2-saturated", "2^3-saturated", "2^4-saturated"],
    )
    def test_matches_determinant_callable(self, X):
        # the rank-one path against the black-box profile of det(X'WX)
        rng = np.random.default_rng(17)
        for _ in range(40):
            problem = DesignProblem(X, beta=rng.uniform(-1.0, 1.0, X.shape[1]), weight_fn=LOGIT)
            obj = MultilinearObjective(lambda p, pr=problem: objective_det(pr, p), *X.shape)
            # the black box crawls along flat 2^3-main optima, so it gets a
            # tighter stop and more sweeps than the default
            fast = liftone_maximize(problem)
            slow = liftone_maximize(obj, LiftOneConfig(tol=1e-14, max_sweeps=2000))
            assert fast.objective == pytest.approx(slow.objective, rel=1e-10)
            assert fast.diagnostics["equivalence_gap"] <= 1e-9

    def test_decades_wide_weights(self):
        # probit weights here span up to ~60 decades, far beyond what a Cholesky
        # factor of X'WX in the original rows resolves; the black box stops
        # ~1e-8 short of the optimal allocation, so that comes from the
        # analytic solver
        rng = np.random.default_rng(2)
        for beta in rng.uniform(-8.0, 8.0, (60, 3)):
            problem = DesignProblem(X22, beta=beta, weight_fn=WeightFunction.from_name("probit"))
            terms = objective_expansion(problem)
            ref = liftone_maximize(MultilinearObjective(lambda p: expansion_value(terms, p), 4, 3))
            lift = liftone_maximize(problem)
            analytic = solve_fourpoint(problem)
            assert lift.allocation.p == pytest.approx(analytic.allocation.p, abs=1e-9)
            assert lift.objective == pytest.approx(ref.objective, rel=1e-9)

    def test_newton_finish_certifies_flat_optima(self):
        # near beta = 0 the 2^3 main-effects optimum is nearly flat, and plain
        # lift-one stops at max_sweeps on most of these draws
        X = _main_effects_2x3()
        rng = np.random.default_rng(11)
        for beta in rng.uniform(-0.18, 0.18, (40, 4)):
            problem = DesignProblem(X, beta=beta, weight_fn=LOGIT)
            lift = liftone_maximize(problem)
            assert lift.diagnostics["converged"] == 1.0
            assert lift.diagnostics["equivalence_gap"] <= 1e-9
            M = X.T @ (X * (lift.allocation.p * problem.w)[:, None])
            sign, logdet = np.linalg.slogdet(M)
            assert sign == 1.0
            assert lift.diagnostics["log_objective"] == pytest.approx(logdet, abs=1e-12)

    @pytest.mark.parametrize("k", [3, 4])
    def test_newton_finish_matches_saturated(self, k):
        X, _ = full_factorial_design(k)
        rng = np.random.default_rng(13)
        for beta in rng.uniform(-1.0, 1.0, (20, X.shape[1])):
            problem = DesignProblem(X, beta=beta, weight_fn=LOGIT)
            lift = liftone_maximize(problem)
            analytic = solve_saturated(compute_v(problem))
            assert lift.diagnostics["converged"] == 1.0
            assert lift.allocation.p == pytest.approx(analytic.allocation.p, abs=1e-9)

    def test_sweep_stands_in_for_a_newton_step_that_does_not_gain(self, monkeypatch):
        # the first Newton step reports no gain; the sweep that replaces it is
        # then the only recovery, and the solve must still certify the optimum
        from glmdopt.liftone import _RankOneStack

        X = _main_effects_2x3()
        rng = np.random.default_rng(19)
        betas = rng.uniform(-1.0, 1.0, (10, 4))
        expected = [liftone_maximize(DesignProblem(X, beta=b, weight_fn=LOGIT)) for b in betas]
        gain = _RankOneStack._gain
        for beta, ref in zip(betas, expected):
            calls = []

            def first_step_fails(self, P, Q):
                # the gain of every row of the stack; a single solve is one row
                calls.append(None)
                return [0.0] * len(P) if len(calls) == 1 else gain(self, P, Q)

            monkeypatch.setattr(_RankOneStack, "_gain", first_step_fails)
            lift = liftone_maximize(DesignProblem(X, beta=beta, weight_fn=LOGIT))
            assert lift.diagnostics["converged"] == 1.0
            assert lift.diagnostics["equivalence_gap"] <= 1e-9
            assert lift.diagnostics["sweeps"] >= 3
            assert lift.diagnostics["log_objective"] == pytest.approx(
                ref.diagnostics["log_objective"], rel=0, abs=1e-12
            )

    def test_singular_allocation_rejected_by_profile(self):
        problem = DesignProblem(X22, w=np.ones(4))
        with pytest.raises(DomainError, match="degenerate objective"):
            fi_profile(problem, np.array([0.5, 0.5, 0.0, 0.0]), 0)
        # an objective beyond the float range has no float profile
        for scale in (1e120, 1e200):
            wide = DesignProblem(X22 * np.array([1.0, scale, scale]), w=np.arange(1.0, 5.0))
            with pytest.raises(SolverError, match="beyond the float range"):
                fi_profile(wide, np.full(4, 0.25), 0)

    def test_underflowing_objective_has_no_profile(self):
        # full rank, and lift-one solves it in log space, but det(X'WX) is at
        # most e^-1839.4, about 1e-799, below the float range
        tiny = DesignProblem(X22 * 1e-200 + np.array([1.0, 0.0, 0.0]), w=np.arange(1.0, 5.0))
        assert liftone_maximize(tiny).diagnostics["log_objective"] == pytest.approx(-1839.4, abs=0.1)
        with pytest.raises(SolverError, match="below the float range"):
            fi_profile(tiny, np.full(4, 0.25), 0)
