"""Saturated family (n points, n-1 terms): reduction, mu root, allocation."""

import itertools

import numpy as np
import pytest

from glmdopt import (
    DesignProblem,
    DomainError,
    LiftOneConfig,
    SaturatedProblem,
    build_model_matrix,
    compute_v,
    full_factorial_design,
    h1_eval,
    h2_eval,
    liftone_maximize,
    objective_det,
    root_mu,
    solve_22,
    solve_saturated,
    vform_objective,
)
from test_acceptance import CRIT01_F, CRIT01_MU, CRIT01_P

# 40-digit-precision solution of the radical-sum equation for v = (1..8),
# rounded to double; TestGoldenEightPoint::test_mpmath_oracle rederives it
MU_18 = 0.09260780863811838
F_18 = 1.7530190502344328e-05
P_18 = (
    0.139469382687288,
    0.1359038626428192,
    0.13212926629757454,
    0.12810383532736228,
    0.12376972845070218,
    0.11904272792465052,
    0.11379151607658751,
    0.10778968059301576,
)


def example_weights_problem():
    """The 8-point full factorial with weights realizing coefficients 1..8."""
    X, _ = full_factorial_design(3)
    c = (np.prod(np.arange(1.0, 9.0)) / 2.0**18) ** (1.0 / 7.0)
    return DesignProblem(X, w=c / np.arange(1.0, 9.0))


class TestComputeV:
    def test_full_factorial_equal_minor_factor(self, rng):
        X, _ = full_factorial_design(3)
        w = rng.uniform(0.05, 0.25, 8)
        sp = compute_v(DesignProblem(X, w=w))
        # v_j proportional to prod_{i != j} w_i, so v_j * w_j is constant
        prods = sp.v * w[sp.perm]
        assert prods == pytest.approx(np.full(8, prods[0]), rel=1e-10)
        assert sp.zero_count == 0

    def test_weights_realizing_integer_coefficients(self):
        sp = compute_v(example_weights_problem())
        true_v = sp.v * np.exp(sp.log_scale)
        assert true_v == pytest.approx(np.arange(1.0, 9.0), rel=1e-10)

    def test_dependent_row_produces_two_zeros(self):
        # row 3 is a combination of rows 4..6, so deleting row 1 or 2 keeps
        # the dependency and kills the determinant
        rows = np.array(
            [
                [1.0, 0, 0, 0, 0],
                [1.0, 1, 0, 0, 0],
                [0.0, 0, 0, 0, 0],  # placeholder, filled below
                [1.0, 0, 1, 0, 0],
                [1.0, 0, 0, 1, 0],
                [1.0, 0, 0, 0, 1],
            ]
        )
        rows[2] = 0.2 * rows[3] + 0.3 * rows[4] + 0.5 * rows[5]
        sp = compute_v(DesignProblem(rows, w=np.ones(6)))
        assert sp.zero_count == 2
        assert np.all(sp.v[:2] == 0.0)
        assert np.all(sp.v[2:] > 0.0)

    def test_two_level_main_effects_specialization(self, rng):
        X = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
        w = rng.uniform(0.05, 0.25, 4)
        sp = compute_v(DesignProblem(X, w=w))
        true_v = sp.v * np.exp(sp.log_scale)
        expected = np.array([16.0 * np.prod(w) / w[j] for j in range(4)])
        assert true_v == pytest.approx(np.sort(expected), rel=1e-10)

    def test_zero_one_coding_matches_plus_minus_one(self, rng):
        # recoding the levels multiplies X by a unit-determinant matrix, so every
        # v_j and the optimum stay put
        X, points = full_factorial_design(5)
        recipe = [()] + [t for size in range(1, 5) for t in itertools.combinations(range(5), size)]
        X01 = build_model_matrix((points + 1.0) / 2.0, recipe)
        w = rng.uniform(0.05, 0.25, 32)
        ref = solve_saturated(compute_v(DesignProblem(X, w=w)))
        rep = solve_saturated(compute_v(DesignProblem(X01, w=w)))
        assert rep.case_label == ref.case_label
        assert rep.allocation.p == pytest.approx(ref.allocation.p, abs=1e-12)

    def test_shape_and_rank_errors(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        with pytest.raises(DomainError, match="one more point"):
            compute_v(DesignProblem(X, w=np.ones(5)))
        X_bad = np.array([[1.0, 0, 0], [1, 1, 1], [1, 2, 2], [1, 3, 3]])
        with pytest.raises(DomainError, match="reparametrize"):
            compute_v(DesignProblem(X_bad, w=np.ones(4)))


class TestGoldenEightPoint:
    def test_mu_p_and_objective(self):
        sp = SaturatedProblem.from_values(np.arange(1.0, 9.0))
        rep = solve_saturated(sp)
        assert rep.case_label == "saturated-h1"
        assert rep.diagnostics["mu"] == pytest.approx(MU_18, abs=1e-12)
        assert rep.allocation.p == pytest.approx(P_18, abs=1e-12)
        assert rep.objective == pytest.approx(F_18, rel=1e-12)

    def test_from_problem_matches(self):
        rep = solve_saturated(compute_v(example_weights_problem()))
        assert rep.diagnostics["mu"] == pytest.approx(MU_18, rel=1e-9)
        assert rep.objective == pytest.approx(F_18, rel=1e-9)

    def test_mpmath_oracle(self):
        """Pins the eight-point references to a 50-digit solve that uses no glmdopt code."""
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        v = [mp.mpf(k) for k in range(1, 9)]
        n = len(v)
        # the all-plus branch applies: sum_{j<n} sqrt(1 - v_j/v_n) <= n - 2
        assert mp.fsum(mp.sqrt(1 - vj / v[-1]) for vj in v[:-1]) <= n - 2
        # bisection of the decreasing h1(mu) = sum_j sqrt(1 - mu v_j) = n - 2 on [0, 1/v_n]
        lo, hi = mp.mpf(0), 1 / v[-1]
        for _ in range(200):
            mid = (lo + hi) / 2
            if mp.fsum(mp.sqrt(1 - mid * vj) for vj in v) > n - 2:
                lo = mid
            else:
                hi = mid
        mu = (lo + hi) / 2
        p = [(1 + mp.sqrt(1 - mu * vj)) / (2 * (n - 1)) for vj in v]
        prod = mp.fprod(p)
        f = prod * mp.fsum(vj / pj for vj, pj in zip(v, p))
        assert abs(mp.fsum(p) - 1) <= mp.mpf(10) ** -45
        # stationary on the simplex: every partial of f equals (n - 1) f (Euler, degree n - 1);
        # f is log-concave there, so this interior point is the global maximum
        grad = [f / pj - prod * vj / pj**2 for vj, pj in zip(v, p)]
        assert max(abs(g / ((n - 1) * f) - 1) for g in grad) <= mp.mpf(10) ** -40

        def rel(x, ref):
            return float(abs(x - ref) / ref)

        assert rel(MU_18, mu) <= 1e-15
        assert rel(F_18, f) <= 1e-15
        assert max(rel(a, b) for a, b in zip(P_18, p)) <= 1e-15
        # criterion 01 of test_acceptance.py, at that test's own tolerances
        assert float(abs(CRIT01_MU - mu)) <= 1e-9
        assert max(float(abs(a - b)) for a, b in zip(CRIT01_P, p)) <= 1e-8
        assert rel(CRIT01_F, f) <= 1e-15


class TestHEvals:
    def test_values_at_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert h1_eval(0.0, v) == 3.0
        assert h2_eval(0.0, v) == 1.0

    def test_value_at_right_endpoint(self):
        v = np.array([1.0, 2.0, 4.0])
        expect = np.sqrt(1 - 0.25) + np.sqrt(1 - 0.5)
        assert h1_eval(0.25, v) == pytest.approx(expect, rel=1e-14)

    def test_golden_mu_hits_target(self):
        assert h1_eval(MU_18, np.arange(1.0, 9.0)) == pytest.approx(6.0, abs=1e-9)

    def test_domain_errors(self):
        v = np.array([1.0, 2.0])
        with pytest.raises(DomainError):
            h1_eval(-0.1, v)
        with pytest.raises(DomainError):
            h2_eval(0.6, v)


class TestRootMu:
    def test_golden_branch(self):
        ms = root_mu(SaturatedProblem.from_values(np.arange(1.0, 9.0)))
        assert ms.branch == "h1"
        assert ms.mu == pytest.approx(MU_18, abs=1e-11)
        assert ms.residual <= 1e-12

    def test_minus_branch_example(self):
        ms = root_mu(SaturatedProblem.from_values([1.0, 1.0, 2.0, 3.0]))
        assert ms.branch == "h2"

    def test_equal_coefficients_closed_form(self):
        for n in (4, 6, 9):
            v = np.full(n, 2.5)
            ms = root_mu(SaturatedProblem.from_values(v))
            expect = (1.0 - ((n - 2.0) / n) ** 2) / 2.5
            assert ms.mu == pytest.approx(expect, rel=1e-12)

    def test_dominant_rejected(self):
        with pytest.raises(DomainError):
            root_mu(SaturatedProblem.from_values([1.0, 2.0, 3.0, 7.0]))


class TestSolveSaturated:
    def test_branch_dichotomy_pairs(self):
        plus = solve_saturated(SaturatedProblem.from_values([5.0, 5.0, 6.0, 7.0]))
        assert plus.case_label == "saturated-h1"
        assert plus.allocation.p[3] >= 1.0 / 6.0
        minus = solve_saturated(SaturatedProblem.from_values([1.0, 1.0, 2.0, 3.0]))
        assert minus.case_label == "saturated-h2"
        assert minus.allocation.p[3] < 1.0 / 6.0

    def test_dominant_coefficient_boundary(self):
        rep = solve_saturated(SaturatedProblem.from_values([1.0, 2.0, 3.0, 7.0]))
        assert rep.case_label == "saturated-boundary"
        assert rep.allocation.p == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0.0], abs=1e-15)
        assert rep.objective == pytest.approx(7.0 / 27.0, rel=1e-14)

    def test_equal_coefficients_uniform(self):
        for n in (3, 5, 8):
            rep = solve_saturated(SaturatedProblem.from_values(np.full(n, 1.7)))
            assert rep.allocation.p == pytest.approx(np.full(n, 1.0 / n), abs=1e-12)

    def test_zero_coefficients_pinned(self):
        rep = solve_saturated(SaturatedProblem.from_values([0.0, 0.0, 1.0, 2.0, 3.0, 4.0]))
        p = rep.allocation.p
        assert p[0] == pytest.approx(0.2, abs=1e-12)
        assert p[1] == pytest.approx(0.2, abs=1e-12)
        assert np.all(p[2:] < 0.2)

    def test_input_order_restored(self, rng):
        v = np.array([3.0, 1.0, 2.0, 1.5, 2.5])
        rep = solve_saturated(SaturatedProblem.from_values(v))
        order = np.argsort(v)
        p_sorted_expect = np.sort(rep.allocation.p)[::-1]
        assert rep.allocation.p[order] == pytest.approx(p_sorted_expect, abs=1e-14)


class TestInvariants:
    def _random_interior_v(self, rng, n):
        while True:
            v = np.sort(rng.uniform(0.05, 10.0, n))
            if v[-1] < v[:-1].sum() * (1 - 1e-6):
                return v

    @pytest.mark.parametrize("n", range(4, 11))
    def test_stationarity_ratio_constant(self, n, rng):
        for _ in range(60):
            v = self._random_interior_v(rng, n)
            rep = solve_saturated(SaturatedProblem.from_values(v))
            p = rep.allocation.p
            ratios = p * (1.0 / (n - 1) - p) / v
            assert (ratios.max() - ratios.min()) / ratios.mean() < 1e-10
            mu = rep.diagnostics["mu"]
            assert ratios.mean() == pytest.approx(mu / (4.0 * (n - 1) ** 2), rel=1e-9)

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_range_and_ordering(self, n, rng):
        for _ in range(100):
            v = self._random_interior_v(rng, n)
            p = solve_saturated(SaturatedProblem.from_values(v)).allocation.p
            assert np.all(p > 0.0)
            assert np.all(p < 1.0 / (n - 1) + 1e-12)
            order = np.argsort(v, kind="stable")
            assert np.all(np.diff(p[order]) <= 1e-12)

    def test_at_most_one_minus_branch_index(self, rng):
        half = 1.0 / (2.0 * (10 - 1))
        for _ in range(100):
            v = self._random_interior_v(rng, 10)
            rep = solve_saturated(SaturatedProblem.from_values(v))
            below = rep.allocation.p < half - 1e-12
            assert below.sum() <= 1

    def test_minus_branch_lands_on_largest_coefficient(self, rng):
        # dominant-but-not-quite coefficient: the flipped branch fires and
        # only the largest-v point sits below the midpoint 1/(2(n-1))
        n = 10
        half = 1.0 / (2.0 * (n - 1))
        seen_minus = 0
        for _ in range(50):
            v = np.sort(rng.uniform(0.05, 0.4, n))
            v[-1] = 0.9 * v[:-1].sum()
            rep = solve_saturated(SaturatedProblem.from_values(v))
            below = rep.allocation.p < half - 1e-12
            assert below.sum() <= 1
            if rep.case_label == "saturated-h2":
                seen_minus += 1
                assert below[np.argmax(v)]
        assert seen_minus > 0

    @pytest.mark.parametrize("n", range(4, 11))
    def test_liftone_agreement(self, n, rng):
        from glmdopt.liftone import MultilinearObjective

        for _ in range(8):
            v = self._random_interior_v(rng, n)
            rep = solve_saturated(SaturatedProblem.from_values(v))
            obj = MultilinearObjective(lambda p: vform_objective(v, p), n, n - 1)
            lift = liftone_maximize(obj, LiftOneConfig(tol=1e-14, max_sweeps=3000))
            assert rep.objective == pytest.approx(lift.objective, rel=1e-9)
            assert rep.objective >= lift.objective - 1e-10 * rep.objective

    def test_four_point_specialization_matches_quartic_solver(self, rng):
        for _ in range(200):
            v = self._random_interior_v(rng, 4)
            sat = solve_saturated(SaturatedProblem.from_values(v))
            quad = solve_22(v)
            assert sat.allocation.p == pytest.approx(quad.allocation.p, abs=1e-9)
            assert sat.objective == pytest.approx(quad.objective, rel=1e-9)

    def test_interior_support_everywhere(self, rng):
        for n in (5, 8):
            for _ in range(100):
                v = self._random_interior_v(rng, n)
                p = solve_saturated(SaturatedProblem.from_values(v)).allocation.p
                assert p.min() > 0.0

    def test_certificate_recorded(self, rng):
        v = self._random_interior_v(rng, 6)
        rep = solve_saturated(SaturatedProblem.from_values(v))
        assert abs(rep.diagnostics["equivalence_gap"]) < 1e-12
        assert rep.diagnostics["log_objective"] == pytest.approx(np.log(rep.objective), abs=1e-14)
        # the multiplier is the common partial derivative, (n - 1) f by Euler
        assert rep.diagnostics["lambda"] == pytest.approx(5.0 * rep.objective, rel=1e-10)

    def test_extreme_weight_scale_survives(self):
        # weights small enough that naive products underflow
        X, _ = full_factorial_design(3)
        w = np.full(8, 1e-60)
        w[0] = 2e-60
        sp = compute_v(DesignProblem(X, w=w))
        rep = solve_saturated(sp)
        assert np.all(np.isfinite(rep.allocation.p))
        assert rep.allocation.p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(rep.diagnostics["mu_scaled"])


class TestValidation:
    def test_too_many_zeros_rejected(self):
        # two positive coefficients: the larger dominates, so the boundary
        # allocation is exact; only an all-zero v is rejected
        rep = solve_saturated(SaturatedProblem.from_values([0.0, 2.0, 0.0, 1.0]))
        assert rep.case_label == "saturated-boundary"
        assert np.array_equal(rep.allocation.p, [1 / 3, 0.0, 1 / 3, 1 / 3])
        assert rep.diagnostics["equivalence_gap"] == 0.0
        assert rep.objective == pytest.approx(2.0 / 27.0, rel=1e-15)
        with pytest.raises(DomainError, match="positive"):
            SaturatedProblem.from_values([0.0, 0.0, 0.0, 0.0])

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            SaturatedProblem.from_values([1.0, 2.0])

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            SaturatedProblem.from_values([-1.0, 1.0, 2.0, 3.0])
