"""Saturated family (n points, n-1 terms): reduction, mu root, allocation."""

import itertools

import numpy as np
import pytest

from glmdopt import (
    DesignProblem,
    DomainError,
    LiftOneConfig,
    SaturatedProblem,
    SolverError,
    build_model_matrix,
    compute_u,
    compute_v,
    full_factorial_design,
    liftone_maximize,
    root_mu,
    solve_22,
    solve_fourpoint,
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

    @pytest.mark.parametrize("k, level", [(5, 100.0), (6, 10.0), (3, 2.0**-400), (3, 2.0**300)])
    def test_levels_beyond_float_range_match_plus_minus_one(self, rng, k, level):
        # the squared minors overflow at levels 100 and 10, and at +-2^-400 and
        # +-2^300 the minors themselves under- or overflow; scaling each column
        # leaves the allocation as it is and moves log_objective by the column scales
        X, points = full_factorial_design(k)
        recipe = [()] + [t for size in range(1, k) for t in itertools.combinations(range(k), size)]
        X_level = build_model_matrix(level * points, recipe)
        w = rng.uniform(0.05, 0.25, 2**k)
        ref = solve_saturated(compute_v(DesignProblem(X, w=w)))
        rep = solve_saturated(compute_v(DesignProblem(X_level, w=w)))
        shift = 2.0 * np.log(level) * sum(len(t) for t in recipe)
        assert rep.case_label == ref.case_label
        assert rep.allocation.p == pytest.approx(ref.allocation.p, abs=1e-12)
        log_objective = ref.diagnostics["log_objective"] + shift
        assert rep.diagnostics["log_objective"] == pytest.approx(log_objective, rel=1e-12)

    def test_shape_and_rank_errors(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        with pytest.raises(DomainError, match="one more point"):
            compute_v(DesignProblem(X, w=np.ones(5)))
        X_bad = np.array([[1.0, 0, 0], [1, 1, 1], [1, 2, 2], [1, 3, 3]])
        with pytest.raises(DomainError, match="reparametrize"):
            compute_v(DesignProblem(X_bad, w=np.ones(4)))


class TestGoldenEightPoint:
    def test_mu_p_and_objective(self):
        sp = SaturatedProblem(np.arange(1.0, 9.0))
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


class TestNearDominance:
    """Largest coefficient just below the sum of the others, against 50 digits.

    Near dominance the optimum sits next to the trivial root ``mu = 0`` of the
    flipped sum ``h2``, where evaluating ``h2`` in doubles cancels. The
    reference bisects the paper's equation ``h(mu) = n - 2`` in ``mu`` at 50
    digits on the branch the paper's rule picks, using no glmdopt code.
    """

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_matches_50_digit_reference(self, n):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        rng = np.random.default_rng(1000 + n)
        worst_p = worst_mu = 0.0
        for _ in range(40):
            v = rng.uniform(0.05, 1.0, n - 1)
            v = np.append(v, rng.uniform(0.8, 1.0) * v.sum())
            rep = solve_saturated(SaturatedProblem(v))
            vm = [mp.mpf(x) for x in v]
            vn = vm[-1]
            # paper's branch rule: all plus roots exactly when this sum is at most n - 2
            plus = mp.fsum(mp.sqrt(1 - vj / vn) for vj in vm[:-1]) <= n - 2
            assert rep.case_label == ("saturated-h1" if plus else "saturated-h2")

            def h(mu):
                r = [mp.sqrt(1 - mu * vj) for vj in vm]
                return mp.fsum(r[:-1]) + (r[-1] if plus else -r[-1]) - (n - 2)

            # h1 decreases from 2 at mu = 0; h2 dips below zero right after its
            # trivial root mu = 0 and crosses back once; both end >= 0 vs <= 0 at 1/v_n
            lo, hi = (mp.mpf(0) if plus else mp.mpf(10) ** -25 / vn), 1 / vn
            assert (h(lo) > 0) == plus and (h(hi) > 0) != plus
            for _ in range(170):
                mid = (lo + hi) / 2
                if (h(mid) > 0) == plus:
                    lo = mid
                else:
                    hi = mid
            mu = (lo + hi) / 2
            r = [mp.sqrt(1 - mu * vj) for vj in vm]
            p = [(1 + x) / (2 * (n - 1)) for x in r]
            if not plus:
                p[-1] = (1 - r[-1]) / (2 * (n - 1))
            worst_p = max(worst_p, max(float(abs(a - b)) for a, b in zip(rep.allocation.p, p)))
            worst_mu = max(worst_mu, float(abs(rep.diagnostics["mu"] - mu) / mu))
            assert abs(h(mp.mpf(rep.diagnostics["mu"]))) <= 1e-12
        # measured worst over n = 4 / 8 / 16: allocation 1.8 / 1.2 / 1.2e-16 and
        # mu 4.3e-14 / 9.4e-15 / 2.1e-14 relative. Bisecting h2 itself, next to
        # its trivial root, gave 8.2 / 4.7 / 24e-15 and 2.5e-12 / 1.1e-12 / 9.6e-11.
        assert worst_p <= 1e-15
        assert worst_mu <= 5e-13


class TestOneAllocationRule:
    """Every (n, n-1) row, the four-point ones included, takes its allocation from
    the root's one dominance rule, ``M(-1) >= 0``, on its own coefficients.

    Seeded rows with n = 3..32: coefficients in the four-point zero band (1e-16
    to 1e-8 of the largest), rows 1e-16 to 1e-9 on either side of dominance,
    exact ties (among them a tied largest whose other coefficients rounding
    absorbs) and weights hundreds of decades apart.
    """

    @staticmethod
    def _rows(rng):
        for n in [4] * 6 + list(range(3, 33)):
            for kind in ("zero_band", "dominance", "ties", "wide"):
                for _ in range(20):
                    v = np.exp(rng.uniform(-1.0, 1.0, n))
                    if kind == "zero_band":
                        k = rng.integers(1, min(3, n - 1) + 1)
                        v[rng.choice(n, k, replace=False)] = v.max() * 10.0 ** rng.uniform(-16.0, -8.0, k)
                    elif kind == "dominance":
                        top = np.argmax(v)
                        side = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -9.0)
                        v[top] = (v.sum() - v[top]) * (1.0 + side)
                    elif kind == "ties":
                        tied = rng.choice(n, rng.integers(2, n + 1), replace=False)
                        if rng.uniform() < 0.3:
                            v *= 10.0 ** rng.uniform(-24.0, -8.0)
                        v[tied] = 1.0
                    else:
                        v = np.exp(rng.uniform(-300.0, 300.0, n))
                    yield v

    def test_certified_tie_equal_and_permutation_equivariant(self):
        rng = np.random.default_rng(2600)
        for v in self._rows(rng):
            rep = solve_saturated(SaturatedProblem(v))
            p = rep.allocation.p
            assert rep.diagnostics["equivalence_gap"] <= 1e-12, (v.tolist(), rep)
            for value in np.unique(v):
                assert len(set(p[v == value].tolist())) == 1, (v.tolist(), p.tolist())
            perm = rng.permutation(v.size)
            assert np.array_equal(solve_saturated(SaturatedProblem(v[perm])).allocation.p, p[perm])
            if v.size == 4:
                four = solve_22(v)
                assert four.case_label.startswith("2x2-case-")
                assert np.array_equal(four.allocation.p, p)
                assert four.objective == rep.objective
                assert four.diagnostics == rep.diagnostics

    def test_four_point_reports_are_the_saturated_ones(self):
        # solve_fourpoint on weights realising each four-point row, against
        # solve_saturated on the coefficients it reduces them to
        rng = np.random.default_rng(2601)
        X = build_model_matrix([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        for v in self._rows(rng):
            if v.size != 4:
                continue
            problem = DesignProblem(X, w=1.0 / v)
            rep, ref = solve_fourpoint(problem), solve_saturated(compute_u(problem))
            assert rep.case_label.startswith("twofactor-case-")
            assert np.array_equal(rep.allocation.p, ref.allocation.p)
            assert rep.objective == ref.objective
            assert rep.diagnostics == ref.diagnostics
            assert rep.diagnostics["equivalence_gap"] <= 1e-12


class TestRootMu:
    def test_golden_branch(self):
        ms = root_mu(SaturatedProblem(np.arange(1.0, 9.0)))
        assert ms.branch == "h1"
        assert ms.mu == pytest.approx(MU_18, abs=1e-11)
        assert ms.residual <= 1e-12

    def test_minus_branch_example(self):
        ms = root_mu(SaturatedProblem([1.0, 1.0, 2.0, 3.0]))
        assert ms.branch == "h2"

    def test_equal_coefficients_closed_form(self):
        for n in (4, 6, 9):
            v = np.full(n, 2.5)
            ms = root_mu(SaturatedProblem(v))
            expect = (1.0 - ((n - 2.0) / n) ** 2) / 2.5
            assert ms.mu == pytest.approx(expect, rel=1e-12)

    def test_dominant_rejected(self):
        with pytest.raises(DomainError):
            root_mu(SaturatedProblem([1.0, 2.0, 3.0, 7.0]))

    @pytest.mark.parametrize("v", [(0.75, 0.75, 1.0), (3.0, 3.0, 4.0), (0.75, 0.75, 1.0, 0.0)])
    def test_branch_rule_at_the_switch(self, v):
        # sum_{j<n} sqrt(1 - t_j) = n - 2 exactly: M(0) = 0, the root z = 0 is on h1
        rep = solve_saturated(SaturatedProblem(v))
        assert rep.case_label == "saturated-h1"
        want = [3 / 8, 3 / 8, 1 / 4] if len(v) == 3 else [1 / 4, 1 / 4, 1 / 6, 1 / 3]
        assert rep.allocation.p.tolist() == want
        assert rep.diagnostics["mu_scaled"] * max(v) == 1.0

    def test_few_evaluations_near_dominance_and_ties(self):
        rng = np.random.default_rng(19)
        worst = 0
        for n in range(3, 33):
            for _ in range(10):
                v = rng.uniform(0.05, 1.0, n - 1)
                tied = rng.uniform(0.05, 1.0, n)
                tied[rng.choice(n, size=2, replace=False)] = tied.max()
                draws = [
                    np.append(v, rng.uniform(0.8, 1.0) * v.sum()),
                    np.append(v, rng.uniform(0.999999, 1.0) * v.sum()),
                    1.0 + rng.uniform(0.0, 1e-9, n),
                    tied,
                ]
                for d in draws:
                    worst = max(worst, root_mu(SaturatedProblem(d)).iterations)
        # measured maximum 14 here, 17 over wider seeded families
        assert worst <= 24

    def test_search_without_convergence_is_a_solver_error(self, monkeypatch):
        from glmdopt import saturated

        def no_convergence(*args, **kwargs):
            raise RuntimeError("Failed to converge after 100 iterations")

        monkeypatch.setattr(saturated, "brentq", no_convergence)
        with pytest.raises(SolverError, match="failed to converge"):
            root_mu(SaturatedProblem(np.arange(1.0, 9.0)))


class TestSolveSaturated:
    def test_branch_dichotomy_pairs(self):
        plus = solve_saturated(SaturatedProblem([5.0, 5.0, 6.0, 7.0]))
        assert plus.case_label == "saturated-h1"
        assert plus.allocation.p[3] >= 1.0 / 6.0
        minus = solve_saturated(SaturatedProblem([1.0, 1.0, 2.0, 3.0]))
        assert minus.case_label == "saturated-h2"
        assert minus.allocation.p[3] < 1.0 / 6.0

    def test_dominant_coefficient_boundary(self):
        rep = solve_saturated(SaturatedProblem([1.0, 2.0, 3.0, 7.0]))
        assert rep.case_label == "saturated-boundary"
        assert rep.allocation.p == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0.0], abs=1e-15)
        assert rep.objective == pytest.approx(7.0 / 27.0, rel=1e-14)

    def test_equal_coefficients_uniform(self):
        for n in (3, 5, 8):
            rep = solve_saturated(SaturatedProblem(np.full(n, 1.7)))
            assert rep.allocation.p == pytest.approx(np.full(n, 1.0 / n), abs=1e-12)

    def test_points_tied_with_the_largest_share_its_mass(self, rng):
        # the tied points take the largest point's root z from the constraint,
        # so their mass is equal bit for bit, on either order of the input
        for n in (4, 5, 8):
            for top in range(2, n):
                v = np.sort(rng.uniform(0.5, 1.0, n))
                v[n - top:] = v[-1]
                rep = solve_saturated(SaturatedProblem(rng.permutation(v)))
                assert rep.case_label == "saturated-h1"
                tied = np.sort(rep.allocation.p)[:top]
                assert np.all(tied == tied[0]), (n, top)
                assert rep.diagnostics["equivalence_gap"] <= 1e-12

    def test_zero_coefficients_pinned(self):
        rep = solve_saturated(SaturatedProblem([0.0, 0.0, 1.0, 2.0, 3.0, 4.0]))
        p = rep.allocation.p
        assert p[0] == pytest.approx(0.2, abs=1e-12)
        assert p[1] == pytest.approx(0.2, abs=1e-12)
        assert np.all(p[2:] < 0.2)

    def test_input_order_restored(self, rng):
        v = np.array([3.0, 1.0, 2.0, 1.5, 2.5])
        rep = solve_saturated(SaturatedProblem(v))
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
            rep = solve_saturated(SaturatedProblem(v))
            p = rep.allocation.p
            ratios = p * (1.0 / (n - 1) - p) / v
            assert (ratios.max() - ratios.min()) / ratios.mean() < 1e-10
            mu = rep.diagnostics["mu"]
            assert ratios.mean() == pytest.approx(mu / (4.0 * (n - 1) ** 2), rel=1e-9)

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_range_and_ordering(self, n, rng):
        for _ in range(100):
            v = self._random_interior_v(rng, n)
            p = solve_saturated(SaturatedProblem(v)).allocation.p
            assert np.all(p > 0.0)
            assert np.all(p < 1.0 / (n - 1) + 1e-12)
            order = np.argsort(v, kind="stable")
            assert np.all(np.diff(p[order]) <= 1e-12)

    def test_at_most_one_minus_branch_index(self, rng):
        half = 1.0 / (2.0 * (10 - 1))
        for _ in range(100):
            v = self._random_interior_v(rng, 10)
            rep = solve_saturated(SaturatedProblem(v))
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
            rep = solve_saturated(SaturatedProblem(v))
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
            rep = solve_saturated(SaturatedProblem(v))
            obj = MultilinearObjective(lambda p: vform_objective(v, p), n, n - 1)
            lift = liftone_maximize(obj, LiftOneConfig(tol=1e-14, max_sweeps=3000))
            assert rep.objective == pytest.approx(lift.objective, rel=1e-9)
            assert rep.objective >= lift.objective - 1e-10 * rep.objective

    def test_four_point_specialization_matches_quartic_solver(self, rng):
        for _ in range(200):
            v = self._random_interior_v(rng, 4)
            sat = solve_saturated(SaturatedProblem(v))
            quad = solve_22(v)
            assert sat.allocation.p == pytest.approx(quad.allocation.p, abs=1e-9)
            assert sat.objective == pytest.approx(quad.objective, rel=1e-9)

    def test_interior_support_everywhere(self, rng):
        for n in (5, 8):
            for _ in range(100):
                v = self._random_interior_v(rng, n)
                p = solve_saturated(SaturatedProblem(v)).allocation.p
                assert p.min() > 0.0

    def test_certificate_recorded(self, rng):
        v = self._random_interior_v(rng, 6)
        rep = solve_saturated(SaturatedProblem(v))
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
        rep = solve_saturated(SaturatedProblem([0.0, 2.0, 0.0, 1.0]))
        assert rep.case_label == "saturated-boundary"
        assert np.array_equal(rep.allocation.p, [1 / 3, 0.0, 1 / 3, 1 / 3])
        assert rep.diagnostics["equivalence_gap"] == 0.0
        assert rep.objective == pytest.approx(2.0 / 27.0, rel=1e-15)
        with pytest.raises(DomainError, match="positive"):
            SaturatedProblem([0.0, 0.0, 0.0, 0.0])

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            SaturatedProblem([1.0, 2.0])

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            SaturatedProblem([-1.0, 1.0, 2.0, 3.0])


class TestDerivedFields:
    def test_order_zeros_and_size_follow_from_v(self):
        sp = SaturatedProblem([3.0, 0.0, 1.0, 0.0, 2.0])
        assert np.array_equal(sp.v, [0.0, 0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(sp.perm, [1, 3, 2, 4, 0])
        assert (sp.n, sp.zero_count, sp.log_scale) == (5, 2, 0.0)

    def test_in_range_input_is_not_rescaled(self):
        v = [1e-30, 2.0**-128, 5.0, 1e38]
        sp = SaturatedProblem(v, log_scale=1.5)
        assert np.array_equal(sp.v, np.sort(v)) and sp.log_scale == 1.5

    def test_underflow_against_the_largest_is_an_exact_zero(self):
        sp = SaturatedProblem([1e-300, 1.0, 2.0, 1e300])
        assert sp.zero_count == 1 and sp.v[0] == 0.0
        assert 0.5 <= sp.v[-1] < 1.0
        assert sp.log_scale + np.log(sp.v[-1]) == pytest.approx(np.log(1e300), rel=1e-15)

    def test_subnormal_coefficients_solve_as_their_ratios(self):
        rep = solve_saturated(SaturatedProblem(np.arange(1.0, 6.0) * 1e-310))
        ref = solve_saturated(SaturatedProblem(np.arange(1.0, 6.0)))
        assert rep.case_label == ref.case_label
        assert rep.allocation.p == pytest.approx(ref.allocation.p, abs=1e-12)
        assert rep.diagnostics["equivalence_gap"] <= 1e-12


def test_stacked_rows_match_one_problem_per_row():
    # the order, zero and scale step and its gates on a stack, against one
    # SaturatedProblem per row: derived fields bit for bit, errors by message
    rows = [
        ([3.0, 1.0, 2.0, 0.5], 0.0),
        ([0.0, 2.0, 0.0, 1.0], 1.5),
        ([1e-300, 1.0, 2.0, 1e300], -2.0),  # scaled, its smallest entry underflows
        ([1e-200, 3e-200, 2e-200, 0.0], 0.25),  # scaled up
        ([np.nan, 1.0, 2.0, 3.0], 0.0),
        ([np.inf, 1.0, 2.0, 3.0], 0.0),
        ([-1.0, 1.0, 2.0, 3.0], 0.0),
        ([0.0, 0.0, 0.0, 0.0], 0.0),
        ([-1.0, 0.0, 0.0, 0.0], np.nan),
        ([1.0, 2.0, 3.0, 4.0], np.inf),
        ([np.nan, -1.0, 0.0, 0.0], np.nan),
    ]
    V = np.array([v for v, _ in rows])
    got = SaturatedProblem._rows(V, np.array([ls for _, ls in rows]))
    for (v, ls), sp in zip(rows, got):
        try:
            want = SaturatedProblem(v, log_scale=ls)
        except DomainError as exc:
            assert isinstance(sp, DomainError) and str(sp) == str(exc)
            continue
        assert isinstance(sp, SaturatedProblem)
        assert sp.v.tobytes() == want.v.tobytes() and sp.perm.tobytes() == want.perm.tobytes()
        assert (sp.n, sp.zero_count) == (want.n, want.zero_count)
        assert float(sp.log_scale).hex() == float(want.log_scale).hex()
        assert not sp.v.flags.writeable and not sp.perm.flags.writeable
    assert sum(isinstance(sp, DomainError) for sp in got) == 7
