"""Four-point reduced-objective solver: case dispatch, quartic, invariants."""

import numpy as np
import pytest

from conftest import random_feasible, random_interior_v4, vform_max_oracle
from glmdopt import (
    DomainError,
    SaturatedProblem,
    SolverError,
    back_substitute,
    kkt_residual,
    liftone_maximize,
    quartic_largest_root,
    solve_22,
    solve_quartic,
    vform_objective,
)
from glmdopt.liftone import MultilinearObjective
from glmdopt.solver4 import _interior_quartic, _one_zero_sorted, _quartic_coeffs

# closed-form solution for v = (1, 1, 2, 3), verified by a first-order gap
# below 1e-15 and by the grid oracle
P_1123 = (0.3056232969657256, 0.3056232969657256, 0.27078252727570584, 0.11797087879284301)

# interior-case solution for v = (1, 2, 3, 4): quartic root, back-substitution
P_1234 = (0.31116340376895973, 0.28490725313612142, 0.25082345809832729, 0.15310588499659153)
Y_1234 = (2.0323412374115266, 1.8608510910110612, 1.6382352520539047)
F_1234 = 0.16450457211191702


def _liftone_vform(v, tol=1e-14):
    varr = np.asarray(v, dtype=float)
    obj = MultilinearObjective(lambda p: vform_objective(varr, p), 4, 3)
    from glmdopt import LiftOneConfig

    return liftone_maximize(obj, LiftOneConfig(tol=tol, max_sweeps=2000))


class TestCaseDispatch:
    def test_dominant_coefficient_boundary(self):
        rep = solve_22([1.0, 2.0, 3.0, 7.0])
        assert np.array_equal(rep.allocation.p, [1 / 3, 1 / 3, 1 / 3, 0.0])
        assert rep.case_label == "2x2-case-i"
        assert rep.objective == pytest.approx(7.0 / 27.0, rel=1e-14)

    def test_dominant_boundary_exact_tie(self):
        rep = solve_22([1.0, 2.0, 3.0, 6.0])
        assert rep.case_label == "2x2-case-i"
        assert rep.allocation.p[3] == 0.0

    def test_tied_smallest_pair(self):
        rep = solve_22([1.0, 1.0, 2.0, 3.0])
        assert rep.case_label == "2x2-case-ii"
        assert rep.allocation.p == pytest.approx(P_1123, abs=1e-15)
        assert rep.allocation.p.sum() == pytest.approx(1.0, abs=1e-15)
        assert kkt_residual([1.0, 1.0, 2.0, 3.0], rep.allocation) < 1e-12

    def test_all_equal_is_uniform(self):
        rep = solve_22([1.0, 1.0, 1.0, 1.0])
        assert rep.allocation.p == pytest.approx([0.25] * 4, abs=1e-15)

    def test_interior_case_strictly_ordered(self):
        rep = solve_22([1.0, 2.0, 3.0, 4.0])
        assert rep.case_label == "2x2-case-v"
        p = rep.allocation.p
        assert p[0] > p[1] > p[2] > p[3] > 0.0
        assert p == pytest.approx(P_1234, abs=1e-13)
        assert rep.objective == pytest.approx(F_1234, rel=1e-13)
        assert rep.diagnostics["y1"] == pytest.approx(Y_1234[0], rel=1e-13)
        assert rep.diagnostics["y2"] == pytest.approx(Y_1234[1], rel=1e-13)
        assert rep.diagnostics["y3"] == pytest.approx(Y_1234[2], rel=1e-13)

    def test_interior_matches_liftone_and_grid(self):
        v = [1.0, 2.0, 3.0, 4.0]
        rep = solve_22(v)
        lift = _liftone_vform(v)
        assert rep.objective == pytest.approx(lift.objective, rel=1e-10)
        assert rep.allocation.p == pytest.approx(lift.allocation.p, abs=1e-7)
        _, grid_f = vform_max_oracle(v)
        assert rep.objective >= grid_f - 1e-9 * rep.objective

    def test_one_zero_routes_to_rational_forms(self):
        rep = solve_22([0.0, 1.0, 2.0, 2.5])
        assert rep.case_label == "2x2-case-2d"
        assert rep.allocation.p[0] == 1.0 / 3.0

    @pytest.mark.parametrize(
        "v, empty",
        [
            ([0.0, 0.0, 1.0, 2.0], 3),
            ([0.0, 0.0, 1.0, 1.0], 3),
            ([0.0, 0.0, 0.0, 1.0], 3),
            ([2.0, 0.0, 1.0, 0.0], 0),
        ],
    )
    def test_two_zeros_solve_to_case_2a(self, v, empty):
        # exact zeros: mass 1/3 on every point but one with the largest coefficient
        rep = solve_22(v)
        assert rep.case_label == "2x2-case-2a"
        target = np.full(4, 1.0 / 3.0)
        target[empty] = 0.0
        assert np.array_equal(rep.allocation.p, target)
        assert rep.diagnostics["equivalence_gap"] == 0.0
        assert rep.objective == pytest.approx(max(v) / 27.0, rel=1e-14)

    def test_two_near_zeros_certified(self):
        rep = solve_22([1e-12, 1e-12, 1.0, 1.0])
        assert rep.case_label == "2x2-case-2c"
        assert rep.allocation.p[0] == 1.0 / 3.0
        assert 0.0 <= rep.diagnostics["equivalence_gap"] <= 1e-12

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            solve_22([-1.0, 1.0, 2.0, 3.0])


class TestQuartic:
    def test_root_matches_companion_matrix(self, rng):
        for _ in range(50):
            v = random_interior_v4(rng)
            c = _quartic_coeffs(v)
            root = quartic_largest_root(c)
            companion = np.roots(list(reversed(c)))
            reference = max(r.real for r in companion if abs(r.imag) < 1e-8)
            assert root == pytest.approx(reference, rel=1e-9)
            assert root > 1.0

    def test_residual_bound(self, rng):
        for _ in range(200):
            v = random_interior_v4(rng)
            qr = solve_quartic(_quartic_coeffs(v))
            assert qr.residual <= 1e-9 * qr.scale

    def test_near_tie_consistent_with_tie_formula(self):
        # v3 -> v4 within 1e-8: interior formulas agree with the tied pair
        from glmdopt.solver4 import _tie_pair_solution

        v = np.array([1.0, 2.0, 3.0 - 1e-8, 3.0])
        qr = solve_quartic(_quartic_coeffs(v))
        _, _, alloc = back_substitute(qr.root, v)
        tie_p = _tie_pair_solution(np.array([1.0, 2.0, 3.0, 3.0]), "34")
        assert alloc.p == pytest.approx(tie_p, abs=1e-5)

    def test_sign_pattern_at_zero_and_one(self, rng):
        for _ in range(100):
            v = random_interior_v4(rng)
            c = _quartic_coeffs(v)
            assert c[0] > 0.0 and c[1] > 0.0 and c[4] > 0.0
            assert sum(c) < 0.0  # value at y = 1

    def test_bisection_fallback_agrees_with_radical(self, rng):
        from glmdopt.solver4 import _bisect_root, _quartic_value

        for _ in range(20):
            v = random_interior_v4(rng)
            c = _quartic_coeffs(v)
            radical = solve_quartic(c)
            hi = 1.0 + sum(map(abs, c)) / c[4]
            root, _ = _bisect_root(lambda y: _quartic_value(c, y), 1.0, hi)
            assert root == pytest.approx(radical.root, rel=1e-12)

    def test_invalid_signs_rejected(self):
        with pytest.raises(DomainError):
            solve_quartic([-1.0, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            solve_quartic([1.0, 1.0, 1.0, 1.0, -1.0])


class TestBackSubstitute:
    def test_matches_liftone(self, rng):
        for _ in range(10):
            v = random_interior_v4(rng)
            qr = solve_quartic(_quartic_coeffs(v))
            y2, y3, alloc = back_substitute(qr.root, v)
            assert y2 > 1.0 and y3 > 1.0
            lift = _liftone_vform(v)
            assert vform_objective(v, alloc.p) == pytest.approx(lift.objective, rel=1e-8)

    def test_symmetric_limit_is_uniform(self):
        for eps in (1e-3, 1e-5, 1e-7):
            v = np.array([1.0, 1.0 + eps, 1.0 + 2 * eps, 1.0 + 3 * eps])
            rep = solve_22(v)
            assert rep.allocation.p == pytest.approx([0.25] * 4, abs=10 * eps)

    def test_near_dominant_boundary(self):
        # v4 just below v1+v2+v3: the smallest entry fades out continuously
        v = [1.0, 2.0, 3.0, 5.9]
        rep = solve_22(v)
        assert rep.case_label == "2x2-case-v"
        assert rep.allocation.p[3] < 0.01
        assert rep.objective == pytest.approx(5.9 / 27.0, rel=0.01)

    def test_rejects_root_below_one(self):
        with pytest.raises(DomainError):
            back_substitute(0.9, np.array([1.0, 2.0, 3.0, 4.0]))


class TestKKTResidual:
    def test_zero_at_tied_optimum(self):
        assert kkt_residual([1.0, 1.0, 2.0, 3.0], np.array(P_1123)) < 1e-12

    def test_positive_at_uniform_for_asymmetric_v(self):
        assert kkt_residual([1.0, 2.0, 3.0, 4.0], np.full(4, 0.25)) > 1e-3

    def test_exactly_zero_for_symmetric(self):
        assert kkt_residual([1.0, 1.0, 1.0, 1.0], np.full(4, 0.25)) == 0.0

    def test_boundary_rejected(self):
        with pytest.raises(DomainError, match="boundary"):
            kkt_residual([1.0, 2.0, 3.0, 7.0], np.array([1 / 3, 1 / 3, 1 / 3, 0.0]))


class TestInvariants:
    def test_interior_solutions_feasible(self, rng):
        for _ in range(1000):
            v = random_interior_v4(rng)
            rep = solve_22(v)
            p = rep.allocation.p
            assert np.all(p > 0.0) and np.all(p < 1.0)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_ordering_monotone(self, rng):
        for _ in range(200):
            v = random_interior_v4(rng)
            p = solve_22(v).allocation.p
            for i in range(4):
                for j in range(4):
                    if v[i] <= v[j]:
                        assert p[i] >= p[j] - 1e-12

    def test_objective_dominates_random_points(self, rng):
        for _ in range(20):
            v = random_interior_v4(rng)
            rep = solve_22(v)
            for _ in range(1000):
                q = random_feasible(rng, 4)
                assert rep.objective >= vform_objective(v, q) - 1e-12 * rep.objective
            lift = _liftone_vform(v)
            assert rep.objective >= lift.objective - 1e-10 * rep.objective

    def test_case_boundary_continuity(self):
        # as v4 grows to v1+v2+v3 the interior solution approaches the
        # boundary one
        v_base = np.array([1.0, 2.0, 3.0])
        target = solve_22([1.0, 2.0, 3.0, 6.0]).allocation.p
        prev_dist = np.inf
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            rep = solve_22(np.append(v_base, 6.0 - eps))
            dist = float(np.max(np.abs(rep.allocation.p - target)))
            assert dist < prev_dist + 1e-12
            prev_dist = dist
        assert prev_dist < 1e-4

    @pytest.mark.parametrize(
        "v,label",
        [
            ((1.0, 1.0, 2.0, 3.0), "2x2-case-ii"),
            ((1.0, 2.0, 2.0, 3.0), "2x2-case-iii"),
            ((1.0, 2.0, 3.0, 3.0), "2x2-case-iv"),
        ],
    )
    def test_tie_formulas_satisfy_first_order_conditions(self, v, label):
        rep = solve_22(v)
        assert rep.case_label == label
        assert kkt_residual(v, rep.allocation) < 1e-12

    def test_permutation_equivariance(self, rng):
        v = random_interior_v4(rng)
        base = solve_22(v).allocation.p
        for _ in range(10):
            perm = rng.permutation(4)
            assert solve_22(v[perm]).allocation.p == pytest.approx(base[perm], abs=1e-14)

    def test_solve_22_validation(self):
        with pytest.raises(DomainError, match="four coefficients"):
            solve_22([1.0, 2.0, 3.0])
        with pytest.raises(DomainError, match="four coefficients"):
            solve_22(SaturatedProblem.from_values([1.0, 2.0, 3.0]))
        with pytest.raises(DomainError, match="positive"):
            solve_22([0.0, 0.0, 0.0, 0.0])


class TestDiscontinuityGuard:
    """The interior-case formulas do not continuously extend to a zero
    coefficient, so tiny smallest coefficients must route to the rational
    forms rather than take the interior-formula limit."""

    def test_dispatch_and_dominance(self):
        p_2d, _ = _one_zero_sorted(np.array([0.0, 1.0, 2.0, 2.5]))
        for eps in (1e-3, 1e-6, 1e-9):
            v = np.array([eps, 1.0, 2.0, 2.5])
            rep = solve_22(v)
            routed_to_2d = rep.case_label == "2x2-case-2d"
            assert routed_to_2d == (eps <= 1e-9 * 2.5)
            # the dispatched answer never loses to the raw interior formulas
            p_interior, _ = _interior_quartic(v)
            assert rep.objective >= vform_objective(v, p_interior) - 1e-12 * rep.objective

    def test_interior_path_tracks_the_optimum_near_zero(self):
        # the optimum itself is continuous in the coefficients: the exact
        # interior evaluation approaches the rational-form ratios
        # y2 = u2(u3+u4-u2)/(u4(u2+u3-u4)) = 2.8 even though a naive
        # symbolic limit of the y2 expression does not
        v = np.array([1e-6, 1.0, 2.0, 2.5])
        qr = solve_quartic(_quartic_coeffs(v))
        y2, y3, _ = back_substitute(qr.root, v)
        assert y2 == pytest.approx(2.8, rel=1e-4)
        assert y3 == pytest.approx(2.4, rel=1e-4)
