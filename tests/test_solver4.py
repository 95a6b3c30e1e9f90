"""Four-point reduced-objective solver: case dispatch, quartic, invariants.

The allocations come from the saturated root search; the paper's closed
forms in ``reference`` (quartic root, back-substitution, tie and one-zero
forms) cross-check them.
"""

import numpy as np
import pytest

from conftest import random_feasible, random_interior_v4, vform_max_oracle
from glmdopt import (
    DomainError,
    SaturatedProblem,
    SolverError,
    liftone_maximize,
    solve_22,
    solve_quartic,
    solve_saturated,
    vform_objective,
)
from glmdopt.design import vform_log_sensitivities
from glmdopt.liftone import MultilinearObjective
from glmdopt.solver4 import TIE_REL, _quartic_coeffs
from reference import back_substitute, one_zero_rational, tie_pair_solution

# closed-form solution for v = (1, 1, 2, 3), verified by a first-order gap
# below 1e-15 and by the grid oracle
P_1123 = (0.3056232969657256, 0.3056232969657256, 0.27078252727570584, 0.11797087879284301)

# interior-case solution for v = (1, 2, 3, 4), with y_i = p_i / p_4 from the
# paper's quartic root and back-substitution
P_1234 = (0.31116340376895973, 0.28490725313612142, 0.25082345809832729, 0.15310588499659153)
Y_1234 = (2.0323412374115266, 1.8608510910110612, 1.6382352520539047)
F_1234 = 0.16450457211191702


def _kkt_residual(v, p):
    """Largest gap between the partials ``f d_i`` of the v-form objective at p."""
    log_f, d = vform_log_sensitivities(np.asarray(v, dtype=float), p)
    return np.exp(log_f) * (d.max() - d.min())


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
        assert _kkt_residual([1.0, 1.0, 2.0, 3.0], rep.allocation.p) < 1e-12

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
        for i in range(3):
            assert p[i] / p[3] == pytest.approx(Y_1234[i], rel=1e-13)

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
        assert rep.allocation.p == pytest.approx(one_zero_rational([0.0, 1.0, 2.0, 2.5]), abs=1e-15)

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

    def test_beyond_float_range_rejected(self):
        with pytest.raises(DomainError, match="coefficients must be finite"):
            solve_22([1, 2, 3, 10**400])


class TestClosedForms:
    """The root search against the paper's tie and one-zero closed forms."""

    def test_ties_match_the_tie_form(self, rng):
        labels = {1: "ii", 2: "iii", 3: "iv"}
        checked = 0
        for _ in range(300):
            v = np.sort(rng.uniform(0.1, 5.0, 4))
            k = int(rng.integers(1, 4))  # ties sorted entries k - 1 and k
            v[k] = v[k - 1]
            if v[3] >= v[0] + v[1] + v[2] or np.min(np.diff(np.delete(v, k))) <= 1e-6 * v[3]:
                continue
            rep = solve_22(v)
            assert rep.case_label == f"2x2-case-{labels[k]}"
            assert rep.allocation.p[k] == rep.allocation.p[k - 1]
            assert rep.allocation.p == pytest.approx(tie_pair_solution(v, f"{k}{k + 1}"), abs=1e-14)
            checked += 1
        assert checked >= 100

    def test_one_zero_matches_the_rational_form(self, rng):
        checked = 0
        for _ in range(300):
            u = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 5.0, 3))])
            if u[3] >= u[1] + u[2] or np.min(np.diff(u[1:])) <= 1e-6 * u[3]:
                continue
            rep = solve_22(u)
            assert rep.case_label == "2x2-case-2d" and rep.allocation.p[0] == 1.0 / 3.0
            assert rep.allocation.p == pytest.approx(one_zero_rational(u), abs=1e-14)
            checked += 1
        assert checked >= 100


class TestNearDominance:
    """Near the dominance boundary ``v4 = v1 + v2 + v3``, with a smallest
    coefficient small but outside the zero band, the paper's quartic and
    back-substitution lose the optimum (a gap of 7e-2 at ``v1 = 1e-8``); the
    root search does not."""

    @staticmethod
    def _check(v):
        rep = solve_22(v)
        assert rep.diagnostics["equivalence_gap"] <= 1e-12, (v, rep.diagnostics)
        ref = solve_saturated(SaturatedProblem(v)).diagnostics["log_objective"]
        assert rep.diagnostics["log_objective"] == pytest.approx(ref, abs=1e-13)
        return rep

    @pytest.mark.parametrize("v1", [1e-8, 1e-7, 1e-6])
    def test_explicit_coefficients_certified(self, v1):
        rep = self._check([v1, 0.3, 0.7, 1.0])
        assert rep.case_label == "2x2-case-v"

    def test_seeded_draws_certified(self):
        rng = np.random.default_rng(2323)
        for _ in range(2000):
            v1 = 10.0 ** rng.uniform(-8.5, -4.0)
            v2 = rng.uniform(0.05, 0.95) * (1.0 - v1)
            v3 = 1.0 - v1 - v2 + 10.0 ** rng.uniform(-12.0, -3.0)
            assert self._check(rng.permutation([v1, v2, v3, 1.0])).case_label == "2x2-case-v"

    def test_a_few_ulps_short_of_dominance(self):
        # the rounded M(-1) may already be >= 0 here: the root is z = -1, the
        # boundary allocation, whatever label the dominance test gives
        rng = np.random.default_rng(2324)
        for _ in range(300):
            v = rng.uniform(0.05, 20.0, 3)
            top = v.sum()
            for _ in range(rng.integers(1, 6)):
                top = np.nextafter(top, 0.0)
            self._check(rng.permutation(np.append(v, top)))

    def test_zero_band_gap_is_bounded_by_the_band(self):
        # The zero band solves u = v with v1 set to 0. At u's interior optimum
        # every d_i = 3, p1 = 1/3, p2, p3 >= 1/6 (plus roots) and p4 <= 1/3.
        # Putting v1 back scales f by 1 + delta, delta = v1 p2 p3 p4 / f, and
        # turns d_j (j > 1) into (3 + delta / p_j) / (1 + delta), so the gap is
        # at most max_j delta / (3 p_j); with f >= v4 p1 p2 p3 that is at most
        # 2 v1 / v4 <= 2 TIE_REL (v1 / v4 on the dominant rows, where p4 = 0).
        rng = np.random.default_rng(2325)
        for _ in range(500):
            v = np.sort(np.exp(rng.uniform(-2.0, 2.0, 4)))
            v[0] = v[3] * 10.0 ** rng.uniform(-16.0, -9.0)
            perm = rng.permutation(4)
            rep = solve_22(v[perm])
            assert rep.case_label.removeprefix("2x2-case-") in ("2a", "2b", "2c", "2d")
            assert rep.allocation.p[np.argmin(perm)] == 1.0 / 3.0
            assert rep.diagnostics["equivalence_gap"] <= 2.0 * TIE_REL


class TestQuartic:
    def test_root_matches_companion_matrix(self, rng):
        for _ in range(50):
            v = random_interior_v4(rng)
            c = _quartic_coeffs(v)
            root = solve_quartic(c).root
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
        v = np.array([1.0, 2.0, 3.0 - 1e-8, 3.0])
        qr = solve_quartic(_quartic_coeffs(v))
        _, _, alloc = back_substitute(qr.root, v)
        tie_p = tie_pair_solution(np.array([1.0, 2.0, 3.0, 3.0]), "34")
        assert alloc.p == pytest.approx(tie_p, abs=1e-5)

    def test_sign_pattern_at_zero_and_one(self, rng):
        for _ in range(100):
            v = random_interior_v4(rng)
            c = _quartic_coeffs(v)
            assert c[0] > 0.0 and c[1] > 0.0 and c[4] > 0.0
            assert sum(c) < 0.0  # value at y = 1

    def test_bisection_fallback_agrees_with_radical(self, rng, monkeypatch):
        from glmdopt import solver4

        coeffs = [_quartic_coeffs(random_interior_v4(rng)) for _ in range(20)]
        radical = [solve_quartic(c) for c in coeffs]
        monkeypatch.setattr(solver4, "_radical_root", lambda c: np.nan)
        for c, want in zip(coeffs, radical):
            got = solve_quartic(c)
            assert got.used_fallback and not want.used_fallback
            assert got.root == pytest.approx(want.root, rel=1e-12)

    def test_invalid_signs_rejected(self):
        with pytest.raises(DomainError):
            solve_quartic([-1.0, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            solve_quartic([1.0, 1.0, 1.0, 1.0, -1.0])

    def test_beyond_float_range_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            solve_quartic([10**400, 1, 1, 1, 1])


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
        assert _kkt_residual([1.0, 1.0, 2.0, 3.0], np.array(P_1123)) < 1e-12

    def test_positive_at_uniform_for_asymmetric_v(self):
        assert _kkt_residual([1.0, 2.0, 3.0, 4.0], np.full(4, 0.25)) > 1e-3

    def test_exactly_zero_for_symmetric(self):
        assert _kkt_residual([1.0, 1.0, 1.0, 1.0], np.full(4, 0.25)) == 0.0


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
        assert _kkt_residual(v, rep.allocation.p) < 1e-12

    def test_permutation_equivariance(self, rng):
        v = random_interior_v4(rng)
        base = solve_22(v).allocation.p
        for _ in range(10):
            perm = rng.permutation(4)
            assert solve_22(v[perm]).allocation.p == pytest.approx(base[perm], abs=1e-14)

    @pytest.mark.parametrize(
        "v, label",
        [
            ([0.1, 0.2, 0.3, 0.9], "2x2-case-i"),
            ([0.2, 0.2, 0.5, 0.7], "2x2-case-ii"),
            ([0.3, 0.45, 0.6, 0.8], "2x2-case-v"),
            ([0.0, 0.3, 0.5, 0.7], "2x2-case-2d"),
        ],
    )
    def test_power_of_two_scale_invariance(self, v, label):
        # raw coefficients far from unit scale are scaled by an exact power of
        # two; the quartic coefficients would overflow or underflow otherwise
        base = solve_22(v)
        assert base.case_label == label
        for k in (600, -600):
            rep = solve_22(np.ldexp(v, k))
            assert rep.case_label == label
            assert np.array_equal(rep.allocation.p, base.allocation.p)
            shift = rep.diagnostics["log_objective"] - base.diagnostics["log_objective"]
            assert shift == pytest.approx(k * np.log(2.0), rel=1e-15)

    def test_huge_raw_interior_input(self):
        rep = solve_22(np.array([0.3, 0.45, 0.6, 0.8]) * 1e200)
        assert rep.case_label == "2x2-case-v"
        assert abs(rep.diagnostics["equivalence_gap"]) <= 1e-9
        assert rep.diagnostics["log_objective"] == pytest.approx(np.log(rep.objective), rel=1e-14)

    def test_solve_22_validation(self):
        with pytest.raises(DomainError, match="four coefficients"):
            solve_22([1.0, 2.0, 3.0])
        with pytest.raises(DomainError, match="four coefficients"):
            solve_22(SaturatedProblem([1.0, 2.0, 3.0]))
        with pytest.raises(DomainError, match="positive"):
            solve_22([0.0, 0.0, 0.0, 0.0])


class TestDiscontinuityGuard:
    """The paper's interior-case formulas do not continuously extend to a zero
    coefficient. In the zero band the smallest coefficient counts as exactly 0,
    and the root search gives the one-zero allocation."""

    def test_dispatch_and_dominance(self):
        p_2d = solve_22([0.0, 1.0, 2.0, 2.5]).allocation.p
        for eps in (1e-3, 1e-6, 1e-9):
            v = np.array([eps, 1.0, 2.0, 2.5])
            rep = solve_22(v)
            routed_to_2d = rep.case_label == "2x2-case-2d"
            assert routed_to_2d == (eps <= 1e-9 * 2.5)
            # in the zero band the smallest coefficient counts as exactly 0
            assert np.array_equal(rep.allocation.p, p_2d) == routed_to_2d
            # the dispatched answer never loses to the raw interior formulas
            _, _, interior = back_substitute(solve_quartic(_quartic_coeffs(v)).root, v)
            p_interior = interior.p
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
