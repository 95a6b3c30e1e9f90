"""Continuous two-factor analysis: rescaling, the fifth-point margin, regions."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import glmdopt.boundary as boundary
from glmdopt import (
    Allocation,
    ContinuousProblem,
    DesignProblem,
    DomainError,
    SolverError,
    WeightFunction,
    check_boundary_optimal,
    corner_weights,
    h_ab,
    objective_det,
    region_sweep,
    rescale_problem,
    solve_22,
)
from glmdopt.boundary import CORNERS, VERDICT_REL_TOL, RegionGrid, grid_axis, region_boundary_segments
from reference import boundary_segments_loop, edge_search_pointwise, objective_expansion

LOGIT = WeightFunction.logit()
X_CORNERS = np.column_stack([np.ones(4), CORNERS])
REGION_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "region_verdict_41.json"


def _unit_problem(beta, fn=LOGIT):
    return ContinuousProblem(np.asarray(beta, float), (-1.0, 1.0, -1.0, 1.0), fn)


def _mp_d(mp, beta, p4, a, b):
    """Probit d(x) = 4 nu(x) h(x) / f(p4) at (a, b) in the precision of ``mp``, with
    ``h`` in its pair form (a sum of q_i q_j times squared linear terms, q = p4 * w)."""
    b0, b1, b2 = (mp.mpf(float(x)) for x in beta)

    def weight(eta):
        return mp.npdf(eta) ** 2 / (mp.ncdf(eta) * mp.ncdf(-eta))

    q = [mp.mpf(float(p)) * weight(b0 + x * b1 + y * b2) for p, (x, y) in zip(p4, CORNERS)]
    a, b = mp.mpf(a), mp.mpf(b)
    h = (q[0] * q[1] * (1 - a) ** 2 + q[0] * q[2] * (1 - b) ** 2 + q[1] * q[3] * (1 + b) ** 2
         + q[2] * q[3] * (1 + a) ** 2 + q[1] * q[2] * (a + b) ** 2 + q[0] * q[3] * (a - b) ** 2)
    f = 16 * (q[0] * q[1] * q[2] + q[0] * q[1] * q[3] + q[0] * q[2] * q[3] + q[1] * q[2] * q[3])
    return 4 * weight(b0 + a * b1 + b * b2) * h / f


def x5_matrix(a, b):
    return np.vstack([np.column_stack([np.ones(4), CORNERS]), [1.0, a, b]])


class TestRescale:
    def test_identity_on_unit_square(self):
        unit, tr = rescale_problem(_unit_problem([0.3, -1.2, 0.7]))
        assert unit.beta == pytest.approx([0.3, -1.2, 0.7])
        assert tr.det_factor == pytest.approx(1.0)
        assert np.array_equal(tr.from_unit(CORNERS), CORNERS)

    def test_shifted_rectangle(self):
        cp = ContinuousProblem([1.0, 1.0, 1.0], (0.0, 2.0, 0.0, 4.0), LOGIT)
        unit, tr = rescale_problem(cp)
        assert unit.beta == pytest.approx([4.0, 1.0, 2.0])
        assert tr.det_factor == pytest.approx(4.0 / (2.0 * 4.0))

    def test_linear_predictor_invariance(self, rng):
        for _ in range(20):
            bounds = np.sort(rng.uniform(-4, 4, 2)).tolist() + np.sort(
                rng.uniform(-4, 4, 2)
            ).tolist()
            if bounds[1] - bounds[0] < 0.1 or bounds[3] - bounds[2] < 0.1:
                continue
            beta = rng.normal(0, 1.5, 3)
            cp = ContinuousProblem(beta, tuple(bounds), LOGIT)
            unit, tr = rescale_problem(cp)
            x = np.column_stack(
                [rng.uniform(bounds[0], bounds[1], 20), rng.uniform(bounds[2], bounds[3], 20)]
            )
            eta = beta[0] + x @ beta[1:]
            xs = tr.to_unit(x)
            eta_star = unit.beta[0] + xs @ unit.beta[1:]
            assert eta_star == pytest.approx(eta, abs=1e-12)

    def test_bounds_validation(self):
        with pytest.raises(DomainError):
            ContinuousProblem([0.0, 1.0, 1.0], (1.0, -1.0, -1.0, 1.0), LOGIT)

    @pytest.mark.parametrize(
        "beta, bounds",
        [
            ([10**400, 1.0, 1.0], (-1.0, 1.0, -1.0, 1.0)),
            ([0.0, 1.0, 1.0], (-1.0, 10**400, -1.0, 1.0)),
        ],
    )
    def test_numbers_beyond_float_range_rejected(self, beta, bounds):
        with pytest.raises(DomainError, match="finite"):
            ContinuousProblem(beta, bounds, LOGIT)


class TestHab:
    def test_symmetric_uniform_value_at_origin(self):
        w = np.full(4, 0.2)
        p = Allocation.uniform(4)
        # only the constant group survives: four pair products of (w/4)^2
        assert h_ab(0.0, 0.0, p, w) == pytest.approx(w[0] ** 2 / 4.0, rel=1e-14)

    def test_origin_drops_linear_and_quadratic_groups(self, rng):
        w = rng.uniform(0.05, 0.3, 4)
        p = rng.dirichlet(np.ones(4))
        q = p * w
        const = q[0] * q[1] + q[0] * q[2] + q[1] * q[3] + q[2] * q[3]
        assert h_ab(0.0, 0.0, p, w) == pytest.approx(const, rel=1e-14)

    def test_point_symmetry_with_matched_pairs(self, rng):
        # w1=w4, w2=w3 with matching allocation: h is even under (a,b) -> (-a,-b)
        w = np.array([0.2, 0.11, 0.11, 0.2])
        p = np.array([0.3, 0.2, 0.2, 0.3])
        for _ in range(20):
            a, b = rng.uniform(-1, 1, 2)
            assert h_ab(a, b, p, w) == pytest.approx(h_ab(-a, -b, p, w), rel=1e-13)

    def test_vectorized_evaluation(self, rng):
        w = rng.uniform(0.05, 0.3, 4)
        p = rng.dirichlet(np.ones(4))
        a = rng.uniform(-1, 1, (3, 5))
        b = rng.uniform(-1, 1, (3, 5))
        grid = h_ab(a, b, p, w)
        for i in range(3):
            for j in range(5):
                assert grid[i, j] == pytest.approx(h_ab(a[i, j], b[i, j], p, w), rel=1e-14)


class TestFifthPointExpansion:
    def test_expansion_coefficients_match_printed_pattern(self, rng):
        # triples of corners carry 16; corner-pair + fifth-point triples carry
        # 4 times a squared linear factor in (a, b)
        for _ in range(20):
            a, b = rng.uniform(-1, 1, 2)
            prob = DesignProblem(x5_matrix(a, b), w=np.ones(5))
            expected = {
                (0, 1, 2): 16.0,
                (0, 1, 3): 16.0,
                (0, 2, 3): 16.0,
                (1, 2, 3): 16.0,
                (0, 1, 4): 4.0 * (1 - a) ** 2,
                (0, 2, 4): 4.0 * (1 - b) ** 2,
                (1, 2, 4): 4.0 * (a + b) ** 2,
                (0, 3, 4): 4.0 * (a - b) ** 2,
                (1, 3, 4): 4.0 * (1 + b) ** 2,
                (2, 3, 4): 4.0 * (1 + a) ** 2,
            }
            for rows, coeff in objective_expansion(prob):
                assert coeff == pytest.approx(expected[rows], rel=1e-10, abs=1e-10)

    def test_margin_identity_against_direct_evaluation(self, rng):
        # 3/4 f(p50) - w5 h(a,b) equals f(p50) - 2 f5(1/2) computed from the
        # five-point objective itself
        for _ in range(1000):
            a, b = rng.uniform(-1, 1, 2)
            w5 = rng.uniform(0.05, 0.3, 5)
            p4 = rng.dirichlet(np.ones(4))
            prob5 = DesignProblem(x5_matrix(a, b), w=w5)
            p50 = np.append(p4, 0.0)
            f_p50 = objective_det(prob5, p50)
            f5_half = objective_det(prob5, np.append(0.5 * p4, 0.5))
            lhs = f_p50 - 2.0 * f5_half
            rhs = 0.75 * f_p50 - w5[4] * h_ab(a, b, p4, w5[:4])
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)


class TestCheckBoundaryOptimal:
    def test_requires_unit_square(self):
        cp = ContinuousProblem([0.0, 1.0, 1.0], (0.0, 1.0, 0.0, 1.0), LOGIT)
        with pytest.raises(DomainError, match="rescaled"):
            check_boundary_optimal(cp)

    def test_constant_weight_is_boundary_optimal(self, rng):
        # first-order model with constant information: the corner design wins
        for _ in range(5):
            beta = rng.normal(0, 1.5, 3)
            verdict = check_boundary_optimal(
                _unit_problem(beta, WeightFunction.constant(1.0)), s_grid_steps=101
            )
            assert verdict.boundary_optimal
            assert verdict.p4.p == pytest.approx(np.full(4, 0.25), abs=1e-12)

    def test_symmetric_logistic_case(self):
        verdict = check_boundary_optimal(_unit_problem([-1.0, 0.0, 0.0]), s_grid_steps=101)
        assert verdict.boundary_optimal
        assert verdict.min_s == pytest.approx(0.0, abs=1e-12 * verdict.f_p4)

    def test_known_failure_case(self):
        verdict = check_boundary_optimal(_unit_problem([-1.0, 2.0, 2.0]), s_grid_steps=101)
        assert not verdict.boundary_optimal
        assert verdict.min_s < -1e-6 * verdict.f_p4

    def test_corner_margins_never_negative(self, rng):
        for _ in range(30):
            beta = rng.normal(0, 1.2, 3)
            cp = _unit_problem(beta)
            w = corner_weights(beta, LOGIT)
            p4 = solve_22(1.0 / w).allocation
            f_p4 = objective_det(DesignProblem(X_CORNERS, w=w), p4)
            for a, b in CORNERS:
                s = 0.75 * f_p4 - LOGIT(beta[0] + a * beta[1] + b * beta[2]) * h_ab(a, b, p4, w)
                assert s >= -1e-10 * f_p4

    def test_p4_matches_corner_solver(self, rng):
        beta = rng.normal(0, 1.0, 3)
        verdict = check_boundary_optimal(_unit_problem(beta), s_grid_steps=51)
        w = corner_weights(beta, LOGIT)
        assert verdict.p4.p == pytest.approx(solve_22(1.0 / w).allocation.p, abs=1e-14)
        X = np.column_stack([np.ones(4), CORNERS])
        assert verdict.f_p4 == pytest.approx(
            objective_det(DesignProblem(X, w=w), verdict.p4), rel=1e-12
        )

    def test_verdict_invariant_under_corner_relabelings(self, rng):
        # sign flips of either slope and the slope swap permute the corners;
        # (-1, 1.4, 1.4) at the default grid has a dip beside a corner that
        # a local search started at the corners must find from every labelling
        cases = [(rng.normal(0, 1.2, 3), 61) for _ in range(6)]
        cases.append((np.array([-1.0, 1.4, 1.4]), 201))
        for beta, steps in cases:
            base = check_boundary_optimal(_unit_problem(beta), s_grid_steps=steps)
            variants = [
                [beta[0], -beta[1], beta[2]],
                [beta[0], beta[1], -beta[2]],
                [beta[0], beta[2], beta[1]],
                [beta[0], -beta[2], -beta[1]],
            ]
            for vb in variants:
                v = check_boundary_optimal(_unit_problem(vb), s_grid_steps=steps)
                assert v.boundary_optimal == base.boundary_optimal
                assert v.min_s == pytest.approx(base.min_s, rel=1e-6, abs=1e-12 * base.f_p4)

    def test_refinement_finds_dip_the_grid_misses(self):
        beta = np.array([-1.0, 1.4, 1.4])
        verdict = check_boundary_optimal(_unit_problem(beta))
        w = corner_weights(beta, LOGIT)

        def s(a, b):
            eta = beta[0] + a * beta[1] + b * beta[2]
            return 0.75 * verdict.f_p4 - LOGIT(eta) * h_ab(a, b, verdict.p4, w)

        axis = np.linspace(-1.0, 1.0, 201)
        grid_min = float(np.min(s(axis[:, None], axis[None, :])))
        assert grid_min >= -VERDICT_REL_TOL * verdict.f_p4
        assert not verdict.boundary_optimal
        assert verdict.min_s < -4e-6 * verdict.f_p4
        assert s(*verdict.argmin) == pytest.approx(verdict.min_s, abs=1e-12 * verdict.f_p4)

    def test_logit_intercept_sign_symmetry(self, rng):
        for _ in range(4):
            beta = rng.normal(0, 1.2, 3)
            a = check_boundary_optimal(_unit_problem(beta), s_grid_steps=61)
            flipped = check_boundary_optimal(
                _unit_problem([-beta[0], beta[1], beta[2]]), s_grid_steps=61
            )
            assert a.boundary_optimal == flipped.boundary_optimal

    def test_zero_corner_weight_is_a_domain_error(self):
        # probit weights at eta = -81 underflow to zero: no corner design to compare with
        with pytest.raises(DomainError, match="corner weights must be positive and finite"):
            check_boundary_optimal(_unit_problem([-1.0, 40.0, 40.0], WeightFunction.probit()))

    def test_subnormal_corner_weight_is_a_domain_error(self):
        # logit weights near 2e-313 at eta = -719 are positive, but 1/w overflows
        with pytest.raises(DomainError, match="with finite reciprocals"):
            check_boundary_optimal(_unit_problem([0.0, 360.0, 360.0]))

    @pytest.mark.parametrize("slope", [30.0, 20.0])
    def test_underflowing_corner_objective_is_not_optimal(self, slope):
        # corner weights near 1e-182 and 1e-208 at slope 30: f(p4) and the margins
        # underflow in linear space, and the verdict is taken in a power-of-two frame;
        # a 50-digit d(x) at the reported argmin is far above 3
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        probit = WeightFunction.probit()
        verdict = check_boundary_optimal(_unit_problem([-1.0, slope, 0.0], probit))
        assert not verdict.boundary_optimal
        assert _mp_d(mp, [-1.0, slope, 0.0], verdict.p4.p, *verdict.argmin) > 1e90

    def test_corner_objective_below_the_normal_range_is_a_solver_error(self):
        # corner weights (1, 1e-160, 1e-160, 1e-160): f(p4) is subnormal even with the
        # largest q scaled into [1/2, 1), so the relative verdict tolerance means nothing
        fn = WeightFunction.tabulated([-2.0, 0.0, 2.0], [1e-160, 1e-160, 1.0])
        with pytest.raises(SolverError, match="beyond the float range"):
            check_boundary_optimal(_unit_problem([0.0, 1.0, 1.0], fn))

    @pytest.mark.parametrize("slope", [300.0, 350.0, 360.0, 400.0])
    def test_margin_beyond_float_range_is_a_solver_error(self, slope):
        # log_poisson weights near exp(slope): h overflows at 300-350, f(p4) from 360
        with pytest.raises(SolverError, match="beyond the float range"):
            check_boundary_optimal(_unit_problem([0.0, slope, 0.0], WeightFunction.log_poisson()))


class TestEdgeSearch:
    @pytest.mark.parametrize("link, half", [("logit", 3.0), ("probit", 2.0), ("log_poisson", 1.0)])
    def test_minimum_on_boundary_and_below_dense_scan(self, rng, link, half):
        # min s lies on the square's edges; a dense 2-D scan of the whole
        # square is the reference the edge search must match or beat
        fn = WeightFunction.from_name(link)
        axis = np.linspace(-1.0, 1.0, 401)
        for beta in rng.uniform(-half, half, (8, 3)):
            verdict = check_boundary_optimal(_unit_problem(beta, fn))
            w = corner_weights(beta, fn)
            tol = 1e-12 * verdict.f_p4

            def s(a, b):
                eta = beta[0] + a * beta[1] + b * beta[2]
                return 0.75 * verdict.f_p4 - fn(eta) * h_ab(a, b, verdict.p4, w)

            a, b = verdict.argmin
            assert max(abs(a), abs(b)) == 1.0
            assert s(a, b) == pytest.approx(verdict.min_s, abs=tol)
            assert verdict.min_s <= float(np.min(s(axis[:, None], axis[None, :]))) + tol


def _map_search(kernel, fn, beta0, half, s_grid_steps, steps=21):
    """One edge-search ``kernel`` call on the nodes of a map whose corner step succeeds.

    Returns those nodes' coefficients, ``p4`` and corner weights, and the
    kernel's columns ``f_p4``, ``min_s``, ``verdict``, ``a``, ``b``.
    """
    axis = grid_axis(-half, half, steps)
    nodes = np.column_stack([np.full(steps * steps, beta0), np.repeat(axis, steps), np.tile(axis, steps)])
    corner = boundary._corner_steps(nodes, fn)
    ok = [not isinstance(step, Exception) for step in corner]
    w = np.reshape([step[0] for step, good in zip(corner, ok) if good], (-1, 4))
    p4 = np.reshape([step[1].p for step, good in zip(corner, ok) if good], (-1, 4))
    return nodes[ok], p4, w, kernel(nodes[ok], p4 * w, fn, s_grid_steps)


def _margin_bound(beta, f_p4, min_s):
    """How far two evaluations of a node's margin, rounded differently, may differ.

    eta's rounding, a few ulps of |beta|_1, moves nu by that times |nu'/nu|,
    at most 1 + |beta|_1 on the square for logit, probit and log_poisson; h
    and S add a few ulps of (3/4) f(p4) + nu h = 1.5 f(p4) - min_s; two
    zooms that stop at stencil points ~1e-8 apart differ by S's second-order
    change, (|beta|_1 1e-8)^2 relative, well below the first term. Margins
    scaled back below the normal range round by at most a subnormal each.
    """
    rel = 32.0 * np.finfo(float).eps * (1.0 + np.abs(beta).sum(axis=1)) ** 2
    return rel * (1.5 * f_p4 - min_s) + 4.0 * np.finfo(float).smallest_subnormal


class TestEdgeKernel:
    # the per-edge kernel against the pointwise search it replaced; the probit +-40 map
    # holds nodes with zero corner weights, the logit -300 +-300 map nodes whose corner
    # objectives underflow outside their power-of-two frames
    MAPS = [
        ("logit", -1.0, 3.0),
        ("probit", 0.5, 3.0),
        ("log_poisson", 0.0, 3.0),
        ("probit", -1.0, 40.0),
        ("logit", -300.0, 300.0),
    ]

    @pytest.mark.parametrize("s_grid_steps", [201, 401])
    @pytest.mark.parametrize("link, beta0, half", MAPS)
    def test_matches_pointwise_search(self, link, beta0, half, s_grid_steps):
        fn = WeightFunction.from_name(link)
        beta, _, _, (f_p4, min_s, verdict, _, _) = _map_search(boundary._edge_search, fn, beta0, half, s_grid_steps)
        *_, (ref_f, ref_s, ref_verdict, _, _) = _map_search(edge_search_pointwise, fn, beta0, half, s_grid_steps)
        assert np.array_equal(verdict, ref_verdict)
        assert np.array_equal(np.isfinite(min_s), np.isfinite(ref_s))
        assert f_p4.tobytes() == ref_f.tobytes()
        live = np.isfinite(min_s)
        bound = _margin_bound(beta, f_p4, np.minimum(min_s, ref_s))
        assert (np.abs(min_s - ref_s)[live] <= bound[live]).all()

    @pytest.mark.parametrize("s_grid_steps", [201, 401])
    @pytest.mark.parametrize("link, beta0, half", MAPS)
    def test_margin_at_argmin(self, link, beta0, half, s_grid_steps):
        # s at the returned point, from h_ab and the weight function, is the returned margin
        fn = WeightFunction.from_name(link)
        beta, p4, w, (f_p4, min_s, _, a, b) = _map_search(boundary._edge_search, fn, beta0, half, s_grid_steps)
        bound = _margin_bound(beta, f_p4, min_s)
        live = np.flatnonzero(np.isfinite(min_s))
        assert live.size
        for k in live:
            assert max(abs(a[k]), abs(b[k])) == 1.0
            eta = beta[k, 0] + a[k] * beta[k, 1] + b[k] * beta[k, 2]
            s = 0.75 * f_p4[k] - fn(eta) * h_ab(a[k], b[k], p4[k], w[k])
            assert abs(s - min_s[k]) <= bound[k]


class TestArgminRule:
    """The returned argmin is the lexicographically least (a, b) among the edge
    points whose margins are tied with the least one, within the rounding band,
    however either kernel rounds: tied corners at boundary-optimal nodes, and
    mirror-image dips on two edges or on one."""

    @pytest.mark.parametrize(
        "link, beta0, half, steps, s_grid_steps",
        [(link, beta0, half, 21, grid) for link, beta0, half in TestEdgeKernel.MAPS for grid in (201, 401)]
        + [("logit", -1.0, 3.0, 41, 201), ("logit", -1.0, 2.0, 41, 201)],
    )
    def test_matches_pointwise_search(self, link, beta0, half, steps, s_grid_steps):
        fn = WeightFunction.from_name(link)
        beta, _, _, (_, min_s, _, a, b) = _map_search(boundary._edge_search, fn, beta0, half, s_grid_steps, steps)
        *_, (_, ref_s, _, ref_a, ref_b) = _map_search(edge_search_pointwise, fn, beta0, half, s_grid_steps, steps)
        live = np.isfinite(min_s)
        assert live.any()
        # the same point, up to where two zooms stop on a flat tied bottom (seen: 6.8e-5)
        assert (np.maximum(np.abs(a - ref_a), np.abs(b - ref_b))[live] <= 1e-3).all()

    @pytest.mark.parametrize(
        "beta, want",
        [
            # mirror dips on the edges a = -1 and b = 1 at equal margins
            ((-1.0, -2.55, 2.55), (-1.0, 0.0150558)),
            # mirror dips at a = +-0.911 on the edge b = -1
            ((-1.0, 1.6, -1.0), (-0.9109155, -1.0)),
            # boundary-optimal, all four corners support p4: their margins are all zero
            ((-1.0, -0.8, -0.2), (-1.0, -1.0)),
        ],
    )
    def test_tied_margins_go_to_the_least_point(self, beta, want):
        verdict = check_boundary_optimal(ContinuousProblem(beta, (-1.0, 1.0, -1.0, 1.0), LOGIT))
        assert verdict.argmin == pytest.approx(want, abs=1e-6)
        # the pointwise search, which rounds otherwise, returns the same point
        q = verdict.p4.p * corner_weights(beta, LOGIT)
        *_, a, b = edge_search_pointwise(np.array([beta]), q[None], LOGIT, 201)
        assert (a[0], b[0]) == pytest.approx(want, abs=1e-6)


class TestRescaleObjectiveInvariance:
    def test_objective_transforms_by_squared_determinant(self, rng):
        # the optimal corner allocation of the rescaled problem gives the
        # original corner problem an objective scaled by det_factor^{-2}
        for _ in range(100):
            lo1, hi1 = np.sort(rng.uniform(-4, 4, 2))
            lo2, hi2 = np.sort(rng.uniform(-4, 4, 2))
            if hi1 - lo1 < 0.1 or hi2 - lo2 < 0.1:
                continue
            beta = rng.normal(0, 1.0, 3)
            cp = ContinuousProblem(beta, (lo1, hi1, lo2, hi2), LOGIT)
            unit, tr = rescale_problem(cp)
            w = corner_weights(unit.beta, LOGIT)
            p = solve_22(1.0 / w).allocation
            X_unit = np.column_stack([np.ones(4), CORNERS])
            f_unit = objective_det(DesignProblem(X_unit, w=w), p)
            orig_corners = tr.from_unit(CORNERS)
            X_orig = np.column_stack([np.ones(4), orig_corners])
            w_orig = LOGIT(beta[0] + orig_corners @ beta[1:])
            assert w_orig == pytest.approx(w, rel=1e-12)
            f_orig = objective_det(DesignProblem(X_orig, w=w_orig), p)
            assert f_unit == pytest.approx(tr.det_factor**2 * f_orig, rel=1e-10)


class TestRegionSweep:
    def test_small_symmetric_grid(self):
        grid = region_sweep(-1.0, (-1.0, 1.0), (-1.0, 1.0), 5, LOGIT, s_grid_steps=41)
        assert grid.verdict.shape == (5, 5)
        assert not grid.failed.any()
        assert grid.verdict[2, 2]  # origin
        assert np.array_equal(grid.verdict, grid.verdict.T)
        assert np.array_equal(grid.verdict, grid.verdict[::-1, :])
        assert np.array_equal(grid.verdict, grid.verdict[:, ::-1])

    def test_single_step_grid(self):
        grid = region_sweep(-1.0, (-2.0, 2.0), (-2.0, 2.0), 1, LOGIT, s_grid_steps=41)
        assert grid.verdict.shape == (1, 1)
        assert grid.beta1[0] == 0.0 and grid.beta2[0] == 0.0

    @pytest.mark.parametrize("s_grid_steps", [1, 0, -3])
    def test_margin_grid_below_two_rejected(self, s_grid_steps):
        with pytest.raises(DomainError, match="s_grid_steps"):
            region_sweep(-1.0, (-1.0, 1.0), (-1.0, 1.0), 2, LOGIT, s_grid_steps=s_grid_steps)

    @pytest.mark.parametrize("count", [float("nan"), 2.5, "3"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda c: check_boundary_optimal(_unit_problem([-1.0, 0.5, 0.5]), s_grid_steps=c),
            lambda c: region_sweep(-1.0, (-1.0, 1.0), (-1.0, 1.0), c, LOGIT, s_grid_steps=21),
            lambda c: region_sweep(-1.0, (-1.0, 1.0), (-1.0, 1.0), 2, LOGIT, s_grid_steps=c),
        ],
        ids=["check_s_grid_steps", "sweep_steps", "sweep_s_grid_steps"],
    )
    def test_grid_counts_must_be_integers(self, call, count):
        with pytest.raises(DomainError, match="must be an integer"):
            call(count)

    def test_numpy_integer_grid_counts(self):
        steps, s_grid_steps = np.int64(3), np.int32(21)
        got = region_sweep(-1.0, (-1.0, 1.0), (-1.0, 1.0), steps, LOGIT, s_grid_steps=s_grid_steps)
        ref = region_sweep(-1.0, (-1.0, 1.0), (-1.0, 1.0), 3, LOGIT, s_grid_steps=21)
        assert np.array_equal(got.min_s, ref.min_s) and np.array_equal(got.verdict, ref.verdict)

    @pytest.mark.parametrize("s_grid_steps", [201, 401])
    def test_maps_match_recorded_fixture(self, s_grid_steps):
        # 41x41 verdict maps recorded with the L-BFGS-B polish this search replaced
        expected = json.loads(REGION_FIXTURE.read_text(encoding="utf-8"))["verdict"]
        grid = region_sweep(-1.0, (-2.0, 2.0), (-2.0, 2.0), 41, LOGIT, s_grid_steps=s_grid_steps)
        assert not grid.failed.any()
        got = ["".join("1" if x else "0" for x in row) for row in grid.verdict]
        assert got == expected[str(s_grid_steps)]

    def test_node_domain_error_marks_failed(self, monkeypatch):
        corner_steps = boundary._corner_steps

        def reject(beta, weight_fn):
            steps = corner_steps(beta, weight_fn)
            return [DomainError("rejected node") if b[1] > 0.0 else s for b, s in zip(beta, steps)]

        monkeypatch.setattr("glmdopt.boundary._corner_steps", reject)
        grid = region_sweep(-1.0, (-1.0, 1.0), (-1.0, 1.0), 3, LOGIT, s_grid_steps=21)
        assert np.array_equal(grid.failed[2], [True, True, True])
        assert not grid.failed[:2].any()
        assert np.isnan(grid.min_s[2]).all() and not grid.verdict[2].any()
        assert np.isfinite(grid.min_s[:2]).all()

    def test_predictor_past_the_float_range_fails_its_node(self):
        # b0 + b1 overflows to inf at some corners: those nodes fail in the weight
        # function's gate, the others on their zero corner weights, and the map goes on
        grid = region_sweep(1e308, (0.0, 1e308), (0.0, 1e308), 2, LOGIT, s_grid_steps=21)
        assert grid.failed.all() and np.isnan(grid.min_s).all()
        cp = ContinuousProblem([1e308, 1e308, 0.0], (-1.0, 1.0, -1.0, 1.0), LOGIT)
        with pytest.raises(DomainError, match="eta must be finite"):
            check_boundary_optimal(cp, s_grid_steps=21)

    def test_node_bug_propagates(self, monkeypatch):
        def broken(beta, weight_fn):
            raise ZeroDivisionError("not a domain failure")

        monkeypatch.setattr("glmdopt.boundary._corner_steps", broken)
        with pytest.raises(ZeroDivisionError):
            region_sweep(-1.0, (-1.0, 1.0), (-1.0, 1.0), 2, LOGIT, s_grid_steps=21)

    @pytest.mark.parametrize(
        "link, beta0, half, steps, s_grid_steps",
        [
            ("logit", -1.0, 2.0, 9, 101),
            ("probit", -1.0, 20.0, 11, 61),
            ("log_poisson", 0.0, 240.0, 11, 61),
            ("logit", -1.0, 400.0, 9, 61),
        ],
    )
    def test_sweep_matches_single_checks_bit_for_bit(self, link, beta0, half, steps, s_grid_steps):
        # the batched map against one check_boundary_optimal per node, over more nodes than
        # one chunk; the probit grid holds nodes with zero corner weights, the log_poisson
        # grid nodes whose margins overflow, the logit +-400 grid nodes whose corner
        # objectives underflow outside their power-of-two frames
        fn = WeightFunction.from_name(link)
        grid = region_sweep(beta0, (-half, half), (-half, half), steps, fn, s_grid_steps=s_grid_steps)
        min_s = np.full((steps, steps), np.nan)
        verdict = np.zeros((steps, steps), dtype=bool)
        failed = np.zeros((steps, steps), dtype=bool)
        for i, b1 in enumerate(grid.beta1):
            for j, b2 in enumerate(grid.beta2):
                try:
                    node = check_boundary_optimal(_unit_problem([beta0, b1, b2], fn), s_grid_steps)
                except (DomainError, SolverError):
                    failed[i, j] = True
                    continue
                min_s[i, j], verdict[i, j] = node.min_s, node.boundary_optimal
        assert steps * steps - failed.sum() > boundary._CHUNK
        assert link == "logit" or failed.any()
        assert grid.min_s.tobytes() == min_s.tobytes()
        assert np.array_equal(grid.verdict, verdict) and np.array_equal(grid.failed, failed)

    def test_zero_corner_weights_mark_nodes_failed(self):
        # 20 of the 25 nodes have a corner |eta| of 41 or more, where probit weights
        # underflow to zero; they fail without a divide-by-zero warning
        grid = region_sweep(-1.0, (-40.0, 40.0), (-40.0, 40.0), 5, WeightFunction.probit())
        assert grid.failed.sum() == 20

    @pytest.mark.parametrize(
        "call",
        [
            lambda: region_sweep([-1.0, 2.0], (-1.0, 1.0), (-1.0, 1.0), 2, LOGIT),
            lambda: region_sweep(-1.0, (-1.0,), (-1.0, 1.0), 2, LOGIT),
            lambda: region_sweep(-1.0, (-1.0, 1.0), (-1.0, 0.0, 1.0), 2, LOGIT),
            lambda: region_sweep(0.0, (-1e308, 1e308), (-1.0, 1.0), 3, LOGIT),
        ],
        ids=["beta0-array", "short-range", "long-range", "range-width-overflow"],
    )
    def test_malformed_sweep_inputs_rejected(self, call):
        with pytest.raises(DomainError, match="beta0 and the slope ranges must be finite numbers"):
            call()

    @pytest.mark.parametrize(
        "lo, hi", [([0.0, 1.0], 1.0), (0.0, [1.0]), (-1e308, 1e308)], ids=["array-lo", "array-hi", "overflow"]
    )
    def test_grid_axis_rejects_malformed_endpoints(self, lo, hi):
        with pytest.raises(DomainError, match="grid endpoints"):
            grid_axis(lo, hi, 3)

    def test_margin_continuity_along_a_line(self):
        # smoke bound calibrated on the logistic case: adjacent nodes at
        # spacing 0.01 move min_s by well under 1e-3 of the objective scale
        vals = np.arange(0.0, 0.3001, 0.01)
        margins = []
        for b1 in vals:
            verdict = check_boundary_optimal(_unit_problem([-1.0, b1, 0.25]), s_grid_steps=81)
            margins.append(verdict.min_s / verdict.f_p4)
        diffs = np.abs(np.diff(margins))
        assert diffs.max() < 1e-3

    def test_disconnected_boundary_for_half_intercept(self):
        # at intercept -0.5 the admissible region splits into several
        # connected pieces (five at this resolution)
        grid = region_sweep(-0.5, (-2.0, 2.0), (-2.0, 2.0), 21, LOGIT, s_grid_steps=81)
        assert ndimage.label(grid.verdict)[1] >= 2


class TestBoundarySegments:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (2, 2), (9, 7), (25, 25)])
    def test_matches_cell_loop(self, rng, shape):
        # seeded verdict fields on uneven axes; the larger shapes hold the saddle codes 5 and 10
        codes = set()
        for share in (0.3, 0.5, 0.7):
            v = rng.random(shape) < share
            x, y = (np.sort(rng.uniform(-3.0, 3.0, k)) for k in shape)
            grid = RegionGrid(-1.0, x, y, np.zeros(shape), v, np.zeros(shape, dtype=bool))
            got, want = region_boundary_segments(grid), boundary_segments_loop(grid)
            assert got == want
            # the same bits, signed zeros included, so the --boundary file is byte-identical
            assert np.array(got).tobytes() == np.array(want, dtype=float).tobytes()
            code = v[:-1, :-1] | v[1:, :-1] << 1 | v[1:, 1:] << 2 | v[:-1, 1:] << 3
            codes.update(code.ravel().tolist())
        assert min(shape) < 3 or {5, 10} <= codes
