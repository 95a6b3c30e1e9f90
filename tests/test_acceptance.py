"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Criterion 1's references (``mu``, allocation and objective of the
eight-point instance) are checked against an independent 50-digit mpmath
solution by ``TestGoldenEightPoint::test_mpmath_oracle`` in
``test_saturated.py``.
"""

import time

import numpy as np
import pytest

from conftest import random_interior_v4
from glmdopt import (
    DesignProblem,
    LiftOneConfig,
    SaturatedProblem,
    WeightFunction,
    build_model_matrix,
    liftone_maximize,
    objective_det,
    region_sweep,
    rescale_problem,
    solve_22,
    solve_fourpoint,
    solve_quartic,
    solve_saturated,
    vform_objective,
)
from glmdopt.boundary import CORNERS, corner_weights
from glmdopt.cli import main
from glmdopt.design import vform_log_sensitivities

X22 = build_model_matrix([[1, 1], [1, -1], [-1, 1], [-1, -1]])
LOGIT = WeightFunction.logit()


def _line(num, ok, name, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} [{status}] {name}{tail}")


# Criterion 1 references. The objective is the 50-digit mpmath value rounded to
# double; TestGoldenEightPoint::test_mpmath_oracle in test_saturated.py derives
# all three independently and checks them at these tolerances.
CRIT01_MU = 0.09260780864
CRIT01_P = (
    0.1394693827, 0.1359038626, 0.1321292663, 0.1281038353,
    0.1237697284, 0.1190427279, 0.1137915161, 0.1077896806,
)
CRIT01_F = 1.7530190502344328e-05


def test_criterion_01_eight_point_golden():
    start = time.perf_counter()
    rep = solve_saturated(SaturatedProblem(np.arange(1.0, 9.0)))
    elapsed = time.perf_counter() - start

    mu_err = abs(rep.diagnostics["mu"] - CRIT01_MU)
    p_err = float(np.max(np.abs(rep.allocation.p - np.array(CRIT01_P))))
    f_rel = abs(rep.objective - CRIT01_F) / CRIT01_F
    mu_ok = mu_err <= 1e-9
    p_ok = p_err <= 1e-8
    f_ok = f_rel <= 1e-9
    time_ok = elapsed < 0.010
    _line(1, mu_ok and p_ok and f_ok and time_ok, "eight-point golden instance",
          f"mu_ok={mu_ok} p_ok={p_ok} f_rel={f_rel:.3e} time={elapsed * 1e3:.2f}ms")
    assert mu_ok, f"mu {rep.diagnostics['mu']!r} is {mu_err:.3e} from {CRIT01_MU} (tolerance 1e-09)"
    assert p_ok, f"allocation {rep.allocation.p!r} is {p_err:.3e} from the reference (tolerance 1e-08)"
    assert f_ok, (
        f"objective {rep.objective!r} differs from the reference {CRIT01_F!r} by "
        f"{f_rel:.3e} relative (tolerance 1e-09); the reference is the mpmath "
        "oracle's value (test_saturated.py::TestGoldenEightPoint::test_mpmath_oracle)"
    )
    assert time_ok, f"solve took {elapsed * 1e3:.2f} ms (bound 10 ms)"


def test_criterion_02_branch_dichotomy():
    plus = solve_saturated(SaturatedProblem([5.0, 5.0, 6.0, 7.0]))
    minus = solve_saturated(SaturatedProblem([1.0, 1.0, 2.0, 3.0]))
    ok = plus.allocation.p[3] >= 1.0 / 6.0 and minus.allocation.p[3] < 1.0 / 6.0
    _line(2, ok, "radical-branch dichotomy",
          f"p4_plus={plus.allocation.p[3]:.6f} p4_minus={minus.allocation.p[3]:.6f}")
    assert plus.allocation.p[3] >= 1.0 / 6.0
    assert plus.case_label == "saturated-h1"
    assert minus.allocation.p[3] < 1.0 / 6.0
    assert minus.case_label == "saturated-h2"


def test_criterion_03_dominant_coefficient_boundary():
    rng = np.random.Generator(np.random.PCG64(3003))
    ok = True
    cases = [np.array([1.0, 2.0, 3.0, 7.0]), np.array([1.0, 2.0, 3.0, 6.0])]
    for _ in range(200):
        v = np.sort(rng.uniform(0.1, 5.0, 4))
        v[3] = v[:3].sum() * rng.uniform(1.0, 2.0)
        cases.append(v)
    target = np.array([1 / 3, 1 / 3, 1 / 3, 0.0])
    for v in cases:
        for rep in (solve_22(v), solve_saturated(SaturatedProblem(v))):
            ok = ok and bool(np.array_equal(rep.allocation.p, target))
            ok = ok and rep.objective == pytest.approx(v[3] / 27.0, rel=1e-12)
    _line(3, ok, "dominant-coefficient boundary allocations", f"{len(cases)} instances")
    assert ok


def test_criterion_04_analytic_vs_liftone():
    rng = np.random.Generator(np.random.PCG64(424242))
    start = time.perf_counter()
    worst_gap = 0.0
    worst_onesided = -np.inf
    for _ in range(1000):
        beta = rng.uniform(-3.0, 3.0, 3)
        problem = DesignProblem(X22, beta=beta, weight_fn=LOGIT)
        f_a = objective_det(problem, solve_fourpoint(problem).allocation)
        f_l = objective_det(problem, liftone_maximize(problem).allocation)
        scale = max(f_a, f_l)
        worst_gap = max(worst_gap, abs(f_a - f_l) / scale)
        worst_onesided = max(worst_onesided, f_l - f_a - 1e-12 * scale)
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-8 and worst_onesided <= 0.0 and elapsed < 60.0
    _line(4, ok, "analytic vs lift-one on 1000 seeded instances",
          f"worst_rel_gap={worst_gap:.3e} time={elapsed:.1f}s")
    assert worst_gap <= 1e-8
    assert worst_onesided <= 0.0
    assert elapsed < 60.0


def test_criterion_05_first_order_conditions():
    rng = np.random.Generator(np.random.PCG64(5005))
    worst_kkt = 0.0
    for _ in range(1000):
        v = random_interior_v4(rng)
        rep = solve_22(v)
        # the partials are f d_i and sum p_i df/dp_i = 3 f (Euler), so the largest
        # gap between partials relative to 3 f is (max d - min d) / 3
        d = vform_log_sensitivities(v, rep.allocation.p)[1]
        worst_kkt = max(worst_kkt, (d.max() - d.min()) / 3.0)
    worst_spread = 0.0
    for n in range(4, 11):
        rng_n = np.random.Generator(np.random.PCG64(5100 + n))
        for _ in range(1000):
            v = np.sort(rng_n.uniform(0.05, 10.0, n))
            if v[-1] >= v[:-1].sum() * (1 - 1e-9):
                continue
            p = solve_saturated(SaturatedProblem(v)).allocation.p
            ratios = p * (1.0 / (n - 1) - p) / v
            worst_spread = max(worst_spread, (ratios.max() - ratios.min()) / ratios.mean())
    ok = worst_kkt <= 1e-10 and worst_spread <= 1e-10
    _line(5, ok, "stationarity residuals across 8000 seeded instances",
          f"kkt={worst_kkt:.3e} ratio_spread={worst_spread:.3e}")
    assert worst_kkt <= 1e-10
    assert worst_spread <= 1e-10


def test_criterion_06_quartic_integrity():
    from glmdopt.solver4 import _quartic_coeffs

    rng = np.random.Generator(np.random.PCG64(6006))
    fallbacks = 0
    ok = True
    for _ in range(10000):
        v = random_interior_v4(rng)
        qr = solve_quartic(_quartic_coeffs(v))
        ok = ok and qr.root > 1.0 and qr.residual <= 1e-9 * qr.scale
        fallbacks += int(qr.used_fallback)
    rate = fallbacks / 10000.0
    ok = ok and rate < 0.001
    _line(6, ok, "quartic root integrity on 10000 instances",
          f"fallback_rate={rate:.4%}")
    assert ok


def test_criterion_07_two_factor_rational_case():
    from glmdopt.liftone import MultilinearObjective

    rng = np.random.Generator(np.random.PCG64(7007))
    ok = True
    worst_delta = 0.0
    worst_oracle = 0.0
    for _ in range(1000):
        u = np.sort(rng.uniform(0.1, 5.0, 3))
        while not (u[2] < u[0] + u[1] and np.min(np.diff(u)) > 1e-6 * u[2]):
            u = np.sort(rng.uniform(0.1, 5.0, 3))
        u = np.concatenate([[0.0], u])
        _, u2, u3, u4 = u
        delta = 2 * u2 * u3 + 2 * u2 * u4 + 2 * u3 * u4 - u2**2 - u3**2 - u4**2
        r2, r3, r4 = np.sqrt([u2, u3, u4])
        product = (r2 + r3 + r4) * (r2 + r3 - r4) * (r2 + r4 - r3) * (r3 + r4 - r2)
        worst_delta = max(worst_delta, abs(delta - product) / delta)
        rep = solve_22(u)
        ok = ok and rep.case_label == "2x2-case-2d" and rep.allocation.p[0] == 1.0 / 3.0
        obj = MultilinearObjective(lambda p, u=u: vform_objective(u, p), 4, 3)
        lift = liftone_maximize(obj, LiftOneConfig(tol=1e-13, max_sweeps=2000))
        worst_oracle = max(worst_oracle, abs(rep.objective - lift.objective) / rep.objective)
    ok = ok and worst_delta <= 1e-12 and worst_oracle <= 1e-9
    _line(7, ok, "rational one-zero case identities on 1000 instances",
          f"delta_rel={worst_delta:.2e} oracle_rel={worst_oracle:.2e}")
    assert ok


def test_criterion_08_fifth_point_margin_identity():
    rng = np.random.Generator(np.random.PCG64(8008))
    worst = 0.0
    for _ in range(1000):
        a, b = rng.uniform(-1, 1, 2)
        w = rng.uniform(0.05, 0.3, 5)
        p4 = rng.dirichlet(np.ones(4))
        X5 = np.vstack([np.column_stack([np.ones(4), CORNERS]), [1.0, a, b]])
        prob5 = DesignProblem(X5, w=w)
        f_p50 = objective_det(prob5, np.append(p4, 0.0))
        f5_half = objective_det(prob5, np.append(0.5 * p4, 0.5))
        lhs = f_p50 - 2.0 * f5_half
        from glmdopt import h_ab

        rhs = 0.75 * f_p50 - w[4] * h_ab(a, b, p4, w[:4])
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    ok = worst <= 1e-10
    _line(8, ok, "fifth-point margin identity on 1000 tuples", f"worst_rel={worst:.2e}")
    assert ok


def test_criterion_09_region_reproduction():
    start = time.perf_counter()
    grid = region_sweep(-1.0, (-2.0, 2.0), (-2.0, 2.0), 41, LOGIT, s_grid_steps=201)
    doubled = region_sweep(-1.0, (-2.0, 2.0), (-2.0, 2.0), 41, LOGIT, s_grid_steps=401)
    elapsed = time.perf_counter() - start
    nonempty = bool(grid.verdict.any())
    origin = bool(grid.verdict[20, 20])
    symmetric = (
        np.array_equal(grid.verdict, grid.verdict.T)
        and np.array_equal(grid.verdict, grid.verdict[::-1, :])
        and np.array_equal(grid.verdict, grid.verdict[:, ::-1])
    )
    stable = bool(np.array_equal(grid.verdict, doubled.verdict))
    no_failures = not grid.failed.any()
    ok = nonempty and origin and symmetric and stable and no_failures and elapsed < 300.0
    _line(9, ok, "41x41 region map properties",
          f"true_nodes={int(grid.verdict.sum())} stable={stable} time={elapsed:.0f}s")
    assert nonempty and origin and symmetric and stable and no_failures
    assert elapsed < 300.0


def test_criterion_10_benchmark_methodology(capsys):
    rc = main(["bench", "--model", "2x2", "--dist", "uniform:-3:3",
               "--n-instances", "10000", "--seed", "1010"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    head = lines[0].split(",")
    analytic = dict(zip(head, lines[1].split(",")))
    liftone = dict(zip(head, lines[2].split(",")))
    mean_eff = float(liftone["efficiency_mean"])
    p01_eff = float(liftone["efficiency_p01"])
    ok = (
        analytic["failures"] == "0"
        and liftone["failures"] == "0"
        and mean_eff >= 0.9999
        and p01_eff >= 0.9999
    )
    with capsys.disabled():
        _line(10, ok, "benchmark with 10000 uniform instances",
              f"mean_eff={mean_eff:.8f} p01_eff={p01_eff:.8f} "
              f"times(s) analytic={float(analytic['total_time_s']):.2f} "
              f"liftone={float(liftone['total_time_s']):.2f} (reported, not asserted)")
    assert ok


def test_criterion_11_rectangle_rescaling_invariance():
    rng = np.random.Generator(np.random.PCG64(1111))
    worst = 0.0
    count = 0
    while count < 100:
        lo1, hi1 = np.sort(rng.uniform(-4, 4, 2))
        lo2, hi2 = np.sort(rng.uniform(-4, 4, 2))
        if hi1 - lo1 < 0.05 or hi2 - lo2 < 0.05:
            continue
        count += 1
        beta = rng.normal(0.0, 1.2, 3)
        from glmdopt import ContinuousProblem

        cp = ContinuousProblem(beta, (lo1, hi1, lo2, hi2), LOGIT)
        unit, tr = rescale_problem(cp)
        w = corner_weights(unit.beta, LOGIT)
        p = solve_22(1.0 / w).allocation
        X_unit = np.column_stack([np.ones(4), CORNERS])
        f_unit = objective_det(DesignProblem(X_unit, w=w), p)
        back = tr.from_unit(CORNERS)
        X_orig = np.column_stack([np.ones(4), back])
        w_orig = LOGIT(beta[0] + back @ beta[1:])
        f_orig = objective_det(DesignProblem(X_orig, w=w_orig), p)
        worst = max(worst, abs(f_unit - tr.det_factor**2 * f_orig) / f_unit)
    ok = worst <= 1e-10
    _line(11, ok, "rectangle rescaling objective invariance", f"worst_rel={worst:.2e}")
    assert ok
