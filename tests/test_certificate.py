"""The v-form kernel and the equivalence-gap certificate of the analytic solvers."""

import functools
import itertools
import math

import numpy as np
import pytest

from glmdopt import (
    DesignProblem,
    DomainError,
    WeightFunction,
    build_model_matrix,
    compute_v,
    full_factorial_design,
    solve_fourpoint,
    solve_saturated,
)
from glmdopt.design import vform_log_sensitivities


def _loop_vform(v, p):
    """f and df/dp_i of sum_j v_j prod_{i != j} p_i by direct loops."""
    n = len(v)
    f = sum(v[j] * math.prod(p[i] for i in range(n) if i != j) for j in range(n))
    grad = [
        sum(
            v[j] * math.prod(p[k] for k in range(n) if k not in (i, j))
            for j in range(n)
            if j != i
        )
        for i in range(n)
    ]
    return f, np.array(grad)


class TestKernel:
    @pytest.mark.parametrize("n", [3, 4, 8, 32])
    @pytest.mark.parametrize("zeros", [0, 1, 2])
    def test_matches_loops(self, rng, n, zeros):
        for _ in range(5):
            v = rng.uniform(0.0, 3.0, n)
            p = rng.dirichlet(np.ones(n))
            p[rng.choice(n, zeros, replace=False)] = 0.0
            log_f, d = vform_log_sensitivities(v, p)
            f, grad = _loop_vform(v, p)
            with np.errstate(divide="ignore", invalid="ignore"):
                expect_log, expect_d = np.log(f), grad / f
            if zeros < 2:
                assert log_f == pytest.approx(expect_log, rel=1e-13)
                assert np.all(np.isfinite(d))
                # Euler: f has degree n - 1
                assert p @ d == pytest.approx(n - 1, rel=1e-13)
            else:
                assert log_f == -np.inf
            np.testing.assert_allclose(d, expect_d, rtol=1e-12)

    def test_zero_entry_is_exact(self):
        # p_1 = 0: d_1 = (v_2 p_3 + v_3 p_2) / (v_1 p_2 p_3) with no division by p_1
        log_f, d = vform_log_sensitivities([1.0, 2.0, 3.0], [0.0, 0.5, 0.5])
        assert log_f == math.log(0.25)
        assert d.tolist() == [10.0, 2.0, 2.0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            vform_log_sensitivities([1.0, 2.0, 3.0], [0.5, 0.5])


# -- seeded property test against a 50-digit Cauchy-Binet reference ----------

FOURPOINT_LAYOUTS = {
    "P22": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
    "SPAN": [[0.0, 0.0], [1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]],
    "GENERIC": [[-0.9, -0.6], [0.8, -0.7], [0.3, 0.9], [-0.5, 0.2]],
}


def _saturated_rows(k):
    """Rows of the 2^k model with every interaction of order < k, built here."""
    terms = [t for size in range(k) for t in itertools.combinations(range(k), size)]
    points = itertools.product([1, -1], repeat=k)
    return [[math.prod(pt[j] for j in t) for t in terms] for pt in points]


@functools.lru_cache(maxsize=None)
def _squared_minors(key):
    """det(X without row j)^2 for each j, at 50 digits."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50
    if key in FOURPOINT_LAYOUTS:
        rows = [[1.0, a, b] for a, b in FOURPOINT_LAYOUTS[key]]
    else:
        rows = _saturated_rows(int(key))
    out = []
    for j in range(len(rows)):
        out.append(mp.det(mp.matrix([r for i, r in enumerate(rows) if i != j])) ** 2)
    return mp, rows, out


def _reference_log_det(key, link, beta, p):
    """log det(X' diag(p w) X) with the weights of ``link`` at ``beta`` taken at 50 digits."""
    mp, rows, _ = _squared_minors(key)
    w = []
    for row in rows:
        eta = mp.fsum(mp.mpf(x) * mp.mpf(b) for x, b in zip(row, beta))
        if link == "logit":
            w.append(mp.exp(eta) / (1 + mp.exp(eta)) ** 2)
        else:
            tails = mp.erfc(eta / mp.sqrt(2)) * mp.erfc(-eta / mp.sqrt(2)) / 4
            w.append(mp.npdf(eta) ** 2 / tails)
    return _cauchy_binet_log_det(key, w, p)


def _cauchy_binet_log_det(key, w, p):
    """log det(X' diag(p w) X) by Cauchy-Binet over the n leave-one-out row subsets."""
    mp, rows, sq = _squared_minors(key)
    q = [mp.mpf(p_i) * mp.mpf(w_i) for p_i, w_i in zip(p, w)]
    total = mp.fsum(sq[j] * mp.fprod(q[:j] + q[j + 1 :]) for j in range(len(rows)))
    return float(mp.log(total))


@pytest.mark.parametrize("link", ["logit", "probit"])
def test_analytic_reports_are_certified(rng, link):
    """Four-point and saturated 2^3-2^5 solves reach gap <= 1e-9 at the right log det."""
    pytest.importorskip("mpmath")
    fn = WeightFunction.from_name(link)
    families = [
        (key, build_model_matrix(np.array(pts)), solve_fourpoint)
        for key, pts in FOURPOINT_LAYOUTS.items()
    ]
    families += [
        (str(k), full_factorial_design(k)[0], lambda prob: solve_saturated(compute_v(prob)))
        for k in (3, 4, 5)
    ]

    def check(key, problem, solve):
        rep = solve(problem)
        beta = problem.beta
        gap = rep.diagnostics["equivalence_gap"]
        assert gap <= 1e-9, (key, beta, rep.case_label, gap)
        ref = _reference_log_det(key, link, beta, rep.allocation.p)
        assert rep.diagnostics["log_objective"] == pytest.approx(ref, abs=1e-10), (key, beta)

    for key, X, solve in families:
        checked = 0
        for box in (1.0, 8.0):
            for beta in rng.uniform(-box, box, (16, X.shape[1])):
                try:
                    problem = DesignProblem(X, beta=beta, weight_fn=fn)
                except DomainError:
                    # beyond |eta| of about 38 the probit weight underflows to zero
                    assert link == "probit" and box == 8.0
                    continue
                check(key, problem, solve)
                checked += 1
        assert checked >= 16, (key, checked)

    if link == "logit":
        # weights near exp(-beta0), where unnormalized four-point coefficients
        # used to overflow the quartic
        for key, X, solve in families[: len(FOURPOINT_LAYOUTS)]:
            for beta in rng.uniform(-1.0, 1.0, (16, 3)):
                beta[0] = rng.uniform(150.0, 300.0)
                check(key, DesignProblem(X, beta=beta, weight_fn=fn), solve)


@pytest.mark.parametrize("key", ["P22", "3", "4"])
def test_zero_band_and_near_dominance_rows_match_50_digits(key):
    """Rows in the four-point zero band and 1e-16 to 1e-9 from dominance, solved on
    their own coefficients, reach gap <= 1e-12 at the 50-digit log det.

    The leave-one-out minors of P22 and of the 2^k factorials share one
    magnitude, so ``v_j`` is proportional to ``1 / w_j`` and weights ``1 / v``
    realise the coefficients ``v`` up to a common factor.
    """
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(2602)
    if key == "P22":
        X, solve = build_model_matrix(np.array(FOURPOINT_LAYOUTS[key])), solve_fourpoint
    else:
        X, solve = full_factorial_design(int(key))[0], lambda prob: solve_saturated(compute_v(prob))
    n = X.shape[0]
    for kind in ("zero_band", "dominance") * 12:
        v = np.exp(rng.uniform(-1.0, 1.0, n))
        if kind == "zero_band":
            k = rng.integers(1, 3)
            v[rng.choice(n, k, replace=False)] = v.max() * 10.0 ** rng.uniform(-16.0, -8.0, k)
        else:
            top = np.argmax(v)
            side = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -9.0)
            v[top] = (v.sum() - v[top]) * (1.0 + side)
        w = 1.0 / v
        rep = solve(DesignProblem(X, w=w))
        assert rep.diagnostics["equivalence_gap"] <= 1e-12, (key, v.tolist(), rep.case_label)
        ref = _cauchy_binet_log_det(key, w.tolist(), rep.allocation.p.tolist())
        assert rep.diagnostics["log_objective"] == pytest.approx(ref, abs=1e-13), (key, v.tolist())
