"""Independent correctness checks for benchmark outputs.

Nothing here calls into ``glmdopt``: weights, determinants and the
Kiefer-Wolfowitz sensitivities are recomputed from the printed or returned
allocation with plain numpy, so a faster but wrong solver fails the gate.

Every check returns ``PASS``, ``FAIL`` or ``UNCHECKED``. An output is
unchecked when its information matrix is too ill-conditioned in double
precision for the sensitivity to be resolved to the bound being tested.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

PASS, FAIL, UNCHECKED = "pass", "fail", "unchecked"

EPS = float(np.finfo(float).eps)

#: allocation entries may sit this far below zero and the sum this far off one
SIMPLEX_TOL = 1e-11
#: printed/returned objective vs det(X' W X) recomputed here, relative
OBJECTIVE_REL = 1e-8
#: Kiefer-Wolfowitz gap bound for the closed-form solvers (four-point, saturated)
ANALYTIC_GAP = 1e-8
#: lift-one's stopping rule: relative objective gain of one full sweep (CLI default)
LIFTONE_TOL = 1e-12
#: a result is resolvable when its estimated rounding error is this share of the bound
RESOLVE_SHARE = 0.1


def weights(link: str, eta):
    """Information weight for the links the workloads use."""
    eta = np.asarray(eta, dtype=float)
    if link == "logit":
        t = np.exp(-np.abs(eta))
        return t / (1.0 + t) ** 2
    if link == "probit":
        log_phi = -0.5 * eta * eta - 0.5 * math.log(2.0 * math.pi)
        return np.exp(2.0 * log_phi - special.log_ndtr(eta) - special.log_ndtr(-eta))
    raise ValueError(f"no reference weight for link {link!r}")


def sensitivity(X, w, p):
    """Kiefer-Wolfowitz sensitivities ``d_i = w_i x_i' M^-1 x_i`` and an error scale.

    ``M = X' diag(p w) X``. Rows are scaled by ``sqrt(p w)`` and columns
    equilibrated before a QR factorization; support points then read
    ``d_i = h_i / p_i`` from the leverages and the others solve against
    ``R``. Returns ``(d, err)`` where ``err`` estimates the relative rounding
    error of ``d``, or ``(None, inf)`` when ``M`` is singular.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    p = np.asarray(p, dtype=float)
    n, k = X.shape
    q = np.clip(p, 0.0, None) * w
    qmax = q.max()
    if not qmax > 0.0:
        return None, math.inf
    G = np.sqrt(q / qmax)[:, None] * X
    col = np.linalg.norm(G, axis=0)
    if np.any(col == 0.0):
        return None, math.inf
    Q, R = np.linalg.qr(G / col)
    sv = np.linalg.svd(R, compute_uv=False)
    if not sv[-1] > 0.0:
        return None, math.inf
    cond = float(sv[0] / sv[-1])
    d = np.empty(n)
    on = q > 0.0
    d[on] = np.sum(Q[on] ** 2, axis=1) / p[on]
    off = ~on
    if np.any(off):
        Z = np.linalg.solve(R.T, (X[off] / col).T)
        d[off] = (w[off] / qmax) * np.sum(Z * Z, axis=0)
    return d, 4.0 * k * cond * EPS


def fedorov_gain(delta: float, k: int) -> float:
    """Largest log-det gain from moving mass toward a point of sensitivity ``delta``.

    Along ``(1 - a) M + a w x x'`` the log-determinant changes by
    ``(k-1) log(1-a) + log(1 + a(delta-1))``; its maximum sits at
    ``a = (delta - k) / (k (delta - 1))``. Lift-one's exact coordinate step
    searches a path that contains this one, so it gains at least this much.
    """
    if delta <= k:
        return 0.0
    a = (delta - k) / (k * (delta - 1.0))
    return (k - 1) * math.log1p(-a) + math.log1p(a * (delta - 1.0))


def liftone_gap_bound(n: int, k: int, tol: float = LIFTONE_TOL) -> float:
    """Largest KW gap a converged lift-one output may show.

    Lift-one stops when a full sweep of ``n`` exact coordinate steps gains
    less than ``tol`` relative. A design whose largest sensitivity is
    ``k (1 + gap)`` offers a single step worth ``fedorov_gain``; the bound is
    the gap at which that one step equals the whole sweep's allowance
    ``n * log1p(tol)``. Solved by bisection; independent of any output.
    """
    budget = n * math.log1p(tol)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fedorov_gain(k * (1.0 + mid), k) > budget:
            hi = mid
        else:
            lo = mid
    return hi


def check_simplex(p) -> bool:
    p = np.asarray(p, dtype=float)
    return bool(np.all(np.isfinite(p)) and p.min() >= -SIMPLEX_TOL and abs(p.sum() - 1.0) <= SIMPLEX_TOL)


def check_discrete(X, w, p, objective: float, gap_bound: float):
    """Simplex, objective and KW gap for one discrete allocation.

    Returns ``(status, reason, gap)``.
    """
    if not check_simplex(p):
        return FAIL, "allocation off the simplex", math.nan
    p = np.asarray(p, dtype=float)
    M = X.T @ (X * (p * w)[:, None])
    det = float(np.linalg.det(M))
    d, err = sensitivity(X, w, p)
    if d is None:
        return UNCHECKED, "singular information matrix", math.nan
    k = X.shape[1]
    gap = float(d.max() / k - 1.0)
    if err > RESOLVE_SHARE * gap_bound:
        return UNCHECKED, "ill-conditioned information matrix", gap
    if not math.isclose(float(objective), det, rel_tol=OBJECTIVE_REL, abs_tol=0.0):
        return FAIL, "objective differs from det(X'WX)", gap
    if not gap <= gap_bound:
        return FAIL, f"KW gap above {gap_bound:.2g}", gap
    return PASS, "", gap


#: unit-square corners in the order the four-point solver uses
CORNERS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def check_corner_verdict(beta, link, p4, f_p4, boundary_optimal, argmin, grid: int = 129):
    """Corner-support verdict checked through the equivalence theorem.

    The four corners support a D-optimal design on the square exactly when
    ``w(a,b) x' M^-1 x <= 3`` everywhere. A ``True`` verdict fails if this
    gate's own grid finds a point above 3; a ``False`` verdict fails unless
    the reported minimizer really lies above 3. The corner allocation is
    checked like any analytic four-point output.
    """
    beta = np.asarray(beta, dtype=float)
    Xc = np.column_stack([np.ones(4), CORNERS])
    wc = weights(link, Xc @ beta)
    status, reason, gap = check_discrete(Xc, wc, p4, f_p4, ANALYTIC_GAP)
    if status != PASS:
        return status, "corner allocation: " + (reason or status)
    q = np.asarray(p4, dtype=float) * wc
    M = Xc.T @ (Xc * q[:, None])
    scale = np.abs(M).max()
    try:
        Minv = np.linalg.inv(M / scale) / scale
    except np.linalg.LinAlgError:
        return UNCHECKED, "singular corner information matrix"

    def sens(a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        x = np.stack([np.ones_like(a), a, b], axis=-1)
        quad = np.einsum("...i,ij,...j->...", x, Minv, x)
        return weights(link, beta[0] + a * beta[1] + b * beta[2]) * quad

    if boundary_optimal:
        axis = np.linspace(-1.0, 1.0, grid)
        A, B = np.meshgrid(axis, axis, indexing="ij")
        top = float(sens(A, B).max()) / 3.0 - 1.0
        if top > 1e-7:
            return FAIL, "verdict True but the sensitivity exceeds 3"
        return PASS, ""
    top = float(sens(argmin[0], argmin[1])) / 3.0 - 1.0
    if top < -1e-9:
        return FAIL, "verdict False but the sensitivity at argmin is below 3"
    return PASS, ""
