"""Reference evaluations that the package does not ship.

The subset expansion: the D-optimality objective ``det(X' W X)`` is an
order-``d`` homogeneous polynomial in the allocation (Cauchy-Binet): every
``d``-row subset contributes ``det(X[rows])^2 * prod(w[rows])`` times the product of the
corresponding ``p``'s. Summed term by term, it stays accurate where the
dense determinant loses all accuracy, e.g. for weights spanning many decades.

The paper's closed forms for the four-point reduced objective ``f(p) =
sum_j v_j prod_{i != j} p_i``, on ascending coefficients: the interior
case's back-substitution from the quartic root ``y1 = p1/p4``, the tied
pair's square-root form and the one-zero case's rational form. The package
solves every four-point case by the saturated root search instead; these
cross-check it, and are badly conditioned near the dominance boundary
``v4 = v1 + v2 + v3`` when the smallest coefficient is small.
"""

import itertools
import math

import numpy as np

from glmdopt import Allocation, DomainError, SaturatedProblem, SolverError, boundary, solve_saturated
from glmdopt.design import EPS
from glmdopt.errors import as_float, as_floats
from glmdopt.saturated import MuSolve

#: largest n for which objective_expansion enumerates the C(n, d) row subsets
EXPANSION_MAX_POINTS = 20


def objective_expansion(problem):
    """All d-row subsets with their objective coefficients.

    Returns ``[(rows, coeff), ...]`` where ``coeff = det(X[rows])^2 *
    prod(w[rows])``, so that ``sum(coeff * prod(p[rows]))`` over the list
    equals ``objective_det``. Guarded by ``EXPANSION_MAX_POINTS`` because
    the subset count grows as C(n, d).
    """
    n, d = problem.X.shape
    if n > EXPANSION_MAX_POINTS:
        raise DomainError(f"expansion too large: n={n} exceeds the guard {EXPANSION_MAX_POINTS}")
    terms = []
    for rows in itertools.combinations(range(n), d):
        minor = np.linalg.det(problem.X[list(rows), :])
        terms.append((rows, minor * minor * float(np.prod(problem.w[list(rows)]))))
    return terms


def expansion_value(terms, p) -> float:
    """Evaluate an expansion returned by :func:`objective_expansion` at p."""
    arr = p.p if isinstance(p, Allocation) else np.asarray(p, dtype=float)
    return sum(coeff * float(np.prod(arr[list(rows)])) for rows, coeff in terms)


def back_substitute(y1: float, v) -> tuple[float, float, Allocation]:
    """Recover (y2, y3) and the allocation from the quartic root y1.

    ``v`` must be an array of strictly ascending interior-case coefficients;
    the returned allocation is in that sorted order.
    """
    y1 = as_float(y1, "y1 must be finite")
    vc = as_floats(v, "coefficients must be finite")
    if vc.shape != (4,):
        raise DomainError("need exactly four coefficients")
    if y1 <= 1.0:
        raise DomainError(f"y1 must exceed 1, got {y1!r}")
    v1, v2, v3, v4 = (float(x) for x in vc)
    t = v1 + v4 * y1
    lead = t * t - (v3 - v2) * v4 * y1 * y1
    tail = 4.0 * v2 * (v4 - v3) * t * t * y1 * y1
    D2 = lead * lead - tail
    if D2 < 0.0:
        if D2 >= -1e-12 * (lead * lead + tail):
            D2 = 0.0
        else:
            raise SolverError(
                f"negative discriminant {D2!r} in back-substitution; upstream root is inconsistent"
            )
    y2 = (
        0.5
        + (v3 - v2) * y1 / (2.0 * t)
        - (v2 + v3 - v4) * y1 / (2.0 * v1)
        + np.sqrt(D2) / (2.0 * v1 * t)
    )
    y3 = 1.0 + (v4 - v3) * y1 * y2 / (v2 * y1 + v1 * y2)
    if not (y2 > 1.0 - 1e-9 and y3 > 1.0 - 1e-9):
        raise SolverError(f"back-substitution left the interior region: y2={y2!r}, y3={y3!r}")
    total = y1 + y2 + y3 + 1.0
    p = np.array([y1 / total, y2 / total, y3 / total, 1.0 / total])
    return float(y2), float(y3), Allocation(p)


def tie_pair_solution(v: np.ndarray, pair: str) -> np.ndarray:
    """Closed form for sorted v tied at positions ``pair`` (e.g. "23"); a < b are the rest."""
    i, j = int(pair[0]) - 1, int(pair[1]) - 1
    k, m = (idx for idx in range(4) if idx not in (i, j))
    t, a, b = v[i], v[k], v[m]
    delta = a + b - 4.0 * t
    den = -2.0 * delta + np.sqrt(delta * delta + 12.0 * a * b)
    p = np.empty(4)
    p[i] = p[j] = 2.0 * t / den
    p[k] = 0.5 + (b - a - 4.0 * t) / (2.0 * den)
    p[m] = 0.5 - (b - a + 4.0 * t) / (2.0 * den)
    return p


def one_zero_rational(u: np.ndarray) -> np.ndarray:
    """Case 2d: sorted ``u`` with ``u[0] == 0``, no dominant coefficient and no tie."""
    _, u2, u3, u4 = u
    den = 3.0 * (2.0 * u2 * u3 + 2.0 * u2 * u4 + 2.0 * u3 * u4 - u2 * u2 - u3 * u3 - u4 * u4)
    p2, p3 = 2.0 * u2 * (u3 + u4 - u2) / den, 2.0 * u3 * (u2 + u4 - u3) / den
    return np.array([1.0 / 3.0, p2, p3, 2.0 * u4 * (u2 + u3 - u4) / den])


def root_mu_brentq(v: np.ndarray):
    """``MuSolve`` of the radical-sum root on ascending coefficients ``v`` by
    Brent's method, or ``None`` where ``M(-1) >= 0``.

    The same dominance test, branch rule, ``M``, residual gate and evaluation
    count as ``saturated._root_mu``, which runs a safeguarded Newton instead;
    ``brentq`` searches the half bracket to ``xtol = 2^-60`` and ``rtol = 4 eps``.
    """
    from scipy.optimize import brentq

    n = v.shape[0]
    *vs, vn = v.tolist()
    acc = 0.0
    for x in vs:
        acc += x / vn / 2.0
    if 1.0 - 2.0 * acc >= 0.0 and not (vs[-1] == vn and vs[-2] > 0.0):
        return None
    ts = [(t, 1.0 - t) for t in [x / vn for x in vs]]
    calls = 1

    def m(z: float) -> float:
        nonlocal calls
        calls += 1
        z2 = z * z
        acc = 0.0
        for t, s in ts:
            acc += t / (1.0 + math.sqrt(s + z2 * t))
        return 1.0 - (1.0 - z) * acc

    m0 = m(0.0)
    z = 0.0
    if m0 != 0.0:
        lo, hi = (0.0, 1.0) if m0 < 0.0 else (-1.0, 0.0)
        try:
            z = brentq(m, lo, hi, xtol=2.0**-60, rtol=4.0 * EPS)
        except RuntimeError as exc:
            raise SolverError(f"mu root search failed to converge: {exc}") from None
    iterations = calls
    residual = abs((1.0 + z) * m(z))
    if residual > 1e-9 * max(1.0, n - 2.0):
        raise SolverError(f"mu root search failed to converge: residual {residual!r}")
    return MuSolve((1.0 - z) * (1.0 + z) / vn, "h1" if m0 <= 0.0 else "h2", iterations, residual)


def corner_steps_reciprocal(beta, weight_fn):
    """The corner step with the corner coefficients taken as ``v = 1/w``.

    The corner minors are +-4, so ``v_j = 16 prod_{i != j} w_i`` is ``1/w_j``
    times a factor common to the node's four points. ``boundary._corner_steps``
    forms ``v`` by the saturated reduction of every weight row instead; here
    each node's ``1/w`` passes the ``SaturatedProblem`` constructor's gates
    and scale, then ``solve_saturated``. Same weight gate and messages: per
    node ``(w, p4)``, or the ``DomainError`` or ``SolverError`` it raises.
    """
    with np.errstate(all="ignore"):
        eta = beta[:, :1] + beta[:, 1:] @ boundary.CORNERS.T
        finite = np.isfinite(eta).all(axis=1)
        w = np.full(eta.shape, np.nan)
        w[finite] = weight_fn(eta[finite])
        v = 1.0 / w
    good = ((w > 0.0) & (w < np.inf) & (v < np.inf)).all(axis=1)
    message = "corner weights must be positive and finite, with finite reciprocals"
    out = []
    for ok, eta_ok, w_row, v_row in zip(good, finite, w, v):
        if not ok:
            out.append(DomainError(f"{message}, got {w_row.tolist()}" if eta_ok else "eta must be finite"))
            continue
        try:
            out.append((w_row, solve_saturated(SaturatedProblem(v_row)).allocation))
        except (DomainError, SolverError) as exc:
            out.append(exc)
    return out


def edge_search_pointwise(beta, q, weight_fn, s_grid_steps):
    """The corner-support edge search with ``(a, b)`` and ``h`` rebuilt at every point.

    Same contract, frame, scan, zoom, visiting order and tie rule as
    ``boundary._edge_search``, which evaluates each edge as a 1-D kernel in
    its parameter t instead: here every scan and zoom point forms ``a``,
    ``b``, ``eta = b0 + a b1 + b b2`` and the six-group form of ``h``.
    """
    n = len(q)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.minimum(np.frexp(q.max(axis=1))[1], 0)
        q = np.ldexp(q, -e[:, None]).T
        f_p4 = boundary._corner_det(q)
        band = boundary._TIE_ULPS * np.finfo(float).eps * (1.0 + np.abs(beta).sum(axis=1))
        columns = (0.75 * f_p4, *beta.T, *np.ldexp(boundary._h_coefficients(q), -e))
        f34, b0, b1, b2, *coefficients = [c[:, None, None] for c in columns]
        edges = boundary._EDGES
        rows = edges[:, :, None]
        t = np.broadcast_to(np.linspace(-1.0, 1.0, s_grid_steps), (n, 4, s_grid_steps))
        radius = 2.0 / (s_grid_steps - 1)
        ts, ss = [], []
        for level in range(boundary._ZOOM_LEVELS + 1):
            a0, da, e0, db = rows
            a, b = a0 + t * da, e0 + t * db
            S = f34 - np.asarray(weight_fn(b0 + a * b1 + b * b2)) * boundary._h(a, b, coefficients)
            S, t = S.reshape(-1, S.shape[-1]), t.reshape(-1, S.shape[-1])
            k = S.argmin(axis=1) if level else boundary._tied(S, S.min(axis=1), np.repeat(f_p4, 4), np.repeat(band, 4)).argmax(axis=1)
            at = np.arange(len(k))
            ts.append(t[at, k].reshape(n, -1))
            ss.append(S[at, k].reshape(n, -1))
            centres = ts[-1] if level else np.concatenate([ts[-1], np.tile([-1.0, 1.0], (n, 4))], axis=1)
            t = np.clip(centres[:, :, None] + radius * boundary._ZOOM_OFFSETS, -1.0, 1.0)
            rows = edges[:, boundary._CENTRE_EDGES, None]
            radius /= boundary._ZOOM_SHRINK
        ts, ss = np.concatenate(ts, axis=1), np.concatenate(ss, axis=1)
        min_s = ss.min(axis=1)
        verdict = min_s >= -(boundary.VERDICT_REL_TOL * f_p4)
        a, b = boundary._least_point(ts, ss, min_s, f_p4, band)
        min_s = np.where((f_p4 >= np.finfo(float).tiny) & (f_p4 < np.inf), min_s, np.nan)
    return np.ldexp(f_p4, 3 * e), np.ldexp(min_s, 3 * e), verdict, a, b


# marching-squares edge pairs per cell code (corners: 1=SW, 2=SE, 4=NE, 8=NW;
# edges: S=0, E=1, N=2, W=3)
_MS_SEGMENTS = {
    1: [(3, 0)],
    2: [(0, 1)],
    3: [(3, 1)],
    4: [(1, 2)],
    5: [(3, 2), (0, 1)],
    6: [(0, 2)],
    7: [(3, 2)],
    8: [(2, 3)],
    9: [(0, 2)],
    10: [(0, 3), (1, 2)],
    11: [(1, 2)],
    12: [(1, 3)],
    13: [(0, 1)],
    14: [(0, 3)],
}


def boundary_segments_loop(grid):
    """``boundary.region_boundary_segments`` as a loop over the cells with a code table."""
    x, y = grid.beta1, grid.beta2
    v = grid.verdict
    segments = []
    for i in range(v.shape[0] - 1):
        for j in range(v.shape[1] - 1):
            code = (
                (1 if v[i, j] else 0)
                | (2 if v[i + 1, j] else 0)
                | (4 if v[i + 1, j + 1] else 0)
                | (8 if v[i, j + 1] else 0)
            )
            if code not in _MS_SEGMENTS:
                continue
            xm, ym = 0.5 * (x[i] + x[i + 1]), 0.5 * (y[j] + y[j + 1])
            edge_mid = {
                0: (xm, y[j]),
                1: (x[i + 1], ym),
                2: (xm, y[j + 1]),
                3: (x[i], ym),
            }
            for e1, e2 in _MS_SEGMENTS[code]:
                segments.append((edge_mid[e1], edge_mid[e2]))
    return segments
