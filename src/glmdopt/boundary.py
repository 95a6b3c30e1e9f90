"""Boundary-optimality analysis for two continuous factors.

Any rectangle of factor levels maps affinely onto the unit square with
adjusted coefficients that leave every linear predictor unchanged, so the
analysis runs on ``[-1, 1]^2``. The four corners alone support a D-optimal
design exactly when adding any fifth candidate point (a, b) cannot help,
which reduces to

    s(a, b) = (3/4) f(p4) - nu(b0 + a*b1 + b*b2) * h(a, b) >= 0

for all (a, b) in the square, where ``p4`` is the optimal corner allocation,
``f(p4)`` its objective, and ``h`` a quadratic form in (a, b) built from the
corner allocation and weights.

``min s`` lies on the square's four edges. On each line
``b0 + a*b1 + b*b2 = const`` the weight ``nu`` is constant and positive.
``h`` is convex: its Hessian is ``2 [[a_sq, ab], [ab, b_sq]]`` with
``a_sq >= 0`` and ``a_sq * b_sq - ab^2 = (q1 + q2 + q3 + q4) f(p4) / 16 >= 0``
(a sympy expansion confirms the factorisation). So along the line's segment
in the square ``s`` is concave, and its minimum sits at an endpoint, which
lies on an edge. When ``b1 = b2 = 0`` the same argument applies to the whole
square. The search therefore scans the edges and refines the best points by
a zoom, which needs only values of ``s``.

Each edge is a 1-D problem in its parameter t in [-1, 1]. One coordinate is
fixed at +-1 and the other is t, so the predictor is linear,
``eta = E0 + t E1``, and ``h`` is quadratic, ``h = C0 + t (C1 + t C2)``:
the fixed coordinate folds into ``E0``, ``C0`` and ``C1``. The search is one
array kernel over many nodes (coefficient vectors). Each (node, edge) pair
gets these five coefficients once; a node's four edges, or its twelve zoom
centres (which gather their edge's coefficients), are rows of a 2-D
parameter array, and every scan and zoom point costs
``s = (3/4) f(p4) - nu(E0 + t E1) (C0 + t (C1 + t C2))``. Every scan and
zoom level keeps each row's least margin as a candidate, and ``min_s`` is
the least candidate. Each node's arithmetic is the same whichever nodes
share the call, so :func:`check_boundary_optimal` (one node) and
:func:`region_sweep` (a map, in fixed chunks of nodes) agree bit for bit.

Margins equal in exact arithmetic (the support corners of a boundary-optimal
node, mirror-image dips) are ordered by rounding, so a margin within 16 ulps
of ``(3/4) f(p4) + nu h = 1.5 f(p4) - s``, times ``1 + |beta|_1`` (rounding
in ``eta`` moves ``nu`` by up to that), of the least is tied with it: the
scan zooms from each edge's first tied t, and ``argmin`` is the
lexicographically least (a, b) among the candidates tied with ``min_s``.

``s`` and ``f(p4)`` scale as the cube of a common weight factor, so each
node is searched in a power-of-two frame where tiny weights cannot underflow
them: ``q = p4 * w`` times ``2^-e`` (``e <= 0`` the exponent of the largest
``q``) and ``h``'s groups times one more ``2^-e`` scale both by ``2^-3e``
exactly. The verdict is taken in the frame; ``min_s`` and ``f(p4)`` are
scaled back, and may underflow to zero. A margin beyond the float range, or
an ``f(p4)`` not a positive normal float in the frame, is a ``SolverError``.

``p4`` always comes from the analytic solver of the four corners: the
verdict threshold is tiny relative to the objective, and a merely
near-optimal allocation shifts the corner values of ``s`` off zero by
enough to corrupt verdicts. The corner step that feeds the search is
batched too: one weight call gives many nodes' corner weights, and the
saturated row stack their allocations. :func:`check_boundary_optimal` is
its one-node call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize  # unused here; perfbench/tracer.py patches this binding

from .design import EPS, Allocation, _as_prob_vector
from .errors import DomainError, SolverError, as_float, as_floats, as_int
from .saturated import SaturatedProblem, _solve_rows
from .weights import WeightFunction

#: corner order of the unit square: matches the four-point solver convention
CORNERS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])

#: verdict tolerance as a fraction of the corner objective
VERDICT_REL_TOL = 1e-10

# zoom refinement of min s along an edge: stencil offsets, radius shrink per level,
# and levels (the last radius is 4^-10 of the grid spacing, ~1e-8 at grid 201)
_ZOOM_OFFSETS = np.linspace(-1.0, 1.0, 9)
_ZOOM_SHRINK = 4.0
_ZOOM_LEVELS = 11

#: rows a0, da, b0, db: edge k of the unit square is (a0 + t da, b0 + t db),
#: t in [-1, 1], ordered a = -1, b = -1, b = 1, a = 1; along each t runs the way (a, b) grows
_EDGES = np.array([[-1, 0, 0, 1], [0, 1, 1, 0], [0, -1, 1, 0], [1, 0, 0, 1]], dtype=float)
#: ulps of (3/4) f(p4) + nu h, times 1 + |beta|_1, within which margins are tied
_TIE_ULPS = 16.0
#: value of each edge's fixed coordinate, a0 + b0 (the other one is 0)
_FIXED = _EDGES[0] + _EDGES[2]
#: zoom centres: the best node of each edge, then both endpoints of each edge
_CENTRE_EDGES = np.concatenate([np.arange(4), np.repeat(np.arange(4), 2)])
_ENDPOINTS = np.tile([-1.0, 1.0], 4)
#: a0, da, b0, db of each search candidate's edge, in visiting order: scan, then zoom levels
_CANDIDATES = _EDGES[:, np.concatenate([np.arange(4), np.tile(_CENTRE_EDGES, _ZOOM_LEVELS)])]
#: nodes per edge-search call in region_sweep: 64 nodes x 4 edges x 201 points keeps
#: each scan temporary near 0.5 MB
_CHUNK = 64


def _as_beta3(beta) -> np.ndarray:
    message = "beta must be three finite numbers (intercept and two slopes)"
    arr = as_floats(beta, message).reshape(-1)
    if arr.shape != (3,):
        raise DomainError(message)
    return arr


@dataclass(frozen=True)
class ContinuousProblem:
    """Two continuous factors on a rectangle with known coefficients."""

    beta: np.ndarray  # (b0, b1, b2)
    bounds: tuple  # (a1, b1, a2, b2) with a_k < b_k
    weight_fn: WeightFunction

    def __post_init__(self):
        beta = _as_beta3(self.beta).copy()
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)
        message = "bounds must be four finite numbers (lo1, hi1, lo2, hi2)"
        b = tuple(as_floats(self.bounds, message).reshape(-1).tolist())
        if len(b) != 4:
            raise DomainError(message)
        if not (b[0] < b[1] and b[2] < b[3]):
            raise DomainError("each factor needs lo < hi bounds")
        object.__setattr__(self, "bounds", b)


@dataclass(frozen=True)
class RescaleTransform:
    """Affine map between a factor rectangle and the unit square."""

    mid: np.ndarray  # rectangle midpoints
    half: np.ndarray  # rectangle halfwidths
    det_factor: float  # determinant of the model-matrix change of basis

    def to_unit(self, points) -> np.ndarray:
        return (np.asarray(points, dtype=float) - self.mid) / self.half

    def from_unit(self, points) -> np.ndarray:
        return self.mid + np.asarray(points, dtype=float) * self.half


@dataclass(frozen=True)
class BoundaryVerdict:
    """Outcome of the four-corner support check on the unit square."""

    boundary_optimal: bool
    min_s: float
    argmin: tuple  # (a, b) attaining min_s
    p4: Allocation  # optimal corner allocation, CORNERS order
    f_p4: float  # corner objective det(X' W X) at p4


@dataclass(frozen=True)
class RegionGrid:
    """Verdict and margin surfaces over a (beta1, beta2) grid."""

    beta0: float
    beta1: np.ndarray
    beta2: np.ndarray
    min_s: np.ndarray  # shape (len(beta1), len(beta2))
    verdict: np.ndarray  # bool, same shape
    failed: np.ndarray  # bool, nodes whose check raised


def rescale_problem(cp: ContinuousProblem) -> tuple[ContinuousProblem, RescaleTransform]:
    """Equivalent problem on the unit square, with the point map back.

    The adjusted coefficients absorb the shift and scaling so that the
    linear predictor at mapped points is unchanged; objectives transform by
    the squared determinant of the change of basis.
    """
    a1, b1, a2, b2 = cp.bounds
    mid = np.array([(a1 + b1) / 2.0, (a2 + b2) / 2.0])
    half = np.array([(b1 - a1) / 2.0, (b2 - a2) / 2.0])
    b0, be1, be2 = cp.beta
    beta_star = np.array([b0 + be1 * mid[0] + be2 * mid[1], be1 * half[0], be2 * half[1]])
    unit = ContinuousProblem(beta_star, (-1.0, 1.0, -1.0, 1.0), cp.weight_fn)
    return unit, RescaleTransform(mid, half, 1.0 / (half[0] * half[1]))


def corner_weights(beta, weight_fn: WeightFunction) -> np.ndarray:
    """Weights at the four unit-square corners, in CORNERS order."""
    beta = _as_beta3(beta)
    return np.asarray(weight_fn(beta[0] + CORNERS @ beta[1:]), dtype=float)


def h_ab(a, b, p4, w):
    """Quadratic form in (a, b) measuring the leverage of a fifth point.

    ``p4`` and ``w`` are the corner allocation and weights; a and b may be
    scalars or broadcastable arrays. Grouped as constant, b^2, 2b, a^2, 2a,
    and 2ab terms with products ``q_i q_j = (p_i w_i)(p_j w_j)``.
    """
    message = "h_ab arguments must be finite"
    warr = as_floats(w, message)
    if warr.shape != (4,):
        raise DomainError(f"h_ab needs four corner weights, got shape {warr.shape}")
    q = _as_prob_vector(p4, 4) * warr
    out = _h(as_floats(a, message), as_floats(b, message), _h_coefficients(q))
    return float(out) if out.ndim == 0 else out


def _h_coefficients(q):
    """The constant, b^2, 2b, a^2, 2a and 2ab groups of ``h`` from ``q = p4 * w``.

    ``q`` holds the four corners along its first axis; the groups keep its other axes.
    """
    q1, q2, q3, q4 = q
    const = q1 * q2 + q1 * q3 + q2 * q4 + q3 * q4
    b_sq = q1 * q3 + q2 * q3 + q1 * q4 + q2 * q4
    b_lin = -q1 * q3 + q2 * q4
    a_sq = q1 * q2 + q2 * q3 + q1 * q4 + q3 * q4
    a_lin = -q1 * q2 + q3 * q4
    ab = q2 * q3 - q1 * q4
    return const, b_sq, b_lin, a_sq, a_lin, ab


def _h(a, b, coefficients):
    """``h`` at (a, b) from the groups of :func:`_h_coefficients`."""
    const, b_sq, b_lin, a_sq, a_lin, ab = coefficients
    return const + b * b * b_sq + 2.0 * b * b_lin + a * a * a_sq + 2.0 * a * a_lin + 2.0 * a * b * ab


def _corner_det(q):
    """det(X' W X) of the corner design from ``q = p4 * w``, corners along the first axis."""
    q1, q2, q3, q4 = q
    return 16.0 * (q1 * q2 * q3 + q1 * q2 * q4 + q1 * q3 * q4 + q2 * q3 * q4)


def _corner_steps(beta, weight_fn) -> list:
    """Corner weights and optimal corner allocations of N unit-square nodes at once.

    ``beta`` (N, 3) holds the nodes' coefficients. Per node the result is
    ``(w, p4)``, or the ``DomainError`` or ``SolverError`` that node raises:
    a corner weight that underflows to zero, or overflows, or whose
    reciprocal overflows, leaves no finite corner design to compare against,
    and a predictor past the float range fails as the weight function's own
    gate fails it ("eta must be finite"). The weights come from one call on
    ``beta0 + B @ CORNERS.T``, and the allocations from the saturated row
    stack. The ``CORNERS`` entries are +-1, so each predictor is exactly that
    of :func:`corner_weights`, and a node's result does not depend on the
    nodes that share the call.
    """
    with np.errstate(over="ignore", divide="ignore"):
        eta = beta[:, :1] + beta[:, 1:] @ CORNERS.T
        finite = np.isfinite(eta).all(axis=1)
        w = np.full(eta.shape, np.nan)
        w[finite] = weight_fn(eta[finite])
        v = 1.0 / w
    good = ((w > 0.0) & (w < np.inf) & (v < np.inf)).all(axis=1)
    message = "corner weights must be positive and finite, with finite reciprocals"
    out = [
        None if ok else DomainError(f"{message}, got {row.tolist()}" if eta_ok else "eta must be finite")
        for ok, eta_ok, row in zip(good, finite, w)
    ]
    live = np.flatnonzero(good)
    sps = SaturatedProblem._rows(v[live], np.zeros(live.size))
    for i, report in zip(live.tolist(), _solve_rows(sps)):
        out[i] = report if isinstance(report, Exception) else (w[i], report.allocation)
    return out


def _by_edge(on_a, on_b):
    """(N, 4) columns in ``_EDGES`` order: ``on_a`` on the edges a = -1 and a = 1,
    where b is the edge parameter, and ``on_b`` on the edges b = -1 and b = 1."""
    return np.stack([on_a, on_b, on_b, on_a], axis=1)


def _edge_coefficients(beta, groups):
    """Per node and edge, ``eta = E0 + t E1`` and ``h = C0 + t (C1 + t C2)``.

    ``beta`` (N, 3) holds unit-square coefficients and ``groups`` the six
    (N,) groups of :func:`_h_coefficients`. On the edge a = s the parameter
    is b, so ``eta = (b0 + s b1) + t b2`` and ``h = (const + a_sq + 2 s
    a_lin) + t (2 b_lin + 2 s ab) + t^2 b_sq``; the edges b = s swap the
    roles of a and b. Returns the (5, N, 4) stack ``E0, E1, C0, C1, C2``.
    """
    const, b_sq, b_lin, a_sq, a_lin, ab = groups
    b0, b1, b2 = beta.T
    return np.stack(
        [
            b0[:, None] + _FIXED * _by_edge(b1, b2),
            _by_edge(b2, b1),
            const[:, None] + _by_edge(a_sq, b_sq) + 2.0 * _FIXED * _by_edge(a_lin, b_lin),
            2.0 * (_by_edge(b_lin, a_lin) + _FIXED * ab[:, None]),
            _by_edge(b_sq, a_sq),
        ]
    )


def _edge_search(beta, q, weight_fn, s_grid_steps):
    """Least margin over the unit square's edges for N nodes at once (module docstring).

    ``beta`` (N, 3) holds unit-square coefficients and ``q`` (N, 4) the
    products ``p4 * w``. Each (node, edge) pair gets its coefficients once
    (:func:`_edge_coefficients`); every scan and zoom point then costs
    ``S = (3/4) f(p4) - nu(E0 + t E1) (C0 + t (C1 + t C2))`` in the edge
    parameter t. Returns the columns ``f_p4``, ``min_s``, ``verdict`` and the
    edge point ``a``, ``b`` of the tie rule (module docstring); a node that
    fails (module docstring) gets a non-finite ``min_s``, without a warning.
    """
    n = len(q)
    with np.errstate(over="ignore", invalid="ignore"):
        # each node's power-of-two frame (module docstring)
        e = np.minimum(np.frexp(q.max(axis=1))[1], 0)
        q = np.ldexp(q, -e[:, None]).T
        f_p4 = _corner_det(q)
        f34 = (0.75 * f_p4)[:, None, None]
        band = _TIE_ULPS * EPS * (1.0 + np.abs(beta).sum(axis=1))
        tie = f_p4[:, None], band[:, None]
        edges = _edge_coefficients(beta, np.ldexp(_h_coefficients(q), -e))
        # the scan's rows are the four edges, each zoom level's the twelve centres
        rows, zoom_rows = edges[..., None], edges[:, :, _CENTRE_EDGES, None]
        t = np.linspace(-1.0, 1.0, s_grid_steps)
        radius = 2.0 / (s_grid_steps - 1)
        ts, ss = [], []
        for level in range(_ZOOM_LEVELS + 1):
            e0, e1, c0, c1, c2 = rows
            S = f34 - weight_fn(e0 + t * e1) * (c0 + t * (c1 + t * c2))
            # the scan zooms from each edge's first tied point, a zoom level from the least
            k = S.argmin(axis=-1) if level else _tied(S, S.min(axis=-1), *tie).argmax(axis=-1)
            S, k = S.reshape(-1, S.shape[-1]), k.reshape(-1)
            at = np.arange(len(k))
            # the scan's t is one axis shared by every row, the zoom's one stencil per row
            ts.append((t.reshape(S.shape)[at, k] if level else t[k]).reshape(n, -1))
            ss.append(S[at, k].reshape(n, -1))
            centres = ts[-1] if level else np.concatenate([ts[-1], np.tile(_ENDPOINTS, (n, 1))], axis=1)
            # clipped to the edge; minimum/maximum skip np.clip's per-call overhead
            t = np.minimum(np.maximum(centres[:, :, None] + radius * _ZOOM_OFFSETS, -1.0), 1.0)
            rows = zoom_rows
            radius /= _ZOOM_SHRINK
        ts, ss = np.concatenate(ts, axis=1), np.concatenate(ss, axis=1)
        min_s = ss.min(axis=1)
        verdict = min_s >= -(VERDICT_REL_TOL * f_p4)
        a, b = _least_point(ts, ss, min_s, f_p4, band)
        min_s = np.where((f_p4 >= np.finfo(float).tiny) & (f_p4 < np.inf), min_s, np.nan)
    return np.ldexp(f_p4, 3 * e), np.ldexp(min_s, 3 * e), verdict, a, b


def _tied(S, least, f_p4, band):
    """Where the margins ``S`` are tied with ``least`` (module docstring); nowhere if it is not finite."""
    return S <= (least + band * (1.5 * f_p4 - least))[..., None]


def _least_point(ts, ss, min_s, f_p4, band):
    """Per node, the lexicographically least edge point ``(a, b)`` among the candidates
    ``(ts, ss)`` tied with ``min_s``; a failing node, which ties none, gets any one."""
    a0, da, b0, db = _CANDIDATES
    a, b = a0 + ts * da, b0 + ts * db
    # an untied candidate's a moves past the square, behind every tied one
    a_tied = np.where(_tied(ss, min_s, f_p4, band), a, 2.0)
    c = np.where(a_tied == a_tied.min(axis=1)[:, None], b, np.inf).argmin(axis=1)
    at = np.arange(len(c))
    return a[at, c], b[at, c]


def check_boundary_optimal(cp: ContinuousProblem, s_grid_steps: int = 201) -> BoundaryVerdict:
    """Decide whether the four corners alone support a D-optimal design.

    Requires a problem already on the unit square (use
    :func:`rescale_problem` first). ``min s`` lies on the square's edges
    (module docstring), so each edge, a 1-D problem in its parameter t with
    ``eta`` linear and ``h`` quadratic in t, is scanned at ``s_grid_steps``
    evenly spaced values of t and refined by a zoom from the best node and both
    endpoints of every edge: per level a 9-point stencil along the edge,
    clipped to it, moves each centre to its minimum, and the radius (first
    the grid spacing) shrinks fourfold. The endpoints are centres because
    the corner margins are exactly zero for an interior-optimal ``p4``, so
    a dip that the scan misses starts beside them. ``min_s`` is the least
    margin among the scan and zoom minima, ``argmin`` by the tie rule of the
    module docstring. This is the one-node call of the search
    :func:`region_sweep` runs over many nodes.

    A corner weight that is zero or not finite, or whose reciprocal
    overflows, raises ``DomainError``; a margin beyond the float range, or a
    corner objective outside the normal float range even in the node's
    frame (module docstring), raises ``SolverError``.
    """
    if tuple(cp.bounds) != (-1.0, 1.0, -1.0, 1.0):
        raise DomainError("problem must be rescaled to the unit square first")
    s_grid_steps = as_int(s_grid_steps, "s_grid_steps must be an integer >= 2", 2)
    (step,) = _corner_steps(cp.beta[None], cp.weight_fn)
    if isinstance(step, Exception):
        raise step
    w, p4 = step
    f_p4, min_s, verdict, a, b = _edge_search(
        cp.beta[None], (p4.p * w)[None], cp.weight_fn, s_grid_steps
    )
    if not np.isfinite(min_s[0]):
        raise SolverError("corner objective or margin beyond the float range")
    argmin = (float(a[0]), float(b[0]))
    return BoundaryVerdict(bool(verdict[0]), float(min_s[0]), argmin, p4, float(f_p4[0]))


def _as_range(pair, message):
    """Two finite floats whose difference is finite too, else ``DomainError(message)``."""
    arr = as_floats(pair, message)
    if arr.shape != (2,) or not math.isfinite(float(arr[1]) - float(arr[0])):
        raise DomainError(message)
    return float(arr[0]), float(arr[1])


def grid_axis(lo: float, hi: float, steps: int) -> np.ndarray:
    """``steps`` evenly spaced values on [lo, hi]; the midpoint when steps == 1."""
    steps = as_int(steps, "steps must be an integer >= 1", 1)
    lo, hi = _as_range((lo, hi), "grid endpoints must be two finite numbers a finite distance apart")
    return np.linspace(lo, hi, steps) if steps > 1 else np.array([0.5 * lo + 0.5 * hi])


def region_sweep(
    beta0: float,
    beta1_range: tuple,
    beta2_range: tuple,
    steps: int,
    weight_fn: WeightFunction,
    s_grid_steps: int = 201,
) -> RegionGrid:
    """Corner-support verdicts over a grid of slope pairs at fixed intercept.

    The corner weights of all nodes come from one weight call on
    ``beta0 + B @ CORNERS.T`` (exact, the corners being +-1), and the
    optimal corner allocations from one pass of the saturated row stack
    (the corner step of :func:`check_boundary_optimal`, which is its
    one-node call). The edge search then runs on the surviving nodes a fixed
    chunk at a time. Each node's arithmetic is the same whichever nodes
    share a call, so every node's ``min_s`` and verdict equal that
    function's bit for bit. A node where it would raise ``DomainError`` or
    ``SolverError`` is recorded in the ``failed`` mask rather than aborting
    the sweep.
    """
    s_grid_steps = as_int(s_grid_steps, "s_grid_steps must be an integer >= 2", 2)
    message = "beta0 and the slope ranges must be finite numbers"
    beta0 = as_float(beta0, message)
    b1v = grid_axis(*_as_range(beta1_range, message), steps)
    b2v = grid_axis(*_as_range(beta2_range, message), steps)
    shape = (b1v.size, b2v.size)
    # one row per node, row-major: (beta0, b1v[i], b2v[j]) is row i * len(b2v) + j
    size = b1v.size * b2v.size
    nodes = np.column_stack([np.full(size, beta0), np.repeat(b1v, b2v.size), np.tile(b2v, b1v.size)])
    corner = _corner_steps(nodes, weight_fn)
    done = [k for k, step in enumerate(corner) if not isinstance(step, Exception)]
    cornered = np.zeros(size, dtype=bool)
    cornered[done] = True
    cornered = cornered.reshape(shape)
    betas = nodes[done]
    qs = np.reshape([corner[k][1].p * corner[k][0] for k in done], (-1, 4))
    s, passed = np.empty(len(qs)), np.empty(len(qs), dtype=bool)
    for start in range(0, len(qs), _CHUNK):
        at = slice(start, start + _CHUNK)
        _, s[at], passed[at], _, _ = _edge_search(betas[at], qs[at], weight_fn, s_grid_steps)
    finite = np.isfinite(s)
    min_s = np.full(shape, np.nan)
    verdict = np.zeros(shape, dtype=bool)
    failed = ~cornered
    min_s[cornered] = np.where(finite, s, np.nan)
    verdict[cornered] = passed & finite
    failed[cornered] = ~finite
    return RegionGrid(beta0, b1v, b2v, min_s, verdict, failed)


# marching-squares segments per cell code (corners: 1=SW, 2=SE, 4=NE, 8=NW), four
# codes a row: each code's first and second segment as a pair of cell edges (S=0, E=1,
# N=2, W=3), -1 for none; only the saddles 5 and 10 have two
_MS_SEGMENTS = np.array(
    [
        [[-1, -1, -1, -1], [3, 0, -1, -1], [0, 1, -1, -1], [3, 1, -1, -1]],
        [[1, 2, -1, -1], [3, 2, 0, 1], [0, 2, -1, -1], [3, 2, -1, -1]],
        [[2, 3, -1, -1], [0, 2, -1, -1], [0, 3, 1, 2], [1, 2, -1, -1]],
        [[1, 3, -1, -1], [0, 1, -1, -1], [0, 3, -1, -1], [-1, -1, -1, -1]],
    ]
).reshape(16, 2, 2)


def region_boundary_segments(grid: RegionGrid):
    """Region-edge line segments via marching squares on the verdict field.

    Crossings are placed at edge midpoints (the margin surface changes scale
    across nodes, so interpolating on it would be unreliable). Returns a list
    of ((x1, y1), (x2, y2)) segments in (beta1, beta2) coordinates, cell by
    cell in row-major order, a saddle cell's two segments in table order.
    """
    x = np.asarray(grid.beta1, dtype=float)
    y = np.asarray(grid.beta2, dtype=float)
    v = np.asarray(grid.verdict, dtype=bool).astype(np.intp)
    code = v[:-1, :-1] | v[1:, :-1] << 1 | v[1:, 1:] << 2 | v[:-1, 1:] << 3
    i, j, slot = np.nonzero(_MS_SEGMENTS[code][..., 0] >= 0)
    # each cell's S, E, N and W edge midpoints: x by the cell's row i, y by its column j
    xm, ym = 0.5 * (x[:-1] + x[1:]), 0.5 * (y[:-1] + y[1:])
    mid_x = np.stack([xm, x[1:], xm, x[:-1]], axis=1)
    mid_y = np.stack([y[:-1], ym, y[1:], ym], axis=1)
    e1, e2 = _MS_SEGMENTS[code[i, j], slot].T
    (x1, y1), (x2, y2) = [(mid_x[i, e].tolist(), mid_y[j, e].tolist()) for e in (e1, e2)]
    return list(zip(zip(x1, y1), zip(x2, y2)))
