"""Lift-one coordinate ascent for the D-optimality objective, with a
projected-Newton finish for design problems.

The objective is multilinear in the allocation: every monomial is a product
of distinct coordinates. Restricting it to the lift-one path that moves
coordinate i to z while rescaling the rest proportionally gives

    f_i(z) = alpha * z * (1 - z)^(d-1) + beta * (1 - z)^d,

with d the number of model terms. Each step maximizes the profile exactly
(interior stationary point against the z=0 endpoint) and a sweep cycles the
coordinates.

A :class:`DesignProblem` takes its profile from the sensitivity
``d_i = w_i x_i' M^-1 x_i`` of ``M = X' W X`` (matrix determinant lemma;
Yang, Mandal & Majumdar 2016): with ``om = 1 - p_i``, ``alpha = f d_i /
om^(d-1)`` and ``beta = f (1 - p_i d_i) / om^d``. A Sherman-Morrison update
keeps ``M^-1`` current after each accepted step, and a Cholesky factor of
``M`` refreshes it once a sweep, carrying ``log det M`` instead of
``det M``. Coordinate steps crawl along flat optima, so after a few sweeps
have located the support the ascent takes projected Newton steps on
``log det M(p)`` over the simplex, in the spirit of Yu's (2011) cocktail
algorithm:

* the gradient is ``d_i`` and the Hessian ``-(G o G)``, with
  ``G = Z M^-1 Z'`` and ``Z = sqrt(w) X``;
* the step solves the KKT system ``[G o G, 1; 1', 0]`` by least squares on
  the free set: the support, plus the zero-mass points with ``d_i > d``
  that the Harman & Pronzato (2007) bound has not ruled out of every
  optimal support;
* a ratio test keeps ``p >= 0``, and the step is taken only if it gains
  ``log det M``, measured from the eigenvalues of ``L^-1 dM L^-T`` (L the
  Cholesky factor of M) because near the optimum the gain is far below the
  rounding of ``log det``; otherwise one sweep replaces it, so the
  objective never decreases (the factorized ``log det`` of an accepted
  step can still read about one rounding unit lower).

A design problem stops on its Kiefer-Wolfowitz certificate: once
``d log(1 + gap) <= tol``, with ``gap = max_i d_i / d - 1``, which bounds
``log det M* - log det M`` (Atwood 1969), or at the rounding floor, where
neither a Newton step nor a sweep gains more than ``tol``. A
:class:`MultilinearObjective` is a black box whose profile two evaluations
pin, ``beta = f_i(0)`` and ``alpha = 2^d f_i(1/2) - beta``; it runs plain
lift-one, stops once a sweep gains less than ``tol`` relative, and is the
reference that the analytic solvers are cross-checked against.

Design problems are solved as a stack: N weight rows that share X, each
with its own allocation, driven in lockstep by one ascent loop. Every row
makes exactly one move per iteration (two sweeps, then a Newton step or
the sweep that stands in for it), so the rows stay on the same iteration
and a row leaves the stack when its own stopping rule holds or when it
fails; a failure is that row's ``DomainError`` or ``SolverError`` and the
other rows go on. The rank test and the column scaling depend on X alone
and come from its X frame (see :mod:`glmdopt.design`); each row picks its
own pivoted-QR basis. The basis change, the Cholesky factors, ``M^-1``, the
rank-one updates and the eigenvalue problems are stacked numpy and LAPACK calls,
which give each row the bits of its own call; the KKT systems are grouped
by the size of their free set. The one-dimensional steps (profile, best
step and the update coefficients), the ratio test's choice, the ``fsum``
part of the gain and the stopping tests run on Python floats per row:
numpy's ``**`` and reductions round differently from them, and on these
few scalars the loop costs less than the array calls would. A single
solve is the one-row stack, and a black box runs through the same loop as
a one-row state.

This is the numerical baseline for the analytic solvers and the
general-matrix solver for shapes outside the analytic families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import lapack

from .design import EPS, Allocation, DesignProblem, SolveReport, _as_prob_vector
from .errors import DomainError, SolverError, _one, as_float, as_int


#: lift-one sweeps that locate the support before the Newton finish
_SWEEPS_BEFORE_NEWTON = 2
#: eigenvalues of the Newton system below this fraction of the largest are singular
_RCOND = 1e-14
#: a stack of design rows holds at most about this many entries per (rows, n, d) array
_STACK_ENTRIES = 1 << 20
_FULL_MASS = "degenerate profile: coordinate already carries all mass"
_LOST_INVERSE = "M^-1 beyond the float range: the weights span too many decades for lift-one"


@dataclass(frozen=True)
class LiftOneConfig:
    """Stopping rule for the ascent, which starts from the uniform allocation.

    ``tol`` is the relative objective gain still available when the ascent
    stops: certified by ``d log(1 + equivalence_gap) <= tol`` for a design
    problem, and the gain of the last sweep for a black box. ``max_sweeps``,
    an integer >= 1, caps lift-one sweeps plus Newton steps.
    """

    tol: float = 1e-12
    max_sweeps: int = 500

    def __post_init__(self):
        message = "tol must be a positive finite number"
        tol = as_float(self.tol, message)
        if not tol > 0.0:
            raise DomainError(message)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "max_sweeps", as_int(self.max_sweeps, "max_sweeps must be >= 1", 1))


@dataclass(frozen=True)
class MultilinearObjective:
    """A homogeneous multilinear objective given directly as a callable.

    ``fn(p)`` must be a degree-``degree`` polynomial in which every monomial
    is a product of distinct coordinates (the shape the profile trick
    requires), with integers ``1 <= degree <= n_points``, the allocation length.

    Lift-one on a black box stops about ``sqrt(eps)`` from the optimal
    allocation: a lift is taken only if its value exceeds the stored
    ``f``, and near the optimum the gain falls below the rounding of ``f``.
    On 29 of 60 decades-wide probit 2x2 problems it stayed at least 7.45e-9
    from the analytic allocation even at ``tol=1e-300``. It is a reference
    for objectives, not for allocations below about 1e-8.
    """

    fn: Callable[[np.ndarray], float]
    n_points: int
    degree: int

    def __post_init__(self):
        n = as_int(self.n_points, "n_points must be an integer >= 1", 1)
        as_int(self.degree, "degree must be an integer in 1..n_points", 1, n + 1)


def _callable_profile(obj: MultilinearObjective, p: np.ndarray, i: int) -> tuple[float, float]:
    shrink = 1.0 / (1.0 - p[i])
    q = p * shrink
    q[i] = 0.0
    beta = obj.fn(q)
    q = p * (0.5 * shrink)
    q[i] = 0.5
    alpha = 2.0**obj.degree * obj.fn(q) - beta
    return alpha, beta


def _relative_profile(p_i: float, d_i: float, degree: int) -> tuple[float, float]:
    """(alpha, beta) of a design problem divided by its objective; nothing
    divides by ``1 - p_i d_i``, so a square design gets ``beta = 0`` exactly."""
    om = 1.0 - p_i
    return d_i / om ** (degree - 1), (1.0 - p_i * d_i) / om**degree


class _BlackBox:
    """Ascent state of a :class:`MultilinearObjective`, one row: its exact value ``f``."""

    certified = False

    def __init__(self, obj: MultilinearObjective):
        self.obj = obj
        self.degree = obj.degree

    def refresh(self, P) -> list:
        self.f = self.obj.fn(P[0])
        self.log_f = np.array([math.log(self.f) if self.f > 0.0 else -math.inf])
        return [None]

    def objective(self, r: int) -> float:
        return self.f

    def begin_sweep(self):
        pass

    def lift(self, P, i: int, errors: list):
        """Maximize coordinate i's profile; see :meth:`_RankOneStack.lift`."""
        p_i = float(P[0, i])
        if errors[0] is not None:
            return None
        if p_i >= 1.0:
            errors[0] = DomainError(_FULL_MASS)
            return None
        z, value = _best_step(*_callable_profile(self.obj, P[0], i), self.degree)
        if value <= self.f:
            return None
        self.f = value
        return [z], np.array([[(1.0 - z) / (1.0 - p_i)]])


def _heaviest_basis(X, w) -> list:
    """d rows of a full-rank X, chosen greedily by weight: a row joins unless it
    lies in the span of the rows chosen before it (relative to its own norm)."""
    d = X.shape[1]
    chosen, basis = [], np.zeros((0, d))
    for j in np.argsort(-w, kind="stable").tolist():
        row = X[j] / np.linalg.norm(X[j])
        rest = row - basis.T @ (basis @ row)
        size = np.linalg.norm(rest)
        if size > d * EPS:
            chosen.append(j)
            basis = np.vstack([basis, rest / size])
            if len(chosen) == d:
                break
    return chosen


class _RankOneStack:
    """Ascent state of N weight rows that share X: per row the inverse Cholesky
    factor of M (and ``M^-1`` during a sweep), ``log det M`` and, as of the
    last factorization, the sensitivities ``d_i``.

    Row r holds X in the basis of d heavy rows ``B_r`` (pivoted QR of
    ``sqrt(w_r) X``), which keeps every ``d_i``: weights spanning many
    decades then sit on a diagonal that Cholesky scales out. Out-of-range
    columns are first divided by powers of two, which the basis change
    ``X inv(X[B_r])`` does not see. A basis that is singular up to roundoff
    gives way to the heaviest independent rows, and a coordinate at the
    rounding level of its row is set to the zero it is in exact arithmetic.
    """

    certified = True
    #: arrays with one entry per row, which take() selects
    _ROWS = ("X", "w", "Z", "log_det_B", "alive", "L_inv", "V", "d", "d_max", "log_f")
    #: the ones a sweep changes, which put() writes back
    _SWEPT = ("L_inv", "V", "d", "d_max", "log_f")

    def __init__(self, lifted, W):
        X, shift, size, lwork = lifted  # the ``liftone`` part of X's frame
        d = X.shape[1]
        roots = np.sqrt(W)
        # LAPACK's pivoted QR as scipy.linalg.qr(pivoting=True) calls it, less
        # its per-call checks
        heavy = (roots[:, :, None] * X).transpose(0, 2, 1)
        B = np.empty((len(W), d), dtype=np.intp)
        for r, a in enumerate(heavy):
            B[r] = lapack.dgeqp3(a, lwork=lwork)[1][:d]
        B -= 1
        XB = X[B]
        sign, log_det_B = np.linalg.slogdet(XB)
        singular = sign == 0.0
        XB_inv = np.linalg.inv(np.where(singular[:, None, None], np.eye(d), XB) if singular.any() else XB)
        # a pivot can be roundoff rather than a point: with three collinear
        # points, the residual of the third can outweigh a light point off the
        # line. X[B] is then singular up to roundoff at the scale of X's
        # columns, and the row takes the heaviest independent points instead
        rough = singular | (np.abs(size[:, None] * XB_inv).max(axis=(1, 2)) > 1.0 / (d * EPS))
        if rough.any():
            for r in np.flatnonzero(rough).tolist():
                B[r] = _heaviest_basis(X, W[r])
            XB = X[B]
            log_det_B = np.linalg.slogdet(XB)[1]
            XB_inv = np.linalg.inv(XB)
        self.X = X @ XB_inv
        # a coordinate at the rounding level of its row, such as a collinear
        # point's off the line, is zero in exact arithmetic, and its square
        # would outweigh a light point that the basis holds
        A = np.abs(self.X)
        tiny = A <= (d * EPS) * A.max(axis=2, keepdims=True)
        if np.count_nonzero(tiny):
            self.X[tiny] = 0.0
        self.X[np.arange(len(W))[:, None], B] = np.eye(d)
        self.log_det_B = log_det_B + shift * math.log(2.0)
        self.w = W
        self.Z = roots[:, :, None] * self.X
        self.degree = d
        # points the Harman-Pronzato bound has not ruled out of the optimal support
        self.alive = np.ones(W.shape, dtype=bool)

    def take(self, rows) -> "_RankOneStack":
        """The state of ``rows`` alone, copied."""
        sub = object.__new__(_RankOneStack)
        sub.degree = self.degree
        for name in self._ROWS:
            setattr(sub, name, getattr(self, name)[rows])
        return sub

    def put(self, rows, sub: "_RankOneStack"):
        """Write back what a sweep of ``self.take(rows)`` changed."""
        for name in self._SWEPT:
            getattr(self, name)[rows] = getattr(sub, name)

    def _factor(self, P, rows=None):
        """``(L, failed)``: Cholesky factors of ``X'WX`` at ``P`` for ``rows`` (all
        rows when None); a row whose ``X'WX`` is not positive definite is listed
        in ``failed`` and gets the identity."""
        X, w = (self.X, self.w) if rows is None else (self.X[rows], self.w[rows])
        M = X.transpose(0, 2, 1) @ (X * (P * w)[:, :, None])
        try:
            return np.linalg.cholesky(M), []
        except np.linalg.LinAlgError:
            pass
        L, failed = np.empty_like(M), []
        for r, Mr in enumerate(M):
            try:
                L[r] = np.linalg.cholesky(Mr)
            except np.linalg.LinAlgError:
                L[r] = np.eye(len(Mr))
                failed.append(r)
        return L, failed

    def _accept(self, L, rows=None):
        """Take the factors L of ``rows`` (all rows when None) as current."""
        log_det_B, Z = (self.log_det_B, self.Z) if rows is None else (self.log_det_B[rows], self.Z[rows])
        L_inv = np.linalg.inv(L)
        log_f = 2.0 * (np.log(L.diagonal(0, 1, 2)).sum(axis=1) + log_det_B)
        # rows whitened by M: G = V V' has the sensitivities on its diagonal
        V = Z @ L_inv.transpose(0, 2, 1)
        d = np.einsum("rij,rij->ri", V, V)
        d_max = d.max(axis=1)
        if rows is None:
            self.L_inv, self.log_f, self.V, self.d, self.d_max = L_inv, log_f, V, d, d_max
        else:
            self.L_inv[rows], self.log_f[rows], self.V[rows], self.d[rows], self.d_max[rows] = (
                L_inv, log_f, V, d, d_max
            )

    def begin_sweep(self):
        """``M^-1`` from the current factors, which the lifts of a sweep update."""
        self.M_inv = self.L_inv.transpose(0, 2, 1) @ self.L_inv
        self.w_cols = self.w.T.tolist()

    def refresh(self, P) -> list:
        """Factor every row at P: each row's ``DomainError``, or None."""
        L, failed = self._factor(P)
        self._accept(L)
        errors = [None] * len(P)
        for r in failed:
            errors[r] = DomainError("degenerate objective: X'WX is not positive definite")
        return errors

    def objective(self, r: int) -> float:
        try:
            return math.exp(self.log_f[r])
        except OverflowError:
            return math.inf

    def equivalence_gap(self, r: int) -> float:
        return self.d_max[r].item() / self.degree - 1.0

    def sensitivities(self, i: int):
        """``(M^-1 x_i, x_i' M^-1 x_i)`` of every row, an (N, d, 1) array and a
        list; ``d_i`` is the second times ``w_i``."""
        u = self.M_inv @ self.X[:, i, :, None]
        return u, (self.X[:, i, None, :] @ u).ravel().tolist()

    def lift(self, P, i: int, errors: list):
        """Maximize coordinate i's profile on every row whose entry of ``errors``
        is None, updating ``M^-1``: None when no row steps, else the new ``p_i``
        and the factor ``(1 - z) / (1 - p_i)`` of the other coordinates per row,
        a list and an (N, 1) array (the old ``p_i`` and 1.0 where a row does
        not step), or two floats for a one-row stack. A row whose ``p_i`` is 1
        gets its ``DomainError`` in ``errors``, and one whose ``M^-1`` has left
        the float range (its ``d_i`` is then not finite) its ``SolverError``."""
        u, xu = self.sensitivities(i)
        m = self.degree
        z = P[:, i].tolist()
        c, k = [1.0] * len(z), [0.0] * len(z)
        stepped = False
        for r, (p_i, xu_r, w_i) in enumerate(zip(z, xu, self.w_cols[i])):
            if errors[r] is not None:
                continue
            if p_i >= 1.0:
                errors[r] = DomainError(_FULL_MASS)
                continue
            d_i = w_i * xu_r
            if not math.isfinite(d_i):
                errors[r] = SolverError(_LOST_INVERSE)
                continue
            z_r, value = _best_step(*_relative_profile(p_i, d_i, m), m)
            if value <= 1.0:  # the profile is relative to the current objective
                continue
            # M moves to c (M + s w_i x_i x_i') with c = (1 - z) / (1 - p_i)
            c_r = (1.0 - z_r) / (1.0 - p_i)
            s = (z_r - c_r * p_i) / c_r
            z[r], c[r], k[r] = z_r, c_r, s * w_i / (1.0 + s * d_i)
            stepped = True
        if not stepped:
            return None
        if len(z) == 1:
            # one row: Python floats, which round as (1, 1, 1) arrays would
            (z,), (c,), (k,) = z, c, k
            factor = c
        else:
            # a row that does not step has k = 0 and c = 1, which leave its M^-1 as it is
            c, k = np.array((c, k))[:, :, None, None]
            factor = c[:, 0]
        if i + 1 < len(self.w_cols):  # after the last lift a refresh replaces M^-1
            self.M_inv -= u * (u.transpose(0, 2, 1) * k)
            self.M_inv /= c
        return z, factor

    def _gain(self, P, Q) -> list:
        """``log f(Q) - log f(P)`` per row on the simplex, from ``Q - P``.

        Near the optimum a Newton step gains far less than the rounding of
        ``log det``, so two factorized log dets cannot order it; the
        eigenvalues of ``L^-1 (M(q) - M(p)) L^-T`` resolve the gain, and the
        change of ``sum(q)`` comes out exactly because ``log f`` gains
        ``d log c`` when ``p`` is scaled by ``c``.
        """
        D = Q - P
        lam = np.linalg.eigvalsh(self.V.transpose(0, 2, 1) @ (self.V * D[:, :, None]))
        lost = (lam[:, 0] <= -1.0).tolist()  # eigvalsh sorts lam
        if any(lost):
            lam[np.array(lost)] = 0.0
        sums = np.log1p(lam).sum(axis=1).tolist()
        m = self.degree
        return [
            -math.inf if lost_r else s - m * math.log1p(math.fsum(D_r) / math.fsum(p_r))
            for lost_r, s, D_r, p_r in zip(lost, sums, D.tolist(), P.tolist())
        ]

    def _newton_points(self, P, free):
        """Each row's allocation after its ratio-tested Newton step.

        The step solves the KKT system on the row's free set, which shrinks
        by every zero-mass point the step would push negative; rows with free
        sets of one size share one stacked ``eigh``. Free points are indexed
        by their flat position in the rows' (rows, n) arrays.
        """
        m, n = self.degree, P.shape[1]
        Q = None
        todo = None  # every row
        while True:
            sizes = (free if todo is None else free[todo]).sum(axis=1).tolist()
            ks = sorted(set(sizes))
            redo = []
            for k in ks:
                g = todo
                if len(ks) > 1:
                    g = np.flatnonzero(np.array(sizes) == k)
                    g = g if todo is None else todo[g]
                if g is None:
                    V, d, p, f = self.V, self.d, P, free
                else:
                    V, d, p, f = self.V[g], self.d[g], P[g], free[g]
                G = len(p)
                pos = f.reshape(-1).nonzero()[0].reshape(G, k)
                Vf = V.reshape(G * n, -1).take(pos, axis=0)
                K = np.ones((G, k + 1, k + 1))
                np.square(Vf @ Vf.transpose(0, 2, 1), out=K[:, :k, :k])
                K[:, k, k] = 0.0
                rhs = np.zeros((G, k + 1))
                np.subtract(d.take(pos), m, out=rhs[:, :k])
                lam, E = np.linalg.eigh(K)
                c = (E.transpose(0, 2, 1) @ rhs[:, :, None])[:, :, 0]
                # least squares drops the singular directions, which carry no slope;
                # a nearly singular one that carries most of it is followed uphill
                # until the ratio test stops it. eigh sorts lam, so the largest
                # |lam| is at one end
                cut = _RCOND * np.maximum(-lam[:, 0], lam[:, -1])
                flat = np.abs(lam) <= cut[:, None]
                if np.count_nonzero(flat):  # count_nonzero: any() costs three times as much
                    for r in np.flatnonzero(flat.any(axis=1)).tolist():
                        c_r, flat_r = c[r], flat[r]
                        slope = c_r[flat_r] @ c_r[flat_r] <= 0.25 * (c_r @ c_r)
                        lam[r, flat_r] = math.inf if slope else cut[r]
                step = (E @ (c / lam)[:, :, None])[:, :k, 0]
                p_free = p.take(pos)
                shrink = step < 0.0
                entering = shrink & (p_free == 0.0)
                if np.count_nonzero(entering):
                    # the entering points leave the free set, in the rows' own place
                    moved = pos if g is None else pos + ((g - np.arange(G)) * n)[:, None]
                    free.reshape(-1)[moved[entering]] = False
                    stuck = entering.any(axis=1)
                    redo.append(np.flatnonzero(stuck) if g is None else g[stuck])
                    keep = np.flatnonzero(~stuck)
                    if not keep.size:
                        continue
                    g = keep if g is None else g[keep]
                    pos = pos[keep] - ((keep - np.arange(keep.size)) * n)[:, None]
                    p, step, p_free, shrink = p[keep], step[keep], p_free[keep], shrink[keep]
                    G = keep.size
                # ratio test: the longest step in [0, 1] that keeps p >= 0
                ratios = np.full(step.shape, math.inf)
                np.divide(p_free, -step, out=ratios, where=shrink)
                t = ratios.min(axis=1)
                block = t < 1.0
                np.minimum(t, 1.0, out=t)
                q = p.copy()
                q.put(pos, p_free + t[:, None] * step)
                if np.count_nonzero(block):
                    first = ratios.argmin(axis=1) + np.arange(0, G * k, k)
                    q.put(pos.take(first[block]), 0.0)
                if g is None:
                    Q = q
                else:
                    if Q is None:
                        Q = np.empty_like(P)
                    Q[g] = q
            if not redo:
                break
            todo = np.concatenate(redo)
            if len(todo) == len(P):
                todo = None  # every row again: views, not copies
        np.maximum(Q, 0.0, out=Q)
        Q /= Q.sum(axis=1, keepdims=True)
        return Q

    def newton(self, P) -> list:
        """One projected Newton step on ``log det M`` over the simplex for every
        row, in place: the gain in ``log f`` per row; 0.0, with the row
        untouched, where the ratio-tested step does not gain."""
        m, d = self.degree, self.d
        # Harman & Pronzato (2007): no optimal design puts mass where d_i < h(eps)
        h = []
        for top in self.d_max.tolist():
            eps = max(top - m, 0.0)
            h.append(m * (1.0 + 0.5 * eps - 0.5 * math.sqrt(eps * (4.0 + eps - 4.0 / m))))
        self.alive &= d >= np.array(h)[:, None]
        Q = self._newton_points(P, (P > 0.0) | (self.alive & (d > m)))
        gain = [g if g > 0.0 else 0.0 for g in self._gain(P, Q)]
        up = [r for r, g in enumerate(gain) if g > 0.0]
        if not up:
            return gain
        rows = None if len(up) == len(P) else np.array(up)
        L, failed = self._factor(Q if rows is None else Q[rows], rows)
        if failed:
            for r in failed:
                gain[up[r]] = 0.0
            kept = np.delete(np.arange(len(up)), failed)
            L, rows = L[kept], np.array(up)[kept]
            if not rows.size:
                return gain
        if rows is None:
            P[:] = Q
        else:
            P[rows] = Q[rows]
        self._accept(L, rows)
        return gain


def _check_problem(problem):
    if not isinstance(problem, (MultilinearObjective, DesignProblem)):
        raise DomainError(f"cannot interpret {type(problem).__name__} as an objective")


def _check_lift(p, i: int):
    if p[i] >= 1.0:
        raise DomainError(_FULL_MASS)


def fi_profile(problem, p, i: int) -> tuple[float, float]:
    """Profile coefficients (alpha, beta) of coordinate i at allocation p.

    ``f_i(z) = alpha * z(1-z)^(d-1) + beta * (1-z)^d`` reproduces the
    objective along the lift-one path of coordinate i. A design problem
    needs a nonsingular ``X' W X`` at p whose determinant and profile
    coefficients lie within the float range: past it, or with a determinant
    that underflows to zero, it raises ``SolverError`` (lift-one itself works
    in log space).
    """
    _check_problem(problem)
    n = problem.n_points
    arr = _as_prob_vector(p, n)
    i = as_int(i, f"coordinate {i} out of range", 0, n)
    _check_lift(arr, i)
    if isinstance(problem, MultilinearObjective):
        return _callable_profile(problem, arr, i)
    state = _RankOneStack(problem._frame.liftone, problem.w[None])
    X = problem.X
    if not arr.all() and np.linalg.matrix_rank(X[arr > 0.0] / np.abs(X).max(axis=0)) < X.shape[1]:
        raise DomainError("degenerate objective: the support of p does not span X")
    (error,) = state.refresh(arr[None])
    if error is not None:
        raise error
    with np.errstate(over="ignore", invalid="ignore"):  # see _sweep; checked below
        state.begin_sweep()
        d_i = float(problem.w[i] * state.sensitivities(i)[1][0])
    alpha, beta = _relative_profile(float(arr[i]), d_i, state.degree)
    f = state.objective(0)
    if f == 0.0:
        raise SolverError("objective below the float range: det(X'WX) underflows to zero")
    alpha, beta = alpha * f, beta * f
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise SolverError("profile coefficients beyond the float range")
    return alpha, beta


def profile_value(alpha: float, beta: float, degree: int, z: float) -> float:
    """Evaluate the lift-one profile at z."""
    return alpha * z * (1.0 - z) ** (degree - 1) + beta * (1.0 - z) ** degree


def _best_step(alpha: float, beta: float, degree: int) -> tuple[float, float]:
    """Maximizer of the profile on [0, 1] and its value."""
    best_z, best_val = 0.0, beta
    denom = degree * (alpha - beta)
    if denom != 0.0:
        z = (alpha - degree * beta) / denom
        if 0.0 < z < 1.0:
            val = profile_value(alpha, beta, degree, z)
            if val > best_val:
                best_z, best_val = z, val
    if degree == 1 and alpha > best_val:
        best_z, best_val = 1.0, alpha
    return best_z, best_val


def _sweep(state, P) -> list:
    """One lift-one sweep of every row of ``state``, in place: each row's
    ``DomainError`` or ``SolverError``, or None."""
    errors = [None] * len(P)
    # a row whose M^-1 overflows gets its SolverError from lift; no other row reads it
    with np.errstate(over="ignore", invalid="ignore"):
        state.begin_sweep()
        for i in range(P.shape[1]):
            step = state.lift(P, i, errors)
            if step is not None:
                z, c = step
                P *= c
                P[:, i] = z
    P /= P.sum(axis=1, keepdims=True)
    return [old or new for old, new in zip(errors, state.refresh(P))]


def _ascend(state, P, cfg: LiftOneConfig) -> list:
    """The ascent of every row of ``state`` in lockstep from the allocations
    ``P``: per row its report, or the ``DomainError`` or ``SolverError`` that
    stopped it."""
    certified = state.certified
    out: list = [None] * len(P)
    rows = list(range(len(P)))  # the row of the batch behind each row of the state
    sweeps, steps, last, converged = [0] * len(P), [0] * len(P), [0.0] * len(P), [False] * len(P)

    def report(r):
        diag = {
            "sweeps": float(sweeps[r]),
            "newton_steps": float(steps[r]),
            "converged": 1.0 if converged[r] else 0.0,
            "last_rel_improvement": float(last[r]),
            "log_objective": state.log_f[r].item(),
        }
        if certified:
            diag["equivalence_gap"] = state.equivalence_gap(r)
        return SolveReport(Allocation(P[r]), state.objective(r), "liftone", diag)

    def leave(ends) -> bool:
        """Settle every row whose end is an error or True; keep the rows whose end
        is None, and tell whether there are any."""
        nonlocal state, P, rows, sweeps, steps, last, converged
        keep = [r for r, end in enumerate(ends) if end is None]
        for r, end in enumerate(ends):
            if end is not None:
                out[rows[r]] = report(r) if end is True else end
        if keep and len(keep) < len(rows):
            state, P = state.take(keep), P[keep]
            rows, sweeps, steps, last, converged = (
                [seq[r] for r in keep] for seq in (rows, sweeps, steps, last, converged)
            )
        return bool(keep)

    errors = state.refresh(P)
    for r, value in enumerate(state.log_f.tolist()):
        if errors[r] is None and not math.isfinite(value):
            errors[r] = DomainError("degenerate objective: value is zero at the starting allocation")
    if not leave(errors):
        return out
    for iteration in range(cfg.max_sweeps):
        newton = certified and iteration >= _SWEEPS_BEFORE_NEWTON
        gain = state.newton(P) if newton else [0.0] * len(P)
        # a row whose Newton step does not gain sweeps instead, from where it was
        lazy = [r for r, g in enumerate(gain) if g == 0.0]
        log_start = state.log_f.tolist() if lazy else []
        if len(lazy) == len(P):
            errors = _sweep(state, P)
        else:
            errors = [None] * len(P)
            if lazy:
                sub, P_sub = state.take(lazy), P[lazy]
                for r, exc in zip(lazy, _sweep(sub, P_sub)):
                    errors[r] = exc
                state.put(lazy, sub)
                P[lazy] = P_sub
        log_f = state.log_f.tolist()
        ends = []
        for r, g in enumerate(gain):
            if errors[r] is not None:
                ends.append(errors[r])
                continue
            if g > 0.0:
                steps[r] += 1
                last[r] = -math.expm1(-g)
            else:
                sweeps[r] += 1
                last[r] = -math.expm1(log_start[r] - log_f[r])
            if certified:
                converged[r] = state.degree * math.log1p(state.equivalence_gap(r)) <= cfg.tol
                done = converged[r] or (newton and g == 0.0 and last[r] <= cfg.tol)
            else:
                converged[r] = done = last[r] <= cfg.tol
            ends.append(True if done else None)
        if not leave(ends):
            return out
    for r, row in enumerate(rows):
        out[row] = report(r)
    return out


def _maximize_rows(frame, W, config: LiftOneConfig) -> list:
    """:func:`liftone_maximize` of ``DesignProblem(X, w=W[r])`` for every row r of
    ``W``, with X that of the X ``frame``, in row order: the report, or the
    ``DomainError`` or ``SolverError`` that row raises.

    The rows run as stacks of at most about ``_STACK_ENTRIES`` entries per
    array: the (rows, n, d) ones and the Newton step's (rows, k + 1, k + 1)
    ones, whose free set of k points can hold all n. Each row comes out as
    its own call gives it.
    """
    try:
        lifted = frame.liftone
    except DomainError as exc:
        return [exc] * len(W)
    n, d = frame.X.shape
    size = max(1, _STACK_ENTRIES // (n * max(n + 1, d)))
    out: list = []
    for start in range(0, len(W), size):
        chunk = W[start : start + size]
        out += _ascend(_RankOneStack(lifted, chunk), np.full(chunk.shape, 1.0 / n), config)
    return out


def liftone_maximize(problem, config: LiftOneConfig | None = None) -> SolveReport:
    """Maximize a multilinear design objective over the simplex.

    Accepts a :class:`DesignProblem` (full column rank required) or a
    :class:`MultilinearObjective`. Coordinate steps are exact one-dimensional
    maximizations and Newton steps are accepted only when they gain, so the
    objective never decreases beyond the rounding of ``log det``.

    A design problem runs a few lift-one sweeps, then projected Newton steps
    (see the module docstring), and stops once its certificate
    ``d log(1 + equivalence_gap)`` is at most ``tol``, or at the rounding
    floor, where a Newton step gains nothing and the sweep standing in for
    it gains at most ``tol``; a Newton step is never shortened. A black box
    runs sweeps until one gains at most ``tol`` relative, which leaves it
    about ``sqrt(eps)`` from the optimal allocation (see
    :class:`MultilinearObjective`). Either way ``max_sweeps`` caps sweeps
    plus Newton steps.

    Diagnostics: ``sweeps``, ``newton_steps``, ``converged`` (1.0 when the
    stopping criterion was met: the certificate for a design problem, the
    last sweep's gain for a black box), ``last_rel_improvement`` (of the
    last sweep or Newton step) and ``log_objective``; for a design problem
    also ``equivalence_gap = max_i d_i / d - 1``, which is zero exactly at
    the D-optimum (Kiefer-Wolfowitz), from the final factorization.
    """
    cfg = config or LiftOneConfig()
    _check_problem(problem)
    if isinstance(problem, DesignProblem):
        return _one(_maximize_rows(problem._frame, problem.w[None], cfg))
    n = problem.n_points
    return _one(_ascend(_BlackBox(problem), np.full((1, n), 1.0 / n), cfg))
