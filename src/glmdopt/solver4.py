"""Analytic D-optimal allocations for four-point reduced objectives.

The reduced objective on the probability simplex over four points is

    f(p) = v1 p2 p3 p4 + v2 p1 p3 p4 + v3 p1 p2 p4 + v4 p1 p2 p3

with nonnegative coefficients ``v``: the n = 4 saturated problem, carried
as a :class:`~glmdopt.saturated.SaturatedProblem`. The maximizer is unique
and is found by a case dispatch on the sorted coefficients:

* dominant coefficient (``v4 >= v1 + v2 + v3``): mass 1/3 on the other
  three points;
* a tied pair: closed forms built from a single square root;
* strictly ordered interior case: ``y1 = p1/p4`` solves a quartic whose
  unique root above 1 is evaluated by radicals (complex arithmetic,
  principal branches), then ``y2 = p2/p4`` and ``y3 = p3/p4`` follow by
  back-substitution;
* a zero smallest coefficient: rational closed forms; with more than one
  zero the first of them (2a) applies, mass 1/3 on every point but the
  largest coefficient's.

A residual check guards the radical evaluation; on failure the root is
re-isolated by bisection on (1, B) where B bounds all roots. Whatever the
case, the report is certified by the Kiefer-Wolfowitz equivalence gap
computed from :func:`~glmdopt.design.vform_log_sensitivities`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .design import Allocation, SolveReport, _bisect_root, safe_exp, vform_log_sensitivities
from .errors import DomainError, SolverError
from .saturated import SaturatedProblem

#: two coefficients are tied (and a coefficient is zero) below this relative gap
TIE_REL = 1e-9
#: radical root accepted when |quartic(y1)| <= this times max|c| * y1^4
QUARTIC_RESIDUAL_REL = 1e-9

_CBRT2 = 2.0 ** (1.0 / 3.0)


@dataclass(frozen=True)
class QuarticRoot:
    """Largest quartic root with the residual bookkeeping of its evaluation."""

    root: float
    residual: float
    scale: float
    used_fallback: bool


def _quartic_value(c, y: float) -> float:
    return c[0] + y * (c[1] + y * (c[2] + y * (c[3] + y * c[4])))


def _quartic_coeffs(v: np.ndarray):
    v1, v2, v3, v4 = v
    c0 = 2.0 * v1**3 * (-v1 + v2 + v3 + v4)
    c1 = v1**2 * ((-v1 - v2 + v3 + v4) ** 2 + 4.0 * (v4 - v1) * (v2 + v4))
    c2 = 2.0 * v1 * v4 * (2.0 * (v1 - v4) ** 2 - (v2 - v3) ** 2 - (v1 + v4) * (v2 + v3))
    c3 = v4**2 * ((v1 - v2 + v3 - v4) ** 2 - 4.0 * (v4 - v1) * (v1 + v2))
    c4 = 2.0 * (v1 + v2 + v3 - v4) * v4**3
    return (c0, c1, c2, c3, c4)


def _radical_root(c) -> float:
    """Largest root by radicals; principal branches, real part at the end."""
    a0, a1, a2, a3 = c[0] / c[4], c[1] / c[4], c[2] / c[4], c[3] / c[4]
    E1 = 12.0 * a0 + a2 * a2 - 3.0 * a1 * a3
    F1 = 27.0 * a1 * a1 - 72.0 * a0 * a2 + 2.0 * a2**3 - 9.0 * a1 * a2 * a3 + 27.0 * a0 * a3 * a3
    s = cmath.sqrt(complex(F1 * F1 - 4.0 * E1**3))
    G1 = complex(F1 - s) ** (1.0 / 3.0) + complex(F1 + s) ** (1.0 / 3.0)
    A1 = -2.0 * a2 / 3.0 + a3 * a3 / 4.0 + G1 / (3.0 * _CBRT2)
    sqA = cmath.sqrt(A1)
    C1 = (
        -4.0 * a2 / 3.0
        + a3 * a3 / 2.0
        - G1 / (3.0 * _CBRT2)
        + (-8.0 * a1 + 4.0 * a2 * a3 - a3**3) / (4.0 * sqA)
    )
    return (-a3 / 4.0 + sqA / 2.0 + cmath.sqrt(C1) / 2.0).real


def solve_quartic(c) -> QuarticRoot:
    """Unique root above 1 of the interior-case quartic, with residual check."""
    c = tuple(float(x) for x in c)
    if len(c) != 5:
        raise DomainError("need five quartic coefficients")
    if not all(np.isfinite(x) for x in c):
        raise DomainError("quartic coefficients must be finite")
    if c[4] <= 0.0 or c[0] <= 0.0:
        raise DomainError("coefficient signs inconsistent with the interior case (need c0>0, c4>0)")

    def scale_at(y: float) -> float:
        return max(abs(x) for x in c) * max(1.0, y) ** 4

    root = np.nan
    try:
        root = _radical_root(c)
    except ZeroDivisionError:
        pass
    if np.isfinite(root):
        residual = abs(_quartic_value(c, root))
        scale = scale_at(root)
        if root > 1.0 and residual <= QUARTIC_RESIDUAL_REL * scale:
            return QuarticRoot(root, residual, scale, used_fallback=False)

    # Fallback: the root is bracketed in (1, B]; the quartic is negative at 1
    # and positive beyond the coefficient bound B.
    hi = 1.0 + sum(abs(x) for x in c) / c[4]
    if _quartic_value(c, 1.0) > 0.0:
        raise SolverError("quartic has no sign change above 1; inputs outside the interior case")
    for _ in range(8):
        if _quartic_value(c, hi) > 0.0:
            break
        hi *= 2.0
    root, _ = _bisect_root(lambda y: _quartic_value(c, y), 1.0, hi)
    residual = abs(_quartic_value(c, root))
    return QuarticRoot(root, residual, scale_at(root), used_fallback=True)


def quartic_largest_root(c) -> float:
    """Largest real root of the interior-case quartic (always > 1)."""
    return solve_quartic(c).root


def back_substitute(y1: float, v) -> tuple[float, float, Allocation]:
    """Recover (y2, y3) and the allocation from the quartic root y1.

    ``v`` must be strictly ascending interior-case coefficients, or a
    :class:`~glmdopt.saturated.SaturatedProblem` holding them; the returned
    allocation is in that sorted order.
    """
    vc = v.v if isinstance(v, SaturatedProblem) else np.asarray(v, dtype=float)
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


def kkt_residual(v, p) -> float:
    """Max pairwise gap of the objective partial derivatives at interior p.

    Equals ``f * (max_i d_i - min_i d_i)`` with ``(log f, d)`` from
    :func:`~glmdopt.design.vform_log_sensitivities`. For a
    :class:`~glmdopt.saturated.SaturatedProblem`, ``p`` is in its sorted
    order and ``f`` is on the true scale ``exp(log_scale)`` times the stored.
    """
    log_scale = v.log_scale if isinstance(v, SaturatedProblem) else 0.0
    varr = v.v if isinstance(v, SaturatedProblem) else np.asarray(v, dtype=float)
    parr = p.p if isinstance(p, Allocation) else np.asarray(p, dtype=float)
    if varr.shape != (4,) or parr.shape != (4,):
        raise DomainError("need four coefficients and four allocation entries")
    if np.any(parr <= 0.0):
        raise DomainError("residual undefined at boundary: all allocation entries must be positive")
    log_f, d = vform_log_sensitivities(varr, parr)
    return safe_exp(log_scale + log_f) * float(d.max() - d.min())


def _tie_pair_solution(v: np.ndarray, pair: str) -> np.ndarray:
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


def _one_zero_sorted(u: np.ndarray):
    """Closed forms for sorted coefficients with u[0] == 0 (rank-3 one-zero).

    Returns (p_sorted, case_suffix). The first point's coefficient is treated
    as exactly zero; ties among the rest use the same relative threshold as
    the all-positive dispatch.
    """
    _, u2, u3, u4 = u
    tie = TIE_REL * u4
    if u4 >= u2 + u3:
        return np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0]), "2a"
    if u3 - u2 <= tie:
        den = 3.0 * (4.0 * u2 - u4)
        shared = 2.0 * u2 / den
        p = np.array([1.0 / 3.0, shared, shared, 0.5 - (4.0 * u2 + u4) / (2.0 * den)])
        return p, "2b"
    if u4 - u3 <= tie:
        den = 3.0 * (4.0 * u3 - u2)
        shared = 2.0 * u3 / den
        p = np.array([1.0 / 3.0, 0.5 - (u2 + 4.0 * u3) / (2.0 * den), shared, shared])
        return p, "2c"
    delta = 2.0 * u2 * u3 + 2.0 * u2 * u4 + 2.0 * u3 * u4 - u2 * u2 - u3 * u3 - u4 * u4
    p = np.array(
        [
            1.0 / 3.0,
            2.0 * u2 * (u3 + u4 - u2) / (3.0 * delta),
            2.0 * u3 * (u2 + u4 - u3) / (3.0 * delta),
            2.0 * u4 * (u2 + u3 - u4) / (3.0 * delta),
        ]
    )
    return p, "2d"


def _interior_quartic(v: np.ndarray):
    """Strictly-ordered interior case: quartic root plus back-substitution.

    Returns (p_sorted, diagnostics). Exposed for tests that compare the
    interior-case formulas against the one-zero closed forms near v1 -> 0.
    """
    qr = solve_quartic(_quartic_coeffs(v))
    y2, y3, alloc = back_substitute(qr.root, v)
    diag = {
        "y1": qr.root,
        "y2": y2,
        "y3": y3,
        "quartic_residual": qr.residual,
        "quartic_fallback": 1.0 if qr.used_fallback else 0.0,
    }
    return alloc.p, diag


def solve_22(v) -> SolveReport:
    """Maximize the four-point reduced objective over the simplex.

    Accepts four nonnegative coefficients in any order, at least one of them
    positive, or an n = 4 :class:`~glmdopt.saturated.SaturatedProblem`, and
    returns the optimal allocation in the input order. The case label
    records which closed form fired. Diagnostics carry the quartic
    intermediates for the interior case, and always ``log_objective`` (on the
    true scale, ``log_scale + log f``) and the Kiefer-Wolfowitz
    ``equivalence_gap = max_i d_i / 3 - 1``, which is zero exactly at the
    optimum.
    """
    sp = v if isinstance(v, SaturatedProblem) else SaturatedProblem.from_values(v)
    if sp.n != 4:
        raise DomainError(f"need exactly four coefficients, got {sp.n}")
    s = sp.v
    diag: dict = {}

    if s[0] <= TIE_REL * s[-1]:
        p_sorted, suffix = _one_zero_sorted(s)
        label = f"2x2-case-{suffix}"
    elif s[3] >= s[0] + s[1] + s[2]:
        p_sorted = np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0])
        label = "2x2-case-i"
    else:
        tie = TIE_REL * s[-1]
        for k, case in enumerate(("ii", "iii", "iv")):
            if s[k + 1] - s[k] <= tie:
                p_sorted = _tie_pair_solution(s, f"{k + 1}{k + 2}")
                label = f"2x2-case-{case}"
                break
        else:
            p_sorted, diag = _interior_quartic(s)
            label = "2x2-case-v"

    p_sorted = np.clip(p_sorted, 0.0, None)
    log_f, d = vform_log_sensitivities(s, p_sorted)
    diag["log_objective"] = sp.log_scale + log_f
    diag["equivalence_gap"] = float(d.max()) / 3.0 - 1.0

    p_out = np.empty(4)
    p_out[sp.perm] = p_sorted
    return SolveReport(Allocation(p_out), safe_exp(diag["log_objective"]), label, diag)
