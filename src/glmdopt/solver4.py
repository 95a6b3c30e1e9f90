"""Analytic D-optimal allocations for four-point reduced objectives.

The reduced objective on the probability simplex over four points is

    f(p) = v1 p2 p3 p4 + v2 p1 p3 p4 + v3 p1 p2 p4 + v4 p1 p2 p3

with nonnegative coefficients ``v``: the n = 4 saturated problem, carried
as a :class:`~glmdopt.saturated.SaturatedProblem`. The maximizer is unique.
Its case label comes from one dispatch on the sorted coefficients. A
smallest coefficient at most ``TIE_REL`` times the largest counts as exactly
zero; in that zero band the same tests give the one-zero cases 2a-2d in
place of cases i-v:

* dominant coefficient (``v4 >= v1 + v2 + v3``): mass 1/3 on the other
  three points (case i, or 2a; with more than one zero 2a always applies);
* a tied adjacent pair (ii-iv, or 2b and 2c, where the zero point's pair
  is not scanned);
* otherwise the one-zero case 2d in the zero band, or the strictly ordered
  interior case v.

Every case but the dominant one takes its allocation from the root search
of :mod:`glmdopt.saturated`, the paper's radical-sum equation with n = 4:
``p_j = (1 + r_j) / 6``. Exact ties come out equal, and the zero point's
mass is ``2/6``, exactly 1/3. Whatever the case, the report is certified by
the Kiefer-Wolfowitz equivalence gap computed from
:func:`~glmdopt.design.vform_log_sensitivities`.

The paper's own closed form for case v, the largest root ``y1 = p1/p4`` of
a quartic by radicals, stays here as :func:`solve_quartic`, off the solve
path: its coefficients cancel near the dominance boundary, where the root
search does not.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .design import SolveReport
from .errors import DomainError, SolverError, _one, as_floats
from .saturated import _RTOL, _XTOL, SaturatedProblem, _root_allocation, _solve_rows

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
    """Unique root above 1 of the interior-case quartic in ``y1 = p1/p4``.

    The root is evaluated by radicals (complex arithmetic, principal
    branches) and accepted when its residual is at most
    ``QUARTIC_RESIDUAL_REL`` times ``max|c| y1^4``; otherwise Brent's method
    re-isolates it on (1, B], where B bounds all roots.
    """
    c = tuple(as_floats(c, "quartic coefficients must be finite").reshape(-1).tolist())
    if len(c) != 5:
        raise DomainError("need five quartic coefficients")
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
    if _quartic_value(c, hi) < 0.0:
        raise SolverError(f"quartic has no sign change on (1, {hi!r}]")
    try:
        root = brentq(lambda y: _quartic_value(c, y), 1.0, hi, xtol=_XTOL, rtol=_RTOL)
    except RuntimeError as exc:
        raise SolverError(f"quartic root search failed to converge: {exc}") from None
    residual = abs(_quartic_value(c, root))
    return QuarticRoot(root, residual, scale_at(root), used_fallback=True)


def solve_22(v) -> SolveReport:
    """Maximize the four-point reduced objective over the simplex.

    Accepts four nonnegative coefficients in any order, at least one of them
    positive, or an n = 4 :class:`~glmdopt.saturated.SaturatedProblem`, and
    returns the optimal allocation in the input order. The case label
    records which case of the paper the coefficients fall in. Diagnostics
    carry ``log_objective`` and the Kiefer-Wolfowitz ``equivalence_gap``,
    zero exactly at the optimum, and on rows that take the root search
    those of :func:`~glmdopt.saturated.solve_saturated`.
    """
    sp = v if isinstance(v, SaturatedProblem) else SaturatedProblem(v)
    return _one(_solve_rows([sp], _case_22))


def _case_22(sp: SaturatedProblem):
    """The case dispatch of :func:`solve_22` on one problem: sorted allocation,
    label and diagnostics, before the report."""
    if sp.n != 4:
        raise DomainError(f"need exactly four coefficients, got {sp.n}")
    s = sp.v
    # in the zero band the smallest coefficient counts as exactly 0, and the same
    # dominance test and tie scan give the one-zero cases 2a-2c
    zero = bool(s[0] <= TIE_REL * s[-1])
    u = np.array([0.0, s[1], s[2], s[3]]) if zero else s
    names = ("2a", "", "2b", "2c", "2d") if zero else ("i", "ii", "iii", "iv", "v")
    if u[3] >= u[0] + u[1] + u[2]:
        return np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0]), f"2x2-case-{names[0]}", {}
    # in the zero band only pairs of positive coefficients are scanned
    tie = TIE_REL * u[3]
    k = next((k for k in range(zero, 3) if u[k + 1] - u[k] <= tie), 3)
    p_sorted, _, diag = _root_allocation(u, sp)
    return p_sorted, f"2x2-case-{names[k + 1]}", diag
