"""Machine-speed yardsticks that the benchmark's times are scaled by.

On a shared two-vCPU virtual machine the speed of the same code drifts by
tens of percent within seconds, and CPU time drifts with wall time, so the
drift is the machine's, not preemption. Longer runs and medians do not
remove a drift that is slower than a run. The benchmark therefore runs a
fixed kernel between its timed units and reports each time multiplied by
``REFERENCE_S[kind] / kernel median``: the time the work would take on a
machine where the kernel takes its reference time.

Different work slows down by different amounts in the same machine state,
so each workload is scaled by a kernel shaped like its own work:

* ``solver``: small frozen dataclasses, tiny numpy arrays, 3x3
  determinants and complex roots (the four-point and saturated solvers);
* ``liftone``: fixed sweeps of coordinate ascent on ``det(X' W X)`` for a
  2^3 main-effects design;
* ``region``: a margin surface on a 201x201 grid and five bounded L-BFGS-B
  runs, as in a corner-support check.

The kernels import nothing from glmdopt, so a change to glmdopt moves the
scaled times and never the yardstick.
"""

from __future__ import annotations

import cmath
import itertools
import time
from dataclasses import dataclass

import numpy as np
from scipy import optimize

#: median seconds of each kernel on the machine the bounds in BENCHMARK.json
#: were set on (2-vCPU Intel Xeon, Sapphire Rapids, under KVM)
REFERENCE_S = {"solver": 0.005, "liftone": 0.0045, "region": 0.0045}

#: single solves run for about this long between two calibration samples
INTERVAL_S = 0.25

_X = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [1.0, -1.0, -1.0]])
_X8 = np.column_stack([np.ones(8), np.array(list(itertools.product((1.0, -1.0), repeat=3)))])
_AXIS = np.linspace(-1.0, 1.0, 201)
_A, _B = np.meshgrid(_AXIS, _AXIS, indexing="ij")
_STARTS = [(0.3, 0.2), (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]


@dataclass(frozen=True)
class _Points:
    X: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if not np.all(np.isfinite(X)) or len({tuple(r) for r in np.round(X, 12)}) != X.shape[0]:
            raise ValueError("bad points")
        X = X.copy()
        X.flags.writeable = False
        object.__setattr__(self, "X", X)


def _solver() -> float:
    acc = 0.0
    for i in range(60):
        eta = _X @ np.array([(0.1 * i) % 3.0, 0.2, -0.3])
        t = np.exp(-np.abs(eta))
        pts = _Points(_X, t / (1.0 + t) ** 2)
        minors = np.array([np.linalg.det(np.delete(pts.X, k, axis=0)) for k in range(4)])
        s = np.sort(minors**2 / pts.w)
        acc += float(s[0]) + (cmath.sqrt(complex(s[1] - s[2])) ** (1.0 / 3.0)).real
    return acc


def _liftone() -> float:
    t = np.exp(-np.abs(_X8 @ np.array([0.1, -0.05, 0.08, 0.02])))
    w = t / (1.0 + t) ** 2
    p = np.full(8, 0.125)

    def f(q):
        return float(np.linalg.det(_X8.T @ (_X8 * (q * w)[:, None])))

    for _ in range(18):
        for i in range(8):
            q = p / (1.0 - p[i])
            q[i] = 0.0
            beta = f(q)
            q = 0.5 * p / (1.0 - p[i])
            q[i] = 0.5
            alpha = 16.0 * f(q) - beta
            z = (alpha - 4.0 * beta) / (4.0 * (alpha - beta)) if alpha != beta else 0.0
            if 0.0 < z < 1.0:
                p *= (1.0 - z) / (1.0 - p[i])
                p[i] = z
    return f(p)


def _region() -> float:
    def s_of(a, b):
        t = np.exp(-np.abs(np.asarray(-1.0 + 0.3 * a + 0.7 * b)))
        return 0.2 - t / (1.0 + t) ** 2 * (1.0 + a * a + b * b + 0.1 * a * b)

    grid = s_of(_A, _B)
    acc = float(grid.flat[int(np.argmin(grid))])
    for x0 in _STARTS:
        res = optimize.minimize(
            lambda x: float(s_of(float(x[0]), float(x[1]))),
            np.asarray(x0),
            method="L-BFGS-B",
            bounds=[(-1.0, 1.0)] * 2,
            options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 200},
        )
        acc += float(res.fun)
    return acc


KERNELS = {"solver": _solver, "liftone": _liftone, "region": _region}


def sample(kind: str) -> float:
    """Seconds one run of the ``kind`` kernel takes now."""
    t0 = time.perf_counter()
    acc = KERNELS[kind]()
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


class Yardstick:
    """Calibration samples of one run, and the scale factor at any moment."""

    #: samples whose median sets the scale of a timed unit
    NEAREST = 7

    def __init__(self, kind: str):
        self.kind = kind
        self.samples = []  # (midpoint, seconds)

    def measure(self, after: float = 0.0):
        """One sample, plus one per second of the unit just timed (up to 5)."""
        for _ in range(1 + min(4, int(after))):
            t0 = time.perf_counter()
            dt = sample(self.kind)
            self.samples.append((t0 + 0.5 * dt, dt))

    def scale(self, t: float) -> float:
        """Reference time over the median of the samples nearest in time to ``t``."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - t))[: self.NEAREST]
        return REFERENCE_S[self.kind] / float(np.median([dt for _, dt in near]))
