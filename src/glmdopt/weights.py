"""Information-weight functions for generalized linear models.

A weight function maps the linear predictor ``eta = x'beta`` to the positive
per-observation information contribution ``w``. For a link ``g`` and response
variance ``r``, the weight is ``((g^-1)')^2 / r`` evaluated at ``eta``; only
the composite is needed here, so the catalog stores it directly:

* ``logit``            -- ``exp(eta) / (1 + exp(eta))^2`` (binary response)
* ``log_poisson``      -- ``exp(eta)`` (Poisson response, log link)
* ``probit``           -- ``phi(eta)^2 / (Phi(eta) Phi(-eta))``
* ``identity_constant``-- a positive constant (the linear-model limit)
* ``user_tabulated``   -- linear interpolation of caller-supplied (eta, w)

All kinds evaluate elementwise on scalars or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import DomainError, as_float, as_floats

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _logit(eta: np.ndarray) -> np.ndarray:
    # exp(-|eta|) form avoids overflow; the function is symmetric in eta.
    t = np.exp(-np.abs(eta))
    return t / (1.0 + t) ** 2


def _log_poisson(eta: np.ndarray) -> np.ndarray:
    return np.exp(eta)


def _probit(eta: np.ndarray) -> np.ndarray:
    # phi^2 / (Phi * (1 - Phi)) in log space; stable far into both tails.
    log_phi = -0.5 * eta * eta - _LOG_SQRT_2PI
    return np.exp(2.0 * log_phi - special.log_ndtr(eta) - special.log_ndtr(-eta))


@dataclass(frozen=True)
class WeightFunction:
    """A named, positive map from linear predictor to information weight."""

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, eta):
        arr = as_floats(eta, "eta must be finite")
        out = self.fn(arr)
        if arr.ndim == 0:
            return float(out)
        return out

    @classmethod
    def logit(cls) -> "WeightFunction":
        return cls("logit", _logit)

    @classmethod
    def log_poisson(cls) -> "WeightFunction":
        return cls("log_poisson", _log_poisson)

    @classmethod
    def probit(cls) -> "WeightFunction":
        return cls("probit", _probit)

    @classmethod
    def constant(cls, value: float = 1.0) -> "WeightFunction":
        message = "constant weight must be a positive finite number"
        value = as_float(value, message)
        if value <= 0.0:
            raise DomainError(message)

        def fn(eta: np.ndarray) -> np.ndarray:
            return np.full_like(eta, value)

        return cls("identity_constant", fn)

    @classmethod
    def tabulated(cls, eta_table, w_table) -> "WeightFunction":
        """Piecewise-linear weight from an (eta, w) table.

        Knots must be strictly increasing with positive weights; evaluation
        outside the table holds the endpoint values.
        """
        message = "tabulated weight tables must be finite"
        et, wt = as_floats(eta_table, message), as_floats(w_table, message)
        if et.ndim != 1 or et.shape != wt.shape or et.size < 2:
            raise DomainError("tabulated weight needs matching 1-d eta/w tables with >= 2 knots")
        if np.any(np.diff(et) <= 0.0):
            raise DomainError("tabulated eta knots must be strictly increasing")
        if np.any(wt <= 0.0):
            raise DomainError("tabulated weights must be positive")

        def fn(eta: np.ndarray) -> np.ndarray:
            return np.interp(eta, et, wt)

        return cls("user_tabulated", fn)

    @classmethod
    def from_name(cls, name: str) -> "WeightFunction":
        try:
            return _CATALOG[name]()
        except KeyError:
            raise DomainError(
                f"unknown weight function {name!r}; expected one of {sorted(_CATALOG)}"
            ) from None


_CATALOG = {
    "logit": WeightFunction.logit,
    "log_poisson": WeightFunction.log_poisson,
    "poisson": WeightFunction.log_poisson,
    "probit": WeightFunction.probit,
    "identity": WeightFunction.constant,
    "identity_constant": WeightFunction.constant,
}
