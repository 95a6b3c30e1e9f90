"""Weight-function catalog tests."""

import numpy as np
import pytest

from glmdopt import DomainError, WeightFunction

# frozen at 40-digit precision: exp(2) / (1 + exp(2))^2
LOGIT_AT_2 = 0.10499358540350652


def test_logit_at_zero():
    assert WeightFunction.logit()(0.0) == 0.25


def test_log_poisson_at_zero():
    assert WeightFunction.log_poisson()(0.0) == 1.0


def test_logit_at_two_matches_extended_precision():
    assert WeightFunction.logit()(2.0) == pytest.approx(LOGIT_AT_2, rel=1e-15)


def test_logit_symmetry(rng):
    fn = WeightFunction.logit()
    eta = rng.uniform(-30, 30, 200)
    assert np.array_equal(fn(eta), fn(-eta))


def test_positive_over_wide_range():
    # ranges chosen so the true values stay inside double range: the probit
    # weight falls below 1e-308 past |eta| ~ 26
    assert np.all(WeightFunction.logit()(np.linspace(-700, 700, 2001)) > 0.0)
    assert np.all(WeightFunction.probit()(np.linspace(-25, 25, 2001)) > 0.0)
    assert np.all(WeightFunction.log_poisson()(np.linspace(-600, 600, 2001)) > 0.0)


def test_probit_at_zero():
    # phi(0)^2 / (1/4) = 2/pi
    assert WeightFunction.probit()(0.0) == pytest.approx(2.0 / np.pi, rel=1e-14)


def test_constant_ignores_eta(rng):
    fn = WeightFunction.constant(2.5)
    eta = rng.normal(0, 10, 50)
    assert np.all(fn(eta) == 2.5)
    assert fn.kind == "identity_constant"


def test_constant_must_be_positive():
    with pytest.raises(DomainError):
        WeightFunction.constant(0.0)
    with pytest.raises(DomainError):
        WeightFunction.constant(-1.0)


def test_constant_beyond_float_range_rejected():
    with pytest.raises(DomainError, match="finite"):
        WeightFunction.constant(10**400)


def test_tabulated_interpolates_and_holds_endpoints():
    fn = WeightFunction.tabulated([-1.0, 0.0, 1.0], [1.0, 2.0, 4.0])
    assert fn(0.0) == 2.0
    assert fn(0.5) == pytest.approx(3.0)
    assert fn(-10.0) == 1.0
    assert fn(10.0) == 4.0


def test_tabulated_validation():
    with pytest.raises(DomainError):
        WeightFunction.tabulated([0.0, 0.0], [1.0, 2.0])  # not strictly increasing
    with pytest.raises(DomainError):
        WeightFunction.tabulated([0.0, 1.0], [1.0, -2.0])  # nonpositive weight
    with pytest.raises(DomainError):
        WeightFunction.tabulated([0.0], [1.0])  # too few knots


def test_tabulated_beyond_float_range_rejected():
    with pytest.raises(DomainError, match="finite"):
        WeightFunction.tabulated([0, 10**400], [1, 2])


def test_nonfinite_eta_rejected():
    fn = WeightFunction.logit()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            fn(bad)
    with pytest.raises(DomainError):
        fn(np.array([0.0, np.nan]))


def test_eta_beyond_float_range_rejected():
    fn = WeightFunction.logit()
    with pytest.raises(DomainError, match="eta must be finite"):
        fn(10**400)


def test_from_name_catalog():
    assert WeightFunction.from_name("logit").kind == "logit"
    assert WeightFunction.from_name("poisson").kind == "log_poisson"
    assert WeightFunction.from_name("identity").kind == "identity_constant"
    with pytest.raises(DomainError):
        WeightFunction.from_name("cauchit")


def test_vectorized_matches_scalar(rng):
    fn = WeightFunction.probit()
    eta = rng.normal(0, 3, 20)
    vec = fn(eta)
    for e, w in zip(eta, vec):
        assert fn(e) == w
