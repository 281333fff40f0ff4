"""Intrinsic loss values, posterior risk identity, nonnegativity."""

import dataclasses
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate

from gminimax import (
    DomainError,
    builtin_family,
    intrinsic_loss,
    posterior_regret,
    posterior_risk,
)


@pytest.mark.parametrize("name,theta", [
    ("normal", 0.7), ("exponential", 2.0), ("binomial_logit(5)", -1.1),
    ("poisson", 0.4),
])
def test_zero_at_truth(name, theta):
    fam = builtin_family(name)
    assert float(intrinsic_loss(fam, theta, theta)) == 0.0


def test_normal_is_half_squared_error(normal):
    # log-normalizer -theta^2/2 collapses the loss to a pure quadratic
    assert float(intrinsic_loss(normal, 0.2, 0.8)) == pytest.approx(0.18, abs=1e-15)
    for t, d in [(-1.0, 2.5), (0.0, 0.0), (3.2, 3.1)]:
        assert float(intrinsic_loss(normal, t, d)) == pytest.approx(
            0.5 * (d - t) ** 2, rel=1e-13, abs=1e-15
        )


def test_regret_is_loss_at_bayes_action(exponential):
    assert float(posterior_regret(exponential, 1.3, 1.3)) == 0.0
    assert float(posterior_regret(exponential, 0.9, 1.4)) == pytest.approx(
        float(intrinsic_loss(exponential, 0.9, 1.4)), abs=0.0
    )


def test_vectorized_over_actions(exponential):
    deltas = np.linspace(0.5, 3.0, 7)
    got = intrinsic_loss(exponential, 1.0, deltas)
    assert got.shape == deltas.shape
    for d, v in zip(deltas, got):
        assert v == pytest.approx(float(intrinsic_loss(exponential, 1.0, float(d))))


def test_posterior_risk_regret_difference(normal):
    """risk(delta) - risk(bayes action) must equal the closed-form regret.

    The posterior expectations are integrated against the actual normal
    posterior density rather than taken from any conjugate identity, so
    this exercises the risk arithmetic end to end.
    """
    m, v = 0.6, 0.25  # posterior mean and variance of theta given x

    def e(fn):
        val, err = integrate.quad(
            lambda th: fn(th) * math.exp(-0.5 * (th - m) ** 2 / v)
            / math.sqrt(2 * math.pi * v),
            -np.inf, np.inf, epsabs=1e-12, epsrel=1e-10,
        )
        assert err < 1e-8
        return val

    e_log_norm = e(lambda th: float(normal.log_norm(th)))
    e_mean = e(lambda th: float(normal.mean(th)))
    e_theta_mean = e(lambda th: th * float(normal.mean(th)))

    risk_at = lambda d: posterior_risk(normal, d, e_log_norm, e_mean, e_theta_mean)
    # Bayes action: invert the mean function at E[mean] = -m
    for d in (-0.4, 0.2, 0.8, 2.0):
        lhs = risk_at(d) - risk_at(m)
        assert lhs == pytest.approx(0.5 * (d - m) ** 2, abs=1e-9)
        assert lhs == pytest.approx(
            float(posterior_regret(normal, m, d)), abs=1e-9
        )


def test_risk_minimized_at_posterior_mean_inversion(normal):
    m, v = -0.3, 0.5
    e_log_norm = -0.5 * (m * m + v)
    e_mean = -m
    e_theta_mean = -(m * m + v)
    grid = np.linspace(m - 2, m + 2, 801)
    risks = [posterior_risk(normal, float(d), e_log_norm, e_mean, e_theta_mean)
             for d in grid]
    assert abs(float(grid[int(np.argmin(risks))]) - m) <= (grid[1] - grid[0])


@given(st.floats(0.05, 40.0), st.floats(0.05, 40.0))
@settings(max_examples=300, deadline=None)
def test_nonnegative_exponential(theta, delta):
    fam = builtin_family("exponential")
    val = float(intrinsic_loss(fam, theta, delta))
    assert val >= 0.0
    if abs(theta - delta) > 1e-6 * max(theta, delta):
        assert val > 0.0


@given(st.floats(-25.0, 25.0), st.floats(-25.0, 25.0))
@settings(max_examples=300, deadline=None)
def test_nonnegative_binomial(theta, delta):
    fam = builtin_family("binomial_logit(5)")
    assert float(intrinsic_loss(fam, theta, delta)) >= 0.0


@given(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
@settings(max_examples=300, deadline=None)
def test_nonnegative_poisson(theta, delta):
    fam = builtin_family("poisson")
    assert float(intrinsic_loss(fam, theta, delta)) >= 0.0


@pytest.mark.parametrize("name,theta,delta", [
    ("normal", 1e4, 10000.000000000002),
    ("normal", 4295.153968166554, 4295.1539497662325),
    ("poisson", -23.6, -23.599999999999998),
    ("poisson", -15.44139187738507, -15.441391877385069),
])
def test_round_off_near_the_diagonal_is_not_blamed_on_the_family(name, theta, delta):
    # The three terms cancel to round-off here; the guard scales with them.
    assert float(intrinsic_loss(builtin_family(name), theta, delta)) >= 0.0


def test_inconsistent_mean_is_still_refused(exponential):
    off = dataclasses.replace(exponential, mean=lambda th: 1.01 / np.asarray(th))
    with pytest.raises(DomainError, match="inconsistent with log_norm"):
        intrinsic_loss(off, 1.0, 0.999)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,theta,delta", [
    ("poisson", 1.0, -800.0), ("exponential", 1e-300, 1e300),
])
def test_overflow_is_a_domain_error(name, theta, delta):
    with pytest.raises(DomainError, match="overflows the float range"):
        intrinsic_loss(builtin_family(name), theta, delta)
    with pytest.raises(DomainError, match="overflows the float range"):
        intrinsic_loss(builtin_family(name), theta, np.array([delta, theta]))
