"""Intrinsic loss values, posterior risk identity, nonnegativity."""

import dataclasses
import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate

from gminimax import (
    DomainError,
    SpecificationError,
    builtin_family,
    family_from_config,
    intrinsic_loss,
    posterior_regret,
    prgm_from_bounds,
)
from gminimax.losses import RESOLUTION


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

    # E[L(theta, d)] = E[log_norm] - log_norm(d) + d*E[mean] - E[theta*mean]
    risk_at = lambda d: (e_log_norm - float(normal.log_norm(d)) + d * e_mean
                         - e_theta_mean)
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
    risks = [e_log_norm - float(normal.log_norm(d)) + d * e_mean - e_theta_mean
             for d in grid]
    assert abs(float(grid[int(np.argmin(risks))]) - m) <= (grid[1] - grid[0])


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_diagonal_is_zero_at_extreme_scale(exponential, scale):
    # 1/theta^2 under- or overflows there; a zero-width integral is 0.
    assert intrinsic_loss(exponential, scale, scale) == 0.0
    twin = family_from_config({"name": "exp_twin", "support": [0, None],
                               "log_norm": "log(theta)"})
    for fam in (exponential, twin):
        got = intrinsic_loss(fam, np.array([scale, 1.0]),
                             np.array([scale, 1.0 + 1e-9]))
        assert got[0] == 0.0
        assert got[1] == pytest.approx(0.5e-18, rel=1e-6)  # h^2/2 - h^3/3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,theta", [
    ("normal", 1e200), ("exponential", 5e-324), ("poisson", -800.0),
])
def test_diagonal_is_zero_where_the_closed_form_overflows(name, theta):
    # log_norm or mean leaves the float range at theta, so the closed form
    # is inf - inf or 0 * inf there; a model against itself still loses 0.
    fam = builtin_family(name)
    assert intrinsic_loss(fam, theta, theta) == 0.0
    got = intrinsic_loss(fam, np.array([theta, 1.0]), np.array([theta, 2.0]))
    assert got.tolist() == [0.0, intrinsic_loss(fam, np.array([1.0]), np.array([2.0]))[0]]
    assert intrinsic_loss(fam, np.full(3, theta), theta).tolist() == [0.0] * 3
    # Off the diagonal the same pair still overflows, named as before.
    far = 2.0 * theta
    with pytest.raises(DomainError, match="overflows the float range"):
        intrinsic_loss(fam, np.array([theta, theta]), np.array([theta, far]))


def test_no_exact_diagonal_pair_reaches_the_integral(monkeypatch):
    # The invariance suite evaluates the regret gap at both ends of its
    # bracket, where the action is a Bayes estimate itself.  Only the one
    # pair of the suite that is near, not on, the diagonal is integrated.
    from gminimax import losses
    from gminimax.verify import run_suite

    calls = []
    rule = losses._kl_rule

    def counted():  # once per pair on the float path
        calls.append(1)
        return rule()

    monkeypatch.setattr(losses, "_kl_rule", counted)
    run_suite("invariance", 42, 10)
    assert len(calls) == 1


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


@pytest.mark.parametrize("theta,delta", [
    (1e200, 1.000000000000001e200), (1e160, 1.1e160),
])
def test_underflowed_information_is_a_domain_error(exponential, theta, delta):
    # The closed form cancels and 1/theta^2 is 0 at every node; the true
    # loss (5e-31 for the first pair) is in range, but nothing resolves it.
    for th, de in ((theta, delta), (np.array([1.0, theta]), np.array([2.0, delta]))):
        with pytest.raises(DomainError) as info:
            intrinsic_loss(exponential, th, de)
        assert str(info.value) == (
            f"the intrinsic loss of exponential_rate at theta={theta!r}, "
            f"delta={delta!r} is below what the closed form resolves, and the "
            "Fisher information that would resolve it underflows to 0 between them")


def test_underflowed_information_in_the_equalizer(exponential):
    with pytest.raises(DomainError, match="underflows to 0"):
        prgm_from_bounds(exponential, 1e300, 1e300 * (1 + 1e-9))


def test_a_zero_information_is_still_blamed_on_the_family(exponential):
    # The mean moves between theta and delta, so a zero information there
    # is the family's fault, not underflow.
    flat = dataclasses.replace(exponential, mean_deriv=lambda th: 0.0 * th)
    with pytest.raises(SpecificationError, match="non-positive Fisher information"):
        intrinsic_loss(flat, 1.0, 1.0 + 1e-9)


def test_inconsistent_mean_is_still_refused(exponential):
    off = dataclasses.replace(exponential, mean=lambda th: 1.01 / np.asarray(th))
    with pytest.raises(DomainError, match="inconsistent with log_norm"):
        intrinsic_loss(off, 1.0, 0.999)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,theta,delta", [
    ("poisson", 1.0, -800.0), ("exponential", 1e-300, 1e300),
])
def test_overflow_is_a_domain_error(name, theta, delta):
    # Floats and arrays get the one message, from the one place that raises it.
    fam = builtin_family(name)
    # Each names the first offending pair as floats, on one line.
    for th, de in ((theta, delta), (np.array([theta]), np.array([delta])),
                   (theta, np.array([delta, theta])),
                   (np.full(8, theta), np.full(8, delta))):
        with pytest.raises(DomainError) as info:
            intrinsic_loss(fam, th, de)
        assert str(info.value) == (f"intrinsic loss for {fam.name} at theta={theta!r}, "
                                   f"delta={delta!r} overflows the float range")


# The float branch of intrinsic_loss against the array path on 0-d arrays.
# A built-in's mappings on floats, like a config family's, run
# math's exp and log, which may round otherwise than numpy's: where the
# float branch answers, the loss keeps the 38 bits the branch promises, and
# where it falls through to the array path, the bits.  The normal family's
# mappings are arithmetic alone, and both paths sum the near-diagonal rule
# in one order, so its bits agree everywhere.
_BINOMIAL_TWIN = family_from_config({
    "name": "binomial_twin", "support": [None, None],
    "log_norm": "-5*log(1 + exp(-theta))", "mean": "5/(1 + exp(theta))",
    "mean_deriv": "-5*exp(theta)/(1 + exp(theta))^2", "mean_range": [0, 5],
})
_FLOAT_PATH_CASES = [
    (builtin_family("normal"), -1e3, 1e3),
    (builtin_family("exponential"), 1e-3, 1e3),
    (builtin_family("binomial_logit(5)"), -25.0, 25.0),
    (builtin_family("poisson"), -6.0, 6.0),
    (_BINOMIAL_TWIN, -25.0, 25.0),
]


@pytest.mark.parametrize("fam,lo,hi", _FLOAT_PATH_CASES,
                         ids=[c[0].name for c in _FLOAT_PATH_CASES])
@given(theta=st.floats(0.0, 1.0), step=st.one_of(
    st.floats(-0.5, 0.5),                        # far from the diagonal
    st.integers(-4096, 4096).map(lambda k: k * 2.0 ** -52),  # near it
))
@settings(max_examples=200, deadline=None)
def test_float_path_matches_array_path(fam, lo, hi, theta, step):
    theta = lo + theta * (hi - lo)
    delta = theta + step * max(1.0, abs(theta))
    if not lo <= delta <= hi:
        delta = theta - step * max(1.0, abs(theta))
    try:
        want = float(intrinsic_loss(fam, np.array(theta), np.array(delta)))
    except DomainError as exc:  # the float branch must fall through to it
        with pytest.raises(DomainError, match=re.escape(str(exc).split(" at theta=")[0])):
            intrinsic_loss(fam, theta, delta)
        return
    arguments = []
    spy = dataclasses.replace(
        fam, log_norm=lambda th: arguments.append(th) or fam.log_norm(th))
    got = intrinsic_loss(spy, theta, delta)
    assert type(got) is float
    fell_through = any(type(a) is np.ndarray for a in arguments)
    if fell_through or fam.name == "normal_mean_unitvar":
        assert got.hex() == want.hex()
    else:
        assert abs(got - want) <= 4 * RESOLUTION * want


def test_cancelling_log_norm_is_refused_at_a_named_pair():
    # log(1 + exp(-theta)) cancels at theta = 25 although the twin's mean is
    # consistent: the refusal names the pair and both possible causes.
    for th, de in ((25.0, 24.9999), (np.array([1.0, 25.0]), np.array([1.5, 24.9999]))):
        with pytest.raises(DomainError) as info:
            intrinsic_loss(_BINOMIAL_TWIN, th, de)
        assert str(info.value) == (
            "negative intrinsic loss for binomial_twin at theta=25.0, delta=24.9999: "
            "the mean function is inconsistent with log_norm, or log_norm loses "
            "precision there")
