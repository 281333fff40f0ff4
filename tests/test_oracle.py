"""Brute-force oracle checks: grid minimax, regret curves, KL quadrature."""

import dataclasses
import math

import numpy as np
import pytest

from gminimax import priors
from gminimax import (
    ConjugatePrior,
    ConvergenceError,
    DomainError,
    GridSpec,
    SpecificationError,
    bayes_estimate,
    grid_minimax,
    intrinsic_loss,
    kl_quadrature,
    builtin_family,
    prgm_conjugate_box,
    prior_box,
    regret_curve,
    sup_regret_corner_check,
)


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec()
        assert g.n_delta == 2000
        assert g.n_corner == 9
        assert g.padding == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n_delta=2), dict(n_corner=1), dict(padding=-0.1)],
    )
    def test_rejects_unusable_grids(self, kwargs):
        with pytest.raises(SpecificationError):
            GridSpec(**kwargs)


class TestGridMinimax:
    def test_exponential_box_localizes_closed_form(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        report = prgm_conjugate_box(exponential, box, 2.0)
        res = grid_minimax(exponential, box, 2.0)
        assert abs(res.argmin - report.estimate) <= res.resolution_bound
        assert abs(res.minimax_value - report.equalized_regret) <= res.resolution_bound
        assert res.corner_violation <= 1e-12
        assert res.n_lattice <= 81
        assert res.spacing > 0

    def test_normal_box_localizes_midpoint(self, normal):
        box = prior_box(normal, 0.5, 2.0, -1.0, 1.0)
        report = prgm_conjugate_box(normal, box, 0.3)
        res = grid_minimax(normal, box, 0.3)
        assert report.estimate == pytest.approx(
            0.5 * (report.delta_lo + report.delta_hi), rel=1e-12
        )
        assert abs(res.argmin - report.estimate) <= res.resolution_bound
        assert res.corner_violation <= 1e-12

    def test_binomial_box(self, binomial5):
        box = prior_box(binomial5, 2.0, 6.0, 0.5, 1.5)
        report = prgm_conjugate_box(binomial5, box, 3)
        res = grid_minimax(binomial5, box, 3)
        assert abs(res.argmin - report.estimate) <= res.resolution_bound
        assert res.corner_violation <= 1e-12

    def test_point_box_recovers_bayes(self, exponential):
        # A single admissible prior: the sweep should find the Bayes
        # action and a worst-case regret of numerically zero.
        box = prior_box(exponential, 2.0, 2.0, 1.0, 1.0)
        res = grid_minimax(exponential, box, 3.0)
        b = bayes_estimate(exponential, ConjugatePrior(exponential, 2.0, 1.0), 3.0)
        assert res.n_lattice == 1
        assert abs(res.argmin - b.estimate) <= res.resolution_bound
        assert res.minimax_value <= res.resolution_bound

    def test_coarser_grid_widens_bound(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        fine = grid_minimax(exponential, box, 2.0, GridSpec(n_delta=4000))
        coarse = grid_minimax(exponential, box, 2.0, GridSpec(n_delta=500))
        assert coarse.resolution_bound > fine.resolution_bound
        assert abs(coarse.argmin - fine.argmin) <= coarse.resolution_bound


class TestRegretCurve:
    def test_extremes_trade_off_once(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        deltas, sup, labels = regret_curve(exponential, box, 2.0)
        assert len(deltas) == len(sup) == len(labels) == 2000
        assert np.all(np.diff(deltas) > 0)
        assert set(labels) == {"lo", "hi"}
        # Worst case comes from the far extreme, so the label sequence
        # switches exactly once, hi before the crossing and lo after.
        switches = sum(
            1 for i in range(1, len(labels)) if labels[i] != labels[i - 1]
        )
        assert switches == 1
        assert labels[0] == "hi" and labels[-1] == "lo"

    def test_minimum_matches_estimator(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        report = prgm_conjugate_box(exponential, box, 2.0)
        deltas, sup, _ = regret_curve(exponential, box, 2.0)
        k = int(np.argmin(sup))
        spacing = float(deltas[1] - deltas[0])
        assert abs(deltas[k] - report.estimate) <= 2 * spacing
        assert sup[k] >= 0

    def test_normal_curve_is_piecewise_quadratic(self, normal):
        # With quadratic regret the lattice supremum must equal the
        # max of the two corner parabolas everywhere on the grid.
        box = prior_box(normal, 0.5, 2.0, -1.0, 1.0)
        report = prgm_conjugate_box(normal, box, 0.3)
        deltas, sup, labels = regret_curve(normal, box, 0.3)
        lo, hi = report.delta_lo, report.delta_hi
        expected = np.maximum(
            0.5 * (deltas - lo) ** 2, 0.5 * (deltas - hi) ** 2
        )
        assert float(np.max(np.abs(sup - expected))) < 1e-9
        assert "interior" not in labels


class TestCornerCheck:
    def test_dominance_at_the_estimate(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        report = prgm_conjugate_box(exponential, box, 2.0)
        which, violation = sup_regret_corner_check(
            exponential, box, 2.0, report.estimate
        )
        assert which in ("lo", "hi")
        assert violation <= 1e-12

    def test_dominance_off_the_estimate(self, poisson):
        box = prior_box(poisson, 0.5, 2.5, 0.5, 1.5)
        for delta in (-0.4, 0.1, 0.9):
            _, violation = sup_regret_corner_check(poisson, box, 2, delta)
            assert violation <= 1e-12

    def test_rejects_delta_outside_support(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            sup_regret_corner_check(exponential, box, 2.0, -1.0)


class TestKLQuadrature:
    def test_normal_frozen(self, normal):
        # Half squared distance between unit-variance means.
        assert kl_quadrature(normal, 1.0, 3.0) == pytest.approx(2.0, rel=1e-10)

    def test_exponential_frozen(self, exponential):
        # log(1/2) + (2-1)*1 = 1 - log 2.
        assert kl_quadrature(exponential, 1.0, 2.0) == pytest.approx(
            0.3068528194400547, rel=1e-10
        )

    @pytest.mark.parametrize(
        "name,theta,delta",
        [
            ("normal", -0.7, 1.1),
            ("exponential", 0.4, 2.5),
            ("binomial_logit(5)", 0.3, -0.7),
            ("binomial_logit(5)", -1.2, 0.8),
            ("poisson", 1.2, 0.4),
            ("poisson", -0.3, 0.9),
        ],
    )
    def test_matches_closed_form_loss(self, name, theta, delta):
        fam = builtin_family(name)
        direct = intrinsic_loss(fam, theta, delta)
        oracle = kl_quadrature(fam, theta, delta)
        assert oracle == pytest.approx(direct, rel=1e-8, abs=1e-10)

    def test_trials_scale_linearly(self):
        # n independent trials carry n times the per-trial divergence.
        one = kl_quadrature(builtin_family("binomial(n=1)"), 0.3, -0.7)
        five = kl_quadrature(builtin_family("binomial(n=5)"), 0.3, -0.7)
        assert five == pytest.approx(5.0 * one, rel=1e-10)

    @pytest.mark.parametrize("name", ["normal", "exponential"])
    def test_three_quadratures_per_interval_call(self, name, monkeypatch):
        # Z(theta) and E_theta[stat], then Z(delta) alone.
        calls = []
        quad_split = priors._quad_split

        def counted(*args):
            calls.append(args[1:])
            return quad_split(*args)

        monkeypatch.setattr(priors, "_quad_split", counted)
        kl_quadrature(builtin_family(name), 2.0, 3.0)
        assert len(calls) == 3

    def test_quadrature_failure_states_what_it_measured(self, normal):
        # Round-off in a log integrand of size theta^2/2; no prior involved.
        with pytest.raises(ConvergenceError) as info:
            kl_quadrature(normal, 3e4, 3e4 + 1.5)
        message = str(info.value)
        assert "exceeds the tolerance" in message and "[-inf, inf]" in message
        assert "improper" not in message and "wild" not in message

    def test_poisson_sum_over_several_doublings(self, poisson):
        # A rate near 3000 needs 4096 terms: six doublings past the first
        # 64, each evaluating only its new terms.  The bits are those of
        # one pass over all the terms.
        assert kl_quadrature(poisson, -8.0, -7.9) == float.fromhex("0x1.cd71c94be5f00p+3")
        assert kl_quadrature(poisson, -8.0, -7.9) == pytest.approx(
            intrinsic_loss(poisson, -8.0, -7.9), rel=1e-10)

    def test_zero_on_diagonal(self, poisson):
        assert kl_quadrature(poisson, 0.8, 0.8) == 0.0

    def test_refuses_unregistered_family(self, exponential):
        # The model travels with the family, not with its name.
        renamed = dataclasses.replace(exponential, name="renamed_rate")
        assert kl_quadrature(renamed, 1.0, 2.0) == kl_quadrature(exponential, 1.0, 2.0)
        stranger = dataclasses.replace(exponential, log_carrier=None,
                                       sample_space=None)
        with pytest.raises(SpecificationError, match="sampling model"):
            kl_quadrature(stranger, 1.0, 2.0)

    def test_rejects_out_of_support(self, exponential):
        with pytest.raises(DomainError):
            kl_quadrature(exponential, -1.0, 2.0)

    @pytest.mark.parametrize("name", ["normal", "exponential", "binomial(n=1)",
                                      "binomial_logit(5)", "poisson"])
    def test_needs_no_estimator_formulas(self, name):
        # The oracle normalizes the model itself: a family whose log_norm,
        # mean and mean_deriv all raise gives the same divergences.
        fam = builtin_family(name)

        def refuse(theta):
            raise AssertionError("the KL oracle called an estimator formula")

        blind = dataclasses.replace(fam, log_norm=refuse, mean=refuse,
                                    mean_deriv=refuse)
        for theta, delta in ((0.3, 1.1), (1.4, 0.9), (2.0, 2.0)):
            assert kl_quadrature(blind, theta, delta) == kl_quadrature(
                fam, theta, delta)

    @pytest.mark.parametrize("theta", [60.0, 300.0, -1e4])
    def test_normal_far_outside_the_scan_window(self, normal, theta):
        assert kl_quadrature(normal, theta, theta + 1.5) == pytest.approx(
            1.125, rel=1e-10)

    @pytest.mark.parametrize("theta", [1e-7, 1e-4, 1e4, 1e7])
    def test_exponential_at_every_scale(self, exponential, theta):
        # log(1/2) + 1 at any rate: the half-line is integrated in log x.
        assert kl_quadrature(exponential, theta, 2.0 * theta) == pytest.approx(
            1.0 - math.log(2.0), rel=1e-10)


# Values of the per-family oracle this package used before the families
# carried their sampling model (scipy.stats densities and mass functions,
# quad split at the mean); the generic oracle must reproduce them.
FROZEN_KL = [
    ("normal", 50.0, 51.0, 0.5000000000000002),
    ("normal", 50.0, 48.5, 1.1250000000000002),
    ("normal", -0.7, 1.1, 1.62),
    ("normal", -3.0, 2.0, 12.5),
    ("exponential", 0.001, 0.002, 0.3068528194400546),
    ("exponential", 1000.0, 700.0, 0.05667494393873303),
    ("exponential", 0.4, 2.5, 3.4174185362516902),
    ("exponential", 3.0, 2.9, 0.0005682183423480515),
    ("binomial(n=1)", 0.3, -0.7, 0.12327332122858975),
    ("binomial(n=1)", -2.0, 1.5, 1.1572750398623681),
    ("binomial_logit(5)", 0.3, -0.7, 0.6163666061429485),
    ("binomial_logit(5)", -1.2, 0.8, 2.224338828038908),
    ("binomial_logit(20)", 2.0, -1.0, 16.574498208177925),
    ("poisson", -5.0, -4.5, 15.810551749233078),
    ("poisson", -5.0, -5.2, 3.176450952059235),
    ("poisson", 1.2, 0.4, 0.1281704645936755),
    ("poisson", -0.3, 0.9, 0.6765414212558002),
]


@pytest.mark.parametrize("name,theta,delta,value", FROZEN_KL)
def test_kl_matches_frozen_per_family_values(name, theta, delta, value):
    got = kl_quadrature(builtin_family(name), theta, delta)
    assert got == pytest.approx(value, rel=1e-10)
