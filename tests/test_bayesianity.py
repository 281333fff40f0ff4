"""Witness constructions certifying box-minimax actions as Bayes."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from gminimax import (
    ConjugatePrior,
    DomainError,
    MixturePath,
    SpecificationError,
    bayes_estimate,
    connected_path_witness,
    data_independent_alpha,
    data_independent_alpha_exponential,
    data_independent_alpha_exponential_jcp,
    data_independent_alpha_normal,
    iprgm_jcp_box,
    mixture_witness,
    prgm_conjugate_box,
    prior_box,
)

# prgm estimate for the exponential alpha-only box (1,3) at lam=1, x=2
GAMMA1_ESTIMATE = 0.9241962407465937


def exp_mixture_ratio(t, a0, l0, a1, l1, x):
    """Mixture posterior mean of the mean function, by Gamma arithmetic.

    Deliberately avoids the library quadrature: with density shape
    theta^alpha e^{-lam theta} and likelihood shape theta e^{-theta x},
    each component's marginal and mean-weighted integrals are Gamma
    ratios, so psi(t) comes out in closed form.
    """
    def pieces(a, l):
        b = math.exp(
            gammaln(a + 2.0) - (a + 2.0) * math.log(l + x)
            - gammaln(a + 1.0) + (a + 1.0) * math.log(l)
        )
        return b * (l + x) / (a + 1.0), b

    a_hi, b_hi = pieces(a0, l0)
    a_lo, b_lo = pieces(a1, l1)
    t = np.asarray(t, dtype=float)
    return (t * a_hi + (1.0 - t) * a_lo) / (t * b_hi + (1.0 - t) * b_lo)


class TestMixtureWitness:
    def make_path(self, fam, a0, l0, a1, l1):
        return MixturePath(
            ConjugatePrior(fam, a0, l0), ConjugatePrior(fam, a1, l1)
        )

    def test_reproduces_box_minimax_action(self, exponential):
        path = self.make_path(exponential, 1.0, 1.0, 3.0, 1.0)
        cert = mixture_witness(exponential, path, 2.0, GAMMA1_ESTIMATE)
        assert cert.kind == "mixture"
        assert 0.0 < cert.witness["t"] < 1.0
        assert cert.residual < 1e-8

    def test_weight_agrees_with_direct_scan(self, exponential):
        path = self.make_path(exponential, 1.0, 1.0, 3.0, 1.0)
        cert = mixture_witness(exponential, path, 2.0, GAMMA1_ESTIMATE)
        target_mean = 1.0 / GAMMA1_ESTIMATE
        ts = np.linspace(0.0, 1.0, 2001)
        gap = exp_mixture_ratio(ts, 1.0, 1.0, 3.0, 1.0, 2.0) - target_mean
        crossings = np.nonzero(np.diff(np.sign(gap)) != 0)[0]
        assert len(crossings) == 1
        k = crossings[0]
        assert ts[k] <= cert.witness["t"] <= ts[k + 1]
        # and the witness weight solves the same equation exactly
        assert float(
            exp_mixture_ratio(cert.witness["t"], 1.0, 1.0, 3.0, 1.0, 2.0)
        ) == pytest.approx(target_mean, rel=1e-9)

    def test_component_action_gets_boundary_certificate(self, exponential):
        path = self.make_path(exponential, 1.0, 1.0, 3.0, 1.0)
        b0 = bayes_estimate(exponential, ConjugatePrior(exponential, 1.0, 1.0), 2.0)
        cert = mixture_witness(exponential, path, 2.0, b0.estimate)
        assert cert.kind == "boundary"
        assert cert.witness["t"] == 1.0
        assert cert.residual < 1e-10

    def test_target_outside_component_range(self, exponential):
        path = self.make_path(exponential, 1.0, 1.0, 3.0, 1.0)
        with pytest.raises(DomainError, match="straddle"):
            mixture_witness(exponential, path, 2.0, 0.4)

    def test_normal_mixture(self, normal):
        # straddling components on the location family
        path = self.make_path(normal, 0.5, -1.0, 0.5, 2.0)
        lo = bayes_estimate(normal, ConjugatePrior(normal, 0.5, -1.0), 0.0).estimate
        hi = bayes_estimate(normal, ConjugatePrior(normal, 0.5, 2.0), 0.0).estimate
        target = 0.5 * (lo + hi)
        cert = mixture_witness(normal, path, 0.0, target)
        assert cert.kind == "mixture"
        assert cert.residual < 1e-8


class TestConnectedPathWitness:
    def test_alpha_only_exponential_box(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 1.0)
        report = prgm_conjugate_box(exponential, box, 2.0)
        assert report.estimate == pytest.approx(GAMMA1_ESTIMATE, rel=1e-12)
        cert = connected_path_witness(exponential, box, 2.0, report.estimate)
        assert cert.kind == "path"
        assert cert.residual < 1e-10
        assert cert.witness["lam"] == 1.0
        # invert the posterior-mean relation by hand: the witness alpha
        # must satisfy estimate = (alpha + 1)/(lam + x)
        alpha_expected = report.estimate * (1.0 + 2.0) - 1.0
        assert cert.witness["alpha"] == pytest.approx(alpha_expected, abs=1e-9)
        # which is the data-independent closed form
        assert alpha_expected == pytest.approx(
            data_independent_alpha_exponential(1.0, 3.0), abs=1e-9
        )

    def test_full_box_witness(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        report = prgm_conjugate_box(exponential, box, 2.0)
        cert = connected_path_witness(exponential, box, 2.0, report.estimate)
        assert cert.kind == "path"
        assert cert.residual < 1e-9
        a, l = cert.witness["alpha"], cert.witness["lam"]
        assert 1.0 <= a <= 3.0 and 1.0 <= l <= 2.0
        got = bayes_estimate(
            exponential, ConjugatePrior(exponential, a, l), 2.0
        ).estimate
        assert got == pytest.approx(report.estimate, abs=1e-9)

    def test_jcp_box_witness(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 1.0, "jcp")
        report = iprgm_jcp_box(exponential, box, 2.0)
        cert = connected_path_witness(exponential, box, 2.0, report.estimate)
        assert cert.kind == "path"
        assert cert.residual < 1e-9
        got = bayes_estimate(
            exponential,
            ConjugatePrior(exponential, cert.witness["alpha"], 1.0, "jcp"),
            2.0,
        ).estimate
        assert got == pytest.approx(report.estimate, abs=1e-9)

    def test_point_box_is_boundary(self, exponential):
        box = prior_box(exponential, 2.0, 2.0, 1.0, 1.0)
        target = bayes_estimate(
            exponential, ConjugatePrior(exponential, 2.0, 1.0), 3.0
        ).estimate
        cert = connected_path_witness(exponential, box, 3.0, target)
        assert cert.kind == "boundary"
        assert cert.residual < 1e-12

    def test_target_outside_bayes_range(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="outside"):
            connected_path_witness(exponential, box, 2.0, 5.0)


class TestDataIndependentAlpha:
    def test_normal_constant_witness(self, normal):
        box = prior_box(normal, 1.0, 3.0, 0.5, 0.5)
        cert = data_independent_alpha(normal, box, np.linspace(-3.0, 4.0, 15))
        assert cert.kind == "data_independent"
        assert cert.constancy_spread <= 1e-10
        assert cert.residual < 1e-8
        assert cert.witness["alpha"] == pytest.approx(5.0 / 3.0, abs=1e-8)
        assert cert.witness["alpha"] == pytest.approx(
            data_independent_alpha_normal(1.0, 3.0), abs=1e-10
        )

    def test_exponential_constant_witness(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 1.0)
        cert = data_independent_alpha(exponential, box, np.linspace(0.5, 6.0, 15))
        assert cert.constancy_spread <= 1e-10
        expected = 4.0 * math.log(2.0) - 1.0
        assert cert.witness["alpha"] == pytest.approx(expected, abs=1e-8)
        assert data_independent_alpha_exponential(1.0, 3.0) == pytest.approx(
            expected, rel=1e-15
        )
        assert data_independent_alpha_exponential(2.0, 2.0) == 2.0

    def test_exponential_jcp_constant_witness(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 1.0, "jcp")
        cert = data_independent_alpha(exponential, box, np.linspace(0.5, 6.0, 15))
        assert cert.constancy_spread <= 1e-10
        assert cert.witness["alpha"] == pytest.approx(1.5 * math.log(3.0), abs=1e-8)

    def test_jcp_closed_form_is_log_mean(self):
        # reciprocal of the witness equals the logarithmic mean of the
        # reciprocal edges: (u - v)/(log u - log v) at u=1/a1, v=1/a2
        a1, a2 = 1.0, 3.0
        val = data_independent_alpha_exponential_jcp(a1, a2)
        u, v = 1.0 / a1, 1.0 / a2
        log_mean = (u - v) / (math.log(u) - math.log(v))
        assert 1.0 / val == pytest.approx(log_mean, rel=1e-12)
        assert data_independent_alpha_exponential_jcp(2.0, 2.0) == 2.0

    def test_rejects_boxes_with_varying_lambda(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        with pytest.raises(SpecificationError, match="degenerate"):
            data_independent_alpha(exponential, box, [1.0, 2.0])

    def test_degenerate_observations_are_skipped(self, normal):
        # x equal to lambda collapses every corner to the same action;
        # a grid containing such a point must still succeed on the rest
        box = prior_box(normal, 1.0, 3.0, 0.5, 0.5)
        cert = data_independent_alpha(normal, box, [0.5, 1.5, 2.5])
        assert cert.witness["alpha"] == pytest.approx(5.0 / 3.0, abs=1e-8)

    def test_all_degenerate_grid_fails(self, normal):
        box = prior_box(normal, 1.0, 3.0, 0.5, 0.5)
        with pytest.raises(DomainError, match="undetermined"):
            data_independent_alpha(normal, box, [0.5])
