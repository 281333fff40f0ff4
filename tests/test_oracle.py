"""Brute-force oracle checks: grid minimax, regret curves, KL quadrature."""

import dataclasses
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from gminimax import oracle
from gminimax import (
    ConjugatePrior,
    ConvergenceError,
    DomainError,
    SpecificationError,
    bayes_estimate,
    grid_minimax,
    intrinsic_loss,
    kl_quadrature,
    builtin_family,
    family_from_config,
    posterior_regret,
    prgm_conjugate_box,
    prior_box,
    PriorBox,
    regret_curve,
)


class TestGridMinimax:
    def test_exponential_box_localizes_closed_form(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        report = prgm_conjugate_box(exponential, box, 2.0)
        res = grid_minimax(exponential, box, 2.0)
        assert abs(res.argmin - report.estimate) <= res.resolution_bound
        assert abs(res.minimax_value - report.equalized_regret) <= res.resolution_bound
        assert res.corner_violation <= 1e-12
        assert res.n_lattice <= 81

    def test_full_box_lattice_is_nine_by_nine(self, normal):
        # No two (alpha, lambda) of this box's lattice share a Bayes
        # estimate, so none of the 9 x 9 points merge.
        box = prior_box(normal, 0.7, 2.3, -1.1, 0.9)
        assert grid_minimax(normal, box, 0.3).n_lattice == 81

    def test_rejects_action_grid_below_three_points(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        with pytest.raises(SpecificationError, match="action grid"):
            grid_minimax(exponential, box, 2.0, n_delta=2)

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
        fine = grid_minimax(exponential, box, 2.0, n_delta=4000)
        coarse = grid_minimax(exponential, box, 2.0, n_delta=500)
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


    @pytest.mark.parametrize("name,a_lo,a_hi,l_lo,l_hi,x", [
        ("exponential", 1.0, 3.0, 1.0, 2.0, 2.0),
        ("normal", 0.5, 2.0, -1.0, 1.0, 0.3),
    ])
    def test_labels_match_exact_regrets(self, name, a_lo, a_hi, l_lo, l_hi, x):
        fam = builtin_family(name)
        box = prior_box(fam, a_lo, a_hi, l_lo, l_hi)
        deltas, _, labels = regret_curve(fam, box, x)
        lattice = oracle._lattice_estimates(fam, box, x)
        winner = np.argmax([posterior_regret(fam, float(b), deltas) for b in lattice],
                           axis=0)
        names = {0: "lo", len(lattice) - 1: "hi"}
        assert labels == [names.get(int(i), "interior") for i in winner]

    def test_near_point_box_labels_every_row(self, exponential):
        box = prior_box(exponential, 2.0, 2.0 + 1e-9, 1.0, 1.0 + 1e-9)
        deltas, sup, labels = regret_curve(exponential, box, 3.0)
        assert len(labels) == len(deltas) == 2000
        assert set(labels) <= {"lo", "hi", "interior"}
        assert np.all(sup >= 0)


class TestCornerCheck:
    def test_dominance_at_the_estimate(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        assert grid_minimax(exponential, box, 2.0).corner_violation <= 1e-12

    def test_dominance_off_the_estimate(self, poisson):
        # The violation is the worst over the whole padded action grid.
        box = prior_box(poisson, 0.5, 2.5, 0.5, 1.5)
        assert grid_minimax(poisson, box, 2).corner_violation <= 1e-12


# The exponential as a config family: expressions instead of lambdas.
EXP_TWIN = dict(name="exponential_twin", support=[0, None], log_norm="log(theta)",
                mean_range=[0, None], jeffreys_shift=[-1, 0])


def _family(name):
    return family_from_config(dict(EXP_TWIN)) if name == "twin" else builtin_family(name)


def _brute_force(fam, lattice, deltas):
    """Worst exact regret over the lattice, and its lattice index."""
    regs = np.array([posterior_regret(fam, float(b), deltas) for b in lattice])
    return regs.max(axis=0), regs.argmax(axis=0)


def _rounding_bound(fam, lattice, deltas):
    """Rounding bound of the line form of the lattice supremum."""
    psi_b, m_b = fam.log_norm(lattice), fam.mean(lattice)
    psi_d = fam.log_norm(deltas)
    return 4.0 * np.finfo(float).eps * (np.max(np.abs(psi_b) + np.abs(lattice * m_b))
                                        + np.max(np.abs(m_b)) * np.abs(deltas)
                                        + np.abs(psi_d))


@st.composite
def _instances(draw):
    """A family, a box drawn inside its propriety region, and an observation.

    Box widths include 0 and relative widths of 1e-9 and 1e-6, whose
    lattices are nearly a point."""
    name = draw(st.sampled_from(["normal", "exponential", "binomial_logit(5)",
                                 "poisson", "twin"]))
    width = st.sampled_from([0.0, 1e-9, 1e-6]) | st.floats(0.01, 2.0)

    def span(lo, hi):
        start = draw(st.floats(lo, hi))
        return start, start + draw(width) * max(1.0, abs(start))

    if name == "binomial_logit(5)":
        l_lo, l_hi = span(0.2, 2.0)
        a_lo, a_hi = span(l_hi + 0.1, l_hi + 1.0)
        x = float(draw(st.integers(0, 5)))
    else:
        a_lo, a_hi = span(-0.5, 3.0)
        l_lo, l_hi = span(-2.0, 2.0) if name == "normal" else span(0.1, 3.0)
        x = {"normal": draw(st.floats(-3.0, 3.0)),
             "poisson": float(draw(st.integers(0, 12)))}.get(
                 name, draw(st.floats(0.2, 5.0)))
    fam = _family(name)
    return fam, PriorBox(fam, a_lo, a_hi, l_lo, l_hi), x


class TestEnvelope:
    @settings(max_examples=60, deadline=None)
    @given(_instances())
    def test_supremum_and_argmin_match_brute_force(self, instance):
        fam, box, x = instance
        lattice = oracle._lattice_estimates(fam, box, x)
        sweep = oracle._sweep(fam, lattice, 2000)
        brute, _ = _brute_force(fam, lattice, sweep.deltas)
        bound = _rounding_bound(fam, lattice, sweep.deltas)
        # Each side is within one rounding bound of the exact supremum.
        assert np.all(np.abs(sweep.sup - brute) <= 2.0 * bound)
        res = grid_minimax(fam, box, x)
        assert abs(res.argmin - sweep.deltas[np.argmin(brute)]) <= res.resolution_bound

    @pytest.mark.parametrize("name", ["normal", "exponential", "binomial_logit(5)",
                                      "poisson", "twin"])
    def test_near_point_lattice_takes_the_guard(self, name):
        # Regrets of order 1e-20 under log-normalizers of order 1: the
        # lines cancel, so every action gets the exact regrets.
        fam = _family(name)
        box = PriorBox(fam, 2.0, 2.0 + 1e-9, 1.0, 1.0 + 1e-9)
        lattice = oracle._lattice_estimates(fam, box, 2.0)
        sweep = oracle._sweep(fam, lattice, 2000)
        assert sweep.guarded.all()
        brute, winner = _brute_force(fam, lattice, sweep.deltas)
        assert np.array_equal(sweep.sup, brute)
        assert np.array_equal(sweep.arg, winner)
        assert grid_minimax(fam, box, 2.0).corner_violation == 0.0

    def test_exact_regrets_only_at_guarded_actions(self, exponential, monkeypatch):
        evaluated = []

        def counted(fam, b, deltas):
            evaluated.append(np.size(deltas))
            return posterior_regret(fam, b, deltas)

        monkeypatch.setattr(oracle, "posterior_regret", counted)
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        res = grid_minimax(exponential, box, 2.0)
        assert evaluated == []
        near = prior_box(exponential, 2.0, 2.0 + 1e-9, 1.0, 1.0 + 1e-9)
        lattice = oracle._lattice_estimates(exponential, near, 3.0)
        sweep = oracle._sweep(exponential, lattice, 2000)
        assert evaluated == [int(sweep.guarded.sum())] * len(lattice)
        assert res.corner_violation == 0.0


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
    def test_two_quadratures_per_interval_call(self, name, monkeypatch):
        # Z(theta) together with E_theta[stat] on the same nodes, then
        # Z(delta) alone.
        calls = []
        peak_integrals = oracle._peak_integrals

        def counted(*args):
            calls.append(args[1:])
            return peak_integrals(*args)

        monkeypatch.setattr(oracle, "_peak_integrals", counted)
        kl_quadrature(builtin_family(name), 2.0, 3.0)
        assert len(calls) == 2

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

    def test_sum_past_the_term_cap_is_refused(self, poisson):
        # A rate near 1.1e7: its terms peak past the 2^20 that one sum takes.
        with pytest.raises(DomainError, match="more than 1048576 terms"):
            kl_quadrature(poisson, -16.2, -16.1)

    def test_zero_on_diagonal(self, poisson):
        assert kl_quadrature(poisson, 0.8, 0.8) == 0.0

    def test_refuses_unregistered_family(self, exponential):
        # The model travels with the family, not with its name.
        renamed = dataclasses.replace(exponential, name="renamed_rate")
        assert kl_quadrature(renamed, 1.0, 2.0) == kl_quadrature(exponential, 1.0, 2.0)
        stranger = dataclasses.replace(exponential, log_carrier=None,
                                       sample_space=None, propriety=None)
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
