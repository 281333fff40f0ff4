"""Bayes actions, worst-case-regret minimizers, and transports."""

import dataclasses
import math
import statistics
import warnings

import numpy as np
import pytest

import decimal_reference as ref
from gminimax import (
    ConjugatePrior,
    DomainError,
    FamilySpec,
    MixturePath,
    PriorBox,
    ProprietyError,
    SpecificationError,
    bayes_estimate,
    builtin_family,
    conjugate_prior,
    connected_path_witness,
    data_independent_alpha,
    eta_scale_prgm,
    grid_minimax,
    iprgm_jcp_box,
    make_transform,
    mixture_witness,
    posterior_predictive_mean,
    posterior_regret,
    predictive_mean_quadrature,
    prgm_conjugate_box,
    prgm_from_bounds,
    prior_box,
    regret_curve,
    transport,
)
from gminimax import verify
from gminimax.estimators import EstimateReport, Reparameterization, validate_transform
from gminimax.families import support_grid
from gminimax.priors import mixture_components


class TestBayesAction:
    def test_exponential(self, exponential):
        rep = bayes_estimate(exponential, conjugate_prior(exponential, 1.0, 2.0), 2.0)
        assert rep.estimate == pytest.approx(0.5, rel=1e-15)
        assert rep.method == "bayes"
        assert rep.delta_lo == rep.delta_hi == rep.estimate
        assert rep.equalized_regret == 0.0

    def test_normal_flat(self, normal):
        rep = bayes_estimate(normal, conjugate_prior(normal, 0.0, 0.0), 1.7)
        assert rep.estimate == 1.7

    def test_report_serializes(self, exponential):
        rep = bayes_estimate(exponential, conjugate_prior(exponential, 1.0, 2.0), 2.0)
        d = rep.to_json_dict()
        assert set(d) == {"estimate", "delta_lo", "delta_hi",
                          "equalized_regret", "method", "diagnostics"}


class TestWorstCaseBetweenBounds:
    def test_report_needs_ordered_bounds(self):
        with pytest.raises(SpecificationError, match="delta_lo <= delta_hi"):
            EstimateReport(1.0, 2.0, 1.0, 0.0, "bayes")

    def test_normal_midpoint(self, normal):
        rep = prgm_from_bounds(normal, 0.2, 0.8)
        assert rep.estimate == pytest.approx(0.5, abs=1e-15)
        assert rep.method == "prgm_closed_form"

    def test_exponential_value(self, exponential):
        rep = prgm_from_bounds(exponential, 1.0, 2.0)
        assert rep.estimate == pytest.approx(1.3862943611198906, rel=1e-14)
        # closer to the lower bound than the geometric midpoint: the loss
        # penalizes overestimating the rate less than underestimating it
        assert 1.0 < rep.estimate < 2.0

    def test_binomial_value(self, binomial5):
        rep = prgm_from_bounds(binomial5, -0.5, 0.7)
        assert rep.estimate == pytest.approx(0.0942473188062853, rel=1e-13)
        assert -0.5 < rep.estimate < 0.7

    @pytest.mark.parametrize("name,lo,hi", [
        ("normal", -1.3, 0.4),
        ("exponential", 0.25, 7.0),
        ("binomial_logit(5)", -2.0, 1.5),
        ("poisson", -1.0, 2.0),
    ])
    def test_equalizes_the_two_extreme_regrets(self, name, lo, hi):
        fam = builtin_family(name)
        rep = prgm_from_bounds(fam, lo, hi)
        r_lo = float(posterior_regret(fam, lo, rep.estimate))
        r_hi = float(posterior_regret(fam, hi, rep.estimate))
        assert abs(r_lo - r_hi) <= 1e-10 * max(1.0, rep.equalized_regret)
        assert rep.equalized_regret == pytest.approx(max(r_lo, r_hi), rel=1e-9)

    def test_degenerate_bounds(self, exponential):
        rep = prgm_from_bounds(exponential, 1.5, 1.5)
        assert rep.estimate == 1.5
        assert rep.equalized_regret == 0.0
        assert rep.diagnostics["degenerate"] is True

    def test_out_of_support_bounds(self, exponential):
        with pytest.raises(DomainError):
            prgm_from_bounds(exponential, -1.0, 2.0)

    def test_inverted_bounds(self, exponential):
        with pytest.raises(DomainError):
            prgm_from_bounds(exponential, 2.0, 1.0)

    def test_near_flat_mean_gives_the_midpoint(self):
        # A family whose mean barely moves makes the mean-difference
        # quotient a 0/0 and cancels the closed-form loss; the integrated
        # loss does not.  I is constant, so the equalizer is the midpoint.
        eps = 1e-15
        flat = FamilySpec(
            name="near_flat",
            support=(-math.inf, math.inf),
            log_norm=lambda th: np.asarray(th, dtype=float)
            - 0.5 * eps * np.square(th),
            mean=lambda th: 1.0 - eps * np.asarray(th, dtype=float),
            mean_deriv=lambda th: np.full_like(np.asarray(th, dtype=float), -eps),
            stat=lambda x: np.asarray(x, dtype=float),
        )
        rep = prgm_from_bounds(flat, 0.0, 1.0)
        assert rep.method == "prgm_closed_form"
        assert rep.estimate == 0.5

    def test_shallow_mean_gives_the_exact_midpoint(self):
        # The mean-difference quotient cancels here (mean ~ 1e3, slope
        # 1e-9); the loss ratio does not.  I is constant, so the exact
        # equalizer is the midpoint 1500.
        shallow = FamilySpec(
            name="shallow",
            support=(-math.inf, math.inf),
            log_norm=lambda th: 1e3 * np.asarray(th, dtype=float)
            - 0.5e-9 * np.square(th),
            mean=lambda th: 1e3 - 1e-9 * np.asarray(th, dtype=float),
            mean_deriv=lambda th: np.full_like(np.asarray(th, dtype=float), -1e-9),
            stat=lambda x: np.asarray(x, dtype=float),
        )
        rep = prgm_from_bounds(shallow, 1000.0, 2000.0)
        assert rep.method == "prgm_closed_form"
        assert rep.estimate == 1500.0
        assert rep.diagnostics["residual"] == 0.0


class TestBoxMinimax:
    def test_exponential_box_value(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        rep = prgm_conjugate_box(exponential, box, 2.0)
        assert rep.estimate == pytest.approx(0.7846634024093809, rel=1e-13)
        assert rep.delta_lo == pytest.approx(0.5, rel=1e-15)
        assert rep.delta_hi == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert rep.diagnostics["corner_estimates"] == sorted(
            rep.diagnostics["corner_estimates"]
        )

    def test_normal_sign_flip_box(self, normal):
        """The worst corners depend on the sign of lambda + stat(x); for
        the normal family stat(x) = -x flips which alpha corner wins, so
        all four corners must be inspected, not two."""
        box = prior_box(normal, 1.0, 3.0, -0.5, 0.5)
        for x in (-3.0, -0.1, 0.1, 3.0):
            rep = prgm_conjugate_box(normal, box, x)
            ests = [bayes_estimate(normal, conjugate_prior(normal, a, l), x).estimate
                    for a, l in box.corners()]
            assert rep.delta_lo == pytest.approx(min(ests), rel=1e-14)
            assert rep.delta_hi == pytest.approx(max(ests), rel=1e-14)

    @pytest.mark.parametrize("name,x", [("normal", 0.3), ("exponential", 2.0),
                                        ("binomial(5)", 3.0), ("poisson", 3.0)])
    def test_jcp_box_gives_the_invariant_report(self, name, x):
        # Each corner's predictive mean applies the Jeffreys shift, so the
        # jcp box solves to its standard equivalent's estimate.
        fam = builtin_family(name)
        box = prior_box(fam, 2.0, 4.0, 1.0, 2.0, "jcp")
        rep = prgm_conjugate_box(fam, box, x)
        assert rep == iprgm_jcp_box(fam, box, x)
        assert rep.method == "iprgm"
        assert rep.diagnostics["jeffreys_shift"] == list(fam.jeffreys_shift)
        std = prgm_conjugate_box(fam, box.to_standard(), x)
        assert (rep.estimate, rep.delta_lo, rep.delta_hi) == (
            std.estimate, std.delta_lo, std.delta_hi)
        assert rep.diagnostics["corner_estimates"] == std.diagnostics["corner_estimates"]

    def test_point_box_is_bayes(self, exponential):
        box = prior_box(exponential, 2.0, 2.0, 1.0, 1.0)
        rep = prgm_conjugate_box(exponential, box, 2.0)
        bay = bayes_estimate(exponential, conjugate_prior(exponential, 2.0, 1.0), 2.0)
        assert rep.estimate == pytest.approx(bay.estimate, rel=1e-14)


class TestNonFiniteObservation:
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["normal", "exponential", "binomial(5)", "poisson"])
    def test_bayes_and_box_blame_the_observation(self, name, x):
        fam = builtin_family(name)
        with pytest.raises(DomainError, match=f"observation x={x} is not finite"):
            bayes_estimate(fam, conjugate_prior(fam, 2.0, 1.0), x)
        with pytest.raises(DomainError, match=f"observation x={x} is not finite"):
            prgm_conjugate_box(fam, prior_box(fam, 2.0, 3.0, 0.5, 1.0), x)


class TestImpossibleObservation:
    # (family, observation, prior a, prior l): each is accepted by the
    # family's posterior propriety rule, but cannot be observed.
    CASES = [
        ("exponential", -1.0, 2.0, 2.0),
        ("binomial_logit(5)", 2.5, 10.0, 1.0),
        ("binomial_logit(5)", 7.0, 10.0, 1.0),
        ("poisson", 2.5, 2.0, 1.0),
        ("poisson", -0.5, 2.0, 1.0),
    ]

    @pytest.mark.parametrize("name,x,a,l", CASES)
    def test_every_entry_point_blames_the_observation(self, name, x, a, l):
        fam = builtin_family(name)
        prior = conjugate_prior(fam, a, l)
        message = f"observation x={x} is outside the sample space"
        with pytest.raises(DomainError, match=message):
            bayes_estimate(fam, prior, x)
        with pytest.raises(DomainError, match=message):
            prgm_conjugate_box(fam, prior_box(fam, a, a + 1.0, l, l + 0.5), x)
        with pytest.raises(DomainError, match=message):
            predictive_mean_quadrature(fam, prior, x)

    @pytest.mark.parametrize("name,x", [
        ("exponential", 0.0), ("binomial_logit(5)", 0.0), ("binomial_logit(5)", 5.0),
        ("poisson", 0.0), ("poisson", 40.0), ("normal", -1e6),
    ])
    def test_edges_of_the_sample_space_are_observable(self, name, x):
        fam = builtin_family(name)
        bayes_estimate(fam, conjugate_prior(fam, 10.0, 1.0), x)

    def test_custom_family_observation_is_unchecked(self, exponential):
        # Propriety rows are stated relative to a sample space, so they go too.
        bare = dataclasses.replace(exponential, sample_space=None, propriety=None)
        with pytest.warns(UserWarning, match="no propriety predicate"):
            prior = conjugate_prior(bare, 2.0, 2.0)
        assert bayes_estimate(bare, prior, -1.0).estimate == pytest.approx(3.0)


class TestFloatOverflow:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_blames_the_bounds_not_an_estimate(self, normal):
        box = prior_box(normal, 1.0, 2.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="overflows the float range") as info:
            prgm_conjugate_box(normal, box, 1e300)
        assert "nan" not in str(info.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_leaks_no_numpy_warning(self, normal):
        box = prior_box(normal, 1.0, 2.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="overflows the float range"):
            prgm_conjugate_box(normal, box, 1e300)

    def test_underflowing_regrets_are_a_domain_error(self):
        # At theta = 750 the poisson rate e^-750 underflows: both directed
        # losses are 0.0, so their ratio names no action.
        with pytest.raises(DomainError, match="outside the float range"):
            prgm_from_bounds(builtin_family("poisson"), 750.0, 751.0)

    def test_narrow_bounds_do_not_blame_the_family(self, normal):
        # Regrets of ~5e-13 are round-off for the closed form at
        # theta=1e4; the integrated loss resolves them, and I is
        # constant, so the answer is the midpoint.
        rep = prgm_from_bounds(normal, 1e4, 1e4 + 1e-6)
        assert rep.estimate == 10000.0000005
        assert rep.diagnostics["degenerate"] is False


class TestInvariantBoxMinimax:
    def test_exponential_alpha_box(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 1.0, "jcp")
        rep = iprgm_jcp_box(exponential, box, 2.0)
        # shifted standard box alpha in [0,2]: extremes 1/3 and 1
        assert rep.estimate == pytest.approx(0.5 * math.log(3.0), rel=1e-13)
        assert rep.method == "iprgm"
        assert tuple(rep.diagnostics["jeffreys_shift"]) == (-1.0, 0.0)

    def test_requires_jcp_flavor(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 1.0, "standard")
        with pytest.raises(SpecificationError):
            iprgm_jcp_box(exponential, box, 2.0)

    def test_requires_a_jeffreys_shift(self, exponential):
        fam = dataclasses.replace(exponential, jeffreys_shift=None)
        box = PriorBox(fam, 1.0, 3.0, 1.0, 1.0, "jcp")
        with pytest.raises(SpecificationError, match="declares no Jeffreys shift"):
            iprgm_jcp_box(fam, box, 2.0)
        with pytest.raises(SpecificationError, match="declares no Jeffreys shift"):
            eta_scale_prgm(fam, box, 2.0, make_transform("reciprocal", fam))


class TestTransformCatalog:
    @pytest.mark.parametrize("spec", [
        "reciprocal", "log", "neg_log_over_a(2)", "neg_log_over_a(-0.5)",
        "affine(2, -1)",
    ])
    def test_monotone_and_invertible_on_positive_support(self, exponential, spec):
        tr = make_transform(spec, exponential)
        validate_transform(tr, exponential)

    def test_logit_to_p(self, binomial5):
        tr = make_transform("logit_to_p", binomial5)
        validate_transform(tr, binomial5)
        assert float(tr.forward(0.0)) == pytest.approx(0.5, rel=1e-15)

    def test_positive_support_required(self, normal):
        with pytest.raises(SpecificationError):
            make_transform("reciprocal", normal)

    def test_unknown_name(self, exponential):
        with pytest.raises(SpecificationError):
            make_transform("sqrt", exponential)

    @pytest.mark.parametrize("spec", ["neg_log_over_a(nan)", "affine(inf,0)",
                                      "affine(1,inf)", "affine(1,-inf)"])
    def test_non_finite_argument_is_refused(self, exponential, spec):
        with pytest.raises(SpecificationError, match="needs finite arguments"):
            make_transform(spec, exponential)

    @pytest.mark.parametrize("spec,closed_form", [
        ("reciprocal", lambda th: -2.0 * np.log(th)),
        ("log", lambda th: -np.log(th)),
        ("neg_log_over_a(2)", lambda th: -np.log(2.0) - np.log(th)),
        ("neg_log_over_a(-0.5)", lambda th: -np.log(0.5) - np.log(th)),
        ("affine(-3,2)", lambda th: np.log(3.0) + 0.0 * th),
        ("logit_to_p", lambda th: -np.logaddexp(0.0, th) - np.logaddexp(0.0, -th)),
    ])
    def test_derived_jacobian_is_the_closed_form(self, exponential, binomial5,
                                                 spec, closed_form):
        # log|d forward/d theta| comes from the forward expression alone;
        # each matches its hand-derived form within 2 ulp, as an array and
        # float by float, logit_to_p up to |theta| = 700.
        fam = binomial5 if spec == "logit_to_p" else exponential
        tr = make_transform(spec, fam)
        grid = (np.concatenate([np.linspace(-700.0, 700.0, 1401), support_grid(fam)])
                if spec == "logit_to_p" else
                np.concatenate([np.geomspace(1e-300, 1e300, 601), support_grid(fam)]))
        want = closed_form(grid)
        np.testing.assert_array_max_ulp(tr.log_abs_deriv(grid), want, maxulp=2)
        floats = np.array([tr.log_abs_deriv(float(th)) for th in grid])
        np.testing.assert_array_max_ulp(floats, want, maxulp=2)

    def test_catalog_maps_are_built_once_per_spec(self, exponential, normal):
        tr = make_transform("affine(2,-1)", exponential)
        assert make_transform(" Affine(2, -1) ", normal) is tr
        assert make_transform("affine(2.0,-1)", exponential).label == tr.label

    def test_log_is_neg_log_over_minus_one(self, exponential):
        tr = make_transform("log", exponential)
        grid = np.array([1e-300, 0.5, 1.0, 2.0, 1e300])
        assert tr.label == "log"
        assert np.array_equal(tr.forward(grid), np.log(grid))
        assert np.array_equal(tr.inverse(np.log(grid)), np.exp(np.log(grid)))
        assert np.array_equal(tr.log_abs_deriv(grid), -np.log(grid))
        # Its own catalog row, and bit for bit the map neg_log_over_a(-1).
        same = make_transform("neg_log_over_a(-1)", exponential)
        for f, g, points in ((tr.forward, same.forward, grid),
                             (tr.inverse, same.inverse, np.log(grid)),
                             (tr.log_abs_deriv, same.log_abs_deriv, grid)):
            assert np.array_equal(f(points), g(points))
            assert [f(v) for v in points.tolist()] == [g(v) for v in points.tolist()]

    def test_transport_refuses_a_value_outside_the_float_range(self, exponential):
        box = prior_box(exponential, 3.0, 4.0, 0.1, 0.2, "jcp")
        report = iprgm_jcp_box(exponential, box, 0.1)
        tr = make_transform("affine(1e308,0)", exponential)
        with pytest.raises(DomainError, match="outside the float range"):
            transport(report, tr)

    def test_malformed_arguments(self, exponential):
        with pytest.raises(SpecificationError):
            make_transform("neg_log_over_a()", exponential)
        with pytest.raises(SpecificationError):
            make_transform("affine(0, 1)", exponential)  # not monotone

    def test_zero_scale_is_refused(self, exponential):
        with pytest.raises(SpecificationError, match="neg_log_over_a needs a != 0"):
            make_transform("neg_log_over_a(0)", exponential)

    def test_wrong_argument_count_is_refused(self, exponential):
        with pytest.raises(SpecificationError,
                           match=r"transform affine takes 2 argument\(s\), got '1'"):
            make_transform("affine(1)", exponential)

    def test_validation_names_each_broken_map(self, normal):
        square = Reparameterization("square", forward=lambda th: th * th,
                                    inverse=np.sqrt, log_abs_deriv=np.log)
        assert validate_transform(square, normal) == [
            "square is not strictly monotone on the grid",
            "square round-trip exceeds 1e-10 on the grid"]
        shifted = Reparameterization("shifted", forward=lambda th: th,
                                     inverse=lambda e: e + 1e-6,
                                     log_abs_deriv=lambda th: 0.0 * th)
        assert validate_transform(shifted, normal) == [
            "shifted round-trip exceeds 1e-10 on the grid"]

    def test_transport_warns_off_the_invariant_path(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        rep = prgm_conjugate_box(exponential, box, 2.0)
        tr = make_transform("reciprocal", exponential)
        with pytest.warns(UserWarning, match="invariance"):
            transport(rep, tr)

    def test_transport_silent_for_invariant_estimates(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 1.0, "jcp")
        tr = make_transform("reciprocal", exponential)
        jcp_prior = conjugate_prior(exponential, 2.0, 1.0, "jcp")
        for rep in (iprgm_jcp_box(exponential, box, 2.0),
                    bayes_estimate(exponential, jcp_prior, 2.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                val = transport(rep, tr)
            assert val == pytest.approx(1.0 / rep.estimate, rel=1e-15)


class TestTransformedScaleSolve:
    def test_jcp_route_matches_transport(self, exponential):
        tr = make_transform("reciprocal", exponential)
        # The second box is so narrow that the extremes collapse on the
        # transformed scale, and the midpoint is returned unbisected.
        for box, x, degenerate in (((0.5, 2.5, 1.0, 2.0), 1.5, False),
                                   ((1.0, 1.0 + 1e-13, 1.0, 1.0 + 1e-13), 2.0, True)):
            box = prior_box(exponential, *box, "jcp")
            rep_theta = iprgm_jcp_box(exponential, box, x)
            rep_eta = eta_scale_prgm(exponential, box, x, tr)
            assert rep_eta.estimate == pytest.approx(
                transport(rep_theta, tr), rel=1e-11
            )
            assert rep_eta.method == "prgm_root_find"
            assert rep_eta.diagnostics["degenerate"] is degenerate

    @pytest.mark.parametrize("name,edges,flavor,x,spec,estimate,evaluations", [
        ("exponential", (1.0, 3.0, 1.0, 2.0), "jcp", 2.0, "reciprocal",
         2.1640425613334444, 12),
        ("exponential", (1.5, 3.0, 1.0, 2.0), "standard", 2.0, "reciprocal",
         3.8829698373538695, 13),
        ("exponential", (1.0, 3.0, 1.0, 2.0), "jcp", 0.5, "log",
         -0.2172621852328347, 11),
        ("poisson", (1.0, 2.0, 0.5, 1.5), "jcp", 3.0, "affine(2,1)",
         -0.2694012567137372, 12),
        ("poisson", (1.0, 2.0, 0.5, 1.5), "standard", 3.0, "affine(-1,0.5)",
         1.0182312554045585, 12),
        ("binomial_logit(5)", (2.0, 4.0, 1.0, 2.0), "jcp", 2.0, "logit_to_p",
         0.45556743851036785, 11),
        ("normal", (1.0, 2.0, -0.5, 1.0), "jcp", 0.7, "affine(3,-2)",
         -1.3250000000000008, 7),
        ("normal", (1.0, 1.0, -0.5, 1.0), "standard", 0.7, "affine(3,-2)",
         -1.3250000000000008, 7),
    ])
    def test_estimates_and_evaluations_are_pinned(self, name, edges, flavor, x, spec,
                                                  estimate, evaluations):
        # The gap is 0 at the bracket end whose action is a Bayes estimate,
        # with no integral behind it; the root and its cost stay put.
        fam = builtin_family(name)
        rep = eta_scale_prgm(fam, prior_box(fam, *edges, flavor), x,
                             make_transform(spec, fam))
        assert rep.estimate == estimate
        assert rep.diagnostics["solver"]["evaluations"] == evaluations

    @pytest.mark.parametrize("flavor,a_lo,bits", [
        ("jcp", 1.0, "0x1.14ff58be0a23dp+1"),
        ("standard", 1.5, "0x1.f10527d765081p+1"),
    ])
    def test_estimate_bits_are_pinned(self, exponential, flavor, a_lo, bits):
        # Pulling the extremes back once, scalar losses and the quadrature
        # error state held per call must not move the ITP root by an ulp.
        box = prior_box(exponential, a_lo, 3.0, 1.0, 2.0, flavor)
        tr = make_transform("reciprocal", exponential)
        rep = eta_scale_prgm(exponential, box, 2.0, tr)
        assert rep.estimate.hex() == bits
        if flavor == "jcp":
            # One class on both scales: the root is 1/(the theta-scale
            # equalizer), here from the 80-digit reference, within the stop width.
            theta = iprgm_jcp_box(exponential, box, 2.0)
            exact = 1.0 / ref.equalizer("exponential", theta.delta_lo, theta.delta_hi)
            width = 1e-15 * max(1.0, abs(rep.delta_lo), abs(rep.delta_hi))
            assert abs(rep.estimate - exact) <= width

    def test_solver_evaluations_stay_within_the_itp_bound(self, monkeypatch):
        # Every non-degenerate solve of the seed-42 invariance suite reports
        # its gap evaluations: the two ends, then at most ITP's
        # ceil(log2(width / stop width)) + 1.
        reports = []

        def recorded(*args):
            reports.append(eta_scale_prgm(*args))
            return reports[-1]

        monkeypatch.setattr(verify, "eta_scale_prgm", recorded)
        verify.run_suite("invariance", 42)
        counts = []
        for rep in reports:
            if rep.diagnostics["degenerate"]:
                continue
            assert rep.diagnostics["solver"]["method"] == "itp"
            n = rep.diagnostics["solver"]["evaluations"]
            stop = 1e-15 * max(1.0, abs(rep.delta_lo), abs(rep.delta_hi))
            assert 2 <= n <= 2 + math.ceil(math.log2(
                (rep.delta_hi - rep.delta_lo) / stop)) + 1
            counts.append(n)
        assert len(counts) == 130
        assert statistics.median(counts) <= 16

    @pytest.mark.parametrize("a_lo,lam,x", [
        (1.5, (1.0, 2.0), 2.0), (1.5, (0.5, 0.5), 0.1), (1.5, (3.0, 7.0), 30.0),
        (2.0, (1.0, 2.0), 30.0), (3.5, (0.5, 0.5), 2.0), (3.5, (3.0, 7.0), 0.1),
    ])
    def test_standard_reciprocal_is_the_shifted_closed_form(self, exponential,
                                                             a_lo, lam, x):
        # The Jacobian theta^-2 of eta = 1/theta turns the standard prior
        # theta^alpha e^(-lambda theta) into the standard prior of alpha - 2,
        # which is also the jcp prior of alpha - 1: the quadrature corners
        # must match closed forms, and the equalizer the jcp box's.
        tr = make_transform("reciprocal", exponential)
        a_hi = a_lo + 1.5
        rep = eta_scale_prgm(exponential, prior_box(exponential, a_lo, a_hi, *lam),
                             x, tr)
        corners = sorted(1.0 / bayes_estimate(
            exponential, conjugate_prior(exponential, a - 2.0, l), x).estimate
            for a in (a_lo, a_hi) for l in lam)
        jcp = prior_box(exponential, a_lo - 1.0, a_hi - 1.0, *lam, "jcp")
        closed = eta_scale_prgm(exponential, jcp, x, tr)
        np.testing.assert_array_max_ulp(
            np.array([rep.delta_lo, rep.delta_hi, rep.estimate]),
            np.array([corners[0], corners[-1], closed.estimate]), maxulp=8)

    def test_affine_map_commutes_even_for_standard_boxes(self, normal):
        # Affine maps preserve the conjugate class itself, so even the
        # plain flavor must commute through them.
        box = prior_box(normal, 1.0, 3.0, -0.5, 0.5)
        tr = make_transform("affine(2, -1)", normal)
        rep_theta = prgm_conjugate_box(normal, box, 1.2)
        rep_eta = eta_scale_prgm(normal, box, 1.2, tr)
        assert rep_eta.estimate == pytest.approx(
            2.0 * rep_theta.estimate - 1.0, rel=1e-9
        )

    @pytest.mark.parametrize("a_lo", [0.5, 1.0])
    def test_infinite_posterior_mean_is_a_propriety_error(self, exponential, a_lo):
        # Re-elicited on the reciprocal scale, the alpha = a_lo corner has
        # |mean| * density ~ theta^(a_lo - 2) at 0: E[1/theta] diverges.
        box = prior_box(exponential, a_lo, 2.0, 1.0, 2.0)
        tr = make_transform("reciprocal", exponential)
        with pytest.raises(ProprietyError, match="diverges .* support end 0.0"):
            eta_scale_prgm(exponential, box, 2.0, tr)

    def test_finite_posterior_mean_still_answers(self, exponential):
        box = prior_box(exponential, 1.2, 2.0, 1.0, 2.0)
        tr = make_transform("reciprocal", exponential)
        rep = eta_scale_prgm(exponential, box, 2.0, tr)
        assert rep.estimate == pytest.approx(8.96095140815369, rel=1e-12)

    @pytest.mark.parametrize("a,rel", [(1e-12, 1e-13), (1e-100, 1e-13), (1e-300, 1e-13),
                                       (1e-310, 1e-12), (1e-320, 1e-2)])
    def test_a_tiny_transformed_scale_is_still_solved(self, exponential, a, rel):
        # The stop and degenerate widths are relative to the extremes alone:
        # an absolute floor of 1 would call this box degenerate.  Subnormal
        # extremes keep fewer bits, and the stop width at least one ulp.
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0, "jcp")
        rep = eta_scale_prgm(exponential, box, 2.0,
                             make_transform(f"affine({a},0)", exponential))
        assert rep.diagnostics["degenerate"] is False
        assert rep.estimate / a == pytest.approx(0.46209812037329684, rel=rel)

    def test_non_jcp_class_is_not_invariant(self, exponential):
        """Re-eliciting the plain conjugate class on the reciprocal scale
        weights the prior by the Jacobian, which moves the answer by a
        visible amount.  This is the control for the invariance claim."""
        box = prior_box(exponential, 1.5, 3.0, 1.0, 2.0)
        tr = make_transform("reciprocal", exponential)
        rep_theta = prgm_conjugate_box(exponential, box, 2.0)
        rep_eta = eta_scale_prgm(exponential, box, 2.0, tr)
        assert abs(rep_eta.estimate - 1.0 / rep_theta.estimate) > 1e-3


class TestForeignFamily:
    """A prior, box or mixture path built for one family and handed to an
    entry point with another is refused, and the message names both."""

    @staticmethod
    def calls(exponential, poisson):
        prior = ConjugatePrior(poisson, 2.0, 1.0, "jcp")
        box = prior_box(poisson, 1.0, 3.0, 1.0, 2.0)
        jcp_box = prior_box(poisson, 1.0, 3.0, 1.0, 2.0, "jcp")
        alpha_only = prior_box(poisson, 1.0, 3.0, 1.0, 1.0)
        path = MixturePath(conjugate_prior(poisson, 1.0, 1.0),
                           conjugate_prior(poisson, 3.0, 2.0))
        tr = make_transform("reciprocal", exponential)
        return {
            "bayes_estimate": lambda: bayes_estimate(exponential, prior, 2.0),
            "posterior_predictive_mean":
                lambda: posterior_predictive_mean(exponential, prior, 2.0),
            "predictive_mean_quadrature":
                lambda: predictive_mean_quadrature(exponential, prior, 2.0),
            "prgm_conjugate_box": lambda: prgm_conjugate_box(exponential, box, 2.0),
            "iprgm_jcp_box": lambda: iprgm_jcp_box(exponential, jcp_box, 2.0),
            "eta_scale_prgm": lambda: eta_scale_prgm(exponential, jcp_box, 2.0, tr),
            "grid_minimax": lambda: grid_minimax(exponential, box, 2.0),
            "regret_curve": lambda: regret_curve(exponential, box, 2.0),
            "connected_path_witness":
                lambda: connected_path_witness(exponential, box, 2.0, 0.5),
            "data_independent_alpha":
                lambda: data_independent_alpha(exponential, alpha_only, [1.0, 2.0]),
            "mixture_witness": lambda: mixture_witness(exponential, path, 2.0, 0.5),
            "mixture_components": lambda: mixture_components(exponential, path, 2.0),
        }

    @pytest.mark.parametrize("entry", [
        "bayes_estimate", "posterior_predictive_mean", "predictive_mean_quadrature",
        "prgm_conjugate_box", "iprgm_jcp_box", "eta_scale_prgm", "grid_minimax",
        "regret_curve", "connected_path_witness", "data_independent_alpha",
        "mixture_witness", "mixture_components",
    ])
    def test_is_refused(self, exponential, poisson, entry):
        with pytest.raises(SpecificationError) as info:
            self.calls(exponential, poisson)[entry]()
        assert "poisson_neglograte" in str(info.value)
        assert "exponential_rate" in str(info.value)

    def test_same_family_still_answers(self, exponential):
        prior = ConjugatePrior(exponential, 2.0, 1.0, "jcp")
        assert bayes_estimate(exponential, prior, 2.0).estimate == pytest.approx(2.0 / 3.0)
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0, "jcp")
        assert iprgm_jcp_box(exponential, box, 2.0).estimate == pytest.approx(
            0.4621, abs=1e-4)
