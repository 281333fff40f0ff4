"""Conjugate priors, updates, flavors, boxes, and mixtures."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import gammaln

from gminimax import priors
from gminimax import (
    ConjugatePrior,
    ConvergenceError,
    MixturePath,
    ProprietyError,
    SpecificationError,
    builtin_family,
    conjugate_prior,
    posterior_predictive_mean,
    predictive_mean_quadrature,
    prior_box,
    to_standard,
)
from gminimax.families import check_posterior_ok, check_prior_ok
from gminimax.verify import _draw_box


class TestProprietyGate:
    def test_exponential_rejects_negative_lambda(self, exponential):
        with pytest.raises(ProprietyError):
            conjugate_prior(exponential, 1.0, -0.5)

    def test_exponential_rejects_low_alpha(self, exponential):
        with pytest.raises(ProprietyError):
            conjugate_prior(exponential, -1.0, 1.0)

    def test_binomial_rejects_lambda_above_alpha(self, binomial5):
        with pytest.raises(ProprietyError):
            conjugate_prior(binomial5, 1.0, 1.5)
        conjugate_prior(binomial5, 1.5, 1.0)  # fine

    def test_normal_accepts_flat_corner(self, normal):
        p = conjugate_prior(normal, 0.0, 0.0)
        assert (p.alpha, p.lam) == (0.0, 0.0)

    def test_jcp_gate_uses_shifted_parameters(self, exponential):
        # standard alpha=-0.5 is usable, so jcp alpha=+0.5 must be too
        conjugate_prior(exponential, 0.5, 1.0, "jcp")
        with pytest.raises(ProprietyError):
            conjugate_prior(exponential, -0.5, 1.0, "jcp")  # shifts to -1.5

    def test_unknown_flavor(self, exponential):
        with pytest.raises(SpecificationError):
            ConjugatePrior(exponential, 1.0, 1.0, "jeffreys")

    @pytest.mark.parametrize("alpha,lam", [(math.inf, 1.0), (2.0, -math.inf),
                                           (math.nan, 1.0)])
    def test_non_finite_hyper_parameters(self, exponential, alpha, lam):
        with pytest.raises(SpecificationError, match="hyper-parameters must be finite"):
            conjugate_prior(exponential, alpha, lam)
        with pytest.raises(SpecificationError, match="box corners must be finite"):
            prior_box(exponential, alpha, 3.0, lam, 2.0)


class TestConjugateUpdate:
    """The update (alpha + obs_units, lambda + stat(x)), read off the
    posterior predictive mean obs_units * lambda' / alpha'."""

    def test_exponential_update(self, exponential):
        # (2, 1) and x = 3 update to (3, 4)
        p = conjugate_prior(exponential, 2.0, 1.0)
        assert posterior_predictive_mean(exponential, p, 3.0) == 4.0 / 3.0

    def test_normal_flat_reproduces_observation(self, normal):
        p = conjugate_prior(normal, 0.0, 0.0)
        # sufficient statistic is -x, so (0, 0) updates to (1, -5)
        assert posterior_predictive_mean(normal, p, 5.0) == -5.0

    def test_binomial_update_counts_trials(self, binomial5):
        """One binomial(n) observation carries n per-trial units, so the
        posterior exponent grows by n (and the linear term by x): (2, 1)
        updates to (7, 3).  The quadrature cross-check pins the
        convention independently."""
        p = conjugate_prior(binomial5, 2.0, 1.0)
        cf = posterior_predictive_mean(binomial5, p, 2.0)
        assert cf == pytest.approx(5.0 * 3.0 / 7.0, rel=1e-15)
        quad = predictive_mean_quadrature(binomial5, p, 2.0)
        assert quad == pytest.approx(cf, rel=1e-10)

    def test_posterior_propriety_is_checked_per_observation(self, binomial5):
        # lambda + x = 0 puts all posterior mass at the boundary
        p = conjugate_prior(binomial5, 2.0, 0.0)
        with pytest.raises(ProprietyError):
            posterior_predictive_mean(binomial5, p, 0.0)
        posterior_predictive_mean(binomial5, p, 1.0)

    @pytest.mark.parametrize("alpha", [-1.0, -1.5])
    def test_nonpositive_alpha_plus_obs_units_is_improper(self, normal, alpha):
        # The closed form divides by alpha + obs_units, whatever the family's
        # own rule says: the normal accepts any x, a config has no rule.
        from gminimax import family_from_config
        my_exp = family_from_config({"name": "my_exp", "support": [0, None],
                                     "log_norm": "log(theta)"})
        for fam, lam in ((normal, 0.0), (my_exp, 1.0)):
            with pytest.raises(ProprietyError, match="improper posterior"):
                posterior_predictive_mean(fam, ConjugatePrior(fam, alpha, lam), 1.0)
        assert posterior_predictive_mean(my_exp, ConjugatePrior(my_exp, -0.5, 1.0),
                                         2.0) == 6.0


class TestFlavors:
    def test_normal_jcp_is_standard(self, normal):
        std = to_standard(conjugate_prior(normal, 1.5, 0.5, "jcp"))
        assert (std.alpha, std.lam) == (1.5, 0.5)

    def test_exponential_jcp_shift(self, exponential):
        std = to_standard(conjugate_prior(exponential, 2.0, 1.0, "jcp"))
        assert (std.alpha, std.lam) == (1.0, 1.0)

    def test_binomial_jcp_shift(self, binomial5):
        std = to_standard(conjugate_prior(binomial5, 2.0, 1.0, "jcp"))
        assert (std.alpha, std.lam) == (3.0, 1.5)

    def test_jcp_closed_form_example(self, exponential):
        p = conjugate_prior(exponential, 2.0, 1.0, "jcp")
        cf = posterior_predictive_mean(exponential, p, 3.0)
        assert cf == pytest.approx(2.0, rel=1e-15)  # (1+3)/((2-1)+1)
        assert predictive_mean_quadrature(exponential, p, 3.0) == pytest.approx(
            2.0, rel=1e-10
        )

    @pytest.mark.parametrize("name,alpha,lam,x", [
        ("normal", 1.0, 0.3, 1.2),
        ("exponential", 1.5, 1.0, 2.0),
        ("binomial_logit(5)", 2.5, 1.0, 3.0),
        ("poisson", 1.0, 1.0, 2.0),
    ])
    def test_quadrature_matches_closed_form(self, name, alpha, lam, x):
        from gminimax import builtin_family
        fam = builtin_family(name)
        for flavor in ("standard", "jcp"):
            p = conjugate_prior(fam, alpha, lam, flavor)
            assert predictive_mean_quadrature(fam, p, x) == pytest.approx(
                posterior_predictive_mean(fam, p, x), rel=1e-9
            )


class TestPriorBox:
    def test_corners_and_point(self, exponential):
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0)
        assert len(box.corners()) == 4
        assert set(prior_box(exponential, 2.0, 2.0, 1.0, 1.0).corners()) == {(2.0, 1.0)}

    def test_bad_corner_rejected(self, exponential):
        with pytest.raises(ProprietyError):
            prior_box(exponential, 1.0, 3.0, -1.0, 2.0)

    def test_inverted_edges_rejected(self, exponential):
        with pytest.raises(SpecificationError):
            prior_box(exponential, 3.0, 1.0, 1.0, 2.0)

    def test_jcp_box_checks_its_shifted_corners(self, exponential, monkeypatch):
        # One shift of the whole box; no prior is built per corner.
        monkeypatch.setattr(priors, "conjugate_prior", None)
        box = prior_box(exponential, 1.0, 3.0, 1.0, 2.0, "jcp")
        assert box.flavor == "jcp" and box.alpha_lo == 1.0
        prior_box(exponential, -0.5, 1.0, 1.0, 2.0)  # standard: alpha > -1
        with pytest.raises(ProprietyError):  # jcp: alpha - 1 = -1.5
            prior_box(exponential, -0.5, 1.0, 1.0, 2.0, "jcp")

    def test_jcp_class_without_a_shift_is_refused(self, exponential):
        fam = dataclasses.replace(exponential, jeffreys_shift=None)
        with pytest.raises(SpecificationError, match="declares no Jeffreys shift"):
            prior_box(fam, 1.0, 3.0, 1.0, 2.0, "jcp")
        with pytest.raises(SpecificationError, match="declares no Jeffreys shift"):
            conjugate_prior(fam, 2.0, 1.0, "jcp")


def _written_out(fam):
    """The three predicates each built-in carried before its propriety
    rows, written out as the reference: (usable prior, posterior at x,
    proper prior).  The posterior check adds alpha + obs_units > 0."""
    n = fam.obs_units
    return {
        "normal_mean_unitvar": (lambda a, l: a > -1.0,
                                lambda a, l, x: True,
                                lambda a, l: a > 0.0),
        "exponential_rate": (lambda a, l: a > -1.0 and l >= 0.0,
                             lambda a, l, x: a > -1.0 and l + x > 0.0,
                             lambda a, l: a > -1.0 and l > 0.0),
        "poisson_neglograte": (lambda a, l: a > -1.0 and l >= 0.0,
                               lambda a, l, x: l + x > 0.0,
                               lambda a, l: a > 0.0 and l > 0.0),
    }.get(fam.name, (lambda a, l: l >= 0.0 and a >= l,
                     lambda a, l, x: l + x > 0.0 and a + n - l - x > 0.0,
                     lambda a, l: 0.0 < l < a))


def _accepts(check, *args) -> bool:
    try:
        check(*args)
    except ProprietyError:
        return False
    return True


# Quarter steps on [-8, 8]: every boundary of every rule lies on them.
QUARTERS = [k / 4 for k in range(-32, 33)]


class TestProprietyRows:
    @pytest.mark.parametrize("name", ["normal", "exponential", "binomial_logit(1)",
                                      "binomial_logit(5)", "binomial_logit(7)",
                                      "poisson"])
    def test_rows_match_the_written_out_predicates(self, name):
        fam = builtin_family(name)
        usable, posterior, proper = _written_out(fam)
        lo, hi, integers = fam.sample_space
        xs = [x for x in QUARTERS if lo <= x <= hi and (not integers or x.is_integer())]
        wrong = []
        for a in QUARTERS:
            for l in QUARTERS:
                if _accepts(check_prior_ok, fam, [(a, l)]) != usable(a, l):
                    wrong.append(("usable", a, l))
                p = ConjugatePrior(fam, a, l)
                if _accepts(MixturePath, p, p) != proper(a, l):
                    wrong.append(("proper", a, l))
                for x in xs:
                    want = posterior(a, l, x) and a + fam.obs_units > 0
                    r = float(fam.stat(x))
                    if _accepts(check_posterior_ok, fam, a, l, x, r) != want:
                        wrong.append(("posterior", a, l, x))
        assert wrong == []

    def test_broken_inequality_is_named(self, exponential, binomial5):
        with pytest.raises(ProprietyError, match=r"rule alpha \+ 1 > 0 of exponential"):
            conjugate_prior(exponential, -2.0, 1.0)
        with pytest.raises(ProprietyError, match="rule lambda >= 0 of exponential"):
            conjugate_prior(exponential, 1.0, -0.5)
        with pytest.raises(ProprietyError, match=r"rule alpha - lambda >= 0 of binomial"):
            prior_box(binomial5, 1.0, 3.0, 0.5, 1.5)

    def test_overflowed_update_is_not_called_improper(self, exponential):
        # lam + x overflows; the row in alpha alone must not read 0 * inf = nan.
        prior = conjugate_prior(exponential, 1.0, 1e308)
        assert posterior_predictive_mean(exponential, prior, 1e308) == math.inf

    @pytest.mark.parametrize("name,flavor", [
        ("normal", "standard"), ("exponential", "standard"),
        ("binomial_logit(5)", "standard"), ("poisson", "standard"),
        ("exponential", "jcp"), ("binomial_logit(5)", "jcp"),
    ])
    def test_verify_draws_are_proper(self, name, flavor):
        # The "guaranteed propriety" of verify's seeded boxes, checked.
        fam = builtin_family(name)
        rng = np.random.default_rng(20)
        for _ in range(200):
            box, x = _draw_box(rng, fam, flavor)
            prior_box(fam, box.alpha_lo, box.alpha_hi, box.lam_lo, box.lam_hi, flavor)
            for a, l in box.to_standard().corners():
                check_posterior_ok(fam, a, l, x, float(fam.stat(x)))


def test_quadrature_failure_blames_no_prior(normal):
    # A proper prior; the error estimate is round-off at theta ~ 5e4.
    with pytest.raises(ConvergenceError, match="exceeds the tolerance") as info:
        predictive_mean_quadrature(normal, conjugate_prior(normal, 1.0, 0.0), -5e4)
    assert "improper" not in str(info.value)


def test_divergent_posterior_mean_is_improper(exponential):
    # With one more factor 1/theta the posterior at x = 1 is Gamma(alpha + 1,
    # rate 2), and |mean| * density ~ theta^(alpha - 1) at 0: alpha = 0
    # diverges, alpha = 0.5 gives E[1/theta] = 2 / 0.5.
    def weight(th):
        return -np.log(th)

    prior = conjugate_prior(exponential, 0.0, 1.0)
    with pytest.raises(ProprietyError, match="diverges"):
        predictive_mean_quadrature(exponential, prior, 1.0, extra_log_weight=weight)
    prior = conjugate_prior(exponential, 0.5, 1.0)
    got = predictive_mean_quadrature(exponential, prior, 1.0, extra_log_weight=weight)
    assert got == pytest.approx(4.0, rel=1e-8)


def _log_integral(logf, lo, hi):
    """log of the integral of exp(logf) over (lo, hi) as every caller
    integrates: scanned for its peak and split there."""
    m, (z,) = priors._peak_integrals(logf, lo, hi, None)
    return m + math.log(z)


class TestQuadratureRule:
    """The one quadrature rule against Gamma normalizers from math.lgamma,
    on a finite piece, a half-line (either way) and the whole line."""

    @pytest.mark.parametrize("a,b,lo,width", [
        (1e4, 1e4, 0.0, 1.0),  # a narrow peak, width 0.004
        (0.5, 3.0, 0.0, 1.0),  # u^-0.5 at the end 0
        (2.0, 3.0, 0.0, 1.0),
        (1e4, 1e4, 1.0, 1.5),  # ends that are not 0
        (2.0, 3.0, -3.0, 2.0),
    ])
    def test_beta_on_a_finite_piece(self, a, b, lo, width):
        def logf(th):
            u = (th - lo) / width
            return (a - 1.0) * np.log(u) + (b - 1.0) * np.log1p(-u)

        want = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b) + math.log(width)
        assert _log_integral(logf, lo, lo + width) == pytest.approx(
            want, rel=1e-15, abs=1e-13)

    @pytest.mark.parametrize("alpha", [1e4, 3.0, 1.0, 0.5])
    def test_gamma_on_a_half_line(self, alpha):
        # alpha = 1e4 peaks far from the end, 1% wide; 0.5 is singular at 0.
        want = math.lgamma(alpha)
        right = _log_integral(lambda t: (alpha - 1.0) * np.log(t) - t, 0.0, math.inf)
        left = _log_integral(lambda t: (alpha - 1.0) * np.log(-t) + t, -math.inf, 0.0)
        assert right == pytest.approx(want, rel=1e-15, abs=1e-13)
        assert left == pytest.approx(want, rel=1e-15, abs=1e-13)

    @pytest.mark.parametrize("alpha", [1e4, 1.0, 0.05])
    def test_gamma_on_the_whole_line(self, alpha):
        # In u = log t: a peak 0.01 wide at alpha = 1e4, and at 0.05 one
        # whose left tail decays like e^(0.05 u).
        got = _log_integral(lambda u: alpha * u - np.exp(u), -math.inf, math.inf)
        assert got == pytest.approx(math.lgamma(alpha), rel=1e-15, abs=1e-13)

    @pytest.mark.parametrize("logf,lo,hi", [
        # t^-0.95 e^-t: nodes stop within 1e-61 of the width of 0, which
        # leaves 4e-4 of Gamma(0.05) uncounted.
        (lambda t: -0.95 * np.log(t) - t, 0.0, math.inf),
        # (2 - t)^-0.7: nodes that round onto the end 2 are skipped.
        (lambda t: -0.7 * np.log(t - 1.0) - 0.7 * np.log(2.0 - t), 1.0, 2.0),
    ])
    def test_mass_the_nodes_cannot_reach_is_refused(self, logf, lo, hi):
        with pytest.raises(ConvergenceError, match="exceeds the tolerance"):
            _log_integral(logf, lo, hi)


class TestMixtures:
    def test_components_must_be_proper(self, exponential):
        ok = conjugate_prior(exponential, 1.0, 1.0)
        with pytest.raises(ProprietyError):
            MixturePath(ok, conjugate_prior(exponential, 1.0, 0.0))
        # The rule travels with the family, not with its name.
        renamed = dataclasses.replace(exponential, name="renamed_rate")
        MixturePath(ConjugatePrior(renamed, 1.0, 1.0), ConjugatePrior(renamed, 3.0, 2.0))
        with pytest.raises(ProprietyError, match="not a proper distribution"):
            bare = dataclasses.replace(exponential, propriety=None)
            MixturePath(ConjugatePrior(bare, 1.0, 1.0), ConjugatePrior(bare, 3.0, 2.0))

    def test_endpoints_collapse(self, exponential):
        # t = 1 and t = 0 leave one component: a0/b0 and a1/b1.
        p0 = conjugate_prior(exponential, 1.0, 1.0)
        p1 = conjugate_prior(exponential, 3.0, 2.0)
        a0, b0, a1, b1 = priors.mixture_components(exponential, MixturePath(p0, p1), 2.0)
        assert a0 / b0 == pytest.approx(
            posterior_predictive_mean(exponential, p0, 2.0), rel=1e-10
        )
        assert a1 / b1 == pytest.approx(
            posterior_predictive_mean(exponential, p1, 2.0), rel=1e-10
        )

    def test_halfway_value_against_gamma_arithmetic(self, exponential):
        """The mixture posterior mean at t=1/2 has an exact expression in
        Gamma-function terms; the quadrature route must reproduce it."""

        def component(alpha, lam, x):
            log_b = (gammaln(alpha + 2.0) - (alpha + 2.0) * math.log(lam + x)) \
                - (gammaln(alpha + 1.0) - (alpha + 1.0) * math.log(lam))
            b = math.exp(log_b)
            return b * (lam + x) / (alpha + 1.0), b

        a0, b0 = component(1.0, 1.0, 2.0)
        a1, b1 = component(3.0, 2.0, 2.0)
        want = (0.5 * a0 + 0.5 * a1) / (0.5 * b0 + 0.5 * b1)
        assert want == pytest.approx(1.271186440677966, rel=1e-12)

        path = MixturePath(conjugate_prior(exponential, 1.0, 1.0),
                           conjugate_prior(exponential, 3.0, 2.0))
        got_a0, got_b0, got_a1, got_b1 = priors.mixture_components(exponential, path, 2.0)
        assert (got_a0 + got_a1) / (got_b0 + got_b1) == pytest.approx(want, rel=1e-6)

    def test_mixing_families_rejected(self, exponential, normal):
        with pytest.raises(SpecificationError):
            MixturePath(conjugate_prior(exponential, 1.0, 1.0),
                        conjugate_prior(normal, 1.0, 0.0))
