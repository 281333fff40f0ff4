"""Conjugate priors, updates, flavors, boxes, and mixtures."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.special import gammaln

from gminimax import estimators, oracle, priors
from gminimax import (
    ConjugatePrior,
    ConvergenceError,
    DomainError,
    MixturePath,
    PriorBox,
    ProprietyError,
    SpecificationError,
    builtin_family,
    conjugate_prior,
    family_from_config,
    mean_inverse,
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


# The README's config family, with mean and mean_deriv derived, and a box
# (alpha_lo, alpha_hi, lam_lo, lam_hi) and observation per family that keep
# both flavors proper.
_MY_EXP = {"name": "my_exp", "support": [0, None], "log_norm": "log(theta)",
           "mean_range": [0, None], "jeffreys_shift": [-1, 0]}
_BOX_PASS_CASES = [
    ("normal", (1.0, 3.0, -0.5, 1.0), 0.7),
    ("exponential", (1.0, 3.0, 1.0, 2.0), 2.0),
    ("binomial_logit(5)", (2.0, 4.0, 1.0, 2.0), 2.0),
    ("poisson", (1.0, 2.0, 0.5, 1.5), 3.0),
    ("my_exp", (1.0, 3.0, 1.0, 2.0), 2.0),
]


def _shapes(a_lo, a_hi, l_lo, l_hi):
    """The box, a box one part in 1e12 wide, and the box with a flat lambda edge."""
    return {"full": (a_lo, a_hi, l_lo, l_hi),
            "near_point": (a_lo, a_lo + 1e-12 * a_lo, l_lo, l_lo + 1e-12 * abs(l_lo)),
            "flat_edge": (a_lo, a_hi, l_hi, l_hi)}


class TestBoxPass:
    """The corner and lattice Bayes actions come from one pass over the box;
    each must equal, bit for bit, the action of its own prior."""

    @staticmethod
    def _bayes(fam, a, l, flavor, x):
        prior = ConjugatePrior(fam, a, l, flavor)
        pm = posterior_predictive_mean(fam, prior, x)
        # The conjugate update written out, on the standard equivalent.
        std = to_standard(prior)
        assert pm == fam.obs_units * (std.lam + float(fam.stat(x))) / (
            std.alpha + fam.obs_units)
        return mean_inverse(fam, pm)

    @pytest.mark.parametrize("shape", ["full", "near_point", "flat_edge"])
    @pytest.mark.parametrize("flavor", ["standard", "jcp"])
    @pytest.mark.parametrize("name,edges,x", _BOX_PASS_CASES)
    def test_matches_the_per_prior_path(self, name, edges, x, flavor, shape):
        fam = family_from_config(_MY_EXP) if name == "my_exp" else builtin_family(name)
        box = PriorBox(fam, *_shapes(*edges)[shape], flavor)
        want = [self._bayes(fam, a, l, flavor, x) for a, l in box.corners()]
        assert estimators._corner_bayes(fam, box, x) == want
        lattice = [self._bayes(fam, a, l, flavor, x)
                   for a in np.linspace(box.alpha_lo, box.alpha_hi, oracle.N_CORNER).tolist()
                   for l in np.linspace(box.lam_lo, box.lam_hi, oracle.N_CORNER).tolist()]
        got = oracle._lattice_estimates(fam, box, x)
        assert got.tolist() == np.unique(lattice).tolist()

    # Each refusal names the prior that a point-by-point pass named first:
    # on this binomial box the rule alpha - lambda - x + 5 > 0 first breaks
    # at the corner (1, 1.5), and, in the lattice's order, at (1, 1).
    _IMPROPER = ("observation x=5.0 with {} gives an improper posterior for "
                 "binomial_logit(5): it violates alpha - lambda - x + 5 > 0")
    _JCP = "the jcp prior (alpha={}, lambda={}), whose standard equivalent is {},"
    _HUGE = ("the predictive mean at x=2.0 with {} rounds to 5.0, at or past an end "
             "of the mean range (0.0, 5.0) of binomial_logit(5), at that scale of the "
             "hyper-parameters")

    @pytest.mark.parametrize("edges,flavor,x,error,corner,lattice", [
        ((1.0, 2.0, 0.5, 1.5), "standard", 5.0, ProprietyError,
         _IMPROPER.format("(alpha=1.0, lambda=1.5)"),
         _IMPROPER.format("(alpha=1.0, lambda=1.0)")),
        ((0.0, 1.0, 0.0, 1.0), "jcp", 5.0, ProprietyError,
         _IMPROPER.format(_JCP.format(0.0, 1.0, "(alpha=1.0, lambda=1.5)")),
         _IMPROPER.format(_JCP.format(0.0, 0.5, "(alpha=1.0, lambda=1.0)"))),
        ((1e17, 1e17, 1e17, 1e17), "standard", 2.0, DomainError,
         _HUGE.format("(alpha=1e+17, lambda=1e+17)"),
         _HUGE.format("(alpha=1e+17, lambda=1e+17)")),
        ((1e17, 2e17, 1e17, 1e17), "jcp", 2.0, DomainError,
         _HUGE.format(_JCP.format(1e17, 1e17, "(alpha=1e+17, lambda=1e+17)")),
         _HUGE.format(_JCP.format(1e17, 1e17, "(alpha=1e+17, lambda=1e+17)"))),
    ], ids=["improper", "improper_jcp", "huge", "huge_jcp"])
    def test_refusal_names_the_first_prior(self, binomial5, edges, flavor, x, error,
                                           corner, lattice):
        box = PriorBox(binomial5, *edges, flavor)
        with pytest.raises(error) as info:
            estimators._corner_bayes(binomial5, box, x)
        assert str(info.value) == corner
        with pytest.raises(error) as info:
            oracle._lattice_estimates(binomial5, box, x)
        assert str(info.value) == lattice


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

    @pytest.mark.parametrize("scale", [1e17, 1e308])
    def test_a_row_is_summed_from_its_separate_terms(self, binomial5, scale):
        # alpha - lambda - x + 5 is 3 at x = 2, though alpha + 5 and
        # lambda + 2 round to one float at this scale; at x = 5 it is 0.
        check_posterior_ok(binomial5, scale, scale, 2.0, 2.0)
        with pytest.raises(ProprietyError, match=r"violates alpha - lambda - x \+ 5 > 0"):
            check_posterior_ok(binomial5, scale, scale, 5.0, 5.0)

    def test_overflowed_update_is_not_called_improper(self, exponential):
        # lam + x overflows; the row in alpha alone must not read 0 * inf = nan.
        # The predictive mean then rounds to inf, the end of the mean range,
        # which is refused as a matter of scale, not of propriety.
        prior = conjugate_prior(exponential, 1.0, 1e308)
        with pytest.raises(DomainError, match="rounds to inf, at or past an end"):
            posterior_predictive_mean(exponential, prior, 1e308)

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

    # Each factor alone and all of them on shared nodes.  The first six
    # levels are one evaluation of the integrand, each later level one more.
    @staticmethod
    def _integrate(monkeypatch, logf, lo, hi, *factors):
        calls = []
        weighted = priors._weighted_integrand

        def counted(*args):
            f = weighted(*args)

            def g(th):
                calls.append(th.size)
                return f(th)

            return g

        monkeypatch.setattr(priors, "_weighted_integrand", counted)
        m, values = priors._peak_integrals(logf, lo, hi, *factors)
        return m, values, len(calls)

    @pytest.mark.parametrize("case", ["gamma", "normal_t6", "exponential_mean"])
    def test_joint_factors_match_each_factor_alone(self, monkeypatch, case):
        exponential = builtin_family("exponential")
        logf, lo, hi, factor, later = {
            # Stops within the first six levels, with and without the factor.
            "gamma": (lambda t: 2.0 * np.log(t) - t, 0.0, math.inf,
                      lambda t: t, False),
            # E[t^6] of the standard normal, 15: t^6 needs level 6.
            "normal_t6": (lambda t: -0.5 * t * t, -math.inf, math.inf,
                          lambda t: t ** 6, True),
            # The exponential's posterior Gamma(1.15, rate 2) at x = 1; times
            # the mean function 1/theta, theta^-0.85 e^(-2 theta) needs level 6.
            "exponential_mean": (
                priors._log_posterior_integrand(
                    exponential, conjugate_prior(exponential, -0.85, 1.0), 1.0),
                0.0, math.inf, exponential.mean, True),
        }[case]
        m, (den, num), joint_calls = self._integrate(monkeypatch, logf, lo, hi,
                                                     None, factor)
        m_den, (den_alone,), den_calls = self._integrate(monkeypatch, logf, lo, hi, None)
        m_num, (num_alone,), num_calls = self._integrate(monkeypatch, logf, lo, hi, factor)
        assert (m.hex(), den.hex(), num.hex()) == (
            m_den.hex(), den_alone.hex(), num_alone.hex())
        assert m_num == m
        assert den_calls == 1
        assert num_calls == joint_calls == (2 if later else 1)

    @pytest.mark.parametrize("case", ["density", "mean"])
    def test_one_factor_failing_is_refused_as_alone(self, case):
        exponential = builtin_family("exponential")
        if case == "density":
            # t^-0.95 e^-t leaves mass the nodes cannot reach; t^0.05 e^-t not.
            logf, lo, hi = (lambda t: -0.95 * np.log(t) - t), 0.0, math.inf
            factors, failing = (None, lambda t: t), None
        else:
            # The posterior Gamma(1.1, rate 2) converges; times the mean
            # function 1/theta, theta^-0.9 e^(-2 theta) misses the tolerance
            # at the last level.
            prior = conjugate_prior(exponential, 0.1, 1.0, "jcp")
            logf = priors._log_posterior_integrand(exponential, prior, 1.0)
            lo, hi = exponential.support
            factors, failing = (None, exponential.mean), exponential.mean
        good = next(f for f in factors if f is not failing)
        priors._peak_integrals(logf, lo, hi, good)
        with pytest.raises(ConvergenceError) as alone:
            priors._peak_integrals(logf, lo, hi, failing)
        with pytest.raises(ConvergenceError) as joint:
            priors._peak_integrals(logf, lo, hi, *factors)
        assert str(joint.value) == str(alone.value)
        assert re.fullmatch(r"quadrature error estimate \S+ exceeds the tolerance "
                            r"\S+ on \[0\.0, inf\]", str(joint.value))


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
