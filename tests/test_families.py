"""Mean function, Fisher information, inversion, and self-validation."""

import dataclasses
import math
import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from gminimax import (
    ConvergenceError,
    DomainError,
    SpecificationError,
    builtin_family,
    family_from_config,
    fisher_info,
    mean_inverse,
    prgm_from_bounds,
    validate_family,
)
from gminimax.families import (
    _itp,
    expit,
    interval_grid,
    jeffreys_shift_residual,
    require_in_support,
    support_grid,
)

# The README's my_exp config, its mean and mean_deriv derived.
MY_EXP = dict(name="my_exp", support=[0, None], log_norm="log(theta)",
              mean_range=[0, None], jeffreys_shift=[-1, 0])


class TestBuiltinLookup:
    def test_aliases(self):
        assert builtin_family("normal").name == "normal_mean_unitvar"
        assert builtin_family("exponential").name == "exponential_rate"
        assert builtin_family("poisson").name == "poisson_neglograte"
        for canon in ("normal_mean_unitvar", "exponential_rate", "poisson_neglograte"):
            assert builtin_family(canon).name == canon
        assert builtin_family("binomial(7)").name == "binomial_logit(7)"
        assert builtin_family("Binomial_Logit( n = 3 )").name == "binomial_logit(3)"

    def test_binomial_needs_trial_count(self):
        with pytest.raises(SpecificationError, match="trial count"):
            builtin_family("binomial")
        with pytest.raises(SpecificationError, match="trial count must be >= 1, got 0"):
            builtin_family("binomial(0)")

    def test_unknown_name(self):
        with pytest.raises(SpecificationError, match="unknown family"):
            builtin_family("cauchy")

    def test_binomial_records_n(self, binomial5):
        assert binomial5.obs_units == 5.0


class TestMeanFunction:
    def test_normal_values(self, normal):
        assert float(normal.mean(2.0)) == -2.0
        assert mean_inverse(normal, -2.0) == 2.0
        assert mean_inverse(normal, -3.7) == 3.7

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_is_refused(self, exponential, t):
        with pytest.raises(DomainError, match=f"mean value {t} is not finite"):
            mean_inverse(exponential, t)

    def test_exponential_inverse(self, exponential):
        assert mean_inverse(exponential, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_binomial_inverse_analytic(self, binomial5):
        # n/(1 + e^theta) = 2.5 at theta = 0
        assert mean_inverse(binomial5, 2.5) == pytest.approx(0.0, abs=1e-12)

    def test_binomial_inverse_bisection(self, binomial5):
        # Strip the analytic inverse so the bracketing solver is
        # what actually solves it.
        numeric = dataclasses.replace(binomial5, mean_inv=None)
        assert mean_inverse(numeric, 2.5) == pytest.approx(0.0, abs=1e-10)
        for t in (0.3, 1.9, 4.4):
            got = mean_inverse(numeric, t)
            assert float(binomial5.mean(got)) == pytest.approx(t, rel=1e-10)

    @pytest.mark.parametrize("t,want", [
        (0.7, "0x1.6db6db6db6db8p+0"),
        (3.0, "0x1.5555555555554p-2"),
        (123.456, "0x1.096c28e0043d5p-7"),
    ])
    def test_numeric_inverse_bits(self, t, want):
        # The ITP solve on the walked bracket, pinned to the bit: the first
        # point within the tolerance is returned, within 1, 2 and 30 ulp of 1/t.
        assert mean_inverse(family_from_config(MY_EXP), t).hex() == want

    @pytest.mark.parametrize("t", [1e8, 2.5e8, 5e8, 1e9])
    def test_numeric_inverse_stalls_at_large_targets(self, t):
        # Theta near 1/t lies below the bracket's 1e-16 stop width; the
        # benchmark counts these failures by this message.
        with pytest.raises(ConvergenceError,
                           match="bisection stalled inverting the mean function"):
            mean_inverse(family_from_config(MY_EXP), t)

    @pytest.mark.parametrize("support,log_norm,t,want", [
        ([None, 0], "log(-theta)", -2.0, -0.5),
        ([0, 1], "log(theta) + log(1 - theta)", 3.0, 0.232408120756),
    ], ids=["finite_upper_end", "two_finite_ends"])
    def test_inverse_brackets_from_finite_ends(self, support, log_norm, t, want):
        # The bracket starts one unit inside a lone finite end, or at the
        # middle of two, and is clamped off the upper end while it walks.
        fam = family_from_config(dict(name="f", support=support, log_norm=log_norm))
        got = mean_inverse(fam, t)
        assert got == want
        assert float(fam.mean(got)) == pytest.approx(t, rel=1e-11)

    def test_inverse_rejects_out_of_range(self, binomial5):
        with pytest.raises(DomainError):
            mean_inverse(binomial5, 5.0)  # open upper endpoint
        with pytest.raises(DomainError):
            mean_inverse(binomial5, -0.2)

    def test_exponential_inverse_rejects_nonpositive(self, exponential):
        with pytest.raises(DomainError):
            mean_inverse(exponential, 0.0)

    @given(st.floats(-30.0, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_normal_roundtrip(self, theta):
        fam = builtin_family("normal")
        assert mean_inverse(fam, float(fam.mean(theta))) == pytest.approx(
            theta, abs=1e-12
        )

    @given(st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_exponential_roundtrip(self, theta):
        fam = builtin_family("exponential")
        got = mean_inverse(fam, float(fam.mean(theta)))
        assert got == pytest.approx(theta, rel=1e-11)

    @given(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_mean_strictly_decreasing(self, a, b):
        fam = builtin_family("binomial_logit(5)")
        assume(abs(a - b) > 1e-6)
        lo, hi = min(a, b), max(a, b)
        assert float(fam.mean(lo)) > float(fam.mean(hi))


# Increasing shapes of the distance past the root: smooth, flat to third
# order at the root (where secant steps crawl), and a bare sign step.
ITP_SHAPES = {
    "smooth": lambda d: d + 0.5 * math.sin(d),
    "cubic_flat": lambda d: d ** 3,
    "step": lambda d: math.copysign(1.0, d),
}


class TestITP:
    @given(st.sampled_from(sorted(ITP_SHAPES)), st.booleans(),
           st.floats(-50.0, 50.0), st.floats(1e-3, 1e3),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.sampled_from([1e-15, 1e-9, 1e-3]))
    @settings(max_examples=300, deadline=None)
    def test_root_within_the_stop_width_and_the_bound(self, shape, increasing,
                                                       lo, span, at, rel):
        hi = lo + span
        c = lo + at * span
        assume(lo < c < hi)
        g = ITP_SHAPES[shape]
        # f(a) >= 0 >= f(b): a decreasing f is bracketed left to right, an
        # increasing one right to left.
        f = (lambda x: g(x - c)) if increasing else (lambda x: g(c - x))
        a, b = (hi, lo) if increasing else (lo, hi)
        width = rel * max(1.0, abs(lo), abs(hi))
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        root, n = _itp(counted, a, b, f(a), f(b), width)
        assert n == len(calls) <= max(0, math.ceil(math.log2(span / width))) + 1
        assert abs(root - c) <= width

    def test_an_exact_zero_returns_at_once(self):
        for fa, fb, want in ((0.0, -1.0, 1.0), (1.0, 0.0, 2.0)):
            assert _itp(lambda x: pytest.fail("evaluated"), 1.0, 2.0, fa, fb,
                        1e-15) == (want, 0)
        # a zero met on the way is returned as found
        assert _itp(lambda x: 1.5 - x, 1.0, 2.0, 0.5, -0.5, 1e-15) == (1.5, 1)


class TestFisherInformation:
    def test_normal_constant(self, normal):
        assert fisher_info(normal, 1.3) == 1.0

    def test_exponential_value_and_fd(self, exponential):
        assert fisher_info(exponential, 2.0) == pytest.approx(0.25, rel=1e-14)
        h = 1e-5
        fd = (float(exponential.mean(2.0 - h)) - float(exponential.mean(2.0 + h))) / (2 * h)
        assert fisher_info(exponential, 2.0) == pytest.approx(fd, rel=1e-8)

    def test_a_refusal_names_one_theta(self, exponential):
        flat = dataclasses.replace(exponential, mean_deriv=lambda th: 0.0 * th)
        with pytest.raises(SpecificationError) as info:
            fisher_info(flat, np.array([[1.5, 2.0], [3.0, 4.0]]))
        assert str(info.value) == (
            "family exponential_rate reports non-positive Fisher information at "
            "theta=1.5; its mean function is not strictly decreasing there")

    def test_an_overflowed_information_is_not_blamed_on_the_family(self, exponential):
        # 1/theta^2 is inf at 1e-170: the family is fine, the float range is not
        for theta in (1e-170, np.array([1.0, 1e-170])):
            with pytest.raises(DomainError) as info:
                fisher_info(exponential, theta)
            assert str(info.value) == (
                "the Fisher information of exponential_rate at theta=1e-170 is "
                "infinite: it overflows the float range there")

    def test_positive_everywhere(self, poisson):
        for th in support_grid(poisson):
            assert fisher_info(poisson, float(th)) > 0.0

    @pytest.mark.parametrize("name", ["normal", "exponential", "binomial_logit(5)",
                                      "poisson"])
    def test_sequence_and_int_inputs(self, name):
        # The family mappings take floats or float arrays only; the public
        # function converts whatever else it is given.
        fam = builtin_family(name)
        np.testing.assert_array_equal(fisher_info(fam, [1.0, 2]),
                                      fisher_info(fam, np.array([1.0, 2.0])))
        assert fisher_info(fam, 2) == fisher_info(fam, 2.0)


class TestExpit:
    """The local logistic sigmoid against the scipy function it replaces."""

    def test_bitwise_equal_to_scipy_on_scalars(self):
        from scipy.special import expit as scipy_expit

        rng = np.random.default_rng(20261018)
        draws = np.concatenate([rng.normal(0.0, 8.0, 5000),
                                rng.uniform(-800.0, 800.0, 5000)])
        edges = [709.78, -709.78, 745.0, -745.0, math.inf, -math.inf, 0.0]
        for t in [*map(float, draws), *edges]:
            got, want = expit(t), scipy_expit(t)
            assert struct.pack("<d", got) == struct.pack("<d", want), t
        assert math.isnan(expit(math.nan)) and math.isnan(scipy_expit(math.nan))

    def test_keeps_shape(self):
        assert np.shape(expit(np.asarray(0.3))) == ()
        assert expit(np.asarray(0.3)) == expit(0.3)
        grid = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
        assert expit(grid).shape == (3, 4)
        np.testing.assert_allclose(expit(grid), 1.0 / (1.0 + np.exp(-grid)),
                                   rtol=1e-15)

    def test_binomial_mean_matches_scipy_form(self):
        from scipy.special import expit as scipy_expit

        fam = builtin_family("binomial_logit(5)")
        grid = support_grid(fam)
        np.testing.assert_array_max_ulp(fam.mean(grid), 5.0 * scipy_expit(-grid),
                                        maxulp=1)
        # A product of two sigmoids, each within 1 ulp of scipy's.
        np.testing.assert_array_max_ulp(
            fam.mean_deriv(grid), -5.0 * scipy_expit(grid) * scipy_expit(-grid),
            maxulp=2)
        for t in grid[::10]:
            t = float(t)
            assert fam.mean(t) == 5.0 * scipy_expit(-t)
            assert fam.mean_deriv(t) == -5.0 * scipy_expit(t) * scipy_expit(-t)


class TestValidation:
    @pytest.mark.parametrize("name", [
        "normal", "exponential", "binomial_logit(1)", "binomial_logit(5)",
        "binomial_logit(20)", "poisson",
    ])
    def test_builtins_validate_clean(self, name):
        assert validate_family(builtin_family(name)) == []

    def test_shift_residual_small(self):
        for name in ("normal", "exponential", "binomial_logit(5)", "poisson"):
            fam = builtin_family(name)
            assert jeffreys_shift_residual(fam) <= 1e-8

    def test_wrong_shift_is_detected(self, exponential):
        broken = dataclasses.replace(exponential, jeffreys_shift=(-1.0, 0.25))
        problems = validate_family(broken)
        assert any("shift" in p for p in problems)

    @pytest.mark.parametrize("support", [(1.0, 1.0), (2.0, 1.0)])
    def test_support_needs_lo_below_hi(self, exponential, support):
        with pytest.raises(SpecificationError, match="lo < hi"):
            dataclasses.replace(exponential, support=support)

    def test_obs_units_must_be_positive(self, exponential):
        with pytest.raises(SpecificationError, match="obs_units must be positive"):
            dataclasses.replace(exponential, obs_units=0)

    @pytest.mark.parametrize("field,value,message", [
        ("obs_units", math.nan, "obs_units must be positive and finite, got nan"),
        ("obs_units", math.inf, "obs_units must be positive and finite, got inf"),
        ("jeffreys_shift", (0.0, math.nan),
         "jeffreys_shift must be two finite numbers, got (0.0, nan)"),
        ("mean_range", (math.nan, math.inf),
         "mean_range must be an interval with lo < hi, got (nan, inf)"),
    ], ids=["obs_units_nan", "obs_units_inf", "shift_nan", "mean_range_nan"])
    def test_non_finite_fields_are_refused(self, normal, field, value, message):
        with pytest.raises(SpecificationError) as info:
            dataclasses.replace(normal, **{field: value})
        assert str(info.value) == message

    def test_shift_residual_needs_a_declared_shift(self):
        fam = family_from_config(dict(name="no_shift", support=[0, None],
                                      log_norm="log(theta)"))
        with pytest.raises(SpecificationError,
                           match="family no_shift declares no Jeffreys shift"):
            jeffreys_shift_residual(fam)

    def test_propriety_needs_a_sample_space(self, exponential):
        with pytest.raises(SpecificationError, match="sample space"):
            dataclasses.replace(exponential, sample_space=None)

    def test_a_mapping_that_drops_the_grid_shape_is_the_only_problem(self, exponential):
        broken = dataclasses.replace(exponential, mean_deriv=lambda th: -1.0)
        assert validate_family(broken) == [
            "mean_deriv returns shape () on a grid of shape (201,)"]

    def test_shift_check_reads_information_through_fisher_info(self, exponential):
        flat = dataclasses.replace(exponential, mean_deriv=lambda th: 0.0 * th)
        with pytest.raises(SpecificationError, match="^family exponential_rate "
                           "reports non-positive Fisher information at theta="):
            jeffreys_shift_residual(flat)

    def test_inconsistent_mean_is_detected(self, exponential):
        broken = dataclasses.replace(exponential, mean=lambda th: 1.0 / np.asarray(th) + 0.05)
        assert validate_family(broken) != []


def test_support_grid_stays_interior(exponential, normal):
    g = support_grid(exponential)
    assert g.shape == (201,)
    assert np.all(g > 0.0)
    # Infinite ends are cut at +-12.
    g2 = support_grid(normal)
    assert (g2[0], g2[-1]) == (-12.0, 12.0)


@pytest.mark.parametrize("lo,hi,cut", [
    (-math.inf, -11.0, -12.0), (11.0, math.inf, 12.0),  # inside the cut: +-12
    (-math.inf, -12.0, -24.0), (12.0, math.inf, 24.0),  # at or past it: 12 beyond
    (-math.inf, -20.0, -32.0), (100.0, math.inf, 112.0),
])
def test_an_infinite_end_is_cut_beyond_the_finite_one(lo, hi, cut):
    g = interval_grid(lo, hi, 5, 12.0)
    assert (g[0] if math.isinf(lo) else g[-1]) == cut


@pytest.mark.parametrize("lo", [20.0, 100.0])
def test_a_support_far_from_zero_builds(exponential, lo):
    # The exponential family moved to (lo, inf): the same answer, shifted.
    shifted = family_from_config(dict(name="shifted", support=[lo, None],
                                      log_norm=f"log(theta - {lo})"))
    got = prgm_from_bounds(shifted, lo + 1.0, lo + 2.0).estimate - lo
    want = prgm_from_bounds(exponential, 1.0, 2.0).estimate
    assert got == pytest.approx(want, rel=1e-13)


def test_require_in_support(exponential):
    require_in_support(exponential, 1.0)
    with pytest.raises(DomainError):
        require_in_support(exponential, -1.0)
    with pytest.raises(DomainError):
        require_in_support(exponential, float("nan"))


def test_require_in_support_floats_and_arrays_agree(exponential):
    # Floats take a comparison, everything else the array test; both
    # accept and refuse the same values with the one message.
    unit = dataclasses.replace(exponential, support=(0.0, 1.0))
    for fam, bad in ((exponential, (math.nan, math.inf, -math.inf, 0.0, -2.0)),
                     (unit, (math.nan, math.inf, -math.inf, 0.0, 1.0, 1.5))):
        lo, hi = fam.support
        for v in bad:
            for theta in (v, np.float64(v), np.array(v), np.array([0.5, v])):
                with pytest.raises(DomainError) as info:
                    require_in_support(fam, theta, what="delta")
                assert str(info.value) == (
                    f"delta={theta!r} is outside the open support ({lo}, {hi}) "
                    f"of family {fam.name}")
        for theta in (0.5, np.float64(0.5), np.array(0.5), np.array([0.25, 0.75])):
            require_in_support(fam, theta)


def test_lgamma_is_elementwise_math_lgamma():
    from gminimax.families import _lgamma

    x = np.arange(1.0, 13.0).reshape(3, 4)
    got = _lgamma(x)
    assert got.shape == (3, 4)
    assert got.tolist() == [[math.lgamma(v) for v in row] for row in x.tolist()]
    assert np.shape(_lgamma(5.0)) == () and float(_lgamma(5.0)) == math.lgamma(5.0)
