"""Expression language and expression-defined families."""

import dataclasses
import json
import math
import operator
import warnings
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from gminimax import (
    ConjugatePrior,
    PriorBox,
    SpecificationError,
    bayes_estimate,
    builtin_family,
    family_from_config,
    fisher_info,
    intrinsic_loss,
    kl_quadrature,
    mean_inverse,
    posterior_predictive_mean,
    prgm_conjugate_box,
    prgm_from_bounds,
)
from gminimax import families
from gminimax.cli import main
from gminimax.expressions import Expression, _derivative, _fold, parse_expression
from gminimax.families import INVERT_ATOL, INVERT_RTOL, support_grid


def ev(source, theta=0.0):
    return parse_expression(source, "theta")(theta)


class TestParser:
    def test_arithmetic(self):
        assert ev("1 + 2*3") == 7.0
        assert ev("2*3 + 4*5") == 26.0
        assert ev("(1 + 2) * 3") == 9.0
        assert ev("7/2") == 3.5
        assert ev("1 - 2 - 3") == -4.0  # left-associative

    def test_power_is_right_associative(self):
        assert ev("2^3^2") == 512.0
        assert ev("(2^3)^2") == 64.0

    def test_unary_minus(self):
        assert ev("- -2") == 2.0
        assert ev("-theta^2", 3.0) == -9.0
        assert ev("2*-3") == -6.0

    def test_functions(self):
        assert ev("exp(0)") == 1.0
        assert ev("log(exp(1))") == pytest.approx(1.0, rel=1e-15)
        assert ev("exp(log(theta))", 2.5) == pytest.approx(2.5, rel=1e-14)

    def test_scientific_numbers(self):
        assert ev("1e3 + 2.5e-1") == 1000.25
        assert ev(".5 * 4") == 2.0

    def test_vectorized_evaluation(self):
        expr = parse_expression("theta^2 - 1", "theta")
        out = expr(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [0.0, 3.0, 8.0])

    @pytest.mark.parametrize("source,var,pos,name", [
        ("theta + x", "theta", 8, "x"),
        ("a*x + b", "x", 0, "a"),
        ("log(exp(theta))", "x", 8, "theta"),
        ("exp", "theta", 0, "exp"),
        ("__debug__", "theta", 0, "__debug__"),
    ])
    def test_a_stray_name_is_refused_at_its_position(self, source, var, pos, name):
        with pytest.raises(SpecificationError) as info:
            parse_expression(source, var)
        assert str(info.value) == (
            f"parse error at position {pos}: unknown name {name!r}; the variable "
            f"is {var!r}\n    {source}\n    {' ' * pos}^")

    def test_a_literal_is_no_stray_name(self):
        expr = parse_expression("a*theta + b", "theta", {"a": 2.0, "b": 1.0})
        assert expr._ast == ("+", ("*", ("num", 2.0), ("var", "theta")), ("num", 1.0))
        assert expr(3.0) == 7.0

    def test_error_points_at_position(self):
        with pytest.raises(SpecificationError) as exc:
            parse_expression("1 + * 2", "theta")
        msg = str(exc.value)
        assert "position 4" in msg
        assert "1 + * 2" in msg
        # caret sits under the offending token
        caret_line = msg.splitlines()[-1]
        assert caret_line.strip() == "^"
        assert caret_line.index("^") - len("    ") == 4

    def test_unknown_function(self):
        with pytest.raises(SpecificationError, match="unknown function 'sin'"):
            parse_expression("sin(theta)", "theta")

    def test_unexpected_character(self):
        with pytest.raises(SpecificationError, match="unexpected character"):
            parse_expression("theta $ 2", "theta")

    def test_trailing_input(self):
        with pytest.raises(SpecificationError,
                           match="^parse error at position 2: invalid syntax"):
            parse_expression("1 2", "theta")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(SpecificationError,
                           match=r"^parse error at position 0: '\(' was never closed"):
            parse_expression("(1 + 2", "theta")

    def test_truncated_expression(self):
        with pytest.raises(SpecificationError,
                           match="^parse error at position 3: invalid syntax"):
            parse_expression("1 +", "theta")

    def test_position_counts_the_original_text(self):
        # Leading whitespace is stripped and each ^ becomes two characters
        # before Python parses; the caret still lands under the source.
        with pytest.raises(SpecificationError, match="^parse error at position 8:"):
            parse_expression("\t 2^3 ^ ^ 1", "theta")

    @pytest.mark.parametrize("source,pos", [("2**3", 2), ("2 ** theta", 3)])
    def test_python_power_spelling_is_refused(self, source, pos):
        with pytest.raises(SpecificationError, match=(
                f"^parse error at position {pos}: unexpected character '\\*'")):
            parse_expression(source, "theta")

    @pytest.mark.parametrize("source", [
        "01", "1j", "0x1f", "1_000", "True", "+theta", "theta//2", "theta.real",
        "theta if theta else 1", "not theta", "theta in x", "exp()", "exp(*theta)",
        "(exp)(theta)", "2(3)", "__debug__",
    ])
    def test_python_only_syntax_is_refused(self, source):
        with pytest.raises(SpecificationError, match="^parse error at position"):
            parse_expression(source, "theta")

    def test_literal_subtrees_are_folded(self):
        expr = parse_expression("theta*(2*3) - -exp(0)", "theta")
        assert expr._ast == ("-", ("*", ("var", "theta"), ("num", 6.0)), ("num", -1.0))
        assert expr(0.5) == 4.0

    @pytest.mark.parametrize("source,var,value,want", [
        ("exp*exp(exp)", "exp", 0.0, 0.0),
        ("log*log(log)", "log", 1.0, 0.0),
        ("power^power", "power", 2.0, 4.0),
        ("self*exp(self)", "self", 2.0, 2.0 * math.exp(2.0)),
        ("np*exp(np)", "np", 1.0, math.e),
        ("math*log(math)", "math", 1.0, 0.0),
    ])
    def test_a_variable_shadows_nothing(self, source, var, value, want):
        # The float body and the array body alike.
        expr = parse_expression(source, var)
        assert expr(value) == want
        assert expr(np.array([value])).tolist() == [pytest.approx(want, rel=1e-15)]

    def test_literal_division_by_zero(self):
        with pytest.raises(SpecificationError,
                           match=r"'log\(theta\) \+ 1/\(1-1\)' divides by zero"):
            parse_expression("log(theta) + 1/(1-1)", "theta")

    @pytest.mark.parametrize("source", ["", "   ", None, 42])
    def test_not_an_expression(self, source):
        with pytest.raises(SpecificationError):
            parse_expression(source, "theta")


EXP_CLONE = dict(
    name="my_exp",
    support=[0, None],
    log_norm="log(theta)",
    mean="1/theta",
    mean_deriv="-1/theta^2",
    mean_range=[0, None],
    jeffreys_shift=[-1, 0],
)


class TestFamilyFromConfig:
    def test_clone_matches_builtin(self, exponential):
        fam = family_from_config(dict(EXP_CLONE))
        assert fam.name == "my_exp"
        assert fam.support == (0.0, float("inf"))
        got = prgm_from_bounds(fam, 1.0, 2.0)
        want = prgm_from_bounds(exponential, 1.0, 2.0)
        assert got.estimate == pytest.approx(want.estimate, rel=1e-14)
        b = bayes_estimate(fam, ConjugatePrior(fam, 2.0, 1.0), 3.0)
        assert b.estimate == pytest.approx(0.75, rel=1e-12)

    def test_constant_mean_deriv(self, normal, capsys, tmp_path):
        cfg = dict(name="my_normal", support=[None, None], log_norm="-theta^2/2",
                   mean="-theta", mean_deriv="-1", stat="-x", jeffreys_shift=[0, 0])
        fam = family_from_config(dict(cfg))
        got = prgm_conjugate_box(fam, PriorBox(fam, 1.0, 3.0, -0.5, 0.5), 0.7)
        want = prgm_conjugate_box(normal, PriorBox(normal, 1.0, 3.0, -0.5, 0.5), 0.7)
        assert got.estimate == pytest.approx(want.estimate, rel=1e-12)
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.warns(UserWarning, match="no propriety predicate"):
            rc = main(["prgm", "--family-file", str(path), "--box", "a=1:3,l=-0.5:0.5",
                       "--x", "0.7"])
        assert rc == 0, capsys.readouterr().err

    def test_constant_mean_deriv_fisher_info_keeps_shape(self):
        fam = family_from_config(dict(
            name="my_normal", support=[None, None], log_norm="-theta^2/2",
            mean="-theta", mean_deriv="-1", stat="-x", jeffreys_shift=[0, 0]))
        theta = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(fisher_info(fam, theta), np.ones(3))
        assert fisher_info(fam, np.ones((2, 2))).shape == (2, 2)
        assert fisher_info(fam, 1.5) == 1.0

    @pytest.mark.parametrize("cfg", [
        dict(log_norm="-theta^2/2", mean="-theta", mean_deriv="-1"),
        dict(log_norm="-theta^2/2"),  # mean_deriv derives to the literal -1
    ], ids=["written", "derived"])
    def test_constant_mapping_returns_its_arguments_shape(self, cfg):
        fam = family_from_config(dict(cfg, name="n", support=[None, None]))
        for theta in (np.ones((2, 3)), np.ones(0)):
            got = fam.mean_deriv(theta)
            assert got.shape == theta.shape and np.all(got == -1.0)
        assert isinstance(fam.mean_deriv(1.5), float) and fam.mean_deriv(1.5) == -1.0

    @pytest.mark.parametrize("log_norm", ["theta", "2"])
    def test_constant_mean_is_refused(self, log_norm):
        # np.diff of the mean on the grid raised a raw ValueError here
        cfg = dict(name="lin", support=[None, None], log_norm=log_norm)
        with pytest.raises(SpecificationError,
                           match="mean function is not strictly decreasing"):
            family_from_config(cfg)

    def test_omitted_mean_deriv_is_exact(self):
        cfg = dict(name="exact_exp", support=[0, None], log_norm="log(theta)",
                   mean="1/theta")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fam = family_from_config(cfg)
        assert float(fam.mean_deriv(2.0)) == -0.25
        # a central difference clamped to theta/2 read 1.333e16 here
        assert fisher_info(fam, 1e-8) == 1e16

    def test_readme_config_without_derivatives_matches_builtin(self, exponential):
        cfg = {k: v for k, v in EXP_CLONE.items() if k not in ("mean", "mean_deriv")}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fam = family_from_config(cfg)  # jeffreys_shift [-1, 0] holds exactly
        for theta, delta in ((1.0, 1.0 + 1e-7), (100.0, 100.0 * (1.0 + 1e-7))):
            got = intrinsic_loss(fam, theta, delta)
            want = intrinsic_loss(exponential, theta, delta)
            assert abs(got - want) <= np.spacing(want)
        got = prgm_from_bounds(fam, 1.0, 2.0).estimate
        want = prgm_from_bounds(exponential, 1.0, 2.0).estimate
        assert abs(got - want) <= np.spacing(want)

    def test_custom_stat(self):
        cfg = dict(EXP_CLONE, name="stat_exp", stat="2*x")
        fam = family_from_config(cfg)
        assert float(fam.stat(1.5)) == 3.0

    def test_kl_oracle_refuses_custom_family(self):
        fam = family_from_config(dict(EXP_CLONE))
        with pytest.raises(SpecificationError, match="sampling model"):
            kl_quadrature(fam, 1.0, 2.0)

    def test_missing_required_key(self):
        cfg = dict(EXP_CLONE)
        del cfg["log_norm"]
        with pytest.raises(SpecificationError, match="missing"):
            family_from_config(cfg)

    def test_unknown_key(self):
        with pytest.raises(SpecificationError, match="unknown"):
            family_from_config(dict(EXP_CLONE, carrier="1"))

    def test_not_a_mapping(self):
        with pytest.raises(SpecificationError, match="mapping"):
            family_from_config(["name", "my_exp"])

    @pytest.mark.parametrize("support", [[0], [0, 1, 2], "0..inf", None])
    def test_malformed_support(self, support):
        with pytest.raises(SpecificationError):
            family_from_config(dict(EXP_CLONE, support=support))

    def test_bad_support_endpoint_string(self):
        with pytest.raises(SpecificationError, match="endpoint"):
            family_from_config(dict(EXP_CLONE, support=["zero", None]))

    def test_infinity_spelled_out(self):
        fam = family_from_config(dict(EXP_CLONE, support=[0, "inf"]))
        assert fam.support == (0.0, float("inf"))

    def test_log_norm_must_use_theta_only(self):
        with pytest.raises(SpecificationError) as info:
            family_from_config(dict(EXP_CLONE, log_norm="log(x)"))
        assert str(info.value) == ("log_norm: parse error at position 4: unknown name "
                                   "'x'; the variable is 'theta'\n    log(x)\n        ^")

    def test_stat_must_use_x_only(self):
        with pytest.raises(SpecificationError) as info:
            family_from_config(dict(EXP_CLONE, stat="theta*x"))
        assert str(info.value) == ("stat: parse error at position 0: unknown name "
                                   "'theta'; the variable is 'x'\n    theta*x\n    ^")

    def test_malformed_jeffreys_shift(self):
        with pytest.raises(SpecificationError, match="jeffreys_shift"):
            family_from_config(dict(EXP_CLONE, jeffreys_shift=[1.0]))

    @pytest.mark.parametrize("key,value,message", [
        ("support", [False, None],
         "bad support endpoint False; expected a number, null or 'inf'"),
        ("mean_range", [False, True],
         "bad mean_range endpoint False; expected a number, null or 'inf'"),
        ("jeffreys_shift", [-1, False], "bad jeffreys_shift entry False; expected a number"),
    ], ids=["support", "mean_range", "jeffreys_shift"])
    def test_booleans_are_not_numbers(self, key, value, message):
        # A JSON true or false is a Python bool, which is an int.
        with pytest.raises(SpecificationError) as info:
            family_from_config(dict(EXP_CLONE, **{key: value}))
        assert str(info.value) == message

    @pytest.mark.parametrize("key,value,message", [
        ("jeffreys_shift", [-1, math.nan],
         "jeffreys_shift must be two finite numbers, got (-1.0, nan)"),
        ("jeffreys_shift", [math.inf, 0],
         "jeffreys_shift must be two finite numbers, got (inf, 0.0)"),
        ("mean_range", [math.nan, None],
         "mean_range must be an interval with lo < hi, got (nan, inf)"),
        ("mean_range", [1, 0], "mean_range must be an interval with lo < hi, got (1.0, 0.0)"),
    ], ids=["shift_nan", "shift_inf", "mean_range_nan", "mean_range_reversed"])
    def test_numbers_without_meaning_are_refused(self, key, value, message):
        # Refused as built, before a Bayes action or a jcp box blames another input.
        with pytest.raises(SpecificationError) as info:
            family_from_config(dict(EXP_CLONE, **{key: value}))
        assert str(info.value) == message

    @pytest.mark.parametrize("stat", [0, False, "", 1], ids=["zero", "false", "empty", "one"])
    def test_a_stat_other_than_null_is_parsed(self, stat):
        # A falsy stat is not the default "x": the parser refuses it.
        with pytest.raises(SpecificationError) as info:
            family_from_config(dict(EXP_CLONE, stat=stat))
        assert str(info.value) == "stat: expression must be a nonempty string"

    def test_null_stat_is_the_observation(self):
        fam = family_from_config(dict(EXP_CLONE, stat=None))
        assert fam.stat.source == "x" and fam.stat(1.5) == 1.5

    @pytest.mark.parametrize("name", [None, ["a"], "", 5, False],
                             ids=["null", "list", "empty", "number", "false"])
    def test_name_must_be_a_nonempty_string(self, name):
        with pytest.raises(SpecificationError) as info:
            family_from_config(dict(EXP_CLONE, name=name))
        assert str(info.value) == f"bad name entry {name!r}; expected a nonempty string"

    @pytest.mark.parametrize("name", ["my\nexp", "tab\there", "\x1b[31mred", "\u2028"],
                             ids=["newline", "tab", "escape", "line_separator"])
    def test_name_must_be_printable(self, name):
        with pytest.raises(SpecificationError) as info:
            family_from_config(dict(EXP_CLONE, name=name))
        assert str(info.value) == f"bad name entry {name!r}; expected printable characters"
        assert len(str(info.value).splitlines()) == 1

    def test_mappings_are_the_expressions(self):
        fam = family_from_config(dict(EXP_CLONE, stat="2*x"))
        assert [getattr(fam, key).source for key in
                ("log_norm", "mean", "mean_deriv", "stat")] == [
            "log(theta)", "1/theta", "-1/theta^2", "2*x"]

    def test_every_mapping_call_passes_through_call(self, monkeypatch):
        # What a tracer patched onto Expression.__call__ counts is every call
        # a config family's mappings take, on floats and on arrays.
        fam = family_from_config(dict(EXP_CLONE, stat="2*x"))
        keys = ("log_norm", "mean", "mean_deriv", "stat")
        taken, counted = Counter(), Counter()

        def spy(key):
            mapping = getattr(fam, key)
            return lambda value: taken.update([mapping.source]) or mapping(value)

        call = Expression.__call__

        def counting(self, *args, **env):
            counted[self.source] += 1
            return call(self, *args, **env)

        traced = dataclasses.replace(fam, **{key: spy(key) for key in keys})
        monkeypatch.setattr(Expression, "__call__", counting)
        bayes_estimate(traced, ConjugatePrior(traced, 2.0, 1.0), 3.0)
        prgm_from_bounds(traced, 1.0, 2.0)
        for theta in (0.5, np.array([0.5, 2.0])):
            for key in keys:
                getattr(traced, key)(theta)
        assert counted == taken
        assert all(taken[getattr(fam, key).source] > 0 for key in keys)

    def test_inconsistent_mean_is_rejected(self):
        cfg = dict(EXP_CLONE, name="bad", mean="1/theta + 0.05")
        with pytest.raises(SpecificationError, match="failed validation"):
            family_from_config(cfg)

    def test_wrong_shift_is_rejected(self):
        cfg = dict(EXP_CLONE, name="bad_shift", jeffreys_shift=[-1, 0.25])
        with pytest.raises(SpecificationError, match="failed validation"):
            family_from_config(cfg)

    def test_an_infinite_information_on_the_grid_fails_validation(self):
        # 1e300/theta^2 overflows at the grid's first point: the shift
        # check reports it as a problem, not as a raised DomainError.
        cfg = dict(name="big", support=[0, None], log_norm="1e300*log(theta)",
                   mean_range=[0, None], jeffreys_shift=[-1, 0])
        with pytest.raises(SpecificationError, match="failed validation: the "
                           "Fisher information of big at theta=1.2000000000000002e-08 "
                           "is infinite"):
            family_from_config(cfg)


# Expression twins of the built-ins, with hand-written derivatives.
TWINS = {
    "normal": dict(
        name="normal_twin", support=[None, None], log_norm="-theta^2/2",
        mean="-theta", mean_deriv="0*theta - 1", stat="-x",
        mean_range=[None, None], jeffreys_shift=[0, 0]),
    "exponential": dict(
        name="exponential_twin", support=[0, None], log_norm="log(theta)",
        mean="1/theta", mean_deriv="-1/theta^2", mean_range=[0, None],
        jeffreys_shift=[-1, 0]),
    "binomial_logit(5)": dict(
        name="binomial5_twin", support=[None, None],
        log_norm="-5*log(1 + exp(-theta))", mean="5/(1 + exp(theta))",
        mean_deriv="-5*exp(theta)/(1 + exp(theta))^2", mean_range=[0, 5],
        jeffreys_shift=[0.2, 0.5]),
    "poisson": dict(
        name="poisson_twin", support=[None, None], log_norm="-exp(-theta)",
        mean="exp(-theta)", mean_deriv="-exp(-theta)", mean_range=[0, None],
        jeffreys_shift=[0, 0.5]),
}


def dual(node, theta):
    """(value, d/dtheta) of a parsed tree by forward-mode dual numbers."""
    kind = node[0]
    if kind == "num":
        return np.float64(node[1]), np.float64(0.0)
    if kind == "var":
        return theta, np.float64(1.0)
    if kind == "neg":
        u, du = dual(node[1], theta)
        return -u, -du
    if kind == "call":
        u, du = dual(node[2], theta)
        if node[1] == "exp":
            return np.exp(u), np.exp(u) * du
        return np.log(u), du / u
    (u, du), (v, dv) = dual(node[1], theta), dual(node[2], theta)
    if kind == "+":
        return u + v, du + dv
    if kind == "-":
        return u - v, du - dv
    if kind == "*":
        return u * v, du * v + u * dv
    if kind == "/":
        return u / v, (du - u / v * dv) / v
    p = np.power(u, v)
    if dv == 0.0:
        return p, v * np.power(u, v - 1.0) * du
    return p, p * (dv * np.log(u) + v * (du / u))


def _trees():
    leaves = st.sampled_from(
        [("var", "theta")] + [("num", v) for v in (0.0, 0.5, 1.0, 2.0, 3.0)])
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("call"), st.sampled_from(["exp", "log"]), sub),
    ), max_leaves=10)


class TestDerivatives:
    @pytest.mark.parametrize("key", sorted(TWINS))
    def test_twins_derive_their_hand_written_derivatives(self, key):
        cfg = TWINS[key]
        derived_mean = family_from_config(
            {k: v for k, v in cfg.items() if k != "mean"})
        derived_deriv = family_from_config(
            {k: v for k, v in cfg.items() if k != "mean_deriv"})
        grid = support_grid(derived_mean)
        for got, source in ((derived_mean.mean(grid), cfg["mean"]),
                            (derived_deriv.mean_deriv(grid), cfg["mean_deriv"])):
            want = parse_expression(source, "theta")(grid)
            assert got.shape == grid.shape  # a derived constant too
            assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))

    def test_constant_derivative_stays_a_literal(self):
        tree = parse_expression("3*theta - 2", "theta")._ast
        assert _derivative(tree, "theta") == ("num", 3.0)
        assert _derivative(parse_expression("-theta^2/2", "theta")._ast, "theta") == (
            "/", ("neg", ("*", ("num", 2.0), ("var", "theta"))), ("num", 2.0))

    def test_zero_factor_never_meets_infinity(self):
        # d/dtheta of 2*exp(theta) has no 0*inf term, even where exp overflows
        tree = _derivative(parse_expression("2*exp(theta)", "theta")._ast, "theta")
        with np.errstate(over="ignore"):
            assert Expression("d", tree, "theta")(1000.0) == np.inf

    @settings(max_examples=400, deadline=None)
    @given(tree=_trees(), theta=st.floats(0.05, 4.0))
    def test_derivative_matches_dual_numbers(self, tree, theta):
        theta = np.float64(theta)
        with np.errstate(all="ignore"):
            want = dual(tree, theta)[1]
            try:
                got = Expression("tree", _derivative(tree, "theta"), "theta")(theta)
            except SpecificationError:  # a literal-only subtree divides by zero
                return
        if np.isfinite(got) and np.isfinite(want):
            assert abs(got - want) <= 1e-12 * max(abs(got), abs(want))


# A twin counts one unit of alpha per observation, the binomial n = 5.
TWIN_ALPHA_UNITS = {"binomial_logit(5)": 5.0}
TWIN_X = {"normal": (-3.0, 0.0, 2.0), "exponential": (0.2, 1.0, 5.0),
          "binomial_logit(5)": (0.0, 2.0, 5.0), "poisson": (0.0, 3.0, 12.0)}


def twin_priors(key):
    """The built-in, its twin, and (built-in prior, twin prior, x) over a
    grid of (alpha, lambda, x) in built-in units, all proper."""
    fam, twin = builtin_family(key), family_from_config(dict(TWINS[key]))
    units = TWIN_ALPHA_UNITS.get(key, 1.0)
    grid = [(ConjugatePrior(fam, a, l), ConjugatePrior(twin, a / units, l), x)
            for a in (1.0, 2.5, 4.0) for l in (0.2, 0.5, 0.9) for x in TWIN_X[key]]
    return fam, twin, grid


class TestTwinInversion:
    @pytest.mark.parametrize("key", sorted(TWINS))
    def test_bayes_action_matches_the_builtin(self, key):
        fam, twin, grid = twin_priors(key)
        for prior, twin_prior, x in grid:
            want = bayes_estimate(fam, prior, x)
            got = bayes_estimate(twin, twin_prior, x)
            t = want.diagnostics["posterior_mean"]
            assert got.diagnostics["posterior_mean"] == pytest.approx(t, rel=1e-15)
            # the inversion tolerance on the mean, read on theta through its slope
            tol = INVERT_RTOL * abs(t) + INVERT_ATOL
            assert abs(got.estimate - want.estimate) <= (
                1.01 * tol / fisher_info(fam, want.estimate) + 2 * math.ulp(want.estimate))

    @pytest.mark.parametrize("key", sorted(TWINS))
    def test_inversions_stay_within_the_itp_bound(self, key, monkeypatch):
        _, twin, grid = twin_priors(key)
        calls = []
        counted = dataclasses.replace(
            twin, mean=lambda theta: calls.append(theta) or twin.mean(theta))
        walk, itp = families._expand_bracket, families._itp
        walked, solves = [], []

        def spy_walk(fam, t):
            bracket = walk(fam, t)
            walked.append(len(calls))
            return bracket

        def spy_itp(f, a, b, fa, fb, width):
            before = len(calls)
            root, n = itp(f, a, b, fa, fb, width)
            assert n == len(calls) - before
            span = abs(b - a)  # 0 when the walk's start is the root
            bound = max(0, math.ceil(math.log2(span / width))) + 1 if span else 0
            solves.append((n, bound))
            return root, n

        monkeypatch.setattr(families, "_expand_bracket", spy_walk)
        monkeypatch.setattr(families, "_itp", spy_itp)
        per_inversion = []
        for _, twin_prior, x in grid:
            calls.clear()
            mean_inverse(counted, posterior_predictive_mean(twin, twin_prior, x))
            per_inversion.append(len(calls))
            n, bound = solves[-1]
            assert n <= bound
            # after the walk, which hands on its end values: the solve, one acceptance read
            assert len(calls) - walked[-1] == n + 1
        assert len(solves) == len(grid)
        # the halving loop made 41-43 mean calls per inversion on this grid
        assert sum(per_inversion) / len(per_inversion) < 18.0


_REFERENCE = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": np.power, "neg": operator.neg,
              "exp": np.exp, "log": np.log}
_MATH_REFERENCE = dict(_REFERENCE, **{"^": math.pow, "exp": math.exp, "log": math.log})


def reference(node, env, functions=_REFERENCE, number=np.float64):
    """Value of a parsed tree by a plain walk, numbers as ``number``."""
    kind = node[0]
    if kind == "num":
        return number(node[1])
    if kind == "var":
        return env[node[1]]
    args = [reference(a, env, functions, number) for a in node[2 if kind == "call" else 1:]]
    return functions[node[1] if kind == "call" else kind](*args)


def float_reference(node, env):
    """The walk on Python floats over ``math``; where ``math`` refuses, the
    walk over numpy on numpy floats."""
    try:
        return reference(node, {k: float(v) for k, v in env.items()}, _MATH_REFERENCE,
                         float)
    except (OverflowError, ValueError, ZeroDivisionError):
        return reference(node, {k: np.float64(v) for k, v in env.items()})


def folded_reference(node):
    """The tree with each literal-only subtree replaced by its value as a
    float call gives it: the walk over math, or over numpy where math refuses."""
    if node[0] in ("num", "var"):
        return node
    head = 2 if node[0] == "call" else 1
    node = node[:head] + tuple(folded_reference(a) for a in node[head:])
    if any(a[0] != "num" for a in node[head:]):
        return node
    return ("num", float(float_reference(node, {})))


_values = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=500, deadline=None)
@given(tree=_trees(), theta=st.lists(_values, min_size=3, max_size=3))
def test_compiled_expression_matches_a_reference_walk(tree, theta):
    # Bit for bit, nan payloads and signed zeros included: numpy floats and
    # Python floats against the walk over math, 0-d and 3-element arrays
    # against the walk over numpy.  Literal-only subtrees fold as a float
    # call evaluates them, for both bodies, so each walk takes the tree
    # folded that way: math's exp and log may round otherwise than numpy's.
    # A tree that folds to a number c runs as c + 0*theta.
    try:
        expr = Expression("tree", tree, "theta")
    except SpecificationError:  # a literal-only subtree divides by zero
        return
    scalar = np.float64(theta[0])
    with np.errstate(all="ignore"):
        folded = folded_reference(tree)
    if folded[0] == "num":
        folded = ("+", folded, ("*", ("num", 0.0), ("var", "theta")))
    assert repr(expr._ast) == repr(folded)
    for value, walk in ((scalar, float_reference), (float(scalar), float_reference),
                        (np.array(scalar), reference), (np.array(theta), reference)):
        with np.errstate(all="ignore"):
            got, want = expr(value), walk(folded, {"theta": value})
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got, float).tobytes() == np.asarray(want, float).tobytes()


class TestFloatBody:
    def test_a_float_call_returns_a_float(self):
        expr = parse_expression("-5*log(1 + exp(-theta))", "theta")
        for theta in (0.7, np.float64(0.7)):
            assert type(expr(theta)) is float
        for theta in (np.array([0.7, 1.0]), np.ones((2, 2))):
            assert type(expr(theta)) is np.ndarray and expr(theta).shape == theta.shape
        # 0-d arrays and ints take the array body, as numpy floats
        assert type(expr(np.array(0.7))) is np.float64 and type(expr(1)) is np.float64

    @pytest.mark.parametrize("source,theta", [
        ("exp(-theta)", -800.0), ("log(theta)", 0.0), ("log(theta)", -1.0),
        ("1/theta", 0.0), ("theta^-1", 0.0), ("theta^(1/3)", -8.0),
    ])
    def test_where_math_refuses_the_array_body_answers(self, source, theta):
        expr = parse_expression(source, "theta")
        with pytest.raises((OverflowError, ValueError, ZeroDivisionError)):
            expr._float(theta)
        with pytest.warns(RuntimeWarning) as got_warnings:
            got = expr(theta)
        with pytest.warns(RuntimeWarning) as want_warnings:
            want = expr(np.array(theta))
        assert repr(got) == repr(want) and not math.isfinite(got)
        assert ([str(w.message) for w in got_warnings]
                == [str(w.message) for w in want_warnings])

    @pytest.mark.parametrize("key", sorted(TWINS))
    def test_twin_means_agree_with_the_array_body(self, key):
        fam = family_from_config(dict(TWINS[key]))
        grid = support_grid(fam)
        want = fam.mean(grid)
        got = np.array([fam.mean(float(theta)) for theta in grid])
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("call", [
        lambda expr: expr(),
        lambda expr: expr(1.0, 2.0),
        lambda expr: expr(theta=1.0),
        lambda expr: expr(1.0, theta=1.0),
    ], ids=["none", "two", "keyword", "with_a_keyword"])
    def test_a_call_takes_one_positional_value(self, call):
        with pytest.raises(TypeError):  # Python's refusal
            call(parse_expression("theta", "theta"))


# Binding levels of the grammar: sum 1, term 2, unary 3, power 4, atom 5.
# The operands each operator takes, as the least level printed bare.
_OPERANDS = {"+": (1, 2), "-": (1, 2), "*": (2, 3), "/": (2, 3), "^": (5, 3)}


def _show(node) -> tuple[str, int]:
    """Source text of a tree with only the parentheses the grammar needs."""
    kind = node[0]
    if kind == "num":
        v = node[1]
        return (str(int(v)) if v.is_integer() and v < 1e15 else repr(v)), 5
    if kind == "var":
        return node[1], 5
    if kind == "call":
        return f"{node[1]}({_show(node[2])[0]})", 5
    if kind == "neg":
        return "-" + _operand(node[1], 3), 3
    left, right = _OPERANDS[kind]
    level = 4 if kind == "^" else left
    return f"{_operand(node[1], left)} {kind} {_operand(node[2], right)}", level


def _operand(node, least: int) -> str:
    text, level = _show(node)
    return text if level >= least else f"({text})"


def _grammar_trees():
    leaves = st.one_of(
        st.just(("var", "theta")),
        st.integers(0, 99).map(lambda k: ("num", float(k))),
        st.floats(0.0, allow_infinity=False).map(lambda v: ("num", v)))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("call"), st.sampled_from(["exp", "log"]), sub),
    ), max_leaves=12)


@settings(max_examples=500, deadline=None)
@given(tree=_grammar_trees())
def test_printed_tree_parses_back(tree):
    text = _show(tree)[0]
    with np.errstate(all="ignore"):
        try:
            want = _fold(tree)
        except ZeroDivisionError:
            with pytest.raises(SpecificationError, match="divides by zero"):
                parse_expression(text, "theta")
            return
        got = parse_expression(text, "theta")._ast
    if want[0] == "num":  # a constant runs as c + 0*theta
        want = ("+", want, ("*", ("num", 0.0), ("var", "theta")))
    # repr, not ==: a folded nan equals no other nan, and -0.0 equals 0.0
    assert repr(got) == repr(want), text
