"""Expression language and expression-defined families."""

import json
import operator
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from gminimax import (
    ConjugatePrior,
    PriorBox,
    SpecificationError,
    bayes_estimate,
    family_from_config,
    fisher_info,
    intrinsic_loss,
    kl_quadrature,
    prgm_conjugate_box,
    prgm_from_bounds,
)
from gminimax.cli import main
from gminimax.expressions import Expression, _derivative, _fold, parse_expression
from gminimax.families import support_grid


def ev(source, **env):
    return parse_expression(source)(**env)


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
        assert ev("-theta^2", theta=3.0) == -9.0
        assert ev("2*-3") == -6.0

    def test_functions(self):
        assert ev("exp(0)") == 1.0
        assert ev("log(exp(1))") == pytest.approx(1.0, rel=1e-15)
        assert ev("exp(log(theta))", theta=2.5) == pytest.approx(2.5, rel=1e-14)

    def test_scientific_numbers(self):
        assert ev("1e3 + 2.5e-1") == 1000.25
        assert ev(".5 * 4") == 2.0

    def test_variables_are_collected(self):
        expr = parse_expression("a*x + b")
        assert expr.variables == frozenset({"a", "x", "b"})
        assert expr(a=2.0, x=3.0, b=1.0) == 7.0

    def test_vectorized_evaluation(self):
        expr = parse_expression("theta^2 - 1")
        out = expr(theta=np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [0.0, 3.0, 8.0])

    def test_missing_variable(self):
        expr = parse_expression("theta + x")
        with pytest.raises(SpecificationError, match="theta"):
            expr(x=1.0)

    def test_error_points_at_position(self):
        with pytest.raises(SpecificationError) as exc:
            parse_expression("1 + * 2")
        msg = str(exc.value)
        assert "position 4" in msg
        assert "1 + * 2" in msg
        # caret sits under the offending token
        caret_line = msg.splitlines()[-1]
        assert caret_line.strip() == "^"
        assert caret_line.index("^") - len("    ") == 4

    def test_unknown_function(self):
        with pytest.raises(SpecificationError, match="unknown function 'sin'"):
            parse_expression("sin(theta)")

    def test_unexpected_character(self):
        with pytest.raises(SpecificationError, match="unexpected character"):
            parse_expression("theta $ 2")

    def test_trailing_input(self):
        with pytest.raises(SpecificationError,
                           match="^parse error at position 2: invalid syntax"):
            parse_expression("1 2")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(SpecificationError,
                           match=r"^parse error at position 0: '\(' was never closed"):
            parse_expression("(1 + 2")

    def test_truncated_expression(self):
        with pytest.raises(SpecificationError,
                           match="^parse error at position 3: invalid syntax"):
            parse_expression("1 +")

    def test_position_counts_the_original_text(self):
        # Leading whitespace is stripped and each ^ becomes two characters
        # before Python parses; the caret still lands under the source.
        with pytest.raises(SpecificationError, match="^parse error at position 8:"):
            parse_expression("\t 2^3 ^ ^ 1")

    @pytest.mark.parametrize("source,pos", [("2**3", 2), ("2 ** theta", 3)])
    def test_python_power_spelling_is_refused(self, source, pos):
        with pytest.raises(SpecificationError, match=(
                f"^parse error at position {pos}: unexpected character '\\*'")):
            parse_expression(source)

    @pytest.mark.parametrize("source", [
        "01", "1j", "0x1f", "1_000", "True", "+theta", "theta//2", "theta.real",
        "theta if theta else 1", "not theta", "theta in x", "exp()", "exp(*theta)",
        "(exp)(theta)", "2(3)", "__debug__",
    ])
    def test_python_only_syntax_is_refused(self, source):
        with pytest.raises(SpecificationError, match="^parse error at position"):
            parse_expression(source)

    def test_literal_subtrees_are_folded(self):
        expr = parse_expression("theta*(2*3) - -exp(0)")
        assert expr._ast == ("-", ("*", ("var", "theta"), ("num", 6.0)), ("num", -1.0))
        assert expr(theta=0.5) == 4.0

    @pytest.mark.parametrize("source,env,want", [
        ("exp*exp(theta)", dict(exp=2.0, theta=0.0), 2.0),
        ("log*log(theta)", dict(log=2.0, theta=1.0), 0.0),
        ("theta^power", dict(theta=2.0, power=3.0), 8.0),
        ("self*exp(theta)", dict(self=2.0, theta=0.0), 2.0),
    ])
    def test_a_variable_shadows_nothing(self, source, env, want):
        assert parse_expression(source)(**env) == want

    def test_literal_division_by_zero(self):
        with pytest.raises(SpecificationError,
                           match=r"'log\(theta\) \+ 1/\(1-1\)' divides by zero"):
            parse_expression("log(theta) + 1/(1-1)")

    @pytest.mark.parametrize("source", ["", "   ", None, 42])
    def test_not_an_expression(self, source):
        with pytest.raises(SpecificationError):
            parse_expression(source)


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
        with pytest.raises(SpecificationError, match="may only use"):
            family_from_config(dict(EXP_CLONE, log_norm="log(x)"))

    def test_stat_must_use_x_only(self):
        with pytest.raises(SpecificationError, match="stat may only use"):
            family_from_config(dict(EXP_CLONE, stat="theta*x"))

    def test_malformed_jeffreys_shift(self):
        with pytest.raises(SpecificationError, match="jeffreys_shift"):
            family_from_config(dict(EXP_CLONE, jeffreys_shift=[1.0]))

    def test_inconsistent_mean_is_rejected(self):
        cfg = dict(EXP_CLONE, name="bad", mean="1/theta + 0.05")
        with pytest.raises(SpecificationError, match="failed validation"):
            family_from_config(cfg)

    def test_wrong_shift_is_rejected(self):
        cfg = dict(EXP_CLONE, name="bad_shift", jeffreys_shift=[-1, 0.25])
        with pytest.raises(SpecificationError, match="failed validation"):
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


def dual(node, env):
    """(value, d/dtheta) of a parsed tree by forward-mode dual numbers."""
    kind = node[0]
    if kind == "num":
        return np.float64(node[1]), np.float64(0.0)
    if kind == "var":
        return env[node[1]], np.float64(node[1] == "theta")
    if kind == "neg":
        u, du = dual(node[1], env)
        return -u, -du
    if kind == "call":
        u, du = dual(node[2], env)
        if node[1] == "exp":
            return np.exp(u), np.exp(u) * du
        return np.log(u), du / u
    (u, du), (v, dv) = dual(node[1], env), dual(node[2], env)
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
        [("var", "theta"), ("var", "x")]
        + [("num", v) for v in (0.0, 0.5, 1.0, 2.0, 3.0)])
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
            want = parse_expression(source)(theta=grid)
            assert got.shape == grid.shape  # a derived constant too
            assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))

    def test_constant_derivative_stays_a_literal(self):
        tree = parse_expression("3*theta - 2")._ast
        assert _derivative(tree, "theta") == ("num", 3.0)
        assert _derivative(parse_expression("-theta^2/2")._ast, "theta") == (
            "/", ("neg", ("*", ("num", 2.0), ("var", "theta"))), ("num", 2.0))

    def test_zero_factor_never_meets_infinity(self):
        # d/dtheta of 2*exp(theta) has no 0*inf term, even where exp overflows
        tree = _derivative(parse_expression("2*exp(theta)")._ast, "theta")
        with np.errstate(over="ignore"):
            assert Expression("d", tree, frozenset({"theta"}))(theta=1000.0) == np.inf

    @settings(max_examples=400, deadline=None)
    @given(tree=_trees(), theta=st.floats(0.05, 4.0), x=st.floats(-2.0, 2.0))
    def test_derivative_matches_dual_numbers(self, tree, theta, x):
        env = {"theta": np.float64(theta), "x": np.float64(x)}
        with np.errstate(all="ignore"):
            want = dual(tree, env)[1]
            try:
                got = Expression("tree", _derivative(tree, "theta"),
                                 frozenset(env))(**env)
            except SpecificationError:  # a literal-only subtree divides by zero
                return
        if np.isfinite(got) and np.isfinite(want):
            assert abs(got - want) <= 1e-12 * max(abs(got), abs(want))


_REFERENCE = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": np.power, "neg": operator.neg,
              "exp": np.exp, "log": np.log}


def reference(node, env):
    """Value of a parsed tree by a plain walk, numbers as ``np.float64``."""
    kind = node[0]
    if kind == "num":
        return np.float64(node[1])
    if kind == "var":
        return env[node[1]]
    if kind == "call":
        return _REFERENCE[node[1]](reference(node[2], env))
    return _REFERENCE[kind](*(reference(a, env) for a in node[1:]))


_values = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=500, deadline=None)
@given(tree=_trees(), theta=st.lists(_values, min_size=3, max_size=3),
       x=st.lists(_values, min_size=3, max_size=3))
def test_compiled_expression_matches_a_reference_walk(tree, theta, x):
    # Bit for bit, nan payloads and signed zeros included, on numpy floats
    # and on 3-element arrays.
    try:
        expr = Expression("tree", tree, frozenset({"theta", "x"}))
    except SpecificationError:  # a literal-only subtree divides by zero
        return
    for env in ({"theta": np.float64(theta[0]), "x": np.float64(x[0])},
                {"theta": np.array(theta), "x": np.array(x)}):
        with np.errstate(all="ignore"):
            got, want = expr(**env), reference(tree, env)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got, float).tobytes() == np.asarray(want, float).tobytes()


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
                parse_expression(text)
            return
        got = parse_expression(text)._ast
    # repr, not ==: a folded nan equals no other nan, and -0.0 equals 0.0
    assert repr(got) == repr(want), text
