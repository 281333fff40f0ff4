"""Expression language and expression-defined families."""

import json

import numpy as np
import pytest

from gminimax import (
    ConjugatePrior,
    PriorBox,
    SpecificationError,
    bayes_estimate,
    family_from_config,
    fisher_info,
    kl_quadrature,
    parse_expression,
    prgm_conjugate_box,
    prgm_from_bounds,
)
from gminimax.cli import main


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
        with pytest.raises(SpecificationError, match="trailing"):
            parse_expression("1 2")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(SpecificationError, match="expected '\\)'"):
            parse_expression("(1 + 2")

    def test_truncated_expression(self):
        with pytest.raises(SpecificationError, match="unexpected end"):
            parse_expression("1 +")

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

    def test_missing_mean_deriv_warns_and_differences(self):
        cfg = dict(name="fd_exp", support=[0, None], log_norm="log(theta)",
                   mean="1/theta")
        with pytest.warns(UserWarning, match="finite difference"):
            fam = family_from_config(cfg)
        assert float(fam.mean_deriv(2.0)) == pytest.approx(-0.25, rel=1e-6)

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
        del cfg["mean"]
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
