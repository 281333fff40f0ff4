"""Command-line surface: parsing, schemas, exit codes, determinism."""

import csv
import io
import json
import math
import subprocess
import sys
import warnings

import pytest

from gminimax import ConvergenceError, SpecificationError, cli
from gminimax.cli import main, parse_box, parse_prior

REPORT_FIELDS = {
    "estimate", "delta_lo", "delta_hi", "equalized_regret", "method",
    "diagnostics",
}


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0, err
    return json.loads(out)


class TestParseHelpers:
    def test_prior_aliases(self):
        assert parse_prior("a=2,l=1") == (2.0, 1.0)
        assert parse_prior("alpha=2,lambda=1") == (2.0, 1.0)
        assert parse_prior("lam=0.5,a=-0.25") == (-0.25, 0.5)

    @pytest.mark.parametrize(
        "text", ["a=2", "a=2,b=1", "a=two,l=1", "a=2,a=3,l=1", "a=,l=1", "2,1"]
    )
    def test_bad_prior(self, text):
        with pytest.raises(SpecificationError):
            parse_prior(text)

    def test_box_ranges(self):
        assert parse_box("a=1:3,l=1:2") == (1.0, 3.0, 1.0, 2.0)
        assert parse_box("a=1:3,l=1") == (1.0, 3.0, 1.0, 1.0)
        assert parse_box("a=2,l=1:2") == (2.0, 2.0, 1.0, 2.0)
        assert parse_box("l=2,a=1") == (1.0, 1.0, 2.0, 2.0)

    @pytest.mark.parametrize("text", ["a=1:2,l=1", "a=2,l=0:1", "a=2:2,l=1"])
    def test_prior_edges_are_single_numbers(self, text):
        with pytest.raises(SpecificationError, match="expected a single number"):
            parse_prior(text)

    @pytest.mark.parametrize("parse", [parse_box, parse_prior])
    def test_one_spelling_per_hyper_parameter(self, parse):
        with pytest.raises(SpecificationError, match="alpha is given twice"):
            parse("a=1,alpha=2,l=1")
        with pytest.raises(SpecificationError, match="unknown"):
            parse("a0=1,l=1")

    @pytest.mark.parametrize(
        "text", ["a=1:3", "l=1:2", "a=1:3,l=1:2:4", "a0=1:3,l=1", "q=1,l=2"]
    )
    def test_bad_box(self, text):
        with pytest.raises(SpecificationError):
            parse_box(text)


# Every subcommand's arguments, --help aside: name -> (required, default,
# choices, type).  --family and --family-file also form one required group.
_FAMILY = {"--family": (False, None, None, None),
           "--family-file": (False, None, None, None)}
_FLAVOR = {"--flavor": (False, "standard", ["standard", "jcp"], None)}
_OUT = {"--out": (False, None, None, None)}
CLI_SURFACE = {
    "bayes": {**_FAMILY, **_FLAVOR, **_OUT, "--x": (True, None, None, float),
              "--prior": (True, None, None, None)},
    "prgm": {**_FAMILY, **_OUT, "--x": (False, None, None, float),
             "--box": (False, None, None, None),
             "--bounds": (False, None, None, None)},
    "iprgm": {**_FAMILY, **_OUT, "--x": (True, None, None, float),
              "--box": (True, None, None, None),
              "--transform": (False, None, None, None)},
    "certify": {**_FAMILY, **_FLAVOR, **_OUT, "--x": (False, None, None, float),
                "--box": (True, None, None, None),
                "--kind": (False, "path", ["path", "data_independent"], None),
                "--x-grid": (False, None, None, None)},
    "loss": {**_FAMILY, **_OUT, "--theta": (True, None, None, float),
             "--delta": (True, None, None, float)},
    "regret-curve": {**_FAMILY, **_FLAVOR, **_OUT, "--x": (True, None, None, float),
                     "--box": (True, None, None, None),
                     "--grid-n": (False, 2000, None, int),
                     "--format": (False, "csv", ["csv", "json"], None)},
    # The suite names live in verify alone; run_suite refuses an unknown one.
    "verify": {**_OUT, "suite": (False, "all", None, None),
               "--seed": (False, 1729, None, int),
               "--n-instances": (False, None, None, int)},
}


class TestParserSurface:
    @staticmethod
    def _subparsers():
        import argparse

        return next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def test_every_argument_is_pinned(self):
        got = {name: {"/".join(a.option_strings) or a.dest:
                      (a.required, a.default, a.choices, a.type)
                      for a in p._actions if a.dest != "help"}
               for name, p in self._subparsers().items()}
        assert got == CLI_SURFACE
        assert sum(name.startswith("--") for args in got.values() for name in args) == 42

    def test_family_flags_are_one_required_choice(self):
        for name, p in self._subparsers().items():
            groups = [sorted(a.option_strings[0] for a in g._group_actions)
                      for g in p._mutually_exclusive_groups if g.required]
            assert groups == ([] if name == "verify" else [["--family", "--family-file"]])


class TestEstimateCommands:
    def test_bayes_flat_normal_returns_observation(self, capsys):
        payload = run_json(capsys, [
            "bayes", "--family", "normal", "--x", "1.7", "--prior", "a=0,l=0",
        ])
        assert set(payload) == REPORT_FIELDS
        assert payload["estimate"] == pytest.approx(1.7, rel=1e-12)
        assert payload["equalized_regret"] == 0.0

    def test_bayes_exponential(self, capsys):
        payload = run_json(capsys, [
            "bayes", "--family", "exponential", "--x", "3", "--prior", "a=2,l=1",
        ])
        assert payload["estimate"] == pytest.approx(0.75, rel=1e-12)

    def test_prgm_box(self, capsys):
        payload = run_json(capsys, [
            "prgm", "--family", "exponential", "--x", "2",
            "--box", "a=1:3,l=1:2",
        ])
        assert payload["estimate"] == pytest.approx(0.7846634024093809, rel=1e-12)
        assert payload["delta_lo"] == pytest.approx(0.5, rel=1e-12)
        assert payload["delta_hi"] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_prgm_bounds(self, capsys):
        payload = run_json(capsys, [
            "prgm", "--family", "exponential", "--bounds", "1:2",
        ])
        assert payload["estimate"] == pytest.approx(2.0 * math.log(2.0), rel=1e-14)

    def test_iprgm_with_transform(self, capsys):
        payload = run_json(capsys, [
            "iprgm", "--family", "exponential", "--x", "2",
            "--box", "a=1:3,l=1", "--transform", "reciprocal",
        ])
        assert set(payload) == REPORT_FIELDS | {"transform", "eta_estimate"}
        assert payload["estimate"] == pytest.approx(0.5 * math.log(3.0), rel=1e-12)
        assert payload["transform"] == "reciprocal"
        assert payload["eta_estimate"] == pytest.approx(
            1.0 / payload["estimate"], rel=1e-12
        )
        assert payload["method"] == "iprgm"

    def test_loss(self, capsys):
        payload = run_json(capsys, [
            "loss", "--family", "normal", "--theta", "0.2", "--delta", "0.8",
        ])
        assert set(payload) == {"family", "theta", "delta", "loss"}
        assert payload["family"] == "normal_mean_unitvar"
        assert payload["theta"] == 0.2 and payload["delta"] == 0.8
        assert payload["loss"] == pytest.approx(0.18, rel=1e-12)

    def test_loss_binomial_alias(self, capsys):
        payload = run_json(capsys, [
            "loss", "--family", "binomial(n=5)", "--theta", "0.3",
            "--delta", "0.3",
        ])
        assert payload["loss"] == 0.0

    @pytest.mark.parametrize("value", ["1e300", "1e-300"])
    def test_loss_on_the_diagonal_at_extreme_scale(self, capsys, value):
        payload = run_json(capsys, [
            "loss", "--family", "exponential", "--theta", value, "--delta", value,
        ])
        assert payload["loss"] == 0.0

    @pytest.mark.parametrize("family,value", [
        ("normal", "1e200"), ("exponential", "5e-324"), ("poisson", "-800"),
    ])
    def test_loss_on_the_diagonal_where_the_closed_form_overflows(self, capsys,
                                                                  family, value):
        payload = run_json(capsys, [
            "loss", "--family", family, f"--theta={value}", f"--delta={value}",
        ])
        assert payload["loss"] == 0.0 and payload["theta"] == float(value)

    def test_loss_below_what_the_information_resolves(self, capsys):
        rc, out, err = run_cli(capsys, [
            "loss", "--family", "exponential", "--theta", "1e200",
            "--delta", "1.000000000000001e200",
        ])
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "theta=1e+200, delta=1.000000000000001e+200" in err
        assert "non-positive" not in err

    def test_loss_where_the_information_overflows(self, capsys):
        rc, out, err = run_cli(capsys, [
            "loss", "--family", "exponential", "--theta", "1e-170",
            "--delta", "1.0000001e-170",
        ])
        assert rc == 2 and out == ""
        assert err == (
            "gminimax: configuration error: the Fisher information of "
            "exponential_rate at theta=1.0000000994700468e-170 is infinite: it "
            "overflows the float range there\n")

    def test_degenerate_box_at_the_largest_float_prints_json(self, capsys):
        big = "1.7976931348623157e308"
        rc, out, err = run_cli(capsys, [
            "prgm", "--family", "normal", "--x", "1", "--box", f"a=0:0,l={big}:{big}",
        ])
        assert rc == 0, err

        def refuse(token):
            raise AssertionError(f"{token} is not a JSON token")

        payload = json.loads(out, parse_constant=refuse)
        assert payload["estimate"] == -float(big)

    def test_output_is_deterministic(self, capsys):
        argv = ["prgm", "--family", "exponential", "--x", "2",
                "--box", "a=1:3,l=1:2"]
        rc1, out1, _ = run_cli(capsys, argv)
        rc2, out2, _ = run_cli(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["bayes", "--family", "exponential", "--x", "3",
                "--prior", "a=2,l=1"]
        _, out, _ = run_cli(capsys, argv)
        target = tmp_path / "report.json"
        rc, silent, _ = run_cli(capsys, argv + ["--out", str(target)])
        assert rc == 0 and silent == ""
        assert target.read_text(encoding="utf-8") == out


class TestCertify:
    def test_path_certificate(self, capsys):
        payload = run_json(capsys, [
            "certify", "--family", "exponential", "--x", "2",
            "--box", "a=1:3,l=1",
        ])
        assert payload["kind"] == "path"
        assert payload["witness"]["alpha"] == pytest.approx(
            4.0 * math.log(2.0) - 1.0, abs=1e-9
        )
        assert payload["residual"] < 1e-9

    def test_jcp_path_witness_reproduces_the_iprgm_estimate(self, capsys):
        box = ["--family", "poisson", "--x", "3", "--box", "a=1:3,l=1:2"]
        cert = run_json(capsys, ["certify", *box, "--flavor", "jcp"])
        target = run_json(capsys, ["iprgm", *box])["estimate"]
        assert cert["kind"] == "path"
        w = cert["witness"]
        bayes = run_json(capsys, ["bayes", *box[:4], "--flavor", "jcp",
                                  "--prior", f"a={w['alpha']!r},l={w['lam']!r}"])
        assert bayes["estimate"] == pytest.approx(target, rel=1e-14)
        assert cert["residual"] == abs(bayes["estimate"] - target)

    def test_data_independent_certificate(self, capsys):
        payload = run_json(capsys, [
            "certify", "--family", "exponential", "--box", "a=1:3,l=1",
            "--kind", "data_independent", "--x-grid", "0.5:6:8",
        ])
        assert payload["kind"] == "data_independent"
        assert payload["constancy_spread"] <= 1e-10

    def test_data_independent_needs_grid(self, capsys):
        rc, _, err = run_cli(capsys, [
            "certify", "--family", "exponential", "--box", "a=1:3,l=1",
            "--kind", "data_independent",
        ])
        assert rc == 2
        assert "--x-grid" in err

    @pytest.mark.parametrize("grid", ["1:2", "2:1:5", "a:b:5", "1:2:1",
                                      "0:inf:5", "-inf:3:5", "nan:3:5"])
    def test_malformed_grid(self, capsys, grid):
        rc, out, err = run_cli(capsys, [
            "certify", "--family", "exponential", "--box", "a=1:3,l=1",
            "--kind", "data_independent", f"--x-grid={grid}",
        ])
        assert (rc, out) == (2, "")
        assert err.startswith("gminimax: configuration error: ")
        assert "--x-grid" in err and err.count("\n") == 1


class TestRegretCurve:
    def test_csv_shape_and_minimum(self, capsys):
        rc, out, _ = run_cli(capsys, [
            "regret-curve", "--family", "exponential", "--x", "2",
            "--box", "a=1:3,l=1:2", "--grid-n", "500",
        ])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["delta", "sup_regret", "argmax_corner"]
        assert len(rows) == 501
        deltas = [float(r[0]) for r in rows[1:]]
        sups = [float(r[1]) for r in rows[1:]]
        labels = {r[2] for r in rows[1:]}
        assert labels == {"lo", "hi"}
        # re-ingested minimum sits at the closed-form estimate
        spacing = deltas[1] - deltas[0]
        k = min(range(len(sups)), key=sups.__getitem__)
        assert abs(deltas[k] - 0.7846634024093809) <= 2 * spacing

    def test_csv_round_trips_exactly(self, capsys):
        rc, out, _ = run_cli(capsys, [
            "regret-curve", "--family", "exponential", "--x", "2",
            "--box", "a=1:3,l=1:2", "--grid-n", "50",
        ])
        assert rc == 0
        rc2, out2, _ = run_cli(capsys, [
            "regret-curve", "--family", "exponential", "--x", "2",
            "--box", "a=1:3,l=1:2", "--grid-n", "50", "--format", "json",
        ])
        assert rc2 == 0
        payload = json.loads(out2)
        rows = list(csv.reader(io.StringIO(out)))[1:]
        # repr round-trip: parsing the CSV recovers the json floats exactly
        assert [float(r[0]) for r in rows] == payload["delta"]
        assert [float(r[1]) for r in rows] == payload["sup_regret"]
        assert [r[2] for r in rows] == payload["argmax_corner"]

    def test_action_grid_below_three_points(self, capsys):
        rc, out, err = run_cli(capsys, [
            "regret-curve", "--family", "exponential", "--x", "2",
            "--box", "a=1:3,l=1:2", "--grid-n", "2",
        ])
        assert (rc, out) == (2, "")
        assert err == ("gminimax: configuration error: the action grid needs "
                       "at least 3 points, got n_delta=2\n")

    def test_json_format(self, capsys):
        payload = run_json(capsys, [
            "regret-curve", "--family", "normal", "--x", "0.3",
            "--box", "a=0.5:2,l=-1:1", "--grid-n", "40", "--format", "json",
        ])
        assert set(payload) == {"delta", "sup_regret", "argmax_corner"}
        assert len(payload["delta"]) == len(payload["sup_regret"]) == 40


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        rc, out, _ = run_cli(capsys, [
            "verify", "minimax", "--seed", "7", "--n-instances", "3",
        ])
        assert rc == 0
        lines = out.splitlines()
        records = [json.loads(line) for line in lines]
        summary = records[-1]
        assert summary["suite"] == "minimax"
        assert summary["seed"] == 7
        assert summary["passed"] is True
        assert summary["n_checks"] == len(records) - 1
        assert all(r["passed"] for r in records[:-1])

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_instance_count_below_one_is_a_configuration_error(self, capsys, count):
        rc, out, err = run_cli(capsys, [
            "verify", "minimax", "--seed", "7", "--n-instances", count,
        ])
        assert (rc, out) == (2, "")
        assert err == ("gminimax: configuration error: a suite needs at least "
                       f"1 instance, got n_instances={count}\n")

    @pytest.mark.parametrize("flag", [["--grid-n", "500"], ["--curve-out", "x.csv"]])
    def test_removed_flags_are_usage_errors(self, capsys, flag):
        rc, out, err = run_cli(capsys, ["verify", "minimax", *flag])
        assert (rc, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_unknown_suite_is_a_configuration_error(self, capsys):
        rc, out, err = run_cli(capsys, ["verify", "bogus"])
        assert (rc, out) == (2, "")
        assert err == ("gminimax: configuration error: unknown suite 'bogus'; "
                       "choose from ('all', 'minimax', 'invariance', 'bayesianity')\n")

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from gminimax import verify
        from gminimax.verify import CheckRecord

        def fake_suite(name, seed, n_instances=None):
            yield CheckRecord(suite=name, check="equalized_regret", index=0,
                              passed=False, value=0.5, bound=1e-10)

        monkeypatch.setattr(verify, "run_suite", fake_suite)
        rc, out, _ = run_cli(capsys, ["verify", "minimax", "--seed", "7"])
        assert rc == 1
        summary = json.loads(out.splitlines()[-1])
        assert summary["n_failed"] == 1
        assert summary["passed"] is False

    def test_negative_seed_is_a_configuration_error(self, capsys):
        from gminimax.verify import run_suite

        rc, out, err = run_cli(capsys, ["verify", "minimax", "--seed", "-1",
                                        "--n-instances", "1"])
        assert (rc, out) == (2, "")
        assert err == ("gminimax: configuration error: a suite needs a "
                       "non-negative seed, got seed=-1\n")
        with pytest.raises(SpecificationError, match="non-negative seed"):
            run_suite("minimax", -1)

    def test_unknown_suite_is_a_specification_error(self):
        from gminimax.verify import run_suite

        with pytest.raises(SpecificationError, match="unknown suite 'bogus'"):
            run_suite("bogus", 1)


class TestExitCodes:
    def test_unknown_family(self, capsys):
        rc, _, err = run_cli(capsys, [
            "loss", "--family", "weirdo", "--theta", "1", "--delta", "2",
        ])
        assert rc == 2
        assert "configuration error" in err

    def test_improper_prior(self, capsys):
        rc, _, err = run_cli(capsys, [
            "bayes", "--family", "exponential", "--x", "1",
            "--prior", "a=-2,l=1",
        ])
        assert rc == 2
        # One line that names the broken inequality.
        assert err == ("gminimax: configuration error: (alpha=-2.0, lambda=1.0) "
                       "violates the propriety rule alpha + 1 > 0 of "
                       "exponential_rate\n")

    def test_improper_posterior_names_the_broken_row(self, capsys):
        # The prior passes (lambda >= 0 on the sample space); x = 0 leaves
        # the posterior's lambda + x at 0.
        rc, _, err = run_cli(capsys, [
            "bayes", "--family", "poisson", "--x", "0", "--prior", "a=1,l=0",
        ])
        assert rc == 2
        assert err == ("gminimax: configuration error: observation x=0.0 with "
                       "(alpha=1.0, lambda=0.0) gives an improper posterior for "
                       "poisson_neglograte: it violates lambda + x > 0\n")

    @pytest.mark.parametrize("argv", [
        ["iprgm", "--box", "a=1:3,l=-0.5:0"],
        ["bayes", "--prior", "a=1,l=-0.5", "--flavor", "jcp"],
    ], ids=["iprgm", "bayes_jcp"])
    def test_improper_jcp_posterior_names_the_prior_as_given(self, capsys, argv):
        # binomial(5) shifts a jcp prior by (1, 0.5): the rule reads (2, 0).
        rc, out, err = run_cli(capsys, [*argv, "--family", "binomial(5)", "--x", "0"])
        assert (rc, out) == (2, "")
        assert err == ("gminimax: configuration error: observation x=0.0 with the "
                       "jcp prior (alpha=1.0, lambda=-0.5), whose standard "
                       "equivalent is (alpha=2.0, lambda=0.0), gives an improper "
                       "posterior for binomial_logit(5): it violates lambda + x > 0\n")

    def test_improper_jcp_prior_names_the_prior_as_given(self, capsys):
        rc, out, err = run_cli(capsys, [
            "bayes", "--family", "binomial(5)", "--x", "0", "--prior", "a=-3,l=-5",
            "--flavor", "jcp",
        ])
        assert (rc, out) == (2, "")
        assert err == ("gminimax: configuration error: the jcp prior (alpha=-3.0, "
                       "lambda=-5.0), whose standard equivalent is (alpha=-2.0, "
                       "lambda=-4.5), violates the propriety rule lambda >= 0 of "
                       "binomial_logit(5)\n")

    @pytest.mark.parametrize("scale", ["1e17", "1e308"])
    def test_a_broken_row_at_large_hyper_parameters_is_refused(self, capsys, scale):
        # At x = 5 the row alpha - lambda - x + 5 is exactly 0.
        rc, out, err = run_cli(capsys, [
            "bayes", "--family", "binomial(5)", "--x", "5",
            "--prior", f"a={scale},l={scale}",
        ])
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1
        assert err.endswith("gives an improper posterior for binomial_logit(5): "
                            "it violates alpha - lambda - x + 5 > 0\n")

    @pytest.mark.parametrize("scale,rounded", [("1e17", "5.0"), ("1e308", "inf")])
    def test_a_predictive_mean_rounded_to_the_range_end_names_the_scale(
            self, capsys, scale, rounded):
        # The posterior is proper (the row alpha - lambda - x + 5 is 3), but
        # 5*(lambda + x)/(alpha + 5) rounds to 5.0 at 1e17 and overflows at 1e308.
        rc, out, err = run_cli(capsys, [
            "bayes", "--family", "binomial(5)", "--x", "2",
            "--prior", f"a={scale},l={scale}",
        ])
        assert (rc, out) == (2, "")
        assert err == (f"gminimax: configuration error: the predictive mean at x=2.0 "
                       f"with (alpha={float(scale)}, lambda={float(scale)}) rounds to "
                       f"{rounded}, at or past an end of the mean range (0.0, 5.0) of "
                       "binomial_logit(5), at that scale of the hyper-parameters\n")

    def test_prgm_box_needs_x(self, capsys):
        rc, _, err = run_cli(capsys, [
            "prgm", "--family", "exponential", "--box", "a=1:3,l=1:2",
        ])
        assert rc == 2
        assert "--x" in err

    def test_prgm_rejects_box_plus_bounds(self, capsys):
        rc, _, _ = run_cli(capsys, [
            "prgm", "--family", "exponential", "--x", "2",
            "--box", "a=1:3,l=1:2", "--bounds", "1:2",
        ])
        assert rc == 2

    def test_prgm_needs_some_class(self, capsys):
        rc, _, _ = run_cli(capsys, ["prgm", "--family", "exponential"])
        assert rc == 2

    def test_malformed_box(self, capsys):
        rc, _, _ = run_cli(capsys, [
            "prgm", "--family", "exponential", "--x", "2", "--box", "a=1:3",
        ])
        assert rc == 2

    def test_out_of_domain_is_config_error(self, capsys):
        rc, _, _ = run_cli(capsys, [
            "loss", "--family", "exponential", "--theta", "-1", "--delta", "2",
        ])
        assert rc == 2

    def test_non_finite_observation_is_config_error(self, capsys):
        rc, _, err = run_cli(capsys, [
            "bayes", "--family", "exponential", "--prior", "a=2,l=1", "--x", "nan",
        ])
        assert rc == 2
        assert "observation x=nan is not finite" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_float_overflow_is_config_error(self, capsys):
        rc, _, err = run_cli(capsys, [
            "prgm", "--family", "normal", "--x=1e300", "--box", "a=1:2,l=0:1",
        ])
        assert rc == 2
        assert "overflows the float range" in err and "nan" not in err

    @pytest.mark.parametrize("family,x,prior", [
        ("exponential", "-1", "a=2,l=2"),
        ("binomial_logit(5)", "2.5", "a=10,l=1"),
        ("binomial_logit(5)", "7", "a=10,l=1"),
        ("poisson", "2.5", "a=2,l=1"),
        ("poisson", "-0.5", "a=2,l=1"),
    ])
    def test_impossible_observation_is_config_error(self, capsys, family, x, prior):
        rc, out, err = run_cli(capsys, [
            "bayes", "--family", family, f"--x={x}", "--prior", prior,
        ])
        assert rc == 2 and out == ""
        assert err.startswith(
            f"gminimax: configuration error: observation x={float(x)} is "
            "outside the sample space")

    @pytest.mark.parametrize("argv", [
        ["loss", "--family", "poisson", "--theta", "1", "--delta=-800"],
        ["loss", "--family", "exponential", "--theta", "1e-300", "--delta", "1e300"],
        ["prgm", "--family", "normal", "--x=1e300", "--box", "a=1:2,l=0:1"],
    ])
    def test_overflow_prints_one_line_and_no_numpy_warning(self, argv):
        proc = subprocess.run([sys.executable, "-m", "gminimax", *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("gminimax: configuration error:")
        assert "overflows the float range" in lines[0]

    def test_round_off_near_the_diagonal(self, capsys):
        # Where the closed form cancels the loss is integrated: (d - t)^2/2.
        got = run_json(capsys, ["loss", "--family", "normal", "--theta", "10000",
                                "--delta", "10000.000000000002"])
        assert got["loss"] == 1.6543612251060553e-24
        got = run_json(capsys, ["prgm", "--family", "normal",
                                "--bounds", "10000:10000.000001"])
        assert got["estimate"] == 10000.0000005

    def test_missing_family_file(self, capsys):
        rc, _, err = run_cli(capsys, [
            "prgm", "--family-file", "/no/such/file.json", "--bounds", "1:2",
        ])
        assert rc == 4
        assert "i/o error" in err

    def test_invalid_family_file_json(self, capsys, tmp_path):
        bad = tmp_path / "fam.json"
        bad.write_text("{not json", encoding="utf-8")
        rc, _, _ = run_cli(capsys, [
            "prgm", "--family-file", str(bad), "--bounds", "1:2",
        ])
        assert rc == 2

    def test_unwritable_out_path(self, capsys):
        rc, _, _ = run_cli(capsys, [
            "loss", "--family", "normal", "--theta", "0", "--delta", "1",
            "--out", "/nonexistent-dir/out.json",
        ])
        assert rc == 4

    def test_numeric_failure_maps_to_3(self, capsys, monkeypatch):
        def boom(args):
            raise ConvergenceError("forced for the exit-code contract")

        monkeypatch.setattr(cli, "cmd_loss", boom)
        rc, _, err = run_cli(capsys, [
            "loss", "--family", "normal", "--theta", "0", "--delta", "1",
        ])
        assert rc == 3
        assert "numeric error" in err

    def test_non_finite_box_corner(self, capsys):
        rc, out, err = run_cli(capsys, ["prgm", "--family", "exponential", "--x", "2",
                                        "--box", "a=inf:3,l=0"])
        assert (rc, out) == (2, "")
        assert err == "gminimax: configuration error: box corners must be finite\n"

    @pytest.mark.parametrize("transform,x,box", [
        ("neg_log_over_a(nan)", "2", "a=1:3,l=1:2"),
        ("affine(inf,0)", "2", "a=1:3,l=1:2"),
        ("affine(1,inf)", "2", "a=1:3,l=1:2"),
        ("affine(1e308,0)", "0.1", "a=3:4,l=0.1:0.2"),  # 1e308 * 13.86
    ])
    def test_transform_never_prints_a_non_finite_value(self, capsys, transform, x, box):
        rc, out, err = run_cli(capsys, ["iprgm", "--family", "exponential", "--x", x,
                                        "--box", box, "--transform", transform])
        assert (rc, out) == (2, "")
        assert err.startswith("gminimax: configuration error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (["prgm", "--family", "normal", "--bounds", "-1:2"],
         "argument --bounds: expected one argument"),
        (["bayes", "--family", "normal", "--x", "-1e-3", "--prior", "a=1,l=0"],
         "argument --x: expected one argument"),
        (["bayes", "--family", "normal", "--prior", "a=1,l=0"],
         "the following arguments are required: --x"),
        (["loss", "--family", "normal", "--theta", "0", "--delta", "1", "--bogus"],
         "unrecognized arguments: --bogus"),
    ])
    def test_argparse_errors_print_one_line(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, argv)
        assert (rc, out) == (2, "")
        assert err == f"gminimax: configuration error: {message}\n"

    def test_negative_values_that_look_like_numbers_parse(self, capsys):
        # Only an exponent or a range needs --flag=value.
        got = run_json(capsys, ["bayes", "--family", "normal", "--x", "-1.2",
                                "--prior", "a=0,l=0"])
        assert got["estimate"] == -1.2
        got = run_json(capsys, ["prgm", "--family", "normal", "--bounds=-1:2"])
        assert got["estimate"] == 0.5

    def test_out_of_memory_maps_to_3(self, capsys, monkeypatch):
        from gminimax import oracle

        # No grid is allocated: the failure is forced.
        def no_memory(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(oracle, "regret_curve", no_memory)
        rc, out, err = run_cli(capsys, ["regret-curve", "--family", "exponential",
                                        "--x", "2", "--box", "a=1:3,l=1:2",
                                        "--grid-n", "100000000000"])
        assert (rc, out) == (3, "")
        assert err == ("gminimax: numeric error: Unable to allocate 745. GiB "
                       "for an array\n")

    def test_argparse_failures_return_2(self, capsys):
        assert run_cli(capsys, ["no-such-command"])[0] == 2
        assert run_cli(capsys, [])[0] == 2

    def test_help_returns_0(self, capsys):
        rc, out, _ = run_cli(capsys, ["--help"])
        assert rc == 0
        assert "verify" in out


class TestFamilyFile:
    def test_custom_family_runs(self, capsys, tmp_path):
        cfg = dict(name="my_exp", support=[0, None], log_norm="log(theta)",
                   mean="1/theta", mean_deriv="-1/theta^2",
                   mean_range=[0, None], jeffreys_shift=[-1, 0])
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        payload = run_json(capsys, [
            "prgm", "--family-file", str(path), "--bounds", "1:2",
        ])
        assert payload["estimate"] == pytest.approx(2.0 * math.log(2.0), rel=1e-14)

    @pytest.mark.parametrize("alpha", ["-1", "-1.5"])
    def test_nonpositive_alpha_plus_obs_units_is_improper(self, capsys, tmp_path,
                                                          alpha):
        # The README's my_exp config; the posterior mean divides by alpha + 1.
        cfg = dict(name="my_exp", support=[0, None], log_norm="log(theta)",
                   mean_range=[0, None], jeffreys_shift=[-1, 0])
        path = tmp_path / "my_exp.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.warns(UserWarning, match="no propriety predicate"):
            rc, out, err = run_cli(capsys, [
                "bayes", "--family-file", str(path), "--x", "2",
                "--prior", f"a={alpha},l=1",
            ])
        assert (rc, out) == (2, "")
        assert err == (f"gminimax: configuration error: observation x=2.0 with "
                       f"(alpha={float(alpha)}, lambda=1.0) gives an improper "
                       "posterior for my_exp: it violates alpha + 1 > 0\n")

    @pytest.mark.parametrize("argv,warning", [
        (["bayes", "--x", "2", "--prior", "a=1,l=1"],
         "accepting (alpha=1.0, lambda=1.0) unchecked"),
        (["prgm", "--x", "2", "--box", "a=1:3,l=1:2"],
         "accepting the box alpha [1.0, 3.0], lambda [1.0, 2.0] unchecked"),
    ])
    def test_unchecked_prior_warns_in_one_stderr_line(self, tmp_path, argv, warning):
        # The README's my_exp config has no propriety predicate.  A fresh
        # process, so stderr is what a shell sees: no path, no source line.
        cfg = dict(name="my_exp", support=[0, None], log_norm="log(theta)",
                   mean_range=[0, None], jeffreys_shift=[-1, 0])
        path = tmp_path / "my_exp.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "gminimax", argv[0], "--family-file", str(path),
             *argv[1:]], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            f"gminimax: warning: family my_exp has no propriety predicate; {warning}"]
        assert json.loads(proc.stdout)["estimate"] > 0

    @pytest.mark.parametrize("cfg,argv,message", [
        (dict(name="my_exp", support=[0, None], log_norm="log(theta)",
              mean_range=[0, None], jeffreys_shift=[-1, 0]),
         ["bayes", "--x", "2", "--prior", "a=1,l=1"],
         "family my_exp has no propriety predicate; accepting (alpha=1.0, "
         "lambda=1.0) unchecked"),
        # math refuses exp(800) in the float body; numpy's body warns.
        (dict(name="pois", support=[None, None], log_norm="-exp(-theta)"),
         ["loss", "--theta", "-800", "--delta", "1"],
         "overflow encountered in exp"),
    ], ids=["unchecked_prior", "float_body_fallback"])
    def test_a_warning_raised_as_an_error_exits_2_in_one_stderr_line(
            self, tmp_path, cfg, argv, message):
        import os

        path = tmp_path / "fam.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "gminimax", argv[0], "--family-file", str(path),
             *argv[1:]], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONWARNINGS": "error"})
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines() == [f"gminimax: configuration error: {message}"]

    @pytest.mark.parametrize("argv", [
        ["iprgm", "--x", "2", "--box", "a=1:3,l=1:2"],
        ["bayes", "--x", "2", "--prior", "a=1,l=1", "--flavor", "jcp"],
    ], ids=["iprgm", "bayes_jcp"])
    def test_jcp_class_without_a_shift_fails_in_one_stderr_line(self, tmp_path, argv):
        # A fresh process, so stderr is what a shell sees.
        cfg = dict(name="my_exp", support=[0, None], log_norm="log(theta)",
                   mean_range=[0, None])
        path = tmp_path / "my_exp.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "gminimax", argv[0], "--family-file", str(path),
             *argv[1:]], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines() == [
            "gminimax: configuration error: family my_exp declares no Jeffreys "
            "shift; the jcp prior has no standard-flavor equivalent"]

    @pytest.mark.parametrize("name", [None, ["a"]], ids=["null", "list"])
    def test_a_name_that_is_no_string_fails_in_one_stderr_line(self, capsys, tmp_path,
                                                               name):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(dict(name=name, support=[0, None],
                                        log_norm="log(theta)")), encoding="utf-8")
        rc, out, err = run_cli(capsys, ["prgm", "--family-file", str(path),
                                        "--bounds", "0.5:1.5"])
        assert (rc, out) == (2, "")
        assert err == (f"gminimax: configuration error: bad name entry {name!r}; "
                       "expected a nonempty string\n")

    def test_bytes_that_are_not_utf8_are_a_configuration_error(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b'\xff\xfe{"a":1}')
        rc, out, err = run_cli(capsys, ["prgm", "--family-file", str(path),
                                        "--bounds", "0.5:1.5"])
        assert (rc, out) == (2, "")
        assert err.startswith(f"gminimax: configuration error: family file {path}: "
                              "not UTF-8 text (")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("entry,message", [
        ({"jeffreys_shift": ["a", 1]}, "bad jeffreys_shift entry 'a'; expected a number"),
        ({"jeffreys_shift": [None, 1]}, "bad jeffreys_shift entry None; expected a number"),
        ({"support": [{}, None]},
         "bad support endpoint {}; expected a number, null or 'inf'"),
        ({"mean_range": [0, "x"]},
         "bad mean_range endpoint 'x'; expected a number, null or 'inf'"),
        ({"support": [False, None]},
         "bad support endpoint False; expected a number, null or 'inf'"),
        ({"jeffreys_shift": [-1, True]}, "bad jeffreys_shift entry True; expected a number"),
        # integers past the largest float
        ({"support": [0, 10 ** 400]},
         f"bad support endpoint {10 ** 400}; expected a number, null or 'inf'"),
        ({"mean_range": [0, 10 ** 400]},
         f"bad mean_range endpoint {10 ** 400}; expected a number, null or 'inf'"),
        ({"jeffreys_shift": [-10 ** 400, 0]},
         f"bad jeffreys_shift entry {-10 ** 400}; expected a number"),
        # JSON NaN and Infinity where they have no meaning
        ({"jeffreys_shift": [-1, math.nan]},
         "jeffreys_shift must be two finite numbers, got (-1.0, nan)"),
        ({"jeffreys_shift": [-1, math.inf]},
         "jeffreys_shift must be two finite numbers, got (-1.0, inf)"),
        ({"mean_range": [math.nan, None]},
         "mean_range must be an interval with lo < hi, got (nan, inf)"),
    ], ids=["shift_string", "shift_null", "support_mapping", "mean_range_string",
            "support_false", "shift_true", "support_past_float", "mean_range_past_float",
            "shift_past_float", "shift_nan", "shift_inf", "mean_range_nan"])
    def test_config_numbers_are_checked_by_key(self, capsys, tmp_path, entry, message):
        cfg = {"name": "my_exp", "support": [0, None], "log_norm": "log(theta)", **entry}
        path = tmp_path / "my_exp.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc, out, err = run_cli(capsys, ["prgm", "--family-file", str(path),
                                        "--bounds", "0.5:1.5"])
        assert (rc, out) == (2, "")
        assert err == f"gminimax: configuration error: {message}\n"

    def test_a_mean_outside_the_declared_mean_range_is_refused(self, capsys, tmp_path):
        # 1/theta covers (0, inf) on the grid, not the declared (5, 10): the
        # config is refused, and no later refusal blames the prior.
        cfg = dict(name="e", support=[0, None], log_norm="log(theta)", mean_range=[5, 10])
        path = tmp_path / "e.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc, out, err = run_cli(capsys, ["bayes", "--family-file", str(path),
                                        "--x", "2", "--prior", "a=1,l=1"])
        assert (rc, out) == (2, "")
        assert err == ("gminimax: configuration error: family 'e' failed validation: "
                       "mean leaves the open mean_range (5.0, 10.0) on the working grid\n")

    def test_warning_format_is_restored(self, capsys, tmp_path):
        formatter = warnings.formatwarning
        run_cli(capsys, ["loss", "--family", "normal", "--theta", "0", "--delta", "1"])
        assert warnings.formatwarning is formatter

    def test_literal_division_by_zero_is_a_configuration_error(self, capsys, tmp_path):
        cfg = dict(name="z", support=[0, None], log_norm="log(theta) + 1/(1-1)")
        path = tmp_path / "z.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc, out, err = run_cli(capsys, [
            "prgm", "--family-file", str(path), "--bounds", "0.5:1.5",
        ])
        assert (rc, out) == (2, "")
        assert err == ("gminimax: configuration error: expression "
                       "'log(theta) + 1/(1-1)' divides by zero in a literal term\n")

    @pytest.mark.parametrize("log_norm,error", [
        ("log(" + "(" * 200 + "theta" + ")" * 201, "too many nested parentheses"),
        ("+".join(["theta"] * 3000), "log_norm expression nests too deeply"),
        ("-" * 2000 + "theta", "log_norm expression nests too deeply"),
        ("-" * 20000 + "theta", "log_norm expression nests too deeply"),
        ("+".join(["log(theta)"] * 500), "log_norm expression nests too deeply"),
    ], ids=["parentheses", "sum", "unary_minus", "parser_stack", "log_sum"])
    def test_deep_expression_is_a_configuration_error(self, tmp_path, log_norm, error):
        # A fresh process, so the stack depth and stderr are a shell's.
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(dict(name="deep", support=[0, None],
                                        log_norm=log_norm)), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "gminimax", "prgm", "--family-file", str(path),
             "--bounds", "0.5:1.5"], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("gminimax: configuration error: ")
        assert error in proc.stderr and "Traceback" not in proc.stderr

    def test_deep_expression_within_the_limit_is_answered(self, tmp_path):
        # 400 terms build, with mean and mean_deriv derived and compiled.
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(dict(name="deep", support=[0, None],
                                        log_norm="+".join(["log(theta)"] * 400))),
                        encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "gminimax", "prgm", "--family-file", str(path),
             "--bounds", "0.5:1.5"], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert 0.5 < json.loads(proc.stdout)["estimate"] < 1.5

    @pytest.mark.parametrize("log_norm", ["theta", "2"])
    def test_constant_mean_is_refused_in_one_stderr_line(self, tmp_path, log_norm):
        path = tmp_path / "lin.json"
        path.write_text(json.dumps(dict(name="lin", support=[None, None],
                                        log_norm=log_norm)), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "gminimax", "prgm", "--family-file", str(path),
             "--bounds", "0.5:1.5"], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(
            "gminimax: configuration error: family 'lin' failed validation: "
            "mean function is not strictly decreasing on the working grid")

    def test_refused_config_prints_one_stderr_line(self, tmp_path):
        # validate_family's grid overflows here; its numpy warnings stay quiet.
        path = tmp_path / "ee.json"
        path.write_text(json.dumps(dict(name="ee", support=[None, None],
                                        log_norm="-exp(exp(theta))")), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "gminimax", "prgm", "--family-file", str(path),
             "--bounds", "0.5:1.5"], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(
            "gminimax: configuration error: family 'ee' failed validation: ")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gminimax", "verify", "minimax",
         "--seed", "5", "--n-instances", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["passed"] is True


_COLD_START_SCRIPT = r"""
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def numpy_loaded():
    return "numpy" in sys.modules

import gminimax
from gminimax.cli import main
after_import = scipy_modules()
numpy_after_import = numpy_loaded()
closed_form = [
    ["bayes", "--family", "exponential", "--x", "2", "--prior", "a=2,l=1"],
    ["prgm", "--family", "exponential", "--x", "2", "--box", "a=1:3,l=1:2"],
    ["prgm", "--family", "binomial_logit(5)", "--bounds=-0.5:0.25"],
    ["iprgm", "--family", "exponential", "--x", "3", "--box", "a=1:3,l=1:2",
     "--transform", "reciprocal"],
    ["iprgm", "--family", "binomial_logit(5)", "--x", "3", "--box", "a=4:6,l=1:2",
     "--transform", "logit_to_p"],
    # a negative argument folds a negated literal, on floats
    ["iprgm", "--family", "exponential", "--x", "3", "--box", "a=1:3,l=1:2",
     "--transform", "neg_log_over_a(-0.5)"],
    ["iprgm", "--family", "exponential", "--x", "3", "--box", "a=1:3,l=1:2",
     "--transform", "affine(2,-1)"],
    ["loss", "--family", "binomial_logit(5)", "--theta", "0.3", "--delta", "-0.4"],
    # the closed form cancels: the 16-point rule integrates, on floats
    ["loss", "--family", "exponential", "--theta", "100", "--delta", "100.00001"],
    ["certify", "--family", "normal", "--x", "0.7", "--box", "a=1:3,l=-0.5:0.5"],
]
codes, numpy_after_command = [], []
for argv in closed_form:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
    numpy_after_command.append(numpy_loaded())
rule = gminimax.losses._kl_rule.cache_info()
gminimax.prgm_from_bounds(gminimax.builtin_family("exponential"), 1.0, 1.0 + 1e-9)
rule_in_bounds = gminimax.losses._kl_rule.cache_info().hits > rule.hits
numpy_after_bounds = numpy_loaded()
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(["regret-curve", "--family", "exponential", "--x", "2",
                       "--box", "a=1:3,l=1:2", "--grid-n", "50"]))
numpy_after_curve = numpy_loaded()
after_cli = scipy_modules()
# integrated on an array, since the closed form cancels, without loading
# numpy.polynomial
def polynomial_modules():
    return sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))
import numpy as np
gminimax.intrinsic_loss(gminimax.builtin_family("exponential"), np.array([100.0]),
                        np.array([100.00001]))
polynomial = polynomial_modules()

from gminimax import (builtin_family, conjugate_prior, kl_quadrature,
                      predictive_mean_quadrature)
def kl_of(*cases):
    return {name: kl_quadrature(builtin_family(name), th, de)
            for name, th, de in cases}
kl = kl_of(("binomial_logit(5)", 0.4, -0.7), ("poisson", 0.2, -0.5))
after_sums = scipy_modules()
kl.update(kl_of(("normal", 0.3, 1.1), ("exponential", 2.0, 3.0)))
after_kl = scipy_modules()
fam = builtin_family("exponential")
pm = predictive_mean_quadrature(fam, conjugate_prior(fam, 2.0, 1.0), 1.5)
print(json.dumps(dict(after_import=after_import, polynomial=polynomial,
                      numpy_after_import=numpy_after_import,
                      numpy_after_command=numpy_after_command,
                      rule_in_bounds=rule_in_bounds,
                      numpy_after_bounds=numpy_after_bounds,
                      numpy_after_curve=numpy_after_curve,
                      after_cli=after_cli, codes=codes,
                      after_sums=after_sums, after_kl=after_kl, kl=kl, pm=pm,
                      scipy_loaded=bool(scipy_modules()))))
"""


def _run_with_package(script, cwd):
    """Run ``script`` in a fresh interpreter that imports this gminimax."""
    import os
    from pathlib import Path

    import gminimax

    src = str(Path(gminimax.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_closed_form_path_imports_no_scipy(tmp_path):
    """The closed-form commands, and an equalizer whose losses take the
    near-diagonal rule, load no numpy; ``regret-curve`` loads it.  numpy
    is the only scientific import, also once quadrature and the oracles
    run; the array loss integrates near the diagonal without loading
    numpy.polynomial."""
    proc = _run_with_package(_COLD_START_SCRIPT, tmp_path)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["after_import"] == []
    assert got["numpy_after_import"] is False
    assert got["numpy_after_command"] == [False] * 10
    assert got["rule_in_bounds"] is True
    assert got["numpy_after_bounds"] is False
    assert got["numpy_after_curve"] is True
    assert got["polynomial"] == []
    assert got["codes"] == [0] * 11
    assert got["after_cli"] == []
    # The KL oracle sums the count families and integrates on intervals,
    # and the posterior mean integrates, all without scipy.
    assert got["after_sums"] == []
    assert got["after_kl"] == []
    assert got["scipy_loaded"] is False
    want = {"normal": 0.3200000000000001, "exponential": 0.09453489189183553,
            "binomial_logit(5)": 0.7436361130460128, "poisson": 0.256878990467559}
    for name, value in want.items():
        assert got["kl"][name] == pytest.approx(value, rel=1e-12), name
    assert got["pm"] == pytest.approx(2.5 / 3.0, rel=1e-12)


_MODULES_SCRIPT = r"""
import contextlib, io, sys
from gminimax.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(code, *sorted(m for m in sys.modules if m.startswith("gminimax.")))
"""
_BOX = ["--family", "exponential", "--x", "2", "--box", "a=1:3,l=1:2"]
_CLOSED_FORM_MODULES = ["cli", "errors", "estimators", "families", "losses", "priors"]


@pytest.mark.parametrize("argv, extra", [
    (["prgm", *_BOX], []),
    (["prgm", "--family", "normal", "--bounds=-1:2"], []),
    (["bayes", "--family", "exponential", "--x", "2", "--prior", "a=2,l=1"], []),
    (["loss", "--family", "poisson", "--theta", "0.3", "--delta", "-0.4"], []),
    (["iprgm", *_BOX, "--transform", "reciprocal"], ["expressions"]),
    (["certify", *_BOX], ["bayesianity"]),
    (["regret-curve", *_BOX, "--grid-n", "50"], ["oracle"]),
    (["verify", "--n-instances", "1"],
     ["bayesianity", "expressions", "oracle", "verify"]),
])
def test_each_command_loads_only_its_modules(tmp_path, argv, extra):
    """A fresh process loads the package modules its subcommand runs and
    no others: the closed-form commands never compile the oracles, the
    witnesses, the verify suites or the expression language."""
    proc = _run_with_package(_MODULES_SCRIPT.format(argv=argv), tmp_path)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    assert code == "0"
    assert modules == sorted(f"gminimax.{m}" for m in _CLOSED_FORM_MODULES + extra)


def test_numpy_is_imported_in_one_place():
    """The package imports numpy at one site, inside the lazy ``np`` handle
    of ``families``, and names no ``TYPE_CHECKING``.  Every other module
    reads ``np`` from there, so numpy loads at the first attribute read;
    ``test_closed_form_path_imports_no_scipy`` checks that no float path
    makes one."""
    import ast
    from pathlib import Path

    import gminimax

    def imported(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        return [node.module or ""] if isinstance(node, ast.ImportFrom) else []

    sites, type_checking = [], []
    for path in sorted(Path(gminimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        for node in ast.walk(tree):
            if any(m.split(".")[0] == "numpy" for m in imported(node)):
                sites.append((path.name, node))
            # a Name, an attribute such as typing.TYPE_CHECKING, an imported alias
            if "TYPE_CHECKING" in (getattr(node, k, None) for k in ("id", "attr", "name")):
                type_checking.append(path.name)
        if path.name == "families.py":
            handle = next(n for n in tree.body
                          if isinstance(n, ast.ClassDef) and n.name == "_Numpy")
    assert type_checking == []
    assert [name for name, _ in sites] == ["families.py"]
    assert any(node is sites[0][1] for node in ast.walk(handle))


def test_a_probe_of_the_numpy_handle_loads_no_numpy(tmp_path):
    """Tools that look for a private or special name on every object of a
    module (``inspect.unwrap`` reads ``__wrapped__``) find none on the
    handle and leave numpy unloaded; a public name loads it."""
    script = ("import inspect, sys; from gminimax.families import np\n"
              "inspect.unwrap(np); hasattr(np, '_marker')\n"
              "print('numpy' in sys.modules, np.pi == 3.141592653589793, "
              "'numpy' in sys.modules)")
    proc = _run_with_package(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]


_NO_SCIPY_SCRIPT = r"""
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
from gminimax.verify import run_suite
print(json.dumps({suite: [r.to_json_dict() for r in run_suite(suite, 7, n_instances=3)]
                  for suite in ("minimax", "invariance", "bayesianity")}))
"""


def test_every_suite_runs_where_scipy_cannot_be_imported(tmp_path):
    """A finder that refuses any scipy import leaves all three verify
    suites, with their quadratures and oracles, running and passing."""
    proc = _run_with_package(_NO_SCIPY_SCRIPT, tmp_path)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert all(got[suite] for suite in ("minimax", "invariance", "bayesianity"))
    failed = [r for records in got.values() for r in records if not r["passed"]]
    assert failed == []
