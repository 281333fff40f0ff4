"""End-to-end acceptance checks.

Every closed form is re-derived inline with independent arithmetic and
confronted with the brute-force oracles; nothing here trusts the
library's own equalization bookkeeping.
"""

import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import expit

from gminimax import (
    ConjugatePrior,
    MixturePath,
    bayes_estimate,
    builtin_family,
    data_independent_alpha,
    data_independent_alpha_exponential_jcp,
    data_independent_alpha_exponential,
    data_independent_alpha_normal,
    eta_scale_prgm,
    grid_minimax,
    intrinsic_loss,
    iprgm_jcp_box,
    kl_quadrature,
    make_transform,
    mixture_witness,
    posterior_regret,
    predictive_mean_quadrature,
    prgm_conjugate_box,
    prgm_from_bounds,
    prior_box,
    transport,
    verify,
)

EQUALIZE_TOL = 1e-10
CORNER_TOL = 1e-12
CLOSED_FORM_RTOL = 1e-12
INVARIANCE_RTOL = 1e-9
SHIFT_RTOL = 1e-8
KL_RTOL = 1e-6


def check_equalized(fam, report):
    """Re-derive the equal-regret identity with the public loss only."""
    r_lo = posterior_regret(fam, report.delta_lo, report.estimate)
    r_hi = posterior_regret(fam, report.delta_hi, report.estimate)
    tol = EQUALIZE_TOL * max(1.0, report.equalized_regret)
    assert abs(r_lo - r_hi) <= tol
    assert report.delta_lo <= report.estimate <= report.delta_hi


class TestNormalMidpoint:
    """Worst-case action between two normal Bayes bounds is their midpoint."""

    def test_fifty_random_bound_pairs(self, normal):
        rng = np.random.default_rng(101)
        for _ in range(50):
            lo = rng.uniform(-4.0, 3.0)
            hi = lo + rng.uniform(0.5, 4.0)
            report = prgm_from_bounds(normal, lo, hi)
            assert report.estimate == pytest.approx(
                0.5 * (lo + hi), rel=1e-12, abs=1e-13
            )
            check_equalized(normal, report)

            # a lambda-edge box whose corner estimates are exactly (lo, hi)
            a0 = rng.uniform(-0.5, 2.0)
            box = prior_box(normal, a0, a0, -(a0 + 1.0) * hi, -(a0 + 1.0) * lo)
            res = grid_minimax(normal, box, 0.0)
            assert abs(res.argmin - report.estimate) <= res.resolution_bound
            assert res.corner_violation <= CORNER_TOL


def exp_box_draw(rng):
    a1 = rng.uniform(0.05, 2.0)
    a2 = a1 + rng.uniform(0.1, 2.0)
    l1 = rng.uniform(0.05, 2.0)
    l2 = l1 + rng.uniform(0.1, 2.0)
    x = rng.uniform(0.1, 4.0)
    return a1, a2, l1, l2, x


class TestExponentialClosedForms:
    """Full-box, alpha-only, and lambda-only rate estimates."""

    def test_fifty_random_boxes(self, exponential):
        rng = np.random.default_rng(202)
        for _ in range(50):
            a1, a2, l1, l2, x = exp_box_draw(rng)

            d_lo = (a1 + 1.0) / (l2 + x)
            d_hi = (a2 + 1.0) / (l1 + x)
            full = d_lo * d_hi * math.log(d_hi / d_lo) / (d_hi - d_lo)
            report = prgm_conjugate_box(
                exponential, prior_box(exponential, a1, a2, l1, l2), x
            )
            assert report.estimate == pytest.approx(full, rel=CLOSED_FORM_RTOL)
            assert report.delta_lo == pytest.approx(d_lo, rel=CLOSED_FORM_RTOL)
            assert report.delta_hi == pytest.approx(d_hi, rel=CLOSED_FORM_RTOL)
            check_equalized(exponential, report)

            alpha_only = (
                (a1 + 1.0) * (a2 + 1.0) / ((a2 - a1) * (l1 + x))
                * math.log((a2 + 1.0) / (a1 + 1.0))
            )
            got = prgm_conjugate_box(
                exponential, prior_box(exponential, a1, a2, l1, l1), x
            )
            assert got.estimate == pytest.approx(alpha_only, rel=CLOSED_FORM_RTOL)

            lam_only = (a1 + 1.0) * math.log((l2 + x) / (l1 + x)) / (l2 - l1)
            got = prgm_conjugate_box(
                exponential, prior_box(exponential, a1, a1, l1, l2), x
            )
            assert got.estimate == pytest.approx(lam_only, rel=CLOSED_FORM_RTOL)

    def test_oracle_agreement_on_hundred_instances(self, exponential):
        rng = np.random.default_rng(203)
        for _ in range(100):
            a1, a2, l1, l2, x = exp_box_draw(rng)
            box = prior_box(exponential, a1, a2, l1, l2)
            report = prgm_conjugate_box(exponential, box, x)
            res = grid_minimax(exponential, box, x)
            assert abs(res.argmin - report.estimate) <= res.resolution_bound
            assert res.corner_violation <= CORNER_TOL


class TestBinomialTripleAgreement:
    """Inline logit formula vs generic solver vs grid oracle."""

    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_thirty_random_boxes(self, n):
        fam = builtin_family(f"binomial_logit({n})")
        rng = np.random.default_rng(300 + n)
        for _ in range(30):
            l1 = rng.uniform(0.2, 1.0)
            l2 = l1 + rng.uniform(0.1, 1.0)
            a1 = l2 + rng.uniform(0.1, 1.0)
            a2 = a1 + rng.uniform(0.1, 2.0)
            x = int(rng.integers(0, n + 1))

            # extreme posterior means of the success count, inverted by hand
            m_hi = n * (l2 + x) / (a1 + n)
            m_lo = n * (l1 + x) / (a2 + n)
            d_lo = math.log(n / m_hi - 1.0)
            d_hi = math.log(n / m_lo - 1.0)

            def h(d):
                return n * expit(-d)

            def log_beta(d):
                return -n * np.logaddexp(0.0, -d)

            want = (
                d_hi * h(d_hi) - d_lo * h(d_lo) - (log_beta(d_hi) - log_beta(d_lo))
            ) / (h(d_hi) - h(d_lo))

            from_bounds = prgm_from_bounds(fam, d_lo, d_hi)
            assert from_bounds.estimate == pytest.approx(want, rel=CLOSED_FORM_RTOL)

            box = prior_box(fam, a1, a2, l1, l2)
            from_box = prgm_conjugate_box(fam, box, x)
            assert from_box.estimate == pytest.approx(want, rel=CLOSED_FORM_RTOL)
            assert from_box.delta_lo == pytest.approx(d_lo, rel=1e-11, abs=1e-11)
            assert from_box.delta_hi == pytest.approx(d_hi, rel=1e-11, abs=1e-11)
            check_equalized(fam, from_box)

            res = grid_minimax(fam, box, x)
            assert abs(res.argmin - want) <= res.resolution_bound
            assert res.corner_violation <= CORNER_TOL


def draw_box(rng, fam, flavor):
    """Random proper box + observation for any builtin family."""
    name = fam.name
    if name == "normal_mean_unitvar":
        a1 = rng.uniform(-0.5, 1.5)
        a2 = a1 + rng.uniform(0.1, 1.5)
        l1 = rng.uniform(-1.5, 1.0)
        l2 = l1 + rng.uniform(0.1, 1.5)
        x = float(rng.uniform(-3.0, 3.0))
    elif name == "exponential_rate":
        lo_alpha = 0.3 if flavor == "jcp" else -0.5
        a1 = rng.uniform(lo_alpha, 2.0)
        a2 = a1 + rng.uniform(0.1, 2.0)
        l1 = rng.uniform(0.1, 2.0)
        l2 = l1 + rng.uniform(0.1, 2.0)
        x = float(rng.uniform(0.2, 5.0))
    elif name.startswith("binomial"):
        n = int(fam.obs_units)
        l1 = rng.uniform(0.2, 1.5)
        l2 = l1 + rng.uniform(0.1, 1.0)
        a1 = l2 + rng.uniform(0.1, 1.0)
        a2 = a1 + rng.uniform(0.1, 2.0)
        x = float(rng.integers(0, n + 1))
    else:  # poisson
        a1 = rng.uniform(0.2, 2.0)
        a2 = a1 + rng.uniform(0.1, 2.0)
        l1 = rng.uniform(0.2, 2.0)
        l2 = l1 + rng.uniform(0.1, 2.0)
        x = float(rng.integers(0, 9))
    return prior_box(fam, a1, a2, l1, l2, flavor), x


ALL_FAMILIES = ["normal", "exponential", "binomial_logit(5)", "poisson"]


class TestEqualizedRegretEverywhere:
    """The two extreme regrets agree at every reported estimate."""

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_standard_boxes(self, name):
        fam = builtin_family(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(10):
            box, x = draw_box(rng, fam, "standard")
            check_equalized(fam, prgm_conjugate_box(fam, box, x))

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_jcp_boxes(self, name):
        fam = builtin_family(name)
        rng = np.random.default_rng((hash(name) + 1) % 2**32)
        for _ in range(10):
            box, x = draw_box(rng, fam, "jcp")
            check_equalized(fam, iprgm_jcp_box(fam, box, x))

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_raw_bound_pairs(self, name):
        fam = builtin_family(name)
        rng = np.random.default_rng((hash(name) + 2) % 2**32)
        for _ in range(20):
            if fam.support[0] == 0.0:
                lo = rng.uniform(0.1, 3.0)
            else:
                lo = rng.uniform(-3.0, 2.0)
            hi = lo + rng.uniform(0.05, 2.0)
            check_equalized(fam, prgm_from_bounds(fam, lo, hi))


# (1/a) log(theta) for a in {-1, 0.5, 2} spelled in catalog arguments,
# plus the rate reciprocal; the probability scale runs on the binomial.
EXPONENTIAL_MAPS = [
    "reciprocal",
    "neg_log_over_a(1)",
    "neg_log_over_a(-0.5)",
    "neg_log_over_a(-2)",
]


class TestInvariance:
    @pytest.mark.parametrize("spec", EXPONENTIAL_MAPS)
    def test_exponential_jcp_commutes(self, exponential, spec):
        tr = make_transform(spec, exponential)
        rng = np.random.default_rng(abs(hash(spec)) % 2**32)
        for _ in range(50):
            box, x = draw_box(rng, exponential, "jcp")
            report = iprgm_jcp_box(exponential, box, x)
            pushed = transport(report, tr)
            direct = eta_scale_prgm(exponential, box, x, tr).estimate
            assert pushed == pytest.approx(direct, rel=INVARIANCE_RTOL)

    def test_binomial_probability_scale_commutes(self, binomial5):
        tr = make_transform("logit_to_p", binomial5)
        rng = np.random.default_rng(555)
        for _ in range(50):
            box, x = draw_box(rng, binomial5, "jcp")
            report = iprgm_jcp_box(binomial5, box, x)
            pushed = transport(report, tr)
            direct = eta_scale_prgm(binomial5, box, x, tr).estimate
            assert pushed == pytest.approx(direct, rel=INVARIANCE_RTOL)

    def test_standard_class_control_breaks(self, exponential):
        # same protocol, conjugate class without the sqrt-Fisher factor:
        # re-eliciting on the reciprocal scale moves the answer visibly
        tr = make_transform("reciprocal", exponential)
        rng = np.random.default_rng(556)
        worst = 0.0
        for _ in range(10):
            a1 = rng.uniform(1.3, 2.0)
            a2 = a1 + rng.uniform(0.2, 1.5)
            l1 = rng.uniform(0.5, 1.5)
            l2 = l1 + rng.uniform(0.2, 1.5)
            x = float(rng.uniform(0.5, 4.0))
            box = prior_box(exponential, a1, a2, l1, l2, "standard")
            report = prgm_conjugate_box(exponential, box, x)
            pushed = float(tr.forward(report.estimate))
            direct = eta_scale_prgm(exponential, box, x, tr).estimate
            worst = max(worst, abs(pushed - direct) / max(1.0, abs(direct)))
        assert worst > 1e-3


class TestSqrtFisherShift:
    """Quadrature posterior mean of H under the corrected prior equals the
    closed shifted-conjugate value."""

    CASES = [
        ("exponential", np.linspace(0.6, 2.6, 5), np.linspace(0.3, 2.3, 5),
         np.linspace(0.4, 4.4, 5)),
        ("binomial_logit(5)", np.linspace(1.5, 3.5, 5), np.linspace(0.2, 1.0, 5),
         np.array([0.0, 1.0, 2.0, 4.0, 5.0])),
        ("normal", np.linspace(-0.5, 1.5, 5), np.linspace(-1.0, 1.0, 5),
         np.linspace(-2.0, 2.0, 5)),
    ]

    @staticmethod
    def shifted_value(name, a, l, x):
        if name == "exponential":
            return (l + x) / a                     # alpha -> alpha - 1
        if name.startswith("binomial"):
            n = 5.0
            return n * (l + 0.5 + x) / (a + 1.0 + n)  # (+1, +1/2)
        return (l - x) / (a + 1.0)                 # normal: no shift

    @pytest.mark.parametrize("name,alphas,lams,xs", CASES)
    def test_five_cubed_grid(self, name, alphas, lams, xs):
        fam = builtin_family(name)
        for a in alphas:
            for l in lams:
                prior = ConjugatePrior(fam, float(a), float(l), "jcp")
                for x in xs:
                    quad = predictive_mean_quadrature(fam, prior, float(x))
                    closed = self.shifted_value(name, float(a), float(l), float(x))
                    assert quad == pytest.approx(closed, rel=SHIFT_RTOL)


class TestKLClosedForm:
    RANGES = {
        "normal": (-3.0, 3.0),
        "exponential": (0.1, 5.0),
        "binomial_logit(5)": (-3.0, 3.0),
        "poisson": (-2.0, 2.5),
    }

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_two_hundred_random_pairs(self, name):
        fam = builtin_family(name)
        lo, hi = self.RANGES[name]
        rng = np.random.default_rng(700 + len(name))
        for _ in range(200):
            theta = rng.uniform(lo, hi)
            delta = rng.uniform(lo, hi)
            while abs(delta - theta) < 0.05:
                delta = rng.uniform(lo, hi)
            direct = intrinsic_loss(fam, theta, delta)
            oracle = kl_quadrature(fam, theta, delta)
            assert oracle == pytest.approx(direct, rel=KL_RTOL)


class TestWitnessConstructions:
    def test_normal_constant_alpha(self, normal):
        rng = np.random.default_rng(801)
        xs = np.linspace(-3.1, 4.3, 20)
        for _ in range(5):
            a1 = rng.uniform(0.5, 2.0)
            a2 = a1 + rng.uniform(0.5, 2.0)
            box = prior_box(normal, a1, a2, 0.5, 0.5)
            cert = data_independent_alpha(normal, box, xs)
            assert cert.constancy_spread < 1e-10
            want = (a1 + a2 + 2.0 * a1 * a2) / (a1 + a2 + 2.0)
            assert cert.witness["alpha"] == pytest.approx(want, abs=1e-8)
            assert want == pytest.approx(
                data_independent_alpha_normal(a1, a2), rel=1e-15
            )

    def test_exponential_constant_alpha(self, exponential):
        rng = np.random.default_rng(802)
        xs = np.linspace(0.3, 6.0, 20)
        for _ in range(5):
            a1 = rng.uniform(0.3, 1.5)
            a2 = a1 + rng.uniform(0.5, 2.0)
            box = prior_box(exponential, a1, a2, 0.75, 0.75)
            cert = data_independent_alpha(exponential, box, xs)
            assert cert.constancy_spread < 1e-10
            want = ((a1 + 1.0) * (a2 + 1.0) / (a1 - a2)) * math.log(
                (a1 + 1.0) / (a2 + 1.0)
            ) - 1.0
            assert cert.witness["alpha"] == pytest.approx(want, abs=1e-8)
            assert want == pytest.approx(
                data_independent_alpha_exponential(a1, a2), rel=1e-14
            )

    def test_corrected_class_log_mean_identity(self, exponential):
        rng = np.random.default_rng(803)
        xs = np.linspace(0.3, 6.0, 20)
        for _ in range(5):
            a1 = rng.uniform(0.4, 1.5)
            a2 = a1 + rng.uniform(0.5, 2.0)
            box = prior_box(exponential, a1, a2, 0.75, 0.75, "jcp")
            cert = data_independent_alpha(exponential, box, xs)
            assert cert.constancy_spread < 1e-10
            alpha = cert.witness["alpha"]
            log_mean = (1.0 / a1 - 1.0 / a2) / (math.log(a2) - math.log(a1))
            assert abs(1.0 / alpha - log_mean) <= 1e-10
            assert alpha == pytest.approx(
                data_independent_alpha_exponential_jcp(a1, a2), abs=1e-8
            )

    def test_thirty_mixture_witnesses(self):
        rng = np.random.default_rng(804)
        done = 0
        while done < 30:
            name = ALL_FAMILIES[done % 3]  # normal, exponential, binomial
            fam = builtin_family(name)
            if name == "normal":
                p0 = ConjugatePrior(fam, rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
                p1 = ConjugatePrior(fam, rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
                x = float(rng.uniform(-2.0, 2.0))
            elif name == "exponential":
                p0 = ConjugatePrior(fam, rng.uniform(0.2, 2.0), rng.uniform(0.3, 2.0))
                p1 = ConjugatePrior(fam, rng.uniform(0.2, 2.0), rng.uniform(0.3, 2.0))
                x = float(rng.uniform(0.3, 4.0))
            else:
                l0 = rng.uniform(0.3, 1.5)
                l1 = rng.uniform(0.3, 1.5)
                p0 = ConjugatePrior(fam, l0 + rng.uniform(0.3, 2.0), l0)
                p1 = ConjugatePrior(fam, l1 + rng.uniform(0.3, 2.0), l1)
                x = float(rng.integers(0, 6))
            e0 = bayes_estimate(fam, p0, x).estimate
            e1 = bayes_estimate(fam, p1, x).estimate
            if abs(e0 - e1) < 1e-6:
                continue
            target = prgm_from_bounds(fam, min(e0, e1), max(e0, e1)).estimate
            cert = mixture_witness(fam, MixturePath(p0, p1), x, target)
            assert cert.kind == "mixture"
            assert 0.0 <= cert.witness["t"] <= 1.0
            assert cert.residual < 1e-8
            done += 1


class TestCornerDominance:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_interior_never_beats_extremes(self, name):
        fam = builtin_family(name)
        rng = np.random.default_rng(900 + len(name))
        for _ in range(10):
            box, x = draw_box(rng, fam, "standard")
            res = grid_minimax(fam, box, x)
            assert res.corner_violation <= CORNER_TOL


RECORD_FIELDS = {"bound", "check", "index", "note", "passed", "suite", "value"}
SUMMARY_FIELDS = {"n_checks", "n_failed", "passed", "seed", "suite"}


class TestVerifyCommandContract:
    def test_deterministic_and_schema_clean(self):
        argv = [sys.executable, "-m", "gminimax", "verify", "all", "--seed", "42"]
        first = subprocess.run(argv, capture_output=True, timeout=600)
        second = subprocess.run(argv, capture_output=True, timeout=600)
        assert first.returncode == 0, first.stderr.decode()
        assert second.returncode == 0
        assert first.stdout == second.stdout  # byte identical

        lines = first.stdout.decode("utf-8").splitlines()
        assert len(lines) > 100
        records = [json.loads(line) for line in lines]
        summary = records[-1]
        assert set(summary) == SUMMARY_FIELDS
        assert summary["seed"] == 42
        assert summary["suite"] == "all"
        assert summary["n_failed"] == 0
        assert summary["passed"] is True
        assert summary["n_checks"] == len(records) - 1
        assert summary["n_checks"] == 593  # a dropped or added record is named
        for rec in records[:-1]:
            assert set(rec) == RECORD_FIELDS
            assert isinstance(rec["passed"], bool) and rec["passed"]
            assert rec["suite"] in ("minimax", "invariance", "bayesianity")
            assert isinstance(rec["check"], str)
            assert isinstance(rec["index"], int)
            assert rec["value"] is None or isinstance(rec["value"], float)
            assert rec["bound"] is None or isinstance(rec["bound"], float)
            assert isinstance(rec["note"], str)

    def test_equalized_regret_is_recomputed(self, monkeypatch):
        # An answer shifted off the equalizer, whose report still carries the
        # estimator's own tiny residual, fails: verify recomputes the regrets.
        real = verify.prgm_conjugate_box

        def shifted(fam, box, x):
            report = real(fam, box, x)
            width = report.delta_hi - report.delta_lo
            return dataclasses.replace(report, estimate=report.estimate + 1e-4 * width)

        monkeypatch.setattr(verify, "prgm_conjugate_box", shifted)
        records = [r for r in verify.minimax_suite(42, 3) if r.check == "equalized_regret"]
        assert len(records) == 3 and not any(r.passed for r in records)


class TestPublicSurface:
    MODULES = ("bayesianity", "errors", "estimators", "expressions", "families",
               "losses", "oracle", "priors", "verify")

    def test_module_lists_are_the_export_list(self):
        import gminimax

        modules = [getattr(gminimax, name) for name in self.MODULES]
        names = [name for module in modules for name in module.__all__]
        assert gminimax.__all__ == names + ["__version__"]
        assert len(set(gminimax.__all__)) == len(gminimax.__all__) == 45
        for module in modules:
            for name in module.__all__:
                assert getattr(gminimax, name) is getattr(module, name)

    def test_import_loads_no_module_and_one_read_loads_all(self):
        """``import gminimax`` loads no module of the package; the first
        read of a public name loads all nine and binds the names, so the
        next read is a plain global."""
        probe = ("import sys, gminimax\n"
                 "def loaded(): return ' '.join(sorted(m for m in sys.modules "
                 "if m.startswith('gminimax.')))\n"
                 "print(repr(loaded()))\n"
                 "gminimax.prgm_from_bounds\n"
                 "print(repr(loaded()))\n"
                 "print('prgm_from_bounds' in vars(gminimax), "
                 "'__all__' in vars(gminimax))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, timeout=60, check=True)
        before, after, bound = proc.stdout.splitlines()
        assert before == "''"
        assert after.strip("'").split() == [f"gminimax.{m}" for m in self.MODULES]
        assert bound == "True True"

    def test_unknown_name_is_an_attribute_error(self):
        import gminimax

        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            gminimax.no_such_name
