"""Seeded self-verification suites behind the ``verify`` subcommand.

Each suite draws randomized instances from a seeded generator, runs a
closed-form path and an independent path, and emits one record per
check.  Identical seed and configuration give identical records, byte
for byte, so two runs of ``verify all --seed 42`` must diff clean.

The invariance suite contains one deliberately failing construction:
re-eliciting a plain conjugate class on a transformed scale moves the
minimax answer.  That check passes when the discrepancy IS large, and
its note says so; it exists to show the sqrt-Fisher correction is doing
real work.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .bayesianity import (
    connected_path_witness,
    data_independent_alpha,
    data_independent_alpha_exponential,
    data_independent_alpha_exponential_jcp,
    data_independent_alpha_normal,
    mixture_witness,
)
from .errors import SpecificationError
from .estimators import (
    EQUALIZE_TOL,
    bayes_estimate,
    eta_scale_prgm,
    iprgm_jcp_box,
    make_transform,
    prgm_conjugate_box,
    prgm_from_bounds,
    transport,
)
from .families import builtin_family, np
from .losses import intrinsic_loss, posterior_regret
from .oracle import CORNER_TOL, grid_minimax, kl_quadrature
from .priors import MixturePath, PriorBox, conjugate_prior

__all__ = ["CheckRecord", "run_suite"]

INVARIANCE_TOL = 1e-9
CONTROL_GAP = 1e-3
WITNESS_TOL = 1e-8
KL_TOL = 1e-6


@dataclass(frozen=True)
class CheckRecord:
    """One verification outcome, JSON-serializable and orderable."""

    suite: str
    check: str
    index: int
    passed: bool
    value: float | None = None
    bound: float | None = None
    note: str = ""

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["passed"] = bool(d["passed"])
        d["index"] = int(d["index"])
        for key in ("value", "bound"):
            if d[key] is not None:
                d[key] = float(d[key])
        return d


def _check(suite: str, check: str, index: int, value: float, bound: float,
           note: str, passed: bool | None = None) -> CheckRecord:
    """One record; it passes when ``value <= bound`` unless ``passed`` is given."""
    return CheckRecord(suite, check, index, value <= bound if passed is None else passed,
                       value, bound, note)


def _draw_sorted(rng, lo: float, hi: float) -> tuple[float, float]:
    a, b = rng.uniform(lo, hi, size=2)
    return (float(min(a, b)), float(max(a, b)))


def _draw_box(rng, fam, flavor: str = "standard"):
    """Box and observation for a built-in family, with guaranteed propriety."""
    if fam.name == "normal_mean_unitvar":
        a_lo, a_hi = _draw_sorted(rng, -0.5, 3.0)
        l_lo, l_hi = _draw_sorted(rng, -2.0, 2.0)
        x = float(rng.uniform(-3.0, 3.0))
    elif fam.name == "exponential_rate":
        a_lo, a_hi = _draw_sorted(rng, 0.3 if flavor == "jcp" else -0.5, 3.0)
        l_lo, l_hi = _draw_sorted(rng, 0.1, 3.0)
        x = float(rng.uniform(0.2, 5.0))
    elif fam.name == "binomial_logit(5)":
        l_lo, l_hi = _draw_sorted(rng, 0.2, 2.0)
        a_lo = l_hi + float(rng.uniform(0.1, 1.0))
        a_hi = a_lo + float(rng.uniform(0.1, 3.0))
        x = float(rng.integers(0, 6))
    else:
        a_lo, a_hi = _draw_sorted(rng, -0.5, 3.0)
        l_lo, l_hi = _draw_sorted(rng, 0.1, 3.0)
        x = float(rng.integers(0, 13))
    return PriorBox(fam, a_lo, a_hi, l_lo, l_hi, flavor), x


def _draw_instance(rng):
    """Family, standard box, observation triple with guaranteed propriety."""
    fam = builtin_family(["normal_mean_unitvar", "exponential_rate",
                          "binomial_logit(5)", "poisson_neglograte"][rng.integers(0, 4)])
    return (fam, *_draw_box(rng, fam))


def minimax_suite(seed: int, n_instances: int) -> list[CheckRecord]:
    """Closed-form box minimax against the brute-force sweep."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_instances):
        fam, box, x = _draw_instance(rng)
        report = prgm_conjugate_box(fam, box, x)
        oracle = grid_minimax(fam, box, x)
        gap = abs(oracle.argmin - report.estimate)
        records.append(_check("minimax", "oracle_argmin", i, gap,
                              oracle.resolution_bound, f"{fam.name} x={x:g}"))
        r_lo, r_hi = posterior_regret(
            fam, [report.delta_lo, report.delta_hi], report.estimate).tolist()
        residual = abs(r_lo - r_hi)
        tol = EQUALIZE_TOL * max(1.0, report.equalized_regret)
        records.append(_check("minimax", "equalized_regret", i, residual, tol,
                              report.method))
        ctol = CORNER_TOL * max(1.0, oracle.minimax_value)
        records.append(_check("minimax", "corner_dominance", i,
                              oracle.corner_violation, ctol,
                              f"lattice {oracle.n_lattice}"))
        kl = kl_quadrature(fam, report.delta_lo, report.estimate)
        closed = intrinsic_loss(fam, report.delta_lo, report.estimate)
        diff = abs(kl - closed)
        ktol = KL_TOL * max(1.0, abs(closed))
        records.append(_check("minimax", "kl_matches_loss", i, diff, ktol,
                              f"{fam.name}"))
    return records


_INVARIANCE_COMBOS = (
    ("exponential_rate", "reciprocal"),
    ("exponential_rate", "neg_log_over_a(1)"),
    ("exponential_rate", "neg_log_over_a(-0.5)"),
    ("exponential_rate", "neg_log_over_a(-2)"),
    ("binomial_logit(5)", "logit_to_p"),
)


def invariance_suite(seed: int, n_instances: int) -> list[CheckRecord]:
    """Transport of the invariant estimate vs a native transformed-scale
    solve, plus the plain-conjugate control that must disagree."""
    rng = np.random.default_rng(seed)
    records = []
    idx = 0
    for fam_name, tr_name in _INVARIANCE_COMBOS:
        fam = builtin_family(fam_name)
        tr = make_transform(tr_name, fam)
        for _ in range(n_instances):
            box, x = _draw_box(rng, fam, "jcp")
            theta_report = iprgm_jcp_box(fam, box, x)
            pushed = transport(theta_report, tr)
            native = eta_scale_prgm(fam, box, x, tr).estimate
            diff = abs(pushed - native)
            tol = INVARIANCE_TOL * max(1.0, abs(native))
            records.append(_check("invariance", "jcp_transport", idx, diff, tol,
                                  f"{fam.name} via {tr.label}"))
            idx += 1

    # Control: same machinery, plain conjugate class, reciprocal scale.
    fam = builtin_family("exponential_rate")
    tr = make_transform("reciprocal", fam)
    for j in range(5):
        a_lo = float(rng.uniform(1.3, 2.0))
        a_hi = a_lo + float(rng.uniform(0.5, 2.0))
        l_lo, l_hi = _draw_sorted(rng, 0.5, 2.5)
        x = float(rng.uniform(0.5, 4.0))
        box = PriorBox(fam, a_lo, a_hi, l_lo, l_hi, "standard")
        theta_report = prgm_conjugate_box(fam, box, x)
        pushed = float(tr.forward(theta_report.estimate))
        native = eta_scale_prgm(fam, box, x, tr).estimate
        diff = abs(pushed - native)
        records.append(_check(
            "invariance", "non_jcp_control", idx + j, diff, CONTROL_GAP,
            "expected discrepancy: plain conjugate class re-elicited on the "
            "reciprocal scale is a different prior class",
            passed=diff > CONTROL_GAP))
    return records


def bayesianity_suite(seed: int, n_instances: int) -> list[CheckRecord]:
    """Witness constructions for box-minimax actions."""
    rng = np.random.default_rng(seed)
    records = []

    for i in range(n_instances):
        fam_name = ["exponential_rate", "normal_mean_unitvar",
                    "poisson_neglograte"][rng.integers(0, 3)]
        fam = builtin_family(fam_name)
        alphas = rng.uniform(0.3, 3.0, size=2)
        if fam_name == "normal_mean_unitvar":
            lams = rng.uniform(-1.5, 1.5, size=2)
            x = float(rng.uniform(-3.0, 3.0))
        else:
            lams = rng.uniform(0.3, 3.0, size=2)
            x = float(rng.uniform(0.3, 4.0)) if fam_name == "exponential_rate" \
                else float(rng.integers(1, 10))
        p0 = conjugate_prior(fam, float(alphas[0]), float(lams[0]))
        p1 = conjugate_prior(fam, float(alphas[1]), float(lams[1]))
        e0 = bayes_estimate(fam, p0, x).estimate
        e1 = bayes_estimate(fam, p1, x).estimate
        target = prgm_from_bounds(fam, min(e0, e1), max(e0, e1))
        if target.diagnostics["degenerate"]:
            continue  # the two Bayes actions coincide; skip this draw
        cert = mixture_witness(fam, MixturePath(p0, p1), x, target.estimate)
        records.append(_check("bayesianity", "mixture_residual", i, cert.residual,
                              WITNESS_TOL, f"{fam.name} t={cert.witness['t']:.6f}"))

    for j in range(n_instances):
        fam, box, x = _draw_instance(rng)
        report = prgm_conjugate_box(fam, box, x)
        cert = connected_path_witness(fam, box, x, report.estimate)
        records.append(_check("bayesianity", "path_residual", j, cert.residual,
                              WITNESS_TOL, f"{fam.name} kind={cert.kind}"))

    # Fixed data-independence spot checks with their closed forms.
    for check, fam_name, flavor, lam, x_grid, closed_form in (
        ("data_independent_normal", "normal_mean_unitvar", "standard", 0.5,
         np.linspace(-3.0, 4.0, 15), data_independent_alpha_normal),
        ("data_independent_exponential", "exponential_rate", "standard", 1.0,
         np.linspace(0.5, 6.0, 15), data_independent_alpha_exponential),
        ("data_independent_exponential_jcp", "exponential_rate", "jcp", 1.0,
         np.linspace(0.5, 6.0, 15), data_independent_alpha_exponential_jcp),
    ):
        fam = builtin_family(fam_name)
        box = PriorBox(fam, 1.0, 3.0, lam, lam, flavor)
        cert = data_independent_alpha(fam, box, x_grid)
        expected = closed_form(1.0, 3.0)
        alpha, spread = cert.witness["alpha"], cert.constancy_spread
        records.append(_check(
            "bayesianity", check, 0, spread, 1e-10,
            f"alpha={alpha:.12f} expected={expected:.12f}",
            passed=spread <= 1e-10 and abs(alpha - expected) <= WITNESS_TOL))
    return records


# Each suite with its default instance count.
_SUITES = {
    "minimax": (minimax_suite, 100),
    "invariance": (invariance_suite, 25),
    "bayesianity": (bayesianity_suite, 30),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int,
              n_instances: int | None = None) -> list[CheckRecord]:
    """Run one suite with ``n_instances`` instances (``None``: its default)."""
    if name not in _SUITES:
        raise SpecificationError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if seed < 0:
        raise SpecificationError(f"a suite needs a non-negative seed, got seed={seed}")
    suite, default = _SUITES[name]
    if n_instances is None:
        n_instances = default
    elif n_instances < 1:
        raise SpecificationError(
            f"a suite needs at least 1 instance, got n_instances={n_instances}")
    return suite(seed, n_instances)
