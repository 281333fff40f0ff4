"""Bayes, posterior-regret box-minimax, and invariant estimators.

The central fact used everywhere: for a conjugate prior box the Bayes
estimates sweep a delta-interval whose endpoints sit at box corners, the
worst-case posterior regret of any action is attained against one of the
two extreme Bayes estimates, and the minimax action equalizes the regret
against those extremes.  With bounds ``d_lo < d_hi`` the regret gap
``L(d_hi, d) - L(d_lo, d)`` is linear in ``d``, falling from
``L(d_hi, d_lo)`` to ``-L(d_lo, d_hi)``, so the equalizer is

    d_lo + (d_hi - d_lo) * L(d_hi, d_lo) / (L(d_hi, d_lo) + L(d_lo, d_hi)),

a ratio of two positive losses, as accurate as ``intrinsic_loss``.
Collapsed bounds give the midpoint.  ``eta_scale_prgm`` finds the root
of the regret gap instead, with the ITP bracketing solver in ``families``
and no closed-form starting guess, so the invariance check compares
against an independent solver.  The corner Bayes estimates all come
from ``_corner_bayes``.

A ``jcp`` box is solved as its standard-flavor equivalent; the Jeffreys
shift is applied in one place, ``priors.to_standard``.  That flavor
earns its keep here: the class of sqrt-Fisher-corrected conjugate priors
is the same set of measures in every smooth one-to-one
reparameterization, so the box-minimax estimate of ``h(theta)`` is ``h``
of the box-minimax estimate of ``theta``.  Plain conjugate boxes
re-elicited on a transformed scale are a different class of measures,
and their minimax estimate genuinely moves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, SpecificationError
from .families import (
    FamilySpec,
    _itp,
    mean_inverse,
    require_in_support,
    support_grid,
)
from .losses import posterior_regret
from .priors import (
    ConjugatePrior,
    PriorBox,
    _predictive_means,
    posterior_predictive_mean,
    predictive_mean_quadrature,
    require_same_family,
)

__all__ = [
    "EstimateReport",
    "Reparameterization",
    "bayes_estimate",
    "prgm_from_bounds",
    "prgm_conjugate_box",
    "iprgm_jcp_box",
    "transport",
    "eta_scale_prgm",
    "make_transform",
]

METHOD_BAYES = "bayes"
METHOD_CLOSED = "prgm_closed_form"
METHOD_ROOT = "prgm_root_find"
METHOD_IPRGM = "iprgm"

DEGENERATE_REL_WIDTH = 1e-10
EQUALIZE_TOL = 1e-10


@dataclass(frozen=True)
class EstimateReport:
    """Result of one estimation call.

    ``delta_lo``/``delta_hi`` bracket the Bayes estimates that generated
    the answer (they equal the estimate itself for plain Bayes);
    ``equalized_regret`` is the common worst-case posterior regret at
    the reported estimate (zero for Bayes).
    """

    estimate: float
    delta_lo: float
    delta_hi: float
    equalized_regret: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.delta_lo <= self.delta_hi:
            raise SpecificationError("report needs delta_lo <= delta_hi")

    def to_json_dict(self) -> dict:
        return asdict(self)


def bayes_estimate(fam: FamilySpec, prior: ConjugatePrior, x: float) -> EstimateReport:
    """Bayes action under intrinsic loss: invert the mean function at the
    posterior predictive mean."""
    pm = posterior_predictive_mean(fam, prior, x)
    est = mean_inverse(fam, pm)
    return EstimateReport(
        estimate=est,
        delta_lo=est,
        delta_hi=est,
        equalized_regret=0.0,
        method=METHOD_BAYES,
        diagnostics={"flavor": prior.flavor, "posterior_mean": pm},
    )


def prgm_from_bounds(fam: FamilySpec, d_lo: float, d_hi: float) -> EstimateReport:
    """Minimax action against the two extreme Bayes estimates.

    ``d_lo`` and ``d_hi`` must lie inside the support with
    ``d_lo <= d_hi``.  The answer is the ratio of two losses given in the
    module docstring; collapsed bounds return the midpoint.
    """
    d_lo, d_hi = float(d_lo), float(d_hi)
    require_in_support(fam, d_lo, what="delta_lo")
    require_in_support(fam, d_hi, what="delta_hi")
    if d_lo > d_hi:
        raise DomainError(f"need delta_lo <= delta_hi, got {d_lo} > {d_hi}")

    scale = max(1.0, abs(d_lo), abs(d_hi))
    if d_hi - d_lo < DEGENERATE_REL_WIDTH * scale:
        return EstimateReport(0.5 * (d_lo + d_hi), d_lo, d_hi, 0.0, METHOD_CLOSED,
                              {"degenerate": True, "residual": 0.0})

    down, up = posterior_regret(fam, [d_hi, d_lo], [d_lo, d_hi]).tolist()
    total = down + up
    if not 0.0 < total < math.inf:
        raise DomainError(
            f"the regrets on [{d_lo}, {d_hi}] for {fam.name} sum to {total}, "
            "outside the float range; these bounds cannot be resolved")
    width = d_hi - d_lo
    est = d_lo + width * (down / total)
    r_lo, r_hi = posterior_regret(fam, [d_lo, d_hi], est).tolist()
    residual = abs(r_lo - r_hi)
    # No float action equalizes closer than one ulp times the gap's slope.
    if residual > (EQUALIZE_TOL * max(1.0, r_lo, r_hi)
                   + total / width * math.ulp(est)):
        raise ConvergenceError(
            f"could not equalize the corner regrets on [{d_lo}, {d_hi}] "
            f"for {fam.name}: residual {residual:.3e}"
        )
    return EstimateReport(est, d_lo, d_hi, 0.5 * (r_lo + r_hi), METHOD_CLOSED,
                          {"degenerate": False, "residual": residual})


def _corner_bayes(fam: FamilySpec, box: PriorBox, x: float,
                  predictive: Callable | None = None) -> list[float]:
    """Bayes estimates at the four hyper-parameter corners.

    The posterior predictive mean is monotone in lambda for fixed alpha
    and monotone in alpha for fixed lambda, so its extremes over the box
    (hence the extreme Bayes estimates) land on corners.  Which corner
    wins depends on the sign of lambda + stat(x); taking the min and max
    over all four sidesteps that case split.  With no ``predictive`` the
    corners' closed-form posterior means come from one pass over the box,
    ``priors._predictive_means``.  Otherwise ``predictive(fam, prior, x)``
    gives each corner's, one call per corner, so that a wrapper installed
    on the function passed in (a profiler's) sees the calls.
    """
    require_same_family(fam, box.fam, "box")
    corners = box.corners()
    if predictive is None:
        means = _predictive_means(fam, box.flavor, corners, corners, x)
    else:
        means = [predictive(fam, ConjugatePrior(fam, a, l, box.flavor), x)
                 for a, l in corners]
    return [mean_inverse(fam, pm) for pm in means]


def prgm_conjugate_box(fam: FamilySpec, box: PriorBox, x: float) -> EstimateReport:
    """Posterior-regret box-minimax estimate for a conjugate box.

    A jcp box gives the invariant estimate: each corner's predictive
    mean applies the Jeffreys shift, and the report carries method
    ``iprgm`` and the shift it used.
    """
    ests = _corner_bayes(fam, box, x)
    report = prgm_from_bounds(fam, min(ests), max(ests))
    diagnostics = {**report.diagnostics, "corner_estimates": sorted(ests)}
    if box.flavor == "standard":
        return replace(report, diagnostics=diagnostics)
    return replace(report, method=METHOD_IPRGM, diagnostics={
        **diagnostics, "jeffreys_shift": list(fam.jeffreys_shift)})


def iprgm_jcp_box(fam: FamilySpec, box: PriorBox, x: float) -> EstimateReport:
    """Box-minimax estimate within the sqrt-Fisher-corrected class: the
    one whose transported value stays minimax on any smooth one-to-one
    scale.  Refuses a standard box."""
    if box.flavor != "jcp":
        raise SpecificationError("iprgm_jcp_box needs a jcp-flavor box")
    return prgm_conjugate_box(fam, box, x)


# ---------------------------------------------------------------------------
# Reparameterizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reparameterization:
    """Smooth one-to-one map of the natural parameter.

    ``log_abs_deriv`` is log |d forward / d theta|: a plain conjugate
    class re-elicited on the transformed scale carries it as a Jacobian
    weight on the prior density.
    """

    label: str
    forward: Callable
    inverse: Callable
    log_abs_deriv: Callable


def _require_positive_support(fam: FamilySpec, label: str) -> None:
    if fam.support[0] < 0.0:
        raise SpecificationError(
            f"transform {label} needs a positive natural parameter; "
            f"family {fam.name} has support {fam.support}"
        )


def make_transform(spec: str, fam: FamilySpec) -> Reparameterization:
    """Build a catalog transform from its textual form.

    Catalog: ``reciprocal``, ``log``, ``neg_log_over_a(a)``,
    ``affine(a,b)``, ``logit_to_p``.  Maps that need a positive parameter
    are rejected for families whose support is not contained in (0, inf).
    """
    s = spec.strip().lower().replace(" ", "")
    if s == "reciprocal":
        _require_positive_support(fam, s)
        return Reparameterization(
            "reciprocal",
            forward=lambda th: 1.0 / th,
            inverse=lambda e: 1.0 / e,
            log_abs_deriv=lambda th: -2.0 * np.log(th),
        )
    m = (-1.0,) if s == "log" else _match_call(s, "neg_log_over_a", 1)
    if m is not None:
        (a,) = m
        if a == 0:
            raise SpecificationError("neg_log_over_a needs a != 0")
        _require_positive_support(fam, s)
        return Reparameterization(
            s if s == "log" else f"neg_log_over_a({a:g})",
            forward=lambda th: -np.log(th) / a,
            inverse=lambda e: np.exp(-a * e),
            log_abs_deriv=lambda th: -math.log(abs(a)) - np.log(th),
        )
    m = _match_call(s, "affine", 2)
    if m is not None:
        a, b = m
        if a == 0:
            raise SpecificationError("affine needs a != 0")
        return Reparameterization(
            f"affine({a:g},{b:g})",
            forward=lambda th: a * th + b,
            inverse=lambda e: (e - b) / a,
            log_abs_deriv=lambda th: math.log(abs(a)) + 0.0 * np.asarray(th),
        )
    if s == "logit_to_p":
        return Reparameterization(
            "logit_to_p",
            forward=lambda th: 1.0 / (1.0 + np.exp(th)),
            inverse=lambda p: np.log((1.0 - p) / p),
            log_abs_deriv=lambda th: -np.logaddexp(0.0, th) - np.logaddexp(0.0, -th),
        )
    raise SpecificationError(
        f"unknown transform {spec!r}; catalog: reciprocal, log, "
        "neg_log_over_a(a), affine(a,b), logit_to_p"
    )


def _match_call(s: str, name: str, n_args: int):
    if not (s.startswith(name + "(") and s.endswith(")")):
        return None
    inner = s[len(name) + 1:-1]
    parts = inner.split(",")
    if len(parts) != n_args:
        raise SpecificationError(
            f"transform {name} takes {n_args} argument(s), got {inner!r}"
        )
    try:
        args = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise SpecificationError(f"bad numeric argument in {s!r}") from exc
    if not all(map(math.isfinite, args)):
        raise SpecificationError(
            f"transform {name} needs finite arguments, got {inner!r}")
    return args


def validate_transform(tr: Reparameterization, fam: FamilySpec) -> list[str]:
    """Round-trip and strict monotonicity checks on the working grid."""
    grid = support_grid(fam)
    problems = []
    fwd = np.asarray(tr.forward(grid), dtype=float)
    if not (np.all(np.diff(fwd) > 0) or np.all(np.diff(fwd) < 0)):
        problems.append(f"{tr.label} is not strictly monotone on the grid")
    back = np.asarray(tr.inverse(fwd), dtype=float)
    if not np.allclose(back, grid, rtol=1e-10, atol=1e-10):
        problems.append(f"{tr.label} round-trip exceeds 1e-10 on the grid")
    return problems


def transport(report: EstimateReport, tr: Reparameterization) -> float:
    """Push an estimate through a reparameterization.

    Only estimates produced inside the sqrt-Fisher-corrected class carry
    the guarantee that the pushed value is itself the minimax (or Bayes)
    answer on the new scale; anything else gets a warning and the plain
    function value.  A value outside the float range is refused.
    """
    guaranteed = report.method == METHOD_IPRGM or (
        report.method == METHOD_BAYES
        and report.diagnostics.get("flavor") == "jcp"
    )
    if not guaranteed:
        warnings.warn(
            f"transporting a {report.method} estimate (flavor "
            f"{report.diagnostics.get('flavor', 'n/a')}) has no invariance "
            "guarantee; the value is h(estimate) only",
            stacklevel=2,
        )
    value = float(tr.forward(report.estimate))
    if not math.isfinite(value):
        raise DomainError(f"{tr.label} maps the estimate {report.estimate} to "
                          f"{value}, outside the float range")
    return value


# ---------------------------------------------------------------------------
# Direct transformed-scale computation (the independent invariance path)
# ---------------------------------------------------------------------------


def eta_scale_prgm(fam: FamilySpec, box: PriorBox, x: float,
                   tr: Reparameterization) -> EstimateReport:
    """Box-minimax estimate computed natively on the transformed scale.

    The intrinsic loss between transformed values is the theta-scale
    loss of the pulled-back points, so once the extreme Bayes estimates
    on the new scale are known the equalizer is found there as the root
    of the signed regret gap, never reusing the theta-scale ratio.  The
    ITP bracketing solver (``families._itp``) starts from the gap at the
    two extremes and stops at a bracket of 1e-15 times the scale; the
    diagnostics' ``solver`` entry counts every gap evaluation.

    For a ``jcp`` box the prior class is the same set of measures on
    either scale, so the extreme Bayes estimates are the transported
    corner estimates.  For a ``standard`` box the class re-elicited on
    the new scale carries the Jacobian of the map as an extra density
    factor, and the corner posterior means are integrated numerically.
    """
    predictive = None
    if box.flavor == "standard":
        predictive = partial(predictive_mean_quadrature,
                             extra_log_weight=tr.log_abs_deriv)
    theta_corners = _corner_bayes(fam, box, x, predictive)
    e_lo, e_hi = sorted(float(tr.forward(d)) for d in (min(theta_corners),
                                                       max(theta_corners)))
    t_lo, t_hi = float(tr.inverse(e_lo)), float(tr.inverse(e_hi))

    scale = max(1.0, abs(e_lo), abs(e_hi))
    if e_hi - e_lo < DEGENERATE_REL_WIDTH * scale:
        return EstimateReport(0.5 * (e_lo + e_hi), e_lo, e_hi, 0.0, METHOD_ROOT,
                              {"transform": tr.label, "degenerate": True})

    def gap(d: float) -> float:  # d is pulled back once
        theta = float(tr.inverse(d))
        return posterior_regret(fam, t_hi, theta) - posterior_regret(fam, t_lo, theta)

    g_lo, g_hi = gap(e_lo), gap(e_hi)
    if not g_lo >= 0 >= g_hi:
        raise ConvergenceError(
            f"regret gap lost its sign change on [{e_lo}, {e_hi}]; the mean "
            "function may not be strictly decreasing"
        )
    est, evaluations = _itp(gap, e_lo, e_hi, g_lo, g_hi, 1e-15 * scale)
    theta = float(tr.inverse(est))
    r_lo, r_hi = posterior_regret(fam, t_lo, theta), posterior_regret(fam, t_hi, theta)
    return EstimateReport(
        estimate=est,
        delta_lo=e_lo,
        delta_hi=e_hi,
        equalized_regret=0.5 * (r_lo + r_hi),
        method=METHOD_ROOT,
        diagnostics={"transform": tr.label, "residual": abs(r_lo - r_hi),
                     "degenerate": False,
                     "solver": {"method": "itp", "evaluations": 2 + evaluations}},
    )
