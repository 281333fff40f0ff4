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
against an independent solver.  The closed-form corner Bayes estimates
all come from ``_corner_bayes``; only a standard box re-elicited on a
transformed scale integrates its corners, in ``eta_scale_prgm``.

A ``jcp`` box is solved as its standard-flavor equivalent; the Jeffreys
shift is read in one place, ``priors._jeffreys_shift``.  That flavor
earns its keep here: the class of sqrt-Fisher-corrected conjugate priors
is the same set of measures in every smooth one-to-one
reparameterization, so the box-minimax estimate of ``h(theta)`` is ``h``
of the box-minimax estimate of ``theta``.  Plain conjugate boxes
re-elicited on a transformed scale are a different class of measures,
and their minimax estimate genuinely moves.
"""

from __future__ import annotations

import functools
import math
import re
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

from .errors import ConvergenceError, DomainError, SpecificationError
from .families import (
    FamilySpec,
    _itp,
    mean_inverse,
    np,
    require_in_support,
    support_grid,
)
from .losses import _float_loss
from .priors import (
    ConjugatePrior,
    PriorBox,
    _jeffreys_shift,
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
    module docstring; collapsed bounds return the midpoint.  The bounds
    are checked once, here, and ``_equalize`` takes the four losses on
    the float path unchecked: the estimate lies between the bounds.
    """
    d_lo, d_hi = float(d_lo), float(d_hi)
    require_in_support(fam, d_lo, what="delta_lo")
    require_in_support(fam, d_hi, what="delta_hi")
    if d_lo > d_hi:
        raise DomainError(f"need delta_lo <= delta_hi, got {d_lo} > {d_hi}")
    return _equalize(fam, d_lo, d_hi)


def _equalize(fam: FamilySpec, d_lo: float, d_hi: float) -> EstimateReport:
    """``prgm_from_bounds`` on float bounds ``d_lo <= d_hi`` already known
    to lie inside the support, such as mean inverses; checks nothing."""
    scale = max(1.0, abs(d_lo), abs(d_hi))
    if d_hi - d_lo < DEGENERATE_REL_WIDTH * scale:
        return EstimateReport(_midpoint(d_lo, d_hi), d_lo, d_hi, 0.0, METHOD_CLOSED,
                              {"degenerate": True, "residual": 0.0})

    down, up = _float_loss(fam, d_hi, d_lo), _float_loss(fam, d_lo, d_hi)
    total = down + up
    if not 0.0 < total < math.inf:
        raise DomainError(
            f"the regrets on [{d_lo}, {d_hi}] for {fam.name} sum to {total}, "
            "outside the float range; these bounds cannot be resolved")
    width = d_hi - d_lo
    est = min(d_lo + width * (down / total), d_hi)  # not an ulp past d_hi
    r_lo, r_hi = _float_loss(fam, d_lo, est), _float_loss(fam, d_hi, est)
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


def _midpoint(lo: float, hi: float) -> float:
    """``0.5*(lo + hi)``, or the sum of the halves where that sum overflows:
    finite for finite ends."""
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else 0.5 * lo + 0.5 * hi


def _corner_bayes(fam: FamilySpec, box: PriorBox, x: float) -> list[float]:
    """Bayes estimates at the four hyper-parameter corners.

    The posterior predictive mean is monotone in lambda for fixed alpha
    and monotone in alpha for fixed lambda, so its extremes over the box
    (hence the extreme Bayes estimates) land on corners.  Which corner
    wins depends on the sign of lambda + stat(x); taking the min and max
    over all four sidesteps that case split.  The corners' closed-form
    posterior means come from one pass over the box,
    ``priors._predictive_means``.
    """
    require_same_family(fam, box.fam, "box")
    corners = box.corners()
    means = _predictive_means(fam, box.flavor, corners, corners, x)
    return [mean_inverse(fam, pm) for pm in means]


def prgm_conjugate_box(fam: FamilySpec, box: PriorBox, x: float) -> EstimateReport:
    """Posterior-regret box-minimax estimate for a conjugate box.

    A jcp box gives the invariant estimate: each corner's predictive
    mean applies the Jeffreys shift, and the report carries method
    ``iprgm`` and the shift it used.
    """
    ests = _corner_bayes(fam, box, x)  # each checked by mean_inverse
    report = _equalize(fam, min(ests), max(ests))
    diagnostics = {**report.diagnostics, "corner_estimates": sorted(ests)}
    if box.flavor == "standard":
        return replace(report, diagnostics=diagnostics)
    return replace(report, method=METHOD_IPRGM, diagnostics={
        **diagnostics, "jeffreys_shift": list(_jeffreys_shift(fam))})


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
    weight on the prior density.  A catalog map is an ``Expression`` pair,
    and its ``log_abs_deriv`` is derived from ``forward``, never written.
    """

    label: str
    forward: Callable
    inverse: Callable
    log_abs_deriv: Callable


# name: (arguments, forward in theta, inverse in eta, needs theta > 0).  The
# arguments enter both expressions as literals; the first is a scale, never 0.
_CATALOG = {
    "reciprocal": ((), "1/theta", "1/eta", True),
    "log": ((), "log(theta)", "exp(eta)", True),
    "neg_log_over_a": (("a",), "-log(theta)/a", "exp(-a*eta)", True),
    "affine": (("a", "b"), "a*theta + b", "(eta - b)/a", False),
    "logit_to_p": ((), "1/(1 + exp(theta))", "log((1 - eta)/eta)", False),
}


def make_transform(spec: str, fam: FamilySpec) -> Reparameterization:
    """Build a catalog transform from its textual form.

    Catalog: ``reciprocal``, ``log``, ``neg_log_over_a(a)``,
    ``affine(a,b)``, ``logit_to_p``.  Maps that need a positive parameter
    are rejected for families whose support is not contained in (0, inf).
    """
    s = spec.strip().lower().replace(" ", "")
    m = re.fullmatch(r"(\w+)(?:\((.*)\))?", s)
    entry = _CATALOG.get(m[1]) if m else None
    if entry is None or (m[2] is None) != (not entry[0]):
        raise SpecificationError(
            f"unknown transform {spec!r}; catalog: reciprocal, log, "
            "neg_log_over_a(a), affine(a,b), logit_to_p"
        )
    tr = _catalog_transform(s, m[1], m[2])
    if entry[3] and fam.support[0] < 0.0:
        raise SpecificationError(
            f"transform {s} needs a positive natural parameter; "
            f"family {fam.name} has support {fam.support}"
        )
    return tr


@functools.lru_cache(maxsize=64)
def _catalog_transform(s: str, name: str, inner: str | None) -> Reparameterization:
    """Catalog map ``name`` at the arguments ``inner``, built once per spec ``s``."""
    from .expressions import Expression, _derivative, _log_abs, parse_expression

    params, forward, inverse, _ = _CATALOG[name]
    args = inner.split(",") if params else []
    if len(args) != len(params):
        raise SpecificationError(
            f"transform {name} takes {len(params)} argument(s), got {inner!r}")
    try:
        args = [float(v) for v in args]
    except ValueError as exc:
        raise SpecificationError(f"bad numeric argument in {s!r}") from exc
    if not all(map(math.isfinite, args)):
        raise SpecificationError(f"transform {name} needs finite arguments, got {inner!r}")
    if args and args[0] == 0.0:
        raise SpecificationError(f"{name} needs a != 0")
    literals = dict(zip(params, args))
    fwd = parse_expression(forward, "theta", literals)
    inv = parse_expression(inverse, "eta", literals)
    jacobian = Expression(f"log|d/dtheta({forward})|",
                          _log_abs(_derivative(fwd._ast, "theta")), "theta")
    label = f"{name}({','.join(f'{v:g}' for v in args)})" if args else name
    return Reparameterization(label, fwd, inv, jacobian)


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
    two extremes and stops at a bracket of 1e-15 times the larger |extreme|
    (one ulp of it if more), with no absolute floor; extremes within 1e-10
    of it give the midpoint.  An extreme that the map sends outside the
    float range, or cannot pull back into the support, is refused with a
    DomainError.
    The diagnostics' ``solver`` entry counts every gap evaluation.

    For a ``jcp`` box the prior class is the same set of measures on
    either scale, so the extreme Bayes estimates are the transported
    corner estimates.  For a ``standard`` box the class re-elicited on
    the new scale carries the Jacobian of the map as an extra density
    factor, and the corner posterior means are integrated numerically.
    """
    if box.flavor == "standard":
        require_same_family(fam, box.fam, "box")
        means = [predictive_mean_quadrature(fam, ConjugatePrior(fam, a, l), x,
                                            tr.log_abs_deriv) for a, l in box.corners()]
        theta_corners = [mean_inverse(fam, pm) for pm in means]
    else:
        theta_corners = _corner_bayes(fam, box, x)
    extremes = sorted((float(tr.forward(d)), d) for d in (min(theta_corners),
                                                          max(theta_corners)))
    with np.errstate(all="ignore"):  # an extreme the map cannot pull back is refused
        pulled = [float(tr.inverse(e)) for e, _ in extremes]
    lo, hi = fam.support
    for (e, d), t in zip(extremes, pulled):
        if not math.isfinite(e):
            raise DomainError(f"{tr.label} maps the extreme Bayes estimate {d} to "
                              f"{e}, outside the float range")
        if not lo < t < hi:
            raise DomainError(
                f"{tr.label} maps the extreme Bayes estimate {d} to {e}, which it "
                f"pulls back to {t}, outside the open support ({lo}, {hi}) of "
                f"family {fam.name}")
    (e_lo, _), (e_hi, _) = extremes
    t_lo, t_hi = pulled

    scale = max(abs(e_lo), abs(e_hi))
    if e_hi - e_lo <= DEGENERATE_REL_WIDTH * scale:
        return EstimateReport(_midpoint(e_lo, e_hi), e_lo, e_hi, 0.0, METHOD_ROOT,
                              {"transform": tr.label, "degenerate": True})

    def gap(d: float) -> float:  # d is pulled back, and checked, once
        theta = float(tr.inverse(d))
        require_in_support(fam, theta, what="pulled-back action")
        return _float_loss(fam, t_hi, theta) - _float_loss(fam, t_lo, theta)

    g_lo, g_hi = gap(e_lo), gap(e_hi)
    if not g_lo >= 0 >= g_hi:
        raise ConvergenceError(
            f"regret gap lost its sign change on [{e_lo}, {e_hi}]; the mean "
            "function may not be strictly decreasing"
        )
    # one ulp at least: 1e-15 of a subnormal scale may round to 0
    width = max(1e-15 * scale, math.ulp(scale))
    est, evaluations = _itp(gap, e_lo, e_hi, g_lo, g_hi, width)
    theta = float(tr.inverse(est))
    require_in_support(fam, theta, what="pulled-back action")
    r_lo, r_hi = _float_loss(fam, t_lo, theta), _float_loss(fam, t_hi, theta)
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
