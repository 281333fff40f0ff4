"""Certificates that a box-minimax action is Bayes for some prior.

Three witness constructions, in increasing strength:

* mixture: between two proper priors whose Bayes actions straddle the
  target, some two-point mixture reproduces it.  The mixture posterior
  mean of the mean function is a ratio of affine functions of the
  weight, so the weight solves a linear equation.
* path: along the straight hyper-parameter segment joining the two
  extreme corners of a box, some intermediate prior reproduces it.  The
  posterior predictive mean obs_units*(lambda + stat(x))/(alpha +
  obs_units) is a ratio of affine functions of the position on the
  segment, so the position solves a linear equation too.
* data_independent: for boxes where only alpha varies, the path witness
  lands at the same alpha for every observation, i.e. one single prior
  is simultaneously Bayes for the whole estimator, not just pointwise.
  The spread over an observation grid is reported, not assumed zero:
  for some families it genuinely is not constant.

Each certificate records the witness, the reproduction residual on the
estimate scale (from the witness's own Bayes action, re-derived through
``bayes_estimate`` or ``mean_inverse``), and (when applicable) the
constancy spread.

The path witness takes its corner Bayes actions from the estimators'
own corner sweep (``estimators._corner_bayes``), a jcp box is shifted
only by ``priors._jeffreys_shift``, and every integral goes through the one
quadrature routine in ``priors``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import DomainError, SpecificationError
from .estimators import _corner_bayes, bayes_estimate, prgm_conjugate_box
from .families import FamilySpec, _observed_stat, mean_inverse, np, require_in_support
from .priors import (
    ConjugatePrior,
    MixturePath,
    PriorBox,
    mixture_components,
)

__all__ = [
    "BayesianityCertificate",
    "mixture_witness",
    "connected_path_witness",
    "data_independent_alpha",
    "data_independent_alpha_normal",
    "data_independent_alpha_exponential",
    "data_independent_alpha_exponential_jcp",
]

BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class BayesianityCertificate:
    kind: str  # mixture | path | data_independent | boundary
    witness: dict
    residual: float
    constancy_spread: float | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def mixture_witness(fam: FamilySpec, path: MixturePath, x: float,
                    target_estimate: float) -> BayesianityCertificate:
    """Mixture weight whose posterior reproduces the target action.

    Requires the two component Bayes actions to straddle the target.
    The mixture posterior mean of the mean function is a ratio of
    affine functions of the weight, so once the four component integrals
    are known the weight is the root of a linear equation.
    """
    require_in_support(fam, target_estimate, what="target_estimate")
    target_mean = float(fam.mean(target_estimate))
    a0, b0, a1, b1 = mixture_components(fam, path, x)

    def psi(t: float) -> float:
        return (t * a0 + (1.0 - t) * a1) / (t * b0 + (1.0 - t) * b1)

    scale = max(1.0, abs(target_mean))
    g0, g1 = psi(0.0) - target_mean, psi(1.0) - target_mean
    if abs(g0) <= BOUNDARY_TOL * scale or abs(g1) <= BOUNDARY_TOL * scale:
        t_star = 0.0 if abs(g0) <= abs(g1) else 1.0
        kind = "boundary"
    elif g0 * g1 > 0:
        raise DomainError(
            "component Bayes actions do not straddle the target estimate; "
            f"psi endpoints {psi(0.0):.6g}, {psi(1.0):.6g} vs target mean "
            f"{target_mean:.6g}"
        )
    else:
        # psi(t) = target_mean cleared of its denominator; its two end
        # values have opposite signs, so their difference does not cancel.
        f0, f1 = a1 - target_mean * b1, a0 - target_mean * b0
        t_star = f0 / (f0 - f1)
        kind = "mixture"

    reproduced = mean_inverse(fam, psi(t_star))
    return BayesianityCertificate(
        kind=kind,
        witness={"t": t_star},
        residual=abs(reproduced - target_estimate),
    )


def connected_path_witness(fam: FamilySpec, box: PriorBox, x: float,
                           target_estimate: float) -> BayesianityCertificate:
    """Hyper-parameter point on a straight corner-to-corner segment whose
    Bayes action reproduces the target.

    The segment joins the corners attaining the smallest and largest
    Bayes actions, so any target in between is crossed by continuity.
    Targets that coincide with an extreme get a boundary certificate.
    The witness is where an affine function of the position vanishes:
    the predictive mean minus mean(target), cleared of its denominator.
    """
    require_in_support(fam, target_estimate, what="target_estimate")
    corners = box.corners()
    ests = _corner_bayes(fam, box, x)
    i_min = min(range(len(ests)), key=ests.__getitem__)  # the first, on ties
    i_max = max(range(len(ests)), key=ests.__getitem__)
    e_min, e_max = ests[i_min], ests[i_max]
    scale = max(1.0, abs(target_estimate))

    pick = min((i_min, i_max), key=lambda i: abs(target_estimate - ests[i]))
    if abs(target_estimate - ests[pick]) <= BOUNDARY_TOL * scale:
        a, l = corners[pick]
        return BayesianityCertificate(
            kind="boundary",
            witness={"alpha": a, "lam": l},
            residual=abs(ests[pick] - target_estimate),
        )
    if not e_min < target_estimate < e_max:
        raise DomainError(
            f"target estimate {target_estimate} lies outside the Bayes range "
            f"[{e_min}, {e_max}] of the box"
        )

    u, r = fam.obs_units, _observed_stat(fam, x)
    target_mean = float(fam.mean(target_estimate))
    std = box.to_standard().corners()
    f0, f1 = (u * (l + r) - target_mean * (a + u)
              for a, l in (std[i_min], std[i_max]))
    s_star = f0 / (f0 - f1)
    (a0, l0), (a1, l1) = corners[i_min], corners[i_max]
    a_star = (1.0 - s_star) * a0 + s_star * a1
    l_star = (1.0 - s_star) * l0 + s_star * l1
    witness_prior = ConjugatePrior(fam, a_star, l_star, box.flavor)
    return BayesianityCertificate(
        kind="path",
        witness={"alpha": a_star, "lam": l_star},
        residual=abs(bayes_estimate(fam, witness_prior, x).estimate - target_estimate),
    )


def data_independent_alpha(fam: FamilySpec, box: PriorBox,
                           x_grid) -> BayesianityCertificate:
    """Per-observation path witnesses for an alpha-only box, with spread.

    The box must have a degenerate lambda edge.  For every observation
    the box-minimax action is computed and its witness alpha found; the
    certificate reports the mean witness alpha, the worst reproduction
    residual, and the spread max(alpha) - min(alpha) over the grid.  A
    tiny spread means one single prior is Bayes for the whole estimator.
    """
    if box.lam_lo != box.lam_hi:
        raise SpecificationError(
            "data_independent_alpha needs a box whose lambda edge is "
            "degenerate (only alpha varies)"
        )
    alphas, residuals = [], []
    for x in x_grid:
        x = float(x)
        report = prgm_conjugate_box(fam, box, x)
        if report.diagnostics["degenerate"]:
            # Every prior in the box gives the same action at this x, so
            # any alpha is a witness; such observations carry no
            # constancy information and would poison the statistic.
            continue
        cert = connected_path_witness(fam, box, x, report.estimate)
        alphas.append(cert.witness["alpha"])
        residuals.append(cert.residual)
    if not alphas:
        raise DomainError(
            "every observation in the grid collapses the box to a single "
            "Bayes action; the witness alpha is undetermined"
        )
    alphas = np.asarray(alphas)
    return BayesianityCertificate(
        kind="data_independent",
        witness={"alpha": float(np.mean(alphas)), "lam": box.lam_lo},
        residual=float(np.max(residuals)),
        constancy_spread=float(np.max(alphas) - np.min(alphas)),
    )


# Closed forms for the alpha-only witnesses that happen to be exactly
# data-independent.  Both arguments are the alpha edge of the box.

def data_independent_alpha_normal(a1: float, a2: float) -> float:
    """Normal location: the witness solves a harmonic-mean equation."""
    return (a1 + a2 + 2.0 * a1 * a2) / (a1 + a2 + 2.0)


def data_independent_alpha_exponential(a1: float, a2: float) -> float:
    """Exponential rate, plain conjugate class."""
    if a1 == a2:
        return a1
    return ((a1 + 1.0) * (a2 + 1.0) / (a1 - a2)) * math.log(
        (a1 + 1.0) / (a2 + 1.0)
    ) - 1.0


def data_independent_alpha_exponential_jcp(a1: float, a2: float) -> float:
    """Exponential rate, sqrt-Fisher-corrected class.

    The reciprocal of the witness is the logarithmic mean of the
    reciprocals of the edge alphas.
    """
    if a1 == a2:
        return a1
    return (a1 * a2 / (a1 - a2)) * math.log(a1 / a2)
