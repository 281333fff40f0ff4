"""Conjugate priors, prior boxes, mixtures, and posterior expectations.

A conjugate prior for a family with prior base ``base`` and statistic
``stat`` has unnormalized density

    base(theta)^alpha * exp(-lambda * theta)

on the family's support.  One observation multiplies in the likelihood,
adding ``obs_units`` to ``alpha`` and ``stat(x)`` to ``lambda``; the
posterior expectation of the mean function is then available in closed
form (integration by parts kills everything else):

    E[mean(theta) | x] = obs_units * (lambda + stat(x)) / (alpha + obs_units).

The ``jcp`` flavor multiplies the conjugate density by the square root
of the Fisher information.  When the family declares a Jeffreys shift
``(a, b)`` that is again conjugate with ``(alpha + a, lambda + b)``, so
every closed form above applies after shifting.

Everything here that is not closed-form (mixtures, the quadrature
cross-checks) runs on adaptive quadrature over the natural parameter,
with the integrand handled in log space so normalizers never overflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ProprietyError, SpecificationError
from .families import (
    FamilySpec,
    check_posterior_ok,
    check_prior_ok,
    support_grid,
)

__all__ = [
    "ConjugatePrior",
    "PriorBox",
    "MixturePath",
    "conjugate_prior",
    "to_standard",
    "posterior",
    "posterior_predictive_mean",
    "predictive_mean_quadrature",
    "mixture_predictive_mean",
    "mixture_components",
    "prior_is_proper",
]

FLAVORS = ("standard", "jcp")

# Quadrature tuning shared by every integral in this module.
QUAD_EPSABS = 1e-12
QUAD_EPSREL = 1e-10
QUAD_LIMIT = 200
_SCAN_POINTS = 1001
_SCAN_CAP = 60.0


@dataclass(frozen=True)
class ConjugatePrior:
    """Hyper-parameters of one conjugate (or Jeffreys-corrected) prior."""

    fam: FamilySpec
    alpha: float
    lam: float
    flavor: str = "standard"

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise SpecificationError(
                f"flavor must be one of {FLAVORS}, got {self.flavor!r}"
            )
        if not (math.isfinite(self.alpha) and math.isfinite(self.lam)):
            raise SpecificationError("hyper-parameters must be finite")


def conjugate_prior(fam: FamilySpec, alpha: float, lam: float,
                    flavor: str = "standard") -> ConjugatePrior:
    """Construct a prior, rejecting hyper-parameters that cannot work.

    The propriety predicate is evaluated on the standard-flavor
    equivalent; a ``jcp`` prior for a family with no declared shift is
    accepted with a warning because only quadrature can handle it.
    """
    prior = ConjugatePrior(fam, float(alpha), float(lam), flavor)
    a_eff, l_eff = _standard_params(prior, strict=False)
    if a_eff is not None:
        check_prior_ok(fam, a_eff, l_eff)
    else:
        warnings.warn(
            f"family {fam.name} declares no Jeffreys shift; jcp prior "
            "propriety cannot be pre-checked",
            stacklevel=2,
        )
    return prior


def _standard_params(prior: ConjugatePrior, strict: bool = True):
    """Standard-flavor (alpha, lambda) equivalent of a prior, or (None, None)."""
    if prior.flavor == "standard":
        return prior.alpha, prior.lam
    shift = prior.fam.jeffreys_shift
    if shift is None:
        if strict:
            raise SpecificationError(
                f"family {prior.fam.name} declares no Jeffreys shift; the jcp "
                "prior has no standard-flavor equivalent"
            )
        return None, None
    return prior.alpha + shift[0], prior.lam + shift[1]


def to_standard(prior: ConjugatePrior) -> ConjugatePrior:
    """Rewrite a jcp prior as the equivalent standard-flavor prior.

    Standard priors pass through unchanged.  Requires the family to
    declare its Jeffreys shift.
    """
    if prior.flavor == "standard":
        return prior
    a_eff, l_eff = _standard_params(prior, strict=True)
    return ConjugatePrior(prior.fam, a_eff, l_eff, "standard")


def posterior(fam: FamilySpec, prior: ConjugatePrior, x: float) -> ConjugatePrior:
    """Conjugate update after observing ``x``.

    Returns a standard-flavor prior with ``alpha + obs_units`` and
    ``lambda + stat(x)``; jcp priors are first routed through
    :func:`to_standard`.  Rejects updates whose posterior would be
    improper or lack a finite posterior mean of the mean function.
    """
    std = to_standard(prior)
    check_posterior_ok(fam, std.alpha, std.lam, float(x))
    return ConjugatePrior(
        fam,
        std.alpha + fam.obs_units,
        std.lam + float(fam.stat(x)),
        "standard",
    )


def posterior_predictive_mean(fam: FamilySpec, prior: ConjugatePrior, x: float) -> float:
    """Closed-form posterior expectation of the mean function.

    Equals the predictive expectation of the sufficient statistic of one
    fresh observation, ``obs_units * (lambda + stat(x)) / (alpha + obs_units)``
    in standard-flavor hyper-parameters.
    """
    std = to_standard(prior)
    r = float(fam.stat(x))
    check_posterior_ok(fam, std.alpha, std.lam, x)
    return fam.obs_units * (std.lam + r) / (std.alpha + fam.obs_units)


# ---------------------------------------------------------------------------
# Prior boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PriorBox:
    """Rectangle of conjugate hyper-parameters, possibly with flat edges.

    A degenerate edge (``alpha_lo == alpha_hi`` or ``lam_lo == lam_hi``)
    expresses the one-dimensional sub-classes where only the other
    hyper-parameter varies.
    """

    fam: FamilySpec
    alpha_lo: float
    alpha_hi: float
    lam_lo: float
    lam_hi: float
    flavor: str = "standard"

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise SpecificationError(
                f"flavor must be one of {FLAVORS}, got {self.flavor!r}"
            )
        vals = (self.alpha_lo, self.alpha_hi, self.lam_lo, self.lam_hi)
        if not all(math.isfinite(v) for v in vals):
            raise SpecificationError("box corners must be finite")
        if self.alpha_lo > self.alpha_hi or self.lam_lo > self.lam_hi:
            raise SpecificationError(
                "box needs alpha_lo <= alpha_hi and lam_lo <= lam_hi, got "
                f"alpha [{self.alpha_lo}, {self.alpha_hi}], "
                f"lam [{self.lam_lo}, {self.lam_hi}]"
            )

    def corners(self) -> list[tuple[float, float]]:
        return [
            (self.alpha_lo, self.lam_lo),
            (self.alpha_lo, self.lam_hi),
            (self.alpha_hi, self.lam_lo),
            (self.alpha_hi, self.lam_hi),
        ]

    def to_standard(self) -> PriorBox:
        """The same class of priors as a standard-flavor box.

        A jcp box moves by the family's Jeffreys shift, which must be
        declared; a standard box keeps its corners.
        """
        a_lo, l_lo = _standard_params(
            ConjugatePrior(self.fam, self.alpha_lo, self.lam_lo, self.flavor))
        a_hi, l_hi = _standard_params(
            ConjugatePrior(self.fam, self.alpha_hi, self.lam_hi, self.flavor))
        return PriorBox(self.fam, a_lo, a_hi, l_lo, l_hi, "standard")

    def is_point(self) -> bool:
        return self.alpha_lo == self.alpha_hi and self.lam_lo == self.lam_hi


def prior_box(fam: FamilySpec, alpha_lo: float, alpha_hi: float,
              lam_lo: float, lam_hi: float, flavor: str = "standard") -> PriorBox:
    """Construct a box after validating every corner's propriety."""
    box = PriorBox(fam, float(alpha_lo), float(alpha_hi), float(lam_lo),
                   float(lam_hi), flavor)
    for a, l in box.corners():
        conjugate_prior(fam, a, l, flavor)
    return box


__all__.append("prior_box")


# ---------------------------------------------------------------------------
# Mixtures of two priors
# ---------------------------------------------------------------------------


def prior_is_proper(fam: FamilySpec, alpha: float, lam: float) -> bool:
    """Whether the standard-flavor prior itself (no data) is integrable.

    Stricter than the usability predicate: a flat normal prior has
    proper posteriors but is not itself a distribution, so it cannot be
    a mixture component.
    """
    name = fam.name
    if name == "normal_mean_unitvar":
        return alpha > 0.0
    if name == "exponential_rate":
        return alpha > -1.0 and lam > 0.0
    if name.startswith("binomial_logit"):
        return 0.0 < lam < alpha
    if name == "poisson_neglograte":
        return alpha > 0.0 and lam > 0.0
    return False  # unknown family: the caller must go through quadrature


@dataclass(frozen=True)
class MixturePath:
    """Segment of two-point mixtures t*p0 + (1-t)*p1, t in [0, 1].

    Both components must be proper distributions over the same family,
    otherwise the mixture weights are meaningless.
    """

    p0: ConjugatePrior
    p1: ConjugatePrior

    def __post_init__(self):
        if self.p0.fam.name != self.p1.fam.name:
            raise SpecificationError(
                "mixture components must share one family, got "
                f"{self.p0.fam.name} and {self.p1.fam.name}"
            )
        for tag, p in (("p0", self.p0), ("p1", self.p1)):
            a_eff, l_eff = _standard_params(p, strict=True)
            if not prior_is_proper(p.fam, a_eff, l_eff):
                raise ProprietyError(
                    f"mixture component {tag} (alpha={p.alpha}, lam={p.lam}, "
                    f"flavor={p.flavor}) is not a proper distribution for "
                    f"{p.fam.name}"
                )


# ---------------------------------------------------------------------------
# Quadrature layer
# ---------------------------------------------------------------------------


def _quad_piece(f, lo: float, hi: float) -> tuple[float, float]:
    from scipy import integrate  # lazy import: cold start stays scipy-free

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        val, err = integrate.quad(
            f, lo, hi, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=QUAD_LIMIT
        )
    return val, err


def _quad_split(f, lo: float, hi: float, mid: float) -> float:
    """Adaptive quadrature split at an interior peak location."""
    mid = min(max(mid, lo), hi)
    total, err_total = 0.0, 0.0
    pieces = [(lo, mid), (mid, hi)] if lo < mid < hi else [(lo, hi)]
    for a, b in pieces:
        val, err = _quad_piece(f, a, b)
        total += val
        err_total += err
    tol = max(1e-8 * abs(total), 1e-9)
    if err_total > tol:
        raise ConvergenceError(
            f"quadrature error estimate {err_total:.3e} exceeds {tol:.3e}; "
            "the integrand is too wild or the prior is effectively improper"
        )
    return total


# exp() underflows to 0.0 below roughly -745; a log weight under this
# floor is an exact float zero no matter what bounded-growth factor it
# multiplies, so the factor must not be evaluated there (it may overflow
# in tail regions the posterior has already left, e.g. exp(-theta)
# means on an unbounded support).
_LOG_FLOOR = -745.0


def _weighted_integrand(logf, shift: float, factor=None):
    """Scalar integrand exp(logf(th) - shift) * factor(th), tail-safe."""

    def f(th: float) -> float:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            lv = float(logf(th)) - shift
            if not lv > _LOG_FLOOR:  # nan, -inf, or deep underflow
                return 0.0
            v = math.exp(lv)
            if factor is not None:
                v *= float(factor(th))
        return v

    return f


def _log_weight(fam: FamilySpec, prior: ConjugatePrior):
    """Log unnormalized prior density, vectorized over theta."""

    def logw(th):
        th = np.asarray(th, dtype=float)
        v = prior.alpha * np.asarray(fam.log_prior_base(th)) - prior.lam * th
        if prior.flavor == "jcp":
            info = -np.asarray(fam.mean_deriv(th), dtype=float)
            v = v + 0.5 * np.log(info)
        return v

    return logw


def _log_posterior_integrand(fam: FamilySpec, prior: ConjugatePrior, x: float):
    """Log of (likelihood shape) * (unnormalized prior), vectorized."""
    r = float(fam.stat(x))
    logw = _log_weight(fam, prior)

    def logf(th):
        th = np.asarray(th, dtype=float)
        return np.asarray(fam.log_norm(th)) - th * r + logw(th)

    return logf


def _peak(fam: FamilySpec, logf) -> tuple[float, float]:
    """Coarse scan for the integrand's peak: (argmax, max log value)."""
    grid = support_grid(fam, n=_SCAN_POINTS, cap=_SCAN_CAP)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(logf(grid), dtype=float)
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    k = int(np.argmax(vals))
    if not math.isfinite(vals[k]):
        raise ConvergenceError("prior integrand is nowhere finite on the scan grid")
    return float(grid[k]), float(vals[k])


def _peak_integrals(fam: FamilySpec, logf, *factors):
    """Integrals of exp(logf - m) * factor over the support, one per factor.

    A factor of None integrates the plain density.  ``m`` is the scanned
    peak of logf, and each integral is split at the peak's location.
    Returns ``(mode, m, values)``; m cancels in any ratio of the values.
    """
    mode, m = _peak(fam, logf)
    lo, hi = fam.support
    values = [_quad_split(_weighted_integrand(logf, m, f), lo, hi, mode)
              for f in factors]
    return mode, m, values


def predictive_mean_quadrature(fam: FamilySpec, prior: ConjugatePrior, x: float,
                               extra_log_weight=None) -> float:
    """Posterior expectation of the mean function by adaptive quadrature.

    Independent of every closed form above: it integrates the actual
    posterior density (including the sqrt-Fisher factor for jcp priors).
    ``extra_log_weight`` multiplies one more density factor in, e.g. the
    Jacobian of a reparameterization when a conjugate class is
    re-elicited on a transformed scale.
    """
    base_logf = _log_posterior_integrand(fam, prior, x)
    if extra_log_weight is None:
        logf = base_logf
    else:
        def logf(th):
            return np.asarray(base_logf(th)) + np.asarray(extra_log_weight(th))
    _, _, (den, num) = _peak_integrals(fam, logf, None, fam.mean)
    if den <= 0 or not math.isfinite(den):
        raise ConvergenceError(
            f"posterior normalizer failed for {fam.name} at x={x}"
        )
    return num / den


def _log_prior_normalizer(fam: FamilySpec, prior: ConjugatePrior) -> float:
    _, m, (z,) = _peak_integrals(fam, _log_weight(fam, prior), None)
    if z <= 0 or not math.isfinite(z):
        raise ProprietyError(
            f"prior (alpha={prior.alpha}, lam={prior.lam}, {prior.flavor}) has "
            f"no finite normalizer for {fam.name}"
        )
    return m + math.log(z)


def mixture_components(fam: FamilySpec, path: MixturePath, x: float):
    """Per-component integrals feeding the mixture posterior mean.

    For each normalized component density p_i returns
    ``A_i = ∫ mean * likelihood * p_i`` and ``B_i = ∫ likelihood * p_i``
    (both up to one common factor constant in i, which cancels in the
    mixture ratio).
    """
    out = []
    for p in (path.p0, path.p1):
        log_z = _log_prior_normalizer(fam, p)
        logf = _log_posterior_integrand(fam, p, x)
        _, m, (den, num) = _peak_integrals(fam, logf, None, fam.mean)
        scale = math.exp(m - log_z)
        out.append((num * scale, den * scale))
    (a0, b0), (a1, b1) = out
    return a0, b0, a1, b1


def mixture_predictive_mean(fam: FamilySpec, path: MixturePath, x: float,
                            t: float) -> float:
    """Posterior expectation of the mean function under t*p0 + (1-t)*p1.

    At t=0 and t=1 this collapses to the single-component value; in
    between it is a continuous rational function of t.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"mixture weight t={t} must lie in [0, 1]")
    a0, b0, a1, b1 = mixture_components(fam, path, x)
    num = t * a0 + (1.0 - t) * a1
    den = t * b0 + (1.0 - t) * b1
    if den <= 0 or not math.isfinite(den):
        raise ConvergenceError("mixture marginal likelihood is not positive")
    return num / den
