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

from .errors import ConvergenceError, ProprietyError, SpecificationError
from .families import (
    FamilySpec,
    check_observation,
    check_posterior_ok,
    check_prior_ok,
    interval_grid,
)

__all__ = [
    "ConjugatePrior",
    "PriorBox",
    "MixturePath",
    "conjugate_prior",
    "to_standard",
    "posterior_predictive_mean",
    "prior_box",
    "predictive_mean_quadrature",
    "mixture_components",
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
    if flavor == "jcp" and fam.jeffreys_shift is None:
        warnings.warn(
            f"family {fam.name} declares no Jeffreys shift; jcp prior "
            "propriety cannot be pre-checked",
            stacklevel=2,
        )
    else:
        std = to_standard(prior)
        check_prior_ok(fam, std.alpha, std.lam)
    return prior


def to_standard(prior: ConjugatePrior) -> ConjugatePrior:
    """Rewrite a jcp prior as the equivalent standard-flavor prior.

    Standard priors pass through unchanged.  Requires the family to
    declare its Jeffreys shift.  This is the one place the shift is
    applied; boxes and mixtures shift through it too.
    """
    if prior.flavor == "standard":
        return prior
    shift = prior.fam.jeffreys_shift
    if shift is None:
        raise SpecificationError(
            f"family {prior.fam.name} declares no Jeffreys shift; the jcp "
            "prior has no standard-flavor equivalent"
        )
    return ConjugatePrior(prior.fam, prior.alpha + shift[0],
                          prior.lam + shift[1], "standard")


def posterior_predictive_mean(fam: FamilySpec, prior: ConjugatePrior, x: float) -> float:
    """Closed-form posterior expectation of the mean function.

    The conjugate update takes the standard-flavor ``(alpha, lambda)`` to
    ``(alpha + obs_units, lambda + stat(x))``; the result is the predictive
    expectation of the sufficient statistic of one fresh observation,
    ``obs_units * (lambda + stat(x)) / (alpha + obs_units)``.  Rejects
    updates whose posterior would be improper.
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
        lo = to_standard(
            ConjugatePrior(self.fam, self.alpha_lo, self.lam_lo, self.flavor))
        hi = to_standard(
            ConjugatePrior(self.fam, self.alpha_hi, self.lam_hi, self.flavor))
        return PriorBox(self.fam, lo.alpha, hi.alpha, lo.lam, hi.lam, "standard")


def prior_box(fam: FamilySpec, alpha_lo: float, alpha_hi: float,
              lam_lo: float, lam_hi: float, flavor: str = "standard") -> PriorBox:
    """Construct a box after validating every corner's propriety on its
    standard-flavor equivalent."""
    box = PriorBox(fam, float(alpha_lo), float(alpha_hi), float(lam_lo),
                   float(lam_hi), flavor)
    if flavor == "jcp" and fam.jeffreys_shift is None:
        conjugate_prior(fam, alpha_lo, lam_lo, flavor)  # warns: no pre-check
    else:
        for a, l in box.to_standard().corners():
            check_prior_ok(fam, a, l)
    return box


# ---------------------------------------------------------------------------
# Mixtures of two priors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixturePath:
    """Segment of two-point mixtures t*p0 + (1-t)*p1, t in [0, 1].

    Both components must be proper distributions over the same family,
    otherwise the mixture weights are meaningless.  A family without
    ``prior_proper`` (a custom one) has no proper prior here; a flat
    normal prior has proper posteriors but is not itself a distribution.
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
            std = to_standard(p)
            proper = p.fam.prior_proper
            if proper is None or not proper(std.alpha, std.lam):
                raise ProprietyError(
                    f"mixture component {tag} (alpha={p.alpha}, lam={p.lam}, "
                    f"flavor={p.flavor}) is not a proper distribution for "
                    f"{p.fam.name}"
                )


# ---------------------------------------------------------------------------
# Quadrature layer
# ---------------------------------------------------------------------------


def _quad_split(f, lo: float, hi: float, mid: float) -> float:
    """Adaptive quadrature split at an interior peak location.

    The one quadrature routine of the package: every integral goes
    through it, and its summed error estimate is checked here.
    """
    from scipy import integrate  # lazy import: cold start stays scipy-free

    mid = min(max(mid, lo), hi)
    total, err_total = 0.0, 0.0
    pieces = [(lo, mid), (mid, hi)] if lo < mid < hi else [(lo, hi)]
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore",
                                                divide="ignore"):
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        for a, b in pieces:
            val, err = integrate.quad(f, a, b, epsabs=QUAD_EPSABS,
                                      epsrel=QUAD_EPSREL, limit=QUAD_LIMIT)
            total += val
            err_total += err
    tol = max(1e-8 * abs(total), 1e-9)
    if err_total > tol:
        raise ConvergenceError(
            f"quadrature error estimate {err_total:.3e} exceeds the "
            f"tolerance {tol:.3e} on [{lo}, {hi}]"
        )
    return total


# exp() underflows to 0.0 below roughly -745; a log weight under this
# floor is an exact float zero no matter what bounded-growth factor it
# multiplies, so the factor must not be evaluated there (it may overflow
# in tail regions the posterior has already left, e.g. exp(-theta)
# means on an unbounded support).
_LOG_FLOOR = -745.0


def _weighted_integrand(logf, shift: float, factor=None):
    """Scalar integrand exp(logf(th) - shift) * factor(th), tail-safe.
    ``_quad_split`` holds the floating-point error state around its calls."""

    def f(th: float) -> float:
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
        th = th if isinstance(th, float) else np.asarray(th, dtype=float)
        v = prior.alpha * fam.log_prior_base(th) - prior.lam * th
        if prior.flavor == "jcp":
            v = v + 0.5 * np.log(-fam.mean_deriv(th))
        return v

    return logw


def _log_posterior_integrand(fam: FamilySpec, prior: ConjugatePrior, x: float):
    """Log of (likelihood shape) * (unnormalized prior), vectorized."""
    check_observation(fam, x)
    r = float(fam.stat(x))
    logw = _log_weight(fam, prior)

    def logf(th):
        th = th if isinstance(th, float) else np.asarray(th, dtype=float)
        return fam.log_norm(th) - th * r + logw(th)

    return logf


def _peak(logf, lo: float, hi: float) -> tuple[float, float]:
    """Coarse scan for the integrand's peak on (lo, hi): (argmax, max log).

    Infinite ends are cut at +-_SCAN_CAP.  While the peak sits on a cut
    edge the cut grows sixteenfold (while under 1e9); the grid cells
    around a peak found that way are then rescanned twice.
    """
    cap, zooms = _SCAN_CAP, 0
    grid = interval_grid(lo, hi, _SCAN_POINTS, cap)
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(logf(grid), dtype=float)
        vals = np.where(np.isfinite(vals), vals, -np.inf)
        k = int(np.argmax(vals))
        if not math.isfinite(vals[k]):
            raise ConvergenceError("integrand is nowhere finite on the scan grid")
        on_cut = (k == 0 and lo == -math.inf) or (k == grid.size - 1 and hi == math.inf)
        if on_cut and zooms == 0 and cap < 1e9:
            cap *= 16.0
            grid = interval_grid(lo, hi, _SCAN_POINTS, cap)
        elif cap > _SCAN_CAP and zooms < 2:
            zooms += 1
            grid = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)],
                               _SCAN_POINTS)
        else:
            return float(grid[k]), float(vals[k])


def _peak_integrals(logf, lo: float, hi: float, *factors):
    """Integrals of exp(logf - m) * factor over (lo, hi), one per factor.

    A factor of None integrates the plain density.  ``m`` is the scanned
    peak of logf, and each integral is split at the peak's location.
    Returns ``(mode, m, values)``; m cancels in any ratio of the values.
    """
    mode, m = _peak(logf, lo, hi)
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
    re-elicited on a transformed scale.  An integrand that grows like
    distance^p, p <= -1, at a finite support end raises ProprietyError.
    """
    base_logf = _log_posterior_integrand(fam, prior, x)
    if extra_log_weight is None:
        logf = base_logf
    else:
        def logf(th):
            return base_logf(th) + extra_log_weight(th)
    for end, inward in zip(fam.support, (1.0, -1.0)):
        if math.isfinite(end):
            th = end + inward * np.array([1e-12, 1e-9]) * max(1.0, abs(end))
            with np.errstate(all="ignore"):
                g = np.asarray(logf(th)) + np.log(np.abs(fam.mean(th)))
            slope = (g[1] - g[0]) / math.log(1e3)
            if slope <= -1.0:
                raise ProprietyError(
                    f"the posterior mean of the mean function diverges for "
                    f"{fam.name} at x={x}: |mean| * density ~ distance^"
                    f"{slope:.4g} at the support end {end}")
    _, _, (den, num) = _peak_integrals(logf, *fam.support, None, fam.mean)
    if den <= 0 or not math.isfinite(den):
        raise ConvergenceError(
            f"posterior normalizer failed for {fam.name} at x={x}"
        )
    return num / den


def mixture_components(fam: FamilySpec, path: MixturePath, x: float):
    """Per-component integrals feeding the mixture posterior mean.

    For each normalized component density p_i returns
    ``A_i = ∫ mean * likelihood * p_i`` and ``B_i = ∫ likelihood * p_i``
    (both up to one common factor constant in i, which cancels in the
    mixture ratio), as ``(A_0, B_0, A_1, B_1)``.
    """
    out = []
    for prior in (path.p0, path.p1):
        _, m_prior, (z,) = _peak_integrals(_log_weight(fam, prior), *fam.support, None)
        if z <= 0 or not math.isfinite(z):
            raise ProprietyError(
                f"prior (alpha={prior.alpha}, lam={prior.lam}, {prior.flavor}) has "
                f"no finite normalizer for {fam.name}"
            )
        logf = _log_posterior_integrand(fam, prior, x)
        _, m, (den, num) = _peak_integrals(logf, *fam.support, None, fam.mean)
        scale = math.exp(m - (m_prior + math.log(z)))
        out += [num * scale, den * scale]
    return tuple(out)
