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
cross-checks) runs on double-exponential quadrature over the natural
parameter, with the integrand handled in log space so normalizers never
overflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConvergenceError, ProprietyError, SpecificationError
from .families import (
    FamilySpec,
    _broken,
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
]

FLAVORS = ("standard", "jcp")

# Quadrature tuning shared by every integral in this module: the levels
# of the double-exponential rule agree to QUAD_EPSREL within QUAD_LEVELS
# halvings of the step.  Its window |t| <= 4.5 keeps every node at least
# about 1e-61 of a piece's width from a finite end; at |t| = 6, 1/theta^2
# overflows for the jcp exponential.
QUAD_EPSREL = 1e-10
QUAD_LEVELS = 8
_DE_WINDOW = 4.5
_UNIT_ROUNDOFF = 2.0 ** -53
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
        _check_hypers(self.flavor, (self.alpha, self.lam), "hyper-parameters")


def _check_hypers(flavor: str, values, what: str) -> None:
    """The rule every prior class keeps: a known flavor, and finite
    ``values`` (``what`` names them)."""
    if flavor not in FLAVORS:
        raise SpecificationError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    if not all(math.isfinite(v) for v in values):
        raise SpecificationError(f"{what} must be finite")


def conjugate_prior(fam: FamilySpec, alpha: float, lam: float,
                    flavor: str = "standard") -> ConjugatePrior:
    """Construct a prior, rejecting hyper-parameters that cannot work:
    it is checked as its one-point box (see ``prior_box``)."""
    prior = ConjugatePrior(fam, float(alpha), float(lam), flavor)
    _check_class(PriorBox(fam, prior.alpha, prior.alpha, prior.lam, prior.lam, flavor))
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


def require_same_family(fam: FamilySpec, other: FamilySpec, what: str) -> None:
    """Raise SpecificationError unless a prior, box or path built for
    ``other`` (``what`` names it) belongs to ``fam``, compared by name."""
    if other.name != fam.name:
        raise SpecificationError(
            f"the {what} belongs to family {other.name}, not {fam.name}")


def posterior_predictive_mean(fam: FamilySpec, prior: ConjugatePrior, x: float) -> float:
    """Closed-form posterior expectation of the mean function.

    The conjugate update takes the standard-flavor ``(alpha, lambda)`` to
    ``(alpha + obs_units, lambda + stat(x))``; the result is the predictive
    expectation of the sufficient statistic of one fresh observation,
    ``obs_units * (lambda + stat(x)) / (alpha + obs_units)``.  Rejects
    updates whose posterior would be improper.
    """
    require_same_family(fam, prior.fam, "prior")
    std = to_standard(prior)
    r = float(fam.stat(x))
    check_posterior_ok(fam, std.alpha, std.lam, x, r)
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
        _check_hypers(self.flavor, (self.alpha_lo, self.alpha_hi, self.lam_lo,
                                    self.lam_hi), "box corners")
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
    standard-flavor equivalent, so a jcp box needs the family's Jeffreys
    shift.  A family with no propriety rows accepts it with one warning."""
    box = PriorBox(fam, float(alpha_lo), float(alpha_hi), float(lam_lo),
                   float(lam_hi), flavor)
    _check_class(box)
    return box


def _check_class(box: PriorBox) -> None:
    """The one check of a class of priors, on its standard equivalent:
    ``box.to_standard()`` refuses a jcp class with no Jeffreys shift."""
    std = box.to_standard()
    if box.fam.propriety is not None:
        check_prior_ok(box.fam, std.corners())
        return
    a, b, lo, hi = box.alpha_lo, box.alpha_hi, box.lam_lo, box.lam_hi
    what = (f"(alpha={a}, lambda={lo})" if (a, lo) == (b, hi) else
            f"the box alpha [{a}, {b}], lambda [{lo}, {hi}]")
    warnings.warn(f"family {box.fam.name} has no propriety predicate; accepting "
                  f"{what} unchecked", stacklevel=3)


# ---------------------------------------------------------------------------
# Mixtures of two priors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixturePath:
    """Segment of two-point mixtures t*p0 + (1-t)*p1, t in [0, 1].

    Both components must be proper distributions over the same family,
    otherwise the mixture weights are meaningless.  A family without
    ``propriety`` rows (a custom one) has no proper prior here; a flat
    normal prior has proper posteriors but is not itself a distribution.
    """

    p0: ConjugatePrior
    p1: ConjugatePrior

    def __post_init__(self):
        require_same_family(self.p0.fam, self.p1.fam, "mixture component p1")
        for tag, p in (("p0", self.p0), ("p1", self.p1)):
            std, rows = to_standard(p), p.fam.propriety
            if rows is None or _broken(rows, std.alpha, std.lam) is not None:
                raise ProprietyError(
                    f"mixture component {tag} (alpha={p.alpha}, lam={p.lam}, "
                    f"flavor={p.flavor}) is not a proper distribution for "
                    f"{p.fam.name}"
                )


# ---------------------------------------------------------------------------
# Quadrature layer
# ---------------------------------------------------------------------------


@cache
def _de_level(k: int) -> tuple[np.ndarray, ...]:
    """The nodes that the step 2^-k adds to the coarser steps of the
    trapezoid rule in t over |t| <= _DE_WINDOW: the sign of t, the
    tanh-sinh share q = 1/(1 + e^(2|s|)) of a finite piece between the node
    and its nearer end with its derivative in t, and s = (pi/2) sinh t
    with its derivative, in increasing t."""
    j = np.arange(1 if k else 0, math.floor(_DE_WINDOW * 2 ** k) + 1, 2 if k else 1)
    t = np.concatenate([-j[::-1], j[j > 0]]) * 2.0 ** -k
    s, ds = 0.5 * math.pi * np.sinh(t), 0.5 * math.pi * np.cosh(t)
    q = 1.0 / (1.0 + np.exp(2.0 * np.abs(s)))
    return np.sign(t), q, 2.0 * ds * q * (1.0 - q), s, ds


def _de_nodes(a: float, b: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of level k on the piece (a, b), at least one end finite, and
    their weights in t: tanh-sinh on a finite piece, exp-sinh on a
    half-line."""
    sign, q, dq, s, ds = _de_level(k)
    if math.isfinite(a) and math.isfinite(b):
        return np.where(sign < 0, a + (b - a) * q, b - (b - a) * q), (b - a) * dq
    if math.isfinite(a):
        e = np.exp(s)
        return a + e, ds * e
    e = np.exp(-s)
    return b - e, ds * e


def _quad_split(f, lo: float, hi: float, mid: float) -> float:
    """Double-exponential quadrature split at an interior peak location.

    The one quadrature routine of the package: every integral goes
    through it, and its error estimate is checked here.  Each piece ends
    at the split, so the nodes cluster double-exponentially at the peak
    whatever its width (the whole line always splits at a finite ``mid``
    into two half-lines).  The step halves until two levels agree to
    ``QUAD_EPSREL``, with one call of ``f`` per level: it maps an array of
    nodes to the integrand and the largest |log| of its live values.

    The error estimate is the last difference of levels plus that |log|
    times the unit round-off times the integral; it must be within 1e-8
    of the integral of |f|.  Nodes that round onto an end of their piece
    are skipped.  Where the integrand has not died out at the outermost
    nodes (the window's edge, or an end whose nearest nodes are skipped),
    their terms move each level's sum, so that difference shows it.
    """
    mid = min(max(mid, lo), hi)
    pieces = [(lo, mid), (mid, hi)] if lo < mid < hi else [(lo, hi)]
    total = size = log_max = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(QUAD_LEVELS + 1):
            h, prev = 2.0 ** -k, total
            nodes = [_de_nodes(a, b, k) for a, b in pieces]
            x = np.concatenate([n[0] for n in nodes])
            g = np.concatenate([n[1] for n in nodes])
            keep = (x > lo) & (x < hi) & (x != mid)
            v, top = f(x[keep])
            g[~keep] = 0.0
            g[keep] *= v
            total = 0.5 * prev + h * float(g.sum())
            size = 0.5 * size + h * float(np.abs(g).sum())
            log_max = max(log_max, top)
            if not math.isfinite(total):
                return total  # the callers refuse an infinite normalizer
            if k and abs(total - prev) <= QUAD_EPSREL * size:
                break
    err = abs(total - prev) + _UNIT_ROUNDOFF * log_max * abs(total)
    tol = 1e-8 * size
    if not err <= tol:
        raise ConvergenceError(
            f"quadrature error estimate {err:.3e} exceeds the "
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
    """Array integrand exp(logf(th) - shift) * factor(th), tail-safe, and
    the largest |logf| where it is not floored (the size of its round-off).
    ``_quad_split`` holds the floating-point error state around its calls."""

    def f(th: np.ndarray) -> tuple[np.ndarray, float]:
        lv = np.asarray(logf(th), dtype=float)
        live = lv - shift > _LOG_FLOOR  # not nan, -inf, or deep underflow
        v = np.zeros(th.shape)
        v[live] = np.exp(lv[live] - shift)
        if factor is not None:
            v[live] *= factor(th[live])
        return v, float(np.abs(lv[live]).max(initial=0.0))

    return f


def _log_weight(fam: FamilySpec, prior: ConjugatePrior):
    """Log unnormalized prior density, vectorized over theta."""

    def logw(th):
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
    Returns ``(m, values)``; m cancels in any ratio of the values.
    """
    mode, m = _peak(logf, lo, hi)
    values = [_quad_split(_weighted_integrand(logf, m, f), lo, hi, mode)
              for f in factors]
    return m, values


def predictive_mean_quadrature(fam: FamilySpec, prior: ConjugatePrior, x: float,
                               extra_log_weight=None) -> float:
    """Posterior expectation of the mean function by quadrature.

    Independent of every closed form above: it integrates the actual
    posterior density (including the sqrt-Fisher factor for jcp priors).
    ``extra_log_weight`` multiplies one more density factor in, e.g. the
    Jacobian of a reparameterization when a conjugate class is
    re-elicited on a transformed scale.  An integrand that grows like
    distance^p, p <= -1, at a finite support end raises ProprietyError.
    """
    require_same_family(fam, prior.fam, "prior")
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
    _, (den, num) = _peak_integrals(logf, *fam.support, None, fam.mean)
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
    require_same_family(fam, path.p0.fam, "mixture path")
    out = []
    for prior in (path.p0, path.p1):
        m_prior, (z,) = _peak_integrals(_log_weight(fam, prior), *fam.support, None)
        if z <= 0 or not math.isfinite(z):
            raise ProprietyError(
                f"prior (alpha={prior.alpha}, lam={prior.lam}, {prior.flavor}) has "
                f"no finite normalizer for {fam.name}"
            )
        logf = _log_posterior_integrand(fam, prior, x)
        m, (den, num) = _peak_integrals(logf, *fam.support, None, fam.mean)
        scale = math.exp(m - (m_prior + math.log(z)))
        out += [num * scale, den * scale]
    return tuple(out)
