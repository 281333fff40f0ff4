"""Brute-force oracles that check the closed forms from the outside.

Nothing in this module trusts the estimator formulas.  The minimax
oracle enumerates Bayes estimates over a hyper-parameter lattice and
sweeps a padded action grid; the KL oracle sums or integrates the
family's sampling model (carrier, statistic and sample space) and
normalizes it itself, never calling ``log_norm`` or ``mean``; the corner
check verifies, rather than assumes, that worst-case regret sits at an
extreme Bayes estimate.  Padding and full-lattice suprema exist
precisely so a wrong closed form gets caught instead of reproduced.
A family without a sampling model is refused by the KL oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SpecificationError
from .families import FamilySpec, interior_clamp, mean_inverse, require_in_support
from .losses import posterior_regret
from .priors import (ConjugatePrior, PriorBox, _peak_integrals,
                     posterior_predictive_mean)

__all__ = [
    "GridSpec",
    "OracleResult",
    "grid_minimax",
    "regret_curve",
    "kl_quadrature",
    "sup_regret_corner_check",
]

CORNER_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the brute-force sweep."""

    n_delta: int = 2000
    n_corner: int = 9
    padding: float = 0.1

    def __post_init__(self):
        if self.n_delta < 3 or self.n_corner < 2:
            raise SpecificationError("grid needs n_delta >= 3 and n_corner >= 2")
        if self.padding < 0:
            raise SpecificationError("padding must be nonnegative")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one grid-minimax sweep.

    ``resolution_bound`` is a conservative localization radius: for a
    strictly unimodal sup-regret curve the true minimizer lies within
    two grid steps of the grid argmin, and the bound reports four steps
    scaled up by the local three-point slope estimate when that exceeds
    one (so it also dominates the value error of the same sweep).
    """

    argmin: float
    minimax_value: float
    resolution_bound: float
    spacing: float
    corner_violation: float
    n_lattice: int
    n_delta: int


def _lattice_estimates(fam: FamilySpec, box: PriorBox, x: float,
                       n_corner: int) -> np.ndarray:
    alphas = np.linspace(box.alpha_lo, box.alpha_hi, n_corner)
    lams = np.linspace(box.lam_lo, box.lam_hi, n_corner)
    ests = []
    for a in alphas:
        for l in lams:
            prior = ConjugatePrior(fam, float(a), float(l), box.flavor)
            pm = posterior_predictive_mean(fam, prior, x)
            ests.append(mean_inverse(fam, pm))
    return np.unique(np.asarray(ests, dtype=float))


def _sweep(fam: FamilySpec, lattice: np.ndarray, grid: GridSpec):
    d_min, d_max = float(lattice.min()), float(lattice.max())
    width = d_max - d_min
    if width > 0:
        pad = grid.padding * width
    else:
        pad = max(1e-6, 1e-6 * abs(d_min))
    lo = interior_clamp(fam, d_min - pad)
    hi = interior_clamp(fam, d_max + pad)
    deltas = np.linspace(lo, hi, grid.n_delta)

    sup = np.full(grid.n_delta, -np.inf)
    arg = np.zeros(grid.n_delta, dtype=int)
    for i, b in enumerate(lattice):
        reg = np.asarray(posterior_regret(fam, float(b), deltas), dtype=float)
        better = reg > sup
        sup = np.where(better, reg, sup)
        arg = np.where(better, i, arg)
    return deltas, sup, arg, d_min, d_max


def _corner_violation(lattice: np.ndarray, sup: np.ndarray,
                      fam: FamilySpec, deltas: np.ndarray) -> float:
    """How far the full-lattice supremum exceeds the two-extreme supremum."""
    lo_reg = np.asarray(posterior_regret(fam, float(lattice.min()), deltas))
    hi_reg = np.asarray(posterior_regret(fam, float(lattice.max()), deltas))
    return float(np.max(sup - np.maximum(lo_reg, hi_reg)))


def grid_minimax(fam: FamilySpec, box: PriorBox, x: float,
                 grid: GridSpec = GridSpec()) -> OracleResult:
    """Minimize the lattice-supremum posterior regret over a padded grid."""
    lattice = _lattice_estimates(fam, box, x, grid.n_corner)
    deltas, sup, _, _, _ = _sweep(fam, lattice, grid)
    k = int(np.argmin(sup))
    spacing = float(deltas[1] - deltas[0]) if len(deltas) > 1 else 0.0

    slope = 1.0
    if 0 < k < len(deltas) - 1 and spacing > 0:
        left = abs(sup[k] - sup[k - 1]) / spacing
        right = abs(sup[k + 1] - sup[k]) / spacing
        slope = max(1.0, left, right)
    bound = 4.0 * spacing * slope if spacing > 0 else 1e-12

    violation = _corner_violation(lattice, sup, fam, deltas)
    return OracleResult(
        argmin=float(deltas[k]),
        minimax_value=float(sup[k]),
        resolution_bound=bound,
        spacing=spacing,
        corner_violation=violation,
        n_lattice=len(lattice),
        n_delta=grid.n_delta,
    )


def regret_curve(fam: FamilySpec, box: PriorBox, x: float,
                 grid: GridSpec = GridSpec()):
    """Sampled worst-case regret curve for export.

    Returns ``(deltas, sup_regret, labels)`` where each label names the
    extreme Bayes estimate attaining the supremum at that action ("lo",
    "hi", or "interior" if corner dominance ever failed there).
    """
    lattice = _lattice_estimates(fam, box, x, grid.n_corner)
    deltas, sup, arg, d_min, d_max = _sweep(fam, lattice, grid)
    labels = []
    tol = 1e-9 * max(1.0, abs(d_min), abs(d_max))
    for i in arg:
        b = lattice[int(i)]
        if abs(b - d_min) <= tol:
            labels.append("lo")
        elif abs(b - d_max) <= tol:
            labels.append("hi")
        else:
            labels.append("interior")
    return deltas, sup, labels


def sup_regret_corner_check(fam: FamilySpec, box: PriorBox, x: float,
                            delta: float, n_corner: int = 9):
    """Verify the worst case over a lattice sits at an extreme estimate.

    Returns ``(which, violation)``: the extreme ("lo" or "hi") attaining
    the supremum at ``delta`` and the amount by which any interior
    lattice point exceeded it (nonpositive means dominance held).
    """
    require_in_support(fam, delta, what="delta")
    lattice = _lattice_estimates(fam, box, x, n_corner)
    regs = np.asarray(
        [posterior_regret(fam, float(b), float(delta)) for b in lattice]
    )
    r_lo = regs[int(np.argmin(lattice))]
    r_hi = regs[int(np.argmax(lattice))]
    violation = float(np.max(regs) - max(r_lo, r_hi))
    which = "lo" if r_lo >= r_hi else "hi"
    return which, violation


# ---------------------------------------------------------------------------
# KL divergence from the family's own sampling model
# ---------------------------------------------------------------------------

def _count_terms(logf, lo: int, hi: float):
    """The integers of [lo, hi] with their log terms.  An unbounded range
    is cut once the terms, past their peak, drop below e^-60 times it."""
    ks = lv = np.empty(0)
    for n in 2 ** np.arange(6, 21):
        new = np.arange(lo + ks.size, min(hi, lo + n - 1) + 1, dtype=float)
        ks = np.concatenate((ks, new))
        lv = np.concatenate((lv, np.asarray(logf(new), dtype=float)))
        if ks[-1] == hi or lv[-1] < min(lv[-2], lv.max() - 60.0):
            return ks, lv
    raise DomainError(f"the sampling model needs more than {n} terms to sum")


def _log_partition(fam: FamilySpec, t: float, with_mean: bool = True):
    """log of the sum or integral of carrier*exp(-t*stat) over the sample
    space, and the mean of stat under the normalized model (None on an
    interval without ``with_mean``, which skips its quadrature)."""
    lo, hi, integers = fam.sample_space

    def logf(x):
        return fam.log_carrier(x) - t * fam.stat(x)

    if integers:
        ks, lv = _count_terms(logf, lo, hi)
        m = float(lv.max())
        w = np.exp(lv - m)
        z, s1 = float(w.sum()), float(w @ np.asarray(fam.stat(ks), dtype=float))
        return m + math.log(z), s1 / z
    if math.isinf(lo) == math.isinf(hi):
        f, stat = logf, fam.stat
    else:
        # A half-line as x = end +- e^u: every scale of x is a shift in u.
        end, sign = (lo, 1.0) if math.isfinite(lo) else (hi, -1.0)

        def x_of(u):
            return end + sign * np.exp(u)

        lo, hi = -math.inf, math.inf
        f, stat = (lambda u: logf(x_of(u)) + u), (lambda u: fam.stat(x_of(u)))
    _, m, (z, *s1) = _peak_integrals(f, lo, hi, None, *((stat,) if with_mean else ()))
    return m + math.log(z), s1[0] / z if s1 else None


def kl_quadrature(fam: FamilySpec, theta: float, delta: float) -> float:
    """KL divergence computed from the family's sampling model.

    Normalizes ``carrier(x) * exp(-t * stat(x))`` over the sample space
    itself (a sum on integers, quadrature on an interval) and returns
    ``(delta - theta) * E_theta[stat] + log Z(delta) - log Z(theta)``,
    never calling ``log_norm``, ``mean`` or ``mean_deriv``.  Families
    without ``log_carrier`` and ``sample_space`` are refused.
    """
    require_in_support(fam, theta)
    require_in_support(fam, delta, what="delta")
    if fam.log_carrier is None or fam.sample_space is None:
        raise SpecificationError(
            f"family {fam.name} carries no sampling model (log_carrier and "
            "sample_space); the KL oracle cannot check it"
        )
    theta, delta = float(theta), float(delta)
    log_z_theta, mean_stat = _log_partition(fam, theta)
    log_z_delta, _ = _log_partition(fam, delta, with_mean=False)
    return max((delta - theta) * mean_stat + log_z_delta - log_z_theta, 0.0)
