"""Brute-force oracles that check the closed forms from the outside.

Nothing in this module trusts the estimator formulas.  The minimax
oracle enumerates Bayes estimates over a hyper-parameter lattice and
sweeps a padded action grid; the KL oracle integrates (or sums) the
actual sampling densities, carrier included; the corner check verifies,
rather than assumes, that worst-case regret sits at an extreme Bayes
estimate.  Padding and full-lattice suprema exist precisely so a wrong
closed form gets caught instead of reproduced.

Sampling models (the concrete density of the data, which the family
abstraction deliberately does not carry) are registered here per family
name; the KL oracle refuses families it has no model for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SpecificationError
from .families import FamilySpec, interior_clamp, mean_inverse, require_in_support
from .losses import posterior_regret
from .priors import ConjugatePrior, PriorBox, posterior_predictive_mean

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
# KL divergence from the actual sampling model
# ---------------------------------------------------------------------------


def _kl_normal(theta: float, delta: float) -> float:
    from scipy import integrate, stats  # lazy import: cold start stays scipy-free

    def integrand(x):
        log_ratio = 0.5 * (x - delta) ** 2 - 0.5 * (x - theta) ** 2
        return stats.norm.pdf(x, loc=theta) * log_ratio

    total = 0.0
    for a, b in ((-np.inf, theta), (theta, np.inf)):
        val, _ = integrate.quad(integrand, a, b, epsabs=1e-12, epsrel=1e-10,
                                limit=200)
        total += val
    return total


def _kl_exponential(theta: float, delta: float) -> float:
    if theta <= 0 or delta <= 0:
        raise DomainError("exponential rates must be positive")
    from scipy import integrate  # lazy import: cold start stays scipy-free

    def integrand(x):
        log_ratio = math.log(theta / delta) + (delta - theta) * x
        return theta * math.exp(-theta * x) * log_ratio

    total = 0.0
    for a, b in ((0.0, 1.0 / theta), (1.0 / theta, np.inf)):
        val, _ = integrate.quad(integrand, a, b, epsabs=1e-12, epsrel=1e-10,
                                limit=200)
        total += val
    return total


def _kl_binomial(n: int, theta: float, delta: float) -> float:
    # Lazy imports: cold start stays scipy-free.  scipy's own expit, not
    # the families helper: the oracle shares no estimator code.
    from scipy import stats
    from scipy.special import expit

    xs = np.arange(n + 1)
    p_t = expit(-theta)
    p_d = expit(-delta)
    lp = stats.binom.logpmf(xs, n, p_t)
    lq = stats.binom.logpmf(xs, n, p_d)
    return float(np.sum(np.exp(lp) * (lp - lq)))


def _kl_poisson(theta: float, delta: float) -> float:
    from scipy import stats  # lazy import: cold start stays scipy-free

    mu_t = math.exp(-theta)
    mu_d = math.exp(-delta)
    # Truncate where the remaining mass is far below the 1e-14 target.
    upper = int(stats.poisson.isf(1e-16, mu_t)) + 10
    xs = np.arange(upper + 1)
    lp = stats.poisson.logpmf(xs, mu_t)
    log_ratio = xs * (math.log(mu_t) - math.log(mu_d)) + mu_d - mu_t
    return float(np.sum(np.exp(lp) * log_ratio))


def kl_quadrature(fam: FamilySpec, theta: float, delta: float) -> float:
    """KL divergence computed from the registered sampling model.

    Integrates or sums the genuine density/mass function (carrier and
    all); the only thing shared with ``intrinsic_loss`` is the family
    name.  Families without a registered model are refused.
    """
    require_in_support(fam, theta)
    require_in_support(fam, delta, what="delta")
    theta, delta = float(theta), float(delta)
    name = fam.name
    if name == "normal_mean_unitvar":
        val = _kl_normal(theta, delta)
    elif name == "exponential_rate":
        val = _kl_exponential(theta, delta)
    elif name.startswith("binomial_logit"):
        val = _kl_binomial(int(fam.meta["n"]), theta, delta)
    elif name == "poisson_neglograte":
        val = _kl_poisson(theta, delta)
    else:
        raise SpecificationError(
            f"no sampling model registered for family {name}; the KL oracle "
            "only covers the built-ins"
        )
    return max(val, 0.0)
