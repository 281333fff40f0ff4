"""Brute-force oracles that check the closed forms from the outside.

Nothing in this module trusts the estimator formulas.  The minimax
oracle enumerates Bayes estimates over a hyper-parameter lattice and
sweeps a padded action grid.  The lattice's closed-form predictive
means come from one pass over the box, which checks propriety at the
box's four corners: every propriety rule is linear in the
hyper-parameters, so the corners bound every lattice point.  The
posterior regret against a lattice Bayes action b is
``psi(b) - psi(d) + (d - b)*mean(b)``: a line in the
action d, ``A_b + B_b*d`` with ``A_b = psi(b) - b*mean(b)`` and
``B_b = mean(b)``, minus the ``psi(d)`` that every lattice point shares.
So the lattice supremum is the upper envelope of those lines less one
``psi`` pass over the grid, taken as a running maximum over every
lattice point.  Where the lines nearly cancel ``psi(d)`` (a lattice that
is nearly a point, say) the envelope is guarded: any action whose value
keeps fewer than 38 bits over its rounding bound is recomputed from the
exact ``posterior_regret`` of every lattice point.

The corner check verifies, rather than assumes, that worst-case regret
sits at an extreme Bayes estimate: it compares the best line of all with
the better of the two extreme lines, in the same arithmetic, so it reads
exactly 0 wherever an extreme wins.  The KL oracle sums or integrates the
family's sampling model (carrier, statistic and sample space) and
normalizes it itself, never calling ``log_norm`` or ``mean``.  Padding
and full-lattice suprema exist precisely so a wrong closed form gets
caught instead of reproduced.  A family without a sampling model is
refused by the KL oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, SpecificationError
from .families import FamilySpec, _exp, interior_clamp, mean_inverse, np, require_in_support
from .losses import RESOLUTION, ROUNDOFF, posterior_regret
from .priors import PriorBox, _peak_integrals, _predictive_means, require_same_family

__all__ = [
    "OracleResult",
    "grid_minimax",
    "regret_curve",
    "kl_quadrature",
]

CORNER_TOL = 1e-12

# The lattice has N_CORNER evenly spaced values on each edge of the box,
# and the action grid reaches PADDING times the lattice's width past it.
N_CORNER = 9
PADDING = 0.1


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
    corner_violation: float
    n_lattice: int


def _lattice_estimates(fam: FamilySpec, box: PriorBox, x: float) -> np.ndarray:
    """The distinct Bayes actions, sorted, of the N_CORNER x N_CORNER
    lattice of the box.  Their closed-form predictive means come from one
    pass over the box, whose corners bound the propriety of every point."""
    require_same_family(fam, box.fam, "box")
    alphas = np.linspace(box.alpha_lo, box.alpha_hi, N_CORNER).tolist()
    lams = np.linspace(box.lam_lo, box.lam_hi, N_CORNER).tolist()
    points = [(a, l) for a in alphas for l in lams]
    means = _predictive_means(fam, box.flavor, box.corners(), points, x)
    return np.unique(np.asarray([mean_inverse(fam, pm) for pm in means], dtype=float))


class _Envelope(NamedTuple):
    """One sweep of the action grid against every lattice point."""

    deltas: np.ndarray
    sup: np.ndarray       # worst lattice regret at each action
    arg: np.ndarray       # lattice index attaining it (first on ties)
    excess: np.ndarray    # sup minus the worse of the two extremes' regrets
    guarded: np.ndarray   # actions recomputed with exact regrets


def _sweep(fam: FamilySpec, lattice: np.ndarray, n_delta: int) -> _Envelope:
    """Worst regret over ``lattice`` at each of ``n_delta`` actions of a
    padded grid.

    Regret against the Bayes action b is ``A_b + B_b*d - psi(d)`` with
    ``A_b = psi(b) - b*mean(b)`` and ``B_b = mean(b)``: every lattice
    point is a line in d, so one running maximum of the lines and one
    ``psi`` pass of the grid give the supremum.  Where that difference
    keeps fewer than 38 bits over its rounding bound
    ``4*eps*(max_b(|psi(b)| + |b*mean(b)|) + max_b|mean(b)|*|d| + |psi(d)|)``,
    or is not finite, the action is recomputed from the exact
    ``posterior_regret`` of every lattice point.
    """
    if n_delta < 3:
        raise SpecificationError(
            f"the action grid needs at least 3 points, got n_delta={n_delta}")
    d_min, d_max = float(lattice[0]), float(lattice[-1])
    width = d_max - d_min
    if width > 0:
        pad = PADDING * width
    else:
        pad = max(1e-6, 1e-6 * abs(d_min))
    lo = interior_clamp(fam, d_min - pad)
    hi = interior_clamp(fam, d_max + pad)
    deltas = np.linspace(lo, hi, n_delta)

    last = len(lattice) - 1
    with np.errstate(all="ignore"):
        slopes = np.asarray(fam.mean(lattice), dtype=float)
        psi_b = np.asarray(fam.log_norm(lattice), dtype=float)
        b_slopes = lattice * slopes
        offsets = psi_b - b_slopes
        psi_d = np.asarray(fam.log_norm(deltas), dtype=float)

        env = np.multiply(deltas, slopes[0])
        env += offsets[0]
        arg = np.zeros(n_delta, dtype=np.intp)
        line = np.empty(n_delta)
        win = np.empty(n_delta, dtype=bool)
        for i in range(1, last + 1):
            np.multiply(deltas, slopes[i], out=line)
            line += offsets[i]
            np.greater(line, env, out=win)
            np.copyto(env, line, where=win)
            np.copyto(arg, i, where=win)
        # line holds the last point's line unless the lattice is one point.
        extremes = np.multiply(deltas, slopes[0])
        extremes += offsets[0]
        np.maximum(extremes, line if last else extremes, out=extremes)
        excess = env - extremes

        sup = env - psi_d
        slack = np.abs(deltas) * np.max(np.abs(slopes))
        slack += np.max(np.abs(psi_b) + np.abs(b_slopes))
        slack += np.abs(psi_d)
        slack *= ROUNDOFF
        guarded = ~((RESOLUTION * sup >= slack) & (sup < np.inf))

    if guarded.any():
        d = deltas[guarded]
        for i, b in enumerate(lattice):
            reg = np.asarray(posterior_regret(fam, float(b), d), dtype=float)
            if i == 0:
                g_sup, g_arg, reg_lo = reg.copy(), np.zeros(d.size, np.intp), reg
            else:
                win = reg > g_sup
                g_sup[win], g_arg[win] = reg[win], i
        sup[guarded], arg[guarded] = g_sup, g_arg
        excess[guarded] = g_sup - np.maximum(reg_lo, reg)
    return _Envelope(deltas, sup, arg, excess, guarded)


def grid_minimax(fam: FamilySpec, box: PriorBox, x: float,
                 n_delta: int = 2000) -> OracleResult:
    """Minimize the lattice-supremum posterior regret over a padded grid
    of ``n_delta`` actions."""
    lattice = _lattice_estimates(fam, box, x)
    deltas, sup, _, excess, _ = _sweep(fam, lattice, n_delta)
    k = int(sup.argmin())
    spacing = float(deltas[1] - deltas[0])

    slope = 1.0
    if 0 < k < len(deltas) - 1 and spacing > 0:
        left = abs(sup[k] - sup[k - 1]) / spacing
        right = abs(sup[k + 1] - sup[k]) / spacing
        slope = max(1.0, left, right)
    bound = 4.0 * spacing * slope if spacing > 0 else 1e-12

    return OracleResult(
        argmin=float(deltas[k]),
        minimax_value=float(sup[k]),
        resolution_bound=bound,
        corner_violation=float(excess.max()),
        n_lattice=len(lattice),
    )


def regret_curve(fam: FamilySpec, box: PriorBox, x: float, n_delta: int = 2000):
    """Worst-case regret curve sampled at ``n_delta`` actions, for export.

    Returns ``(deltas, sup_regret, labels)`` where each label names the
    lattice Bayes estimate attaining the supremum at that action: "lo"
    (the smallest), "hi" (the largest), or "interior" where corner
    dominance failed there.
    """
    lattice = _lattice_estimates(fam, box, x)
    deltas, sup, arg, _, _ = _sweep(fam, lattice, n_delta)
    names = ["interior"] * len(lattice)
    names[-1], names[0] = "hi", "lo"
    return deltas, sup, [names[i] for i in arg.tolist()]


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
            return end + sign * _exp(u)

        lo, hi = -math.inf, math.inf
        f, stat = (lambda u: logf(x_of(u)) + u), (lambda u: fam.stat(x_of(u)))
    m, (z, *s1) = _peak_integrals(f, lo, hi, None, *((stat,) if with_mean else ()))
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
