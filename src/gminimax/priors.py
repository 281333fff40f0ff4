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
cross-checks) runs on ``_peak_integrals``, the package's one quadrature
routine: double-exponential quadrature over the natural parameter, split
at the integrand's scanned peak, with the integrand handled in log space
so normalizers never overflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, ProprietyError, SpecificationError
from .families import (
    FamilySpec,
    _broken,
    _log,
    _observed_stat,
    _prior_text,
    check_posterior_ok,
    check_prior_ok,
    interval_grid,
    np,
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
    declare its Jeffreys shift.  ``_jeffreys_shift`` is the one place the
    shift is read, and ``_shifted`` the one place it is added: mixtures
    shift through this function, and boxes and the closed-form predictive
    means through ``_shifted`` itself.
    """
    if prior.flavor == "standard":
        return prior
    [(alpha, lam)] = _shifted(prior.fam, [(prior.alpha, prior.lam)])
    return ConjugatePrior(prior.fam, alpha, lam, "standard")


def _jeffreys_shift(fam: FamilySpec) -> tuple[float, float]:
    """What a jcp prior adds to ``(alpha, lambda)`` to become its
    standard-flavor equivalent; refused when the family declares none."""
    if fam.jeffreys_shift is None:
        raise SpecificationError(
            f"family {fam.name} declares no Jeffreys shift; the jcp "
            "prior has no standard-flavor equivalent"
        )
    return fam.jeffreys_shift


def _shifted(fam: FamilySpec, points) -> list[tuple[float, float]]:
    """Jcp ``(alpha, lambda)`` points as standard ones: each plus the Jeffreys shift."""
    da, dl = _jeffreys_shift(fam)
    return [(a + da, l + dl) for a, l in points]


def require_same_family(fam: FamilySpec, other: FamilySpec, what: str) -> None:
    """Raise SpecificationError unless a prior, box or path built for
    ``other`` (``what`` names it) belongs to ``fam``, compared by name."""
    if other.name != fam.name:
        raise SpecificationError(
            f"the {what} belongs to family {other.name}, not {fam.name}")


def posterior_predictive_mean(fam: FamilySpec, prior: ConjugatePrior, x: float) -> float:
    """Closed-form posterior expectation of the mean function: the
    one-point case of ``_predictive_means``, which gives the formula and
    its refusals."""
    require_same_family(fam, prior.fam, "prior")
    point = [(prior.alpha, prior.lam)]
    return _predictive_means(fam, prior.flavor, point, point, x)[0]


def _predictive_means(fam: FamilySpec, flavor: str, corners, points,
                      x: float) -> list[float]:
    """Closed-form posterior expectations of the mean function at the
    ``(alpha, lambda)`` ``points`` of ``flavor``, which lie in the box
    spanned by ``corners``.

    The conjugate update takes the standard-flavor ``(alpha, lambda)`` to
    ``(alpha + obs_units, lambda + stat(x))``; the result is the predictive
    expectation of the sufficient statistic of one fresh observation,
    ``obs_units * (lambda + stat(x)) / (alpha + obs_units)``.  Rejects
    updates whose posterior would be improper, and, with a DomainError,
    hyper-parameters so large that the quotient rounds onto or past an
    end of the mean range.

    Propriety is checked at the corners alone: every rule is linear in
    ``(alpha, lambda)``, so corners that keep it bound every point of the
    box.  Where a corner breaks one, each point is checked in turn, so
    the refusal names the first point that breaks it.
    """
    standard = points
    if flavor != "standard":
        standard = _shifted(fam, points)  # corners are often the points themselves
        corners = standard if corners is points else _shifted(fam, corners)
        # A shifted corner stays finite, as a standard prior must.
        _check_hypers("standard", [v for c in corners for v in c], "hyper-parameters")
    r = _observed_stat(fam, x)
    try:
        for a, l in corners:
            check_posterior_ok(fam, a, l, x, r)
        each = False
    except ProprietyError:
        each = True
    u = fam.obs_units
    lo, hi = fam.mean_range or (-math.inf, math.inf)
    means = []
    for i, (sa, sl) in enumerate(standard):
        jcp = None if flavor == "standard" else points[i]
        if each:
            check_posterior_ok(fam, sa, sl, x, r, jcp)
        pm = u * (sl + r) / (sa + u)
        if not lo < pm < hi:
            raise DomainError(
                f"the predictive mean at x={x} with {_prior_text(sa, sl, jcp)} "
                f"rounds to {pm}, at or past an end of the mean range ({lo}, {hi}) "
                f"of {fam.name}, at that scale of the hyper-parameters")
        means.append(pm)
    return means


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
        declared; a standard box is returned as it is.
        """
        if self.flavor == "standard":
            return self
        (a_lo, l_lo), (a_hi, l_hi) = _shifted(
            self.fam, [(self.alpha_lo, self.lam_lo), (self.alpha_hi, self.lam_hi)])
        return PriorBox(self.fam, a_lo, a_hi, l_lo, l_hi, "standard")


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
        check_prior_ok(box.fam, std.corners(),
                       box.corners() if box.flavor == "jcp" else None)
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


class _Table(NamedTuple):
    """Double-exponential nodes of some levels, for one or two pieces."""

    neg: np.ndarray       # t < 0
    q: np.ndarray         # tanh-sinh share of a finite piece
    dq: np.ndarray        # its derivative in t
    up: np.ndarray        # e^s, exp-sinh offset from a finite lower end
    up_w: np.ndarray      # its derivative in t
    down: np.ndarray      # e^-s, the same from a finite upper end
    down_w: np.ndarray
    second: np.ndarray    # the node belongs to the second piece
    levels: tuple         # (k, start, stop) of each level's slice


@cache
def _de_table(first: int, last: int, pieces: int) -> _Table:
    """The nodes that the steps 2^-first .. 2^-last add to the coarser
    steps of the trapezoid rule in t over |t| <= _DE_WINDOW, level after
    level and, within a level, piece after piece, each in increasing t.
    With s = (pi/2) sinh t, a node carries the tanh-sinh share
    q = 1/(1 + e^(2|s|)) of a finite piece between it and its nearer end,
    and the exp-sinh offsets e^(+-s) from the finite end of a half-line,
    each with its derivative in t."""
    chunks, levels, n = [], [], 0
    for k in range(first, last + 1):
        j = np.arange(1 if k else 0, math.floor(_DE_WINDOW * 2 ** k) + 1, 2 if k else 1)
        t = np.concatenate([-j[::-1], j[j > 0]]) * 2.0 ** -k
        chunks += [t] * pieces
        levels.append((k, n, n + pieces * t.size))
        n += pieces * t.size
    t = np.concatenate(chunks)
    second = np.concatenate([np.full(c.size, i % pieces == 1) for i, c in enumerate(chunks)])
    s, ds = 0.5 * math.pi * np.sinh(t), 0.5 * math.pi * np.cosh(t)
    q = 1.0 / (1.0 + np.exp(2.0 * np.abs(s)))
    up, down = np.exp(s), np.exp(-s)
    return _Table(t < 0, q, 2.0 * ds * q * (1.0 - q), up, ds * up, down, ds * down,
                  second, tuple(levels))


def _de_nodes(a: float, b: float, tab: _Table) -> tuple[np.ndarray, np.ndarray]:
    """The table's nodes on the piece (a, b), at least one end finite, and
    their weights in t: tanh-sinh on a finite piece, exp-sinh on a
    half-line."""
    if math.isfinite(a) and math.isfinite(b):
        u = (b - a) * tab.q
        return np.where(tab.neg, a + u, b - u), (b - a) * tab.dq
    if math.isfinite(a):
        return a + tab.up, tab.up_w
    return b - tab.down, tab.down_w


class _Sum:
    """One factor's run down the levels: its total, the total of its
    absolute terms, the largest |log| of the integrand so far, and whether
    it has stopped."""

    __slots__ = ("total", "prev", "size", "log_max", "done")

    def __init__(self):
        self.total = self.prev = self.size = self.log_max = 0.0
        self.done = False

    def add(self, k: int, total: float, size: float, top: float) -> None:
        """Fold in level k's sums of terms and of |terms|; stop once two
        levels agree to QUAD_EPSREL or the total is not finite."""
        h, self.prev = 2.0 ** -k, self.total
        self.total = 0.5 * self.prev + h * total
        self.size = 0.5 * self.size + h * size
        self.log_max = max(self.log_max, top)
        self.done = not math.isfinite(self.total) or (
            k > 0 and abs(self.total - self.prev) <= QUAD_EPSREL * self.size)

    def value(self, lo: float, hi: float) -> float:
        """The total once its error estimate passes on (lo, hi); a total
        that is not finite is returned unchecked."""
        if not math.isfinite(self.total):
            return self.total  # the callers refuse an infinite normalizer
        err = abs(self.total - self.prev) + _UNIT_ROUNDOFF * self.log_max * abs(self.total)
        tol = 1e-8 * self.size
        if not err <= tol:
            raise ConvergenceError(
                f"quadrature error estimate {err:.3e} exceeds the "
                f"tolerance {tol:.3e} on [{lo}, {hi}]"
            )
        return self.total


# Levels 0 .. _FIRST_LEVELS - 1 run in one evaluation: most integrals stop
# at level 4 or 5, and below about 150 nodes a level costs numpy's call
# overhead more than its arithmetic.
_FIRST_LEVELS = 6

# exp() underflows to 0.0 below roughly -745; a log weight under this
# floor is an exact float zero no matter what bounded-growth factor it
# multiplies, so the factor must not be evaluated there (it may overflow
# in tail regions the posterior has already left, e.g. exp(-theta)
# means on an unbounded support).
_LOG_FLOOR = -745.0


def _log_weight(fam: FamilySpec, prior: ConjugatePrior):
    """Log unnormalized prior density, vectorized over theta."""

    def logw(th):
        v = prior.alpha * fam.log_prior_base(th) - prior.lam * th
        if prior.flavor == "jcp":
            v = v + 0.5 * _log(-fam.mean_deriv(th))
        return v

    return logw


def _log_posterior_integrand(fam: FamilySpec, prior: ConjugatePrior, x: float):
    """Log of (likelihood shape) * (unnormalized prior), vectorized."""
    r = _observed_stat(fam, x)
    logw = _log_weight(fam, prior)

    def logf(th):
        return fam.log_norm(th) - th * r + logw(th)

    return logf


def _peak(logf, lo: float, hi: float) -> tuple[float, float]:
    """Coarse scan for the integrand's peak on (lo, hi): (argmax, max log).

    Infinite ends are cut at _SCAN_CAP, as ``interval_grid`` cuts them.
    While the peak sits on a cut edge the cut grows sixteenfold (while
    under 1e9); the grid cells around a peak found that way are then
    rescanned twice.
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
    """Integrals of exp(logf - m) * factor over (lo, hi), one per factor:
    the one quadrature routine of the package, which every integral goes
    through and where every error estimate is checked.

    A factor of None integrates the plain density.  ``m`` is the scanned
    peak of logf (``_peak``).  Double-exponential quadrature splits at the
    peak's location, so the nodes cluster there whatever its width (the
    whole line always splits into two half-lines).  The step halves until
    two levels agree to ``QUAD_EPSREL``; the first six levels take one
    evaluation of logf, and the later ones one each.  Every factor shares
    the nodes but keeps its own sums: it stops at its own level and gets
    its own error check, so its value is the one it would get alone.
    Nodes where logf - m is under ``_LOG_FLOOR`` (or nan) weigh exactly 0,
    and their factor is not evaluated.

    The error estimate is the last difference of levels plus the largest
    |logf| so far times the unit round-off times the integral; it must be
    within 1e-8 of the integral of |integrand|.  Nodes that round onto an
    end of their piece are skipped.  Where the integrand has not died out
    at the outermost nodes (the window's edge, or an end whose nearest
    nodes are skipped), their terms move each level's sum, so that
    difference shows it.
    Returns ``(m, values)``; m cancels in any ratio of the values.
    """
    mid, m = _peak(logf, lo, hi)
    pieces = [(lo, mid), (mid, hi)] if lo < mid < hi else [(lo, hi)]
    batches = [(0, _FIRST_LEVELS - 1)] + [(k, k) for k in
                                           range(_FIRST_LEVELS, QUAD_LEVELS + 1)]
    n = len(factors)
    sums = [_Sum() for _ in factors]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for first, last in batches:
            tab = _de_table(first, last, len(pieces))
            nodes = [_de_nodes(a, b, tab) for a, b in pieces]
            x, g = nodes[0]
            if len(nodes) == 2:
                x, g = (np.where(tab.second, y, z) for y, z in zip(nodes[1], nodes[0]))
            keep = np.flatnonzero((x > lo) & (x < hi) & (x != mid))
            lv = np.asarray(logf(x[keep]), dtype=float)
            live = lv - m > _LOG_FLOOR  # not nan, -inf, or deep underflow
            keep, lv = keep[live], lv[live]
            th, w = x[keep], np.exp(lv - m)
            terms = np.zeros((2 * n, x.size))
            for row, factor in zip(terms, factors):
                row[keep] = (w if factor is None else w * factor(th)) * g[keep]
            terms[n:] = np.abs(terms[:n])
            top = np.zeros(x.size)
            top[keep] = np.abs(lv)
            tops = np.maximum.reduceat(top, [start for _, start, _ in tab.levels])
            for (k, start, stop), level_top in zip(tab.levels, tops.tolist()):
                # Each row sums pairwise over its contiguous slice, in the
                # order one factor's level alone would be summed.
                level = terms[:, start:stop].sum(axis=1).tolist()
                for s, total, size in zip(sums, level, level[n:]):
                    if not s.done:
                        s.add(k, total, size, level_top)
            if all(s.done for s in sums):
                break
    return m, [s.value(lo, hi) for s in sums]


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
