"""One-parameter exponential families in natural form.

Every family here has a sampling density (or mass function) of the shape

    f(x | theta) = norm(theta) * carrier(x) * exp(-theta * stat(x)),

where ``theta`` ranges over an open interval and ``norm`` is the
normalizing factor.  Two functions drive all downstream computation:

* ``log_norm(theta)``  -- the log of the normalizing factor.  Only the
  log is ever evaluated; the factor itself may under/overflow.
* ``mean(theta)``      -- the derivative of ``log_norm``, which equals
  the expectation of ``stat(X)`` under ``theta``.  It is strictly
  decreasing, so it has a well-defined inverse, and its negated
  derivative is the Fisher information.

The conjugate prior family attached to each of these models has the
shape ``prior_base(theta)^alpha * exp(-lambda * theta)``.  For most
families the prior base coincides with ``norm``; the binomial uses the
per-trial base (the ``n``-th root of ``norm``) so that one observation
contributes ``n`` units to the ``alpha`` exponent.  ``obs_units``
records that weight.

``jeffreys_shift = (a, b)`` means the square root of the Fisher
information is proportional to ``prior_base(theta)^a * exp(-b*theta)``,
so multiplying a conjugate prior by it lands back in the conjugate
family with ``(alpha + a, lambda + b)``.

Support endpoints are always open.  Evaluating any mapping at or beyond
an endpoint raises :class:`~gminimax.errors.DomainError`; internally
generated points are kept at least a relative margin of 1e-12 inside.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, ProprietyError, SpecificationError

INTERIOR_MARGIN = 1e-12

# Numeric inversion of the mean function.
INVERT_RTOL = 1e-12
INVERT_ATOL = 1e-14
BRACKET_MAX_STEPS = 200
BISECT_MAX_STEPS = 200


@dataclass(frozen=True)
class FamilySpec:
    """Bundle of mappings defining one exponential family.

    Fields
    ------
    name:            identifier, e.g. ``"binomial_logit(5)"``.
    support:         open interval of admissible natural parameters.
    log_norm:        log of the normalizing factor, vectorized in theta.
    mean:            derivative of ``log_norm``; strictly decreasing.
    mean_deriv:      derivative of ``mean``; strictly negative.
    stat:            sufficient statistic as a function of the data.
    mean_inv:        analytic inverse of ``mean`` when one is known; only
                     called on the open ``mean_range`` when that is set.
    mean_range:      closure of the image of ``mean``.
    jeffreys_shift:  ``(a, b)`` with sqrt(Fisher) ∝ base^a * exp(-b*theta),
                     or ``None`` when no such pair exists / is known.
    obs_units:       prior-base units one observation adds to ``alpha``.
    prior_ok:        predicate on ``(alpha, lam)`` for usable priors.
    prior_rule:      human-readable statement of that predicate.
    posterior_ok:    predicate on ``(alpha, lam, x)`` for a proper
                     posterior with a finite posterior mean of ``mean``.
    log_carrier:     log of ``carrier(x)``, vectorized in x.
    sample_space:    ``(lo, hi, integers)``: observations lie in [lo, hi],
                     on its integers (lo finite) when ``integers`` is true.
    prior_proper:    predicate on standard ``(alpha, lam)`` for a prior
                     that is itself a distribution (mixture components).

    The last three default to ``None`` (user-defined families): then
    there is no KL oracle, no observation check and no mixture.
    """

    name: str
    support: tuple[float, float]
    log_norm: Callable
    mean: Callable
    mean_deriv: Callable
    stat: Callable
    mean_inv: Callable | None = None
    mean_range: tuple[float, float] | None = None
    jeffreys_shift: tuple[float, float] | None = None
    obs_units: float = 1.0
    prior_ok: Callable[[float, float], bool] | None = None
    prior_rule: str = ""
    posterior_ok: Callable[[float, float, float], bool] | None = None
    log_carrier: Callable | None = None
    sample_space: tuple[float, float, bool] | None = None
    prior_proper: Callable[[float, float], bool] | None = None

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise SpecificationError(
                f"support must be an interval with lo < hi, got {self.support}"
            )
        if self.obs_units <= 0:
            raise SpecificationError("obs_units must be positive")

    # Identical to log_norm except for the binomial, where one
    # observation carries obs_units = n base units.
    def log_prior_base(self, theta):
        return self.log_norm(theta) / self.obs_units


def require_in_support(fam: FamilySpec, theta: float, what: str = "theta") -> None:
    """Raise DomainError unless theta lies strictly inside the support."""
    lo, hi = fam.support
    if isinstance(theta, float):
        ok = lo < theta < hi  # nan and +-inf fail too
    else:
        th = np.asarray(theta, dtype=float)
        ok = ((th > lo) & (th < hi)).all()
    if not ok:
        raise DomainError(
            f"{what}={theta!r} is outside the open support ({lo}, {hi}) "
            f"of family {fam.name}"
        )


def interior_clamp(fam: FamilySpec, theta: float) -> float:
    """Pull theta inside the support by a relative margin of 1e-12."""
    lo, hi = fam.support
    t = float(theta)
    if math.isfinite(lo):
        edge = lo + INTERIOR_MARGIN * max(1.0, abs(lo))
        t = max(t, edge)
    if math.isfinite(hi):
        edge = hi - INTERIOR_MARGIN * max(1.0, abs(hi))
        t = min(t, edge)
    return t


def support_grid(fam: FamilySpec, n: int = 201, cap: float = 12.0) -> np.ndarray:
    """Evenly spaced interior points covering a working window of the support.

    The window is where family invariants get spot-checked, not a claim
    about where the family is defined.
    """
    return interval_grid(*fam.support, n=n, cap=cap)


def interval_grid(lo: float, hi: float, n: int = 201,
                  cap: float = 12.0) -> np.ndarray:
    """Evenly spaced points of (lo, hi), infinite ends cut at +-cap and
    finite ones inset by the interior margin."""
    a = lo if math.isfinite(lo) else -cap
    b = hi if math.isfinite(hi) else cap
    if a >= b:
        raise SpecificationError(f"empty working window for ({lo}, {hi})")
    pad = INTERIOR_MARGIN * max(1.0, abs(a), abs(b))
    if math.isfinite(lo):
        a += max(pad, 1e-9 * (b - a))
    if math.isfinite(hi):
        b -= max(pad, 1e-9 * (b - a))
    return np.linspace(a, b, n)


def fisher_info(fam: FamilySpec, theta):
    """Fisher information: the negated derivative of the mean function."""
    require_in_support(fam, theta)
    info = -np.asarray(fam.mean_deriv(theta), dtype=float)
    if not ((info > 0.0) & (info < np.inf)).all():
        raise SpecificationError(
            f"family {fam.name} reports non-positive Fisher information at "
            f"theta={theta!r}; its mean function is not strictly decreasing there"
        )
    if np.ndim(theta) == 0:
        return float(info)
    # A constant derivative expression evaluates to a 0-d array.
    return np.broadcast_to(info, np.shape(theta)).copy()


def _initial_point(fam: FamilySpec) -> float:
    lo, hi = fam.support
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    if math.isfinite(lo):
        return interior_clamp(fam, lo + 1.0)
    if math.isfinite(hi):
        return interior_clamp(fam, hi - 1.0)
    return 0.0


def _expand_bracket(fam: FamilySpec, target: float) -> tuple[float, float]:
    """Find a <= b with mean(a) >= target >= mean(b).

    The mean function decreases, so one walk runs left to raise it and
    the same walk runs right to lower it, each doubling its step (or
    halving the gap to a finite endpoint) every time.
    """
    start = _initial_point(fam)
    ends = []
    for edge, sign, side in ((fam.support[0], -1.0, "left"),
                             (fam.support[1], 1.0, "right")):
        p, step = start, max(1.0, 0.5 * abs(start))
        for _ in range(BRACKET_MAX_STEPS):
            # left stops at mean(p) >= target, right at mean(p) <= target
            if sign * (float(fam.mean(p)) - target) <= 0.0:
                break
            p = 0.5 * (p + edge) if math.isfinite(edge) else p + sign * step
            step *= 2.0
            p = interior_clamp(fam, p)
        else:
            raise ConvergenceError(
                f"could not bracket mean value {target} from the {side} in "
                f"{BRACKET_MAX_STEPS} expansions for family {fam.name}"
            )
        ends.append(p)
    return ends[0], ends[1]


def _bisect(above: Callable[[float], bool | None], a: float, b: float,
            width: float = 0.0, rel: float = 0.0) -> tuple[float, int]:
    """Halve the bracket between ``a`` and ``b`` onto a sign change.

    ``above(mid)`` is True when the root lies beyond ``mid`` as seen from
    ``a`` (``a`` moves to ``mid``), False when it does not (``b`` moves),
    and None to accept ``mid`` as the root.  ``a`` may exceed ``b``.  The
    loop stops once ``|b - a| <= width + rel * max(1, |a|, |b|)`` or after
    BISECT_MAX_STEPS halvings, and returns the final midpoint (or the
    accepted point) with the number of halvings made.
    """
    for steps in range(1, BISECT_MAX_STEPS + 1):
        mid = 0.5 * (a + b)
        side = above(mid)
        if side is None:
            return mid, steps
        if side:
            a = mid
        else:
            b = mid
        if abs(b - a) <= width + rel * max(1.0, abs(a), abs(b)):
            break
    return 0.5 * (a + b), steps


def mean_inverse(fam: FamilySpec, t: float) -> float:
    """Solve mean(theta) = t for theta.

    Uses the family's analytic inverse when present, otherwise bisection
    after a geometric bracket expansion.  Bisection converges on any
    strictly monotone continuous mean function; no derivative is trusted.
    """
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"mean value {t!r} is not finite")
    if fam.mean_range is not None:
        m_lo, m_hi = fam.mean_range
        if not m_lo < t < m_hi:
            raise DomainError(
                f"mean value {t} is outside the open range ({m_lo}, {m_hi}) "
                f"attained by family {fam.name}"
            )
    if fam.mean_inv is not None:
        theta = float(fam.mean_inv(t))
        require_in_support(fam, theta, what="inverted theta")
        return theta

    a, b = _expand_bracket(fam, t)
    tol = INVERT_RTOL * abs(t) + INVERT_ATOL
    best, best_res = a, abs(float(fam.mean(a)) - t)

    def above(mid: float) -> bool | None:
        nonlocal best, best_res
        val = float(fam.mean(mid))
        res = abs(val - t)
        if res < best_res or res <= tol:
            best, best_res = mid, res
        return None if res <= tol else val > t

    # A point within tol ends the search.  If the bracket runs out of
    # float resolution first, the best point seen is accepted when close.
    _bisect(above, a, b, rel=1e-16)
    if best_res <= 100.0 * tol:
        return best
    raise ConvergenceError(
        f"bisection stalled inverting the mean function of {fam.name} at "
        f"target {t}: best residual {best_res:.3e} exceeds tolerance {tol:.3e}"
    )


def jeffreys_shift_residual(fam: FamilySpec, n: int = 101) -> float:
    """Spread of the quantity that must be constant for the declared shift.

    If sqrt(Fisher) ∝ base^a * exp(-b*theta) then
    0.5*log(Fisher) - a*log_prior_base + b*theta is constant in theta.
    Returns its standard deviation over a working grid (0 means exact).
    """
    if fam.jeffreys_shift is None:
        raise SpecificationError(f"family {fam.name} declares no Jeffreys shift")
    a, b = fam.jeffreys_shift
    grid = support_grid(fam, n=n)
    info = -np.asarray(fam.mean_deriv(grid), dtype=float)
    if np.any(info <= 0):
        raise SpecificationError(
            f"non-positive Fisher information inside the working window of {fam.name}"
        )
    g = 0.5 * np.log(info) - a * np.asarray(fam.log_prior_base(grid)) + b * grid
    return float(np.std(g))


def validate_family(fam: FamilySpec, n: int = 201) -> list[str]:
    """Spot-check the structural requirements on a working grid.

    Returns a list of human-readable violations (empty when everything
    holds).  Checks: mean strictly decreasing, mean_deriv negative and
    consistent with a finite difference of mean, mean consistent with a
    finite difference of log_norm, inverse round-trip, and the declared
    Jeffreys shift.
    """
    problems: list[str] = []
    grid = support_grid(fam, n=n)
    mean_vals = np.asarray(fam.mean(grid), dtype=float)
    if not np.all(np.diff(mean_vals) < 0):
        problems.append("mean function is not strictly decreasing on the working grid")

    # A constant derivative expression evaluates to a 0-d array.
    deriv = np.broadcast_to(np.asarray(fam.mean_deriv(grid), dtype=float),
                            grid.shape)
    if not np.all(deriv < 0):
        problems.append("mean_deriv is not strictly negative on the working grid")

    h = 1e-6 * np.maximum(1.0, np.abs(grid))
    inner = (grid - h > fam.support[0]) & (grid + h < fam.support[1])
    g, hh = grid[inner], h[inner]
    for f, df, name, of in ((fam.mean, deriv, "mean_deriv", "mean"),
                            (fam.log_norm, mean_vals, "mean", "log_norm")):
        fd = (np.asarray(f(g + hh)) - np.asarray(f(g - hh))) / (2 * hh)
        scale = np.maximum(1.0, np.abs(df[inner]))
        if not np.all(np.abs(fd - df[inner]) <= 1e-4 * scale):
            problems.append(f"{name} disagrees with a finite difference of {of}")

    if fam.mean_inv is not None:
        back = np.array([float(fam.mean_inv(v)) for v in mean_vals])
        if not np.allclose(back, grid, rtol=1e-9, atol=1e-9):
            problems.append("mean_inv does not invert mean on the working grid")

    if fam.jeffreys_shift is not None:
        try:
            sd = jeffreys_shift_residual(fam, n=n)
        except SpecificationError as exc:
            problems.append(str(exc))
        else:
            if sd > 1e-8:
                problems.append(
                    f"declared Jeffreys shift is not constant (sd={sd:.3e})"
                )
    return problems


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def _normal_family() -> FamilySpec:
    """Normal with unit variance; theta is the mean, stat(x) = -x."""
    return FamilySpec(
        name="normal_mean_unitvar",
        support=(-math.inf, math.inf),
        log_norm=lambda th: -0.5 * np.square(th),
        mean=lambda th: -np.asarray(th, dtype=float),
        mean_deriv=lambda th: np.full_like(np.asarray(th, dtype=float), -1.0),
        stat=lambda x: -np.asarray(x, dtype=float),
        mean_inv=lambda t: -t,
        mean_range=(-math.inf, math.inf),
        jeffreys_shift=(0.0, 0.0),
        prior_ok=lambda a, lam: a > -1.0,
        prior_rule="alpha > -1 (posterior is then a proper normal for any x)",
        posterior_ok=lambda a, lam, x: True,
        log_carrier=lambda x: -0.5 * np.square(x) - 0.5 * math.log(2.0 * math.pi),
        sample_space=(-math.inf, math.inf, False),
        prior_proper=lambda a, lam: a > 0.0,
    )


def _exponential_family() -> FamilySpec:
    """Exponential observations; theta is the rate, stat(x) = x."""
    return FamilySpec(
        name="exponential_rate",
        support=(0.0, math.inf),
        log_norm=lambda th: np.log(th),
        mean=lambda th: 1.0 / np.asarray(th, dtype=float),
        mean_deriv=lambda th: -1.0 / np.square(np.asarray(th, dtype=float)),
        stat=lambda x: np.asarray(x, dtype=float),
        mean_inv=lambda t: 1.0 / t,
        mean_range=(0.0, math.inf),
        jeffreys_shift=(-1.0, 0.0),
        prior_ok=lambda a, lam: a > -1.0 and lam >= 0.0,
        prior_rule="alpha > -1 and lambda >= 0 (proper posterior for x > 0)",
        posterior_ok=lambda a, lam, x: a > -1.0 and lam + x > 0.0,
        log_carrier=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        sample_space=(0.0, math.inf, False),
        prior_proper=lambda a, lam: a > -1.0 and lam > 0.0,
    )


def expit(t):
    """Logistic sigmoid ``1/(1+exp(-t))``.

    The formula of ``scipy.special.expit``, written out here so that the
    closed-form path never imports scipy (cold start).  Scalars go
    through ``math.exp``, which rounds like scipy's C ``exp``: the result
    is bitwise equal to scipy's.  Arrays go through ``np.exp`` and may
    differ from scipy in the last place.
    """
    if np.ndim(t) == 0:
        try:
            return np.float64(1.0 / (1.0 + math.exp(-float(t))))
        except OverflowError:
            return np.float64(0.0)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=float)))


def _lgamma(x):
    """log Gamma, elementwise: the log factorials in the count carriers."""
    return np.fromiter(map(math.lgamma, np.ravel(x).tolist()), float).reshape(np.shape(x))


def _binomial_family(n: int) -> FamilySpec:
    """Binomial with n trials; theta is the negated log-odds of success.

    Success probability p = 1/(1+exp(theta)), stat(x) = x = number of
    successes.  The conjugate prior uses the per-trial base, so a single
    n-trial observation adds n units to the alpha exponent; in the
    success-probability parameterization the prior is Beta(lambda,
    alpha - lambda).
    """
    if n < 1:
        raise SpecificationError(f"binomial trial count must be >= 1, got {n}")
    nf = float(n)
    return FamilySpec(
        name=f"binomial_logit({n})",
        support=(-math.inf, math.inf),
        log_norm=lambda th: -nf * np.logaddexp(0.0, -np.asarray(th, dtype=float)),
        mean=lambda th: nf * expit(-np.asarray(th, dtype=float)),
        mean_deriv=lambda th: -nf * expit(th) * expit(-np.asarray(th, dtype=float)),
        stat=lambda x: np.asarray(x, dtype=float),
        mean_inv=lambda t: math.log(nf / t - 1.0),
        mean_range=(0.0, nf),
        jeffreys_shift=(1.0, 0.5),
        obs_units=nf,
        prior_ok=lambda a, lam: lam >= 0.0 and a >= lam,
        prior_rule=(
            "0 <= lambda <= alpha (Beta(lambda, alpha - lambda) on the "
            "success probability; strict propriety is checked per observation)"
        ),
        posterior_ok=lambda a, lam, x: lam + x > 0.0 and a + nf - lam - x > 0.0,
        log_carrier=lambda x: (math.lgamma(nf + 1.0) - _lgamma(x + 1.0)
                               - _lgamma(nf - x + 1.0)),
        sample_space=(0, n, True),
        prior_proper=lambda a, lam: 0.0 < lam < a,
    )


def _poisson_family() -> FamilySpec:
    """Poisson counts; theta is the negated log of the rate, stat(x) = x.

    Extra built-in beyond the three canonical families above; its
    formulas are derived from first principles here and are exercised
    only by this package's own oracles, not by any external closed-form
    catalogue.  The rate is exp(-theta), and the conjugate prior is
    Gamma(lambda, rate=alpha) on the rate scale.
    """
    return FamilySpec(
        name="poisson_neglograte",
        support=(-math.inf, math.inf),
        log_norm=lambda th: -np.exp(-np.asarray(th, dtype=float)),
        mean=lambda th: np.exp(-np.asarray(th, dtype=float)),
        mean_deriv=lambda th: -np.exp(-np.asarray(th, dtype=float)),
        stat=lambda x: np.asarray(x, dtype=float),
        mean_inv=lambda t: -math.log(t),
        mean_range=(0.0, math.inf),
        jeffreys_shift=(0.0, 0.5),
        prior_ok=lambda a, lam: a > -1.0 and lam >= 0.0,
        prior_rule="alpha > -1 and lambda >= 0 (proper posterior for x >= 1, "
                   "or x = 0 with lambda > 0)",
        posterior_ok=lambda a, lam, x: lam + x > 0.0,
        log_carrier=lambda x: -_lgamma(x + 1.0),
        sample_space=(0, math.inf, True),
        prior_proper=lambda a, lam: a > 0.0 and lam > 0.0,
    )


_BINOMIAL_RE = re.compile(r"^(?:binomial_logit|binomial)\(\s*(?:n\s*=\s*)?(\d+)\s*\)$")

_ALIASES = {
    "normal": "normal_mean_unitvar",
    "normal_mean_unitvar": "normal_mean_unitvar",
    "exponential": "exponential_rate",
    "exponential_rate": "exponential_rate",
    "poisson": "poisson_neglograte",
    "poisson_neglograte": "poisson_neglograte",
}

FAMILIES: dict[str, Callable[[], FamilySpec]] = {
    "normal_mean_unitvar": _normal_family,
    "exponential_rate": _exponential_family,
    "poisson_neglograte": _poisson_family,
}


def builtin_family(name: str) -> FamilySpec:
    """Construct a built-in family from its name.

    Accepts canonical names (``normal_mean_unitvar``, ``exponential_rate``,
    ``binomial_logit(n)``, ``poisson_neglograte``) and the obvious short
    aliases (``normal``, ``exponential``, ``binomial(n)``, ``poisson``).
    """
    key = name.strip().lower()
    m = _BINOMIAL_RE.match(key)
    if m:
        return _binomial_family(int(m.group(1)))
    if key in ("binomial", "binomial_logit"):
        raise SpecificationError(
            "binomial family needs a trial count, e.g. binomial_logit(5)"
        )
    canon = _ALIASES.get(key)
    if canon is None:
        raise SpecificationError(
            f"unknown family {name!r}; built-ins are normal_mean_unitvar, "
            "exponential_rate, binomial_logit(n), poisson_neglograte"
        )
    return FAMILIES[canon]()


def check_prior_ok(fam: FamilySpec, alpha: float, lam: float) -> None:
    """Raise ProprietyError if (alpha, lam) violates the family predicate.

    Families without a predicate (user-defined ones) are accepted with a
    warning: propriety is then the caller's responsibility.
    """
    if fam.prior_ok is None:
        warnings.warn(
            f"family {fam.name} has no propriety predicate; accepting "
            f"(alpha={alpha}, lambda={lam}) unchecked",
            stacklevel=2,
        )
        return
    if not fam.prior_ok(alpha, lam):
        raise ProprietyError(
            f"(alpha={alpha}, lambda={lam}) violates the propriety rule for "
            f"{fam.name}: {fam.prior_rule}"
        )


def check_observation(fam: FamilySpec, x: float) -> None:
    """Raise DomainError unless x is finite and in the family's sample space."""
    if not math.isfinite(x):
        raise DomainError(f"observation x={x} is not finite")
    if fam.sample_space is None:
        return
    lo, hi, integers = fam.sample_space
    if not (lo <= x <= hi and (not integers or float(x).is_integer())):
        kind = "integers in " if integers else ""
        raise DomainError(
            f"observation x={x} is outside the sample space ({kind}[{lo}, {hi}]) "
            f"of {fam.name}"
        )


def check_posterior_ok(fam: FamilySpec, alpha: float, lam: float, x: float) -> None:
    """Raise DomainError for an impossible observation, ProprietyError if
    the posterior at x would be improper.  Every family, a custom one
    included, needs ``alpha + obs_units > 0``: the closed-form posterior
    mean divides by it."""
    check_observation(fam, x)
    ok = fam.posterior_ok is None or fam.posterior_ok(alpha, lam, x)
    if not (ok and alpha + fam.obs_units > 0):
        raise ProprietyError(
            f"observation x={x} with (alpha={alpha}, lambda={lam}) gives an "
            f"improper posterior (or infinite posterior mean) for {fam.name}"
        )
