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
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError, DomainError, ProprietyError, SpecificationError

__all__ = ["FamilySpec", "builtin_family", "fisher_info", "mean_inverse",
           "validate_family"]

INTERIOR_MARGIN = 1e-12

# Numeric inversion of the mean function.
INVERT_RTOL = 1e-12
INVERT_ATOL = 1e-14
BRACKET_MAX_STEPS = 200


@dataclass(frozen=True)
class FamilySpec:
    """Bundle of mappings defining one exponential family.

    Fields
    ------
    name:            identifier, e.g. ``"binomial_logit(5)"``.
    support:         open interval of admissible natural parameters.
    log_norm:        log of the normalizing factor, vectorized in theta.
    mean:            derivative of ``log_norm``; strictly decreasing, never constant.
    mean_deriv:      derivative of ``mean``; strictly negative.
    stat:            sufficient statistic as a function of the data.
    mean_inv:        analytic inverse of ``mean`` when one is known; only
                     called on the open ``mean_range`` when that is set.
    mean_range:      closure of the image of ``mean``.
    jeffreys_shift:  ``(a, b)`` with sqrt(Fisher) ∝ base^a * exp(-b*theta),
                     or ``None`` when no such pair exists / is known.
    obs_units:       prior-base units one observation adds to ``alpha``.
    log_carrier:     log of ``carrier(x)``, vectorized in x.
    sample_space:    ``(lo, hi, integers)``: observations lie in [lo, hi],
                     on its integers (lo finite) when ``integers`` is true.
    propriety:       rows ``(c_alpha, c_lam, c_0, strict)``: a standard prior
                     is a distribution when each ``c_alpha*alpha + c_lam*lam
                     + c_0`` is ``> 0`` (``>= 0`` if not strict).  They need
                     ``sample_space``; ``check_*_ok`` derive the other rules.

    The last three default to ``None`` (user-defined families): then there
    is no KL oracle, no observation or propriety check and no mixture.

    The mappings in theta, ``stat`` and ``log_carrier`` are called with a
    float or a float ndarray and convert nothing themselves; callers
    holding anything else convert it first.  Each returns its argument's
    shape, constant or not (a config ``mean_deriv`` of ``"-1"`` works as
    written): a scalar for a float, an array of that shape for an array.
    Built-in and config mappings are written over the primitives below
    (``_exp``, ``_log``, ``_div``, ``_pow``, ...), which compute a Python
    float (an ``np.float64`` too) with ``math``, so the closed-form path
    never loads numpy, and an array with the lazy ``np`` handle.  ``math``
    and numpy may round ``exp``, ``log`` and ``^`` differently in the last
    place, so a mapping's float value may differ from its array value there.
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
    log_carrier: Callable | None = None
    sample_space: tuple[float, float, bool] | None = None
    propriety: tuple[tuple[float, float, float, bool], ...] | None = None

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise SpecificationError(
                f"support must be an interval with lo < hi, got {self.support}"
            )
        if self.mean_range is not None and not self.mean_range[0] < self.mean_range[1]:
            raise SpecificationError(
                f"mean_range must be an interval with lo < hi, got {self.mean_range}")
        shift = self.jeffreys_shift
        if shift is not None and not all(map(math.isfinite, shift)):
            raise SpecificationError(
                f"jeffreys_shift must be two finite numbers, got {shift}")
        if not 0 < self.obs_units < math.inf:
            raise SpecificationError(
                f"obs_units must be positive and finite, got {self.obs_units}")
        if self.propriety is not None and self.sample_space is None:
            raise SpecificationError(f"{self.name}: propriety rows need a sample space")

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


def support_grid(fam: FamilySpec) -> np.ndarray:
    """201 evenly spaced interior points of a working window of the support.

    The window, ``interval_grid`` with a cap of 12, is where family
    invariants get spot-checked, not a claim about where the family is
    defined.
    """
    return interval_grid(*fam.support, 201, 12.0)


def interval_grid(lo: float, hi: float, n: int, cap: float) -> np.ndarray:
    """Evenly spaced points of (lo, hi), finite ends inset by the interior
    margin.  An infinite end is cut at +-cap, or at cap beyond the finite
    end when that lies at or past the cut."""
    a = lo if math.isfinite(lo) else -cap if hi > -cap else hi - cap
    b = hi if math.isfinite(hi) else cap if lo < cap else lo + cap
    if a >= b:
        raise SpecificationError(f"empty working window for ({lo}, {hi})")
    pad = INTERIOR_MARGIN * max(1.0, abs(a), abs(b))
    if math.isfinite(lo):
        a += max(pad, 1e-9 * (b - a))
    if math.isfinite(hi):
        b -= max(pad, 1e-9 * (b - a))
    return np.linspace(a, b, n)


def fisher_info(fam: FamilySpec, theta):
    """Fisher information: the negated derivative of the mean function.
    A float gives a Python float, an array an array."""
    require_in_support(fam, theta)
    if isinstance(theta, float):
        info = -float(fam.mean_deriv(float(theta)))
        if 0.0 < info < math.inf:
            return info
        raise _bad_information(fam, float(theta), info)
    th = np.asarray(theta, dtype=float)
    with np.errstate(all="ignore"):  # a value out of range is refused below
        info = -np.asarray(fam.mean_deriv(th), dtype=float)
    ok = (info > 0.0) & (info < np.inf)
    if not ok.all():
        raise _bad_information(fam, float(th[~ok][0]), float(info[~ok][0]))
    return float(info) if th.ndim == 0 else info


def _bad_information(fam: FamilySpec, theta: float, info: float) -> Exception:
    """The refusal of a Fisher information that is not positive and finite."""
    if info == math.inf:  # an overflow, not the family's fault
        return DomainError(f"the Fisher information of {fam.name} at theta={theta!r} "
                           "is infinite: it overflows the float range there")
    return SpecificationError(
        f"family {fam.name} reports non-positive Fisher information at "
        f"theta={theta!r}; its mean function is not strictly decreasing there")


def _initial_point(fam: FamilySpec) -> float:
    lo, hi = fam.support
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    if math.isfinite(lo):
        return interior_clamp(fam, lo + 1.0)
    if math.isfinite(hi):
        return interior_clamp(fam, hi - 1.0)
    return 0.0


def _expand_bracket(fam: FamilySpec, target: float):
    """``(a, mean(a)), (b, mean(b))`` with a <= b and mean(a) >= target >= mean(b).

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
            m = float(fam.mean(p))
            # left stops at mean(p) >= target, right at mean(p) <= target
            if sign * (m - target) <= 0.0:
                break
            p = 0.5 * (p + edge) if math.isfinite(edge) else p + sign * step
            step *= 2.0
            p = interior_clamp(fam, p)
        else:
            raise ConvergenceError(
                f"could not bracket mean value {target} from the {side} in "
                f"{BRACKET_MAX_STEPS} expansions for family {fam.name}"
            )
        ends.append((p, m))
    return ends[0], ends[1]


def _itp(f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
         width: float) -> tuple[float, int]:
    """Root of ``f`` on a bracket with ``f(a) >= 0 >= f(b)``, by ITP: the
    package's one shared bracketing solver.

    Interpolate, truncate, project (Oliveira & Takahashi, ACM TOMS 47(1),
    2020) with kappa1 = 0.2/|b - a|, kappa2 = 2 and n0 = 1: each step
    takes the secant point, pulls it toward the midpoint, and keeps it
    close enough to the midpoint that no call needs more than
    ceil(log2(|b - a| / width)) + 1 evaluations of ``f``, one more than
    bisection's worst case.  ``fa`` and ``fb`` are the end values the
    caller already has; an exact 0 among them or among later values is
    returned at once.  ``a`` may exceed ``b``; ``width`` must be positive.
    Stops once ``|b - a| <= width`` and returns the midpoint (or the exact
    root), with the number of evaluations of ``f`` it made.
    """
    if fa == 0.0:
        return a, 0
    if fb == 0.0:
        return b, 0
    span = abs(b - a)
    n_max = max(0, math.ceil(math.log2(span / width))) + 1
    kappa1 = 0.2 / span
    evaluations = 0
    while evaluations < n_max and abs(b - a) > width:
        length, mid = abs(b - a), 0.5 * (a + b)
        share = fa / (fa - fb)  # nan or off [0, 1] once f misbehaves
        x_f = a + share * (b - a) if 0.0 <= share <= 1.0 else mid
        toward = math.copysign(1.0, mid - x_f)
        # at least half the stop width: a secant point that rounds onto an
        # end would otherwise leave it in place until projection forced halving
        delta = max(kappa1 * length * length, 0.5 * width)
        x_t = x_f + toward * delta if delta <= abs(mid - x_f) else mid
        r = 0.5 * (width * 2.0 ** (n_max - evaluations) - length)
        x = x_t if abs(x_t - mid) <= r else mid - toward * r
        y = f(x)
        evaluations += 1
        if y == 0.0:
            return x, evaluations
        if y > 0.0:
            a, fa = x, y
        else:
            b, fb = x, y
    return 0.5 * (a + b), evaluations


def mean_inverse(fam: FamilySpec, t: float) -> float:
    """Solve mean(theta) = t for theta.

    Uses the family's analytic inverse when present.  Otherwise
    ``_expand_bracket`` walks out from the middle of the support (or one
    unit inside a lone finite end) to a bracket, and ``_itp`` solves on it:
    a point whose mean is within ``INVERT_RTOL * |t| + INVERT_ATOL`` of
    ``t`` is returned at once, and the solver stops at a bracket of
    1e-16 * max(1, |a|, |b|) of the first one.  Its answer is accepted if
    its mean is within 100 times that tolerance.  Any strictly monotone
    continuous mean function converges; no derivative is trusted.
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

    (a, mean_a), (b, mean_b) = _expand_bracket(fam, t)
    tol = INVERT_RTOL * abs(t) + INVERT_ATOL

    def gap(theta: float) -> float:  # 0 within the tolerance: _itp stops there
        g = float(fam.mean(theta)) - t
        return 0.0 if abs(g) <= tol else g

    ga, gb = mean_a - t, mean_b - t  # gap at the ends, from the means the walk read
    theta, _ = _itp(gap, a, b, 0.0 if abs(ga) <= tol else ga, 0.0 if abs(gb) <= tol else gb,
                    1e-16 * max(1.0, abs(a), abs(b)))
    res = abs(float(fam.mean(theta)) - t)
    if res <= 100.0 * tol:
        return theta
    raise ConvergenceError(
        f"bisection stalled inverting the mean function of {fam.name} at "
        f"target {t}: residual {res:.3e} exceeds 100 times the tolerance {tol:.3e}"
    )


def jeffreys_shift_residual(fam: FamilySpec) -> float:
    """Spread of the quantity that must be constant for the declared shift.

    If sqrt(Fisher) ∝ base^a * exp(-b*theta) then
    0.5*log(Fisher) - a*log_prior_base + b*theta is constant in theta.
    Returns its standard deviation over the working grid (0 means exact).
    """
    if fam.jeffreys_shift is None:
        raise SpecificationError(f"family {fam.name} declares no Jeffreys shift")
    a, b = fam.jeffreys_shift
    grid = support_grid(fam)
    g = (0.5 * np.log(fisher_info(fam, grid))
         - a * np.asarray(fam.log_prior_base(grid)) + b * grid)
    return float(np.std(g))


def validate_family(fam: FamilySpec) -> list[str]:
    """Spot-check the structural requirements on the working grid.

    Returns a list of human-readable violations (empty when everything
    holds).  A ``mean`` or ``mean_deriv`` not of the grid's shape is the
    only violation then reported; a constant one such as ``"-1"`` from a
    config has that shape.  Checks: mean strictly decreasing (a constant
    mean is refused), mean_deriv negative and consistent with a finite
    difference of mean, mean consistent with a finite difference of
    log_norm, mean inside the open ``mean_range``, inverse round-trip,
    and the declared Jeffreys shift.  A refusal lists its problems, with
    no numpy warnings.
    """
    with np.errstate(all="ignore"):
        grid = support_grid(fam)
        mean_vals = np.asarray(fam.mean(grid), dtype=float)
        deriv = np.asarray(fam.mean_deriv(grid), dtype=float)
        for name, vals in (("mean", mean_vals), ("mean_deriv", deriv)):
            if vals.shape != grid.shape:
                return [f"{name} returns shape {vals.shape} on a grid of shape {grid.shape}"]

        problems: list[str] = []
        if not np.all(np.diff(mean_vals) < 0):
            problems.append("mean function is not strictly decreasing on the working grid")
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

        if fam.mean_range is not None:
            lo, hi = fam.mean_range
            if not np.all((mean_vals > lo) & (mean_vals < hi)):
                problems.append(f"mean leaves the open mean_range ({lo}, {hi}) "
                                "on the working grid")

        if fam.mean_inv is not None:
            back = np.array([float(fam.mean_inv(v)) for v in mean_vals])
            if not np.allclose(back, grid, rtol=1e-9, atol=1e-9):
                problems.append("mean_inv does not invert mean on the working grid")

        if fam.jeffreys_shift is not None:
            try:
                sd = jeffreys_shift_residual(fam)
            except (DomainError, SpecificationError) as exc:
                problems.append(str(exc))
            else:
                if not sd <= 1e-8:  # nan too
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
        log_norm=lambda th: -0.5 * (th * th),
        mean=lambda th: -th,
        mean_deriv=lambda th: _full(th, -1.0),
        stat=lambda x: -x,
        mean_inv=lambda t: -t,
        mean_range=(-math.inf, math.inf),
        jeffreys_shift=(0.0, 0.0),
        log_carrier=lambda x: -0.5 * (x * x) - 0.5 * math.log(2.0 * math.pi),
        sample_space=(-math.inf, math.inf, False),
        propriety=((1.0, 0.0, 0.0, True),),  # prior N(-lambda/alpha, 1/alpha)
    )


def _exponential_family() -> FamilySpec:
    """Exponential observations; theta is the rate, stat(x) = x."""
    return FamilySpec(
        name="exponential_rate",
        support=(0.0, math.inf),
        log_norm=lambda th: _log(th),
        mean=lambda th: 1.0 / th,
        mean_deriv=lambda th: -_div(1.0, th * th),
        stat=lambda x: x,
        mean_inv=lambda t: 1.0 / t,
        mean_range=(0.0, math.inf),
        jeffreys_shift=(-1.0, 0.0),
        log_carrier=lambda x: _full(x, 0.0),
        sample_space=(0.0, math.inf, False),
        # prior Gamma(alpha + 1, rate lambda)
        propriety=((1.0, 0.0, 1.0, True), (0.0, 1.0, 0.0, True)),
    )


class _Numpy:
    """numpy, imported at the first attribute read: the package's one
    import of it, which every module reads as ``np``.  Each attribute read
    is stored on the handle, so later reads never reach ``__getattr__``.
    A name that starts with ``_`` is refused without loading numpy: tools
    probe objects for such names (``inspect.unwrap`` reads ``__wrapped__``)."""

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()

# The functions the built-in mappings and compiled expressions are written
# over.  A Python float (an np.float64 too) is computed with math, giving
# numpy's inf or nan and no warning where math would raise; anything else with
# numpy (``np``, loaded at its first read).

_LOG2 = math.log(2.0)


def _exp(t):
    """``exp``: an overflow is inf."""
    if isinstance(t, float):
        try:
            return math.exp(t)
        except OverflowError:
            return math.inf
    return np.exp(t)


def _log(t):
    """``log``: 0 gives -inf, a negative number nan."""
    if isinstance(t, float):
        if t > 0.0 or t != t:
            return math.log(t)
        return -math.inf if t == 0.0 else math.nan
    return np.log(t)


def _log1p_exp(t):
    """``log(1 + exp(t))``, numpy's ``logaddexp(0, t)`` and its branches:
    no exponential that can overflow is taken."""
    if isinstance(t, float):
        if t == 0.0:
            return _LOG2
        if t < 0.0:
            return math.log1p(math.exp(t))
        return t + math.log1p(math.exp(-t))  # nan too
    return np.logaddexp(0.0, t)


def _div(a, b):
    """``a/b``: a float over 0 is signed inf, or nan for 0/0 and nan/0."""
    if isinstance(b, float) and b == 0.0 and isinstance(a, float):
        return float(a) * math.copysign(math.inf, b) if a == a != 0.0 else math.nan
    return a / b


def _pow(a, b):
    """``a^b``: a negative base to a non-integer power is nan; an overflow,
    or 0 to a negative power, inf, with the base's sign for an odd power."""
    if not (isinstance(a, float) and isinstance(b, float)):
        return np.power(a, b)
    try:
        return math.pow(a, b)
    except (OverflowError, ValueError):
        if a < 0.0 and b % 1.0:
            return math.nan
        return math.copysign(math.inf, a if b % 2.0 == 1.0 else 1.0)


def _full(t, value: float):
    """``value`` in the shape of ``t``."""
    if isinstance(t, float):
        return value
    return np.full_like(t, value)


def expit(t):
    """Logistic sigmoid ``1/(1+exp(-t))``.

    The formula of ``scipy.special.expit``, written out here so that the
    closed-form path never imports scipy (cold start).  A float goes
    through ``math.exp``, which rounds like scipy's C ``exp``: the result
    is bitwise equal to scipy's.  Arrays go through ``np.exp`` and may
    differ from scipy in the last place.
    """
    if isinstance(t, float):
        return 1.0 / (1.0 + _exp(-t))
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=float)))


def _lgamma(x):
    """log Gamma, elementwise: the log factorials in the count carriers."""
    if isinstance(x, float):
        return math.lgamma(x)
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
        log_norm=lambda th: -nf * _log1p_exp(-th),
        mean=lambda th: nf * expit(-th),
        mean_deriv=lambda th: -nf * expit(th) * expit(-th),
        stat=lambda x: x,
        mean_inv=lambda t: math.log(nf / t - 1.0),
        mean_range=(0.0, nf),
        jeffreys_shift=(1.0, 0.5),
        obs_units=nf,
        log_carrier=lambda x: (math.lgamma(nf + 1.0) - _lgamma(x + 1.0)
                               - _lgamma(nf - x + 1.0)),
        sample_space=(0, n, True),
        propriety=((0.0, 1.0, 0.0, True), (1.0, -1.0, 0.0, True)),
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
        log_norm=lambda th: -_exp(-th),
        mean=lambda th: _exp(-th),
        mean_deriv=lambda th: -_exp(-th),
        stat=lambda x: x,
        mean_inv=lambda t: -math.log(t),
        mean_range=(0.0, math.inf),
        jeffreys_shift=(0.0, 0.5),
        log_carrier=lambda x: -_lgamma(x + 1.0),
        sample_space=(0, math.inf, True),
        propriety=((1.0, 0.0, 0.0, True), (0.0, 1.0, 0.0, True)),
    )


_BINOMIAL_RE = re.compile(r"^(?:binomial_logit|binomial)\(\s*(?:n\s*=\s*)?(\d+)\s*\)$")

# Every accepted spelling of a family without parameters.
_BUILTINS: dict[str, Callable[[], FamilySpec]] = {
    "normal": _normal_family,
    "normal_mean_unitvar": _normal_family,
    "exponential": _exponential_family,
    "exponential_rate": _exponential_family,
    "poisson": _poisson_family,
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
    make = _BUILTINS.get(key)
    if make is None:
        raise SpecificationError(
            f"unknown family {name!r}; built-ins are normal_mean_unitvar, "
            "exponential_rate, binomial_logit(n), poisson_neglograte"
        )
    return make()


def _broken(rows, alpha: float, lam: float, u: float = 0.0, r: float = 0.0):
    """The first row that ``(alpha + u, lam + r)`` breaks, or None.  Each
    row is one exact sum of its separate terms, so neither ``alpha + u``
    nor ``lam + r`` is rounded first."""
    for row in rows:
        ca, cl, c0, strict = row
        # a zero c_lam drops its terms: 0 * inf is nan when a custom stat(x) overflows
        terms = ((c0, ca * alpha, ca * u, cl * lam, cl * r) if cl
                 else (c0, ca * alpha, ca * u))
        try:
            v = math.fsum(terms)
        except OverflowError:  # a partial sum left the float range: the sum
            v = math.fsum(t / 16.0 for t in terms)  # of sixteenths keeps the sign
        if not (v > 0.0 if strict else v >= 0.0):
            return row
    return None


def _inequality(row, stat: str = "") -> str:
    """A row as text, e.g. ``alpha - lambda >= 0``.  A ``stat`` name adds
    the term ``c_lam*stat``, as the row reads at a conjugate update."""
    ca, cl, c0, strict = row
    text = ""
    for c, name in zip((ca, cl, cl if stat else 0.0, c0),
                       ("*alpha", "*lambda", f"*{stat}", "")):
        if c:
            term = f"{abs(c):g}{name}".removeprefix("1*")
            text += ((" - " if c < 0 else " + ") if text else "-" * (c < 0)) + term
    return f"{text or '0'} {'>' if strict else '>='} 0"


def _prior_text(alpha: float, lam: float, jcp: tuple[float, float] | None) -> str:
    """A standard prior as a refusal names it, after ``jcp``, the jcp
    prior it stands for, when there is one."""
    prior = f"(alpha={alpha}, lambda={lam})"
    if jcp is None:
        return prior
    return (f"the jcp prior (alpha={jcp[0]}, lambda={jcp[1]}), whose "
            f"standard equivalent is {prior},")


def check_prior_ok(fam: FamilySpec, points, jcp=None) -> None:
    """Raise ProprietyError, naming the broken inequality, unless every
    standard prior ``(alpha, lam)`` in ``points`` passes
    ``check_posterior_ok`` at every x strictly inside the hull of the
    sample space.  The family must have propriety rows.  ``jcp`` lists
    the jcp priors that ``points`` stand for, if any; a refusal names
    its one too."""
    # alpha + u > 0 and each row at (alpha + u, lam + stat(x)); a row in lam holds
    # for all such x iff it holds, not strictly, at the least c_lam*stat of the ends.
    u, (lo, hi, _) = fam.obs_units, fam.sample_space
    rows = [(1.0, 0.0, u, True)]
    for ca, cl, c0, strict in fam.propriety:
        if cl:
            c0 += min(cl * float(fam.stat(float(lo))), cl * float(fam.stat(float(hi))))
            strict = False
        rows.append((ca, cl, c0 + ca * u, strict))
    for i, (alpha, lam) in enumerate(points):
        row = _broken(rows, alpha, lam)
        if row is not None:
            prior = _prior_text(alpha, lam, None if jcp is None else jcp[i])
            raise ProprietyError(f"{prior} violates the propriety rule "
                                 f"{_inequality(row)} of {fam.name}")


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


def _observed_stat(fam: FamilySpec, x: float) -> float:
    """``stat(x)`` as a Python float, the one gate of an observation: a
    DomainError for an x that ``check_observation`` refuses, or where the
    statistic is not finite."""
    check_observation(fam, x)
    r = float(fam.stat(float(x)))
    if not math.isfinite(r):
        raise DomainError(f"the statistic of {fam.name} at observation x={x} is {r}, "
                          "not a finite number")
    return r


def check_posterior_ok(fam: FamilySpec, alpha: float, lam: float, x: float,
                       r: float, jcp: tuple[float, float] | None = None) -> None:
    """Raise ProprietyError if the posterior at x (``r = stat(x)``, from
    ``_observed_stat``, which checks x) would be improper: every family
    needs ``alpha + obs_units > 0``, since the closed-form posterior mean
    divides by it, and every row must hold at ``(alpha + obs_units, lam + r)``.
    A refusal names ``jcp``, the jcp prior that ``(alpha, lam)`` stand for, too."""
    u = fam.obs_units
    row = _broken(((1.0, 0.0, 0.0, True),) + (fam.propriety or ()), alpha, lam, u, r)
    if row is not None:
        ca, cl, c0, strict = row
        rule = _inequality((ca, cl, c0 + ca * u, strict), "x" if r == x else "stat(x)")
        raise ProprietyError(
            f"observation x={x} with {_prior_text(alpha, lam, jcp)} gives an "
            f"improper posterior for {fam.name}: it violates {rule}"
        )
