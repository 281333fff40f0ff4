"""closed_form_sweep and custom_family_sweep: in-process estimator streams.

Both workloads issue the same seeded call mix.  ``closed_form_sweep``
runs it on the four built-in families, whose mean functions have
analytic inverses.  ``custom_family_sweep`` runs it on expression
"twins" of the built-ins built with ``family_from_config``; they have no
analytic inverse, so every Bayes action bisects and every mapping goes
through ``expressions.Expression``.

A round holds, for each family, 2 ``bayes_estimate`` calls, 6
``prgm_from_bounds`` calls, one wide ``prgm_conjugate_box`` and one wide
``iprgm_jcp_box`` (plus ``transport``) call, and one very narrow box (a
``prgm_conjugate_box`` call on normal and binomial, an ``iprgm_jcp_box``
call on exponential and poisson), so the degenerate-midpoint branch runs
next to the closed-form equalizer.  The weights put the median call well
inside the ``prgm_from_bounds`` cluster of call costs on both sweeps: the
median of a mixture that falls in the gap between two clusters jumps
with noise.  The weights serve that steadiness, and the median call,
``prgm_from_bounds``, inverts no mean function: on the twins, bisection
in ``mean_inverse`` shows in ``ops_per_s``, not in the median
latency.  Every round also carries the fixed large-x slice: four
exponential calls at x in [1e8, 1e9] that do not depend on the seed.
The built-in family answers them; the expression twin fails them with
``ConvergenceError`` (bisection stops on an absolute width of 1e-16
while theta is near 1e-9), and those failures are counted, not hidden.
"""

from __future__ import annotations

import math
import random
import statistics
import time
import warnings
from array import array
from functools import partial

import reference as ref
from harness import metric

FAMILY_KEYS = ("normal", "exponential", "binomial_logit(5)", "poisson")

# Expression twins of the built-ins.  A config family counts one unit of
# alpha per observation, so the binomial twin's alpha is the built-in's
# divided by n = 5, and its sqrt-Fisher shift is (1/5, 1/2).
TWINS = {
    "normal": {
        "name": "normal_twin", "support": [None, None],
        "log_norm": "-theta^2/2", "mean": "-theta",
        # "-1" alone breaks validate_family (a 0-d array); see CHANGES.md
        "mean_deriv": "0*theta - 1", "stat": "-x",
        "mean_range": [None, None], "jeffreys_shift": [0, 0],
    },
    "exponential": {
        "name": "exponential_twin", "support": [0, None],
        "log_norm": "log(theta)", "mean": "1/theta", "mean_deriv": "-1/theta^2",
        "mean_range": [0, None], "jeffreys_shift": [-1, 0],
    },
    "binomial_logit(5)": {
        "name": "binomial5_twin", "support": [None, None],
        "log_norm": "-5*log(1 + exp(-theta))", "mean": "5/(1 + exp(theta))",
        "mean_deriv": "-5*exp(theta)/(1 + exp(theta))^2",
        "mean_range": [0, 5], "jeffreys_shift": [0.2, 0.5],
    },
    "poisson": {
        "name": "poisson_twin", "support": [None, None],
        "log_norm": "-exp(-theta)", "mean": "exp(-theta)",
        "mean_deriv": "-exp(-theta)", "mean_range": [0, None],
        "jeffreys_shift": [0, 0.5],
    },
}
TWIN_ALPHA_UNITS = {"binomial_logit(5)": 5.0}

# (kind, narrow) of the seeded calls per family and round; the narrow
# box is a jcp box on every other family.
MIX = (("bayes", False),) * 2 + (("bounds", False),) * 6 + (("box", False), ("jcp", False))
# Fixed large-x slice: (kind, (a_lo, a_hi, l_lo, l_hi), x) on exponential.
LARGE_X = (
    ("bayes", (2.0, 2.0, 1.0, 1.0), 2.5e8),
    ("box", (1.0, 3.0, 1.0, 2.0), 1.0e8),
    ("jcp", (1.0, 3.0, 1.0, 2.0), 5.0e8),
    ("box", (0.5, 2.5, 0.5, 1.5), 1.0e9),
)
EXPECTED_FAILURE = "bisection stalled inverting the mean function"
POOL_ROUNDS = 64
NARROW_REL = 1e-13
EST_REL = 1e-9
REGRET_REL = 1e-7
REGRET_ABS = 1e-12


class Op:
    """One estimator call: inputs in built-in units plus the bound call."""

    __slots__ = ("kind", "key", "params", "x", "call", "large_x")

    def __init__(self, kind, key, params, x, large_x=False):
        self.kind, self.key, self.params, self.x = kind, key, params, x
        self.large_x = large_x
        self.call = None

    def describe(self) -> str:
        return f"{self.kind} {self.key} {self.params} x={self.x!r}"


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def _pair(rng, lo, hi):
    a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
    return min(a, b), max(a, b)


def draw_box(rng, key, jcp):
    """(a_lo, a_hi, l_lo, l_hi), x in built-in units, proper on every corner."""
    if key == "normal":
        a, l = _pair(rng, -0.5, 3.0), _pair(rng, -2.0, 2.0)
        x = rng.uniform(-3.0, 3.0)
    elif key == "exponential":
        a, l = _pair(rng, 0.3 if jcp else -0.5, 3.0), _pair(rng, 0.1, 3.0)
        x = rng.uniform(0.2, 5.0)
    elif key == "binomial_logit(5)":
        l = _pair(rng, 0.2, 2.0)
        a_lo = l[1] + rng.uniform(0.1, 1.0)
        a = (a_lo, a_lo + rng.uniform(0.1, 3.0))
        x = float(rng.randint(0, 5))
    else:
        a, l = _pair(rng, -0.5, 3.0), _pair(rng, 0.1, 3.0)
        x = float(rng.randint(0, 12))
    return (a[0], a[1], l[0], l[1]), x


def _narrow(box):
    a_lo, _, l_lo, _ = box
    return (a_lo, a_lo + NARROW_REL * max(1.0, abs(a_lo)),
            l_lo, l_lo + NARROW_REL * max(1.0, abs(l_lo)))


def draw_round(rng) -> list[Op]:
    ops = []
    for i, key in enumerate(FAMILY_KEYS):
        fam = ref.FAMILIES[key]
        for kind, narrow in MIX + ((("box", "jcp")[i % 2], True),):
            box, x = draw_box(rng, key, kind == "jcp")
            if kind == "bayes":
                a = rng.uniform(box[0], box[1])
                l = rng.uniform(box[2], box[3])
                ops.append(Op(kind, key, (a, a, l, l), x))
            elif kind == "bounds":
                ests = fam.corners(box, x)
                ops.append(Op(kind, key, (min(ests), max(ests)), x))
            else:
                ops.append(Op(kind, key, _narrow(box) if narrow else box, x))
    ops.extend(Op(kind, "exponential", box, x, large_x=True) for kind, box, x in LARGE_X)
    rng.shuffle(ops)
    return ops


def _call_bayes(gm, fam, prior, x):
    return gm.bayes_estimate(fam, prior, x), None


def _call_bounds(gm, fam, d_lo, d_hi):
    return gm.prgm_from_bounds(fam, d_lo, d_hi), None


def _call_box(gm, fam, box, x):
    return gm.prgm_conjugate_box(fam, box, x), None


def _call_jcp(gm, fam, box, x, tr):
    report = gm.iprgm_jcp_box(fam, box, x)
    return report, gm.transport(report, tr)


def _bind(gm, ops, families, custom: bool) -> None:
    """Build the program-side objects (priors, boxes, transforms).  The
    calls look the estimators up on ``gm`` each time, so a traced run
    sees them through its wrappers."""
    transforms = {}
    for op in ops:
        fam = families[op.key]
        if op.kind == "bounds":
            op.call = partial(_call_bounds, gm, fam, *op.params)
            continue
        units = TWIN_ALPHA_UNITS.get(op.key, 1.0) if custom else 1.0
        a_lo, a_hi, l_lo, l_hi = op.params
        if op.kind == "bayes":
            prior = gm.ConjugatePrior(fam, a_lo / units, l_lo)
            op.call = partial(_call_bayes, gm, fam, prior, op.x)
        elif op.kind == "box":
            box = gm.prior_box(fam, a_lo / units, a_hi / units, l_lo, l_hi)
            op.call = partial(_call_box, gm, fam, box, op.x)
        else:
            box = gm.prior_box(fam, a_lo / units, a_hi / units, l_lo, l_hi, "jcp")
            if op.key not in transforms:
                transforms[op.key] = gm.make_transform(ref.TRANSFORMS[op.key][0], fam)
            op.call = partial(_call_jcp, gm, fam, box, op.x, transforms[op.key])


def build(gm, seed: int, custom: bool) -> list[list[Op]]:
    """Families and a pool of POOL_ROUNDS seeded rounds, bound and ready."""
    with warnings.catch_warnings():
        # config families carry no propriety predicate and say so
        warnings.simplefilter("ignore", UserWarning)
        if custom:
            families = {k: gm.family_from_config(cfg) for k, cfg in TWINS.items()}
        else:
            families = {k: gm.builtin_family(k) for k in FAMILY_KEYS}
        rng = random.Random(seed)
        pool = [draw_round(rng) for _ in range(POOL_ROUNDS)]
        for ops in pool:
            _bind(gm, ops, families, custom)
    return pool


# ---------------------------------------------------------------------------
# Checks against the benchmark's own arithmetic
# ---------------------------------------------------------------------------


def _regret_problem(fam, d_lo, d_hi, est, reported) -> str | None:
    r1, r2 = fam.kl(d_lo, est), fam.kl(d_hi, est)
    tol = REGRET_REL * max(r1, r2) + REGRET_ABS
    if abs(r1 - r2) > tol:
        return f"corner regrets differ: {r1!r} vs {r2!r}"
    if abs(reported - 0.5 * (r1 + r2)) > tol:
        return f"equalized_regret {reported!r} vs KL {0.5 * (r1 + r2)!r}"
    return None


def check(op: Op, out: dict) -> str | None:
    """None when the output matches the benchmark's closed forms."""
    fam = ref.FAMILIES[op.key]
    est, d_lo, d_hi = out["estimate"], out["delta_lo"], out["delta_hi"]
    if not all(math.isfinite(v) for v in (est, d_lo, d_hi, out["equalized_regret"])):
        return "non-finite output"
    if op.kind == "bayes":
        want = fam.bayes(op.params[0], op.params[2], op.x)
        if not ref.close(est, want, EST_REL, fam.floor):
            return f"Bayes action {est!r}, closed form {want!r}"
        if not (d_lo == d_hi == est and out["equalized_regret"] == 0.0):
            return "Bayes report is not a single point with zero regret"
        return None
    if op.kind == "bounds":
        w_lo, w_hi = op.params
        if (d_lo, d_hi) != (w_lo, w_hi):
            return f"bounds echoed as {(d_lo, d_hi)}, given {(w_lo, w_hi)}"
    else:
        w_lo, w_hi = fam.box_minimax(op.params, op.x, jcp=op.kind == "jcp")[:2]
    # rounding in every quantity below scales with the corner actions
    scale = max(fam.floor, abs(w_lo), abs(w_hi))
    if not (ref.close(d_lo, w_lo, EST_REL, scale) and ref.close(d_hi, w_hi, EST_REL, scale)):
        return f"corner range [{d_lo!r}, {d_hi!r}], closed form [{w_lo!r}, {w_hi!r}]"
    want = fam.equalizer(w_lo, w_hi)
    if not ref.close(est, want, EST_REL, scale):
        return f"minimax action {est!r}, equalizer quotient {want!r}"
    if not d_lo <= est <= d_hi:
        return f"estimate {est!r} outside [{d_lo!r}, {d_hi!r}]"
    if d_hi - d_lo < ref.DEGENERATE_REL_WIDTH * max(1.0, abs(d_lo), abs(d_hi)):
        if out["equalized_regret"] != 0.0:
            return "collapsed bounds with nonzero regret"
    else:
        problem = _regret_problem(fam, d_lo, d_hi, est, out["equalized_regret"])
        if problem:
            return problem
    if op.kind == "jcp":
        label, forward = ref.TRANSFORMS[op.key]
        eta = out["eta"]
        if label == "reciprocal":
            if eta != 1.0 / est:
                return f"eta_estimate {eta!r} is not 1/estimate {1.0 / est!r}"
        elif not ref.close(eta, forward(est), 1e-14, 1e-300):
            return f"transported {eta!r}, {label} of the estimate {forward(est)!r}"
    return None


def outcome(result) -> dict:
    report, eta = result
    return {"estimate": report.estimate, "delta_lo": report.delta_lo,
            "delta_hi": report.delta_hi, "equalized_regret": report.equalized_regret,
            "method": report.method, "eta": eta}


# ---------------------------------------------------------------------------
# Running rounds
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        # compact, so that the samples barely move the peak resident set
        self.latencies_ns = array("q")
        self.cpu_ns = 0
        self.round_rates: list[float] = []   # successful calls per CPU second
        self.attempted = self.failed = self.ok = 0
        self.problems: list[str] = []
        self.outputs: list = []


def run_round(gm, ops, custom: bool, tally: Tally, keep_outputs=False) -> None:
    results = []
    clock = time.perf_counter_ns
    lat = tally.latencies_ns
    c0 = time.thread_time_ns()
    for op in ops:
        t0 = clock()
        try:
            res = op.call()
        except Exception as exc:  # judged below, after the timed loop
            res = exc
        lat.append(clock() - t0)
        results.append(res)
    cpu_ns = time.thread_time_ns() - c0
    tally.cpu_ns += cpu_ns

    ok_before = tally.ok
    for op, res in zip(ops, results):
        tally.attempted += 1
        if isinstance(res, Exception):
            tally.failed += 1
            expected = (custom and op.large_x and isinstance(res, gm.ConvergenceError)
                        and EXPECTED_FAILURE in str(res))
            if not expected:
                tally.problems.append(f"{op.describe()}: {type(res).__name__}: {res}")
            if keep_outputs:
                tally.outputs.append(type(res).__name__)
            continue
        out = outcome(res)
        problem = check(op, out)
        if problem:
            tally.problems.append(f"{op.describe()}: {problem}")
        else:
            tally.ok += 1
        if keep_outputs:
            tally.outputs.append((out["estimate"], out["eta"]))
    tally.round_rates.append((tally.ok - ok_before) / (cpu_ns / 1e9))


def measure(gm, pool, seconds: float, custom: bool) -> Tally:
    """Warm up on one round, then run whole rounds for ``seconds``."""
    run_round(gm, pool[0], custom, Tally())
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        run_round(gm, pool[i % len(pool)], custom, tally)
        i += 1
    return tally


def end_to_end(tally: Tally) -> dict:
    """An operation is one estimator call."""
    return {"op_p50_ms": metric(statistics.median(tally.latencies_ns) / 1e6, "ms"),
            "ops_per_s": metric(statistics.median(tally.round_rates), "1/s")}
