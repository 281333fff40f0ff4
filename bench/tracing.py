"""Outside-in tracing of the program's layers, for ``--trace 1`` runs.

The tracer wraps every public function of each ``gminimax`` module, and
``Expression.__call__``, from the benchmark's side; the program's files
are left as they are.  Modules bind each other's functions with
``from .families import require_in_support`` and similar, so a wrapper
is installed in every namespace that holds the original object, not
only in the defining module.

Each call becomes one span ``(id, parent, name, phase, start, end,
child_ns, method)``.  Spans stay in memory and are written out, gzipped,
when the run ends.  A span's self time is its duration minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import csv
import gzip
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

from harness import OUT_DIR, metric

MODULES = ("families", "priors", "losses", "estimators", "bayesianity",
           "oracle", "expressions", "verify", "cli")

_MARK = "__bench_wrapped__"


def _loaded_modules():
    return [sys.modules[f"gminimax.{m}"] for m in MODULES
            if f"gminimax.{m}" in sys.modules]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = "work"
        self._stack: list[list[int]] = []   # [span id, child ns] per open span
        self._next_id = 0
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            method = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                method = getattr(result, "method", None)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((sid, parent, name, self.phase, start, end,
                              frame[1], method if isinstance(method, str) else ""))

        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self, gm) -> None:
        """Wrap public functions wherever ``gminimax`` modules bind them."""
        modules = _loaded_modules()
        originals = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in [gm, *modules]:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))  # originals keeps each id alive
                if hit is not None:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))
        expr_cls = sys.modules["gminimax.expressions"].Expression
        call = expr_cls.__call__
        expr_cls.__call__ = self._wrap("expressions.Expression", call)
        self._restore.append((expr_cls, "__call__", call))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def dump(self, label: str) -> str:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{label}.csv.gz")
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "phase", "start_ns", "end_ns",
                        "child_ns", "method"])
            w.writerows(self.spans)
        return path


def wrapped_names(gm) -> list[str]:
    """Names in ``gminimax`` namespaces currently bound to a wrapper."""
    found = []
    for mod in [gm, *_loaded_modules()]:
        for attr, obj in vars(mod).items():
            if getattr(obj, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
    if getattr(sys.modules["gminimax.expressions"].Expression.__call__, _MARK, False):
        found.append("gminimax.expressions.Expression.__call__")
    return found


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------

# (span name, metric stem, self-time unit).  Each yields ``<stem>.calls``
# and, when it was called, ``<stem>.self_<unit>``.
TIMED = (
    ("families.require_in_support", "families.require_in_support", "us"),
    ("families.mean_inverse", "families.mean_inverse", "us"),
    ("losses.intrinsic_loss", "losses.intrinsic_loss", "us"),
    ("priors.posterior_predictive_mean", "priors.posterior_predictive_mean", "us"),
    ("priors.predictive_mean_quadrature", "priors.predictive_mean_quadrature", "ms"),
    ("priors.mixture_components", "priors.mixture_components", "ms"),
    ("estimators.bayes_estimate", "estimators.bayes_estimate", "us"),
    ("estimators.prgm_from_bounds", "estimators.prgm_from_bounds", "us"),
    ("estimators.prgm_conjugate_box", "estimators.prgm_conjugate_box", "us"),
    ("estimators.iprgm_jcp_box", "estimators.iprgm_jcp_box", "us"),
    ("estimators.eta_scale_prgm", "estimators.eta_scale_prgm", "us"),
    ("oracle.grid_minimax", "oracle.grid_minimax", "ms"),
    ("oracle.kl_quadrature", "oracle.kl_quadrature", "us"),
    ("bayesianity.connected_path_witness", "bayesianity.connected_path_witness", "ms"),
    ("bayesianity.mixture_witness", "bayesianity.mixture_witness", "ms"),
)
_SCALE = {"us": 1e3, "ms": 1e6}
_SWEEPS = ("oracle.grid_minimax", "oracle.regret_curve")


def _has_ancestor(span_id, names, parent_of, name_of) -> bool:
    p = parent_of[span_id]
    while p != -1:
        if name_of[p] in names:
            return True
        p = parent_of[p]
    return False


def layer_metrics(spans, n_estimates: int | None) -> dict:
    """Per-layer metrics of the ``work`` phase (plus set-up spans of
    ``family_from_config``).  ``n_estimates`` is the number of estimator
    operations the workload issued, the base of ``calls_per_estimate``."""
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}
    work = [s for s in spans if s[3] == "work"]
    calls = Counter(s[2] for s in work)
    self_ns = defaultdict(int)
    for s in work:
        self_ns[s[2]] += s[5] - s[4] - s[6]

    # Every metric is printed on every workload; a time, ratio or
    # per-call count whose base is zero on this workload reads 0.
    out = {}
    for name, stem, unit in TIMED:
        out[f"{stem}.calls"] = metric(calls[name], "count")
        out[f"{stem}.self_{unit}"] = metric(self_ns[name] / _SCALE[unit], unit)

    builds = [s for s in spans if s[3] == "build" and s[2] == "expressions.family_from_config"]
    out["expressions.family_from_config_ms"] = metric(
        sum(s[5] - s[4] for s in builds) / 1e6, "ms")
    expr = "expressions.Expression"
    out["expressions.Expression.self_us"] = metric(self_ns[expr] / 1e3, "us")
    out["expressions.Expression.calls_per_estimate"] = metric(
        calls[expr] / n_estimates if n_estimates else 0, "count")

    bounds = [s for s in work if s[2] == "estimators.prgm_from_bounds" and s[7]]
    closed = sum(1 for s in bounds if s[7] == "prgm_closed_form")
    out["estimators.prgm_from_bounds.closed_form_ratio"] = metric(
        closed / len(bounds) if bounds else 0, "ratio")

    n_sweeps = sum(calls[n] for n in _SWEEPS)
    inner = sum(1 for s in work if s[2] == "families.mean_inverse"
                and _has_ancestor(s[0], _SWEEPS, parent_of, name_of))
    out["oracle.mean_inverse_per_sweep"] = metric(
        inner / n_sweeps if n_sweeps else 0, "count")

    paths = calls["bayesianity.connected_path_witness"]
    inner = sum(1 for s in work if s[2] == "estimators.bayes_estimate"
                and _has_ancestor(s[0], ("bayesianity.connected_path_witness",),
                                  parent_of, name_of))
    out["bayesianity.bayes_evals_per_path_witness"] = metric(
        inner / paths if paths else 0, "count")

    dia = "bayesianity.data_independent_alpha"
    out["bayesianity.data_independent_alpha.self_ms"] = metric(self_ns[dia] / 1e6, "ms")
    return out
