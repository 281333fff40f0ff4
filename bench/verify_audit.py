"""verify_audit: in-process ``verify.run_suite`` rounds.

One round runs the ``minimax``, ``invariance`` and ``bayesianity`` suites
for one verify seed, as ``gminimax verify all`` does, with
``INSTANCES`` instances per suite instead of the defaults (100, 25, 30).
Almost all of the work sits in the brute-force layers that no other
workload touches: the grid oracle, KL quadrature, the path and mixture
witnesses and the eta-scale re-elicitation.

Rounds are kept near a second so that a run holds a dozen or more: on a
shared host the speed of the machine drifts by tens of percent over
stretches of ten seconds or so, and the median of a handful of
four-second rounds followed that drift.  Rounds cycle through the fixed
list ``VERIFY_SEEDS``; the benchmark seed picks where the cycle starts.
A fixed list keeps the mix of work the same in every run, and every
round after the first cycle re-runs a seed and must reproduce its
records byte for byte.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter

import reference as ref

SUITES = ("minimax", "invariance", "bayesianity")
INSTANCES = 10
VERIFY_SEEDS = tuple(range(1729, 1737))
# Records per check name in one round: the invariance suite runs five
# transform combinations, and both it and the bayesianity suite add
# fixed control and data-independence checks.
EXPECTED_COUNTS = {
    "minimax": {"oracle_argmin": INSTANCES, "equalized_regret": INSTANCES,
                "corner_dominance": INSTANCES, "kl_matches_loss": INSTANCES},
    "invariance": {"jcp_transport": 5 * INSTANCES, "non_jcp_control": 5},
    "bayesianity": {"path_residual": INSTANCES, "data_independent_normal": 1,
                    "data_independent_exponential": 1,
                    "data_independent_exponential_jcp": 1},
}
# Draws whose two component actions coincide are skipped by the suite.
MIXTURE_MAX = INSTANCES
# The suite's data-independent boxes all have the alpha edge [1, 3].
WITNESS_ALPHAS = {
    "data_independent_normal": ref.witness_alpha_normal(1.0, 3.0),
    "data_independent_exponential": ref.witness_alpha_exponential(1.0, 3.0),
    "data_independent_exponential_jcp": ref.witness_alpha_exponential_jcp(1.0, 3.0),
}
ALPHA_TOL = 1e-9
_ALPHA_RE = re.compile(r"alpha=(\S+)")


def verify_seeds(seed: int) -> tuple[int, ...]:
    k = seed % len(VERIFY_SEEDS)
    return VERIFY_SEEDS[k:] + VERIFY_SEEDS[:k]


def run_round(gm, seed: int):
    """Returns (wall seconds, CPU seconds per suite, records per suite as
    JSON dicts)."""
    cpu, records, wall = {}, {}, 0.0
    for suite in SUITES:
        w0, c0 = time.perf_counter(), time.thread_time()
        recs = gm.run_suite(suite, seed, n_instances=INSTANCES)
        cpu[suite] = time.thread_time() - c0
        wall += time.perf_counter() - w0
        records[suite] = [r.to_json_dict() for r in recs]
    return wall, cpu, records


def serialize(records: dict) -> bytes:
    return "".join(json.dumps(r, sort_keys=True) + "\n"
                   for suite in SUITES for r in records[suite]).encode()


def check(records: dict) -> list[str]:
    """Problems with one round's records (empty when all is well)."""
    problems = []
    for suite in SUITES:
        recs = records[suite]
        counts = Counter(r["check"] for r in recs)
        want = dict(EXPECTED_COUNTS[suite])
        if suite == "bayesianity":
            mixture = [r["index"] for r in recs if r["check"] == "mixture_residual"]
            if not (0 < len(mixture) <= MIXTURE_MAX and len(set(mixture)) == len(mixture)
                    and all(0 <= i < MIXTURE_MAX for i in mixture)):
                problems.append(f"bayesianity: mixture record indices {mixture}")
            want["mixture_residual"] = len(mixture)
        if dict(counts) != want:
            problems.append(f"{suite}: record counts {dict(counts)}, expected {want}")
        for r in recs:
            if r["suite"] != suite or r["passed"] is not True:
                problems.append(f"{suite}: record failed: {r}")
                continue
            value, bound = r["value"], r["bound"]
            control = r["check"] == "non_jcp_control"
            if not (value > bound if control else value <= bound):
                problems.append(f"{suite}: passed record breaks its bound: {r}")
            if r["check"] in WITNESS_ALPHAS:
                m = _ALPHA_RE.search(r["note"])
                got = float(m.group(1)) if m else float("nan")
                want_alpha = WITNESS_ALPHAS[r["check"]]
                if not ref.close(got, want_alpha, ALPHA_TOL, 1.0):
                    problems.append(f"{r['check']}: witness alpha {got!r}, "
                                    f"closed form {want_alpha!r}")
    return problems
