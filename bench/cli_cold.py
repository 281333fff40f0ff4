"""cli_cold: one fresh ``python -m gminimax`` process per operation.

Processes run one at a time and cycle through ``prgm --box``,
``prgm --bounds``, ``iprgm --transform reciprocal``, ``bayes``, ``loss``,
``certify`` and ``regret-curve`` on seeded inputs over the built-in
families.  Each costs an interpreter start and the numpy/scipy imports,
against well under a millisecond of arithmetic, so this is the only
workload where cold-start work shows.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys

import reference as ref
import sweeps
from sweeps import FAMILY_KEYS, Op

COMMANDS = ("prgm_box", "prgm_bounds", "iprgm", "bayes", "loss", "certify",
            "regret_curve")
POOL_CYCLES = 4
GRID_N = 2000
WITNESS_TOL = 1e-8


class Command:
    """One CLI invocation and what its output must match."""

    def __init__(self, name: str, key: str, argv: list[str], op: Op | None = None,
                 **expect):
        self.name, self.key, self.argv, self.op, self.expect = name, key, argv, op, expect

    def describe(self) -> str:
        return "gminimax " + " ".join(self.argv)


def _box_flag(box) -> str:
    a_lo, a_hi, l_lo, l_hi = box
    return f"--box=a={a_lo!r}:{a_hi!r},l={l_lo!r}:{l_hi!r}"


def _command(rng, name: str, key: str) -> Command:
    fam = ref.FAMILIES[key]
    box, x = sweeps.draw_box(rng, key, jcp=name == "iprgm")
    base = [f"--family={key}"]
    if name == "prgm_box":
        return Command(name, key, ["prgm", *base, f"--x={x!r}", _box_flag(box)],
                       Op("box", key, box, x))
    if name == "prgm_bounds":
        ests = fam.corners(box, x)
        d1, d2 = min(ests), max(ests)
        return Command(name, key, ["prgm", *base, f"--bounds={d1!r}:{d2!r}"],
                       Op("bounds", key, (d1, d2), x))
    if name == "iprgm":
        return Command(name, key, ["iprgm", *base, f"--x={x!r}", _box_flag(box),
                              "--transform=reciprocal"], Op("jcp", key, box, x))
    if name == "bayes":
        a = rng.uniform(box[0], box[1])
        l = rng.uniform(box[2], box[3])
        return Command(name, key, ["bayes", *base, f"--x={x!r}", f"--prior=a={a!r},l={l!r}"],
                       Op("bayes", key, (a, a, l, l), x))
    if name == "loss":
        corners = fam.corners(box, x)
        theta, delta = corners[0], corners[3]
        return Command(name, key, ["loss", *base, f"--theta={theta!r}", f"--delta={delta!r}"],
                       theta=theta, delta=delta)
    if name == "certify":
        return Command(name, key, ["certify", *base, f"--x={x!r}", _box_flag(box)],
                       Op("box", key, box, x))
    return Command(name, key, ["regret-curve", *base, f"--x={x!r}", _box_flag(box),
                          f"--grid-n={GRID_N}"], Op("box", key, box, x))


def build(seed: int) -> list[Command]:
    """POOL_CYCLES cycles of the seven commands; families rotate."""
    rng = random.Random(seed)
    pool = []
    for cycle in range(POOL_CYCLES):
        for i, name in enumerate(COMMANDS):
            key = "exponential" if name == "iprgm" else FAMILY_KEYS[(cycle + i) % 4]
            pool.append(_command(rng, name, key))
    return pool


def _json_object(stdout: str):
    lines = stdout.splitlines()
    if len(lines) != 1:
        return None
    try:
        payload = json.loads(lines[0])
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def check(cmd: Command, code: int, stdout: str) -> str | None:
    """None when the process output matches the benchmark's closed forms."""
    if code != 0:
        return f"exit code {code}"
    if cmd.name == "regret_curve":
        return _check_curve(cmd, stdout)
    payload = _json_object(stdout)
    if payload is None:
        return "stdout is not exactly one JSON object"
    try:
        if cmd.name == "loss":
            fam = ref.FAMILIES[cmd.key]
            want = fam.kl(cmd.expect["theta"], cmd.expect["delta"])
            got = payload["loss"]
            if not abs(got - want) <= 1e-9 * want + 1e-13:
                return f"loss {got!r}, KL closed form {want!r}"
            return None
        if cmd.name == "certify":
            return _check_certificate(cmd.op, payload)
        out = {k: payload[k] for k in ("estimate", "delta_lo", "delta_hi",
                                       "equalized_regret", "method")}
        out["eta"] = payload.get("eta_estimate")
        if cmd.name == "iprgm" and payload.get("transform") != "reciprocal":
            return "transform label missing"
        return sweeps.check(cmd.op, out)
    except (KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"


def _check_certificate(op: Op, payload: dict) -> str | None:
    fam = ref.FAMILIES[op.key]
    d1, d2, want = fam.box_minimax(op.params, op.x)
    if payload["kind"] not in ("path", "boundary"):
        return f"certificate kind {payload['kind']!r}"
    if not payload["residual"] <= WITNESS_TOL:
        return f"witness residual {payload['residual']!r}"
    w = payload["witness"]
    got = fam.bayes(w["alpha"], w["lam"], op.x)
    if not ref.close(got, want, WITNESS_TOL, max(fam.floor, abs(d1), abs(d2))):
        return f"witness prior's Bayes action {got!r}, minimax action {want!r}"
    return None


def _check_curve(cmd: Command, stdout: str) -> str | None:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["delta", "sup_regret", "argmax_corner"]:
        return "missing CSV header"
    rows = rows[1:]
    if len(rows) != GRID_N:
        return f"{len(rows)} rows, grid has {GRID_N}"
    try:
        deltas = [float(r[0]) for r in rows]
        sups = [float(r[1]) for r in rows]
    except (ValueError, IndexError):
        return "unparsable CSV row"
    if not all(math.isfinite(v) for v in deltas + sups):
        return "non-finite value in curve"
    if any(r[2] not in ("lo", "hi") for r in rows):
        return "worst case attained at an interior lattice point"
    step = deltas[1] - deltas[0]
    argmin = deltas[min(range(len(sups)), key=sups.__getitem__)]
    want = ref.FAMILIES[cmd.op.key].box_minimax(cmd.op.params, cmd.op.x)[2]
    if not abs(argmin - want) <= step:
        return f"curve minimum at {argmin!r}, more than one step {step!r} from {want!r}"
    return None


def cli_argv(cmd: Command) -> list[str]:
    return [sys.executable, "-m", "gminimax", *cmd.argv]


# ---------------------------------------------------------------------------
# Import-time breakdown for the traced run
# ---------------------------------------------------------------------------

IMPORT_PROBE = [sys.executable, "-X", "importtime", "-c",
                "import sys, gminimax; print(len(sys.modules))"]
IMPORT_ROWS = {"numpy": "cli.import.numpy_ms", "scipy.special": "cli.import.scipy_special_ms",
               "scipy.stats": "cli.import.scipy_stats_ms",
               "scipy.integrate": "cli.import.scipy_integrate_ms"}


def _in_package(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import cost of the watched packages and the self time of gminimax's
    own modules, in ms, from ``python -X importtime`` output.

    A package's cost is the cumulative time on its own line.  A package
    loaded through scipy's lazy ``from scipy import stats`` gets no line of
    its own; its cost is then the sum over its submodule lines that are
    not nested under another of them.  Modules count where they were first
    imported.  A package never imported reads 0.
    """
    rows = []  # (depth, name, self_us, cumulative_us) in output order
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        head, cumulative, package = line.split("|")
        try:
            self_us, cum_us = int(head.split(":")[1]), int(cumulative)
        except ValueError:
            continue  # the column header
        name = package.strip()
        rows.append(((len(package) - len(package.lstrip())) // 2, name, self_us, cum_us))

    # importtime prints a module after everything it imported, one level
    # shallower, so a line's parent is the next line that is shallower
    parent = [None] * len(rows)
    open_rows: list[int] = []
    for i, (depth, *_) in enumerate(rows):
        while open_rows and rows[open_rows[-1]][0] > depth:
            parent[open_rows.pop()] = rows[i][1]
        open_rows.append(i)

    out = {}
    for package, metric_name in IMPORT_ROWS.items():
        own = [cum for _, name, _, cum in rows if name == package]
        outer = [cum for (_, name, _, cum), up in zip(rows, parent)
                 if _in_package(name, package) and not (up and _in_package(up, package))]
        out[metric_name] = (own[0] if own else sum(outer)) / 1e3
    out["cli.import.gminimax_self_ms"] = sum(
        self_us for _, name, self_us, _ in rows if _in_package(name, "gminimax")) / 1e3
    return out
