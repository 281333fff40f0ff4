"""Command-line surface: estimates, certificates, curves, verification.

Every command prints a single JSON object (``sort_keys`` so byte output
is deterministic) except ``regret-curve`` (CSV by default) and
``verify`` (one JSON line per check plus a summary line).

Exit codes: 0 success, 1 verification failure, 2 configuration error
(bad flags, bad expressions, improper priors, out-of-domain points),
3 numeric failure (quadrature or root finding did not converge),
4 I/O failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import warnings

from .errors import ConvergenceError, GMinimaxError, SpecificationError
from .estimators import (
    bayes_estimate,
    iprgm_jcp_box,
    make_transform,
    prgm_conjugate_box,
    prgm_from_bounds,
    transport,
)
from .families import FamilySpec, builtin_family, np
from .losses import intrinsic_loss
from .priors import PriorBox, conjugate_prior, prior_box

__all__ = ["main", "build_parser", "DEFAULT_SEED"]

DEFAULT_SEED = 1729


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


def _parse_range(text: str, what: str, single: bool = False) -> tuple[float, float]:
    """"lo:hi" or a single number (degenerate range); only the latter
    when ``single``."""
    try:
        ends = [float(part) for part in text.split(":")]
    except ValueError:
        ends = []
    if 1 <= len(ends) <= 2 - single:
        return ends[0], ends[-1]
    expected = "a single number" if single else "'lo:hi' or a single number"
    raise SpecificationError(f"cannot parse {what} {text!r}; expected {expected}")


def _parse_pairs(text: str, what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in text.split(","):
        key, eq, val = part.partition("=")
        key = key.strip().lower()
        if not eq or not key or not val.strip():
            raise SpecificationError(
                f"cannot parse {what} {text!r}: component {part!r} is not "
                "key=value"
            )
        if key in out:
            raise SpecificationError(f"duplicate key {key!r} in {what} {text!r}")
        out[key] = val.strip()
    return out


_BOX_KEYS = {"a": "alpha", "alpha": "alpha", "l": "lambda", "lam": "lambda",
             "lambda": "lambda"}


def parse_box(text: str, what: str = "--box",
              single: bool = False) -> tuple[float, float, float, float]:
    """"a=1:3,l=1:2" -> (1,3,1,2); a single number pins an edge, and
    ``single`` allows nothing else."""
    got: dict[str, tuple[float, float]] = {}
    for key, val in _parse_pairs(text, what).items():
        name = _BOX_KEYS.get(key)
        if name is None:
            raise SpecificationError(f"unknown {what} key {key!r}; use a= and l=")
        if name in got:
            raise SpecificationError(f"{name} is given twice in {what} {text!r}")
        got[name] = _parse_range(val, name, single)
    if len(got) != 2:
        raise SpecificationError(f"{what} needs an alpha part and a lambda part")
    return (*got["alpha"], *got["lambda"])


def parse_prior(text: str) -> tuple[float, float]:
    """"a=2,l=1" -> (2.0, 1.0): a box whose edges are single numbers."""
    alpha, _, lam, _ = parse_box(text, "--prior", single=True)
    return alpha, lam


def _load_family(args) -> FamilySpec:
    path = args.family_file
    if not path:
        return builtin_family(args.family)
    from .expressions import family_from_config

    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.loads(fh.read())
    except UnicodeDecodeError as exc:
        raise SpecificationError(f"family file {path}: not UTF-8 text ({exc})")
    except json.JSONDecodeError as exc:
        raise SpecificationError(f"family file {path}: invalid JSON ({exc})")
    return family_from_config(cfg)


def _box(args, fam: FamilySpec, flavor: str) -> PriorBox:
    """The validated class of priors that ``--box`` gives."""
    return prior_box(fam, *parse_box(args.box), flavor)


def _need_x(args, what: str) -> float:
    if args.x is None:
        raise SpecificationError(f"{what} needs --x")
    return float(args.x)


def _json_line(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _emit(output, out_path: str | None) -> None:
    """Write a command's output, text as it is and a payload as one JSON line."""
    text = output if isinstance(output, str) else _json_line(output)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands: each maps its parsed arguments to its output, a payload dict or
# text; verify pairs its text with the exit code.
# ---------------------------------------------------------------------------


def cmd_bayes(args) -> dict:
    fam = _load_family(args)
    prior = conjugate_prior(fam, *parse_prior(args.prior), args.flavor)
    return bayes_estimate(fam, prior, args.x).to_json_dict()


def cmd_prgm(args) -> dict:
    fam = _load_family(args)
    if args.box is not None and args.bounds is not None:
        raise SpecificationError("give either --box or --bounds, not both")
    if args.bounds is not None:
        report = prgm_from_bounds(fam, *_parse_range(args.bounds, "--bounds"))
    elif args.box is not None:
        report = prgm_conjugate_box(fam, _box(args, fam, "standard"),
                                    _need_x(args, "prgm --box"))
    else:
        raise SpecificationError("prgm needs --box (or --bounds)")
    return report.to_json_dict()


def cmd_iprgm(args) -> dict:
    fam = _load_family(args)
    report = iprgm_jcp_box(fam, _box(args, fam, "jcp"), args.x)
    payload = report.to_json_dict()
    if args.transform:
        tr = make_transform(args.transform, fam)
        payload["transform"] = tr.label
        payload["eta_estimate"] = transport(report, tr)
    return payload


def cmd_certify(args) -> dict:
    from .bayesianity import connected_path_witness, data_independent_alpha

    fam = _load_family(args)
    box = _box(args, fam, args.flavor)
    if args.kind == "path":
        x = _need_x(args, "certify --kind path")
        report = prgm_conjugate_box(fam, box, x)
        return connected_path_witness(fam, box, x, report.estimate).to_json_dict()
    if not args.x_grid:
        raise SpecificationError("--kind data_independent needs --x-grid lo:hi:n")
    parts = args.x_grid.split(":")
    if len(parts) != 3:
        raise SpecificationError("--x-grid must be lo:hi:n")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise SpecificationError(f"bad --x-grid {args.x_grid!r}")
    if n < 2 or not -math.inf < lo < hi < math.inf:
        raise SpecificationError("--x-grid needs finite lo < hi and n >= 2")
    return data_independent_alpha(fam, box, np.linspace(lo, hi, n)).to_json_dict()


def cmd_loss(args) -> dict:
    fam = _load_family(args)
    value = float(intrinsic_loss(fam, args.theta, args.delta))
    return {"family": fam.name, "theta": args.theta, "delta": args.delta,
            "loss": value}


def cmd_regret_curve(args) -> dict | str:
    import csv

    from .oracle import regret_curve

    fam = _load_family(args)
    deltas, sup, labels = regret_curve(fam, _box(args, fam, args.flavor), args.x,
                                       args.grid_n)
    if args.format == "json":
        return {
            "delta": [float(d) for d in deltas],
            "sup_regret": [float(s) for s in sup],
            "argmax_corner": labels,
        }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["delta", "sup_regret", "argmax_corner"])
    for d, s, lab in zip(deltas, sup, labels):
        writer.writerow([repr(float(d)), repr(float(s)), lab])
    return buf.getvalue()


def cmd_verify(args) -> tuple[str, int]:
    from .verify import SUITE_NAMES, run_suite

    if args.suite not in ("all", *SUITE_NAMES):
        raise SpecificationError(
            f"unknown suite {args.suite!r}; choose from {('all', *SUITE_NAMES)}")
    suites = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    records = [rec.to_json_dict() for name in suites
               for rec in run_suite(name, args.seed, args.n_instances)]
    n_failed = sum(not rec["passed"] for rec in records)
    summary = {
        "seed": args.seed,
        "suite": args.suite,
        "n_checks": len(records),
        "n_failed": n_failed,
        "passed": n_failed == 0,
    }
    return "".join(map(_json_line, [*records, summary])), int(n_failed > 0)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports a bad command line in one stderr line, like
    every other configuration error; subparsers are built from it too."""

    def error(self, message):
        self.exit(2, f"gminimax: configuration error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gminimax",
        description="Bayes, box-minimax, and invariant box-minimax point "
                    "estimation for one-parameter exponential families "
                    "under the intrinsic information loss.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, family: bool = True,
                flavor: bool = False) -> argparse.ArgumentParser:
        """A subcommand running ``func``, with the flags it shares with others."""
        p = subs.add_parser(name, help=help)
        if family:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--family", help="built-in family name, e.g. "
                               "exponential, normal, binomial_logit(5), poisson")
            group.add_argument("--family-file", help="JSON file defining a custom "
                               "family via arithmetic expressions in theta")
        if flavor:
            p.add_argument("--flavor", choices=["standard", "jcp"], default="standard")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.set_defaults(func=func)
        return p

    p = command("bayes", cmd_bayes, "Bayes action for one conjugate prior",
                flavor=True)
    p.add_argument("--x", type=float, required=True, help="observation")
    p.add_argument("--prior", required=True, help="hyper-parameters, a=2,l=1")

    p = command("prgm", cmd_prgm, "box-minimax action for a standard "
                "conjugate hyper-parameter box")
    p.add_argument("--x", type=float, help="observation (required with --box)")
    p.add_argument("--box", help="hyper-parameter box, a=1:3,l=1:2 "
                   "(a single number pins an edge)")
    p.add_argument("--bounds", help="skip the box: give the two extreme Bayes "
                   "actions directly as lo:hi")

    p = command("iprgm", cmd_iprgm, "invariant box-minimax action for a "
                "sqrt-Fisher-corrected conjugate box")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--box", required=True, help="a=1:3,l=1 etc; flavor is "
                   "always jcp for this command")
    p.add_argument("--transform", help="also report the estimate pushed "
                   "through a catalog map: reciprocal, log, "
                   "neg_log_over_a(a), affine(a,b), logit_to_p")

    p = command("certify", cmd_certify, "exhibit a prior whose Bayes action "
                "equals the box-minimax action", flavor=True)
    p.add_argument("--x", type=float, help="observation (path certificates)")
    p.add_argument("--box", required=True)
    p.add_argument("--kind", choices=["path", "data_independent"],
                   default="path")
    p.add_argument("--x-grid", help="lo:hi:n observation grid for "
                   "data_independent certificates")

    p = command("loss", cmd_loss, "evaluate the intrinsic information loss")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)

    p = command("regret-curve", cmd_regret_curve, "worst-case posterior regret "
                "sampled over a padded action grid", flavor=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--box", required=True)
    p.add_argument("--grid-n", type=int, default=2000,
                   help="number of action grid points (default 2000)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = command("verify", cmd_verify, "run the seeded self-verification "
                "suites; exit 1 if any check fails", family=False)
    p.add_argument("suite", nargs="?", default="all",
                   help="one suite, or all of them (the default); an unknown "
                   "name is refused with the list of suites")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"RNG seed (default {DEFAULT_SEED})")
    p.add_argument("--n-instances", type=int, default=None,
                   help="override the per-suite instance count (at least 1)")

    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"gminimax: warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code
        return code if isinstance(code, int) else 2
    # Warnings print as one line, like errors; filters still apply.
    saved, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        output = args.func(args)
        output, code = output if isinstance(output, tuple) else (output, 0)
        _emit(output, args.out)
        return code
    except ConvergenceError as exc:
        print(f"gminimax: numeric error: {exc}", file=sys.stderr)
        return 3
    except (GMinimaxError, Warning) as exc:  # every other error is a configuration
        # error, and so is a warning that a filter turned into one
        print(f"gminimax: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gminimax: i/o error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"gminimax: numeric error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = saved


if __name__ == "__main__":
    sys.exit(main())
