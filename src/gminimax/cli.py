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
import csv
import io
import json
import sys
import warnings

import numpy as np

from .bayesianity import connected_path_witness, data_independent_alpha
from .errors import (
    ConvergenceError,
    DomainError,
    GMinimaxError,
    ProprietyError,
    SpecificationError,
)
from .estimators import (
    bayes_estimate,
    iprgm_jcp_box,
    make_transform,
    prgm_conjugate_box,
    prgm_from_bounds,
    transport,
)
from .expressions import family_from_config
from .families import FamilySpec, builtin_family
from .losses import intrinsic_loss
from .oracle import regret_curve
from .priors import conjugate_prior, prior_box
from .verify import SUITE_NAMES, run_suite

__all__ = ["main", "build_parser", "DEFAULT_SEED"]

DEFAULT_SEED = 1729


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


def _parse_range(text: str, what: str) -> tuple[float, float]:
    """"lo:hi" or a single number (degenerate range)."""
    try:
        ends = [float(part) for part in text.split(":")]
    except ValueError:
        ends = []
    if 1 <= len(ends) <= 2:
        return ends[0], ends[-1]
    raise SpecificationError(f"cannot parse {what} range {text!r}; "
                             "expected 'lo:hi' or a single number")


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

_PRIOR_KEYS = {"a": "alpha", "alpha": "alpha", "l": "lam", "lam": "lam",
               "lambda": "lam"}


def parse_prior(text: str) -> tuple[float, float]:
    """"a=2,l=1" -> (2.0, 1.0)."""
    pairs = _parse_pairs(text, "--prior")
    got: dict[str, float] = {}
    for key, val in pairs.items():
        name = _PRIOR_KEYS.get(key)
        if name is None:
            raise SpecificationError(f"unknown prior key {key!r}; use a=, l=")
        try:
            got[name] = float(val)
        except ValueError:
            raise SpecificationError(f"bad number {val!r} for {key} in --prior")
    if set(got) != {"alpha", "lam"}:
        raise SpecificationError("--prior needs both a= and l=")
    return got["alpha"], got["lam"]


def parse_box(text: str) -> tuple[float, float, float, float]:
    """"a=1:3,l=1:2" -> (1,3,1,2); a0=/l0= pin one edge to a point."""
    pairs = _parse_pairs(text, "--box")
    alpha = lam = None
    for key, val in pairs.items():
        if key in ("a", "alpha"):
            alpha = _parse_range(val, "alpha")
        elif key in ("a0", "alpha0"):
            v = _parse_range(val, "alpha")
            if v[0] != v[1]:
                raise SpecificationError("a0= takes a single number")
            alpha = v
        elif key in ("l", "lam", "lambda"):
            lam = _parse_range(val, "lambda")
        elif key in ("l0", "lam0", "lambda0"):
            v = _parse_range(val, "lambda")
            if v[0] != v[1]:
                raise SpecificationError("l0= takes a single number")
            lam = v
        else:
            raise SpecificationError(
                f"unknown box key {key!r}; use a=lo:hi, l=lo:hi, a0=, l0="
            )
    if alpha is None or lam is None:
        raise SpecificationError("--box needs an alpha part and a lambda part")
    return alpha[0], alpha[1], lam[0], lam[1]


def _load_family(args) -> FamilySpec:
    if getattr(args, "family_file", None):
        with open(args.family_file, "r", encoding="utf-8") as fh:
            raw = fh.read()
        try:
            cfg = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SpecificationError(
                f"family file {args.family_file}: invalid JSON ({exc})"
            )
        return family_from_config(cfg)
    return builtin_family(args.family)


def _need_x(args, what: str) -> float:
    if args.x is None:
        raise SpecificationError(f"{what} needs --x")
    return float(args.x)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_line(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_bayes(args) -> int:
    fam = _load_family(args)
    a, l = parse_prior(args.prior)
    prior = conjugate_prior(fam, a, l, args.flavor)
    report = bayes_estimate(fam, prior, args.x)
    _emit(_json_line(report.to_json_dict()), args.out)
    return 0


def cmd_prgm(args) -> int:
    fam = _load_family(args)
    if args.box is not None and args.bounds is not None:
        raise SpecificationError("give either --box or --bounds, not both")
    if args.bounds is not None:
        lo, hi = _parse_range(args.bounds, "--bounds")
        report = prgm_from_bounds(fam, lo, hi)
    elif args.box is not None:
        a_lo, a_hi, l_lo, l_hi = parse_box(args.box)
        box = prior_box(fam, a_lo, a_hi, l_lo, l_hi, "standard")
        report = prgm_conjugate_box(fam, box, _need_x(args, "prgm --box"))
    else:
        raise SpecificationError("prgm needs --box (or --bounds)")
    _emit(_json_line(report.to_json_dict()), args.out)
    return 0


def cmd_iprgm(args) -> int:
    fam = _load_family(args)
    a_lo, a_hi, l_lo, l_hi = parse_box(args.box)
    box = prior_box(fam, a_lo, a_hi, l_lo, l_hi, "jcp")
    report = iprgm_jcp_box(fam, box, args.x)
    payload = report.to_json_dict()
    if args.transform:
        tr = make_transform(args.transform, fam)
        payload["transform"] = tr.label
        payload["eta_estimate"] = transport(report, tr)
    _emit(_json_line(payload), args.out)
    return 0


def cmd_certify(args) -> int:
    fam = _load_family(args)
    a_lo, a_hi, l_lo, l_hi = parse_box(args.box)
    box = prior_box(fam, a_lo, a_hi, l_lo, l_hi, args.flavor)
    if args.kind == "path":
        x = _need_x(args, "certify --kind path")
        if box.flavor == "jcp":
            report = iprgm_jcp_box(fam, box, x)
        else:
            report = prgm_conjugate_box(fam, box, x)
        cert = connected_path_witness(fam, box, x, report.estimate)
    else:
        if not args.x_grid:
            raise SpecificationError(
                "--kind data_independent needs --x-grid lo:hi:n"
            )
        parts = args.x_grid.split(":")
        if len(parts) != 3:
            raise SpecificationError("--x-grid must be lo:hi:n")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise SpecificationError(f"bad --x-grid {args.x_grid!r}")
        if n < 2 or not lo < hi:
            raise SpecificationError("--x-grid needs lo < hi and n >= 2")
        cert = data_independent_alpha(fam, box, np.linspace(lo, hi, n))
    _emit(_json_line(cert.to_json_dict()), args.out)
    return 0


def cmd_loss(args) -> int:
    fam = _load_family(args)
    value = float(intrinsic_loss(fam, args.theta, args.delta))
    payload = {"family": fam.name, "theta": args.theta, "delta": args.delta,
               "loss": value}
    _emit(_json_line(payload), args.out)
    return 0


def cmd_regret_curve(args) -> int:
    fam = _load_family(args)
    a_lo, a_hi, l_lo, l_hi = parse_box(args.box)
    box = prior_box(fam, a_lo, a_hi, l_lo, l_hi, args.flavor)
    deltas, sup, labels = regret_curve(fam, box, args.x, args.grid_n)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["delta", "sup_regret", "argmax_corner"])
        for d, s, lab in zip(deltas, sup, labels):
            writer.writerow([repr(float(d)), repr(float(s)), lab])
        _emit(buf.getvalue(), args.out)
    else:
        payload = {
            "delta": [float(d) for d in deltas],
            "sup_regret": [float(s) for s in sup],
            "argmax_corner": labels,
        }
        _emit(_json_line(payload), args.out)
    return 0


def cmd_verify(args) -> int:
    suites = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    lines = []
    n_failed = 0
    n_checks = 0
    for name in suites:
        for rec in run_suite(name, args.seed, args.n_instances):
            n_checks += 1
            if not rec.passed:
                n_failed += 1
            lines.append(_json_line(rec.to_json_dict()))
    lines.append(_json_line({
        "seed": args.seed,
        "suite": args.suite,
        "n_checks": n_checks,
        "n_failed": n_failed,
        "passed": n_failed == 0,
    }))
    _emit("".join(lines), args.out)
    return 0 if n_failed == 0 else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_family_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", help="built-in family name, e.g. "
                       "exponential, normal, binomial_logit(5), poisson")
    group.add_argument("--family-file", help="JSON file defining a custom "
                       "family via arithmetic expressions in theta")


def _add_out_flag(sub) -> None:
    sub.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gminimax",
        description="Bayes, box-minimax, and invariant box-minimax point "
                    "estimation for one-parameter exponential families "
                    "under the intrinsic information loss.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bayes", help="Bayes action for one conjugate prior")
    _add_family_flags(p)
    p.add_argument("--x", type=float, required=True, help="observation")
    p.add_argument("--prior", required=True, help="hyper-parameters, a=2,l=1")
    p.add_argument("--flavor", choices=["standard", "jcp"], default="standard")
    _add_out_flag(p)
    p.set_defaults(func=cmd_bayes)

    p = subs.add_parser("prgm", help="box-minimax action for a standard "
                        "conjugate hyper-parameter box")
    _add_family_flags(p)
    p.add_argument("--x", type=float, help="observation (required with --box)")
    p.add_argument("--box", help="hyper-parameter box, a=1:3,l=1:2 "
                   "(a0=/l0= pin an edge)")
    p.add_argument("--bounds", help="skip the box: give the two extreme Bayes "
                   "actions directly as lo:hi")
    _add_out_flag(p)
    p.set_defaults(func=cmd_prgm)

    p = subs.add_parser("iprgm", help="invariant box-minimax action for a "
                        "sqrt-Fisher-corrected conjugate box")
    _add_family_flags(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--box", required=True, help="a=1:3,l0=1 etc; flavor is "
                   "always jcp for this command")
    p.add_argument("--transform", help="also report the estimate pushed "
                   "through a catalog map: reciprocal, log, "
                   "neg_log_over_a(a), affine(a,b), logit_to_p")
    _add_out_flag(p)
    p.set_defaults(func=cmd_iprgm)

    p = subs.add_parser("certify", help="exhibit a prior whose Bayes action "
                        "equals the box-minimax action")
    _add_family_flags(p)
    p.add_argument("--x", type=float, help="observation (path certificates)")
    p.add_argument("--box", required=True)
    p.add_argument("--flavor", choices=["standard", "jcp"], default="standard")
    p.add_argument("--kind", choices=["path", "data_independent"],
                   default="path")
    p.add_argument("--x-grid", help="lo:hi:n observation grid for "
                   "data_independent certificates")
    _add_out_flag(p)
    p.set_defaults(func=cmd_certify)

    p = subs.add_parser("loss", help="evaluate the intrinsic information loss")
    _add_family_flags(p)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_out_flag(p)
    p.set_defaults(func=cmd_loss)

    p = subs.add_parser("regret-curve", help="worst-case posterior regret "
                        "sampled over a padded action grid")
    _add_family_flags(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--box", required=True)
    p.add_argument("--flavor", choices=["standard", "jcp"], default="standard")
    p.add_argument("--grid-n", type=int, default=2000,
                   help="number of action grid points (default 2000)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_out_flag(p)
    p.set_defaults(func=cmd_regret_curve)

    p = subs.add_parser("verify", help="run the seeded self-verification "
                        "suites; exit 1 if any check fails")
    p.add_argument("suite", nargs="?", default="all",
                   choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"RNG seed (default {DEFAULT_SEED})")
    p.add_argument("--n-instances", type=int, default=None,
                   help="override the per-suite instance count (at least 1)")
    _add_out_flag(p)
    p.set_defaults(func=cmd_verify)

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
        return args.func(args)
    except (SpecificationError, ProprietyError, DomainError) as exc:
        print(f"gminimax: configuration error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"gminimax: numeric error: {exc}", file=sys.stderr)
        return 3
    except GMinimaxError as exc:
        print(f"gminimax: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gminimax: i/o error: {exc}", file=sys.stderr)
        return 4
    finally:
        warnings.formatwarning = saved


if __name__ == "__main__":
    sys.exit(main())
