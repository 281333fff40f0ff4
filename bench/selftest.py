"""Self-test of the benchmark itself.

1. Every workload's check accepts the program's real output and rejects
   the same output perturbed (an estimate moved by 1e-6 relative, a
   record flipped, a row dropped, a wrong exit code, ...).
2. Every workload runs end to end at a tiny size, plain and traced.

Run from the root of a checkout:  python3 bench/selftest.py
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import cli_cold
import harness
import run
import sweeps
import verify_audit as va

FAILURES: list[str] = []


def expect(ok: bool, label: str) -> None:
    if not ok:
        FAILURES.append(label)


def bump(v: float) -> float:
    """Move a value by 1e-6 relative (absolute below magnitude 1)."""
    return v + 1e-6 * max(1.0, abs(v))


def sweep_checks(gm) -> int:
    n = 0
    for custom in (False, True):
        pool = sweeps.build(gm, 0, custom)
        for op in pool[0]:
            try:
                out = sweeps.outcome(op.call())
            except gm.ConvergenceError:
                continue  # the large-x slice on the twins
            label = f"{'custom' if custom else 'closed'} {op.describe()}"
            expect(sweeps.check(op, out) is None, f"{label}: real output rejected")
            fields = ["estimate", "equalized_regret"]
            fields += {"bounds": ["delta_lo"], "box": ["delta_hi"], "jcp": ["eta"]}.get(op.kind, [])
            for field in fields:
                bad = dict(out, **{field: bump(out[field])})
                expect(sweeps.check(op, bad) is not None, f"{label}: {field} +1e-6 accepted")
                n += 1

    # Failures are accepted only as the named error on the large-x slice
    # of the custom twins.
    def raising(exc):
        def call():
            raise exc
        return call

    stalled = gm.ConvergenceError(f"{sweeps.EXPECTED_FAILURE} of exponential_twin")
    cases = [(True, True, stalled, True), (False, True, stalled, False),
             (True, False, stalled, False),
             (True, True, gm.DomainError("other"), False)]
    for custom, large_x, exc, accepted in cases:
        op = sweeps.Op("box", "exponential", (1.0, 3.0, 1.0, 2.0), 1e8, large_x=large_x)
        op.call = raising(exc)
        tally = sweeps.Tally()
        sweeps.run_round(gm, [op], custom, tally)
        expect(tally.failed == 1 and (not tally.problems) == accepted,
               f"failure handling custom={custom} large_x={large_x} {exc!r}")
        n += 1
    return n


def _cli_outputs(gm_cli, cmds):
    outs = []
    for cmd in cmds:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = gm_cli.main(cmd.argv)
        outs.append((code, buf.getvalue()))
    return outs


def cli_checks() -> int:
    import gminimax.cli

    n = 0
    cmds = cli_cold.build(0)[:len(cli_cold.COMMANDS)]
    for cmd, (code, text) in zip(cmds, _cli_outputs(gminimax.cli, cmds)):
        label = cmd.describe()
        expect(cli_cold.check(cmd, code, text) is None, f"{label}: real output rejected")
        bad = [(1, text, "exit code 1"), (0, text + text, "output doubled")]
        if cmd.name == "regret_curve":
            lines = text.splitlines(keepends=True)
            bad.append((0, "".join(lines[:-1]), "last row dropped"))
            first = lines[1].split(",")
            first[1] = repr(-1.0)
            bad.append((0, "".join([lines[0], ",".join(first)] + lines[2:]),
                        "minimum moved to the first row"))
        else:
            payload = json.loads(text)
            if cmd.name == "loss":
                keys = [("loss",)]
            elif cmd.name == "certify":
                keys = [("witness", "alpha")]
            else:
                keys = [("estimate",)] + ([("eta_estimate",)] if cmd.name == "iprgm" else [])
            for path in keys:
                p = copy.deepcopy(payload)
                holder = p
                for k in path[:-1]:
                    holder = holder[k]
                holder[path[-1]] = bump(holder[path[-1]])
                bad.append((0, json.dumps(p, sort_keys=True) + "\n", f"{'.'.join(path)} +1e-6"))
        for b_code, b_text, what in bad:
            expect(cli_cold.check(cmd, b_code, b_text) is not None, f"{label}: {what} accepted")
            n += 1
    return n


def verify_checks(gm) -> int:
    records = va.run_round(gm, va.VERIFY_SEEDS[0])[2]
    expect(va.check(records) == [], "verify: real round rejected")

    def mutated(fn):
        r = copy.deepcopy(records)
        fn(r)
        return va.check(r)

    def set_note_alpha(r):
        rec = next(x for x in r["bayesianity"] if x["check"] == "data_independent_normal")
        rec["note"] = f"alpha={bump(va.WITNESS_ALPHAS['data_independent_normal']):.12f}"

    mutations = {
        "record flipped to failed": lambda r: r["minimax"][0].update(passed=False),
        "record dropped": lambda r: r["invariance"].pop(),
        "value beyond bound": lambda r: r["minimax"][1].update(value=1.0),
        "witness alpha +1e-6": set_note_alpha,
    }
    n = 0
    for what, fn in mutations.items():
        expect(mutated(fn) != [], f"verify: {what} accepted")
        n += 1
    again = copy.deepcopy(records)
    again["minimax"][0]["value"] = bump(again["minimax"][0]["value"])
    expect(va.serialize(again) != va.serialize(records), "verify: re-run difference unseen")
    return n + 1


def tiny_runs() -> None:
    harness.SETUP_PROBES = 1
    for w in run.WORKLOADS:
        for trace in (False, True):
            res = run.RUNNERS[w](w, 0, 1, trace)
            label = f"tiny {w} trace={int(trace)}"
            expect(res["correct"], f"{label}: {res['_problems'][:3]}")
            expect(res["attempted"] >= 1 and res["metrics"], f"{label}: empty result")
            try:
                run._check_manifest(res["metrics"], trace)
            except RuntimeError as exc:
                expect(False, f"{label}: {exc}")
            if not trace:
                expect(all(m["value"] > 0 for m in res["metrics"].values()),
                       f"{label}: an end-to-end metric reads 0")
            per_round = len(sweeps.LARGE_X) if w == "custom_family_sweep" else 0
            round_size = 4 * (len(sweeps.MIX) + 1) + len(sweeps.LARGE_X)
            if w.endswith("sweep"):
                expect(res["failed"] * round_size == res["attempted"] * per_round,
                       f"{label}: failed {res['failed']} of {res['attempted']}")
            else:
                expect(res["failed"] == 0, f"{label}: failed {res['failed']}")
            print(f"{label}: attempted {res['attempted']} failed {res['failed']} "
                  f"metrics {len(res['metrics'])}", flush=True)
            if trace and w == "verify_audit":
                m = res["metrics"]
                expect(m["oracle.mean_inverse_per_sweep"]["value"] > 0
                       and m["bayesianity.bayes_evals_per_path_witness"]["value"] > 0,
                       f"{label}: nested counts missing")


def main() -> int:
    gm = harness.import_program()
    print(f"sweep checks: {sweep_checks(gm)} perturbations", flush=True)
    print(f"cli checks: {cli_checks()} perturbations", flush=True)
    print(f"verify checks: {verify_checks(gm)} perturbations", flush=True)
    tiny_runs()
    for f in FAILURES:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
