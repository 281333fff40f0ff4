"""Run-to-run spread of the end-to-end metrics, and agreement of two sets.

Run from the root of a checkout:

    python3 bench/spread.py --runs 10 --seed-base 100 --tag a
    python3 bench/spread.py --runs 10 --seed-base 200 --tag b
    python3 bench/spread.py --compare a b

The first form runs ``bench/run.py --trace 0`` once per seed
(``seed-base``, ``seed-base + 1``, ...) on each workload, one run at a
time, and prints per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the bound in ``BENCHMARK.json``.  It writes
``bench/out/spread-<tag>.json``.  ``--compare`` prints how far the
second set's medians moved from the first's, against the same bounds,
and whether the failed share is identical.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import harness

RUN_PY = os.path.join(harness.BENCH_DIR, "run.py")


def _spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def collect(runs: int, seed_base: int) -> dict:
    import run

    seconds = _spec()["run_seconds"]
    data = {}
    for w in run.WORKLOADS:
        rows = []
        for i in range(runs):
            argv = [sys.executable, RUN_PY, "--workload", w, "--seed", str(seed_base + i),
                    "--seconds", str(seconds), "--trace", "0"]
            wall, code, out, err, _, _ = harness.run_child(argv, timeout=180.0)
            lines = out.decode().splitlines()
            if code != 0 or not lines:
                raise RuntimeError(f"{w} seed {seed_base + i} exited {code}: "
                                   f"{err.decode()[-500:]}")
            res = json.loads(lines[-1])
            res["run_wall_s"] = wall
            rows.append(res)
            print(f"{w} seed {seed_base + i}: {wall:.1f} s, correct {res['correct']}, "
                  + ", ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()),
                  flush=True)
        data[w] = rows
    return data


def summarize(data: dict) -> list[str]:
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    lines = ["| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | bound | failed/attempted |",
             "|---|---|---|---|---|---|---|---|"]
    for w, rows in data.items():
        shares = {r["failed"] / r["attempted"] for r in rows}
        share = f"{shares.pop():.6g}" if len(shares) == 1 else "DIFFERS"
        for name in rows[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            lines.append(f"| {w} | {name} | {med:.5g} | {q1:.5g} | {q3:.5g} | "
                         f"{(q3 - q1) / med:.4f} | {bounds.get(name, '-')} | {share} |")
    return lines


def compare(a: dict, b: dict) -> list[str]:
    spec = {m["name"]: m for m in _spec()["end_to_end"]}
    lines = ["| workload | metric | first median | second median | worse by | bound | ok |",
             "|---|---|---|---|---|---|---|"]
    for w in a:
        share_a = {r["failed"] / r["attempted"] for r in a[w]}
        share_b = {r["failed"] / r["attempted"] for r in b[w]}
        for name in a[w][0]["metrics"]:
            ma = statistics.median(r["metrics"][name]["value"] for r in a[w])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[w])
            sign = 1.0 if spec[name]["better"] == "lower" else -1.0
            worse = sign * (mb - ma) / ma
            lines.append(f"| {w} | {name} | {ma:.5g} | {mb:.5g} | {worse:+.4f} | "
                         f"{spec[name]['bound']} | {'yes' if worse <= spec[name]['bound'] else 'NO'} |")
        lines.append(f"| {w} | failed share | {sorted(share_a)} | {sorted(share_b)} | | | "
                     f"{'yes' if share_a == share_b and len(share_a) == 1 else 'NO'} |")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--tag", default="a")
    parser.add_argument("--compare", nargs=2, metavar="TAG")
    args = parser.parse_args()

    def path(tag):
        return os.path.join(harness.OUT_DIR, f"spread-{tag}.json")

    if args.compare:
        sets = []
        for tag in args.compare:
            with open(path(tag)) as fh:
                sets.append(json.load(fh))
        print("\n".join(compare(*sets)))
        return 0
    harness.require_source()
    data = collect(args.runs, args.seed_base)
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    with open(path(args.tag), "w") as fh:
        json.dump(data, fh, indent=1)
    print("\n".join(summarize(data)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
