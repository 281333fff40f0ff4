"""Benchmark entry point for gminimax.

Run from the root of a checkout:

    python3 bench/run.py --workload closed_form_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a fixed amount of the workload twice, plain and then
with every public ``gminimax`` function wrapped from the benchmark's
side, and reports per-layer metrics and the tracing overhead.
``--workload all`` runs the four workloads one after another, each in
its own process.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; its metrics are every
``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``) or every
``per_layer`` metric (``--trace 1``), on every workload.  An operation is
one CLI process on ``cli_cold``, one estimator call on the sweeps and one
round of the three suites on ``verify_audit``.  Raw results go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time

import harness
from harness import metric

WORKLOADS = ("cli_cold", "closed_form_sweep", "custom_family_sweep", "verify_audit")
RUN_TIMEOUT_S = 175.0
MANIFEST = os.path.join(harness.ROOT, "BENCHMARK.json")


# ---------------------------------------------------------------------------
# Set-up: what a fresh interpreter does before its first operation
# ---------------------------------------------------------------------------


def build_inputs(workload: str, seed: int):
    if workload == "cli_cold":
        import cli_cold

        harness.import_program()
        return None, cli_cold.build(seed)
    gm = harness.import_program()
    if workload == "verify_audit":
        import verify_audit

        return gm, verify_audit.verify_seeds(seed)
    import sweeps

    return gm, sweeps.build(gm, seed, custom=workload == "custom_family_sweep")


def _untraced_guard(gm, problems: list[str]) -> None:
    """An untraced run must have measured the program unwrapped."""
    if gm is None:
        return
    import tracing

    wrapped = tracing.wrapped_names(gm)
    if wrapped:
        problems.append(f"untraced run found wrappers on {wrapped[:3]}")


def import_layer_metrics(problems: list[str]) -> dict:
    """``cli.import.*``: import times of fresh interpreters, medians of
    three ``python -X importtime`` probes.  Every workload's set-up
    imports ``gminimax``, so every traced run reports them."""
    import cli_cold

    probes = []
    for _ in range(3):
        _, code, out, err, _, _ = harness.run_child(cli_cold.IMPORT_PROBE)
        if code != 0:
            problems.append(f"import probe failed: {err.decode()[-300:]}")
            return {}
        probes.append((int(out), cli_cold.parse_importtime(err.decode())))
    metrics = {name: metric(statistics.median(p[1][name] for p in probes), "ms")
               for name in probes[0][1]}
    metrics["cli.import.modules"] = metric(probes[0][0], "count")
    return metrics


def not_run(*names_units) -> dict:
    """Layer metrics of work this workload does not do: 0."""
    return {name: metric(0, unit) for name, unit in names_units}


def verify_not_run() -> dict:
    import verify_audit as va

    return not_run(*((f"verify.{suite}_s", "s") for suite in va.SUITES))


def _check_manifest(metrics: dict, trace: bool) -> None:
    """The result line carries exactly the manifest's metrics, in its units."""
    with open(MANIFEST) as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise RuntimeError(f"metrics differ from {MANIFEST}: missing {missing}, "
                           f"unexpected {extra}, wrong unit {units}")


def _result(problems, attempted, failed, metrics, extra=None) -> dict:
    out = {"correct": not problems, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    if extra is not None:
        out["_extra"] = extra
    out["_problems"] = problems
    return out


# ---------------------------------------------------------------------------
# closed_form_sweep and custom_family_sweep
# ---------------------------------------------------------------------------


def run_sweep(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import sweeps

    custom = workload == "custom_family_sweep"
    gm, pool = build_inputs(workload, seed)
    if not trace:
        tally = sweeps.measure(gm, pool, seconds, custom)
        rss_mb = harness.peak_rss_mb()  # before sorting the samples for the median
        problems = list(tally.problems)
        _untraced_guard(gm, problems)
        metrics = {"setup_s": metric(harness.setup_seconds(workload, seed), "s")}
        metrics.update(sweeps.end_to_end(tally))
        metrics["peak_rss_mb"] = metric(rss_mb, "MB")
        return _result(problems, tally.attempted, tally.failed, metrics,
                       {"calls": len(tally.latencies_ns), "cpu_s": tally.cpu_ns / 1e9})

    import tracing

    sweeps.run_round(gm, pool[0], custom, sweeps.Tally())  # warm-up
    plain = sweeps.Tally()
    for ops in pool:
        sweeps.run_round(gm, ops, custom, plain, keep_outputs=True)
    tracer = tracing.Tracer()
    tracer.install(gm)
    try:
        tracer.phase = "build"
        traced_pool = sweeps.build(gm, seed, custom)
        tracer.phase = "work"
        traced = sweeps.Tally()
        for ops in traced_pool:
            sweeps.run_round(gm, ops, custom, traced, keep_outputs=True)
    finally:
        tracer.uninstall()
    problems = plain.problems + traced.problems
    if plain.outputs != traced.outputs:
        problems.append("outputs changed under tracing")
    metrics = tracing.layer_metrics(tracer.spans, traced.attempted)
    metrics["trace.overhead_s"] = metric((traced.cpu_ns - plain.cpu_ns) / 1e9, "s")
    metrics.update(import_layer_metrics(problems))
    metrics.update(not_run(("cli.main_ms", "ms")))
    metrics.update(verify_not_run())
    dump = tracer.dump(f"{workload}-seed{seed}")
    return _result(problems, plain.attempted + traced.attempted,
                   plain.failed + traced.failed, metrics, {"trace_dump": dump})


# ---------------------------------------------------------------------------
# verify_audit
# ---------------------------------------------------------------------------


def run_verify(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import verify_audit as va

    gm, seeds = build_inputs(workload, seed)
    problems: list[str] = []
    if not trace:
        first: dict[int, bytes] = {}
        rounds, rounds_cpu = [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            s = seeds[len(rounds) % len(seeds)]
            wall, cpu, records = va.run_round(gm, s)
            rounds.append(wall)
            rounds_cpu.append(sum(cpu.values()))
            problems += va.check(records)
            blob = va.serialize(records)
            if first.setdefault(s, blob) != blob:
                problems.append(f"re-running verify seed {s} changed its records")
        _untraced_guard(gm, problems)
        rss_mb = harness.peak_rss_mb()
        metrics = {"setup_s": metric(harness.setup_seconds(workload, seed), "s"),
                   "op_p50_ms": metric(statistics.median(rounds) * 1e3, "ms"),
                   "ops_per_s": metric(1.0 / statistics.median(rounds_cpu), "1/s"),
                   "peak_rss_mb": metric(rss_mb, "MB")}
        return _result(problems, len(rounds), 0, metrics, {"round_wall_s": rounds,
                                                           "round_cpu_s": rounds_cpu})

    import tracing

    # the traced round is the same for every benchmark seed
    va.run_round(gm, va.VERIFY_SEEDS[0])  # warm-up
    _, cpu_plain, records = va.run_round(gm, va.VERIFY_SEEDS[0])
    problems += va.check(records)
    tracer = tracing.Tracer()
    tracer.install(gm)
    try:
        _, cpu_traced, traced_records = va.run_round(gm, va.VERIFY_SEEDS[0])
    finally:
        tracer.uninstall()
    if va.serialize(records) != va.serialize(traced_records):
        problems.append("records changed under tracing")
    metrics = tracing.layer_metrics(tracer.spans, None)
    for suite in va.SUITES:
        metrics[f"verify.{suite}_s"] = metric(cpu_plain[suite], "s")
    metrics["trace.overhead_s"] = metric(
        sum(cpu_traced.values()) - sum(cpu_plain.values()), "s")
    metrics.update(import_layer_metrics(problems))
    metrics.update(not_run(("cli.main_ms", "ms")))
    dump = tracer.dump(f"{workload}-seed{seed}")
    return _result(problems, 2, 0, metrics, {"trace_dump": dump})


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


def run_cli(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import cli_cold

    _, pool = build_inputs(workload, seed) if trace else (None, cli_cold.build(seed))
    harness.require_source()
    problems: list[str] = []
    if not trace:
        harness.run_child(cli_cold.cli_argv(pool[0]))  # warm the file cache
        walls, rss_kb = [], 0
        failed = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            cmd = pool[len(walls) % len(pool)]
            wall, code, out, err, maxrss, _ = harness.run_child(cli_cold.cli_argv(cmd))
            walls.append(wall)
            rss_kb = max(rss_kb, maxrss)
            failed += code != 0
            problem = cli_cold.check(cmd, code, out.decode())
            if problem:
                problems.append(f"{cmd.describe()}: {problem}: {err.decode()[-300:]}")
        metrics = {"setup_s": metric(harness.setup_seconds(workload, seed), "s"),
                   "op_p50_ms": metric(statistics.median(walls) * 1e3, "ms"),
                   "ops_per_s": metric((len(walls) - failed) / sum(walls), "1/s"),
                   "peak_rss_mb": metric(rss_kb / 1024.0, "MB")}
        return _result(problems, len(walls), failed, metrics, {"processes": len(walls)})

    import tracing
    import gminimax
    import gminimax.cli

    cycle = pool[:len(cli_cold.COMMANDS)]

    def in_process(cmds):
        walls, outputs, cpu = [], [], 0.0
        for cmd in cmds:
            buf, errbuf = io.StringIO(), io.StringIO()
            c0 = time.thread_time()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(errbuf):
                code = gminimax.cli.main(cmd.argv)
            walls.append(time.perf_counter() - t0)
            cpu += time.thread_time() - c0
            outputs.append(buf.getvalue())
            problem = cli_cold.check(cmd, code, buf.getvalue())
            if problem:
                problems.append(f"{cmd.describe()}: {problem}: {errbuf.getvalue()[-300:]}")
        return walls, outputs, cpu

    in_process(cycle[:1])  # warm-up
    walls, plain_out, cpu_plain = in_process(cycle)
    tracer = tracing.Tracer()
    tracer.install(gminimax)
    try:
        _, traced_out, cpu_traced = in_process(cycle)
    finally:
        tracer.uninstall()
    if plain_out != traced_out:
        problems.append("outputs changed under tracing")

    metrics = import_layer_metrics(problems)
    metrics["cli.main_ms"] = metric(statistics.median(walls) * 1e3, "ms")
    metrics.update(tracing.layer_metrics(tracer.spans, None))
    metrics["trace.overhead_s"] = metric(cpu_traced - cpu_plain, "s")
    metrics.update(verify_not_run())
    dump = tracer.dump(f"{workload}-seed{seed}")
    return _result(problems, 2 * len(cycle), 0, metrics, {"trace_dump": dump})


RUNNERS = {"cli_cold": run_cli, "closed_form_sweep": run_sweep,
           "custom_family_sweep": run_sweep, "verify_audit": run_verify}


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _print_result(workload: str, result: dict) -> None:
    print(f"# {workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"{workload:20s} {name:48s} {m['value']:14.6g} {m['unit']}")
    for p in result["_problems"][:10]:
        print(f"problem: {p}", file=sys.stderr)


def _save_raw(label: str, result: dict) -> None:
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    with open(os.path.join(harness.OUT_DIR, f"run-{label}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


def _public(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def run_all(seed: int, seconds: int, trace: int) -> dict:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", w,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        _, code, out, err, _, _ = harness.run_child(argv, timeout=RUN_TIMEOUT_S)
        sys.stderr.write(err.decode())
        lines = out.decode().splitlines()
        if code != 0 or not lines:
            raise RuntimeError(f"workload {w} exited with {code}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][f"{w}.{name}"] = m
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            build_inputs(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        if args.workload == "all":
            harness.require_source()
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = RUNNERS[args.workload](args.workload, args.seed, args.seconds,
                                            bool(args.trace))
            _save_raw(f"{args.workload}-seed{args.seed}-trace{args.trace}", result)
            _print_result(args.workload, result)
            _check_manifest(result["metrics"], bool(args.trace))
            result = _public(result)
    except harness.ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
