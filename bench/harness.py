"""Shared plumbing: locating the program, child processes, statistics.

The benchmark runs from the root of a source checkout.  The program is
the ``gminimax`` package under ``src/``; it is imported from there and
never from an installed copy.
"""

from __future__ import annotations

import os
import resource
import select
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")

# numpy and scipy each start an OpenBLAS worker thread on import; the
# scalar work measured here never uses them.  One OpenBLAS thread keeps
# every benchmark process, CLI children included, to a single thread.
# Set before anything imports numpy; children inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

CHILD_TIMEOUT_S = 60.0
SETUP_PROBES = 3


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def program_env() -> dict:
    """Environment for child interpreters: the checkout's src first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "gminimax", "__init__.py")):
        raise ProgramMissing(
            f"no program source at {os.path.join(SRC, 'gminimax')}; run from "
            "the root of a gminimax checkout"
        )


def import_program():
    """Import ``gminimax`` from ``src/`` of the current checkout."""
    require_source()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gminimax

    where = os.path.dirname(os.path.abspath(gminimax.__file__))
    if where != os.path.join(SRC, "gminimax"):
        raise ProgramMissing(f"gminimax was imported from {where}, not {SRC}")
    return gminimax


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S):
    """Run one child to its exit, reading its pipes without helper threads.

    Returns ``(wall_s, returncode, stdout, stderr, maxrss_kb, ready_s)``;
    ``wall_s`` runs from spawn to exit.  ``ready_s`` is the time from
    spawn to the end of the child's first line of stdout (None if it
    printed none).  A child that outlives ``timeout`` is killed and
    reaped, and ``subprocess.TimeoutExpired`` is raised.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=program_env(), cwd=ROOT)
    try:
        out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
        chunks = {out_fd: [], err_fd: []}
        open_fds = [out_fd, err_fd]
        ready_s = None
        while open_fds:
            left = t0 + timeout - time.perf_counter()
            if left <= 0:
                raise subprocess.TimeoutExpired(argv, timeout)
            readable, _, _ = select.select(open_fds, [], [], left)
            for fd in readable:
                data = os.read(fd, 1 << 16)
                if not data:
                    open_fds.remove(fd)
                    continue
                if fd == out_fd and ready_s is None and b"\n" in data:
                    ready_s = time.perf_counter() - t0
                chunks[fd].append(data)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    out, err = b"".join(chunks[out_fd]), b"".join(chunks[err_fd])
    return wall_s, proc.returncode, out, err, usage.ru_maxrss, ready_s


def setup_seconds(workload: str, seed: int) -> float:
    """Median over SETUP_PROBES fresh interpreters of the time from spawn
    until the workload's inputs are built (``run.py --setup-probe``)."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        _, code, out, err, _, ready_s = run_child(argv)
        if code != 0 or out.strip() != b"ready" or ready_s is None:
            raise RuntimeError(f"setup probe failed ({code}): {err.decode()[-500:]}")
        times.append(ready_s)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
