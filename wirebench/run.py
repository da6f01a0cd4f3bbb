"""The repo benchmark: the paper's two oracles served over loopback HTTP.

Usage (from the repository root)::

    python3 wirebench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

Each run pays set-up: it runs the CLI's ``--prepare-only`` step (dataset,
PowCov + ChromLand builds, IndexStore write), boots ``python -m
repro.serve`` over that store and waits for the first verified answer from
each oracle (a cold mmap open).  Set-up is repeated ``SETUPS`` times and
its median reported.  Then the workload is driven from this one process
with at most ``nproc`` (max 2) connections, every answer is checked
bit-for-bit against ``execute_batch`` on an in-memory build, and a fixed
accuracy sample checks the Theorem 1/5 bounds and the relative error.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once under ``wirebench/traced.py`` (spans at
every layer boundary, recorded from this directory's code) and prints the
per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Build outputs and
run scratch go to ``.bench_build/`` in the repository root.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    BUILD, CONNECTIONS, ROOT, SETUPS, SRC, Tally, configure, drive, fail,
    percentile, query_path, set_up,
)
from loadgen import encode_request, send_one  # noqa: E402

# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def environment_stamp(kernel: str) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        digest = hashlib.sha256()
        for base, dirs, files in sorted(os.walk(SRC)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(base, name), "rb") as handle:
                        digest.update(name.encode() + handle.read())
        commit = "src-sha256:" + digest.hexdigest()[:16]
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "kernel": kernel,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": os.cpu_count(),
            "connections": CONNECTIONS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still stops its servers: `finally` blocks run on exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    configure()

    import workloads
    from repro.kernels import resolve_kernel

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r} "
             f"(choose from {sorted(workloads.WORKLOADS)})")
    workload = workloads.WORKLOADS[args.workload]
    # Build step: compiles the C kernel into .bench_build/kernels once.
    kernel = resolve_kernel(None).name
    run_dir = os.path.join(BUILD, "runs", f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)

    fixture = workloads.load_fixture(workload)
    traffic = plan_traffic(workload, fixture, args)
    tally = Tally()
    if args.trace:
        from layers import traced_run

        metrics = traced_run(workload, run_dir, traffic, tally, args)
    else:
        metrics = untraced_run(workload, fixture, run_dir, traffic, tally, args)

    shutil.rmtree(run_dir, ignore_errors=True)  # kept only when a run aborts
    stamp = environment_stamp(kernel)
    print(f"workload {workload.name}: seed {args.seed}, {args.seconds:g}s, "
          f"sent {tally.attempted}, succeeded {tally.attempted - tally.failed}, "
          f"failed {tally.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print("env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


@dataclass
class Traffic:
    """A run's pre-generated requests and how their replies are checked."""

    requests: list[Any]
    probes: list[Any]  # the first verified answer of each oracle
    due: list[float] | None = None  # None: evenly at the workload's rate
    #: Makes a fresh ``verify(outcomes)`` for one pass (None: per request).
    verifier: Callable[[], Any] | None = None
    deltas: bool = False


def plan_traffic(workload: Any, fixture: Any, args: Any) -> Traffic:
    import workloads

    if workload.name == "update":
        import update

        requests, due, hot = update.make_requests(
            fixture, args.seed, args.seconds,
            f"/graphs/{workload.dataset}/delta")
        reads = [r for r in requests if isinstance(r, workloads.Request)]
        return Traffic(
            requests, [next(r for r in reads if r.oracle == o)
                       for o in workloads.ORACLES], due,
            lambda: update.verifier(requests, update.Replica(fixture, hot)),
            deltas=True)
    count = int(round(workload.rate * args.seconds))
    requests = workloads.make_requests(workload, fixture, args.seed, count)
    return Traffic(requests, [next(r for r in requests if r.oracle == o)
                              for o in workloads.ORACLES])


def untraced_run(workload: Any, fixture: Any, run_dir: str, traffic: Traffic,
                 tally: Tally, args: Any) -> dict[str, tuple[float, str]]:
    import workloads

    sample = workloads.accuracy_sample(fixture)
    setups = []
    for n in range(SETUPS):
        setup = set_up(workload, run_dir, n, traffic.probes, tally)
        setups.append(setup)
        if n < SETUPS - 1:
            setup.server.stop()
    server = setups[-1].server
    try:
        # The accuracy sample is checked on the freshly served indexes,
        # before the timed phase can change them.
        replies = [asyncio.run(send_one(server.port, encode_request(
            "POST", query_path(workload), r.body(), 0))) for r in sample.requests]
        phase = drive(workload, server, traffic.requests, tally, traffic.due,
                      traffic.verifier and traffic.verifier())
        rss = server.rss_mib()
    finally:
        server.stop()
    rel_error, accuracy_failed = workloads.score_accuracy(sample, replies)
    tally.attempted += len(replies)
    tally.failed += accuracy_failed

    ms = 1e3
    print(f"latency over {len(phase.latencies)} requests (ms): " + ", ".join(
        f"p{q * 100:g} {percentile(phase.latencies, q) * ms:.3f}"
        for q in (0.5, 0.9, 0.95, 0.99, 0.999)))
    metrics = {
        "setup_s": (statistics.median(s.seconds for s in setups), "s"),
        "latency_p50_ms": (percentile(phase.latencies, 0.50) * ms, "ms"),
        "qps": (phase.answers / phase.elapsed, "1/s"),
        "verified_share": ((tally.attempted - tally.failed) / tally.attempted,
                           "share"),
        "index_mib": (setups[-1].index_mib, "MiB"),
        "build_peak_mib": (statistics.median(s.build_peak_mib for s in setups),
                           "MiB"),
        "serve_rss_mib": (rss, "MiB"),
        "powcov_rel_error": (rel_error["powcov"], "ratio"),
        "chromland_rel_error": (rel_error["chromland"], "ratio"),
    }
    if traffic.deltas:
        import update

        deltas = update.delta_latencies(traffic.requests, phase.outcomes)
        print("deltas (HTTP status, ms from due): " + ", ".join(
            f"{status} {seconds * ms:.1f}" for status, seconds in deltas))
        metrics["delta_p50_ms"] = (
            percentile([seconds for _status, seconds in deltas], 0.50) * ms, "ms")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
