"""Processes, set-up and the timed phase shared by both kinds of run.

Every child process (the CLI's prepare step and the server) runs with the
server's default settings and keeps its build outputs (compiled kernels,
bytecode, temporary files) under ``.bench_build/`` in the repository root.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from time import perf_counter
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
TRACED = os.path.join(HERE, "traced.py")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 2
#: Connections the client opens: ``nproc``, at most 2.
CONNECTIONS = max(1, min(2, len(os.sched_getaffinity(0))))
BOOT_TIMEOUT = 120.0
SERVING_LINE = re.compile(r"serving graph .* on http://[^:]+:(\d+)")


def fail(message: str) -> None:
    print(f"wirebench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    """Default server settings; every build output stays under .bench_build."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=SRC,
        PYTHONUNBUFFERED="1",
        PYTHONPYCACHEPREFIX=os.path.join(BUILD, "pycache"),
        REPRO_KERNEL_CACHE=os.path.join(BUILD, "kernels"),
        TMPDIR=os.path.join(BUILD, "tmp"),
    )
    return env


def configure() -> None:
    """Give this process the children's environment and import path."""
    if not os.path.isfile(os.path.join(SRC, "repro", "serve", "__main__.py")):
        fail(f"no repro sources under {SRC}; run from a full checkout")
    os.environ.update(child_env())
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"]
    sys.path.insert(0, SRC)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def serve_args(workload: Any, index_dir: str) -> list[str]:
    from workloads import GRAPH_SEED

    return ["--dataset", workload.dataset, "--scale", str(workload.scale),
            "--k", str(workload.k), "--seed", str(GRAPH_SEED),
            "--index", index_dir, "--oracle", "powcov", "--oracle", "chromland",
            "--host", "127.0.0.1", "--port", "0"]


def launcher(spans: str | None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "repro.serve"]
    return [sys.executable, TRACED, spans]


def prepare(workload: Any, index_dir: str, log: str,
            spans: str | None = None) -> float:
    """Run the CLI's ``--prepare-only`` step; returns its peak RSS in MiB."""
    cmd = launcher(spans) + serve_args(workload, index_dir) + ["--prepare-only"]
    with open(log, "wb") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        fail(f"prepare step exited {proc.returncode}; see {log}")
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


@dataclass
class Server:
    proc: subprocess.Popen[bytes]
    port: int

    def rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def boot(workload: Any, index_dir: str, log: str,
         spans: str | None = None) -> Server:
    cmd = launcher(spans) + serve_args(workload, index_dir)
    out = open(log, "wb")
    try:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
    finally:
        out.close()
    deadline = perf_counter() + BOOT_TIMEOUT
    while perf_counter() < deadline:
        with open(log, errors="replace") as handle:
            match = SERVING_LINE.search(handle.read())
        if match:
            return Server(proc, int(match.group(1)))
        if proc.poll() is not None:
            break
        time.sleep(0.002)
    Server(proc, 0).stop()
    fail(f"server did not come up; see {log}")
    raise AssertionError  # unreachable


def query_path(workload: Any) -> str:
    return f"/graphs/{workload.dataset}/query"


# ----------------------------------------------------------------------
# One set-up + one timed phase
# ----------------------------------------------------------------------
@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


@dataclass
class Setup:
    seconds: float
    build_peak_mib: float
    index_dir: str
    index_mib: float
    server: Server


def open_server(workload: Any, index_dir: str, log: str, probes: list[Any],
                tally: Tally, spans: str | None = None) -> Server:
    """Boot the server over ``index_dir`` and get a verified first answer
    from each oracle (the cold store open happens on that first query)."""
    from loadgen import encode_request, send_one

    server = boot(workload, index_dir, log, spans)
    try:
        for probe in probes:
            raw = encode_request("POST", query_path(workload), probe.body(), 0)
            status, body = asyncio.run(send_one(server.port, raw))
            tally.add(probe.check(status, body))
    except BaseException:
        server.stop()
        raise
    return server


def set_up(workload: Any, run_dir: str, n: int, probes: list[Any],
           tally: Tally, prepare_spans: str | None = None) -> Setup:
    """Prepare step -> boot -> first verified answer from each oracle."""
    index_dir = os.path.join(run_dir, f"index{n}")
    started = perf_counter()
    peak = prepare(workload, index_dir, os.path.join(run_dir, f"prepare{n}.log"),
                   prepare_spans)
    server = open_server(workload, index_dir, os.path.join(run_dir, f"serve{n}.log"),
                         probes, tally)
    seconds = perf_counter() - started
    index_bytes = sum(
        os.path.getsize(os.path.join(index_dir, f))
        for f in os.listdir(index_dir) if f.endswith(".repro")
    )
    return Setup(seconds, peak, index_dir, index_bytes / 2**20, server)


@dataclass
class Phase:
    latencies: list[float]  # seconds, one per request
    answers: int  # verified query answers
    elapsed: float
    lateness: list[float]
    outcomes: list[Any]


def drive(workload: Any, server: Server, requests: list[Any],
          tally: Tally, due: list[float] | None = None,
          verify: Any = None) -> Phase:
    """Run the timed phase, then check every reply.

    ``requests`` carry ``body()`` and an optional ``path`` (default: the
    query endpoint) and are sent at ``due`` (default: evenly at the
    workload's rate).  ``verify(outcomes)`` returns one verdict per
    outcome; by default each reply is checked by its request.  Latency and
    answers count query requests (those with ``triples``) only.
    """
    from loadgen import encode_request, open_loop

    # Request ids start at 1; set-up probes and accuracy requests send 0.
    raws = [encode_request("POST", getattr(r, "path", None) or query_path(workload),
                           r.body(), i + 1) for i, r in enumerate(requests)]
    if due is None:
        due = [i / workload.rate for i in range(len(requests))]
    result = asyncio.run(open_loop(server.port, raws, due, CONNECTIONS))
    if verify is None:
        verdicts = [requests[o.index].check(o.status, o.body)
                    for o in result.outcomes]
    else:
        verdicts = verify(result.outcomes)
    answers = 0
    latencies = []
    for outcome, ok in zip(result.outcomes, verdicts):
        tally.add(ok)
        triples = getattr(requests[outcome.index], "triples", None)
        if triples is not None:
            answers += len(triples) if ok else 0
            latencies.append(outcome.done - outcome.due)
    return Phase(latencies, answers, result.finished - result.started,
                 result.lateness, result.outcomes)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


