"""The traced run: per-layer metrics from the spans ``traced.py`` records.

A traced run prepares the indexes once under ``traced.py``, then drives
the workload twice over them: against the plain server (the untraced
reference for ``trace.overhead_share``) and against a server started under
``traced.py``.  Serving metrics use only spans that start inside the traced
timed phase; build and store metrics come from the set-up.

Which end-to-end metric each layer metric should move, and on which
workload (``interactive`` = I, ``bulk`` = B):

====================================  ===================================
graph.load_s, landmarks.select_s,     setup_s on I and B
powcov.build_s, powcov.sssp,
kernels.msbfs_s, powcov.python_s,
chromland.build_s, store.save_s,
store.open_ms, store.first_batch_ms
powcov.entries                        index_mib, powcov_rel_error
http.read_us, batching.queue_wait_ms, latency_p50_ms on I; no change on B
batching.timer_flush_share,
serve.pool_wait_ms
app.parse_us_per_query,               qps on B; no change on I
app.encode_us_per_query,
engine.run_us_per_query,
engine.plan_us_per_query,
engine.execute_us_per_query,
engine.plan_hit_rate,
engine.groups_per_batch,
batching.batch_queries,
kernels.aux_dijkstra_us
engine.answer_hit_rate,               the printed latency tail (the answer
registry.lock_stall_ms                cache is bypassed and no delta holds
                                      the locks on I and B: predicted no
                                      change)
loadgen.lateness_p99_ms,              checks on the measurement itself
trace.overhead_share,
trace.unattributed_share
====================================  ===================================
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
from collections import defaultdict
from typing import Any

from harness import Tally, drive, open_server, percentile, set_up
from loadgen import encode_request, send_one

#: Span row layout written by traced.py.
ID, NAME, START, END, PARENT, RID, ATTRS = range(7)


def load_spans(path: str) -> dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def _total(spans: list[list[Any]], name: str) -> float:
    return sum(s[END] - s[START] for s in spans if s[NAME] == name)


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def build_metrics(spans: list[list[Any]]) -> dict[str, float]:
    """Set-up layers, from the traced ``--prepare-only`` process."""
    kernel = [s for s in spans if s[NAME].startswith("kernels.")]
    builds = [s for s in spans if s[NAME] == "powcov.build"]
    in_powcov = sum(
        k[END] - k[START] for k in kernel
        if any(b[START] <= k[START] and k[END] <= b[END] for b in builds)
    )
    powcov_s = _total(spans, "powcov.build")
    return {
        "graph.load_s": _total(spans, "graph.load"),
        "landmarks.select_s": _total(spans, "landmarks.select"),
        "powcov.build_s": powcov_s,
        "powcov.sssp": float(sum(b[ATTRS].get("sssp", 0) for b in builds)),
        "powcov.entries": float(sum(b[ATTRS].get("entries", 0) for b in builds)),
        "kernels.msbfs_s": _total(spans, "kernels.msbfs_bitset")
        + _total(spans, "kernels.msbfs_sparse"),
        "kernels.one_removed_s": _total(spans, "kernels.one_removed_pass"),
        "powcov.python_s": powcov_s - in_powcov,
        "chromland.build_s": _total(spans, "chromland.build"),
        "store.save_s": _total(spans, "store.save"),
    }


def serve_metrics(spans: list[list[Any]], sessions: dict[str, Any],
                  window_start: float) -> dict[str, float]:
    """Serving layers: spans that start inside the timed phase."""
    setup = [s for s in spans if s[START] < window_start]
    first_runs: dict[str, list[Any]] = {}
    for s in sorted(setup, key=lambda s: s[START]):
        if s[NAME] == "engine.run":
            first_runs.setdefault(s[ATTRS].get("kind", ""), s)
    live = [s for s in spans if s[START] >= window_start]
    by_name: dict[str, list[list[Any]]] = defaultdict(list)
    for s in live:
        by_name[s[NAME]].append(s)

    def durations(name: str) -> list[float]:
        return [s[END] - s[START] for s in by_name[name]]

    submits = {s[PARENT]: s for s in by_name["batching.submit"]}
    lookups: dict[int, float] = defaultdict(float)
    for s in by_name["registry.lookup"]:
        lookups[s[PARENT]] += s[END] - s[START]
    parse = encode = 0.0
    parsed = 0
    for handler in by_name["app.handle_query"]:
        submit = submits.get(handler[ID])
        if submit is None:
            continue
        # Registry lookups before the submit wait on the registry lock;
        # they count as lock stall, not parsing.
        parse += submit[START] - handler[START] - lookups[handler[ID]]
        encode += handler[END] - submit[END]
        parsed += submit[ATTRS]["n"]
    flushes = by_name["batching.flush"]
    waits = [w for f in flushes for w in f[ATTRS]["waits"]]
    runs = by_name["engine.run"]
    run_queries = sum(s[ATTRS]["n"] for s in runs)
    groups = by_name["engine.execute_group"]
    executed = sum(s[ATTRS]["n"] for s in groups)
    plan_s = sum(durations("engine.plan_batch")) + sum(
        durations("engine.prepare_mask"))
    hits = sum(v["cache_info"]["hits"] for v in sessions.values())
    misses = sum(v["cache_info"]["misses"] for v in sessions.values())
    pool = [s[END] - s[START] for s in by_name["serve.pool_wait"]
            if s[ATTRS].get("fn") != "apply_locked"]
    executes = {s[ID] for s in by_name["serve.execute"]}
    handlers = {s[ID] for s in by_name["app.handle_query"]}
    stall = sum(s[END] - s[START] for s in by_name["registry.lock_wait"]
                if s[ATTRS].get("for") == "read") + sum(
        s[END] - s[START] for s in by_name["registry.lookup"]
        if s[PARENT] in executes or s[PARENT] in handlers)
    return {
        "store.open_ms": _total(setup, "store.open") * 1e3,
        "store.first_batch_ms": sum(
            s[END] - s[START] for s in first_runs.values()) * 1e3,
        "http.read_us": _mean(durations("http.read")) * 1e6,
        "batching.queue_wait_ms": _mean(waits) * 1e3,
        "batching.timer_flush_share": (
            sum(f[ATTRS]["timer"] for f in flushes) / len(flushes)
            if flushes else 0.0),
        "batching.batch_queries": _mean([f[ATTRS]["queries"] for f in flushes]),
        "serve.pool_wait_ms": _mean(pool) * 1e3,
        "app.parse_us_per_query": parse / max(parsed, 1) * 1e6,
        "app.encode_us_per_query": encode / max(parsed, 1) * 1e6,
        "engine.run_us_per_query": sum(durations("engine.run"))
        / max(run_queries, 1) * 1e6,
        "engine.plan_us_per_query": plan_s / max(executed, 1) * 1e6,
        "engine.execute_us_per_query": sum(durations("engine.execute_group"))
        / max(executed, 1) * 1e6,
        "engine.plan_hit_rate": 1.0 - len(by_name["engine.prepare_mask"])
        / max(len(groups), 1),
        "engine.groups_per_batch": len(groups) / max(len(runs), 1),
        "engine.answer_hit_rate": hits / max(hits + misses, 1),
        "kernels.aux_dijkstra_us": _mean(durations("kernels.aux_dijkstra")) * 1e6,
        "registry.lock_stall_ms": stall / max(len(handlers), 1) * 1e3,
    }


def delta_metrics(spans: list[list[Any]],
                  sessions: dict[str, Any]) -> dict[str, float]:
    """Write-path layers (the ``update`` workload only)."""

    def mean_ms(name: str) -> float:
        return _mean([s[END] - s[START] for s in spans if s[NAME] == name]) * 1e3

    return {
        "registry.apply_delta_ms": mean_ms("registry.apply_delta"),
        "graph.apply_delta_ms": mean_ms("graph.apply_delta"),
        "dynamic.repair_ms": mean_ms("dynamic.repair"),
        "dynamic.full_rebuilds": float(sum(
            s[ATTRS].get("full_rebuild", False) for s in spans
            if s[NAME] == "dynamic.repair")),
        "engine.rebind_migrated": float(sum(
            v["counters"].get("rebind_answers_migrated", 0)
            for v in sessions.values())),
    }


def self_times(spans: list[list[Any]]) -> dict[str, float]:
    """Per span name: total duration minus the time its direct children
    cover (children are found by parent id)."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT]:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s[NAME]] += s[END] - s[START] - child_time.get(s[ID], 0.0)
    return dict(out)


def unattributed_share(outcomes: list[Any], spans: list[list[Any]]) -> float:
    """Share of client-observed request time (send to reply) outside the
    server's ``app.dispatch`` span: sockets, HTTP framing, loop hops."""
    dispatch: dict[int, list[list[Any]]] = defaultdict(list)
    for s in spans:
        if s[NAME] == "app.dispatch":
            dispatch[s[RID]].append(s)
    client = covered = 0.0
    for o in outcomes:
        match = next((s for s in dispatch.get(o.index + 1, ())
                      if o.sent <= s[START] and s[END] <= o.done), None)
        if match is None:
            continue
        client += o.done - o.sent
        covered += match[END] - match[START]
    return (client - covered) / client if client else 0.0


def traced_run(workload: Any, run_dir: str, traffic: Any, tally: Tally,
               args: Any) -> dict[str, tuple[float, str]]:
    prepare_spans = os.path.join(run_dir, "spans-prepare.json")
    serve_spans = os.path.join(run_dir, "spans-serve.json")
    plain = set_up(workload, run_dir, 0, traffic.probes, tally, prepare_spans)
    try:
        # Reference pass for the tracing overhead; its replies go unchecked.
        base = drive(workload, plain.server, traffic.requests, Tally(),
                     traffic.due, lambda outcomes: [True] * len(outcomes))
    finally:
        plain.server.stop()

    server = open_server(workload, plain.index_dir,
                         os.path.join(run_dir, "serve-traced.log"),
                         traffic.probes, tally, serve_spans)
    try:
        phase = drive(workload, server, traffic.requests, tally, traffic.due,
                      traffic.verifier and traffic.verifier())
        status, metrics_text = asyncio.run(send_one(
            server.port, encode_request("GET", "/metrics", b"", 0)))
    finally:
        server.stop()
    prepared = load_spans(prepare_spans)
    served = load_spans(serve_spans)
    window = min(o.sent for o in phase.outcomes)

    def mean_service(p: Any) -> float:
        return statistics.fmean(o.done - o.sent for o in p.outcomes)


    values = build_metrics(prepared["spans"])
    values.update(serve_metrics(served["spans"], served["sessions"], window))
    if traffic.deltas:
        values.update(delta_metrics(
            [s for s in served["spans"] if s[START] >= window],
            served["sessions"]))
    values["loadgen.lateness_p99_ms"] = percentile(phase.lateness, 0.99) * 1e3
    values["trace.overhead_share"] = mean_service(phase) / mean_service(base) - 1.0
    values["trace.unattributed_share"] = unattributed_share(
        phase.outcomes, served["spans"])

    live = [s for s in served["spans"] if s[START] >= window]
    print("self time by span (s, traced timed phase):")
    for name, seconds in sorted(self_times(live).items(), key=lambda kv: -kv[1]):
        print(f"  {name:28s} {seconds:12.6f}")
    if status == 200:
        for line in metrics_text.decode().splitlines():
            if line.startswith(("repro_serve_batch", "repro_engine_queries")) \
                    and "_bucket" not in line:
                print(f"  /metrics {line}")
    print(f"  kernels.one_removed_s {values.pop('kernels.one_removed_s'):.6f} "
          "(the default traverse builder does not call this kernel)")
    return {name: (value, UNITS[name]) for name, value in values.items()}


UNITS = {
    "graph.load_s": "s", "landmarks.select_s": "s", "powcov.build_s": "s",
    "powcov.sssp": "count", "powcov.entries": "count", "kernels.msbfs_s": "s",
    "powcov.python_s": "s", "chromland.build_s": "s", "store.save_s": "s",
    "store.open_ms": "ms", "store.first_batch_ms": "ms", "http.read_us": "us",
    "batching.queue_wait_ms": "ms", "batching.timer_flush_share": "share",
    "batching.batch_queries": "count", "serve.pool_wait_ms": "ms",
    "app.parse_us_per_query": "us", "app.encode_us_per_query": "us",
    "engine.run_us_per_query": "us", "engine.plan_us_per_query": "us",
    "engine.execute_us_per_query": "us", "engine.plan_hit_rate": "share",
    "engine.groups_per_batch": "count", "engine.answer_hit_rate": "share",
    "kernels.aux_dijkstra_us": "us", "registry.lock_stall_ms": "ms",
    "loadgen.lateness_p99_ms": "ms", "trace.overhead_share": "share",
    "trace.unattributed_share": "share", "registry.apply_delta_ms": "ms",
    "graph.apply_delta_ms": "ms", "dynamic.repair_ms": "ms",
    "dynamic.full_rebuilds": "count", "engine.rebind_migrated": "count",
}
