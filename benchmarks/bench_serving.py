"""Serving-layer benchmark: micro-batching throughput bar.

Drives the serving core (MicroBatcher → warm QuerySession) in-process
with closed-loop asyncio clients — no TCP, so the measured ratio is the
batching effect itself, not socket noise.  Two configurations answer an
identical workload:

* **batch-size-1** — ``max_batch=1``: every request is its own engine
  call (what a naive per-request server does);
* **micro-batched** — ``max_batch`` sized to a full client wave, so
  concurrent requests merge into one planned, mask-grouped
  ``session.run``.

The acceptance bar asserts micro-batching sustains **≥ 2x** the
throughput of batch-size-1 serving on the repeated-mask workload the
engine targets (ISSUE PR10); answers are asserted bit-identical to
``execute_batch`` before any speed claim, mirroring
``bench_query_engine.py``.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.engine import QuerySession, execute_batch
from repro.serve.batching import MicroBatcher

from conftest import BENCH_SEED

CLIENTS = 32
REQUESTS_PER_CLIENT = 6
QUERIES_PER_REQUEST = 4
MASK_POOL = 8


def client_requests(graph, seed=BENCH_SEED):
    """Per-client request lists: repeated-mask triples, fixed workload."""
    rng = np.random.default_rng(seed)
    universe = (1 << graph.num_labels) - 1
    pool = [int(m) for m in rng.integers(1, universe + 1, size=MASK_POOL)]
    return [
        [
            [
                (
                    int(rng.integers(graph.num_vertices)),
                    int(rng.integers(graph.num_vertices)),
                    pool[int(rng.integers(MASK_POOL))],
                )
                for _ in range(QUERIES_PER_REQUEST)
            ]
            for _ in range(REQUESTS_PER_CLIENT)
        ]
        for _ in range(CLIENTS)
    ]


def drive(oracle, requests, max_batch):
    """Answer every request closed-loop; returns (answers, seconds)."""
    # cache_size=0: the answer cache must not mask the execution cost
    # difference between the two configurations.
    session = QuerySession(oracle, cache_size=0)

    async def scenario():
        batcher = MicroBatcher(session.run, max_batch=max_batch)

        async def client_loop(reqs):
            answers = []
            for triples in reqs:
                answers.append(await batcher.submit(triples))
            return answers

        return await asyncio.gather(*(client_loop(r) for r in requests))

    started = time.perf_counter()
    answers = asyncio.run(scenario())
    return answers, time.perf_counter() - started


def _best_of(fn, rounds=3):
    best_seconds = float("inf")
    result = None
    for _ in range(rounds):
        result, seconds = fn()
        best_seconds = min(best_seconds, seconds)
    return result, best_seconds


def test_microbatching_doubles_throughput(benchmark, biogrid,
                                          biogrid_powcov, bench_kernel):
    requests = client_requests(biogrid)
    total_queries = CLIENTS * REQUESTS_PER_CLIENT * QUERIES_PER_REQUEST

    # Ground truth + bit-identity reference for both configurations.
    expected = {
        (ci, ri): execute_batch(biogrid_powcov, triples)
        for ci, reqs in enumerate(requests)
        for ri, triples in enumerate(reqs)
    }

    def check(answers):
        for ci, per_client in enumerate(answers):
            for ri, got in enumerate(per_client):
                assert got == expected[(ci, ri)], (
                    f"client {ci} request {ri} diverged"
                )

    # Batch-size-1 serving: one engine call per request.
    single, single_seconds = _best_of(
        lambda: drive(biogrid_powcov, requests, max_batch=1)
    )
    check(single)

    # Micro-batched serving: a full client wave coalesces per flush.
    wave = CLIENTS * QUERIES_PER_REQUEST
    batched, batched_seconds = _best_of(
        lambda: drive(biogrid_powcov, requests, max_batch=wave)
    )
    check(batched)

    single_qps = total_queries / single_seconds
    batched_qps = total_queries / batched_seconds
    speedup = batched_qps / single_qps

    benchmark.extra_info["kernel"] = bench_kernel
    benchmark.extra_info["clients"] = CLIENTS
    benchmark.extra_info["queries_per_request"] = QUERIES_PER_REQUEST
    benchmark.extra_info["total_queries"] = total_queries
    benchmark.extra_info["batch1_qps"] = single_qps
    benchmark.extra_info["batched_qps"] = batched_qps
    benchmark.extra_info["batching_speedup"] = speedup

    # The PR10 acceptance bar: micro-batching sustains >= 2x the
    # throughput of batch-size-1 serving (measured ~4-6x on idle CI).
    assert speedup >= 2.0, (
        f"micro-batching speedup {speedup:.2f}x below the 2x bar "
        f"({batched_qps:,.0f} vs {single_qps:,.0f} qps)"
    )

    benchmark.pedantic(
        lambda: drive(biogrid_powcov, requests, max_batch=wave),
        rounds=3,
        iterations=1,
    )
