"""Workload definitions, seeded request generation and answer checking.

The graph is the workload's fixture: the repo's simulated dataset at full
scale with the repo's default dataset seed, so every run serves the same
index and set-up does the same work.  ``--seed`` drives the traffic: every
request body is generated from it before the timed phase.  The accuracy
sample uses a fixed seed so the relative error is a property of the index,
not of the draw.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core import ChromLandIndex, PowCovIndex
from repro.core.chromland.selection import majority_colors
from repro.engine import execute_batch
from repro.graph.datasets import load_dataset
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.landmarks import select_landmarks
from repro.perf.batched import exact_workload_distances

ORACLES = ("powcov", "chromland")
#: ``python -m repro.serve``'s default ``--seed``: the dataset and the
#: landmark draw of the served indexes.
GRAPH_SEED = 7
ACCURACY_SEED = 20140324
ACCURACY_QUERIES = 512
#: ``ServeConfig.batch_max``: a body this long flushes its batch at once.
BATCH_MAX = 256


@dataclass(frozen=True)
class Workload:
    """An open loop: ``rate`` requests per second, each of
    ``queries_per_request`` queries, on the ``2``-connection client."""

    name: str
    dataset: str
    k: int
    rate: float
    queries_per_request: int = 1
    scale: float = 1.0  # dataset scale (the self-test shrinks it)


WORKLOADS = {
    # One <s, t, C> per request below the knee (300-600 req/s on two
    # connections): each request is alone in its batch, so the coalescing
    # window, the codec and the thread-pool hop set its latency.
    "interactive": Workload("interactive", "biogrid-sim", 16, rate=200.0),
    # batch_max-query bodies over 255 masks at about a quarter of the
    # server's capacity: every body flushes at once, so parse, validation,
    # executors and kernels set the latency; the plan cache (128 masks) is
    # too small and distinct random queries never hit the answer cache.
    # An open loop with headroom: a closed loop pinned the CPU and its
    # throughput followed the machine's minute-scale speed swings.
    "bulk": Workload("bulk", "dblp-sim", 16, rate=12.0,
                     queries_per_request=BATCH_MAX),
    # Reads beside single-edge deltas (wirebench/update.py); not listed in
    # BENCHMARK.json because operations fail on it today.
    "update": Workload("update", "biogrid-sim", 16, rate=125.0,
                       queries_per_request=8),
}


@dataclass
class Fixture:
    graph: EdgeLabeledGraph
    references: dict[str, Any]


def load_fixture(workload: Workload) -> Fixture:
    """The workload's graph plus in-memory reference builds of both oracles
    (the wave builder: bit-identical to the served default builder)."""
    graph, _spec = load_dataset(workload.dataset, scale=workload.scale,
                                seed=GRAPH_SEED)
    landmarks = select_landmarks(graph, workload.k, strategy="degree",
                                 seed=GRAPH_SEED)
    return Fixture(graph, {
        "powcov": PowCovIndex(graph, landmarks, builder="wave").build(),
        "chromland": ChromLandIndex(
            graph, landmarks, majority_colors(graph, landmarks)).build(),
    })


def random_triples(graph: EdgeLabeledGraph, rng: random.Random,
                   count: int) -> list[tuple[int, int, int]]:
    """Uniform sources/targets, uniform over the non-empty label sets."""
    n = int(graph.num_vertices)
    top = (1 << int(graph.num_labels)) - 1
    return [(rng.randrange(n), rng.randrange(n), rng.randint(1, top))
            for _ in range(count)]


@dataclass
class Request:
    """One pre-generated query request and the answers it must get back."""

    oracle: str
    triples: list[tuple[int, int, int]]
    expected: list[float | None]
    single: bool

    def body(self) -> bytes:
        if self.single:
            s, t, m = self.triples[0]
            payload: dict[str, Any] = {"oracle": self.oracle, "source": s,
                                       "target": t, "mask": m}
        else:
            payload = {"oracle": self.oracle,
                       "queries": [list(q) for q in self.triples]}
        return json.dumps(payload, separators=(",", ":")).encode()

    def check(self, status: int, body: bytes) -> bool:
        """Bit-identical answers (JSON floats round-trip exactly)."""
        if status != 200:
            return False
        try:
            reply = json.loads(body)
        except ValueError:
            return False
        if self.single:
            return (reply.get("distance", 0) == self.expected[0]
                    and reply.get("reachable") == (self.expected[0] is not None))
        return reply.get("distances") == self.expected


def wire(values: list[float]) -> list[float | None]:
    return [None if math.isinf(v) else v for v in values]


def make_requests(workload: Workload, fixture: Fixture, seed: int,
                  count: int) -> list[Request]:
    """``count`` requests split 1:1 between the oracles, in seeded order."""
    rng = random.Random(seed)
    oracles = [ORACLES[i % 2] for i in range(count)]
    rng.shuffle(oracles)
    size = workload.queries_per_request
    requests = []
    for oracle in oracles:
        triples = random_triples(fixture.graph, rng, size)
        requests.append(Request(oracle, triples, [], single=size == 1))
    for oracle in ORACLES:
        batch = [r for r in requests if r.oracle == oracle]
        flat = [t for r in batch for t in r.triples]
        answers = wire(execute_batch(fixture.references[oracle], flat))
        for i, r in enumerate(batch):
            r.expected = answers[i * size:(i + 1) * size]
    return requests


@dataclass
class Accuracy:
    requests: list[Request]
    exact: np.ndarray


def accuracy_sample(fixture: Fixture) -> Accuracy:
    """The fixed accuracy sample, as batch requests to each oracle."""
    triples = random_triples(fixture.graph, random.Random(ACCURACY_SEED),
                             ACCURACY_QUERIES)
    exact = exact_workload_distances(fixture.graph, triples)
    requests = []
    for oracle in ORACLES:
        for lo in range(0, len(triples), BATCH_MAX):
            chunk = triples[lo:lo + BATCH_MAX]
            expected = wire(execute_batch(fixture.references[oracle], chunk))
            requests.append(Request(oracle, chunk, expected, single=False))
    return Accuracy(requests, exact)


def score_accuracy(sample: Accuracy, replies: list[tuple[int, bytes]]
                   ) -> tuple[dict[str, float], int]:
    """Mean relative error per oracle and the number of failed replies
    (wrong answers, non-200s, or Theorem 1/5 bound violations:
    an estimate below the exact constrained distance)."""
    failed = 0
    errors: dict[str, list[float]] = {oracle: [] for oracle in ORACLES}
    position = {oracle: 0 for oracle in ORACLES}
    for request, (status, body) in zip(sample.requests, replies):
        lo = position[request.oracle]
        position[request.oracle] += len(request.triples)
        if not request.check(status, body):
            failed += 1
            continue
        estimates = [math.inf if d is None else d
                     for d in json.loads(body)["distances"]]
        exact = sample.exact[lo:lo + len(estimates)]
        if any(e < x for e, x in zip(estimates, exact)):
            failed += 1
            continue
        errors[request.oracle].extend(
            (e - x) / x for e, x in zip(estimates, exact)
            if math.isfinite(e) and math.isfinite(x) and x > 0
        )
    means = {oracle: (sum(v) / len(v) if v else math.nan)
             for oracle, v in errors.items()}
    return means, failed
