"""The ``update`` workload: reads beside single-edge deltas on mapped indexes.

Open-loop reads (125 req/s x 8 queries, Zipf-skewed over a hot set smaller
than the 4096-entry answer cache, split 1:1 between the oracles) run beside
``POST /delta`` single-edge insertions and deletions on a fixed schedule.
The schedule's seed is fixed, so every run applies the same deltas; the
read traffic comes from ``--seed``.  Insertions cycle through every label.

Replies are checked after the phase against an in-memory replica that
applies exactly the deltas the server acknowledged (200), in version
order, through ``repro.core.dynamic.repair_index``.  A read must match the
version acknowledged when it was sent, or any version acknowledged while
it was in flight.  A delta answered with anything but 200 fails, and the
replica does not apply it.

This workload is not listed in ``BENCHMARK.json``, because operations fail
on it: on the mapped indexes the server serves, a delta whose label is a
ChromLand landmark colour is refused with a 400 (the repair writes into a
read-only memory map) after PowCov has spent a full rebuild on it, and the
registry then refuses every later delta (parent-fingerprint mismatch).
The rebuilt PowCov tables are never read: the mapped executor keeps
answering from the stored tables.  The benchmark admits only workloads on
which no operation fails; this one reports the defect.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Any

from repro.core.dynamic import repair_index
from repro.engine import execute_batch
from repro.graph.delta import GraphDelta, apply_delta
from workloads import (
    ORACLES, WORKLOADS, Fixture, Request, random_triples, wire,
)

UPDATE = WORKLOADS["update"]
#: Distinct triples per oracle; well inside the 4096-entry answer cache.
HOT_SET = 1024
ZIPF_EXPONENT = 1.0
DELTA_SEED = 0
DELTA_START = 0.5
#: Seconds between deltas: wider than one in-memory single-edge repair
#: (0.2-0.6 s for PowCov on biogrid-sim), so a healthy server never queues
#: deltas behind each other.
DELTA_PERIOD = 1.5


@dataclass
class Delta:
    delta: GraphDelta
    path: str

    def body(self) -> bytes:
        return json.dumps({
            "insertions": [list(op) for op in self.delta.insertions],
            "deletions": [list(op) for op in self.delta.deletions],
        }, separators=(",", ":")).encode()


def delta_schedule(fixture: Fixture, seconds: float) -> list[tuple[float, GraphDelta]]:
    """Alternating insertions of new edges (labels cycling through every
    label) and deletions of distinct base-graph edges; each op is valid
    whichever subset of the earlier ones the server accepted."""
    graph = fixture.graph
    rng = random.Random(DELTA_SEED)
    n, labels = int(graph.num_vertices), int(graph.num_labels)
    edges = sorted(graph.iter_edges())
    inserted: set[tuple[int, int]] = set()
    deleted: set[tuple[int, int, int]] = set()
    schedule = []
    due, k = DELTA_START, 0
    while due < seconds:
        if k % 2 == 0:
            while True:
                u, v = rng.randrange(n), rng.randrange(n)
                key = (min(u, v), max(u, v))
                if u != v and not graph.has_edge(u, v) and key not in inserted:
                    break
            inserted.add(key)
            delta = GraphDelta(insertions=((u, v, (k // 2) % labels),))
        else:
            while True:
                edge = rng.choice(edges)
                if edge not in deleted:
                    break
            deleted.add(edge)
            delta = GraphDelta(deletions=(edge,))
        schedule.append((due, delta))
        due += DELTA_PERIOD
        k += 1
    return schedule


def make_requests(fixture: Fixture, seed: int, seconds: float,
                  delta_path: str) -> tuple[list[Any], list[float], dict[str, list[Any]]]:
    """Reads and deltas merged by due time, the due times, and the hot sets."""
    rng = random.Random(seed)
    hot = {oracle: random_triples(fixture.graph, rng, HOT_SET)
           for oracle in ORACLES}
    weights = list(accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT
                              for rank in range(HOT_SET)))
    count = int(round(UPDATE.rate * seconds))
    oracles = [ORACLES[i % 2] for i in range(count)]
    rng.shuffle(oracles)
    timed: list[tuple[float, Any]] = []
    for i, oracle in enumerate(oracles):
        triples = rng.choices(hot[oracle], cum_weights=weights,
                              k=UPDATE.queries_per_request)
        expected = wire(execute_batch(fixture.references[oracle], triples))
        timed.append((i / UPDATE.rate,
                      Request(oracle, triples, expected, single=False)))
    timed += [(due, Delta(delta, delta_path))
              for due, delta in delta_schedule(fixture, seconds)]
    timed.sort(key=lambda pair: pair[0])
    return [r for _, r in timed], [d for d, _ in timed], hot


class Replica:
    """In-memory oracles advanced through the acknowledged deltas."""

    def __init__(self, fixture: Fixture, hot: dict[str, list[Any]]) -> None:
        self.graph = fixture.graph
        self.oracles = fixture.references
        self.hot = hot
        self.tables = [self._table()]

    def _table(self) -> dict[str, dict[Any, float | None]]:
        return {oracle: dict(zip(self.hot[oracle], wire(execute_batch(
            self.oracles[oracle], self.hot[oracle])))) for oracle in ORACLES}

    def advance(self, delta: GraphDelta) -> None:
        self.graph = apply_delta(self.graph, delta)
        for oracle in self.oracles.values():
            repair_index(oracle, self.graph)
        self.tables.append(self._table())


def verifier(requests: list[Any], replica: Replica) -> Any:
    """The ``verify`` callback for :func:`harness.drive`."""

    def verify(outcomes: list[Any]) -> list[bool]:
        acked = []
        for o in outcomes:
            request = requests[o.index]
            if isinstance(request, Delta) and o.status == 200:
                acked.append((json.loads(o.body)["version"], o, request))
        acked.sort(key=lambda item: item[0])
        for _version, _o, request in acked:
            replica.advance(request.delta)
        sent = sorted(o.sent for _v, o, _r in acked)
        done = sorted(o.done for _v, o, _r in acked)
        verdicts = []
        for o in outcomes:
            request = requests[o.index]
            if isinstance(request, Delta):
                verdicts.append(o.status == 200)
                continue
            if o.status != 200:
                verdicts.append(False)
                continue
            answers = json.loads(o.body).get("distances")
            low = bisect.bisect_right(done, o.sent)
            high = bisect.bisect_left(sent, o.done)
            verdicts.append(any(
                answers == [replica.tables[v][request.oracle][t]
                            for t in request.triples]
                for v in range(low, high + 1)
            ))
        return verdicts

    return verify


def delta_latencies(requests: list[Any], outcomes: list[Any]
                    ) -> list[tuple[int, float]]:
    """``(status, seconds from due to reply)`` for every delta, in due order."""
    return [(o.status, o.done - o.due)
            for o in sorted(outcomes, key=lambda o: o.due)
            if isinstance(requests[o.index], Delta)]
