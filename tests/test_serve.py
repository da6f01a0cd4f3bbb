"""Tests for the HTTP serving layer: endpoints, batching, wire identity.

The server under test runs in-process on a background thread bound to an
ephemeral port (``ServerThread``); clients are plain ``http.client``
connections, so the full codec — request parsing, routing, JSON bodies,
keep-alive — is exercised end to end.  The MicroBatcher tests drive an
``execute`` whose batches stay open until the test answers them, so
hypothesis controls how arrivals interleave with batch completions.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ChromLandIndex,
    ExactDijkstraOracle,
    NaivePowersetIndex,
    PowCovIndex,
)
from repro.engine import execute_batch
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labelsets import full_mask
from repro.landmarks import select_landmarks
from repro.serve import (
    GraphRegistry,
    MicroBatcher,
    ServeApp,
    ServeConfig,
    ServerThread,
)
from repro.serve.__main__ import _parser
from repro.serve.app import from_wire_distance, wire_distance
from repro.serve.http import HttpError, HttpRequest
from repro.serve.loadgen import HttpClient, run_loadgen


# ----------------------------------------------------------------------
# Fixtures: one server over every oracle family
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph():
    return labeled_erdos_renyi(40, 150, num_labels=4, seed=11)


@pytest.fixture(scope="module")
def oracles(graph):
    landmarks = select_landmarks(graph, 8, strategy="degree", seed=0)
    colors = [i % graph.num_labels for i in range(len(landmarks))]
    return {
        "powcov": PowCovIndex(graph, landmarks).build(),
        "chromland": ChromLandIndex(graph, landmarks, colors).build(),
        "naive": NaivePowersetIndex(graph, landmarks).build(),
        "exact": ExactDijkstraOracle(graph),
    }


@pytest.fixture(scope="module")
def server(graph, oracles):
    registry = GraphRegistry()
    registry.register("g", graph, dict(oracles))
    app = ServeApp(
        registry=registry,
        config=ServeConfig(workers=2),
    )
    with ServerThread(app) as live:
        yield live


def request_json(server, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(
            method, path, body, {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8")
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Endpoints
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_healthz(self, server):
        status, body = request_json(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["graphs"] == 1

    def test_graphs_listing(self, server, graph):
        status, body = request_json(server, "GET", "/graphs")
        assert status == 200
        (entry,) = body["graphs"]
        assert entry["name"] == "g"
        assert entry["num_vertices"] == graph.num_vertices
        assert entry["num_edges"] == graph.num_edges
        assert set(entry["oracles"]) == {
            "powcov", "chromland", "naive", "exact",
        }

    def test_metrics_prometheus_text(self, server):
        request_json(server, "GET", "/healthz")  # ensure some traffic
        status, text = request_json(server, "GET", "/metrics")
        assert status == 200
        assert isinstance(text, str)
        assert "# TYPE repro_serve_http_requests counter" in text
        assert "repro_serve_http_requests" in text

    def test_single_query_each_family(self, server, oracles):
        mask = 0b11
        for kind, oracle in oracles.items():
            status, body = request_json(
                server, "POST", "/graphs/g/query",
                {"source": 1, "target": 7, "mask": mask, "oracle": kind},
            )
            assert status == 200, body
            want = oracle.query(1, 7, mask)
            assert from_wire_distance(body["distance"]) == want
            assert body["reachable"] == (not math.isinf(want))
            assert body["oracle"] == kind

    def test_labels_list_equivalent_to_mask(self, server):
        _, via_labels = request_json(
            server, "POST", "/graphs/g/query",
            {"source": 0, "target": 5, "labels": [0, 2]},
        )
        _, via_mask = request_json(
            server, "POST", "/graphs/g/query",
            {"source": 0, "target": 5, "mask": 0b101},
        )
        assert via_labels["distance"] == via_mask["distance"]

    def test_omitted_mask_is_unconstrained(self, server, graph, oracles):
        _, body = request_json(
            server, "POST", "/graphs/g/query", {"source": 2, "target": 9},
        )
        # The server reports which family answered the default-oracle
        # request; the answer must equal that oracle's unconstrained one.
        want = oracles[body["oracle"]].query(
            2, 9, full_mask(graph.num_labels)
        )
        assert from_wire_distance(body["distance"]) == want


class TestWireIdentity:
    def test_batch_bit_identical_to_execute_batch(
        self, server, graph, oracles
    ):
        """HTTP answers == direct ``execute_batch``, for every family."""
        import random

        rng = random.Random(5)
        top = full_mask(graph.num_labels)
        triples = [
            (
                rng.randrange(graph.num_vertices),
                rng.randrange(graph.num_vertices),
                rng.randrange(1, top + 1),
            )
            for _ in range(60)
        ]
        for kind, oracle in oracles.items():
            status, body = request_json(
                server, "POST", "/graphs/g/query",
                {"queries": [list(t) for t in triples], "oracle": kind},
            )
            assert status == 200, body
            want = execute_batch(oracle, triples)
            got = [from_wire_distance(d) for d in body["distances"]]
            assert got == want, f"{kind} diverged over the wire"

    def test_unreachable_is_null_on_the_wire(self, server):
        # A mask with no labels admits no edges: always unreachable
        # (distinct endpoints).
        status, body = request_json(
            server, "POST", "/graphs/g/query",
            {"source": 0, "target": 1, "mask": 0, "oracle": "exact"},
        )
        assert status == 200
        assert body["distance"] is None
        assert body["reachable"] is False

    def test_wire_distance_roundtrip(self):
        for value in (0.0, 1.5, 7.000000000000001, math.inf):
            assert from_wire_distance(wire_distance(value)) == value


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "method,path,payload,expected",
        [
            ("GET", "/nope", None, 404),
            ("POST", "/graphs/unknown/query", {"source": 0, "target": 1}, 404),
            ("POST", "/graphs/g/query",
             {"source": 0, "target": 1, "oracle": "not-a-family"}, 404),
            ("POST", "/graphs/g/query", {"source": 0}, 400),
            ("POST", "/graphs/g/query", {"source": 0, "target": 10**6}, 400),
            ("POST", "/graphs/g/query", {"source": -1, "target": 1}, 400),
            ("POST", "/graphs/g/query",
             {"source": 0, "target": 1, "mask": -5}, 400),
            ("POST", "/graphs/g/query",
             {"source": 0, "target": 1, "mask": 1, "labels": [0]}, 400),
            ("POST", "/graphs/g/query",
             {"source": 0.5, "target": 1}, 400),
            ("POST", "/graphs/g/query", {"queries": "nope"}, 400),
            ("POST", "/graphs/g/query", {"queries": [[1, 2]]}, 400),
            ("POST", "/graphs/g/query", [1, 2, 3], 400),
            ("DELETE", "/graphs/g/query", None, 405),
            # Triple-form items: bool vertex, out-of-range target,
            # negative mask, bool mask, an item that is no list.
            ("POST", "/graphs/g/query", {"queries": [[True, 1, 1]]}, 400),
            ("POST", "/graphs/g/query", {"queries": [[0, 10**6, 1]]}, 400),
            ("POST", "/graphs/g/query", {"queries": [[0, 1, -1]]}, 400),
            ("POST", "/graphs/g/query", {"queries": [[0, 1, True]]}, 400),
            ("POST", "/graphs/g/query", {"queries": [5]}, 400),
        ],
    )
    def test_4xx(self, server, method, path, payload, expected):
        status, body = request_json(server, method, path, payload)
        assert status == expected, body
        assert "error" in body

    @pytest.mark.parametrize(
        "triple",
        [[True, 1, 1], [0.5, 1, 1], [0, 10**6, 1], [0, -1, 1], [0, 1, -1],
         [0, 1, True], [0, 1, "1"]],
    )
    def test_triple_errors_match_object_errors(self, server, triple):
        source, target, mask = triple
        as_object = {"source": source, "target": target, "mask": mask}
        _, via_triple = request_json(
            server, "POST", "/graphs/g/query", {"queries": [triple]}
        )
        _, via_object = request_json(
            server, "POST", "/graphs/g/query", {"queries": [as_object]}
        )
        assert via_triple["error"] == via_object["error"]

    def test_invalid_json_body(self, server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        try:
            conn.request(
                "POST", "/graphs/g/query", b"{not json",
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert b"invalid JSON" in response.read()
        finally:
            conn.close()

    def test_missing_body(self, server):
        status, body = request_json(server, "POST", "/graphs/g/query")
        assert status == 400
        assert "JSON" in body["error"]


# ----------------------------------------------------------------------
# MicroBatcher semantics
# ----------------------------------------------------------------------
def run_async(coro):
    return asyncio.run(coro)


def _answer_of(triple):
    # Injective in (s, t, m): equal answers mean the right queries, in the
    # right order.
    s, t, m = triple
    return float(s * 10000 + t * 100 + m)


async def _turns(n):
    for _ in range(n):
        await asyncio.sleep(0)


class ManualExecute:
    """An ``execute`` whose batches stay in flight until the test settles
    them with :meth:`answer` or :meth:`fail`."""

    def __init__(self):
        self.calls = []  # every call's triples, in call order
        self.open = []  # (future, triples) not yet settled

    def __call__(self, triples):
        future = asyncio.get_running_loop().create_future()
        self.calls.append(list(triples))
        self.open.append((future, list(triples)))
        return future

    def answer(self, index=0):
        future, triples = self.open.pop(index)
        future.set_result([_answer_of(t) for t in triples])

    def fail(self, index=0):
        future, _ = self.open.pop(index)
        future.set_exception(ValueError("batch failed"))


class TestMicroBatcher:
    def test_size_trigger_coalesces(self):
        """Reaching ``max_batch`` flushes at once, even behind a batch in
        flight."""
        manual = ManualExecute()

        async def scenario():
            batcher = MicroBatcher(manual, max_batch=4)
            first = asyncio.ensure_future(batcher.submit([(9, 9, 9)]))
            await _turns(3)
            assert manual.calls == [[(9, 9, 9)]]
            second = asyncio.ensure_future(batcher.submit([(1, 1, 1), (2, 2, 2)]))
            third = asyncio.ensure_future(batcher.submit([(3, 3, 3), (4, 4, 4)]))
            await _turns(2)
            # One coalesced call, issued while the first is still open.
            assert manual.calls[1:] == [[(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)]]
            manual.answer(1)
            manual.answer(0)
            return await asyncio.gather(first, second, third)

        first, second, third = run_async(scenario())
        assert len(manual.calls) == 2
        assert first == [_answer_of((9, 9, 9))]
        assert second == [_answer_of((1, 1, 1)), _answer_of((2, 2, 2))]
        assert third == [_answer_of((3, 3, 3)), _answer_of((4, 4, 4))]

    def test_window_zero_flushes_immediately(self):
        """No coalescing timer: sequential requests never wait on one
        another, so each is its own engine call."""
        calls = []

        def execute(triples):
            calls.append(list(triples))
            return [0.0] * len(triples)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=100)
            await batcher.submit([(0, 0, 1)])
            await batcher.submit([(0, 0, 2)])

        assert MicroBatcher.window == 0.0
        run_async(scenario())
        assert calls == [[(0, 0, 1)], [(0, 0, 2)]]

    def test_lone_submit_flushes_next_turn_without_timer(self):
        calls = []
        timers = []

        def execute(triples):
            calls.append(list(triples))
            return [1.0] * len(triples)

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.call_later = loop.call_at = lambda *a, **k: timers.append(a)
            try:
                batcher = MicroBatcher(execute, max_batch=100)
                task = asyncio.ensure_future(batcher.submit([(0, 0, 1)]))
                # submit runs, its flush runs, the batch task runs.
                await _turns(3)
                assert calls == [[(0, 0, 1)]]
                return await task
            finally:
                del loop.call_later, loop.call_at

        assert run_async(scenario()) == [1.0]
        assert timers == []

    def test_same_turn_burst_coalesces(self):
        calls = []

        def execute(triples):
            calls.append(list(triples))
            return [_answer_of(t) for t in triples]

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=100)
            return await asyncio.gather(
                batcher.submit([(1, 1, 1)]),
                batcher.submit([(2, 2, 2), (3, 3, 3)]),
                batcher.submit([(4, 4, 4)]),
            )

        results = run_async(scenario())
        assert calls == [[(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)]]
        assert results == [
            [_answer_of((1, 1, 1))],
            [_answer_of((2, 2, 2)), _answer_of((3, 3, 3))],
            [_answer_of((4, 4, 4))],
        ]

    def test_requests_behind_in_flight_batch_coalesce(self):
        manual = ManualExecute()
        queued = [[(1, 1, 1)], [(2, 2, 2), (3, 3, 3)], [(4, 4, 4)]]

        async def scenario():
            batcher = MicroBatcher(manual, max_batch=100)
            first = asyncio.ensure_future(batcher.submit([(9, 9, 9)]))
            await _turns(3)
            behind = []
            for triples in queued:  # one arrival per loop turn
                behind.append(asyncio.ensure_future(batcher.submit(triples)))
                await _turns(3)
            assert manual.calls == [[(9, 9, 9)]]
            assert batcher.pending_queries == 4
            manual.answer()
            await _turns(3)
            assert manual.calls[1:] == [[t for q in queued for t in q]]
            manual.answer()
            return await asyncio.gather(first, *behind)

        first, *behind = run_async(scenario())
        assert len(manual.calls) == 2
        assert first == [_answer_of((9, 9, 9))]
        assert behind == [[_answer_of(t) for t in q] for q in queued]

    def test_failed_batch_still_drains_queue(self):
        manual = ManualExecute()

        async def scenario():
            batcher = MicroBatcher(manual, max_batch=100)
            doomed = asyncio.ensure_future(batcher.submit([(6, 6, 6)]))
            await _turns(3)
            behind = [
                asyncio.ensure_future(batcher.submit([(1, 1, 1)])),
                asyncio.ensure_future(batcher.submit([(2, 2, 2)])),
            ]
            await _turns(3)
            manual.fail()  # the batch fails ...
            await _turns(3)
            assert manual.calls == [[(6, 6, 6)], [(6, 6, 6)]]
            manual.fail()  # ... and so does its per-request retry
            await _turns(3)
            assert manual.calls[2:] == [[(1, 1, 1), (2, 2, 2)]]
            manual.answer()
            return await asyncio.gather(doomed, *behind, return_exceptions=True)

        doomed, first, second = run_async(scenario())
        assert isinstance(doomed, ValueError)
        assert first == [_answer_of((1, 1, 1))]
        assert second == [_answer_of((2, 2, 2))]

    def test_error_isolation(self):
        """A poison query fails only the request that carried it."""

        def execute(triples):
            if any(m == 666 for _, _, m in triples):
                raise ValueError("poison")
            return [float(m) for _, _, m in triples]

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=3)
            healthy_a = asyncio.ensure_future(batcher.submit([(0, 0, 1)]))
            poisoned = asyncio.ensure_future(batcher.submit([(0, 0, 666)]))
            healthy_b = asyncio.ensure_future(batcher.submit([(0, 0, 2)]))
            done = await asyncio.gather(
                healthy_a, poisoned, healthy_b, return_exceptions=True
            )
            return done

        got_a, got_poison, got_b = run_async(scenario())
        assert got_a == [1.0]
        assert got_b == [2.0]
        assert isinstance(got_poison, ValueError)

    def test_async_execute_fn(self):
        async def execute(triples):
            await asyncio.sleep(0)
            return [1.0] * len(triples)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=10)
            return await batcher.submit([(0, 0, 1), (1, 1, 1)])

        assert run_async(scenario()) == [1.0, 1.0]

    def test_answer_count_mismatch_is_an_error(self):
        async def scenario():
            batcher = MicroBatcher(lambda t: [0.0], max_batch=10)
            return await batcher.submit([(0, 0, 1), (1, 1, 1)])

        with pytest.raises(RuntimeError, match="answers"):
            run_async(scenario())

    def test_empty_submit(self):
        async def scenario():
            batcher = MicroBatcher(lambda t: [], max_batch=4)
            return await batcher.submit([])

        assert run_async(scenario()) == []


# Event plans: a request arriving, the loop taking one turn, or the test
# answering one of the open batches (by index modulo the open count), so
# hypothesis explores submissions interleaved with batch completions.
_EVENTS = st.lists(
    st.one_of(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(1, 7)),
            max_size=4,
        ).map(lambda triples: ("submit", triples)),
        st.just(("turn", None)),
        st.integers(0, 7).map(lambda index: ("answer", index)),
    ),
    min_size=1,
    max_size=30,
)


class TestMicroBatcherProperty:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(events=_EVENTS, max_batch=st.integers(1, 8))
    def test_order_and_values_match_sequential(self, events, max_batch):
        """For ANY interleaving of arrivals and batch completions, every
        request gets exactly its own answers in its own order, every query
        executes once in arrival order, at most one batch not triggered by
        size is open at a time, and nothing is left pending."""
        manual = ManualExecute()
        submitted = [triples for kind, triples in events if kind == "submit"]

        def execute(triples):
            if len(triples) < max_batch:  # not triggered by size
                assert all(len(t) >= max_batch for _, t in manual.open)
            return manual(triples)

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=max_batch)
            futures = []
            for kind, arg in events:
                if kind == "submit":
                    futures.append(asyncio.ensure_future(batcher.submit(arg)))
                elif kind == "turn":
                    await asyncio.sleep(0)
                elif manual.open:
                    manual.answer(arg % len(manual.open))
            # Drain: answer the oldest open batch each turn until every
            # request has resolved.
            for _ in range(1000):
                await asyncio.sleep(0)
                if manual.open:
                    manual.answer()
                elif all(f.done() for f in futures):
                    break
            else:
                pytest.fail("requests left unanswered")
            assert batcher.pending_queries == 0
            return await asyncio.gather(*futures)

        results = asyncio.run(scenario())

        for triples, got in zip(submitted, results):
            assert got == [_answer_of(t) for t in triples]
        flat_executed = [t for batch in manual.calls for t in batch]
        assert flat_executed == [t for triples in submitted for t in triples]


# ----------------------------------------------------------------------
# Loadgen + HttpClient against the live server
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_run_loadgen_round_trip(self, server):
        report = asyncio.run(run_loadgen(
            url=server.url,
            graph="g",
            oracle="powcov",
            clients=3,
            duration=0.5,
            batch_size=4,
            seed=1,
        ))
        assert report.errors == 0
        assert report.requests > 0
        assert report.queries == report.requests * 4
        assert report.p99_seconds >= report.p50_seconds >= 0.0
        payload = report.to_dict()
        assert payload["qps"] > 0
        assert json.dumps(payload)  # JSON-clean

    def test_http_client_maps_errors(self, server):
        async def scenario():
            client = HttpClient.from_url(server.url)
            await client.connect()
            try:
                return await client.request(
                    "POST", "/graphs/missing/query",
                    {"source": 0, "target": 1},
                )
            finally:
                await client.close()

        status, body = asyncio.run(scenario())
        assert status == 404
        assert "error" in body


# ----------------------------------------------------------------------
# Codec units (no socket)
# ----------------------------------------------------------------------
class TestHttpCodec:
    def test_segments_decode(self):
        request = HttpRequest(method="POST", path="/graphs/my%20graph/query")
        assert request.segments == ["graphs", "my graph", "query"]

    def test_json_rejects_empty(self):
        with pytest.raises(HttpError) as excinfo:
            HttpRequest(method="POST", path="/x").json()
        assert excinfo.value.status == 400


# ----------------------------------------------------------------------
# Knob documentation
# ----------------------------------------------------------------------
DOCS = Path(__file__).resolve().parents[1] / "docs"


def _doc_section(name, heading):
    text = (DOCS / name).read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


class _RecordingEnviron(dict):
    """An empty ``os.environ`` stand-in noting every variable read."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestKnobDocs:
    """The knob tables list exactly the knobs the code defines, so a
    removed knob cannot linger in the docs."""

    @pytest.fixture
    def env_vars_read(self, monkeypatch):
        environ = _RecordingEnviron()
        monkeypatch.setattr(os, "environ", environ)
        ServeConfig.from_env()
        return set(environ.read)

    def test_serving_table_matches_cli_and_env(self, env_vars_read):
        rows = [
            line.split("|")[1:3]
            for line in _doc_section("SERVING.md", "Deployment knobs").splitlines()
            if line.startswith("| `")
        ]
        doc_flags = {f for flag, _ in rows for f in re.findall(r"`(--[\w-]+)`", flag)}
        doc_env = {v for _, env in rows for v in re.findall(r"`(REPRO_\w+)`", env)}
        cli_flags = {
            option
            for action in _parser()._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        assert doc_flags == cli_flags
        assert doc_env == env_vars_read

    def test_developing_table_matches_env(self, env_vars_read):
        section = _doc_section("DEVELOPING.md", "Environment variables")
        assert set(re.findall(r"`(REPRO_SERVE_\w+)`", section)) == env_vars_read
