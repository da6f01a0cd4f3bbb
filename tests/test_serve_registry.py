"""Registry lifecycle tests: LRU, single-flight loads, fingerprints, deltas.

These pin the serving-layer state machine rather than the HTTP surface:

* warm-session LRU eviction under ``max_sessions``;
* store-backed loads reject an index whose embedded fingerprint does not
  match the registered graph (a renamed/stale file never silently serves);
* N threads racing on a cold oracle trigger exactly one loader call;
* ``apply_delta`` rebinds live sessions so post-delta queries are fresh —
  no stale cache hits survive the mutation.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.core import PowCovIndex
from repro.graph.delta import GraphDelta
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.serve import GraphRegistry, UnknownGraphError, UnknownOracleError
from repro.store.cache import IndexStore
from repro.store.format import FormatError


def path_graph(n: int = 6, label: int = 0, num_labels: int = 2):
    edges = [(i, i + 1, label) for i in range(n - 1)]
    return EdgeLabeledGraph.from_edges(n, edges, num_labels=num_labels)


def build_powcov(graph):
    # Every vertex as landmark: a vertex cover, so answers are exact.
    return PowCovIndex(graph, range(graph.num_vertices)).build()


@pytest.fixture()
def graph():
    return path_graph()


@pytest.fixture()
def oracle(graph):
    return build_powcov(graph)


class TestRegistration:
    def test_unknown_graph_and_oracle(self, graph, oracle):
        registry = GraphRegistry()
        with pytest.raises(UnknownGraphError):
            registry.session("missing", "powcov")
        registry.register("g", graph, {"powcov": oracle})
        with pytest.raises(UnknownOracleError):
            registry.session("g", "chromland")

    def test_describe_lists_kinds(self, graph, oracle):
        registry = GraphRegistry()
        registry.register("g", graph, {"powcov": oracle})
        registry.register_loader("g", "lazy", lambda: oracle)
        (entry,) = registry.describe()
        assert entry["oracles"] == ["lazy", "powcov"]
        assert entry["loaded"] == ["powcov"]  # lazy not yet touched

    def test_reregister_drops_sessions(self, graph, oracle):
        registry = GraphRegistry()
        registry.register("g", graph, {"powcov": oracle})
        registry.session("g", "powcov")
        assert registry.session_keys() == [("g", "powcov")]
        registry.register("g", graph, {"powcov": oracle})
        assert registry.session_keys() == []


class TestSessionLRU:
    def test_eviction_under_max_sessions(self, graph):
        registry = GraphRegistry(max_sessions=2)
        oracle = build_powcov(graph)
        for name in ("a", "b", "c"):
            registry.register(name, graph, {"powcov": oracle})
            registry.session(name, "powcov")
        assert registry.session_evictions == 1
        assert registry.session_keys() == [("b", "powcov"), ("c", "powcov")]

    def test_touch_refreshes_recency(self, graph):
        registry = GraphRegistry(max_sessions=2)
        oracle = build_powcov(graph)
        for name in ("a", "b"):
            registry.register(name, graph, {"powcov": oracle})
            registry.session(name, "powcov")
        registry.session("a", "powcov")  # refresh: now b is the LRU
        registry.register("c", graph, {"powcov": oracle})
        registry.session("c", "powcov")
        assert registry.session_keys() == [("a", "powcov"), ("c", "powcov")]

    def test_evicted_session_is_rebuilt_on_demand(self, graph):
        registry = GraphRegistry(max_sessions=1)
        oracle = build_powcov(graph)
        registry.register("a", graph, {"powcov": oracle})
        registry.register("b", graph, {"powcov": oracle})
        first = registry.session("a", "powcov")
        registry.session("b", "powcov")  # evicts a
        rebuilt = registry.session("a", "powcov")
        assert rebuilt is not first
        assert rebuilt.run([(0, 5, 1)]) == [5.0]


class TestStoreBackedLoads:
    def test_round_trip_through_store(self, tmp_path, graph, oracle):
        store = IndexStore(tmp_path)
        store.save(oracle)
        registry = GraphRegistry()
        registry.register_store("g", graph, store, kinds=("powcov",))
        session = registry.session("g", "powcov")
        assert session.run([(0, 5, 1)]) == [5.0]
        assert registry.load_counts[("g", "powcov")] == 1

    def test_missing_index_raises_unknown_oracle(self, tmp_path, graph):
        registry = GraphRegistry()
        registry.register_store(
            "g", graph, IndexStore(tmp_path), kinds=("powcov",)
        )
        with pytest.raises(UnknownOracleError):
            registry.oracle("g", "powcov")

    def test_fingerprint_mismatch_rejected_on_load(self, tmp_path, graph):
        """A store file renamed to another graph's key must not serve: the
        embedded fingerprint is re-verified at load time."""
        other = path_graph(n=6, label=1)  # same shape, different labels
        store = IndexStore(tmp_path)
        saved = store.save(build_powcov(other))
        # Masquerade: give the foreign index the filename the registered
        # graph's loader will look up.
        disguised = store.path_for("powcov", graph)
        os.rename(saved, disguised)

        registry = GraphRegistry()
        registry.register_store("g", graph, store, kinds=("powcov",))
        with pytest.raises(FormatError):
            registry.oracle("g", "powcov")


class TestSingleFlight:
    def test_concurrent_first_touch_loads_once(self, graph, oracle):
        """N threads racing on a cold oracle: the loader runs exactly once
        and every thread gets the same instance."""
        loads = []
        gate = threading.Event()

        def slow_loader():
            gate.wait(timeout=10)
            time.sleep(0.05)  # hold the flight open across all arrivals
            loads.append(1)
            return oracle

        registry = GraphRegistry()
        registry.register("g", graph)
        registry.register_loader("g", "powcov", slow_loader)

        results = [None] * 8
        def touch(i):
            results[i] = registry.oracle("g", "powcov")

        threads = [
            threading.Thread(target=touch, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join(timeout=30)
        assert len(loads) == 1
        assert registry.load_counts[("g", "powcov")] == 1
        assert all(r is oracle for r in results)

    def test_failed_load_releases_the_flight(self, graph, oracle):
        attempts = []

        def flaky_loader():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return oracle

        registry = GraphRegistry()
        registry.register("g", graph)
        registry.register_loader("g", "powcov", flaky_loader)
        with pytest.raises(RuntimeError):
            registry.oracle("g", "powcov")
        assert registry.oracle("g", "powcov") is oracle  # retry succeeds


class TestDeltaRebind:
    def test_rebind_after_delta_serves_fresh_answers(self, graph):
        """Warm the cache, mutate the graph, and re-ask the same query:
        the answer must reflect the mutation (no stale cache hit)."""
        registry = GraphRegistry()
        registry.register("g", graph, {"powcov": build_powcov(graph)})
        session = registry.session("g", "powcov")
        assert session.run([(0, 5, 1)]) == [5.0]  # now cached

        info = registry.apply_delta(
            "g", GraphDelta(insertions=((0, 5, 0),))
        )
        assert info["repaired"] == ["powcov"]
        assert registry.session("g", "powcov") is session  # same warm session
        assert session.run([(0, 5, 1)]) == [1.0]  # shortcut, not the stale 5.0
        assert session.query(0, 5, 1) == 1.0

    def test_delta_bumps_listed_version(self, graph):
        registry = GraphRegistry()
        registry.register("g", graph, {"powcov": build_powcov(graph)})
        before = registry.describe()[0]["version"]
        registry.apply_delta("g", GraphDelta(insertions=((0, 2, 1),)))
        after = registry.describe()[0]["version"]
        assert after == before + 1

    def test_delta_on_unknown_graph(self):
        registry = GraphRegistry()
        with pytest.raises(UnknownGraphError):
            registry.apply_delta("nope", GraphDelta(insertions=((0, 1, 0),)))

    def test_unloaded_store_loaders_dropped_after_delta(
        self, tmp_path, graph
    ):
        """A never-loaded store file describes the pre-delta fingerprint;
        after the delta its kind must vanish rather than serve stale."""
        store = IndexStore(tmp_path)
        store.save(build_powcov(graph))
        registry = GraphRegistry()
        registry.register_store("g", graph, store, kinds=("powcov",))
        registry.apply_delta("g", GraphDelta(insertions=((0, 3, 1),)))
        assert registry.oracle_kinds("g") == []
        with pytest.raises(UnknownOracleError):
            registry.oracle("g", "powcov")

    def test_failed_repair_leaves_graph_at_old_version(
        self, tmp_path, graph, monkeypatch
    ):
        """A repair that raises part-way must not leave any oracle or
        session at the new version; a retry against the old parent works."""
        from repro.core import dynamic
        from repro.core.chromland import ChromLandIndex

        store = IndexStore(tmp_path)
        store.save(build_powcov(graph))
        store.save(ChromLandIndex(graph, [0, 3], [0, 1]).build())
        registry = GraphRegistry()
        registry.register_store("g", graph, store)
        assert registry.session("g", "powcov").run([(0, 5, 1)]) == [5.0]
        registry.session("g", "chromland").run([(0, 5, 1)])

        real = dynamic.repair_index

        def flaky(index, new_graph):
            if index.name == "chromland":
                raise RuntimeError("injected repair failure")
            return real(index, new_graph)

        monkeypatch.setattr(dynamic, "repair_index", flaky)
        delta = GraphDelta(insertions=((0, 5, 0),))
        with pytest.raises(RuntimeError, match="injected"):
            registry.apply_delta("g", delta)
        # PowCov was repaired before ChromLand failed: both are dropped, and
        # their loaders reopen the old version.
        assert registry.graph("g") is graph
        assert registry.session_keys() == []
        assert registry.session("g", "powcov").run([(0, 5, 1)]) == [5.0]

        monkeypatch.setattr(dynamic, "repair_index", real)
        info = registry.apply_delta("g", delta)
        assert info["repaired"] == ["powcov"]
        assert registry.session("g", "powcov").run([(0, 5, 1)]) == [1.0]
