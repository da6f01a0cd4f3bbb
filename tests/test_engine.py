"""Tests for the batch-native query engine (repro.engine).

The engine's contract is *bit-identity*: for every oracle, batch
execution — with or without answer caching — returns exactly what the
scalar ``oracle.query`` loop returns, including the edge cases
(``s == t``, empty constraint masks, unreachable pairs).  The tests here
sweep that contract across every oracle family (PowCov in memory and
store-opened), then cover the planning layer, session caches, counters,
and config plumbing.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import BidirectionalBFSBaseline, LabelConstrainedCH
from repro.core.chromland import ChromLandIndex
from repro.core.naive import NaivePowersetIndex
from repro.core.powcov import PowCovIndex, WeightedPowCovIndex
from repro.core.types import Query
from repro.engine import (
    EngineConfig,
    ExecutionPlan,
    PowCovExecutor,
    QuerySession,
    ScalarLoopExecutor,
    default_engine,
    execute_batch,
    executor_for,
    plan_batch,
    resolve_engine,
    set_default_engine,
)
from repro.engine.plan import as_triple, to_triple_array
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.graph.labelsets import full_mask
from repro.store.index_store import open_index, save_index


def directed_random(n=30, m=120, labels=3, seed=0) -> EdgeLabeledGraph:
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.add((u, v, int(rng.integers(labels))))
    return EdgeLabeledGraph.from_edges(n, sorted(edges), num_labels=labels,
                                       directed=True)


def symmetric_weights(graph, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    weights = np.zeros(graph.num_arcs, dtype=np.float64)
    pair_weight: dict[tuple[int, int, int], float] = {}
    for u in range(graph.num_vertices):
        for i in range(int(graph.indptr[u]), int(graph.indptr[u + 1])):
            key = (min(u, int(graph.neighbors[i])),
                   max(u, int(graph.neighbors[i])), int(graph.edge_labels[i]))
            if key not in pair_weight:
                pair_weight[key] = float(rng.integers(1, 6))
            weights[i] = pair_weight[key]
    return weights


def mixed_batch(graph, num_queries=160, seed=5) -> list[tuple[int, int, int]]:
    """A batch exercising every edge case: s==t, mask 0, repeats, all sizes."""
    rng = np.random.default_rng(seed)
    n, top = graph.num_vertices, full_mask(graph.num_labels)
    batch = [
        (0, 0, top),          # s == t answers 0 even with...
        (3, 3, 0),            # ...an empty mask
        (0, min(5, n - 1), 0),  # empty mask, distinct endpoints -> inf
    ]
    for _ in range(num_queries - len(batch)):
        batch.append((int(rng.integers(n)), int(rng.integers(n)),
                      int(rng.integers(0, top + 1))))
    batch.extend(batch[3:8])  # duplicates exercise the answer cache
    return batch


def scalar_answers(oracle, batch):
    return [oracle.query(s, t, m) for s, t, m in batch]


def assert_engine_matches_scalar(oracle, batch):
    """The core contract: batch path == scalar path, caches on and off."""
    expected = scalar_answers(oracle, batch)
    assert execute_batch(oracle, batch) == expected
    assert QuerySession(oracle, cache_size=0).run(batch) == expected
    session = QuerySession(oracle, cache_size=4096)
    assert session.run(batch) == expected
    assert session.run(batch) == expected  # warm-cache replay


@pytest.fixture(scope="module")
def undirected():
    return labeled_erdos_renyi(40, 130, num_labels=4, seed=11)


@pytest.fixture(scope="module")
def landmarks():
    return [0, 9, 18, 27]


class TestBitIdentity:
    @pytest.mark.parametrize("storage", ["memory", "mapped"])
    def test_powcov_storages(self, undirected, landmarks, storage, tmp_path):
        index = PowCovIndex(undirected, landmarks).build()
        if storage == "mapped":
            path = tmp_path / "powcov.repro"
            save_index(index, path)
            index = open_index(path, undirected)
            assert isinstance(index.forward.dist, np.memmap)
        assert_engine_matches_scalar(index, mixed_batch(undirected))

    def test_powcov_median_estimator(self, undirected, landmarks):
        index = PowCovIndex(undirected, landmarks, estimator="median").build()
        assert_engine_matches_scalar(index, mixed_batch(undirected))

    @pytest.mark.parametrize("query_mode", ["auxiliary", "simple"])
    def test_chromland_modes(self, undirected, landmarks, query_mode):
        index = ChromLandIndex(
            undirected, landmarks, [0, 1, 2, 3], query_mode=query_mode
        ).build()
        assert_engine_matches_scalar(index, mixed_batch(undirected))

    def test_naive_powerset(self, undirected, landmarks):
        index = NaivePowersetIndex(undirected, landmarks).build()
        assert_engine_matches_scalar(index, mixed_batch(undirected))

    def test_bidirectional_baseline(self, undirected):
        assert_engine_matches_scalar(
            BidirectionalBFSBaseline(undirected), mixed_batch(undirected, 60)
        )

    def test_label_constrained_ch(self, undirected):
        ch = LabelConstrainedCH(undirected, degree_limit=12).build()
        assert_engine_matches_scalar(ch, mixed_batch(undirected, 60))

    @pytest.mark.parametrize("estimator", ["upper", "median"])
    def test_directed_powcov(self, estimator):
        graph = directed_random(seed=8)
        index = PowCovIndex(
            graph, [0, 6, 12, 18], estimator=estimator
        ).build()
        assert_engine_matches_scalar(index, mixed_batch(graph, seed=8))

    @pytest.mark.parametrize("query_mode", ["auxiliary", "simple"])
    def test_directed_chromland(self, query_mode):
        graph = directed_random(seed=9)
        index = ChromLandIndex(
            graph, [0, 6, 12, 18], [0, 1, 2, 0], query_mode=query_mode
        ).build()
        assert_engine_matches_scalar(index, mixed_batch(graph, seed=9))

    def test_weighted_powcov(self, undirected, landmarks):
        weights = symmetric_weights(undirected, seed=11)
        index = WeightedPowCovIndex(undirected, landmarks, weights).build()
        assert_engine_matches_scalar(index, mixed_batch(undirected))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4))
    def test_property_random_graphs(self, seed, labels):
        rng = np.random.default_rng(seed)
        graph = labeled_erdos_renyi(
            int(rng.integers(12, 36)), int(rng.integers(20, 90)),
            num_labels=labels, seed=seed,
        )
        k = min(3, graph.num_vertices)
        lms = sorted(int(v) for v in rng.choice(graph.num_vertices, k, False))
        batch = mixed_batch(graph, num_queries=40, seed=seed)
        for oracle in (
            PowCovIndex(graph, lms).build(),
            ChromLandIndex(graph, lms, [i % labels for i in range(k)]).build(),
        ):
            assert execute_batch(oracle, batch) == scalar_answers(oracle, batch)

    def test_batch_query_delegates_to_engine(self, undirected, landmarks):
        index = PowCovIndex(undirected, landmarks).build()
        queries = [Query(s, t, m) for s, t, m in mixed_batch(undirected, 50)]
        assert index.batch_query(queries) == index.batch_query_scalar(queries)


class TestPlanning:
    def test_as_triple_forms(self):
        assert as_triple((1, 2, 3)) == (1, 2, 3)
        assert as_triple(Query(1, 2, 3)) == (1, 2, 3)

    def test_to_triple_array_forms(self):
        triples = [(0, 1, 3), (2, 0, 1)]
        for form in (
            triples,
            [Query(s, t, m) for s, t, m in triples],
            np.asarray(triples, dtype=np.int64),
        ):
            assert to_triple_array(form).tolist() == [list(t) for t in triples]
        assert to_triple_array([]).shape == (0, 3)
        with pytest.raises(ValueError):
            to_triple_array(np.zeros((3, 2), dtype=np.int64))

    def test_plan_groups_partition_batch(self):
        batch = [(0, 1, 5), (1, 2, 3), (2, 3, 5), (3, 4, 3), (4, 5, 5)]
        plan = plan_batch(batch)
        assert isinstance(plan, ExecutionPlan)
        assert plan.num_queries == len(batch)
        assert plan.num_masks == 2
        masks = [g.label_mask for g in plan.groups]
        assert masks == sorted(masks)
        seen = np.concatenate([g.positions for g in plan.groups])
        assert sorted(seen.tolist()) == list(range(len(batch)))
        for group in plan.groups:
            for pos, s, t in zip(group.positions, group.sources, group.targets):
                assert batch[pos] == (s, t, group.label_mask)

    def test_empty_plan(self):
        plan = plan_batch([])
        assert plan.num_queries == 0
        assert plan.groups == ()


class TestQuerySession:
    @pytest.fixture(scope="class")
    def index(self, undirected, landmarks):
        return PowCovIndex(undirected, landmarks).build()

    def test_validation(self, index):
        with pytest.raises(ValueError):
            QuerySession(index, cache_size=-1)
        with pytest.raises(ValueError):
            QuerySession(index, plan_cache_size=0)

    def test_counters_and_cache_info(self, index, undirected):
        batch = mixed_batch(undirected, 80)
        session = QuerySession(index, cache_size=4096)
        session.run(batch)
        counters = session.stats.counters
        # The whole first batch is probed before any answer lands in the
        # cache, so duplicates within it still count as misses.
        assert counters["queries"] == len(batch)
        assert counters["cache_misses"] == len(batch)
        assert counters["cache_hits"] == 0
        assert counters["executed"] == len(batch)
        session.run(batch)
        assert session.stats.counters["cache_hits"] == len(batch)
        info = session.cache_info()
        assert info["cached_answers"] == len(set(batch))
        assert 0 < info["hit_rate"] <= 1

    def test_evictions(self, index, undirected):
        batch = list(dict.fromkeys(mixed_batch(undirected, 100)))
        session = QuerySession(index, cache_size=8)
        session.run(batch)
        assert session.stats.counters["cache_evictions"] == len(batch) - 8
        assert len(session._answers) == 8

    def test_plan_cache(self, index):
        # cache_size=0 so every run reaches the plan lookup (answers
        # would otherwise short-circuit repeated masks entirely).
        session = QuerySession(index, cache_size=0, plan_cache_size=2)
        for mask in (1, 2, 1, 4, 1):
            session.run([(0, 1, mask)])
        counters = session.stats.counters
        # plan: 1, 2 planned; 1 hits (LRU order [2, 1]); 4 evicts 2;
        # 1 hits again.
        assert counters["masks_planned"] == 3
        assert counters["plan_cache_hits"] == 2

    def test_scalar_query_path_cached(self, index):
        session = QuerySession(index)
        first = session.query(0, 5, 7)
        assert session.query(0, 5, 7) == first == index.query(0, 5, 7)
        assert session.stats.counters["cache_hits"] == 1

    def test_clear_cache(self, index):
        session = QuerySession(index)
        session.run([(0, 1, 3)])
        session.clear_cache()
        assert session.cache_info()["cached_answers"] == 0

    def test_run_stream_matches_run(self, index, undirected):
        batch = mixed_batch(undirected, 90)
        streamed = QuerySession(index).run_stream(iter(batch), batch_size=16)
        assert streamed == QuerySession(index).run(batch)
        with pytest.raises(ValueError):
            QuerySession(index).run_stream(iter(batch), batch_size=0)

    def test_empty_batch(self, index):
        assert QuerySession(index).run([]) == []
        assert execute_batch(index, []) == []

    def test_format_stats_mentions_counters(self, index):
        session = QuerySession(index)
        session.run([(0, 1, 3)])
        text = session.format_stats()
        assert "cache" in text and "queries" in text


class TestExecutorDispatch:
    def test_powcov_gets_specialized_executor(self, undirected, landmarks):
        index = PowCovIndex(undirected, landmarks).build()
        assert isinstance(executor_for(index), PowCovExecutor)

    def test_baseline_gets_scalar_adapter(self, undirected):
        executor = executor_for(BidirectionalBFSBaseline(undirected))
        assert isinstance(executor, ScalarLoopExecutor)

    def test_unbuilt_index_rejected(self, undirected, landmarks):
        with pytest.raises(RuntimeError):
            executor_for(PowCovIndex(undirected, landmarks))


class TestEngineConfig:
    def test_resolve_forms(self):
        assert resolve_engine(None) == default_engine()
        assert resolve_engine(True).enabled
        assert not resolve_engine(False).enabled
        config = EngineConfig(enabled=True, cache_size=7)
        assert resolve_engine(config) is config

    def test_default_roundtrip(self):
        original = default_engine()
        try:
            set_default_engine(EngineConfig(enabled=True, cache_size=123))
            assert resolve_engine(None).cache_size == 123
        finally:
            set_default_engine(original)


class TestCacheGraphIdentity:
    """Answer-cache keys carry the graph fingerprint (regression).

    Before the fingerprint component, a session rebound to an oracle over a
    *different* graph kept serving the old graph's cached distances for any
    ``(s, t, mask)`` it had already seen.
    """

    def _disagreeing_oracles(self):
        # Same vertex count and label universe, different structure: the
        # two graphs answer (0, 3, {r}) differently.
        close = EdgeLabeledGraph.from_edges(
            4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)], num_labels=2
        )
        far = EdgeLabeledGraph.from_edges(
            4, [(0, 1, 0), (1, 2, 1), (2, 3, 0)], num_labels=2
        )
        oracle_close = BidirectionalBFSBaseline(close)
        oracle_far = BidirectionalBFSBaseline(far)
        assert oracle_close.query(0, 3, 1) != oracle_far.query(0, 3, 1)
        return oracle_close, oracle_far

    def test_rebind_never_serves_stale_answers(self):
        oracle_close, oracle_far = self._disagreeing_oracles()
        batch = [(0, 3, 1), (0, 2, 1)]
        session = QuerySession(oracle_close, cache_size=64)
        assert session.run(batch) == scalar_answers(oracle_close, batch)
        session.rebind(oracle_far)
        # The old graph's entries must not match: fresh, correct answers.
        assert session.run(batch) == scalar_answers(oracle_far, batch)
        assert session.query(0, 3, 1) == oracle_far.query(0, 3, 1)

    def test_rebind_back_revalidates_cached_answers(self):
        oracle_close, oracle_far = self._disagreeing_oracles()
        session = QuerySession(oracle_close, cache_size=64)
        session.run([(0, 3, 1)])
        session.rebind(oracle_far)
        session.run([(0, 3, 1)])
        hits_before = session.stats.counters.get("cache_hits", 0)
        session.rebind(oracle_close)
        assert session.run([(0, 3, 1)]) == [oracle_close.query(0, 3, 1)]
        # Served from cache: the original graph's entry became a hit again.
        assert session.stats.counters["cache_hits"] == hits_before + 1

    def test_rebind_drops_plans_keeps_answers(self, undirected, landmarks):
        index = PowCovIndex(undirected, landmarks).build()
        session = QuerySession(index, cache_size=64)
        batch = mixed_batch(undirected, num_queries=20)
        session.run(batch)
        assert session.cache_info()["cached_plans"] > 0
        session.rebind(ChromLandIndex(undirected, landmarks,
                                      [0] * len(landmarks)).build())
        assert session.cache_info()["cached_plans"] == 0
        assert session.cache_info()["cached_answers"] > 0


class TestRebindRepairAcrossMutations:
    """``rebind(repair=True)`` vs ``rebind(repair=False)`` across a delta.

    The repair path migrates cached answers whose mask avoids the delta's
    touched labels; the invalidate path starts cold.  Both must serve the
    exact same answers — migration is a cache optimization, never a
    semantic change.
    """

    def _mutated(self, graph):
        from repro.graph.delta import GraphDelta, apply_delta

        present = set()
        for u in range(graph.num_vertices):
            for neighbor, label in zip(graph.neighbors_of(u), graph.labels_of(u)):
                if u < int(neighbor):
                    present.add((u, int(neighbor), int(label)))
        u, v, label = min(e for e in present if e[2] == 0)
        return apply_delta(graph, GraphDelta(deletions=((u, v, label),)))

    def test_repair_and_invalidate_paths_agree(self, undirected, landmarks):
        from repro.core.dynamic import repair_index

        batch = mixed_batch(undirected, num_queries=80)
        repaired_session = QuerySession(
            PowCovIndex(undirected, landmarks).build(), cache_size=4096
        )
        invalidated_session = QuerySession(
            PowCovIndex(undirected, landmarks).build(), cache_size=4096
        )
        assert repaired_session.run(batch) == invalidated_session.run(batch)

        new_graph = self._mutated(undirected)
        for session in (repaired_session, invalidated_session):
            repair_index(session.oracle, new_graph)
        repaired_session.rebind(repaired_session.oracle, repair=True)
        invalidated_session.rebind(invalidated_session.oracle, repair=False)

        reference = scalar_answers(repaired_session.oracle, batch)
        assert repaired_session.run(batch) == reference
        assert invalidated_session.run(batch) == reference
        # The repair path actually migrated something...
        migrated = repaired_session.stats.counters["rebind_answers_migrated"]
        assert migrated > 0
        # ...and the invalidate path migrated nothing.
        assert "rebind_answers_migrated" not in (
            invalidated_session.stats.counters
        ) or invalidated_session.stats.counters["rebind_answers_migrated"] == 0

    def test_migrated_answers_hit_without_recompute(self, undirected, landmarks):
        from repro.core.dynamic import repair_index

        index = PowCovIndex(undirected, landmarks).build()
        session = QuerySession(index, cache_size=4096)
        # Touched labels will be {0}; mask 0b1110 avoids it, 0b0001 doesn't.
        avoiding = [(1, 7, 0b1110), (2, 9, 0b0110)]
        intersecting = [(1, 7, 0b0001), (2, 9, 0b0011)]
        session.run(avoiding + intersecting)

        new_graph = self._mutated(undirected)
        assert new_graph.applied_delta.touched_label_mask() == 0b0001
        repair_index(index, new_graph)
        session.rebind(index)

        hits_before = session.stats.counters.get("cache_hits", 0)
        assert session.run(avoiding) == scalar_answers(index, avoiding)
        assert session.stats.counters["cache_hits"] == hits_before + len(avoiding)
        # Intersecting masks went cold: re-answered, not served stale.
        misses_before = session.stats.counters.get("cache_misses", 0)
        assert session.run(intersecting) == scalar_answers(index, intersecting)
        assert session.stats.counters["cache_misses"] == misses_before + len(
            intersecting
        )

    def test_unrelated_rebind_migrates_nothing(self, undirected, landmarks):
        # Rebinding to an oracle over an unrelated graph (no lineage) must
        # fall back to plain invalidation.
        other = labeled_erdos_renyi(40, 130, num_labels=4, seed=77)
        session = QuerySession(
            PowCovIndex(undirected, landmarks).build(), cache_size=4096
        )
        batch = mixed_batch(undirected, num_queries=40)
        session.run(batch)
        replacement = PowCovIndex(other, landmarks).build()
        session.rebind(replacement, repair=True)
        assert session.stats.counters.get("rebind_answers_migrated", 0) == 0
        assert session.run(batch) == scalar_answers(replacement, batch)
