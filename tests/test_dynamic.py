"""Tests for the versioned mutation layer and incremental index repair.

Covers ``GraphDelta``/``apply_delta`` semantics (validation, copy-on-write
adoption, lineage fingerprints), the PowCov repair paths (decrease-only
insertion repair, dirty-landmark re-sweeps for deletions/relabels), repair
of indexes opened from a store file (read-only mapped columns), ChromLand
per-sweep repair (undirected and directed), the differential harness
itself, and a hypothesis-driven randomized mutation-sequence check
asserting bit-identity with a from-scratch rebuild after every delta.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ChromLandIndex, PowCovIndex
from repro.core.dynamic import (
    RepairStats,
    assert_repair_matches_rebuild,
    rebuild_reference,
    repair_chromland,
    repair_index,
    repair_powcov,
)
from repro.engine import QuerySession, execute_batch
from repro.graph.delta import GraphDelta, apply_delta
from repro.graph.fingerprint import delta_fingerprint, graph_fingerprint
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.graph.labelsets import full_mask

DYNAMIC = settings(
    max_examples=int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "10")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def undirected_edge_set(graph: EdgeLabeledGraph) -> set[tuple[int, int, int]]:
    """The ``(u < v, label)`` edge set of an undirected graph."""
    edges = set()
    for u in range(graph.num_vertices):
        for neighbor, label in zip(graph.neighbors_of(u), graph.labels_of(u)):
            if u < int(neighbor):
                edges.add((u, int(neighbor), int(label)))
    return edges


def sample_queries(
    graph: EdgeLabeledGraph, count: int = 30, seed: int = 0
) -> list[tuple[int, int, int]]:
    rng = np.random.default_rng(seed)
    top = full_mask(graph.num_labels)
    return [
        (
            int(rng.integers(graph.num_vertices)),
            int(rng.integers(graph.num_vertices)),
            1 + int(rng.integers(top)),
        )
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def base_graph() -> EdgeLabeledGraph:
    return labeled_erdos_renyi(40, 110, num_labels=4, seed=11)


@pytest.fixture(scope="module")
def landmarks(base_graph) -> list[int]:
    from repro.landmarks import select_landmarks

    return select_landmarks(base_graph, 4, strategy="greedy-mvc", seed=1)


# ----------------------------------------------------------------------
# GraphDelta / apply_delta semantics
# ----------------------------------------------------------------------
class TestGraphDelta:
    def test_insertion_versions_and_parent_untouched(self, base_graph):
        edges_before = undirected_edge_set(base_graph)
        missing = next(
            (u, v, 0)
            for u in range(base_graph.num_vertices)
            for v in range(u + 1, base_graph.num_vertices)
            if (u, v, 0) not in edges_before
        )
        delta = GraphDelta(insertions=(missing,))
        child = apply_delta(base_graph, delta)
        assert child.version == base_graph.version + 1
        assert child.parent_fingerprint == graph_fingerprint(base_graph)
        assert child.applied_delta is delta
        assert child.num_edges == base_graph.num_edges + 1
        assert undirected_edge_set(child) == edges_before | {missing}
        # The parent is untouched.
        assert undirected_edge_set(base_graph) == edges_before
        assert base_graph.applied_delta is None

    def test_deletion_and_relabel(self, base_graph):
        u, v, label = min(undirected_edge_set(base_graph))
        removed = apply_delta(base_graph, GraphDelta(deletions=((u, v, label),)))
        assert removed.num_edges == base_graph.num_edges - 1
        assert (u, v, label) not in undirected_edge_set(removed)

        new_label = (label + 1) % base_graph.num_labels
        relabeled = apply_delta(
            base_graph, GraphDelta(relabels=((u, v, label, new_label),))
        )
        edges = undirected_edge_set(relabeled)
        assert (u, v, label) not in edges
        assert (u, v, new_label) in edges

    def test_relabel_only_shares_csr_zero_copy(self, base_graph):
        u, v, label = min(undirected_edge_set(base_graph))
        new_label = (label + 1) % base_graph.num_labels
        child = apply_delta(
            base_graph, GraphDelta(relabels=((u, v, label, new_label),))
        )
        assert child.indptr is base_graph.indptr
        assert child.neighbors is base_graph.neighbors
        assert child.edge_labels is not base_graph.edge_labels

    def test_apply_edges_convenience_matches_apply_delta(self, base_graph):
        u, v, label = min(undirected_edge_set(base_graph))
        via_method = base_graph.apply_edges(deletions=[(u, v, label)])
        via_delta = apply_delta(
            base_graph, GraphDelta(deletions=((u, v, label),))
        )
        assert graph_fingerprint(via_method) == graph_fingerprint(via_delta)
        assert undirected_edge_set(via_method) == undirected_edge_set(via_delta)

    def test_validation_errors(self, base_graph):
        u, v, label = min(undirected_edge_set(base_graph))
        with pytest.raises(ValueError, match="already exists"):
            apply_delta(base_graph, GraphDelta(insertions=((u, v, label),)))
        with pytest.raises(ValueError, match="does not exist"):
            apply_delta(base_graph, GraphDelta(deletions=((u, v, label + 1),)))
        with pytest.raises(ValueError, match="self-loop"):
            apply_delta(base_graph, GraphDelta(insertions=((3, 3, 0),)))
        with pytest.raises(ValueError, match="out of range"):
            apply_delta(base_graph, GraphDelta(insertions=((0, 10_000, 0),)))
        with pytest.raises(ValueError, match="same label"):
            apply_delta(base_graph, GraphDelta(relabels=((u, v, label, label),)))
        with pytest.raises(ValueError, match="more than once"):
            apply_delta(
                base_graph,
                GraphDelta(
                    deletions=((u, v, label),),
                    insertions=((u, v, (label + 1) % base_graph.num_labels),),
                ),
            )

    def test_lineage_fingerprint_is_deterministic_and_discriminating(
        self, base_graph
    ):
        u, v, label = min(undirected_edge_set(base_graph))
        delta = GraphDelta(deletions=((u, v, label),))
        once = apply_delta(base_graph, delta)
        twice = apply_delta(base_graph, delta)
        assert graph_fingerprint(once) == graph_fingerprint(twice)
        assert graph_fingerprint(once) == delta_fingerprint(
            graph_fingerprint(base_graph), delta
        )
        assert graph_fingerprint(once) != graph_fingerprint(base_graph)
        other = apply_delta(
            base_graph,
            GraphDelta(relabels=((u, v, label, (label + 1) % 4),)),
        )
        assert graph_fingerprint(other) != graph_fingerprint(once)

    def test_touched_label_mask(self):
        delta = GraphDelta(
            insertions=((0, 1, 0),),
            deletions=((2, 3, 1),),
            relabels=((4, 5, 2, 3),),
        )
        assert delta.touched_label_mask() == 0b1111
        assert delta.num_ops == 3
        assert not delta.is_empty
        assert GraphDelta().is_empty


# ----------------------------------------------------------------------
# PowCov repair
# ----------------------------------------------------------------------
class TestPowCovRepair:
    def test_insertion_repair_matches_rebuild(self, base_graph, landmarks):
        index = PowCovIndex(base_graph, landmarks).build()
        missing = next(
            (u, v, 1)
            for u in range(base_graph.num_vertices)
            for v in range(u + 1, base_graph.num_vertices)
            if (u, v, 1) not in undirected_edge_set(base_graph)
        )
        new_graph = apply_delta(base_graph, GraphDelta(insertions=(missing,)))
        stats = repair_powcov(index, new_graph)
        assert index.graph is new_graph
        assert stats.kind == "powcov"
        assert not stats.full_rebuild
        assert_repair_matches_rebuild(index, queries=sample_queries(new_graph))

    def test_insertion_repair_lazy_fallback_matches_rebuild(
        self, base_graph, landmarks, monkeypatch
    ):
        # Force the stacked subset-min lattice over its memory budget so
        # the repair takes the lazy per-mask reconstruction path instead;
        # the answers must be bit-identical either way.
        import repro.core.dynamic as dynamic

        monkeypatch.setattr(dynamic, "_SOS_TABLE_CELLS", 0)
        index = PowCovIndex(base_graph, landmarks).build()
        missing = next(
            (u, v, 1)
            for u in range(base_graph.num_vertices)
            for v in range(u + 1, base_graph.num_vertices)
            if (u, v, 1) not in undirected_edge_set(base_graph)
        )
        new_graph = apply_delta(base_graph, GraphDelta(insertions=(missing,)))
        stats = repair_powcov(index, new_graph)
        assert stats.landmarks_repaired >= 1
        assert_repair_matches_rebuild(index, queries=sample_queries(new_graph))

    def test_deletion_triggers_resweep_and_matches_rebuild(
        self, base_graph, landmarks
    ):
        index = PowCovIndex(base_graph, landmarks).build()
        u, v, label = min(undirected_edge_set(base_graph))
        new_graph = apply_delta(
            base_graph, GraphDelta(deletions=((u, v, label),))
        )
        stats = repair_powcov(index, new_graph)
        assert stats.landmarks_clean + stats.landmarks_repaired + (
            stats.landmarks_resweep
        ) == len(landmarks)
        assert_repair_matches_rebuild(index, queries=sample_queries(new_graph))

    def test_multi_op_delta_matches_rebuild(self, base_graph, landmarks):
        index = PowCovIndex(base_graph, landmarks).build()
        edges = sorted(undirected_edge_set(base_graph))
        (du, dv, dl), (ru, rv, rl) = edges[0], edges[1]
        missing = next(
            (u, v, 2)
            for u in range(base_graph.num_vertices)
            for v in range(u + 1, base_graph.num_vertices)
            if (u, v, 2) not in undirected_edge_set(base_graph)
            and (u, v) not in {(du, dv), (ru, rv)}
        )
        new_graph = apply_delta(
            base_graph,
            GraphDelta(
                insertions=(missing,),
                deletions=((du, dv, dl),),
                relabels=((ru, rv, rl, (rl + 1) % base_graph.num_labels),),
            ),
        )
        repair_powcov(index, new_graph)
        assert_repair_matches_rebuild(index, queries=sample_queries(new_graph))

    def test_repair_refuses_non_descendant(self, base_graph, landmarks):
        index = PowCovIndex(base_graph, landmarks).build()
        stranger = labeled_erdos_renyi(40, 110, num_labels=4, seed=99)
        with pytest.raises(ValueError, match="descendant|delta|lineage"):
            repair_powcov(index, stranger)
        # Two versions ahead is also refused: repairs span exactly one delta.
        u, v, label = min(undirected_edge_set(base_graph))
        one = apply_delta(base_graph, GraphDelta(deletions=((u, v, label),)))
        two = apply_delta(one, GraphDelta(insertions=((u, v, label),)))
        with pytest.raises(ValueError):
            repair_powcov(index, two)

    def test_engine_paths_agree_after_repair(self, base_graph, landmarks):
        # Regression: sessions cache resolved landmark rows per mask; a
        # rebind after repair must drop them along with the old table.
        index = PowCovIndex(base_graph, landmarks).build()
        queries = sample_queries(base_graph, seed=3)
        session = QuerySession(index)
        session.run(queries)
        u, v, label = min(undirected_edge_set(base_graph))
        new_graph = apply_delta(
            base_graph, GraphDelta(deletions=((u, v, label),))
        )
        repair_powcov(index, new_graph)
        session.rebind(index)
        scalar = [index.query(s, t, m) for s, t, m in queries]
        assert execute_batch(index, queries) == scalar
        assert session.run(queries) == scalar

    def test_directed_falls_back_to_full_rebuild(self):
        rng = np.random.default_rng(7)
        edges = {
            (int(rng.integers(18)), int(rng.integers(18)), int(rng.integers(3)))
            for _ in range(60)
        }
        edges = [(u, v, l) for u, v, l in edges if u != v]
        graph = EdgeLabeledGraph.from_edges(
            18, edges, num_labels=3, directed=True
        )
        index = PowCovIndex(graph, [0, 5]).build()
        u, v, label = edges[0]
        new_graph = apply_delta(graph, GraphDelta(deletions=((u, v, label),)))
        stats = repair_powcov(index, new_graph)
        assert stats.full_rebuild
        assert_repair_matches_rebuild(index, queries=sample_queries(new_graph))


# ----------------------------------------------------------------------
# ChromLand repair
# ----------------------------------------------------------------------
class TestChromLandRepair:
    def test_each_op_kind_matches_rebuild(self, base_graph):
        colors = [0, 1, 0, 1]
        for mutate in ("insert", "delete", "relabel"):
            index = ChromLandIndex(base_graph, [0, 10, 20, 30], colors).build()
            u, v, label = min(undirected_edge_set(base_graph))
            if mutate == "insert":
                op = GraphDelta(
                    insertions=(
                        next(
                            (a, b, 0)
                            for a in range(base_graph.num_vertices)
                            for b in range(a + 1, base_graph.num_vertices)
                            if (a, b, 0) not in undirected_edge_set(base_graph)
                        ),
                    )
                )
            elif mutate == "delete":
                op = GraphDelta(deletions=((u, v, label),))
            else:
                op = GraphDelta(
                    relabels=((u, v, label, (label + 1) % base_graph.num_labels),)
                )
            new_graph = apply_delta(base_graph, op)
            stats = repair_chromland(index, new_graph)
            assert stats.kind == "chromland"
            assert stats.sweeps_rerun + stats.sweeps_kept > 0
            assert_repair_matches_rebuild(
                index, queries=sample_queries(new_graph)
            )

    def test_untouched_sweeps_are_kept(self, base_graph):
        index = ChromLandIndex(base_graph, [0, 10, 20, 30], [0, 1, 2, 3]).build()
        # A relabel between labels 2 and 3 leaves label-{0,1} sweeps alone.
        edge = next(
            (u, v, l) for (u, v, l) in sorted(undirected_edge_set(base_graph))
            if l == 2
        )
        u, v, label = edge
        new_graph = apply_delta(
            base_graph, GraphDelta(relabels=((u, v, 2, 3),))
        )
        stats = repair_chromland(index, new_graph)
        assert stats.sweeps_kept > 0
        assert_repair_matches_rebuild(index, queries=sample_queries(new_graph))

    def test_directed_repairs_mono_in(self):
        rng = np.random.default_rng(3)
        edges = {
            (int(rng.integers(16)), int(rng.integers(16)), int(rng.integers(3)))
            for _ in range(55)
        }
        edges = [(u, v, l) for u, v, l in edges if u != v]
        graph = EdgeLabeledGraph.from_edges(
            16, edges, num_labels=3, directed=True
        )
        index = ChromLandIndex(graph, [0, 4], [0, 1]).build()
        assert index.mono_in is not None
        u, v, label = edges[0]
        new_graph = apply_delta(graph, GraphDelta(deletions=((u, v, label),)))
        repair_chromland(index, new_graph)
        assert_repair_matches_rebuild(index, queries=sample_queries(new_graph))


# ----------------------------------------------------------------------
# Repair of indexes opened from a store file
# ----------------------------------------------------------------------
class TestStoreOpenedRepair:
    @pytest.mark.parametrize("kind", ["powcov", "chromland"])
    def test_mapped_repair_matches_rebuild(
        self, base_graph, landmarks, kind, tmp_path
    ):
        from repro.store.cache import IndexStore

        def build(graph):
            if kind == "powcov":
                return PowCovIndex(graph, landmarks).build()
            return ChromLandIndex(graph, landmarks, [0, 1, 2, 3]).build()

        store = IndexStore(tmp_path)
        store.save(build(base_graph))
        index = store.load(kind, base_graph)
        assert index is not None and index.stored_fingerprint is not None
        queries = sample_queries(base_graph, count=60, seed=4)
        session = QuerySession(index)
        session.run(queries)

        edges = sorted(undirected_edge_set(base_graph))
        missing = next(
            (u, v, 1)
            for u in range(base_graph.num_vertices)
            for v in range(u + 1, base_graph.num_vertices)
            if (u, v, 1) not in undirected_edge_set(base_graph)
        )
        ru, rv, rl = edges[3]
        deltas = (
            GraphDelta(insertions=(missing,)),
            GraphDelta(deletions=(edges[0],)),
            GraphDelta(relabels=((ru, rv, rl, (rl + 1) % base_graph.num_labels),)),
        )
        graph = base_graph
        for delta in deltas:
            graph = apply_delta(graph, delta)
            stats = repair_index(index, graph)
            if kind == "powcov":
                assert not stats.full_rebuild
            assert_repair_matches_rebuild(index, queries=sample_queries(graph))
            session.rebind(index)
            fresh = build(graph)
            assert session.run(queries) == [fresh.query(*q) for q in queries]


# ----------------------------------------------------------------------
# repair_index dispatch + RepairStats
# ----------------------------------------------------------------------
class TestRepairDispatch:
    def test_dispatches_by_index_type(self, base_graph, landmarks):
        u, v, label = min(undirected_edge_set(base_graph))
        new_graph = apply_delta(
            base_graph, GraphDelta(deletions=((u, v, label),))
        )
        powcov = PowCovIndex(base_graph, landmarks).build()
        assert repair_index(powcov, new_graph).kind == "powcov"
        chrom = ChromLandIndex(base_graph, landmarks, [0, 1, 0, 1]).build()
        assert repair_index(chrom, new_graph).kind == "chromland"

    def test_rebuild_reference_answers_like_fresh_build(
        self, base_graph, landmarks
    ):
        index = PowCovIndex(base_graph, landmarks).build()
        reference = rebuild_reference(index)
        for s, t, m in sample_queries(base_graph, count=10):
            assert index.query(s, t, m) == reference.query(s, t, m)

    def test_stats_combine_and_describe(self):
        a = RepairStats(kind="powcov", landmarks_repaired=2, rows_relaxed=7)
        b = RepairStats(kind="powcov", landmarks_resweep=1, rows_relaxed=3)
        merged = a.combine(b)
        assert merged.landmarks_repaired == 2
        assert merged.landmarks_resweep == 1
        assert merged.rows_relaxed == 10
        assert "repair" in merged.describe() or "powcov" in merged.describe()


# ----------------------------------------------------------------------
# Hypothesis-driven randomized mutation sequences (the acceptance bar)
# ----------------------------------------------------------------------
@st.composite
def graph_and_ops(draw):
    """A small graph plus a raw op tape to replay against it.

    Ops are drawn blind — each ``(kind, u, v, label, alt)`` tuple is
    resolved against the *evolving* edge set at replay time and skipped if
    invalid — which keeps the strategy shrinkable while still exercising
    arbitrary insert/delete/relabel interleavings.
    """
    n = draw(st.integers(min_value=5, max_value=9))
    num_labels = draw(st.integers(min_value=2, max_value=3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(
            st.sampled_from(pairs),
            min_size=n - 1,
            max_size=min(2 * n, len(pairs)),
            unique=True,
        )
    )
    labels = draw(
        st.lists(
            st.integers(0, num_labels - 1),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    edges = [(u, v, lab) for (u, v), lab in zip(chosen, labels)]
    graph = EdgeLabeledGraph.from_edges(n, edges, num_labels=num_labels)
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.sampled_from(pairs),
                st.integers(0, num_labels - 1),
                st.integers(0, num_labels - 1),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return graph, ops


def resolve_op(
    edges: set[tuple[int, int, int]],
    op: tuple[int, tuple[int, int], int, int],
) -> GraphDelta | None:
    """Turn a raw op tuple into a valid single-op delta, or ``None``."""
    kind, (u, v), label, alt = op
    if kind == 0 and (u, v, label) not in edges:
        edges.add((u, v, label))
        return GraphDelta(insertions=((u, v, label),))
    if kind == 1 and (u, v, label) in edges:
        edges.remove((u, v, label))
        return GraphDelta(deletions=((u, v, label),))
    if (
        kind == 2
        and alt != label
        and (u, v, label) in edges
        and (u, v, alt) not in edges
    ):
        edges.remove((u, v, label))
        edges.add((u, v, alt))
        return GraphDelta(relabels=((u, v, label, alt),))
    return None


class TestRandomizedMutationSequences:
    @DYNAMIC
    @given(graph_and_ops())
    def test_powcov_repair_stays_bit_identical(self, case):
        graph, ops = case
        landmarks = list(range(min(3, graph.num_vertices)))
        index = PowCovIndex(graph, landmarks).build()
        edges = undirected_edge_set(graph)
        for op in ops:
            delta = resolve_op(edges, op)
            if delta is None:
                continue
            graph = apply_delta(graph, delta)
            repair_index(index, graph)
            assert_repair_matches_rebuild(
                index, queries=sample_queries(graph, count=15)
            )

    @DYNAMIC
    @given(graph_and_ops())
    def test_chromland_repair_stays_bit_identical(self, case):
        graph, ops = case
        landmarks = list(range(min(3, graph.num_vertices)))
        colors = [i % 2 for i in range(len(landmarks))]
        index = ChromLandIndex(graph, landmarks, colors).build()
        edges = undirected_edge_set(graph)
        for op in ops:
            delta = resolve_op(edges, op)
            if delta is None:
                continue
            graph = apply_delta(graph, delta)
            repair_index(index, graph)
            assert_repair_matches_rebuild(index)

    @DYNAMIC
    @given(graph_and_ops())
    def test_untouched_masks_keep_distances(self, case):
        """The soundness condition behind answer migration: a mask that
        avoids every touched label answers identically across the delta."""
        graph, ops = case
        index = PowCovIndex(graph, list(range(min(3, graph.num_vertices)))).build()
        edges = undirected_edge_set(graph)
        top = full_mask(graph.num_labels)
        for op in ops:
            delta = resolve_op(edges, op)
            if delta is None:
                continue
            untouched = top & ~delta.touched_label_mask()
            before = {}
            if untouched:
                before = {
                    (s, t): index.query(s, t, untouched)
                    for s in range(graph.num_vertices)
                    for t in range(graph.num_vertices)
                }
            graph = apply_delta(graph, delta)
            repair_index(index, graph)
            for (s, t), want in before.items():
                got = index.query(s, t, untouched)
                assert got == want or (math.isinf(got) and math.isinf(want))
