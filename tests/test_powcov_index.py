"""Tests for the PowCov index: Theorem 1 reconstruction + query bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.powcov import PowCovIndex
from repro.core.trie import distance_groups, first_subset_distance
from repro.engine import execute_batch
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.traversal import UNREACHABLE, constrained_bfs

from conftest import all_pairs_all_masks, exact_constrained_distance


@pytest.fixture(scope="module")
def built_index():
    graph = labeled_erdos_renyi(45, 110, num_labels=3, seed=21)
    landmarks = [0, 9, 18, 27, 36]
    return graph, landmarks, PowCovIndex(graph, landmarks).build()


class TestConstruction:
    def test_duplicate_landmarks_rejected(self, random_graph):
        with pytest.raises(ValueError, match="distinct"):
            PowCovIndex(random_graph, [1, 1, 2])

    def test_out_of_range_landmark(self, random_graph):
        with pytest.raises(ValueError, match="out of range"):
            PowCovIndex(random_graph, [random_graph.num_vertices])

    def test_bad_builder(self, random_graph):
        with pytest.raises(ValueError, match="builder"):
            PowCovIndex(random_graph, [0], builder="magic")

    def test_bad_estimator(self, random_graph):
        with pytest.raises(ValueError, match="estimator"):
            PowCovIndex(random_graph, [0], estimator="mean")

    def test_query_before_build(self, random_graph):
        index = PowCovIndex(random_graph, [0])
        with pytest.raises(RuntimeError, match="build"):
            index.query(0, 1, 1)

    def test_describe(self, built_index):
        _, _, index = built_index
        assert "powcov" in index.describe()


class TestTheorem1Reconstruction:
    """Stored SP-minimal sets reconstruct exact landmark distances."""

    def test_exhaustive(self, built_index):
        graph, landmarks, index = built_index
        for i, x in enumerate(landmarks):
            for mask in range(1, 1 << graph.num_labels):
                exact = constrained_bfs(graph, x, mask)
                for u in range(graph.num_vertices):
                    expected = (
                        float(exact[u]) if exact[u] != UNREACHABLE else math.inf
                    )
                    assert index.landmark_distance(i, u, mask) == expected, (
                        x, u, mask,
                    )

    def test_landmark_to_itself(self, built_index):
        _, landmarks, index = built_index
        for i in range(len(landmarks)):
            assert index.landmark_distance(i, landmarks[i], 1) == 0.0


class TestQueryBounds:
    def test_sandwich(self, built_index):
        """lower <= exact <= estimate for every finite query."""
        graph, _, index = built_index
        for s, t, mask, exact in all_pairs_all_masks(graph):
            if s == t:
                continue
            answer = index.query_answer(s, t, mask)
            if math.isinf(exact):
                assert math.isinf(answer.estimate)  # no false positives
            else:
                assert answer.estimate >= exact
                assert answer.lower <= exact

    def test_same_vertex(self, built_index):
        _, _, index = built_index
        assert index.query(7, 7, 1) == 0.0

    def test_empty_mask(self, built_index):
        _, _, index = built_index
        assert math.isinf(index.query(0, 1, 0))

    def test_query_through_landmark_is_exact(self, built_index):
        """If s is itself a landmark, the estimate equals the exact distance."""
        graph, landmarks, index = built_index
        s = landmarks[0]
        for t in range(graph.num_vertices):
            if t == s:
                continue
            for mask in (1, 3, 7):
                exact = exact_constrained_distance(graph, s, t, mask)
                assert index.query(s, t, mask) == exact


def first_subset_scan(dists, masks, label_mask):
    """Theorem 1 by a plain scan: the first stored subset of the mask."""
    for dist, mask in zip(dists.tolist(), masks.tolist()):
        if mask & label_mask == mask:
            return float(dist)
    return math.inf


class TestStorageVariants:
    """The scalar pair scan, the vectorized pair-CSR lookup and the
    Section 3.1 trie view all read the one table and must agree."""

    def test_trie_and_packed_match_flat(self):
        graph = labeled_erdos_renyi(35, 90, num_labels=4, seed=5)
        landmarks = [0, 10, 20]
        index = PowCovIndex(graph, landmarks).build()
        table = index.forward
        groups = {
            (i, u): distance_groups(*table.pair(i, u))
            for i in range(len(landmarks))
            for u in range(graph.num_vertices)
        }
        vertices = np.arange(graph.num_vertices)
        for mask in range(1, 16):
            rows = table.lookup_many(vertices, mask)
            for (i, u), pair_groups in groups.items():
                scan = first_subset_scan(*table.pair(i, u), mask)
                assert first_subset_distance(pair_groups, mask) == scan
                assert rows[u, i] == scan

    def test_packed_landmark_distance_matches_flat(self):
        graph = labeled_erdos_renyi(30, 80, num_labels=3, seed=9)
        landmarks = [0, 15, 29]
        index = PowCovIndex(graph, landmarks).build()
        vertices = np.arange(30)
        for mask in range(1, 8):
            rows = index.landmark_rows(vertices, mask)
            for i in range(3):
                for u in range(30):
                    scan = first_subset_scan(*index.forward.pair(i, u), mask)
                    if u == landmarks[i]:
                        scan = 0.0
                    assert rows[u, i] == scan
                    assert index.landmark_distance(i, u, mask) == scan

    def test_packed_median_matches_flat_median(self):
        graph = labeled_erdos_renyi(30, 90, num_labels=3, seed=10)
        landmarks = [0, 7, 14, 21, 28]
        index = PowCovIndex(graph, landmarks, estimator="median").build()
        queries = [
            (s, t, mask)
            for s in range(0, 30, 4)
            for t in range(1, 30, 5)
            for mask in (1, 3, 7)
        ]
        assert execute_batch(index, queries) == [
            index.query(s, t, mask) for s, t, mask in queries
        ]

    def test_builders_match(self):
        graph = labeled_erdos_renyi(30, 70, num_labels=3, seed=6)
        landmarks = [0, 15]
        results = {}
        for builder in ("traverse", "traverse-paper", "brute"):
            index = PowCovIndex(graph, landmarks, builder=builder).build()
            results[builder] = [
                index.query(s, t, m)
                for s in range(0, 30, 5)
                for t in range(1, 30, 7)
                for m in range(1, 8)
            ]
        assert results["traverse"] == results["brute"]
        assert results["traverse"] == results["traverse-paper"]

    def test_median_estimator_between_bounds(self):
        graph = labeled_erdos_renyi(40, 120, num_labels=3, seed=7)
        landmarks = list(range(0, 40, 5))
        upper = PowCovIndex(graph, landmarks, estimator="upper").build()
        median = PowCovIndex(graph, landmarks, estimator="median").build()
        for s in range(0, 40, 7):
            for t in range(1, 40, 6):
                for mask in (1, 3, 7):
                    mu = upper.query_answer(s, t, mask)
                    mm = median.query_answer(s, t, mask)
                    if math.isinf(mu.upper):
                        assert math.isinf(mm.estimate)
                    else:
                        assert mm.estimate >= mu.upper  # median >= min


class TestSizeAccounting:
    def test_counts_consistent(self, built_index):
        _, _, index = built_index
        assert index.index_size_entries() > 0
        assert index.reachable_pairs() > 0
        avg = index.average_entries_per_pair()
        assert avg == pytest.approx(
            index.index_size_entries() / index.reachable_pairs()
        )
        assert index.max_entries_per_pair() >= math.ceil(avg)
