"""Ablation: Section 3.1's prefix-tree grouping vs the pair CSR table.

Section 3.1 proposes grouping same-distance label sets into prefix trees.
The index keeps one landmark-major pair CSR table; this ablation builds
the trie grouping from that table and measures the query-time trade-off
of the two Theorem 1 probes (linear first-subset scan vs trie walk),
asserting identical answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.powcov import PowCovIndex
from repro.core.trie import distance_groups, first_subset_distance

from conftest import run_queries


class TrieView:
    """Upper-bound PowCov queries over tries grouped from the table."""

    def __init__(self, index: PowCovIndex) -> None:
        table = index.forward
        n = table.num_vertices
        self.landmarks = index.landmarks
        self.groups = {
            divmod(pair, n): distance_groups(*table.pair(*divmod(pair, n)))
            for pair in np.flatnonzero(table.pair_counts()).tolist()
        }

    def landmark_distance(self, i: int, u: int, mask: int) -> float:
        if u == self.landmarks[i]:
            return 0.0
        groups = self.groups.get((i, u))
        return first_subset_distance(groups, mask) if groups else float("inf")

    def query(self, source: int, target: int, mask: int) -> float:
        if source == target:
            return 0.0
        if mask == 0:
            return float("inf")
        best = float("inf")
        for i in range(len(self.landmarks)):
            total = self.landmark_distance(i, source, mask) + (
                self.landmark_distance(i, target, mask)
            )
            best = min(best, total)
        return best


@pytest.fixture(scope="module")
def indexes(biogrid, biogrid_landmarks):
    table = PowCovIndex(biogrid, biogrid_landmarks).build()
    return table, TrieView(table)


def test_table_queries(benchmark, indexes, biogrid_workload):
    table, _ = indexes
    benchmark(run_queries, table, biogrid_workload)


def test_trie_queries(benchmark, indexes, biogrid_workload):
    _, trie = indexes
    benchmark(run_queries, trie, biogrid_workload)


def test_layouts_agree(indexes, biogrid_workload):
    table, trie = indexes
    for q in biogrid_workload.queries[:200]:
        reference = table.query(q.source, q.target, q.label_mask)
        assert trie.query(q.source, q.target, q.label_mask) == reference
