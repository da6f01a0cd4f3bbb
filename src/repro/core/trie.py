"""Prefix tree (trie) over label sets.

Section 3.1 of the paper: "we organize any group of label sets sharing the
same distance into a small-redundancy data structure, e.g., a prefix tree".
``LabelSetTrie`` is that structure.  Label sets are stored as sorted label-id
sequences; common prefixes share nodes, and the query the PowCov index needs
— *does the trie contain a subset of* ``C``? — is answered by a DFS that only
descends into children whose label is in ``C``.

The trie also supports exact-match lookups and enumeration, and exposes
``node_count`` for the storage-ablation benchmark.  The PowCov index
itself answers from its pair CSR table; :func:`distance_groups` rebuilds
the Section 3.1 grouping from one pair of that table as an ablation view.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..graph.labelsets import label_bit, labels_from_mask

__all__ = ["LabelSetTrie", "distance_groups", "first_subset_distance"]


class _Node:
    __slots__ = ("children", "terminal")

    def __init__(self):
        self.children: dict[int, _Node] = {}
        self.terminal = False


class LabelSetTrie:
    """A set of label-set bitmasks with shared-prefix storage.

    >>> trie = LabelSetTrie()
    >>> trie.insert(0b011)
    True
    >>> trie.insert(0b100)
    True
    >>> trie.contains_subset_of(0b111)
    True
    >>> trie.contains_subset_of(0b001)
    False
    """

    def __init__(self, masks: Iterator[int] | None = None):
        self._root = _Node()
        self._size = 0
        if masks is not None:
            for mask in masks:
                self.insert(mask)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, mask: int) -> bool:
        node = self._root
        for label in labels_from_mask(mask):
            node = node.children.get(label)
            if node is None:
                return False
        return node.terminal

    def insert(self, mask: int) -> bool:
        """Add ``mask``; returns True if it was not present before."""
        node = self._root
        for label in labels_from_mask(mask):
            child = node.children.get(label)
            if child is None:
                child = _Node()
                node.children[label] = child
            node = child
        if node.terminal:
            return False
        node.terminal = True
        self._size += 1
        return True

    def contains_subset_of(self, constraint_mask: int) -> bool:
        """True iff some stored set ``S`` satisfies ``S ⊆ constraint_mask``.

        The DFS may only follow child labels present in the constraint and
        prunes whole subtrees otherwise; with sorted insertion order this is
        the standard subset-retrieval walk.
        """
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.terminal:
                return True
            for label, child in node.children.items():
                if constraint_mask & label_bit(label):
                    stack.append(child)
        return False

    def subsets_of(self, constraint_mask: int) -> list[int]:
        """All stored masks that are subsets of ``constraint_mask``."""
        results: list[int] = []
        stack: list[tuple[_Node, int]] = [(self._root, 0)]
        while stack:
            node, prefix = stack.pop()
            if node.terminal:
                results.append(prefix)
            for label, child in node.children.items():
                if constraint_mask & label_bit(label):
                    stack.append((child, prefix | label_bit(label)))
        return results

    def supersets_of(self, query_mask: int) -> list[int]:
        """All stored masks that are supersets of ``query_mask``.

        Used by tests for redundancy analysis; a superset walk must take
        every branch but only "consumes" required labels when it passes
        them (stored sequences are sorted, so a required label smaller than
        the branch label can no longer appear and the branch is pruned).
        """
        required = labels_from_mask(query_mask)
        results: list[int] = []
        stack: list[tuple[_Node, int, int]] = [(self._root, 0, 0)]
        while stack:
            node, prefix, need_idx = stack.pop()
            if need_idx == len(required) and node.terminal:
                results.append(prefix)
            for label, child in node.children.items():
                next_need = need_idx
                if need_idx < len(required):
                    if label > required[need_idx]:
                        continue  # sorted order: the required label was skipped
                    if label == required[need_idx]:
                        next_need += 1
                stack.append((child, prefix | label_bit(label), next_need))
        return results

    def iter_masks(self) -> Iterator[int]:
        """Yield every stored mask (in no particular order)."""
        stack: list[tuple[_Node, int]] = [(self._root, 0)]
        while stack:
            node, prefix = stack.pop()
            if node.terminal:
                yield prefix
            for label, child in node.children.items():
                stack.append((child, prefix | label_bit(label)))

    def node_count(self) -> int:
        """Number of trie nodes (storage-cost proxy for the ablation bench)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count


def distance_groups(
    dists: Iterable[float], masks: Iterable[int]
) -> list[tuple[float, LabelSetTrie]]:
    """Group one pair's (distance, mask)-sorted entries by distance.

    Each distinct distance gets one trie holding its label sets — the
    Section 3.1 layout, built from a PowCov table pair
    (``table.pair(i, u)``) for the storage ablation.
    """
    groups: list[tuple[float, LabelSetTrie]] = []
    for dist, mask in zip(dists, masks):
        if not groups or groups[-1][0] != dist:
            groups.append((dist, LabelSetTrie()))
        groups[-1][1].insert(int(mask))
    return groups


def first_subset_distance(
    groups: list[tuple[float, LabelSetTrie]], constraint_mask: int
) -> float:
    """Theorem 1 over a grouped pair: the first group holding a subset."""
    for dist, trie in groups:
        if trie.contains_subset_of(constraint_mask):
            return float(dist)
    return float("inf")
