"""Batch planning: turn a query batch into three columns.

Executors answer a whole batch at once, each query under its own
constraint mask, so the only planning left is normalizing the submitted
form (``Query`` objects, ``(s, t, mask)`` triples or an ``(n, 3)``
array) into the :class:`QueryBatch` columns every executor reads.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Protocol

import numpy as np

__all__ = [
    "QueryBatch",
    "QueryLike",
    "plan_batch",
    "as_triple",
    "to_triple_array",
]


class QueryLike(Protocol):
    """Anything with query fields: ``Query``, ``LabeledQuery``, ..."""

    source: int
    target: int
    label_mask: int


def as_triple(query: QueryLike | tuple[int, ...]) -> tuple[int, int, int]:
    """Normalize a ``Query`` / ``LabeledQuery`` / plain triple to a tuple."""
    if isinstance(query, tuple):
        source, target, mask = query[0], query[1], query[2]
    else:
        source, target, mask = query.source, query.target, query.label_mask
    return int(source), int(target), int(mask)


def to_triple_array(queries: Sequence[Any] | np.ndarray) -> np.ndarray:
    """Normalize a batch to an ``(n, 3)`` int64 array of (s, t, mask) rows.

    Plain tuple/list batches convert in one C-level pass; batches of
    ``Query`` / ``LabeledQuery`` objects fall back to per-item attribute
    access.
    """
    if isinstance(queries, np.ndarray):
        if queries.ndim == 2 and queries.shape[1] >= 3:
            return np.ascontiguousarray(queries[:, :3], dtype=np.int64)
        raise ValueError("query array must have shape (n, >=3)")
    queries = list(queries)
    if not queries:
        return np.empty((0, 3), dtype=np.int64)
    if isinstance(queries[0], tuple):
        return np.asarray(queries, dtype=np.int64)[:, :3]
    return np.asarray([as_triple(q) for q in queries], dtype=np.int64)


@dataclass(frozen=True)
class QueryBatch:
    """A batch as parallel int64 columns, in submission order."""

    sources: np.ndarray
    targets: np.ndarray
    masks: np.ndarray

    def __len__(self) -> int:
        return len(self.sources)

    def select(self, rows: np.ndarray) -> "QueryBatch":
        """The sub-batch of ``rows`` (a bool mask or positions)."""
        return QueryBatch(self.sources[rows], self.targets[rows], self.masks[rows])


def plan_batch(queries: Sequence[Any] | np.ndarray) -> QueryBatch:
    """Columns of ``queries`` (Query objects, triples, or an (n, 3) array)."""
    arr = to_triple_array(queries)
    return QueryBatch(arr[:, 0], arr[:, 1], arr[:, 2])
