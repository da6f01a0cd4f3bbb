"""The PowCov table: one landmark-major CSR over (landmark, vertex) pairs.

Theorem 1 needs one thing per landmark-vertex pair: the SP-minimal label
sets with their distances, in (distance, mask) order, so that the first
stored subset of a constraint ``C`` carries ``d_C``.  :class:`PowCovTable`
keeps exactly that and nothing else, as three parallel columns:

* ``offsets`` — int64 of length ``k * n + 1``; pair ``i * n + u`` (landmark
  index ``i``, vertex ``u``) owns ``[offsets[i*n+u], offsets[i*n+u+1])``;
* ``dist`` — int32 (float64 for weighted PowCov), (distance, mask)-sorted
  within each pair;
* ``mask`` — int64 label-set bitmasks, parallel to ``dist``.

The same table serves the scalar query, the batch executor, the auditor,
incremental repair and both persistence formats.  Theorem 1 lookups
(:meth:`PowCovTable.lookup_many`) are one call of the
:mod:`repro.kernels` ``powcov_lookup`` kernel, which walks each pair's
run and stops at its first stored subset.  The columns may be plain
arrays or read-only ``np.memmap`` sections of a store file; neither this
module nor the kernels ever copy or write a column.  Landmark ``i``'s
entries are the contiguous block ``offsets[i*n] : offsets[(i+1)*n]``, so
a build concatenates per-landmark blocks in landmark order and a repair
swaps whole blocks into fresh arrays (:meth:`PowCovTable.replace_blocks`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import chain
from typing import NamedTuple

import numpy as np

from ...kernels import KernelBackend, resolve_kernel
from .spminimal import LandmarkSPMinimal

__all__ = ["PowCovTable", "TableBlock", "block_from_result"]


class TableBlock(NamedTuple):
    """One landmark's slice of a table: per-vertex entry counts + columns."""

    counts: np.ndarray
    dist: np.ndarray
    mask: np.ndarray


def block_from_result(
    result: LandmarkSPMinimal, num_vertices: int, dist_dtype: type
) -> TableBlock:
    """Lay one builder output out as a table block (vertex-ascending)."""
    entries = result.entries
    vertices = sorted(entries)
    counts = np.zeros(num_vertices, dtype=np.int64)
    counts[vertices] = [len(entries[u]) for u in vertices]
    total = int(counts.sum())
    # Label masks stay far below 2**53, so one float64 pass carries both
    # columns exactly.
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(entries[u] for u in vertices)),
        dtype=np.float64, count=2 * total,
    ).reshape(-1, 2)
    return TableBlock(
        counts, flat[:, 0].astype(dist_dtype), flat[:, 1].astype(np.int64)
    )


def _offsets_from_counts(counts: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


class PowCovTable:
    """One direction's SP-minimal entries as a pair-indexed CSR."""

    __slots__ = ("offsets", "dist", "mask", "num_landmarks", "num_vertices")

    def __init__(
        self,
        offsets: np.ndarray,
        dist: np.ndarray,
        mask: np.ndarray,
        num_landmarks: int,
        num_vertices: int,
    ) -> None:
        if len(offsets) != num_landmarks * num_vertices + 1:
            raise ValueError("offsets must have num_landmarks * num_vertices + 1 slots")
        if len(dist) != len(mask) or int(offsets[-1]) != len(dist):
            raise ValueError("dist/mask must be parallel and end at offsets[-1]")
        self.offsets = offsets
        self.dist = dist
        self.mask = mask
        self.num_landmarks = num_landmarks
        self.num_vertices = num_vertices

    @classmethod
    def from_blocks(
        cls, blocks: Sequence[TableBlock], num_vertices: int, dist_dtype: type
    ) -> "PowCovTable":
        """Concatenate per-landmark blocks in landmark order."""
        if not blocks:
            return cls(
                np.zeros(1, dtype=np.int64), np.empty(0, dtype=dist_dtype),
                np.empty(0, dtype=np.int64), 0, num_vertices,
            )
        return cls(
            _offsets_from_counts(np.concatenate([b.counts for b in blocks])),
            np.concatenate([b.dist for b in blocks]).astype(dist_dtype, copy=False),
            np.concatenate([b.mask for b in blocks]),
            len(blocks),
            num_vertices,
        )

    @classmethod
    def from_coo(
        cls,
        landmark_idx: np.ndarray,
        vertex: np.ndarray,
        distance: np.ndarray,
        mask: np.ndarray,
        num_landmarks: int,
        num_vertices: int,
    ) -> "PowCovTable":
        """Build from unordered per-entry columns (the ``.npz`` layout).

        Integral distances come back as int32, anything else as float64.
        """
        pair = np.asarray(landmark_idx, dtype=np.int64) * num_vertices
        pair += np.asarray(vertex, dtype=np.int64)
        distance = np.asarray(distance)
        mask = np.asarray(mask, dtype=np.int64)
        order = np.lexsort((mask, distance, pair))
        dist = distance[order]
        if np.all(dist == np.floor(dist)):
            dist = dist.astype(np.int32)
        counts = np.bincount(pair, minlength=num_landmarks * num_vertices)
        return cls(
            _offsets_from_counts(counts), dist, mask[order],
            num_landmarks, num_vertices,
        )

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(landmark_idx int32, vertex int64, distance float64, mask int64)``."""
        pairs = np.repeat(
            np.arange(self.num_landmarks * self.num_vertices, dtype=np.int64),
            self.pair_counts(),
        )
        landmark_idx, vertex = np.divmod(pairs, self.num_vertices)
        return (
            landmark_idx.astype(np.int32), vertex,
            np.asarray(self.dist, dtype=np.float64),
            np.asarray(self.mask, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Shape and blocks
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.dist)

    def pair_counts(self) -> np.ndarray:
        """Entries per ``(landmark, vertex)`` pair, pair-indexed."""
        return np.diff(np.asarray(self.offsets))

    def _block_offsets(self, landmark_index: int) -> np.ndarray:
        """The ``n + 1`` offsets bounding landmark ``landmark_index``'s pairs."""
        n = self.num_vertices
        return self.offsets[landmark_index * n:(landmark_index + 1) * n + 1]

    def block(self, landmark_index: int) -> TableBlock:
        """Landmark ``landmark_index``'s counts and columns (views)."""
        bounds = self._block_offsets(landmark_index)
        lo, hi = int(bounds[0]), int(bounds[-1])
        return TableBlock(np.diff(bounds), self.dist[lo:hi], self.mask[lo:hi])

    def pair(self, landmark_index: int, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """One pair's ``(dist, mask)`` columns, (distance, mask)-sorted."""
        bounds = self._block_offsets(landmark_index)
        lo, hi = int(bounds[vertex]), int(bounds[vertex + 1])
        return self.dist[lo:hi], self.mask[lo:hi]

    def replace_blocks(self, blocks: Mapping[int, TableBlock]) -> "PowCovTable":
        """A new table with the given landmarks' blocks swapped in.

        Untouched blocks are copied across verbatim; the receiver is never
        written to, so its columns may be read-only maps.
        """
        parts = [
            blocks[i] if i in blocks else self.block(i)
            for i in range(self.num_landmarks)
        ]
        return PowCovTable.from_blocks(parts, self.num_vertices, self.dist.dtype.type)

    def equals(self, other: "PowCovTable") -> bool:
        """Column-wise equality (shape, offsets, distances and masks)."""
        return (
            (self.num_landmarks, self.num_vertices)
            == (other.num_landmarks, other.num_vertices)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.dist, other.dist)
            and np.array_equal(self.mask, other.mask)
        )

    # ------------------------------------------------------------------
    # Theorem 1 lookups
    # ------------------------------------------------------------------
    def lookup_many(
        self,
        vertices: np.ndarray,
        masks: "np.ndarray | int",
        kernel: "str | KernelBackend | None" = None,
    ) -> np.ndarray:
        """Exact ``d_C(x, u)`` for every vertex × every landmark in one call.

        ``masks`` holds one constraint mask per vertex (a plain int applies
        to all of them).  Returns a ``(len(vertices), k)`` float64 matrix
        with ``inf`` where no stored label set is a subset of the row's
        mask (Theorem 1: the minimum stored distance over subset entries).
        ``kernel`` picks the :mod:`repro.kernels` backend; every backend
        returns the same bits, the compiled ones by stopping at each
        pair's first stored subset.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        masks = np.asarray(masks, dtype=np.int64)
        if masks.ndim == 0:
            masks = np.full(vertices.shape, masks)
        return resolve_kernel(kernel).powcov_lookup(
            self.offsets, self.dist, self.mask,
            self.num_landmarks, self.num_vertices, vertices, masks,
        )
