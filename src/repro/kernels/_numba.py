"""Numba kernel backend: ``@njit(cache=True, nogil=True)`` hot loops.

Importing this module requires the optional ``[native]`` extra
(``pip install .[native]``); the import only ever happens through the
:func:`repro.kernels.resolve_kernel` registry probe, which memoizes a
failure and falls back to numpy with a single structured warning.

The kernels are explicit-loop mirrors of the C backend (and therefore of
the numpy reference): exact integer BFS levels, integer Theorem 2
min/compare, a PowCov lookup stopping at the first stored subset of a
distance-sorted run, and a Dijkstra replaying numpy's IEEE operation
order — first-minimum selection, the same ``di + w`` addition order, the
same early-exit predicate — so all backends are bit-identical by
construction.  ``cache=True`` persists the compiled machine code across
processes (JIT warm-up is paid once per machine, not once per run);
``nogil=True`` lets thread-parallel builds overlap inside the kernels.
"""

from __future__ import annotations

import numpy as np
from numba import njit  # noqa: F401 - optional dependency, probe-gated

from . import _check_aux_shapes, _check_lookup_args

__all__ = ["NumbaKernel"]


@njit(cache=True, nogil=True)
def _msbfs_bitset(
    in_indptr: np.ndarray,
    in_neighbors: np.ndarray,
    in_labels: np.ndarray,
    n: int,
    sources: np.ndarray,
    allowed: np.ndarray,
    dist: np.ndarray,
    max_level: int,
) -> None:  # pragma: no cover - exercised only when numba is installed
    num_rows = sources.shape[0]
    if n == 0 or num_rows == 0:
        return
    if in_indptr[n] == 0:
        return  # no arcs: sources stay level 0
    num_labels = allowed.shape[1]
    one = np.uint64(1)
    zero = np.uint64(0)
    frontier = np.zeros(n, dtype=np.uint64)
    nxt = np.zeros(n, dtype=np.uint64)
    visited = np.zeros(n, dtype=np.uint64)
    label_bits = np.zeros(num_labels, dtype=np.uint64)
    for lo in range(0, num_rows, 64):
        chunk = min(64, num_rows - lo)
        for lab in range(num_labels):
            bits = zero
            for b in range(chunk):
                if allowed[lo + b, lab]:
                    bits |= one << np.uint64(b)
            label_bits[lab] = bits
        for v in range(n):
            frontier[v] = zero
        for b in range(chunk):
            frontier[sources[lo + b]] |= one << np.uint64(b)
        for v in range(n):
            visited[v] = frontier[v]
        level = 0
        while True:
            level += 1
            if max_level >= 0 and level > max_level:
                break
            any_new = False
            for v in range(n):
                acc = zero
                for a in range(in_indptr[v], in_indptr[v + 1]):
                    acc |= frontier[in_neighbors[a]] & label_bits[in_labels[a]]
                fresh = acc & ~visited[v]
                nxt[v] = fresh  # every v assigned: no clear needed
                if fresh != zero:
                    any_new = True
                    visited[v] |= fresh
                    bits = fresh
                    b = 0
                    while bits != zero:
                        if bits & one != zero:
                            dist[lo + b, v] = level
                        bits >>= one
                        b += 1
            if not any_new:
                break
            tmp = frontier
            frontier = nxt
            nxt = tmp


@njit(cache=True, nogil=True)
def _msbfs_sparse(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    labels: np.ndarray,
    n: int,
    sources: np.ndarray,
    allowed: np.ndarray,
    dist: np.ndarray,
    max_level: int,
) -> None:  # pragma: no cover - exercised only when numba is installed
    num_rows = sources.shape[0]
    if n == 0 or num_rows == 0:
        return
    queue = np.empty(n, dtype=np.int32)
    for r in range(num_rows):
        head = 0
        tail = 0
        queue[tail] = np.int32(sources[r])
        tail += 1
        # Rows expand independently; a dead frontier simply drains its
        # queue — the compiled analogue of active-row compaction.
        while head < tail:
            u = queue[head]
            head += 1
            d = dist[r, u]
            if max_level >= 0 and d >= max_level:
                continue
            for a in range(indptr[u], indptr[u + 1]):
                if not allowed[r, labels[a]]:
                    continue
                v = neighbors[a]
                if dist[r, v] == -1:  # UNREACHABLE
                    dist[r, v] = d + 1
                    queue[tail] = v
                    tail += 1


@njit(cache=True, nogil=True)
def _one_removed(
    dist: np.ndarray,
    prev_rows: np.ndarray,
    sub_rows: np.ndarray,
    out: np.ndarray,
) -> None:  # pragma: no cover - exercised only when numba is installed
    wave_rows = dist.shape[0]
    n = dist.shape[1]
    size = sub_rows.shape[1]
    best = np.empty(n, dtype=np.int32)
    for i in range(wave_rows):
        first = sub_rows[i, 0]
        for v in range(n):
            best[v] = prev_rows[first, v]
        for j in range(1, size):
            row = sub_rows[i, j]
            for v in range(n):
                if prev_rows[row, v] < best[v]:
                    best[v] = prev_rows[row, v]
        for v in range(n):
            out[i, v] = dist[i, v] < best[v]


@njit(cache=True, nogil=True)
def _powcov_lookup(
    offsets: np.ndarray,
    dist: np.ndarray,
    mask: np.ndarray,
    k: int,
    n: int,
    vertices: np.ndarray,
    masks: np.ndarray,
    out: np.ndarray,
) -> None:  # pragma: no cover - exercised only when numba is installed
    for r in range(vertices.shape[0]):
        u = vertices[r]
        want = masks[r]
        for i in range(k):
            cell = i * n + u
            found = np.inf
            for e in range(offsets[cell], offsets[cell + 1]):
                if mask[e] & want == mask[e]:
                    found = np.float64(dist[e])
                    break  # distance-sorted: the first hit is the minimum
            out[r, i] = found


@njit(cache=True, nogil=True)
def _aux_dijkstra(
    weights: np.ndarray,
    usable: np.ndarray,
    ds: np.ndarray,
    dt: np.ndarray,
    out: np.ndarray,
) -> None:  # pragma: no cover - exercised only when numba is installed
    g, k = ds.shape
    dist = np.empty(k, dtype=np.float64)
    settled = np.empty(k, dtype=np.bool_)
    for r in range(g):
        best = np.inf
        for j in range(k):
            if usable[r, j]:
                value = ds[r, j] + dt[r, j]
                if value < best:
                    best = value
            dist[j] = ds[r, j] if usable[r, j] else np.inf
            settled[j] = not usable[r, j]
        for _ in range(k):
            i = -1
            di = np.inf
            for j in range(k):
                if not settled[j] and dist[j] < di:
                    di = dist[j]
                    i = j
            if i < 0 or not np.isfinite(di) or di >= best:
                break  # every remaining completion is at least `best`
            settled[i] = True
            for j in range(k):
                nd = di + weights[i, j]
                if nd < dist[j]:
                    dist[j] = nd
            completion = di + dt[r, i]
            if completion < best:
                best = completion
        out[r] = best


class NumbaKernel:
    """JIT-compiled implementations of the four hot loops."""

    name = "numba"

    def msbfs_bitset(
        self,
        in_indptr: np.ndarray,
        in_neighbors: np.ndarray,
        in_labels: np.ndarray,
        num_vertices: int,
        sources: np.ndarray,
        allowed: np.ndarray,
        dist: np.ndarray,
        max_level: int,
    ) -> None:
        _msbfs_bitset(
            np.ascontiguousarray(in_indptr, dtype=np.int64),
            np.ascontiguousarray(in_neighbors, dtype=np.int32),
            np.ascontiguousarray(in_labels, dtype=np.int16),
            int(num_vertices),
            np.ascontiguousarray(sources, dtype=np.int64),
            np.ascontiguousarray(allowed),
            dist,
            int(max_level),
        )

    def msbfs_sparse(
        self,
        indptr: np.ndarray,
        neighbors: np.ndarray,
        edge_labels: np.ndarray,
        num_vertices: int,
        sources: np.ndarray,
        allowed: np.ndarray,
        dist: np.ndarray,
        max_level: int,
    ) -> bool:
        _msbfs_sparse(
            np.ascontiguousarray(indptr, dtype=np.int64),
            np.ascontiguousarray(neighbors, dtype=np.int32),
            np.ascontiguousarray(edge_labels, dtype=np.int16),
            int(num_vertices),
            np.ascontiguousarray(sources, dtype=np.int64),
            np.ascontiguousarray(allowed),
            dist,
            int(max_level),
        )
        return True

    def one_removed_pass(
        self, dist: np.ndarray, prev_rows: np.ndarray, sub_rows: np.ndarray
    ) -> np.ndarray:
        out = np.empty(dist.shape, dtype=np.bool_)
        _one_removed(
            np.ascontiguousarray(dist, dtype=np.int32),
            np.ascontiguousarray(prev_rows, dtype=np.int32),
            np.ascontiguousarray(sub_rows, dtype=np.int64),
            out,
        )
        return out

    def powcov_lookup(
        self,
        offsets: np.ndarray,
        dist: np.ndarray,
        mask: np.ndarray,
        k: int,
        n: int,
        vertices: np.ndarray,
        masks: np.ndarray,
    ) -> np.ndarray:
        # Columns are read in place: a C-contiguous column of the right
        # dtype, memmap or not, passes through uncopied.
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        mask = np.ascontiguousarray(mask, dtype=np.int64)
        dist = np.ascontiguousarray(
            dist, dtype=np.int32 if dist.dtype == np.int32 else np.float64
        )
        vertices = np.ascontiguousarray(vertices, dtype=np.int64)
        masks = np.ascontiguousarray(masks, dtype=np.int64)
        _check_lookup_args(offsets, dist, mask, k, n, vertices, masks)
        out = np.empty((len(vertices), k), dtype=np.float64)
        _powcov_lookup(
            offsets, dist, mask, int(k), int(n), vertices, masks, out
        )
        return out

    def aux_dijkstra(
        self,
        weights: np.ndarray,
        usable: np.ndarray,
        ds: np.ndarray,
        dt: np.ndarray,
    ) -> np.ndarray:
        _check_aux_shapes(weights, usable, ds, dt)
        out = np.empty(ds.shape[0], dtype=np.float64)
        _aux_dijkstra(
            np.ascontiguousarray(weights, dtype=np.float64),
            np.ascontiguousarray(usable, dtype=np.bool_),
            np.ascontiguousarray(ds, dtype=np.float64),
            np.ascontiguousarray(dt, dtype=np.float64),
            out,
        )
        return out
