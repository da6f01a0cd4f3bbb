"""The pure-numpy kernel backend — always available, bit-identity reference.

These are the loop bodies that previously lived inline in
``repro.perf.batched`` (bit-parallel MS-BFS), ``repro.core.powcov.waves``
(Theorem 2 one-removed sweep), ``repro.core.powcov.table`` (the Theorem 1
pair-CSR lookup) and ``repro.core.chromland.query`` (dense auxiliary
Dijkstra, now run over a whole batch of queries per call), moved behind
the :class:`~repro.kernels.KernelBackend` protocol.  The compiled
backends are checked against this one bit-for-bit, so any change here is
a semantic change for all three.
"""

from __future__ import annotations

import numpy as np

from . import _check_lookup_args

__all__ = ["NumpyKernel"]

_INF = np.float64(np.inf)


class NumpyKernel:
    """Vectorized numpy implementations of the four hot loops."""

    name = "numpy"

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
        """Bit-parallel multi-source constrained BFS (MS-BFS style).

        Rows are packed 64 to a ``uint64`` lane: ``frontier[v]`` holds one
        bit per row whose BFS front currently contains ``v``, and a level
        expands *every* row of a chunk with one full-arc sweep — gather
        the frontier word of each arc's source, AND it with the arc
        label's row mask, and OR-reduce per target vertex
        (``np.bitwise_or.reduceat`` over the in-arc CSR).  Per-level cost
        is therefore independent of how many rows the chunk holds, which
        is what makes wide PowCov waves cheap.  Writes levels into
        ``dist`` in place (rows already seeded with 0 at their sources).
        """
        n = num_vertices
        num_arcs = len(in_neighbors)
        if num_arcs == 0:
            return
        seg_starts = in_indptr[:-1]
        # Reduce over non-empty segments only, then scatter.  Empty
        # segments have zero width, so consecutive non-empty starts are
        # exact segment boundaries — and no reduceat index can go out of
        # range or (the subtle failure) truncate the preceding vertex's
        # arc range the way a clamped trailing start would.
        nonempty_idx = np.nonzero(in_indptr[1:] != seg_starts)[0]
        nonempty_starts = seg_starts[nonempty_idx]
        for lo in range(0, len(sources), 64):
            chunk_rows = min(64, len(sources) - lo)
            row_bits = np.uint64(1) << np.arange(chunk_rows, dtype=np.uint64)
            # ``label_bits[l]``: rows of this chunk whose mask allows ``l``.
            label_bits = (allowed[lo : lo + chunk_rows].astype(np.uint64)
                          * row_bits[:, None]).sum(axis=0)
            frontier = np.zeros(n, dtype=np.uint64)
            np.bitwise_or.at(frontier, sources[lo : lo + chunk_rows], row_bits)
            visited = frontier.copy()
            level = 0
            while True:
                level += 1
                if max_level >= 0 and level > max_level:
                    break
                contrib = frontier[in_neighbors] & label_bits[in_labels]
                reached = np.zeros(n, dtype=np.uint64)
                reached[nonempty_idx] = np.bitwise_or.reduceat(
                    contrib, nonempty_starts
                )
                new = reached & ~visited
                hit = np.nonzero(new)[0]
                if hit.size == 0:
                    break
                visited |= new
                cols = (new[hit][:, None]
                        >> np.arange(chunk_rows, dtype=np.uint64)) & np.uint64(1)
                vv, rr = np.nonzero(cols)
                dist[lo + rr, hit[vv]] = level
                frontier = new

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
        """Decline: the caller's vectorized frontier expansion IS the
        numpy sparse path (label-grouped CSR gathers + active-row
        compaction), and it needs caller-side state this protocol does not
        carry.  Returning ``False`` routes the batch there unchanged."""
        return False

    def one_removed_pass(
        self, dist: np.ndarray, prev_rows: np.ndarray, sub_rows: np.ndarray
    ) -> np.ndarray:
        """Gather each mask's one-removed rows and minimum-reduce them."""
        best = prev_rows[sub_rows[:, 0]]
        for j in range(1, sub_rows.shape[1]):
            np.minimum(best, prev_rows[sub_rows[:, j]], out=best)
        return dist < best

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
        """Gather every cell's entries in one pass and minimum-reduce them.

        Each entry is tested against its own row's mask, non-subsets are
        masked to ``inf``, and each non-empty cell takes its
        ``minimum.reduceat``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        masks = np.asarray(masks, dtype=np.int64)
        _check_lookup_args(offsets, dist, mask, k, n, vertices, masks)
        cells = (vertices[:, None] + np.arange(k, dtype=np.int64) * n).ravel()
        lo = offsets[cells]
        counts = offsets[cells + 1] - lo
        ends = counts.cumsum()
        idx = np.repeat(lo - ends + counts, counts)
        idx += np.arange(len(idx))
        stored = mask[idx]
        wanted = np.repeat(np.repeat(masks, k), counts)
        values = np.where(stored & wanted == stored, dist[idx], _INF)
        out = np.full(len(cells), _INF)
        filled = counts.nonzero()[0]
        if len(filled):
            out[filled] = np.minimum.reduceat(values, (ends - counts)[filled])
        return out.reshape(len(vertices), k)

    def aux_dijkstra(
        self,
        weights: np.ndarray,
        usable: np.ndarray,
        ds: np.ndarray,
        dt: np.ndarray,
    ) -> np.ndarray:
        """O(k^2) dense Dijkstra per row, all rows in lock-step.

        Per row: start from the best single-landmark completion over the
        usable landmarks, initialize their tentative distances with the
        s—x edges, repeatedly settle the nearest one (first minimum in
        index order), relax through its bi-chromatic row, and keep the
        running best completion through the t—x edges.  Unusable
        landmarks start settled, so they are never selected.  A row stops
        at its first settle candidate that is unreachable or no better
        than its best; the rows still going share each numpy pass.
        """
        g, k = ds.shape
        best = np.where(usable, ds + dt, _INF).min(axis=1, initial=_INF)
        dist = np.where(usable, ds, _INF)
        settled = ~usable
        active = np.arange(g)
        for _ in range(k):
            masked = np.where(settled[active], _INF, dist[active])
            i = masked.argmin(axis=1)
            di = masked[np.arange(len(active)), i]
            going = di < best[active]  # false for unreachable (inf) too
            active, i, di = active[going], i[going], di[going]
            if len(active) == 0:
                break
            settled[active, i] = True
            dist[active] = np.minimum(dist[active], di[:, None] + weights[i])
            best[active] = np.minimum(best[active], di + dt[active, i])
        return best
