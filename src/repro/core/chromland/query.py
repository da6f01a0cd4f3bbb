"""ChromLand query strategies: Proposition 2 and Theorem 5, per batch.

Both strategies compute sound *upper bounds* on ``d_C(s, t)`` and both
run over a whole batch of queries, each under its own constraint set:

* :func:`landmark_legs` gathers every query's landmark legs once: a
  landmark is usable for a query when its color is in the query's label
  set, and unreachable or unusable legs become ``inf``;
* :func:`simple_triangle_distances` — Proposition 2: the best
  single-landmark triangle bound ``min { cd(x,s) + cd(x,t) : c(x) ∈ C }``,
  a row minimum in ``O(k)`` per query;
* Theorem 5 — the shortest path between ``s`` and ``t`` on the auxiliary
  graph ``G_X[s, t, C]`` whose nodes are the usable landmarks plus the two
  query endpoints, with mono-chromatic landmark-vertex edges and
  bi-chromatic landmark-landmark edges (:func:`auxiliary_weights`).
  Theorem 5 proves this is the *tightest* sound bound derivable from the
  stored distances.  The ``O(k^2)`` dense Dijkstra runs on the selected
  :mod:`repro.kernels` backend (``aux_dijkstra``), one call per batch.

:func:`simple_triangle_distance` and :func:`auxiliary_graph_distance` are
the single-query forms the scalar ``ChromLandIndex.query`` uses: a batch
of one through the same code.

Auxiliary graphs have at most ``k + 2`` nodes, where ``k ≤ a few
hundred``, so the ``O(V^2)`` Dijkstra beats heap-based implementations.
"""

from __future__ import annotations

import numpy as np

from ...graph.traversal import UNREACHABLE
from ...kernels import KernelBackend, resolve_kernel

__all__ = [
    "auxiliary_weights",
    "landmark_legs",
    "simple_triangle_distances",
    "simple_triangle_distance",
    "auxiliary_graph_distance",
]

_INF = np.float64(np.inf)


def auxiliary_weights(bi: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """The ``(k, k)`` landmark-landmark edge weights of ``G_X``.

    ``x — y`` weighs ``cd(x, y)`` (bi-chromatic) when ``c(x) ≠ c(y)``;
    unreachable pairs and same-color pairs get ``inf``.  Same-color edges
    do not exist in ``G_X``: their composition is already dominated by
    the single-landmark bound through either one.  On directed graphs
    ``bi[i, j]`` is the ``x_i → x_j`` distance, so only directed edges
    are relaxed.  Queries restrict this matrix to their usable landmarks.
    """
    weights = bi.astype(np.float64)
    weights[bi == UNREACHABLE] = _INF
    weights[colors[:, None] == colors[None, :]] = _INF
    return weights


def landmark_legs(
    mono: np.ndarray,
    usable: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    mono_source: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(g, k)`` source and target legs, ``inf`` where unreachable or unusable.

    ``mono`` is the ``(k, n)`` mono-chromatic table with ``-1`` for
    unreachable; ``usable`` is the ``(g, k)`` per-query landmark filter.
    For directed graphs ``mono_source`` carries the vertex→landmark
    distances (reversed-graph table); when ``None`` the graph is
    undirected and ``mono`` serves both sides.
    """
    source_table = mono if mono_source is None else mono_source
    ds = source_table.T[sources].astype(np.float64)
    dt = mono.T[targets].astype(np.float64)
    ds[(ds == UNREACHABLE) | ~usable] = _INF
    dt[(dt == UNREACHABLE) | ~usable] = _INF
    return ds, dt


def simple_triangle_distances(ds: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Proposition 2: each row's best single-landmark bound (``inf`` if none)."""
    best: np.ndarray = (ds + dt).min(axis=1, initial=_INF)
    return best


def _single_query(
    mono: np.ndarray,
    usable: np.ndarray,
    source: int,
    target: int,
    mono_source: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``usable`` (landmark indices or a bool row) and legs as a batch of one."""
    row = np.zeros((1, len(mono)), dtype=bool)
    row[0, np.asarray(usable)] = True
    ds, dt = landmark_legs(
        mono, row, np.array([source]), np.array([target]), mono_source
    )
    return row, ds, dt


def simple_triangle_distance(
    mono: np.ndarray,
    usable: np.ndarray,
    source: int,
    target: int,
    mono_source: np.ndarray | None = None,
) -> float:
    """Proposition 2 for one query.

    ``usable`` holds the indices of the landmarks whose color is in the
    query's label set (or the equivalent bool row); ``mono_source`` is
    the directed vertex→landmark table, as in :func:`landmark_legs`.
    """
    _row, ds, dt = _single_query(mono, usable, source, target, mono_source)
    return float(simple_triangle_distances(ds, dt)[0])


def auxiliary_graph_distance(
    mono: np.ndarray,
    bi: np.ndarray,
    colors: np.ndarray,
    usable: np.ndarray,
    source: int,
    target: int,
    mono_source: np.ndarray | None = None,
    kernel: "str | KernelBackend | None" = None,
) -> float:
    """Theorem 5 for one query: shortest s-t path on ``G_X[s, t, C]``.

    ``usable`` and ``mono_source`` are as in
    :func:`simple_triangle_distance`.  ``kernel`` selects the
    :mod:`repro.kernels` backend (``None`` = the process default); every
    backend answers bit-identically.
    """
    row, ds, dt = _single_query(mono, usable, source, target, mono_source)
    weights = auxiliary_weights(bi, colors)
    return float(resolve_kernel(kernel).aux_dijkstra(weights, row, ds, dt)[0])
