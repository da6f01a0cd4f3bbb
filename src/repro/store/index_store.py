"""Reading and writing graphs/indexes in the mmap-able store format.

The writers canonicalize an in-memory object into the section layout of
:mod:`repro.store.format`; the readers hand the mapped sections straight to
the serving structures:

* ``kind="graph"`` — the CSR arrays in their native dtypes (``indptr``
  int64, ``neighbors`` int32, ``edge_labels`` int16), so
  :class:`~repro.graph.labeled_graph.EdgeLabeledGraph` adopts the memmap
  views without copying.
* ``kind="powcov"`` — each direction's
  :class:`~repro.core.powcov.table.PowCovTable` columns verbatim
  (``fwd_offsets`` / ``fwd_dist`` / ``fwd_mask``, plus ``rev_*`` for
  directed indexes).  :func:`open_index` returns a plain
  :class:`PowCovIndex` whose table columns are the mapped sections, so a
  store-opened index queries, repairs and re-saves like a built one.
* ``kind="chromland"`` — the ``mono`` / ``bi`` (and directed ``mono_in``)
  matrices verbatim; a regular :class:`ChromLandIndex` serves directly off
  the mapped matrices.

``compress=True`` runs the integer sections through
:mod:`repro.store.compress` (delta-varint for the sorted ``*_offsets`` /
``indptr`` sections, plain varint elsewhere); compressed sections decode
eagerly on open, trading the page-fault laziness for file size — the
index-store benchmark reports the measured trade-off.  Float distance sections
(weighted PowCov) always stay raw.

Every file records the owning graph's fingerprint; the readers verify it
against the supplied graph and the loaded index carries it as
``stored_fingerprint`` for the engine session's open-time re-check.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from ..core.chromland import ChromLandIndex
from ..core.powcov import PowCovIndex, PowCovTable
from ..graph.labeled_graph import EdgeLabeledGraph
from ..graph.labelsets import LabelUniverse
from .format import FormatError, Store, write_store

__all__ = [
    "STORE_SUFFIX",
    "save_index",
    "open_index",
    "save_graph",
    "open_graph",
]

#: Conventional file suffix for store files (``save_index`` accepts any).
STORE_SUFFIX = ".repro"


def _codec(compress: bool, sorted_values: bool = False) -> str | None:
    if not compress:
        return None
    return "delta-varint" if sorted_values else "varint"


def _require_meta(store: Store, *names: str) -> list[Any]:
    values = []
    for name in names:
        if name not in store.meta:
            raise FormatError(f"{store.path}: header missing {name!r}")
        values.append(store.meta[name])
    return values


def _check_fingerprint(store: Store, graph: EdgeLabeledGraph) -> int:
    from ..core.serialize import graph_fingerprint  # local: avoids cycle

    (stored,) = _require_meta(store, "fingerprint")
    if int(stored) != int(graph_fingerprint(graph)):
        raise FormatError("index file was built for a different graph")
    return int(stored)


# ----------------------------------------------------------------------
# Indexes
# ----------------------------------------------------------------------
def _powcov_sections(
    index: PowCovIndex, compress: bool
) -> list[tuple[str, np.ndarray, str | None]]:
    sections: list[tuple[str, np.ndarray, str | None]] = []
    for prefix, table in (("fwd", index.forward), ("rev", index.reverse)):
        if table is None:
            continue
        dist_codec = _codec(compress) if table.dist.dtype.kind == "i" else None
        sections += [
            (f"{prefix}_offsets", table.offsets, _codec(compress, sorted_values=True)),
            (f"{prefix}_dist", table.dist, dist_codec),
            (f"{prefix}_mask", table.mask, _codec(compress)),
        ]
    return sections


def _open_table(store: Store, prefix: str, k: int, n: int) -> PowCovTable:
    return PowCovTable(
        store.array(f"{prefix}_offsets"), store.array(f"{prefix}_dist"),
        store.array(f"{prefix}_mask"), k, n,
    )


def save_index(
    index: PowCovIndex | ChromLandIndex,
    path: str | os.PathLike[str],
    compress: bool = False,
) -> None:
    """Write a built index as a store file (see the module docstring)."""
    from ..core.serialize import graph_fingerprint  # local: avoids cycle

    fingerprint = int(graph_fingerprint(index.graph))
    if isinstance(index, PowCovIndex):
        if not index._built:  # noqa: SLF001 - store is a friend module
            raise ValueError("build the index before saving it")
        meta = {
            "fingerprint": fingerprint,
            "builder": index.builder,
            "estimator": index.estimator,
            "directed": index.graph.directed,
            "num_vertices": index.graph.num_vertices,
        }
        sections = [
            ("landmarks", np.asarray(index.landmarks, dtype=np.int64),
             _codec(compress)),
        ]
        sections.extend(_powcov_sections(index, compress))
        write_store(path, "powcov", meta, sections)
        return
    if isinstance(index, ChromLandIndex):
        if index.mono is None:
            raise ValueError("build the index before saving it")
        meta = {
            "fingerprint": fingerprint,
            "query_mode": index.query_mode,
            "directed": index.graph.directed,
        }
        sections = [
            ("landmarks", np.asarray(index.landmarks, dtype=np.int64),
             _codec(compress)),
            ("colors", np.asarray(index.colors, dtype=np.int64),
             _codec(compress)),
            ("mono", index.mono, _codec(compress)),
            ("bi", index.bi, _codec(compress)),
        ]
        if index.mono_in is not None:
            sections.append(("mono_in", index.mono_in, _codec(compress)))
        write_store(path, "chromland", meta, sections)
        return
    raise TypeError(f"cannot save index of type {type(index).__name__}")


def open_index(
    path: str | os.PathLike[str], graph: EdgeLabeledGraph
) -> PowCovIndex | ChromLandIndex:
    """Open a store file for ``graph``: a PowCov or ChromLand index.

    Opening reads the header only; index sections fault in lazily as
    queries touch them (compressed sections decode on first access).
    """
    store = Store(path)
    if store.kind == "powcov":
        stored = _check_fingerprint(store, graph)
        if "fwd_key" in store:
            raise FormatError(
                f"{store.path}: PowCov file in the retired key-sorted layout; "
                "rebuild the index and save it again"
            )
        landmarks = [int(x) for x in store.array("landmarks")]
        n = graph.num_vertices
        k = len(landmarks)
        reverse = _open_table(store, "rev", k, n) if "rev_offsets" in store else None
        (estimator,) = _require_meta(store, "estimator")
        index: PowCovIndex | ChromLandIndex = PowCovIndex.from_tables(
            graph, landmarks, _open_table(store, "fwd", k, n), reverse,
            builder=str(store.meta.get("builder", "wave")),
            estimator=str(estimator),
        )
        index.stored_fingerprint = stored
        return index
    if store.kind == "chromland":
        stored = _check_fingerprint(store, graph)
        (query_mode,) = _require_meta(store, "query_mode")
        index = ChromLandIndex(
            graph,
            [int(x) for x in store.array("landmarks")],
            [int(c) for c in store.array("colors")],
            query_mode=str(query_mode),
        )
        index.mono = store.array("mono")
        index.bi = store.array("bi")
        if "mono_in" in store:
            index.mono_in = store.array("mono_in")
        index._built = True  # noqa: SLF001 - store is a friend module
        index.stored_fingerprint = stored
        return index
    raise FormatError(
        f"{store.path} does not hold an index (kind={store.kind!r})"
    )


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
def save_graph(
    graph: EdgeLabeledGraph,
    path: str | os.PathLike[str],
    compress: bool = False,
) -> None:
    """Write a graph's CSR arrays as a ``kind="graph"`` store file."""
    from ..core.serialize import graph_fingerprint  # local: avoids cycle

    label_names = None
    if graph.label_universe is not None:
        label_names = list(graph.label_universe)
    meta = {
        "fingerprint": int(graph_fingerprint(graph)),
        "num_labels": graph.num_labels,
        "directed": graph.directed,
        "num_edges": graph.num_edges,
        "label_names": label_names,
    }
    sections = [
        ("indptr", graph.indptr, _codec(compress, sorted_values=True)),
        ("neighbors", graph.neighbors, _codec(compress)),
        ("edge_labels", graph.edge_labels, _codec(compress)),
    ]
    write_store(path, "graph", meta, sections)


def open_graph(path: str | os.PathLike[str]) -> EdgeLabeledGraph:
    """Open a graph store file as a zero-copy mapped graph.

    The CSR sections are stored in the exact dtypes the constructor keeps
    (int64/int32/int16), so the returned graph's arrays *are* the memmap
    views — N processes opening the same file share one physical copy.
    """
    store = Store(path)
    if store.kind != "graph":
        raise FormatError(f"{store.path} is not a graph store file")
    num_labels, directed, num_edges, fingerprint = _require_meta(
        store, "num_labels", "directed", "num_edges", "fingerprint"
    )
    names = store.meta.get("label_names")
    graph = EdgeLabeledGraph(
        store.array("indptr"),
        store.array("neighbors"),
        store.array("edge_labels"),
        num_labels=int(num_labels),
        directed=bool(directed),
        label_universe=LabelUniverse(names) if names else None,
        num_edges=int(num_edges),
    )
    graph._fingerprint = np.int64(int(fingerprint))  # noqa: SLF001
    return graph
