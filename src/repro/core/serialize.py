"""Index persistence: save and load built oracles without rebuilding.

Index construction is the expensive step (minutes for PowCov on the larger
stand-ins); a deployed oracle builds once and serves forever.  This module
round-trips both indexes through numpy ``.npz`` archives — no pickle, so
the files are portable and safe to load.

Formats
-------
PowCov: each table's entries as four parallel per-entry arrays
(``landmark_idx``, ``vertex``, ``distance``, ``mask``) plus the landmark
list and metadata; both directions of the conversion are vectorized
(:meth:`~repro.core.powcov.table.PowCovTable.to_coo` /
:meth:`~repro.core.powcov.table.PowCovTable.from_coo`).  Directed indexes
store the reverse-table arrays alongside.

ChromLand: the ``mono`` / ``bi`` (and directed ``mono_in``) matrices plus
landmark/color arrays are stored verbatim.

The graph itself is *not* embedded — the caller supplies it on load (it
has its own persistence in :mod:`repro.graph.io`) and a fingerprint check
rejects mismatched graphs.

The ``.npz`` archives here are the *eager* format: loading decompresses
and re-sorts every array before the first query.  The mmap-able store
format (:mod:`repro.store`) maps the table columns instead;
:func:`save_index` / :func:`load_index` dispatch between the two (the
loader sniffs the file magic, so either format round-trips through the
same call).  Malformed or version-skewed payloads raise
:class:`~repro.store.format.FormatError` from either path.
"""

from __future__ import annotations

import os

import numpy as np

from ..graph.fingerprint import graph_fingerprint
from ..graph.labeled_graph import EdgeLabeledGraph
from ..store.format import FormatError, is_store_file
from .chromland import ChromLandIndex
from .powcov import PowCovIndex, PowCovTable

__all__ = [
    "NPZ_FORMAT_VERSION",
    "graph_fingerprint",
    "save_powcov",
    "load_powcov",
    "save_chromland",
    "load_chromland",
    "save_index",
    "load_index",
]

#: Version stamped into every ``.npz`` payload; bumped on layout changes so
#: stale files fail with a clear :class:`FormatError`, not a ``KeyError``.
NPZ_FORMAT_VERSION = 1


# ``graph_fingerprint`` moved down into :mod:`repro.graph.fingerprint` so
# the delta layer can mint lineage fingerprints without a layering cycle;
# it is re-imported above and stays part of this module's public API.


def _check_npz_version(path: str | os.PathLike, data) -> None:
    """Reject payloads with a missing or unknown format-version field."""
    if "format_version" not in data:
        raise FormatError(
            f"{path} has no format-version field "
            "(pre-versioned payload or not a repro index file)"
        )
    version = int(data["format_version"])
    if version != NPZ_FORMAT_VERSION:
        raise FormatError(
            f"{path}: unsupported npz index format version {version} "
            f"(this build reads version {NPZ_FORMAT_VERSION})"
        )


def save_powcov(index: PowCovIndex, path: str | os.PathLike) -> None:
    """Serialize a built PowCov index."""
    if not index._built:  # noqa: SLF001 - serialization is a friend module
        raise ValueError("build the index before saving it")
    payload = {
        "kind": np.str_("powcov"),
        "format_version": np.int64(NPZ_FORMAT_VERSION),
        "fingerprint": graph_fingerprint(index.graph),
        "landmarks": np.asarray(index.landmarks, dtype=np.int64),
        "estimator": np.str_(index.estimator),
        "directed": np.bool_(index.graph.directed),
    }
    for prefix, table in (("fwd", index.forward), ("rev", index.reverse)):
        if table is not None:
            landmark_idx, vertex, distance, mask = table.to_coo()
            payload[f"{prefix}_landmark"] = landmark_idx
            payload[f"{prefix}_vertex"] = vertex
            payload[f"{prefix}_distance"] = distance
            payload[f"{prefix}_mask"] = mask
    np.savez_compressed(path, **payload)


def load_powcov(path: str | os.PathLike, graph: EdgeLabeledGraph) -> PowCovIndex:
    """Load a PowCov index saved by :func:`save_powcov` for ``graph``."""
    with np.load(path, allow_pickle=False) as data:
        _check_npz_version(path, data)
        if str(data["kind"]) != "powcov":
            raise FormatError(f"{path} is not a PowCov index file")
        if np.int64(data["fingerprint"]) != graph_fingerprint(graph):
            raise FormatError("index file was built for a different graph")
        landmarks = [int(x) for x in data["landmarks"]]
        k, n = len(landmarks), graph.num_vertices

        def table(prefix: str) -> PowCovTable:
            return PowCovTable.from_coo(
                data[f"{prefix}_landmark"], data[f"{prefix}_vertex"],
                data[f"{prefix}_distance"], data[f"{prefix}_mask"], k, n,
            )

        index = PowCovIndex.from_tables(
            graph, landmarks, table("fwd"),
            table("rev") if bool(data["directed"]) else None,
            estimator=str(data["estimator"]),
        )
        #: checked by the engine session against the live graph on open.
        index.stored_fingerprint = int(data["fingerprint"])
        return index


def save_chromland(index: ChromLandIndex, path: str | os.PathLike) -> None:
    """Serialize a built ChromLand index."""
    if index.mono is None:
        raise ValueError("build the index before saving it")
    payload = {
        "kind": np.str_("chromland"),
        "format_version": np.int64(NPZ_FORMAT_VERSION),
        "fingerprint": graph_fingerprint(index.graph),
        "landmarks": index.landmarks,
        "colors": index.colors,
        "query_mode": np.str_(index.query_mode),
        "mono": index.mono,
        "bi": index.bi,
        "directed": np.bool_(index.graph.directed),
    }
    if index.mono_in is not None:
        payload["mono_in"] = index.mono_in
    np.savez_compressed(path, **payload)


def load_chromland(
    path: str | os.PathLike, graph: EdgeLabeledGraph
) -> ChromLandIndex:
    """Load a ChromLand index saved by :func:`save_chromland` for ``graph``."""
    with np.load(path, allow_pickle=False) as data:
        _check_npz_version(path, data)
        if str(data["kind"]) != "chromland":
            raise FormatError(f"{path} is not a ChromLand index file")
        if np.int64(data["fingerprint"]) != graph_fingerprint(graph):
            raise FormatError("index file was built for a different graph")
        index = ChromLandIndex(
            graph,
            [int(x) for x in data["landmarks"]],
            [int(c) for c in data["colors"]],
            query_mode=str(data["query_mode"]),
        )
        index.mono = data["mono"]
        index.bi = data["bi"]
        if "mono_in" in data:
            index.mono_in = data["mono_in"]
        index._built = True  # noqa: SLF001
        #: checked by the engine session against the live graph on open.
        index.stored_fingerprint = int(data["fingerprint"])
        return index


# ----------------------------------------------------------------------
# Format-agnostic entry points (npz fallback + mmap store)
# ----------------------------------------------------------------------
def save_index(
    index: PowCovIndex | ChromLandIndex,
    path: str | os.PathLike,
    format: str | None = None,
    compress: bool = False,
) -> None:
    """Persist a built index in either format.

    ``format`` is ``"npz"``, ``"mmap"``, or ``None`` to infer from the
    path suffix (``.npz`` → npz, anything else → the mmap store format).
    ``compress`` applies to the store format only (varint/delta sections).
    """
    if format is None:
        format = "npz" if os.fspath(path).endswith(".npz") else "mmap"
    if format == "npz":
        if isinstance(index, PowCovIndex):
            save_powcov(index, path)
        elif isinstance(index, ChromLandIndex):
            save_chromland(index, path)
        else:
            raise TypeError(f"cannot save index of type {type(index).__name__}")
        return
    if format == "mmap":
        from ..store.index_store import save_index as store_save

        store_save(index, path, compress=compress)
        return
    raise ValueError(f"format must be 'npz', 'mmap' or None, got {format!r}")


def load_index(
    path: str | os.PathLike, graph: EdgeLabeledGraph
) -> PowCovIndex | ChromLandIndex:
    """Load any persisted index for ``graph``, autodetecting the format.

    Store files (sniffed by magic) open with their sections mapped;
    ``.npz`` archives deserialize eagerly through :func:`load_powcov` /
    :func:`load_chromland`.  Either way the loaded index carries
    ``stored_fingerprint`` and has been verified against ``graph``.
    """
    if is_store_file(path):
        from ..store.index_store import open_index

        return open_index(path, graph)
    with np.load(path, allow_pickle=False) as data:
        _check_npz_version(path, data)
        kind = str(data["kind"])
    if kind == "powcov":
        return load_powcov(path, graph)
    if kind == "chromland":
        return load_chromland(path, graph)
    raise FormatError(f"{path} holds an unknown index kind {kind!r}")
