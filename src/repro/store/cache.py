"""Directory-backed index store: fingerprint-addressed save/load.

An :class:`IndexStore` names files by ``{kind}-{fingerprint:016x}-{tag}``
inside one directory, so a cached index can never be served against the
wrong graph — a different graph hashes to a different filename, and the
loader re-verifies the embedded fingerprint anyway.  ``format`` picks the
on-disk representation: ``"mmap"`` (the zero-copy store format, default)
or ``"npz"`` (the eager fallback in :mod:`repro.core.serialize`).

The process-wide default mirrors the other opt-in defaults
(:func:`repro.perf.parallel.set_default_parallel`,
:func:`repro.kernels.set_default_kernel`): the eval CLI's
``--save-index`` / ``--load-index`` flags route through
:func:`set_default_index_store`, and the eval runners consult
:func:`get_default_index_store` before rebuilding an index from scratch.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from ..core.chromland import ChromLandIndex
    from ..core.powcov import PowCovIndex
    from ..graph.labeled_graph import EdgeLabeledGraph

__all__ = [
    "IndexStore",
    "set_default_index_store",
    "get_default_index_store",
]

_FORMATS = ("mmap", "npz")
_SUFFIX_OF = {"mmap": ".repro", "npz": ".npz"}
_LINEAGE_FILE = "lineage.jsonl"


class IndexStore:
    """One directory of persisted indexes, addressed by graph fingerprint.

    Parameters
    ----------
    directory:
        Where the files live; created on first save.
    format:
        ``"mmap"`` (store format, lazy open) or ``"npz"`` (eager fallback).
    compress:
        Store format only: varint/delta-compress the integer sections.
    writable:
        ``False`` makes :meth:`save` a no-op — the CLI's pure
        ``--load-index`` mode, where a read-only cache directory (e.g. a
        shared artifact volume) must never be written to.
    capacity:
        Maximum number of index files retained (``None`` = unbounded, the
        historical behavior).  When a save pushes the directory past the
        cap, the least-recently-*used* files are deleted — :meth:`load`
        hits refresh a file's timestamp, so hot indexes survive.
        Evictions are counted on :attr:`evictions` (and the
        ``store.cache_evictions`` metric when metrics are enabled).
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        format: str = "mmap",
        compress: bool = False,
        writable: bool = True,
        capacity: int | None = None,
    ) -> None:
        if format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}, got {format!r}")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.directory = os.fspath(directory)
        self.format = format
        self.compress = compress
        self.writable = writable
        self.capacity = capacity
        #: index files deleted by the LRU cap over this store's lifetime.
        self.evictions = 0

    def path_for(
        self, kind: str, graph: "EdgeLabeledGraph", tag: str = "default"
    ) -> str:
        """Canonical path for (kind, graph, tag) in the configured format."""
        from ..core.serialize import graph_fingerprint  # local: avoids cycle

        name = f"{kind}-{int(graph_fingerprint(graph)):016x}-{tag}"
        return os.path.join(self.directory, name + _SUFFIX_OF[self.format])

    def find(
        self, kind: str, graph: "EdgeLabeledGraph", tag: str = "default"
    ) -> str | None:
        """An existing file for (kind, graph, tag), preferring the
        configured format but accepting the other one."""
        from ..core.serialize import graph_fingerprint  # local: avoids cycle

        name = f"{kind}-{int(graph_fingerprint(graph)):016x}-{tag}"
        preferred = _SUFFIX_OF[self.format]
        for suffix in (preferred, *(s for s in _SUFFIX_OF.values() if s != preferred)):
            candidate = os.path.join(self.directory, name + suffix)
            if os.path.isfile(candidate):
                return candidate
        return None

    def load(
        self, kind: str, graph: "EdgeLabeledGraph", tag: str = "default"
    ) -> "PowCovIndex | ChromLandIndex | None":
        """Open the cached index for ``graph``, or ``None`` if absent."""
        path = self.find(kind, graph, tag)
        if path is None:
            return None
        from ..core.serialize import load_index  # local: avoids cycle

        index = load_index(path, graph)
        if self.capacity is not None and self.writable:
            try:
                os.utime(path)  # refresh recency so the LRU cap spares it
            except OSError:
                pass
        return index

    def save(
        self, index: "PowCovIndex | ChromLandIndex", tag: str = "default"
    ) -> str | None:
        """Persist a built index; returns the path (``None`` if read-only)."""
        if not self.writable:
            return None
        from ..core.chromland import ChromLandIndex  # local: avoids cycle
        from ..core.serialize import save_index  # local: avoids cycle

        kind = "chromland" if isinstance(index, ChromLandIndex) else "powcov"
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(kind, index.graph, tag)
        save_index(index, path, format=self.format, compress=self.compress)
        self._record_lineage(index.graph)
        self._enforce_capacity(keep=path)
        return path

    # ------------------------------------------------------------------
    # LRU capacity
    # ------------------------------------------------------------------
    def _index_files(self) -> list[str]:
        suffixes = tuple(_SUFFIX_OF.values())
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        return [
            os.path.join(self.directory, name)
            for name in sorted(names)
            if name.endswith(suffixes)
        ]

    def _enforce_capacity(self, keep: str) -> None:
        if self.capacity is None:
            return
        files = self._index_files()
        if len(files) <= self.capacity:
            return
        def mtime(path: str) -> float:
            try:
                return os.path.getmtime(path)
            except OSError:
                return float("inf")  # vanished concurrently; never evict

        # Oldest-access first; the file just written is always spared.
        victims = sorted(
            (f for f in files if f != keep), key=mtime
        )[: len(files) - self.capacity]
        for victim in victims:
            try:
                os.remove(victim)
            except OSError:
                continue
            self.evictions += 1
        if victims:
            from ..obs.metrics import metrics_enabled, registry

            if metrics_enabled():
                registry().counter("store.cache_evictions").inc(len(victims))

    # ------------------------------------------------------------------
    # Fingerprint lineage
    # ------------------------------------------------------------------
    @property
    def lineage_path(self) -> str:
        return os.path.join(self.directory, _LINEAGE_FILE)

    def _record_lineage(self, graph: "EdgeLabeledGraph") -> None:
        """Append this graph version's parent link to the lineage manifest.

        Saved indexes are fingerprint-addressed, so after a mutation the
        old version's files look unrelated to the new version's.  The
        manifest records ``child fingerprint -> parent fingerprint`` (plus
        the delta shape) for every versioned graph saved here, letting
        :meth:`lineage_of` walk a cached index back to its build ancestor.
        """
        parent = getattr(graph, "parent_fingerprint", None)
        delta = getattr(graph, "applied_delta", None)
        if parent is None or delta is None:
            return
        from ..core.serialize import graph_fingerprint  # local: avoids cycle

        entry = {
            "fingerprint": f"{int(graph_fingerprint(graph)):016x}",
            "parent": f"{int(parent):016x}",
            "version": int(getattr(graph, "version", 0)),
            "delta": delta.describe(),
        }
        known = {e["fingerprint"]: e for e in self._read_lineage()}
        if known.get(entry["fingerprint"]) == entry:
            return
        with open(self.lineage_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")

    def _read_lineage(self) -> list[dict[str, Any]]:
        try:
            with open(self.lineage_path, encoding="utf-8") as handle:
                return [json.loads(line) for line in handle if line.strip()]
        except FileNotFoundError:
            return []

    def lineage_of(self, graph: "EdgeLabeledGraph") -> list[dict[str, Any]]:
        """The recorded version chain ending at ``graph``, child-first.

        Each element is a manifest entry (``fingerprint``, ``parent``,
        ``version``, ``delta``); an empty list means the graph was never
        saved here as a mutated version (or is an original build).
        """
        from ..core.serialize import graph_fingerprint  # local: avoids cycle

        by_child = {e["fingerprint"]: e for e in self._read_lineage()}
        chain: list[dict[str, Any]] = []
        cursor = f"{int(graph_fingerprint(graph)):016x}"
        while cursor in by_child and len(chain) < len(by_child):
            entry = by_child[cursor]
            chain.append(entry)
            cursor = entry["parent"]
        return chain

    def __repr__(self) -> str:
        return (
            f"IndexStore({self.directory!r}, format={self.format!r}, "
            f"compress={self.compress}, writable={self.writable}, "
            f"capacity={self.capacity})"
        )


#: Process-wide default store consulted by the eval runners (``None`` =
#: always rebuild, the historical behavior).
_default_store: IndexStore | None = None


def set_default_index_store(store: IndexStore | None) -> None:
    """Install (or clear, with ``None``) the process-wide index store."""
    global _default_store
    _default_store = store


def get_default_index_store() -> IndexStore | None:
    """The current process-wide index store, if any."""
    return _default_store
