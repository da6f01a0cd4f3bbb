# lint-module: repro/perf/scratch.py
"""Fixture: read-only maps read, writable maps escaped, copies mutated,
fresh results of read-only inputs written and used after the map closes."""

from __future__ import annotations

import numpy as np

from repro.core.powcov.table import PowCovTable


def _read_only_probe(path: str) -> "np.ndarray":
    view = np.memmap(path, mode="r", dtype=np.float64, shape=(8,))
    _ = view[0]  # reads from a read-only map are fine
    return view  # the handle escapes to the caller: no leak


def _escaped_map(path: str) -> "np.ndarray":
    return np.memmap(path, mode="w+", dtype=np.float64, shape=(8,))


def _mutate_a_copy(offsets: object, payload: object, bits: object) -> "np.ndarray":
    table = PowCovTable(offsets, payload, bits, 4, 16)
    scratch = table.dist.copy()  # a private copy is writable
    scratch[0] = 0.0
    return scratch


def _mutate_a_minimum(offsets: object, payload: object, bits: object) -> "np.ndarray":
    table = PowCovTable(offsets, payload, bits, 4, 16)
    out = np.minimum(table.dist, np.zeros(8))  # a fresh array, writable
    out[0] = 1.0
    return out


def _astype_outlives_close(path: str) -> float:
    view = np.memmap(path, mode="r", dtype=np.float64, shape=(8,))
    try:
        rows = view.astype(np.float32)  # a copy: no handle on the map
    finally:
        view.close()
    return float(rows[0])
