# lint-module: repro/perf/scratch.py
"""Fixture: memmap/PowCovTable misuse — read-only writes, leaked maps."""

from __future__ import annotations

import numpy as np

from repro.core.powcov.table import PowCovTable


def _write_readonly_map(path: str) -> "np.ndarray":
    view = np.memmap(path, mode="r", dtype=np.float64, shape=(8,))
    view[0] = 1.0  # line 13: mode="r" mapping is read-only
    return view


def _leaked_map(path: str) -> float:
    view = np.memmap(path, mode="w+", dtype=np.float64, shape=(8,))  # line 18
    return float(view[0])  # writable map dropped without release


def _write_table_column(offsets: object, payload: object, bits: object) -> None:
    table = PowCovTable(offsets, payload, bits, 4, 16)
    table.dist[0] = 0.0  # line 24: mmap-backed column is read-only
