"""Per-oracle batch executors: the vectorized counterparts of ``query``.

An executor answers a whole :class:`~repro.engine.plan.QueryBatch` in one
pass, each query under its own constraint mask; nothing is grouped or
planned per mask.  The contract, asserted by the engine property tests,
is **bit-identical output**: for every oracle and every query, the
executor's float equals ``oracle.query(s, t, mask)`` exactly (including
``inf``).  Executors are therefore *reorganizations* of the scalar
arithmetic — same lookups, same additions, same minima — run over the
batch's columns instead of one query at a time:

* :class:`PowCovExecutor` resolves the Theorem 1 reconstruction for every
  endpoint of the batch in one ``powcov_lookup`` kernel call per table
  direction: each (endpoint, landmark) pair's distance-sorted run is
  walked up to its first label set inside that query's own mask.
* :class:`ChromLandExecutor` builds the ``(g, k)`` usable-landmark filter
  from the mask column, gathers every query's landmark legs once, and
  answers with a row minimum (Proposition 2) or one batched Theorem 5
  kernel call over the bi-chromatic weights it derives at construction.
* :class:`NaiveExecutor` stacks the per-landmark exact distance vectors
  of every mask into one ``(k, 2^L, n)`` array at construction and
  answers a batch with two gathers and a min-reduction.
* :class:`ScalarLoopExecutor` is the trivial adapter: a plain loop over
  ``oracle.query``.  Baselines (bidirectional BFS, the Rice–Tsotras CH)
  and any unknown oracle run through it, so engine-vs-engine comparisons
  stay apples-to-apples even when one side has no batchable structure.

``executor_for`` picks the executor; oracles can override the choice by
defining ``make_batch_executor()``.
"""

from __future__ import annotations

from typing import Any, Generic, TypeVar

import numpy as np

from ..core.chromland import ChromLandIndex
from ..core.chromland.query import (
    auxiliary_weights,
    landmark_legs,
    simple_triangle_distances,
)
from ..core.naive import NaivePowersetIndex
from ..core.powcov import PowCovIndex
from ..core.types import INF, DistanceOracle
from ..graph.labelsets import full_mask
from ..graph.traversal import UNREACHABLE
from ..kernels import KernelBackend, resolve_kernel
from .plan import QueryBatch

__all__ = [
    "OracleExecutor",
    "ScalarLoopExecutor",
    "PowCovExecutor",
    "ChromLandExecutor",
    "NaiveExecutor",
    "executor_for",
]


#: Oracle type an executor is specialized for.
OracleT = TypeVar("OracleT", bound=DistanceOracle)

#: Queries per vectorized pass.  A serving batch is one pass; very large
#: one-shot batches are split so the gathered PowCov entries (about
#: ``2 * k * H`` per query) stay a few MiB instead of growing with the
#: batch.
_PASS_QUERIES = 256


class OracleExecutor(Generic[OracleT]):
    """Base class: answer a whole batch of ``(s, t, mask)`` columns."""

    def __init__(self, oracle: OracleT) -> None:
        self.oracle: OracleT = oracle
        #: Resolved compiled-kernel backend for the executor's hot loops.
        #: Sessions overwrite this from ``EngineConfig.kernel``; the
        #: default follows the process chain.  Bit-identical either way.
        self.kernel: KernelBackend = resolve_kernel(None)

    def execute(self, batch: QueryBatch) -> np.ndarray:
        """Answer every query of ``batch`` (float64, ``inf`` = unreachable).

        Landmark executors share the scalar edge cases: ``s == t`` is 0,
        an empty mask is ``inf``; :meth:`_estimate` answers the rest, in
        passes of at most ``_PASS_QUERIES`` queries.
        """
        same = batch.sources == batch.targets
        out = np.where(same, 0.0, INF)
        live = np.flatnonzero(~same & (batch.masks != 0))
        for lo in range(0, len(live), _PASS_QUERIES):
            rows = live[lo:lo + _PASS_QUERIES]
            out[rows] = self._estimate(batch.select(rows))
        return out

    def _estimate(self, batch: QueryBatch) -> np.ndarray:
        """Estimates for queries with ``s != t`` and a non-empty mask."""
        raise NotImplementedError


class ScalarLoopExecutor(OracleExecutor[DistanceOracle]):
    """The reference path as an executor: one ``oracle.query`` per query."""

    def execute(self, batch: QueryBatch) -> np.ndarray:
        query = self.oracle.query
        out = np.empty(len(batch), dtype=np.float64)
        for i, (s, t, mask) in enumerate(
            zip(batch.sources.tolist(), batch.targets.tolist(), batch.masks.tolist())
        ):
            out[i] = query(s, t, mask)
        return out


# ----------------------------------------------------------------------
# PowCov
# ----------------------------------------------------------------------
class PowCovExecutor(OracleExecutor[PowCovIndex]):
    """Vectorized Theorem 1 + triangle inequality over a whole batch."""

    def __init__(self, oracle: PowCovIndex) -> None:
        super().__init__(oracle)
        oracle._require_built()  # noqa: SLF001 - engine is a friend module

    def _estimate(self, batch: QueryBatch) -> np.ndarray:
        oracle = self.oracle
        if oracle.reverse is not None:
            # Directed estimate: min_x d_C(s → x) + d_C(x → t); the s-leg
            # comes from the reverse table.
            ds = oracle.landmark_rows(
                batch.sources, batch.masks, "to-landmark", self.kernel
            )
            dt = oracle.landmark_rows(
                batch.targets, batch.masks, kernel=self.kernel
            )
        else:
            g = len(batch)
            rows = oracle.landmark_rows(
                np.concatenate([batch.sources, batch.targets]),
                np.concatenate([batch.masks, batch.masks]),
                kernel=self.kernel,
            )
            ds, dt = rows[:g], rows[g:]
        sums = ds + dt
        if oracle.estimator != "median":
            return sums.min(axis=1, initial=INF)
        estimates = np.empty(len(sums), dtype=np.float64)
        for i, row in enumerate(sums):
            finite = row[np.isfinite(row)]
            if len(finite) == 0:
                estimates[i] = INF
            else:
                finite.sort()
                estimates[i] = finite[len(finite) // 2]
        return estimates


# ----------------------------------------------------------------------
# ChromLand
# ----------------------------------------------------------------------
class ChromLandExecutor(OracleExecutor[ChromLandIndex]):
    """Per-query usable filter, batch-wide legs, one Theorem 5 kernel call."""

    def __init__(self, oracle: ChromLandIndex) -> None:
        super().__init__(oracle)
        oracle._require_built()  # noqa: SLF001 - engine is a friend module
        #: Theorem 5 landmark-landmark weights (``None`` in "simple" mode).
        self.weights = (
            auxiliary_weights(oracle.bi, oracle.colors)
            if oracle.query_mode == "auxiliary"
            else None
        )

    def _estimate(self, batch: QueryBatch) -> np.ndarray:
        oracle = self.oracle
        usable = (oracle._color_bits & batch.masks[:, None]) != 0  # noqa: SLF001
        ds, dt = landmark_legs(
            oracle.mono, usable, batch.sources, batch.targets, oracle.mono_in
        )
        if self.weights is None:
            return simple_triangle_distances(ds, dt)
        return self.kernel.aux_dijkstra(self.weights, usable, ds, dt)


# ----------------------------------------------------------------------
# Naive powerset
# ----------------------------------------------------------------------
class NaiveExecutor(OracleExecutor[NaivePowersetIndex]):
    """One ``(k, 2^L, n)`` distance stack; two gathers per batch."""

    def __init__(self, oracle: NaivePowersetIndex) -> None:
        super().__init__(oracle)
        oracle._require_built()  # noqa: SLF001 - engine is a friend module
        tables = oracle._distances  # noqa: SLF001 - engine is a friend
        n = oracle.graph.num_vertices
        #: ``stack[i, C]`` is ``d_C(x_i, .)``; row ``C = 0`` is never read.
        self.stack = np.full(
            (len(tables), full_mask(oracle.graph.num_labels) + 1, n),
            UNREACHABLE, dtype=np.int32,
        )
        for i, per_mask in enumerate(tables):
            for mask, vector in per_mask.items():
                self.stack[i, mask] = vector

    def _estimate(self, batch: QueryBatch) -> np.ndarray:
        ds = self.stack[:, batch.masks, batch.sources].astype(np.float64)
        dt = self.stack[:, batch.masks, batch.targets].astype(np.float64)
        ds[ds == UNREACHABLE] = INF
        dt[dt == UNREACHABLE] = INF
        return (ds + dt).min(axis=0, initial=INF)


def executor_for(oracle: DistanceOracle) -> OracleExecutor[Any]:
    """Pick the batch executor for ``oracle`` (scalar loop as fallback).

    Executors read the oracle's tables live; the ChromLand and naive
    executors derive one batch-independent array at construction.
    """
    maker = getattr(oracle, "make_batch_executor", None)
    if maker is not None:
        return maker()
    if isinstance(oracle, PowCovIndex):
        return PowCovExecutor(oracle)
    if isinstance(oracle, ChromLandIndex):
        return ChromLandExecutor(oracle)
    if isinstance(oracle, NaivePowersetIndex):
        return NaiveExecutor(oracle)
    return ScalarLoopExecutor(oracle)
