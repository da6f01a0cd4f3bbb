"""repro.engine — the batch-native query-execution layer.

The scalar ``oracle.query(s, t, mask)`` path answers one triple at a
time; serving-side traffic arrives in batches and streams.  This package
turns any oracle into a batch server:

* :mod:`repro.engine.plan` turns a batch into ``(sources, targets,
  masks)`` columns;
* :mod:`repro.engine.executors` answers the whole batch in one vectorized
  pass, each query under its own mask (PowCov: one ``powcov_lookup``
  kernel call over the pair table; ChromLand: a ``(g, k)`` usable filter
  and one batched Theorem 5 kernel call; naive: gathers from a stacked
  distance array; everything else: the trivial scalar-loop adapter);
* :mod:`repro.engine.session` adds the LRU answer cache and batching over
  streams;
* :mod:`repro.engine.instrument` provides the counters and stage timers
  every session exposes.

The engine's invariant — asserted by ``tests/test_engine.py`` — is that
batch answers are **bit-identical** to the scalar loop for every oracle,
with caches on or off.  Quickstart::

    from repro.engine import QuerySession

    session = QuerySession(oracle, cache_size=8192)
    answers = session.run([(s1, t1, mask1), (s2, t2, mask2)])
    print(session.format_stats())
"""

from __future__ import annotations

from .config import EngineConfig, default_engine, resolve_engine, set_default_engine
from .executors import (
    ChromLandExecutor,
    NaiveExecutor,
    OracleExecutor,
    PowCovExecutor,
    ScalarLoopExecutor,
    executor_for,
)
from .instrument import (
    Instrumentation,
    format_stats,
    global_snapshot,
    merge_global,
    reset_global,
)
from .plan import QueryBatch, plan_batch
from .session import QuerySession, execute_batch

__all__ = [
    "EngineConfig",
    "default_engine",
    "resolve_engine",
    "set_default_engine",
    "OracleExecutor",
    "ScalarLoopExecutor",
    "PowCovExecutor",
    "ChromLandExecutor",
    "NaiveExecutor",
    "executor_for",
    "Instrumentation",
    "format_stats",
    "global_snapshot",
    "merge_global",
    "reset_global",
    "QueryBatch",
    "plan_batch",
    "QuerySession",
    "execute_batch",
]
