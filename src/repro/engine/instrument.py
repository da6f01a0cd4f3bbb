"""Cheap counters and stage timers for the query-execution engine.

Every :class:`~repro.engine.session.QuerySession` owns one
:class:`Instrumentation`; the engine's hot paths only ever pay a dict
increment or one ``perf_counter`` pair per *stage* (never per query), so
instrumentation stays on in production.

Counter glossary (see also docs/ALGORITHMS.md):

``queries``
    Queries submitted to the session (scalar + batch).
``queries_total``
    Process-wide aggregate only: logical queries submitted across *all*
    sessions and one-shot ``execute_batch`` calls.  Unlike the published
    per-session counters it is bumped directly in the metrics registry at
    submission time, exactly once per query — cache routing and repeated
    ``publish_stats`` calls never change it.
``cache_hits`` / ``cache_misses``
    Answer-cache (``(s, t, mask)`` LRU) outcomes.
``cache_evictions``
    Answers dropped because the LRU exceeded ``cache_size``.
``executed``
    Queries that reached an executor (i.e. the misses actually computed).
``batches``
    ``run()`` invocations.

Timer glossary (seconds, cumulative):

``plan_seconds``    time spent turning miss batches into columns;
``execute_seconds`` time spent inside executors;
``total_seconds``   wall time of ``run()`` calls end to end.

A process-wide aggregate (:func:`merge_global` / :func:`global_snapshot`)
lets the CLI report engine activity accumulated across all the sessions an
experiment created.  The aggregate is stored in the
:mod:`repro.obs.metrics` registry under ``engine.*`` names (counters for
the integer counters, cumulative-seconds counters for the timers), so one
``--metrics-out`` export carries the engine aggregate alongside the build
metrics and the per-oracle latency histograms the sessions record.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from time import perf_counter

from ..obs.metrics import registry as _obs_registry

__all__ = [
    "Instrumentation",
    "merge_global",
    "global_snapshot",
    "reset_global",
    "format_stats",
]

_COUNTER_ORDER = (
    "queries_total",
    "queries",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "executed",
    "batches",
)
_TIMER_ORDER = ("plan_seconds", "execute_seconds", "total_seconds")


class Instrumentation:
    """A bundle of named integer counters and cumulative stage timers."""

    __slots__ = ("counters", "seconds")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.seconds: dict[str, float] = {}

    def count(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def add_seconds(self, name: str, value: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + value

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of the enclosed block under ``name``."""
        started = perf_counter()
        try:
            yield
        finally:
            self.add_seconds(name, perf_counter() - started)

    def merge(self, other: Instrumentation) -> None:
        for name, value in other.counters.items():
            self.count(name, value)
        for name, value in other.seconds.items():
            self.add_seconds(name, value)

    def snapshot(self) -> dict[str, float]:
        """Counters and timers flattened into one plain dict."""
        out: dict[str, float] = dict(self.counters)
        out.update(self.seconds)
        return out

    @property
    def hit_rate(self) -> float:
        hits = self.counters.get("cache_hits", 0)
        total = hits + self.counters.get("cache_misses", 0)
        return hits / total if total else 0.0

    def __repr__(self) -> str:
        return f"Instrumentation({self.snapshot()!r})"


def format_stats(instr: Instrumentation, title: str = "engine stats") -> str:
    """Render counters + timers as an aligned text block for the CLI."""
    lines = [title]
    names = [n for n in _COUNTER_ORDER if n in instr.counters]
    names += sorted(set(instr.counters) - set(_COUNTER_ORDER))
    for name in names:
        lines.append(f"  {name:<18} {instr.counters[name]:>12}")
    lines.append(f"  {'cache_hit_rate':<18} {instr.hit_rate:>12.1%}")
    timer_names = [n for n in _TIMER_ORDER if n in instr.seconds]
    timer_names += sorted(set(instr.seconds) - set(_TIMER_ORDER))
    for name in timer_names:
        lines.append(f"  {name:<18} {instr.seconds[name]:>12.4f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Process-wide aggregate, reported by the CLI after an --engine run.
# Backed by the repro.obs metrics registry (names: "engine.<counter>"),
# so --metrics-out exports it and other tooling can read it live.
# ----------------------------------------------------------------------
_PREFIX = "engine."


def merge_global(instr: Instrumentation) -> None:
    """Fold one session's stats into the process-wide aggregate."""
    reg = _obs_registry()
    for name, count in instr.counters.items():
        reg.counter(_PREFIX + name).inc(count)
    for name, seconds in instr.seconds.items():
        reg.counter(_PREFIX + name).inc(seconds)


def global_snapshot() -> Instrumentation:
    """A copy of the process-wide aggregate (safe to render/mutate)."""
    copy = Instrumentation()
    snapshot = _obs_registry().snapshot()
    for name, value in snapshot.items():
        if not name.startswith(_PREFIX) or not isinstance(value, (int, float)):
            continue
        short = name[len(_PREFIX):]
        if "." in short:
            continue  # structured engine metrics (histograms etc.), not counters
        if short.endswith("_seconds"):
            copy.add_seconds(short, float(value))
        else:
            copy.count(short, int(value))
    return copy


def reset_global() -> None:
    _obs_registry().reset(prefix=_PREFIX)
