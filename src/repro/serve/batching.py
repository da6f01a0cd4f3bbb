"""Micro-batching: coalesce concurrent requests into one engine batch.

Concurrent HTTP requests arrive as many tiny query lists; the engine is
fastest when it executes one large batch (one plan, one mask-group sweep
per distinct mask).  A :class:`MicroBatcher` sits between the two: every
request's queries are appended to a pending buffer, and the buffer is
flushed as **one** ``session.run``-shaped call when

* the pending buffer reaches ``max_batch`` queries (flushed at once);
* no batch is in flight: the flush runs on the next event-loop turn, so
  requests read in the same loop iteration still share one batch, and a
  lone request pays no coalescing delay;
* the batches in flight finish (answered, failed, or retried per
  request): everything that queued behind them flushes as one batch.

There is no coalescing timer.  Batches form only while the engine is
busy, so the batch size follows the load and an idle server answers at
once.

Ordering and isolation guarantees, property-tested in
``tests/test_serve.py``:

* **per-request ordering** — each submitter receives exactly its own
  answers, in its own submission order, regardless of how requests were
  interleaved into flushes;
* **error isolation** — if a flushed batch fails as a whole, every
  pending request is retried individually, so a poison query fails only
  the request that carried it and every innocent neighbor still gets its
  answers.
"""

from __future__ import annotations

import asyncio
import inspect
from collections.abc import Awaitable, Callable, Sequence
from typing import Union

from ..obs.metrics import registry as _metrics_registry

__all__ = ["MicroBatcher"]

Triple = tuple[int, int, int]
ExecuteFn = Callable[
    [list[Triple]], Union[Sequence[float], Awaitable[Sequence[float]]]
]


class _PendingRequest:
    """One submitter's queries plus the future its answers resolve."""

    __slots__ = ("triples", "future")

    def __init__(
        self, triples: list[Triple], future: "asyncio.Future[list[float]]"
    ) -> None:
        self.triples = triples
        self.future = future


class MicroBatcher:
    """Coalesce concurrent ``submit`` calls into single engine batches.

    Parameters
    ----------
    execute:
        Called with the concatenated triples of every coalesced request;
        may return the answers directly or an awaitable of them (the
        serving app hands back ``run_in_executor`` futures so numpy work
        leaves the event loop).
    max_batch:
        Flush as soon as this many queries are pending.  ``1`` is
        batch-size-1 serving (the benchmark baseline).
    """

    #: Seconds a pending request waits on a timer: there is no
    #: coalescing timer, so always ``0.0``.
    window = 0.0

    def __init__(self, execute: ExecuteFn, max_batch: int = 256) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._execute = execute
        self.max_batch = max_batch
        self._pending: list[_PendingRequest] = []
        self._pending_queries = 0
        # Batches flushed but not yet answered.
        self._in_flight = 0
        # A next-turn flush is queued with ``call_soon``.
        self._flush_queued = False
        # Strong refs to in-flight flush tasks (the loop only keeps weak
        # ones); discarded as each batch completes.
        self._tasks: set[asyncio.Task[None]] = set()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, triples: Sequence[Triple]) -> list[float]:
        """Queue one request's queries; await its answers.

        Returns answers in the request's own submission order.  An empty
        request resolves immediately with an empty list.
        """
        items = [tuple(t) for t in triples]
        loop = asyncio.get_running_loop()
        if not items:
            return []
        future: "asyncio.Future[list[float]]" = loop.create_future()
        self._pending.append(_PendingRequest(items, future))
        self._pending_queries += len(items)
        if self._pending_queries >= self.max_batch:
            self.flush_now()
        elif not self._in_flight and not self._flush_queued:
            self._flush_queued = True
            loop.call_soon(self._flush_if_idle)
        return await future

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    @property
    def pending_queries(self) -> int:
        return self._pending_queries

    def _flush_if_idle(self) -> None:
        # A size flush may have started a batch since this was queued;
        # then the requests behind it flush when it completes.
        self._flush_queued = False
        if not self._in_flight:
            self.flush_now()

    def flush_now(self) -> None:
        """Flush whatever is pending as one batch task, immediately."""
        if not self._pending:
            return
        batch = self._pending
        self._pending = []
        self._pending_queries = 0
        registry = _metrics_registry()
        registry.counter("serve.batches").inc()
        registry.counter("serve.batched_requests").inc(len(batch))
        total = sum(len(p.triples) for p in batch)
        registry.histogram("serve.batch_size", lo=1.0, hi=1e5).observe(total)
        self._in_flight += 1
        task = asyncio.get_running_loop().create_task(self._run_batch(batch))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _call_execute(self, triples: list[Triple]) -> list[float]:
        result = self._execute(triples)
        if inspect.isawaitable(result):
            result = await result
        answers = list(result)
        if len(answers) != len(triples):
            raise RuntimeError(
                f"execute returned {len(answers)} answers for "
                f"{len(triples)} queries"
            )
        return answers

    async def _run_batch(self, batch: list[_PendingRequest]) -> None:
        try:
            await self._answer(batch)
        finally:
            self._in_flight -= 1
        # Everything that queued behind the finished batches flushes as
        # one.  (A cancelled batch skips this: its loop is shutting down.)
        if not self._in_flight:
            self.flush_now()

    async def _answer(self, batch: list[_PendingRequest]) -> None:
        triples = [t for pending in batch for t in pending.triples]
        try:
            answers = await self._call_execute(triples)
        except Exception:
            # The whole batch failed: isolate the poison request(s) by
            # retrying each request on its own, so every healthy request
            # still resolves and only the offender sees the error.
            _metrics_registry().counter("serve.batch_retries").inc()
            for pending in batch:
                await self._resolve_individually(pending)
            return
        position = 0
        for pending in batch:
            end = position + len(pending.triples)
            if not pending.future.cancelled():
                pending.future.set_result(answers[position:end])
            position = end

    async def _resolve_individually(self, pending: _PendingRequest) -> None:
        try:
            answers = await self._call_execute(pending.triples)
        except Exception as exc:
            _metrics_registry().counter("serve.request_errors").inc()
            if not pending.future.cancelled():
                pending.future.set_exception(exc)
            return
        if not pending.future.cancelled():
            pending.future.set_result(list(answers))
