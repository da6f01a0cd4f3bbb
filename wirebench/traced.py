"""Run ``python -m repro.serve`` with layer spans recorded, without source edits.

Usage::

    python wirebench/traced.py SPANS_OUT [repro.serve arguments...]

At process start the launcher wraps the public entry points of each layer
(``repro.graph``, ``repro.landmarks``, ``repro.core.powcov``,
``repro.core.chromland``, ``repro.kernels``, ``repro.store``,
``repro.core.dynamic``, ``repro.engine`` and ``repro.serve.{http,app,
batching,registry}``), then calls ``repro.serve.__main__.main``.  Spans
(name, start, end, parent, request id, attributes) are kept in memory and
written to ``SPANS_OUT`` as JSON when ``main`` returns, together with every
live session's ``cache_info()`` and engine counters.  Times are
``time.perf_counter`` readings (CLOCK_MONOTONIC, comparable across
processes on Linux).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
from time import perf_counter
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: Request id header the benchmark client sends; it ties server spans to
#: client-observed latencies.
REQUEST_ID_HEADER = "x-bench-id"


class Recorder:
    """In-memory span store.  ``spans`` rows are
    ``[id, name, start, end, parent, rid, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._ids = itertools.count(1)
        # Async spans nest through the task context; executor threads keep
        # their own stack because run_in_executor does not copy contexts.
        self.current: contextvars.ContextVar[tuple[int, int]] = (
            contextvars.ContextVar("wirebench_span", default=(0, 0))
        )
        self._local = threading.local()
        self.app: Any = None

    def new_id(self) -> int:
        return next(self._ids)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, span_id: int, name: str, start: float, end: float,
            parent: int, rid: int, attrs: dict[str, Any] | None) -> None:
        self.spans.append([span_id, name, start, end, parent, rid, attrs or {}])

    # -- wrappers -------------------------------------------------------
    def wrap_sync(self, name: str, fn: Any, attrs_of: Any = None) -> Any:
        """Span around a blocking call, nested on the calling thread."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else self.current.get()[0]
            span_id = self.new_id()
            stack.append(span_id)
            attrs: dict[str, Any] = {}
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            else:
                if attrs_of is not None:
                    attrs.update(attrs_of(args, kwargs, result))
                return result
            finally:
                stack.pop()
                self.add(span_id, name, start, perf_counter(), parent,
                         self.current.get()[1], attrs)

        return wrapper

    def wrap_async(self, name: str, fn: Any, new_request: Any = None,
                   attrs_of: Any = None) -> Any:
        """Span around a coroutine, nested through the task context."""

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent, rid = self.current.get()
            if new_request is not None:
                rid = new_request(args)
            span_id = self.new_id()
            token = self.current.set((span_id, rid))
            attrs: dict[str, Any] = attrs_of(args, kwargs) if attrs_of else {}
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                self.current.reset(token)
                self.add(span_id, name, start, perf_counter(), parent, rid, attrs)

        return wrapper


REC = Recorder()


class _ArrivalReader:
    """StreamReader proxy noting when a request's header block arrived, so
    ``http.read`` counts parsing and body reads, not keep-alive idle time."""

    def __init__(self, reader: Any) -> None:
        self._reader = reader
        self.arrived = 0.0

    async def readuntil(self, separator: bytes) -> bytes:
        data = await self._reader.readuntil(separator)
        self.arrived = perf_counter()
        return data

    def __getattr__(self, name: str) -> Any:
        return getattr(self._reader, name)


#: ``role`` is "read" while a pool thread serves a query batch.
_ROLE = threading.local()


class _TimedLock:
    """Key-lock proxy recording how long each acquire waited."""

    def __init__(self, lock: Any, key: Any) -> None:
        self._lock = lock
        self._key = key

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        start = perf_counter()
        got = self._lock.acquire(*args, **kwargs)
        end = perf_counter()
        REC.add(REC.new_id(), "registry.lock_wait", start, end, 0, 0,
                {"kind": self._key[1], "for": getattr(_ROLE, "role", "delta")})
        return got

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "_TimedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


def install() -> None:
    """Wrap every layer's public entry points; call once per process."""
    from repro.kernels import resolve_kernel
    from repro.kernels._numpy import NumpyKernel

    # The default backend serves everything; numpy is every backend's
    # fallback.
    for cls in {NumpyKernel, type(resolve_kernel(None))}:
        for method in ("msbfs_bitset", "msbfs_sparse", "one_removed_pass",
                       "aux_dijkstra"):
            setattr(cls, method, REC.wrap_sync(f"kernels.{method}",
                                               cls.__dict__[method]))

    from repro.core.chromland import ChromLandIndex
    from repro.core.powcov import PowCovIndex

    def powcov_counts(args: Any, _kw: Any, _result: Any) -> dict[str, Any]:
        index = args[0]
        per = getattr(index, "per_landmark", None) or []
        return {"sssp": sum(r.num_sssp for r in per),
                "entries": sum(r.total_entries for r in per)}

    PowCovIndex.build = REC.wrap_sync("powcov.build", PowCovIndex.build,
                                      powcov_counts)
    ChromLandIndex.build = REC.wrap_sync("chromland.build", ChromLandIndex.build)

    from repro.store.cache import IndexStore

    def store_kind(args: Any, _kw: Any, _result: Any) -> dict[str, Any]:
        return {"kind": args[1]}

    IndexStore.save = REC.wrap_sync("store.save", IndexStore.save)
    IndexStore.load = REC.wrap_sync("store.open", IndexStore.load, store_kind)

    import repro.core.dynamic as dynamic

    def repair_attrs(_args: Any, _kw: Any, result: Any) -> dict[str, Any]:
        return {"full_rebuild": bool(getattr(result, "full_rebuild", False))}

    dynamic.repair_index = REC.wrap_sync("dynamic.repair", dynamic.repair_index,
                                         repair_attrs)

    import repro.engine.executors as executors
    import repro.engine.session as session_mod

    session_mod.plan_batch = REC.wrap_sync("engine.plan_batch",
                                           session_mod.plan_batch)
    for cls in vars(executors).values():
        if not (inspect.isclass(cls) and issubclass(cls, executors.OracleExecutor)):
            continue
        if "prepare_mask" in cls.__dict__:
            cls.prepare_mask = REC.wrap_sync("engine.prepare_mask",
                                             cls.__dict__["prepare_mask"])
        if "execute_group" in cls.__dict__:
            cls.execute_group = REC.wrap_sync(
                "engine.execute_group", cls.__dict__["execute_group"],
                lambda a, _k, _r: {"n": len(a[2].positions)})

    QuerySession = session_mod.QuerySession
    QuerySession.run = REC.wrap_sync(
        "engine.run", QuerySession.run,
        lambda a, _k, _r: {"n": len(a[1]), "kind": a[0].oracle.name})

    import repro.serve.registry as registry_mod

    registry_mod.apply_delta = REC.wrap_sync("graph.apply_delta",
                                             registry_mod.apply_delta)
    GraphRegistry = registry_mod.GraphRegistry
    GraphRegistry.apply_delta = REC.wrap_sync("registry.apply_delta",
                                              GraphRegistry.apply_delta)
    # The lookups a read makes under the registry lock (the loop thread's
    # graph/oracle_kinds, the pool thread's session).
    for method in ("graph", "oracle_kinds", "session"):
        setattr(GraphRegistry, method, REC.wrap_sync(
            "registry.lookup", getattr(GraphRegistry, method)))

    import repro.serve.app as app_mod
    import repro.serve.batching as batching

    raw_read = app_mod.read_request

    async def read_request(reader: Any) -> Any:
        proxy = _ArrivalReader(reader)
        request = await raw_read(proxy)
        if request is not None and proxy.arrived:
            REC.add(REC.new_id(), "http.read", proxy.arrived, perf_counter(),
                    0, 0, {})
        return request

    app_mod.read_request = read_request

    ServeApp = app_mod.ServeApp

    def request_id(args: Any) -> int:
        try:
            return int(args[1].headers.get(REQUEST_ID_HEADER, 0))
        except (TypeError, ValueError):
            return 0

    ServeApp.dispatch = REC.wrap_async("app.dispatch", ServeApp.dispatch,
                                       new_request=request_id)
    ServeApp.handle_query = REC.wrap_async("app.handle_query",
                                           ServeApp.handle_query)
    ServeApp.handle_delta = REC.wrap_async("app.handle_delta",
                                           ServeApp.handle_delta)

    raw_execute = ServeApp._execute_sync

    def execute_sync(self: Any, *args: Any) -> Any:
        _ROLE.role = "read"
        try:
            return raw_execute(self, *args)
        finally:
            _ROLE.role = "delta"

    ServeApp._execute_sync = REC.wrap_sync("serve.execute", execute_sync)

    raw_key_lock = ServeApp._key_lock
    ServeApp._key_lock = lambda self, key: _TimedLock(raw_key_lock(self, key), key)

    raw_init = ServeApp.__init__

    def init(self: Any, *args: Any, **kwargs: Any) -> None:
        raw_init(self, *args, **kwargs)
        REC.app = self
        executor = self.executor
        raw_submit = executor.submit

        def submit(fn: Any, *fargs: Any, **fkwargs: Any) -> Any:
            queued = perf_counter()
            label = getattr(fn, "__name__", "task")

            def run(*a: Any, **k: Any) -> Any:
                REC.add(REC.new_id(), "serve.pool_wait", queued, perf_counter(),
                        0, 0, {"fn": label})
                return fn(*a, **k)

            return raw_submit(run, *fargs, **fkwargs)

        executor.submit = submit

    ServeApp.__init__ = init

    class TimedPending(batching._PendingRequest):
        __slots__ = ("t0",)

        def __init__(self, triples: Any, future: Any) -> None:
            super().__init__(triples, future)
            self.t0 = perf_counter()

    batching._PendingRequest = TimedPending
    MicroBatcher = batching.MicroBatcher
    raw_flush = MicroBatcher.flush_now

    def flush_now(self: Any) -> None:
        pending = list(self._pending)
        if pending:
            now = perf_counter()
            # submit() flushes synchronously only on size (or a zero
            # window); any other flush is the coalescing timer firing.
            by_size = self._pending_queries >= self.max_batch or self.window == 0
            REC.add(REC.new_id(), "batching.flush", now, now, 0, 0, {
                "queries": self._pending_queries,
                "timer": not by_size,
                "waits": [now - p.t0 for p in pending],
            })
        raw_flush(self)

    MicroBatcher.flush_now = flush_now
    MicroBatcher.submit = REC.wrap_async(
        "batching.submit", MicroBatcher.submit,
        attrs_of=lambda a, _k: {"n": len(a[1])})


def install_cli() -> None:
    """Wrap the names ``repro.serve.__main__`` imported at module load."""
    import repro.serve.__main__ as cli

    cli.load_dataset = REC.wrap_sync("graph.load", cli.load_dataset)
    cli.select_landmarks = REC.wrap_sync("landmarks.select", cli.select_landmarks)


def snapshot_sessions() -> dict[str, Any]:
    app = REC.app
    if app is None:
        return {}
    out: dict[str, Any] = {}
    registry = app.registry
    for name, kind in registry.session_keys():
        session = registry.session(name, kind)
        out[f"{name}/{kind}"] = {
            "cache_info": session.cache_info(),
            "counters": dict(session.stats.counters),
            "seconds": dict(session.stats.seconds),
        }
    return out


def main(argv: list[str]) -> int:
    out_path, serve_args = argv[0], argv[1:]
    install()
    install_cli()
    import repro.serve.__main__ as cli

    try:
        return cli.main(serve_args)
    finally:
        payload = {"spans": REC.spans, "sessions": snapshot_sessions()}
        tmp = out_path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
