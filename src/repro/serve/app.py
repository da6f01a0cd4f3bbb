"""The asyncio serving application: routing, batching, and the server.

Request flow for ``POST /graphs/{name}/query``::

    connection handler ──> dispatch ──> MicroBatcher.submit
                                             │  (coalesce while a batch runs)
                                             ▼
                              ThreadPoolExecutor: session.run(batch)
                                             │  (numpy work off the loop)
                                             ▼
                              answers scattered back per request

One :class:`~repro.serve.batching.MicroBatcher` exists per
``(graph, oracle)`` key, feeding the warm
:class:`~repro.engine.QuerySession` the :class:`GraphRegistry` holds for
that key; engine execution runs on a small thread pool so the event loop
never blocks on numpy, and a per-key mutex keeps each session
single-threaded.  Answers ride the wire as JSON numbers produced by
Python ``repr`` — float64 round-trips exactly, so HTTP answers are
bit-identical to in-process ``execute_batch`` (asserted across every
oracle family in ``tests/test_serve.py`` and the differential harness's
``http`` axis).  Unreachable is ``null`` on the wire (JSON has no
``Infinity``).

Endpoints (full reference in ``docs/SERVING.md``):

====== ============================ =======================================
GET    ``/healthz``                 liveness + uptime
GET    ``/graphs``                  registry metadata listing
GET    ``/metrics``                 Prometheus text exposition
POST   ``/graphs/{name}/query``     single ``{source, target, labels}`` or
                                    batch ``{queries: [...]}``
POST   ``/graphs/{name}/delta``     hot-reload a dynamic-graph delta
====== ============================ =======================================
"""

from __future__ import annotations

import asyncio
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from ..graph.delta import GraphDelta
from ..graph.labelsets import full_mask, mask_from_labels
from ..obs.metrics import registry as _metrics_registry
from ..store.format import FormatError
from .batching import MicroBatcher, Triple
from .http import (
    HttpError,
    HttpRequest,
    json_response_bytes,
    read_request,
    response_bytes,
)
from .registry import GraphRegistry, UnknownGraphError, UnknownOracleError

__all__ = ["ServeConfig", "ServeApp", "ReproServer", "ServerThread"]


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return int(raw) if raw else default


@dataclass
class ServeConfig:
    """Deployment knobs; every field has a ``REPRO_SERVE_*`` env default."""

    host: str = "127.0.0.1"
    port: int = 8321
    batch_max: int = 256
    workers: int = 2
    max_sessions: int = 32
    cache_size: int = 4096
    kernel: str | None = None

    @classmethod
    def from_env(cls) -> "ServeConfig":
        return cls(
            host=os.environ.get("REPRO_SERVE_HOST", cls.host),
            port=_env_int("REPRO_SERVE_PORT", cls.port),
            batch_max=_env_int("REPRO_SERVE_BATCH_MAX", cls.batch_max),
            workers=_env_int("REPRO_SERVE_WORKERS", cls.workers),
            max_sessions=_env_int("REPRO_SERVE_MAX_SESSIONS", cls.max_sessions),
            cache_size=_env_int("REPRO_SERVE_CACHE_SIZE", cls.cache_size),
            kernel=os.environ.get("REPRO_SERVE_KERNEL") or None,
        )


def wire_distance(value: float) -> float | None:
    """A distance as it rides the wire: ``inf`` becomes ``None``/``null``.

    Finite float64 values serialize via Python ``repr`` (the ``json``
    module's float formatting), which round-trips bit-exactly.
    """
    return None if math.isinf(value) else float(value)


def from_wire_distance(value: float | None) -> float:
    """Inverse of :func:`wire_distance` for clients."""
    return math.inf if value is None else float(value)


class ServeApp:
    """Routes + per-(graph, oracle) micro-batchers over a registry."""

    def __init__(
        self,
        registry: GraphRegistry | None = None,
        config: ServeConfig | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry or GraphRegistry(
            max_sessions=self.config.max_sessions,
            cache_size=self.config.cache_size,
            kernel=self.config.kernel,
        )
        self.executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="repro-serve",
        )
        self._batchers: dict[tuple[str, str], MicroBatcher] = {}
        # One mutex per (graph, oracle): QuerySession is not thread-safe,
        # so even with many pool workers each session runs one batch at a
        # time; the delta handler grabs every lock of a graph to quiesce
        # it during rebind.
        self._key_locks: dict[tuple[str, str], threading.Lock] = {}
        self._state_lock = threading.Lock()
        self._started = perf_counter()
        # Live connection-handler tasks; cancelled on server stop so
        # keep-alive connections never outlive the loop.
        self._connections: set["asyncio.Task[Any]"] = set()

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------
    def _key_lock(self, key: tuple[str, str]) -> threading.Lock:
        with self._state_lock:
            lock = self._key_locks.get(key)
            if lock is None:
                lock = self._key_locks[key] = threading.Lock()
            return lock

    def _execute_sync(
        self, name: str, kind: str, triples: list[Triple]
    ) -> list[float]:
        session = self.registry.session(name, kind)
        with self._key_lock((name, kind)):
            return session.run(triples)

    def batcher(self, name: str, kind: str) -> MicroBatcher:
        key = (name, kind)
        with self._state_lock:
            batcher = self._batchers.get(key)
            if batcher is None:

                def execute(
                    triples: list[Triple], _name: str = name, _kind: str = kind
                ) -> "asyncio.Future[list[float]]":
                    loop = asyncio.get_running_loop()
                    return loop.run_in_executor(
                        self.executor, self._execute_sync, _name, _kind, triples
                    )

                batcher = MicroBatcher(execute, max_batch=self.config.batch_max)
                self._batchers[key] = batcher
            return batcher

    def close(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # Request parsing
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_vertex(value: Any, field: str, num_vertices: int) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise HttpError(400, f"{field!r} must be an integer vertex id")
        if not 0 <= value < num_vertices:
            raise HttpError(
                400,
                f"{field!r} out of range: {value} "
                f"(graph has {num_vertices} vertices)",
            )
        return value

    @staticmethod
    def _check_mask(mask: Any) -> int:
        if isinstance(mask, bool) or not isinstance(mask, int) or mask < 0:
            raise HttpError(400, "'mask' must be a non-negative integer")
        return mask

    @staticmethod
    def _coerce_mask(item: dict[str, Any], num_labels: int) -> int:
        if "mask" in item and "labels" in item:
            raise HttpError(400, "give either 'mask' or 'labels', not both")
        if "mask" in item:
            return ServeApp._check_mask(item["mask"])
        if "labels" in item:
            labels = item["labels"]
            if not isinstance(labels, list) or any(
                isinstance(x, bool) or not isinstance(x, int) or x < 0
                for x in labels
            ):
                raise HttpError(
                    400, "'labels' must be a list of non-negative label ids"
                )
            return mask_from_labels(labels)
        return full_mask(num_labels)  # unconstrained query

    def _parse_query_item(
        self, item: Any, num_vertices: int, num_labels: int
    ) -> Triple:
        if isinstance(item, list):
            if len(item) != 3:
                raise HttpError(
                    400, "triple-form queries must be [source, target, mask]"
                )
            source, target, mask = item
            return (
                self._coerce_vertex(source, "source", num_vertices),
                self._coerce_vertex(target, "target", num_vertices),
                self._check_mask(mask),
            )
        if not isinstance(item, dict):
            raise HttpError(400, "each query must be an object or a triple")
        source = self._coerce_vertex(item.get("source"), "source", num_vertices)
        target = self._coerce_vertex(item.get("target"), "target", num_vertices)
        mask = self._coerce_mask(item, num_labels)
        return (source, target, mask)

    def _resolve_oracle_kind(self, name: str, payload: dict[str, Any]) -> str:
        kinds = self.registry.oracle_kinds(name)
        if not kinds:
            raise HttpError(404, f"graph {name!r} has no oracles")
        kind = payload.get("oracle")
        if kind is None:
            return kinds[0]
        if not isinstance(kind, str):
            raise HttpError(400, "'oracle' must be a string")
        if kind not in kinds:
            raise HttpError(
                404, f"graph {name!r} has no {kind!r} oracle (available: {kinds})"
            )
        return kind

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def handle_query(self, name: str, request: HttpRequest) -> bytes:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        try:
            graph = self.registry.graph(name)
        except UnknownGraphError:
            raise HttpError(404, f"unknown graph {name!r}") from None
        kind = self._resolve_oracle_kind(name, payload)
        num_vertices = int(graph.num_vertices)
        num_labels = int(graph.num_labels)

        batch_mode = "queries" in payload
        if batch_mode:
            raw = payload["queries"]
            if not isinstance(raw, list):
                raise HttpError(400, "'queries' must be a list")
            triples = [
                self._parse_query_item(item, num_vertices, num_labels)
                for item in raw
            ]
        else:
            triples = [self._parse_query_item(payload, num_vertices, num_labels)]

        try:
            answers = await self.batcher(name, kind).submit(triples)
        except UnknownOracleError as exc:
            raise HttpError(404, str(exc)) from None
        except FormatError as exc:
            raise HttpError(500, f"index load failed: {exc}") from None

        if batch_mode:
            body: dict[str, Any] = {
                "graph": name,
                "oracle": kind,
                "distances": [wire_distance(d) for d in answers],
            }
        else:
            body = {
                "graph": name,
                "oracle": kind,
                "distance": wire_distance(answers[0]),
                "reachable": not math.isinf(answers[0]),
            }
        return json_response_bytes(200, body, keep_alive=request.keep_alive)

    async def handle_delta(self, name: str, request: HttpRequest) -> bytes:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")

        def ops(field: str, arity: int) -> tuple[tuple[int, ...], ...]:
            raw = payload.get(field, [])
            if not isinstance(raw, list):
                raise HttpError(400, f"{field!r} must be a list")
            out = []
            for op in raw:
                if (
                    not isinstance(op, list)
                    or len(op) != arity
                    or any(
                        isinstance(x, bool) or not isinstance(x, int) for x in op
                    )
                ):
                    raise HttpError(
                        400, f"each {field!r} op must be {arity} integers"
                    )
                out.append(tuple(op))
            return tuple(out)

        delta = GraphDelta(
            insertions=ops("insertions", 3),  # type: ignore[arg-type]
            deletions=ops("deletions", 3),  # type: ignore[arg-type]
            relabels=ops("relabels", 4),  # type: ignore[arg-type]
        )

        def apply_locked() -> dict[str, Any]:
            # Quiesce every session of this graph before mutating it.
            kinds = sorted(
                {k for (n, k) in self.registry.session_keys() if n == name}
            )
            locks = [self._key_lock((name, kind)) for kind in kinds]
            for lock in locks:
                lock.acquire()
            try:
                return self.registry.apply_delta(name, delta)
            finally:
                for lock in reversed(locks):
                    lock.release()

        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(self.executor, apply_locked)
        except UnknownGraphError:
            raise HttpError(404, f"unknown graph {name!r}") from None
        except (ValueError, KeyError) as exc:
            raise HttpError(400, f"invalid delta: {exc}") from None
        return json_response_bytes(200, result, keep_alive=request.keep_alive)

    def handle_healthz(self, request: HttpRequest) -> bytes:
        body = {
            "status": "ok",
            "uptime_seconds": perf_counter() - self._started,
            "graphs": len(self.registry.graph_names()),
            "sessions": len(self.registry.session_keys()),
        }
        return json_response_bytes(200, body, keep_alive=request.keep_alive)

    def handle_graphs(self, request: HttpRequest) -> bytes:
        body = {"graphs": self.registry.describe()}
        return json_response_bytes(200, body, keep_alive=request.keep_alive)

    def handle_metrics(self, request: HttpRequest) -> bytes:
        text = _metrics_registry().to_prometheus()
        return response_bytes(
            200,
            text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
            keep_alive=request.keep_alive,
        )

    # ------------------------------------------------------------------
    # Dispatch + connection loop
    # ------------------------------------------------------------------
    async def dispatch(self, request: HttpRequest) -> bytes:
        segments = request.segments
        if request.method == "GET":
            if segments == ["healthz"]:
                return self.handle_healthz(request)
            if segments == ["graphs"]:
                return self.handle_graphs(request)
            if segments == ["metrics"]:
                return self.handle_metrics(request)
        elif request.method == "POST":
            if len(segments) == 3 and segments[0] == "graphs":
                name, action = segments[1], segments[2]
                if action == "query":
                    return await self.handle_query(name, request)
                if action == "delta":
                    return await self.handle_delta(name, request)
        elif request.method not in ("GET", "POST", "HEAD"):
            raise HttpError(405, f"method {request.method} not allowed")
        raise HttpError(404, f"no route for {request.method} {request.path}")

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        registry = _metrics_registry()
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    registry.counter("serve.http_errors").inc()
                    writer.write(
                        json_response_bytes(
                            exc.status, {"error": exc.message}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                registry.counter("serve.http_requests").inc()
                started = perf_counter()
                try:
                    response = await self.dispatch(request)
                except HttpError as exc:
                    registry.counter("serve.http_errors").inc()
                    response = json_response_bytes(
                        exc.status,
                        {"error": exc.message},
                        keep_alive=request.keep_alive,
                    )
                except Exception as exc:
                    registry.counter("serve.http_errors").inc()
                    response = json_response_bytes(
                        500,
                        {"error": f"{type(exc).__name__}: {exc}"},
                        keep_alive=request.keep_alive,
                    )
                registry.histogram(
                    "serve.request_seconds", lo=1e-6, hi=100.0
                ).observe(perf_counter() - started)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass  # RuntimeError: transport already torn down with loop


class ReproServer:
    """An app bound to a TCP port inside a running event loop."""

    def __init__(self, app: ServeApp, host: str | None = None, port: int | None = None) -> None:
        self.app = app
        self.host = host if host is not None else app.config.host
        # port 0 asks the kernel for an ephemeral port (tests).
        self.port = port if port is not None else app.config.port
        self._server: asyncio.Server | None = None

    async def start(self) -> "ReproServer":
        self._server = await asyncio.start_server(
            self.app.handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # wait_closed() only covers the listener; idle keep-alive
        # connections still have handler tasks parked in read_request.
        for task in list(self.app._connections):
            task.cancel()
        if self.app._connections:
            await asyncio.gather(
                *self.app._connections, return_exceptions=True
            )
        self.app.close()

    @property
    def url(self) -> str:
        host = "127.0.0.1" if self.host in ("0.0.0.0", "::") else self.host
        return f"http://{host}:{self.port}"


class ServerThread:
    """A live server on a background thread — the in-process test harness.

    ::

        with ServerThread(app) as server:
            http.client.HTTPConnection("127.0.0.1", server.port)
    """

    def __init__(self, app: ServeApp, host: str = "127.0.0.1", port: int = 0) -> None:
        self.app = app
        self.server = ReproServer(app, host=host, port=port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._bound = False

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def main() -> None:
            self._stop_event = asyncio.Event()
            # start_server begins accepting immediately; no serve_forever
            # needed — just keep the loop alive until stop() fires.
            await self.server.start()
            self._bound = True
            self._ready.set()
            await self._stop_event.wait()
            await self.server.stop()

        try:
            loop.run_until_complete(main())
        finally:
            self._ready.set()  # unblock start() even if startup failed
            loop.close()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-test", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("server thread failed to start")
        if not self._bound:
            raise RuntimeError("server failed to bind")
        return self

    def stop(self) -> None:
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # loop already closed between the check and the call
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
