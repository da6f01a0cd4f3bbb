"""Open-loop load generator: one process, at most ``nproc`` connections.

:func:`open_loop` sends pre-encoded request ``i`` when it falls due
(``t0 + due[i]``) whatever the server's state, on the first free
keep-alive connection, and keeps the raw replies for verification after
the phase.  Latency is measured from the due time, so a stall also
charges the requests queued behind it; the generator's own lag (dispatch
time minus due time) is reported as ``lateness``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter

#: Seconds a request may take before it counts as a timeout failure.
REQUEST_TIMEOUT = 30.0


def encode_request(method: str, path: str, body: bytes, request_id: int) -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"X-Bench-Id: {request_id}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive HTTP/1.1 connection; returns ``(status, body)``."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _open(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._reader is None or self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )
        return self._reader, self._writer

    async def send(self, raw: bytes) -> tuple[int, bytes]:
        reader, writer = await self._open()
        writer.write(raw)
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        close = False
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        body = await reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, body

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


@dataclass
class Outcome:
    """One request as the client saw it (``status`` 0 = transport error)."""

    index: int
    status: int
    body: bytes
    due: float
    sent: float
    done: float


@dataclass
class LoopResult:
    outcomes: list[Outcome] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0


async def _send(conn: Connection, raw: bytes) -> tuple[int, bytes]:
    try:
        return await asyncio.wait_for(conn.send(raw), REQUEST_TIMEOUT)
    except (asyncio.TimeoutError, ConnectionError, OSError,
            asyncio.IncompleteReadError, ValueError, IndexError):
        await conn.close()  # the stream state is unknown: start afresh
        return 0, b""


async def open_loop(
    port: int, requests: list[bytes], due: list[float], connections: int
) -> LoopResult:
    """Send ``requests[i]`` at ``due[i]`` seconds after the start."""
    result = LoopResult()
    queue: asyncio.Queue[int | None] = asyncio.Queue()
    conns = [Connection(port) for _ in range(connections)]
    for conn in conns:
        await conn._open()
    t0 = perf_counter() + 0.05
    result.started = t0

    async def dispatch() -> None:
        for i, offset in enumerate(due):
            target = t0 + offset
            delay = target - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lateness.append(perf_counter() - target)
            queue.put_nowait(i)
        for _ in conns:
            queue.put_nowait(None)

    async def work(conn: Connection) -> None:
        while True:
            i = await queue.get()
            if i is None:
                return
            sent = perf_counter()
            status, body = await _send(conn, requests[i])
            result.outcomes.append(
                Outcome(i, status, body, t0 + due[i], sent, perf_counter())
            )

    try:
        await asyncio.gather(dispatch(), *(work(c) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    result.finished = max((o.done for o in result.outcomes), default=t0)
    return result


async def send_one(port: int, raw: bytes) -> tuple[int, bytes]:
    """A single request on a fresh connection (set-up and probes)."""
    conn = Connection(port)
    try:
        return await _send(conn, raw)
    finally:
        await conn.close()
