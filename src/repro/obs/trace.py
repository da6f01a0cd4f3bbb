"""Zero-dependency structured tracing: nested spans over build/query/eval.

A *span* is one named, timed region of work — a PowCov landmark sweep, a
ChromLand build, one engine batch — carrying wall time, CPU time, integer
counters and string tags, plus its child spans.  The tracer assembles the
spans opened on each thread into trees; the CLI renders them
(:func:`render_trace`) or exports them as JSONL (:func:`write_jsonl`) so a
Table 3/4 run can be *explained* from the same process that produced it.

Tracing is **off by default** and the disabled path is near-free: ``span``
returns one shared no-op context manager, so instrumented library code
pays a single function call and no allocation.  Enable with
:func:`set_tracing` (the eval CLI's ``--trace`` flag).

Spans cross process boundaries by value: a worker calls
:func:`export_trace` and ships the plain-dict payload home with its
results, where :func:`attach_spans` grafts the subtree under the caller's
active span (see :mod:`repro.perf.parallel`).

Threading: each thread nests spans on its own stack; spans opened on a
thread with an empty stack become new roots.  The roots list itself is
lock-protected, so thread-pool builds trace safely.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from time import perf_counter, process_time
from types import TracebackType
from typing import Any

__all__ = [
    "Span",
    "set_tracing",
    "tracing_enabled",
    "span",
    "current_span",
    "get_trace",
    "reset_trace",
    "export_trace",
    "attach_spans",
    "render_trace",
    "trace_to_jsonl",
    "write_jsonl",
]


@dataclass
class Span:
    """One named, timed region with counters, tags and child spans."""

    name: str
    tags: dict[str, str] = field(default_factory=dict)
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    children: list[Span] = field(default_factory=list)
    status: str = "ok"

    def count(self, name: str, by: int = 1) -> None:
        """Add ``by`` to the span counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + by

    def tag(self, name: str, value: object) -> None:
        """Attach/overwrite a string tag."""
        self.tags[name] = str(value)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-safe, recursive) for export/IPC."""
        out: dict[str, Any] = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "status": self.status,
        }
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Span:
        """Rebuild a span tree from :meth:`to_dict` output."""
        return cls(
            name=str(data["name"]),
            tags={str(k): str(v) for k, v in data.get("tags", {}).items()},
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            cpu_seconds=float(data.get("cpu_seconds", 0.0)),
            counters={str(k): int(v) for k, v in data.get("counters", {}).items()},
            children=[cls.from_dict(c) for c in data.get("children", [])],
            status=str(data.get("status", "ok")),
        )


class _NullSpan:
    """No-op stand-in yielded while tracing is disabled."""

    __slots__ = ()

    def count(self, name: str, by: int = 1) -> None:
        pass

    def tag(self, name: str, value: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullHandle:
    """Shared disabled-path context manager: no allocation per ``span()``."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


_NULL_HANDLE = _NullHandle()


class Tracer:
    """Per-thread span stacks feeding one lock-protected roots list."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def open(self, span_obj: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span_obj)
        else:
            with self._lock:
                self.roots.append(span_obj)
        stack.append(span_obj)

    def close(self, span_obj: Span) -> None:
        stack = self._stack()
        # Pop back to (and including) span_obj; tolerates a worker that
        # leaked an unclosed child span rather than corrupting the stack.
        while stack:
            top = stack.pop()
            if top is span_obj:
                break

    def active(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def attach(self, spans: list[Span]) -> None:
        """Graft already-finished spans under the active span (or roots)."""
        parent = self.active()
        if parent is not None:
            parent.children.extend(spans)
        else:
            with self._lock:
                self.roots.extend(spans)

    def reset(self) -> None:
        with self._lock:
            self.roots = []
        self._local = threading.local()


_TRACER = Tracer()
_ENABLED = False


def set_tracing(enabled: bool) -> None:
    """Turn the tracer on/off process-wide (off = near-zero overhead)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def tracing_enabled() -> bool:
    return _ENABLED


class _SpanHandle:
    """Enabled-path context manager recording wall + CPU time."""

    __slots__ = ("_span", "_wall0", "_cpu0")

    def __init__(self, span_obj: Span) -> None:
        self._span = span_obj
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> Span:
        _TRACER.open(self._span)
        self._cpu0 = process_time()
        self._wall0 = perf_counter()
        return self._span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._span.wall_seconds += perf_counter() - self._wall0
        self._span.cpu_seconds += process_time() - self._cpu0
        if exc_type is not None:
            self._span.status = "error"
        _TRACER.close(self._span)
        return None


def span(name: str, **tags: object) -> _SpanHandle | _NullHandle:
    """Open a traced region::

        with span("powcov.build", k=8) as sp:
            ...
            sp.count("sssp", result.num_sssp)

    Returns the shared no-op handle while tracing is disabled.
    """
    if not _ENABLED:
        return _NULL_HANDLE
    return _SpanHandle(Span(name, tags={k: str(v) for k, v in tags.items()}))


def current_span() -> Span | _NullSpan:
    """The innermost open span on this thread (a no-op span when none)."""
    if not _ENABLED:
        return _NULL_SPAN
    active = _TRACER.active()
    return active if active is not None else _NULL_SPAN


def get_trace() -> list[Span]:
    """The root spans recorded since the last :func:`reset_trace`."""
    return list(_TRACER.roots)


def reset_trace() -> None:
    """Drop all recorded spans (does not change the enabled flag)."""
    _TRACER.reset()


def export_trace() -> list[dict[str, Any]]:
    """Root spans as plain dicts — the cross-process payload format."""
    return [root.to_dict() for root in _TRACER.roots]


def attach_spans(payload: list[dict[str, Any]]) -> None:
    """Graft exported span dicts under this thread's active span.

    The worker side of a process-backend build exports its spans with
    :func:`export_trace` and ships them with the chunk results; the parent
    calls this to splice them into its own tree.
    """
    if not payload:
        return
    _TRACER.attach([Span.from_dict(entry) for entry in payload])


# ----------------------------------------------------------------------
# Rendering + export
# ----------------------------------------------------------------------
def _render_span(span_obj: Span, depth: int, lines: list[str]) -> None:
    indent = "  " * depth
    parts = [
        f"{indent}{span_obj.name}",
        f"wall={span_obj.wall_seconds * 1e3:.1f}ms",
        f"cpu={span_obj.cpu_seconds * 1e3:.1f}ms",
    ]
    if span_obj.status != "ok":
        parts.append(f"status={span_obj.status}")
    if span_obj.tags:
        parts.append(
            "{" + ", ".join(f"{k}={v}" for k, v in sorted(span_obj.tags.items())) + "}"
        )
    if span_obj.counters:
        parts.append(
            "["
            + ", ".join(f"{k}={v}" for k, v in sorted(span_obj.counters.items()))
            + "]"
        )
    lines.append("  ".join(parts))
    for child in span_obj.children:
        _render_span(child, depth + 1, lines)


def render_trace(spans: list[Span] | None = None, title: str = "trace") -> str:
    """Indented text tree of the recorded spans (for the CLI)."""
    spans = get_trace() if spans is None else spans
    lines = [title]
    if not spans:
        lines.append("  (no spans recorded)")
    for root in spans:
        _render_span(root, 1, lines)
    return "\n".join(lines)


def _append_records(
    span_obj: Span, parent_id: int | None, next_id: list[int], out: list[dict[str, Any]]
) -> None:
    span_id = next_id[0]
    next_id[0] += 1
    record = span_obj.to_dict()
    record.pop("children", None)
    record["id"] = span_id
    record["parent_id"] = parent_id
    out.append(record)
    for child in span_obj.children:
        _append_records(child, span_id, next_id, out)


def trace_to_jsonl(spans: list[Span] | None = None) -> str:
    """One JSON object per span, parent links by id (JSONL export)."""
    spans = get_trace() if spans is None else spans
    records: list[dict[str, Any]] = []
    next_id = [0]
    for root in spans:
        _append_records(root, None, next_id, records)
    return "\n".join(json.dumps(record, sort_keys=True) for record in records)


def write_jsonl(path: str, spans: list[Span] | None = None) -> None:
    """Write the JSONL trace export to ``path``."""
    text = trace_to_jsonl(spans)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + ("\n" if text else ""))
