"""Process-wide engine defaults, mirroring ``repro.perf.parallel``.

The evaluation harness (``evaluate_oracle`` / ``time_oracle`` and the
table regenerators above them) consults :func:`default_engine` whenever a
caller passes ``engine=None``, so one CLI flag (``--engine``) flips the
whole experiment pipeline onto the batch path without threading a
parameter through every layer.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EngineConfig", "set_default_engine", "default_engine", "resolve_engine"]


@dataclass(frozen=True)
class EngineConfig:
    """How the evaluation harness should execute queries.

    ``audit`` is a debug flag: sessions created under it run the
    :mod:`repro.analysis.audit` invariant auditors against the wrapped
    oracle (and its graph) at construction time and raise
    :class:`~repro.analysis.audit.AuditError` on any violation.  It is
    off by default — the audits re-derive distances with constrained BFS
    and are far too slow for production query serving.

    ``kernel`` selects the :mod:`repro.kernels` backend sessions use for
    their compiled query loops (currently the ChromLand auxiliary-graph
    Dijkstra): one of ``"numpy"``/``"numba"``/``"cext"``/``"auto"`` or
    ``None`` for the process default chain (``set_default_kernel`` →
    ``REPRO_KERNEL`` env → ``"auto"``).  Backends are bit-identical, so
    this only ever changes latency.
    """

    enabled: bool = False
    cache_size: int = 4096
    audit: bool = False
    kernel: str | None = None


_DEFAULT = EngineConfig()


def set_default_engine(config: EngineConfig | None) -> None:
    """Install the process-wide default (``None`` restores scalar mode)."""
    global _DEFAULT
    _DEFAULT = config if config is not None else EngineConfig()


def default_engine() -> EngineConfig:
    return _DEFAULT


def resolve_engine(engine: "EngineConfig | bool | None") -> EngineConfig:
    """Normalize an ``engine`` argument: None -> default, bool -> config."""
    if engine is None:
        return _DEFAULT
    if isinstance(engine, bool):
        return EngineConfig(enabled=engine)
    return engine
