# lint-module: repro/engine/executors.py
"""Fixture: the designated ScalarLoopExecutor fallback may loop per query."""

from __future__ import annotations


class ScalarLoopExecutor:
    """The one executor allowed to draw its loop from the batch columns."""

    oracle: object

    def execute(self, batch: object) -> list[float]:
        out: list[float] = []
        for s, t, mask in zip(batch.sources, batch.targets, batch.masks):
            out.append(self.oracle.query(int(s), int(t), int(mask)))
        return out
