# lint-module: repro/engine/executors.py
"""Fixture: a per-query scalar loop in an executor that should vectorize."""

from __future__ import annotations


class FancyExecutor:
    """Not the designated fallback, so looping the batch is a violation."""

    oracle: object

    def execute(self, batch: object) -> list[float]:
        out: list[float] = []
        for s, t, mask in zip(batch.sources, batch.targets, batch.masks):
            out.append(self.oracle.query(int(s), int(t), int(mask)))
        return out
