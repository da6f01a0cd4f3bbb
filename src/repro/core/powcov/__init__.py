"""Powerset Cover index (Section 3 of the paper)."""

from __future__ import annotations

from .index import PowCovIndex
from .spminimal import (
    BuildCounters,
    LandmarkSPMinimal,
    brute_force_sp_minimal,
    generate_candidates,
    generate_candidates_apriori,
    traverse_powerset,
)
from .stats import IndexSizeReport, compare_index_sizes
from .table import PowCovTable, TableBlock, block_from_result
from .waves import traverse_powerset_waves, wave_schedule
from .weighted import WeightedPowCovIndex, weighted_sp_minimal

__all__ = [
    "PowCovIndex",
    "WeightedPowCovIndex",
    "weighted_sp_minimal",
    "PowCovTable",
    "TableBlock",
    "block_from_result",
    "BuildCounters",
    "LandmarkSPMinimal",
    "brute_force_sp_minimal",
    "generate_candidates",
    "generate_candidates_apriori",
    "traverse_powerset",
    "traverse_powerset_waves",
    "wave_schedule",
    "IndexSizeReport",
    "compare_index_sizes",
]
