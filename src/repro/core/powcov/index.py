"""The Powerset Cover (PowCov) index — Section 3 of the paper.

For every landmark-vertex pair ``(x, u)`` the index stores the set
``SP_xu`` of SP-minimal label sets with their constrained distances.  By
Theorem 1, the exact constrained distance ``d_C(x, u)`` for *any* ``C`` is
the minimum stored distance over entries whose label set is a subset of
``C`` (or ``∞`` when none is).  A query ``⟨s, t, C⟩`` is then answered with
the classic landmark triangle inequality over those exact reconstructed
distances.

The entries live in one :class:`~repro.core.powcov.table.PowCovTable` per
direction — a landmark-major CSR over (landmark, vertex) pairs, each
pair's entries (distance, mask)-sorted so the first stored subset of
``C`` is the minimum.  The same table answers scalar queries, feeds the
batch executor, is audited, repaired block by block, and persisted; an
index opened from a store file is a plain :class:`PowCovIndex` whose
table columns are ``np.memmap`` sections.  Section 3.1's prefix-tree
grouping survives as an ablation view built from the table
(:func:`repro.core.trie.distance_groups`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ...graph.labeled_graph import EdgeLabeledGraph
from ...kernels import KernelBackend, kernel_name, resolve_kernel
from ...obs.trace import span
from ...perf.parallel import ParallelConfig, resolve_parallel, run_tasks
from ..types import INF, DistanceOracle, QueryAnswer
from .spminimal import (
    BuildCounters,
    LandmarkSPMinimal,
    brute_force_sp_minimal,
    traverse_powerset,
)
from .table import PowCovTable, block_from_result
from .waves import traverse_powerset_waves

__all__ = ["PowCovIndex"]

_BUILDERS = ("wave", "traverse", "traverse-paper", "brute", "wave-paper")
_ESTIMATORS = ("upper", "median")


class PowCovIndex(DistanceOracle):
    """Powerset Cover landmark index.

    Parameters
    ----------
    landmarks:
        Landmark vertex ids (see :mod:`repro.landmarks` for selection
        strategies; Section 3.3 recommends GreedyMVC).
    builder:
        ``"wave"`` (default) — the wave-batched kernel (Observations 1-3,
        one batched multi-source BFS per cardinality wave, ring-cached
        Theorem 2 — see :mod:`repro.core.powcov.waves`);
        ``"wave-paper"`` — the wave kernel with the CSR-direct
        Observation 4 sweep on top;
        ``"traverse"`` — Algorithm 2 with Observations 1-3 (scalar, one
        BFS per mask);
        ``"traverse-paper"`` — Algorithm 2 with all four pruning rules, as
        printed in the paper;
        ``"brute"`` — Algorithm 1.
        The last three are the paper-faithful reference builders for
        Table 3 and the differential harness.  All builders produce
        identical tables.
    estimator:
        ``"upper"`` — the paper's estimate, ``min_x d_C(x,s) + d_C(x,t)``;
        ``"median"`` — the median of the per-landmark upper bounds
        (Potamias et al.), kept for the estimator ablation.

    Notes
    -----
    A directed index keeps a second table of the same shape for the
    reverse legs (vertex → landmark, built on the reversed graph).
    """

    name = "powcov"
    #: dtype of the table's distance column (float64 for weighted PowCov).
    dist_dtype: type = np.int32

    def __init__(
        self,
        graph: EdgeLabeledGraph,
        landmarks: Sequence[int],
        builder: str = "wave",
        estimator: str = "upper",
    ):
        super().__init__(graph)
        if builder not in _BUILDERS:
            raise ValueError(f"builder must be one of {_BUILDERS}, got {builder!r}")
        if estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be one of {_ESTIMATORS}, got {estimator!r}")
        self.landmarks = list(landmarks)
        if len(set(self.landmarks)) != len(self.landmarks):
            raise ValueError("landmarks must be distinct")
        for x in self.landmarks:
            if not 0 <= x < graph.num_vertices:
                raise ValueError(f"landmark {x} out of range")
        self.builder = builder
        self.estimator = estimator
        #: landmark → vertex entries; ``reverse`` holds vertex → landmark
        #: entries of directed graphs (``None`` when undirected).
        self.forward: PowCovTable | None = None
        self.reverse: PowCovTable | None = None
        #: per-landmark counters of the last :meth:`build`'s forward sweeps.
        self.per_landmark: list[BuildCounters] = []
        #: landmark index of every vertex (-1 off the landmark set), for
        #: the distance-0 fixups a table cannot express.
        self._landmark_slot = np.full(graph.num_vertices, -1, dtype=np.int64)
        self._landmark_slot[self.landmarks] = np.arange(len(self.landmarks))
        #: fingerprint recorded in the file this index was loaded from (the
        #: engine session re-checks it against the live graph on open).
        self.stored_fingerprint: int | None = None
        self._built = False

    @classmethod
    def from_tables(
        cls,
        graph: EdgeLabeledGraph,
        landmarks: Sequence[int],
        forward: PowCovTable,
        reverse: PowCovTable | None = None,
        builder: str = "wave",
        estimator: str = "upper",
    ) -> "PowCovIndex":
        """An index serving already-laid-out tables (persistence loaders)."""
        index = cls(graph, landmarks, builder=builder, estimator=estimator)
        shape = (len(index.landmarks), graph.num_vertices)
        for table in (forward, reverse):
            if table is not None and (table.num_landmarks, table.num_vertices) != shape:
                raise ValueError(f"table shape does not match {shape}")
        if graph.directed and reverse is None:
            raise ValueError("a directed PowCov index needs the reverse table")
        index.forward = forward
        index.reverse = reverse if graph.directed else None
        index._built = True
        return index

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _build_task_extra(self) -> dict:
        """Picklable build parameters shipped to workers (subclass hook).

        The kernel is resolved to its *concrete* backend name here, in the
        parent: worker processes do not inherit ``set_default_kernel``
        state, and shipping the resolved name keeps every worker (and the
        serial path) on the same backend deterministically.
        """
        return {"builder": self.builder, "kernel": kernel_name()}

    def _build_one(self, landmark: int, graph=None) -> LandmarkSPMinimal:
        graph = self.graph if graph is None else graph
        return _build_landmark(graph, landmark, self._build_task_extra())

    def _table_from_results(
        self, results: list[LandmarkSPMinimal]
    ) -> tuple[PowCovTable, list[BuildCounters]]:
        n = self.graph.num_vertices
        blocks = []
        counters = []
        for result in results:
            blocks.append(block_from_result(result, n, self.dist_dtype))
            counters.append(result.counters())
            result.entries = {}  # release the dict as soon as it is laid out
        return PowCovTable.from_blocks(blocks, n, self.dist_dtype), counters

    def build(self, parallel: "ParallelConfig | int | None" = None) -> "PowCovIndex":
        """Compute SP-minimal sets for every landmark and lay out the table.

        Parameters
        ----------
        parallel:
            ``None`` (default) uses the process-wide default set via
            :func:`repro.perf.parallel.set_default_parallel` (serial unless
            an experiment driver opted in); an ``int`` is shorthand for
            ``ParallelConfig(num_workers=n)``.  Per-landmark sweeps are
            independent and their blocks are concatenated in landmark
            order, so the built table is bit-for-bit identical for every
            configuration.
        """
        config = resolve_parallel(parallel)
        with span(
            "powcov.build",
            builder=self.builder,
            backend=config.backend,
            kernel=kernel_name(),
        ) as build_span:
            build_span.count("landmarks", len(self.landmarks))
            items: list[tuple[int, int]] = [(x, 0) for x in self.landmarks]
            graphs: list[EdgeLabeledGraph] = [self.graph]
            if self.graph.directed:
                graphs.append(self.graph.reversed())
                items.extend((x, 1) for x in self.landmarks)
            results = run_tasks(
                _landmark_chunk_task,
                items,
                graphs=tuple(graphs),
                extra=self._build_task_extra(),
                config=config,
            )
            k = len(self.landmarks)
            self.forward, self.per_landmark = self._table_from_results(results[:k])
            self.reverse = None
            if self.graph.directed:
                self.reverse, _ = self._table_from_results(results[k:])
            self._built = True
            build_span.count("entries", self.index_size_entries())
            build_span.count("sssp", sum(r.num_sssp for r in results))
        return self

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("call build() before querying the index")

    # ------------------------------------------------------------------
    # Landmark-distance reconstruction (Theorem 1)
    # ------------------------------------------------------------------
    def _table(self, direction: str) -> PowCovTable:
        self._require_built()
        if direction == "to-landmark" and self.reverse is not None:
            return self.reverse
        assert self.forward is not None
        return self.forward

    def landmark_distance(
        self,
        landmark_index: int,
        vertex: int,
        label_mask: int,
        direction: str = "from-landmark",
    ) -> float:
        """Exact constrained landmark distance (Theorem 1 reconstruction).

        ``direction`` matters for directed graphs only: ``"from-landmark"``
        is ``d_C(x → u)``, ``"to-landmark"`` is ``d_C(u → x)`` (served from
        the reverse table).  Undirected graphs ignore it.
        """
        rows = self.landmark_rows(np.array([vertex]), label_mask, direction)
        return float(rows[0, landmark_index])

    def landmark_rows(
        self,
        vertices: np.ndarray,
        masks: "np.ndarray | int",
        direction: str = "from-landmark",
        kernel: "str | KernelBackend | None" = None,
    ) -> np.ndarray:
        """:meth:`landmark_distance` for every vertex × every landmark.

        ``masks`` holds one constraint mask per vertex (a plain int applies
        to all of them).  A ``(len(vertices), k)`` float64 matrix (``inf``
        = unreachable), shared by the scalar query and the batch executor;
        ``kernel`` is the :mod:`repro.kernels` backend that runs the
        lookup (bit-identical on every backend).
        """
        rows = self._table(direction).lookup_many(vertices, masks, kernel)
        slots = self._landmark_slot[vertices]
        own = slots >= 0
        if own.any():
            rows[own, slots[own]] = 0.0
        return rows

    # ------------------------------------------------------------------
    # Query processing
    # ------------------------------------------------------------------
    def query(self, source: int, target: int, label_mask: int) -> float:
        return self.query_answer(source, target, label_mask).estimate

    def query_answer(self, source: int, target: int, label_mask: int) -> QueryAnswer:
        """Triangle-inequality estimate over all landmarks.

        Upper bound: ``min_x d_C(s,x) + d_C(x,t)``.  Lower bound: the
        one-sided ``d_C(x,t) - d_C(x,s)`` and ``d_C(s,x) - d_C(t,x)`` over
        landmarks seeing both endpoints (on undirected graphs the two legs
        share one table and this is ``max_x |d_C(x,s) - d_C(x,t)|``).
        The headline estimate follows ``self.estimator``.
        """
        self._require_built()
        if source == target:
            return QueryAnswer(estimate=0.0, lower=0.0, upper=0.0)
        if label_mask == 0:
            return QueryAnswer(estimate=INF, lower=INF, upper=INF)
        ends = np.array([source, target])
        kernel = resolve_kernel(None)
        x_to_s, x_to_t = self.landmark_rows(
            ends, label_mask, kernel=kernel
        ).tolist()
        s_to_x, t_to_x = x_to_s, x_to_t
        if self.reverse is not None:
            s_to_x, t_to_x = self.landmark_rows(
                ends, label_mask, "to-landmark", kernel
            ).tolist()
        upper = INF
        lower = 0.0
        sums: list[float] = []
        # Per landmark x: d(x→s), d(x→t), d(s→x), d(t→x); on undirected
        # graphs both legs come from one table and the two one-sided lower
        # bounds make up max_x |d(x,s) - d(x,t)|.
        for xs, xt, sx, tx in zip(x_to_s, x_to_t, s_to_x, t_to_x):
            if xt != INF:
                if sx != INF:
                    total = sx + xt
                    sums.append(total)
                    upper = min(upper, total)
                if xs != INF:
                    lower = max(lower, xt - xs)
            if sx != INF and tx != INF:
                lower = max(lower, sx - tx)
        if not sums:
            return QueryAnswer(estimate=INF, lower=lower, upper=INF)
        if self.estimator == "median":
            sums.sort()
            estimate = sums[len(sums) // 2]
        else:
            estimate = upper
        return QueryAnswer(estimate=estimate, lower=lower, upper=upper)

    # ------------------------------------------------------------------
    # Size accounting (Table 2)
    # ------------------------------------------------------------------
    def _tables(self) -> list[PowCovTable]:
        self._require_built()
        return [t for t in (self.forward, self.reverse) if t is not None]

    def index_size_entries(self) -> int:
        """Total stored ``(label set, distance)`` entries across all pairs."""
        return sum(len(table) for table in self._tables())

    def reachable_pairs(self) -> int:
        """Landmark-vertex pairs with at least one stored entry."""
        return sum(
            int(np.count_nonzero(table.pair_counts())) for table in self._tables()
        )

    def average_entries_per_pair(self) -> float:
        """Table 2's measure: avg stored distances per reachable pair."""
        pairs = self.reachable_pairs()
        return self.index_size_entries() / pairs if pairs else 0.0

    def max_entries_per_pair(self) -> int:
        """The paper's ``H`` (bounded by Proposition 1)."""
        counts = self._tables()[0].pair_counts()
        return int(counts.max()) if len(counts) else 0

    def describe(self) -> str:
        return (
            f"{self.name}(k={len(self.landmarks)}, builder={self.builder}) "
            f"on {self.graph!r}"
        )


# ----------------------------------------------------------------------
# Build task functions.  Module-level so the process backend can ship them
# to workers by reference; serial and parallel builds share this single
# code path, which is what makes their outputs bit-for-bit identical.
# ----------------------------------------------------------------------
def _build_landmark(
    graph: EdgeLabeledGraph, landmark: int, extra: dict
) -> LandmarkSPMinimal:
    """One landmark's SP-minimal enumeration, parameterized by ``extra``."""
    with span("powcov.landmark", landmark=landmark) as landmark_span:
        result = _build_landmark_inner(graph, landmark, extra)
        landmark_span.count("entries", result.total_entries)
        landmark_span.count("sssp", result.num_sssp)
        landmark_span.count("full_tests", result.num_full_tests)
        landmark_span.count("auto_minimal", result.num_auto_minimal)
    return result


def _build_landmark_inner(
    graph: EdgeLabeledGraph, landmark: int, extra: dict
) -> LandmarkSPMinimal:
    weights = extra.get("weights")
    if weights is not None:
        from .weighted import weighted_sp_minimal  # local: avoids cycle

        return weighted_sp_minimal(graph, landmark, weights)
    builder = extra["builder"]
    kernel = extra.get("kernel")
    if builder == "brute":
        return brute_force_sp_minimal(graph, landmark)
    if builder == "traverse-paper":
        return traverse_powerset(graph, landmark)
    if builder == "traverse":
        return traverse_powerset(graph, landmark, use_obs4=False)
    if builder == "wave-paper":
        return traverse_powerset_waves(graph, landmark, kernel=kernel)
    return traverse_powerset_waves(graph, landmark, use_obs4=False, kernel=kernel)


def _landmark_chunk_task(
    graphs: tuple[EdgeLabeledGraph, ...], items, extra: dict
) -> list[LandmarkSPMinimal]:
    """Chunk task: each item is ``(landmark, graph_index)``.

    ``graph_index`` selects the forward (0) or reversed (1) graph — the
    directed build fans both table families out over the same pool.
    """
    return [
        _build_landmark(graphs[graph_index], landmark, extra)
        for landmark, graph_index in items
    ]
