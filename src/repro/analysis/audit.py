"""Runtime invariant auditors for the graph substrate and both indexes.

Where :mod:`repro.analysis.lint` checks the *source tree*, this module
checks *live objects*: a built index that passed every unit test can still
be corrupted later (a bad serializer round-trip, an in-place mutation that
slipped past REPRO001, a buggy new builder).  Three auditors re-verify the
paper's structural guarantees directly against the definitions:

* :func:`audit_graph` — CSR well-formedness of an
  :class:`~repro.graph.labeled_graph.EdgeLabeledGraph`: consistent
  ``indptr``, in-range neighbors and labels, arc symmetry for undirected
  graphs, mask-domain limits.
* :func:`audit_powcov` — Theorem 1 material: the pair CSR offsets are
  well formed, per-pair entries are
  distance-sorted, duplicate-free and *mutually incomparable* (no stored
  set is a subset of another stored set at an equal-or-smaller distance —
  otherwise the superset is not SP-minimal), plus a seeded spot-check
  that re-derives sampled entries with a constrained BFS and re-runs the
  Theorem 2 one-label-removed minimality test.
* :func:`audit_chromland` — Section 4 material: one in-range color per
  landmark, mono/bi-chromatic table shape and symmetry consistency, a
  seeded BFS spot-check of sampled table rows, and the Theorem 5
  upper-bound property (``query() >= d_C``) on sampled queries.

Every auditor returns a list of :class:`AuditViolation` with a precise,
human-readable location (`"landmark 2 (vertex 17), vertex 9, entry
(3, {0,2})"`), never raising on violations — callers decide whether to
report (``--selfcheck``) or abort (:class:`AuditError` via
:func:`assert_clean`, used by the ``EngineConfig.audit`` debug flag).

Auditors are *diagnostic* tools: spot-checks cost one constrained BFS per
sample and are meant for debug runs and post-build test hooks, not for
production query paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..graph.labeled_graph import EdgeLabeledGraph
from ..graph.labelsets import (
    full_mask,
    iter_one_removed,
    label_bit,
    labels_from_mask,
    mask_to_str,
)
from ..graph.traversal import UNREACHABLE, constrained_bfs, constrained_distance

if TYPE_CHECKING:
    from ..core.chromland import ChromLandIndex
    from ..core.powcov import PowCovIndex, PowCovTable
    from ..core.types import DistanceOracle

__all__ = [
    "AuditViolation",
    "AuditError",
    "audit_graph",
    "audit_powcov",
    "audit_chromland",
    "audit_oracle",
    "assert_clean",
    "format_report",
    "run_selfcheck",
]


@dataclass(frozen=True)
class AuditViolation:
    """One violated invariant at one precisely-located place."""

    check: str  #: dotted invariant id, e.g. ``"powcov.incomparable"``
    location: str  #: where, e.g. ``"landmark 1 (vertex 4), vertex 9"``
    message: str  #: what went wrong, with the offending values

    def format(self) -> str:
        return f"[{self.check}] {self.location}: {self.message}"


class AuditError(RuntimeError):
    """Raised by :func:`assert_clean` when an audit found violations."""

    def __init__(self, violations: list[AuditViolation]):
        self.violations = violations
        super().__init__(format_report(violations))


def format_report(violations: list[AuditViolation]) -> str:
    """Render an audit result for logs and the ``--selfcheck`` CLI."""
    if not violations:
        return "audit: all invariants hold"
    lines = [f"audit: {len(violations)} violation(s)"]
    lines.extend("  " + violation.format() for violation in violations)
    return "\n".join(lines)


def assert_clean(violations: list[AuditViolation]) -> None:
    """Raise :class:`AuditError` iff ``violations`` is non-empty."""
    if violations:
        raise AuditError(violations)


# ----------------------------------------------------------------------
# Graph substrate
# ----------------------------------------------------------------------
def audit_graph(graph: EdgeLabeledGraph) -> list[AuditViolation]:
    """Verify CSR well-formedness of ``graph``."""
    out: list[AuditViolation] = []

    def bad(check: str, location: str, message: str) -> None:
        out.append(AuditViolation(f"graph.{check}", location, message))

    indptr, neighbors, labels = graph.indptr, graph.neighbors, graph.edge_labels
    n = graph.num_vertices
    if len(indptr) != n + 1:
        bad("indptr-length", "indptr", f"length {len(indptr)}, expected n+1={n + 1}")
        return out  # every later check indexes through indptr
    if int(indptr[0]) != 0:
        bad("indptr-start", "indptr[0]", f"must be 0, found {int(indptr[0])}")
    if int(indptr[-1]) != len(neighbors):
        bad(
            "indptr-end",
            f"indptr[{n}]",
            f"must equal num_arcs={len(neighbors)}, found {int(indptr[-1])}",
        )
    steps = np.diff(indptr)
    decreasing = np.nonzero(steps < 0)[0]
    if len(decreasing):
        u = int(decreasing[0])
        bad(
            "indptr-monotone",
            f"indptr[{u}..{u + 1}]",
            f"decreasing offsets {int(indptr[u])} -> {int(indptr[u + 1])}",
        )
        return out  # slices below would be nonsense
    if len(neighbors) != len(labels):
        bad(
            "parallel-arrays",
            "neighbors/edge_labels",
            f"lengths differ: {len(neighbors)} vs {len(labels)}",
        )
        return out
    out_of_range = np.nonzero((neighbors < 0) | (neighbors >= n))[0]
    if len(out_of_range):
        arc = int(out_of_range[0])
        bad(
            "neighbor-range",
            f"arc {arc}",
            f"neighbor id {int(neighbors[arc])} outside [0, {n})",
        )
    bad_labels = np.nonzero((labels < 0) | (labels >= graph.num_labels))[0]
    if len(bad_labels):
        arc = int(bad_labels[0])
        bad(
            "label-range",
            f"arc {arc}",
            f"label id {int(labels[arc])} outside [0, {graph.num_labels})",
        )
    if out or len(neighbors) == 0:
        pass  # symmetry below needs sane arcs; skip on earlier failures
    elif not graph.directed:
        if len(neighbors) % 2 != 0:
            bad(
                "arc-parity",
                "neighbors",
                f"undirected graph stores odd arc count {len(neighbors)}",
            )
        else:
            sources = np.repeat(np.arange(n, dtype=np.int64), steps)
            forward = np.stack(
                [sources, neighbors.astype(np.int64), labels.astype(np.int64)]
            )
            backward = np.stack(
                [neighbors.astype(np.int64), sources, labels.astype(np.int64)]
            )
            f_order = np.lexsort(forward[::-1])
            b_order = np.lexsort(backward[::-1])
            mismatch = np.nonzero(
                (forward[:, f_order] != backward[:, b_order]).any(axis=0)
            )[0]
            if len(mismatch):
                arc = int(f_order[mismatch[0]])
                bad(
                    "undirected-symmetry",
                    f"arc {arc}",
                    f"arc ({int(sources[arc])} -> {int(neighbors[arc])}, "
                    f"label {int(labels[arc])}) has no stored reverse arc",
                )
    expected_arcs = graph.num_edges if graph.directed else 2 * graph.num_edges
    if not out and len(neighbors) != expected_arcs:
        bad(
            "edge-count",
            "num_edges",
            f"num_edges={graph.num_edges} implies {expected_arcs} arcs, "
            f"found {len(neighbors)}",
        )
    if graph.label_universe is not None and len(graph.label_universe) < graph.num_labels:
        bad(
            "universe-coverage",
            "label_universe",
            f"universe names {len(graph.label_universe)} labels but the "
            f"graph declares {graph.num_labels}",
        )
    return out


# ----------------------------------------------------------------------
# PowCov (Theorem 1 material)
# ----------------------------------------------------------------------
def _pair_entries(
    table: "PowCovTable",
) -> list[tuple[int, int, list[tuple[float, int]]]]:
    """``(landmark index, vertex, entries)`` of every non-empty pair."""
    offsets = np.asarray(table.offsets).tolist()
    dists = np.asarray(table.dist).tolist()
    masks = np.asarray(table.mask).tolist()
    n = table.num_vertices
    return [
        (p // n, p % n, list(zip(dists[offsets[p]:offsets[p + 1]],
                                 masks[offsets[p]:offsets[p + 1]])))
        for p in np.flatnonzero(table.pair_counts()).tolist()
    ]


def _audit_powcov_tables(
    graph: EdgeLabeledGraph,
    table: "PowCovTable",
    landmarks: list[int],
    side: str,
) -> list[AuditViolation]:
    """Structural checks over one direction's pair CSR table."""
    out: list[AuditViolation] = []
    universe = full_mask(graph.num_labels)
    suffix = f" [{side}]" if side else ""

    def where(i: int, u: int) -> str:
        return f"landmark {i} (vertex {landmarks[i]}), vertex {u}{suffix}"

    def bad(check: str, i: int, u: int, message: str) -> None:
        out.append(AuditViolation(f"powcov.{check}", where(i, u), message))

    offsets = np.asarray(table.offsets)
    expected = len(landmarks) * graph.num_vertices + 1
    if (
        table.num_vertices != graph.num_vertices
        or len(offsets) != expected
        or offsets[0] != 0
        or offsets[-1] != len(table)
        or bool((np.diff(offsets) < 0).any())
    ):
        out.append(AuditViolation(
            "powcov.table-offsets", f"offsets{suffix}",
            f"expected {expected} non-decreasing offsets from 0 to {len(table)}",
        ))
        return out

    for i, u, pairs in _pair_entries(table):
        if u == landmarks[i]:
            bad("self-entry", i, u, "landmark stores entries for itself")
        if sorted(pairs) != pairs:
            bad("entry-order", i, u, f"entries not (distance, mask)-sorted: {pairs}")
        seen_masks: set[int] = set()
        for d, mask in pairs:
            if d <= 0:
                bad("entry-distance", i, u, f"non-positive distance {d} for mask "
                    f"{mask_to_str(mask)}")
            if mask <= 0 or mask & ~universe:
                bad("entry-mask-domain", i, u,
                    f"mask {bin(mask)} outside the {graph.num_labels}-label universe")
            if mask in seen_masks:
                bad("entry-duplicate", i, u, f"mask {mask_to_str(mask)} stored twice")
            seen_masks.add(mask)
        # Mutual incomparability: a stored subset at an equal-or-smaller
        # distance makes the stored superset non-SP-minimal.
        for a, (da, ma) in enumerate(pairs):
            for db, mb in pairs[a + 1 :]:
                if ma != mb and ma & mb == ma and da <= db:
                    bad(
                        "incomparable", i, u,
                        f"entry ({db}, {mask_to_str(mb)}) is dominated by "
                        f"its stored subset ({da}, {mask_to_str(ma)}) — "
                        "not SP-minimal",
                    )
                if ma != mb and ma & mb == mb and db <= da:
                    bad(
                        "incomparable", i, u,
                        f"entry ({da}, {mask_to_str(ma)}) is dominated by "
                        f"its stored subset ({db}, {mask_to_str(mb)}) — "
                        "not SP-minimal",
                    )
    return out


def _spot_check_powcov(
    graph: EdgeLabeledGraph,
    table: "PowCovTable",
    landmarks: list[int],
    side: str,
    samples: int,
    rng: random.Random,
) -> list[AuditViolation]:
    """Re-derive sampled entries with a constrained BFS (Theorem 2 test)."""
    out: list[AuditViolation] = []
    population = [
        (i, u, d, mask)
        for i, u, pairs in _pair_entries(table)
        for d, mask in pairs
    ]
    if not population:
        return out
    chosen = rng.sample(population, min(samples, len(population)))
    # One BFS serves every sampled entry sharing a (landmark, mask) pair.
    dist_cache: dict[tuple[int, int], np.ndarray] = {}
    for i, u, d, mask in chosen:
        key = (i, mask)
        dist = dist_cache.get(key)
        if dist is None:
            dist = constrained_bfs(graph, landmarks[i], mask)
            dist_cache[key] = dist
        suffix = f" [{side}]" if side else ""
        location = f"landmark {i} (vertex {landmarks[i]}), vertex {u}{suffix}"
        actual = int(dist[u])
        if actual == UNREACHABLE or actual != d:
            out.append(
                AuditViolation(
                    "powcov.distance",
                    location,
                    f"stored ({d}, {mask_to_str(mask)}) but BFS gives "
                    f"d_C = {'inf' if actual == UNREACHABLE else actual}",
                )
            )
            continue
        for sub in iter_one_removed(mask):
            if sub == 0:
                continue
            sub_dist = dist_cache.get((i, sub))
            if sub_dist is None:
                sub_dist = constrained_bfs(graph, landmarks[i], sub)
                dist_cache[(i, sub)] = sub_dist
            sub_d = int(sub_dist[u])
            if sub_d != UNREACHABLE and sub_d <= d:
                out.append(
                    AuditViolation(
                        "powcov.sp-minimal",
                        location,
                        f"entry ({d}, {mask_to_str(mask)}) is not SP-minimal: "
                        f"subset {mask_to_str(sub)} reaches the vertex at "
                        f"distance {sub_d}",
                    )
                )
                break
    return out


def audit_powcov(
    index: "PowCovIndex", samples: int = 12, seed: int = 0
) -> list[AuditViolation]:
    """Verify the Theorem 1 storage invariants of a built PowCov index.

    ``samples`` entries (per table family) are additionally re-derived via
    constrained BFS and re-tested for SP-minimality; ``seed`` drives the
    sampling so failures reproduce.
    """
    if not getattr(index, "_built", False):
        raise ValueError("audit_powcov requires a built index (call build() first)")
    graph = index.graph
    rng = random.Random(seed)
    out: list[AuditViolation] = []
    sides = [("", graph, index.forward)]
    if index.reverse is not None:
        sides.append(("reverse", graph.reversed(), index.reverse))
    for side, sweep_graph, table in sides:
        assert table is not None
        violations = _audit_powcov_tables(graph, table, index.landmarks, side)
        out.extend(violations)
        if not any(v.check == "powcov.table-offsets" for v in violations):
            out.extend(_spot_check_powcov(
                sweep_graph, table, index.landmarks, side, samples, rng
            ))
    return out


# ----------------------------------------------------------------------
# ChromLand (Section 4 material)
# ----------------------------------------------------------------------
def audit_chromland(
    index: "ChromLandIndex", samples: int = 12, seed: int = 0
) -> list[AuditViolation]:
    """Verify a built ChromLand index against the Section 4 definitions.

    Checks the color assignment, the mono/bi-chromatic table shapes and
    symmetry, re-derives ``samples`` sampled table rows/cells with
    constrained BFS, and asserts the Theorem 5 upper-bound property
    (``query(s, t, C) >= d_C(s, t)``) on ``samples`` random queries.
    """
    if not getattr(index, "_built", False):
        raise ValueError("audit_chromland requires a built index (call build() first)")
    out: list[AuditViolation] = []

    def bad(check: str, location: str, message: str) -> None:
        out.append(AuditViolation(f"chromland.{check}", location, message))

    graph = index.graph
    k = index.num_landmarks
    n = graph.num_vertices
    landmarks = index.landmarks
    colors = index.colors

    # -- color assignment: exactly one in-range color per landmark -----
    if len(colors) != k:
        bad("color-arity", "colors", f"{len(colors)} colors for {k} landmarks")
        return out
    for i in range(k):
        color = int(colors[i])
        if not 0 <= color < graph.num_labels:
            bad(
                "color-range",
                f"landmark {i} (vertex {int(landmarks[i])})",
                f"color {color} outside [0, {graph.num_labels})",
            )

    # -- mono-chromatic table -------------------------------------------
    mono = index.mono
    if mono is None or mono.shape != (k, n):
        shape = None if mono is None else mono.shape
        bad("mono-shape", "mono", f"expected ({k}, {n}), found {shape}")
        return out
    for i in range(k):
        x = int(landmarks[i])
        if int(mono[i, x]) != 0:
            bad(
                "mono-self",
                f"landmark {i} (vertex {x})",
                f"cd(x, x) must be 0, found {int(mono[i, x])}",
            )
    below = np.argwhere(mono < UNREACHABLE)
    if len(below):
        i, u = (int(v) for v in below[0])
        bad(
            "mono-domain",
            f"landmark {i} (vertex {int(landmarks[i])}), vertex {u}",
            f"distance {int(mono[i, u])} below the unreachable sentinel",
        )

    # -- bi-chromatic table ---------------------------------------------
    bi = index.bi
    if bi is None or bi.shape != (k, k):
        shape = None if bi is None else bi.shape
        bad("bi-shape", "bi", f"expected ({k}, {k}), found {shape}")
        return out
    same_color = colors[:, None] == colors[None, :]
    misfiled = np.argwhere(same_color & (bi != UNREACHABLE))
    if len(misfiled):
        i, j = (int(v) for v in misfiled[0])
        bad(
            "bi-monochromatic",
            f"landmark pair ({i}, {j})",
            f"same-color pair (color {int(colors[i])}) stores bi-chromatic "
            f"distance {int(bi[i, j])}",
        )
    if not graph.directed:
        asymmetric = np.argwhere(bi != bi.T)
        if len(asymmetric):
            i, j = (int(v) for v in asymmetric[0])
            bad(
                "bi-symmetry",
                f"landmark pair ({i}, {j})",
                f"cd({i},{j})={int(bi[i, j])} but cd({j},{i})={int(bi[j, i])} "
                "on an undirected graph",
            )

    rng = random.Random(seed)

    # -- BFS spot-check of sampled mono rows and bi cells ---------------
    for i in rng.sample(range(k), min(samples, k)):
        x = int(landmarks[i])
        expected = constrained_bfs(graph, x, label_bit(int(colors[i])))
        mismatch = np.nonzero(mono[i] != expected)[0]
        if len(mismatch):
            u = int(mismatch[0])
            bad(
                "mono-distance",
                f"landmark {i} (vertex {x}), vertex {u}",
                f"stored cd = {int(mono[i, u])} but a {{{int(colors[i])}}}-"
                f"constrained BFS gives {int(expected[u])}",
            )
    bi_cells = [(i, j) for i in range(k) for j in range(k) if colors[i] != colors[j]]
    for i, j in rng.sample(bi_cells, min(samples, len(bi_cells))):
        mask = label_bit(int(colors[i])) | label_bit(int(colors[j]))
        expected_d = constrained_distance(
            graph, int(landmarks[i]), int(landmarks[j]), mask
        )
        stored = int(bi[i, j])
        stored_d = float("inf") if stored == UNREACHABLE else float(stored)
        if stored_d != expected_d:
            bad(
                "bi-distance",
                f"landmark pair ({i}, {j})",
                f"stored cd = {stored_d} but d_{{{int(colors[i])},"
                f"{int(colors[j])}}} = {expected_d}",
            )

    # -- Theorem 5: estimates are sound upper bounds --------------------
    universe = full_mask(graph.num_labels)
    color_masks = [label_bit(int(color)) for color in colors]
    for _ in range(samples):
        s = rng.randrange(n)
        t = rng.randrange(n)
        # Random constraint that keeps at least one landmark usable, so the
        # estimate is not trivially infinite.
        mask = rng.randint(1, universe) | rng.choice(color_masks)
        estimate = index.query(s, t, mask)
        exact = constrained_distance(graph, s, t, mask)
        if estimate < exact:
            bad(
                "theorem5-upper-bound",
                f"query ({s}, {t}, {mask_to_str(mask)})",
                f"estimate {estimate} undercuts the exact distance {exact}",
            )
    return out


# ----------------------------------------------------------------------
# Dispatch + selfcheck
# ----------------------------------------------------------------------
def audit_oracle(
    oracle: "DistanceOracle", samples: int = 12, seed: int = 0
) -> list[AuditViolation]:
    """Audit ``oracle``'s graph plus whatever index family it carries."""
    from ..core.chromland import ChromLandIndex
    from ..core.powcov import PowCovIndex

    out = audit_graph(oracle.graph)
    if isinstance(oracle, PowCovIndex):
        out.extend(audit_powcov(oracle, samples=samples, seed=seed))
    elif isinstance(oracle, ChromLandIndex):
        out.extend(audit_chromland(oracle, samples=samples, seed=seed))
    return out


def run_selfcheck(
    scale: float = 0.25, seed: int = 7, k: int = 6, samples: int = 12
) -> list[AuditViolation]:
    """Build small instances of both indexes and audit everything.

    This is what ``python -m repro.eval.cli <cmd> --selfcheck`` runs before
    the requested command: a fast end-to-end proof that the graph substrate
    and both index builders uphold their invariants in this environment.
    """
    from ..core.chromland import ChromLandIndex
    from ..core.chromland.selection import majority_colors
    from ..core.powcov import PowCovIndex
    from ..graph.generators import chromatic_cluster_graph
    from ..landmarks import select_landmarks

    num_vertices = max(40, int(240 * scale))
    graph = chromatic_cluster_graph(
        num_vertices=num_vertices,
        num_edges=3 * num_vertices,
        num_labels=5,
        seed=seed,
    )
    out = audit_graph(graph)
    landmarks = select_landmarks(graph, min(k, graph.num_vertices), seed=seed)
    powcov = PowCovIndex(graph, landmarks).build()
    out.extend(audit_powcov(powcov, samples=samples, seed=seed))
    chromland = ChromLandIndex(
        graph, landmarks, majority_colors(graph, landmarks)
    ).build()
    out.extend(audit_chromland(chromland, samples=samples, seed=seed))
    return out
