"""Tests for the runtime invariant auditors (``repro.analysis.audit``).

Covers the clean path (freshly built graph + indexes audit clean — the
post-build hook the auditors were designed for), targeted in-memory
corruptions of every audited structure with precise-location assertions,
and the two wire-ups: ``EngineConfig.audit``/``QuerySession(audit=True)``
and the eval CLI's ``--selfcheck``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.audit import (
    AuditError,
    assert_clean,
    audit_chromland,
    audit_graph,
    audit_oracle,
    audit_powcov,
    format_report,
    run_selfcheck,
)
from repro.core.chromland import ChromLandIndex
from repro.core.chromland.selection import majority_colors
from repro.core.powcov import PowCovIndex, PowCovTable, TableBlock
from repro.engine import QuerySession
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.graph.generators import chromatic_cluster_graph
from repro.graph.labelsets import full_mask
from repro.landmarks import select_landmarks

K = 4


@pytest.fixture(scope="module")
def graph():
    return chromatic_cluster_graph(
        num_vertices=48, num_edges=150, num_labels=4, seed=11
    )


@pytest.fixture(scope="module")
def landmarks(graph):
    return select_landmarks(graph, K, seed=11)


@pytest.fixture()
def powcov(graph, landmarks):
    return PowCovIndex(graph, landmarks).build()


@pytest.fixture()
def chromland(graph, landmarks):
    # Distinct colors so the bi-chromatic table has finite entries to audit
    # (majority colors can collapse onto one dominant label on small graphs).
    colors = [i % graph.num_labels for i in range(K)]
    return ChromLandIndex(graph, landmarks, colors).build()


def graph_copy(graph):
    """A structurally identical graph whose arrays the test may corrupt."""
    return EdgeLabeledGraph(
        graph.indptr.copy(),
        graph.neighbors.copy(),
        graph.edge_labels.copy(),
        num_labels=graph.num_labels,
        directed=graph.directed,
        num_edges=graph.num_edges,
    )


def checks_of(violations):
    return {v.check for v in violations}


# ----------------------------------------------------------------------
# Clean path: freshly built objects audit clean (the post-build hook).
# ----------------------------------------------------------------------
def test_fresh_graph_audits_clean(graph):
    assert audit_graph(graph) == []


def test_fresh_powcov_audits_clean(powcov):
    # Exhaustive sampling: every stored entry BFS-verified, none flagged.
    assert audit_powcov(powcov, samples=10_000) == []


def test_fresh_chromland_audits_clean(chromland):
    assert audit_chromland(chromland, samples=50) == []


def test_audit_oracle_dispatch(powcov, chromland):
    assert audit_oracle(powcov) == []
    assert audit_oracle(chromland) == []


def test_directed_powcov_audits_clean():
    rng = np.random.default_rng(5)
    n = 36
    arcs = {
        (int(u), int(v)): int(label)
        for u, v, label in zip(
            rng.integers(0, n, 140), rng.integers(0, n, 140), rng.integers(0, 3, 140)
        )
        if u != v
    }
    g = EdgeLabeledGraph.from_edges(
        n, [(u, v, label) for (u, v), label in arcs.items()],
        num_labels=3, directed=True,
    )
    index = PowCovIndex(g, select_landmarks(g, 3, seed=5)).build()
    assert audit_powcov(index, samples=10_000) == []


def test_audit_requires_built(graph, landmarks):
    with pytest.raises(ValueError, match="built"):
        audit_powcov(PowCovIndex(graph, landmarks))
    with pytest.raises(ValueError, match="built"):
        audit_chromland(
            ChromLandIndex(graph, landmarks, majority_colors(graph, landmarks))
        )


def test_selfcheck_is_clean():
    assert run_selfcheck(scale=0.2, samples=6) == []


# ----------------------------------------------------------------------
# Graph corruptions
# ----------------------------------------------------------------------
def test_graph_neighbor_out_of_range(graph):
    bad = graph_copy(graph)
    bad.neighbors[3] = bad.num_vertices + 7
    violations = audit_graph(bad)
    assert "graph.neighbor-range" in checks_of(violations)
    hit = next(v for v in violations if v.check == "graph.neighbor-range")
    assert hit.location == "arc 3"
    assert str(bad.num_vertices + 7) in hit.message


def test_graph_label_out_of_range(graph):
    bad = graph_copy(graph)
    bad.edge_labels[0] = bad.num_labels + 2
    violations = audit_graph(bad)
    hit = next(v for v in violations if v.check == "graph.label-range")
    assert hit.location == "arc 0"


def test_graph_indptr_corruptions(graph):
    bad = graph_copy(graph)
    bad.indptr[0] = 1
    assert "graph.indptr-start" in checks_of(audit_graph(bad))

    bad = graph_copy(graph)
    bad.indptr[2] = bad.indptr[1] - 1  # decreasing step
    violations = audit_graph(bad)
    hit = next(v for v in violations if v.check == "graph.indptr-monotone")
    assert "indptr[" in hit.location


def test_graph_broken_symmetry(graph):
    bad = graph_copy(graph)
    bad.edge_labels[0] = (int(bad.edge_labels[0]) + 1) % bad.num_labels
    violations = audit_graph(bad)
    hit = next(v for v in violations if v.check == "graph.undirected-symmetry")
    assert "no stored reverse arc" in hit.message


# ----------------------------------------------------------------------
# PowCov corruptions
# ----------------------------------------------------------------------
def entry_site(index):
    """A (landmark, vertex, pairs) triple with at least one stored entry."""
    table = index.forward
    pair = int(np.flatnonzero(table.pair_counts())[0])
    i, u = divmod(pair, table.num_vertices)
    dists, masks = table.pair(i, u)
    return i, u, list(zip(dists.tolist(), masks.tolist()))


def store_pair(index, i, u, pairs):
    """Write ``pairs`` (kept in the given order) as pair ``(i, u)``'s entries."""
    counts, dists, masks = index.forward.block(i)
    counts = counts.copy()
    start = int(counts[:u].sum())
    stop = start + int(counts[u])
    counts[u] = len(pairs)
    new_d = np.array([d for d, _ in pairs], dtype=dists.dtype)
    new_m = np.array([m for _, m in pairs], dtype=np.int64)
    block = TableBlock(
        counts,
        np.concatenate([dists[:start], new_d, dists[stop:]]),
        np.concatenate([masks[:start], new_m, masks[stop:]]),
    )
    index.forward = index.forward.replace_blocks({i: block})


def test_powcov_dominated_entry_reported(powcov, graph):
    i, u, pairs = entry_site(powcov)
    d0, m0 = pairs[0]
    extra = next(
        b for b in range(graph.num_labels) if not m0 & (1 << b)
    )
    # A superset of the first entry's mask at a larger distance can never be
    # SP-minimal next to its stored subset.
    pairs.append((pairs[-1][0] + 1, m0 | (1 << extra)))
    store_pair(powcov, i, u, pairs)
    violations = audit_powcov(powcov, samples=0)
    hit = next(v for v in violations if v.check == "powcov.incomparable")
    assert f"landmark {i} (vertex {powcov.landmarks[i]}), vertex {u}" == hit.location
    assert "not SP-minimal" in hit.message


def test_powcov_duplicate_entry_reported(powcov):
    i, u, pairs = entry_site(powcov)
    pairs.append((pairs[-1][0], pairs[-1][1]))
    store_pair(powcov, i, u, pairs)
    violations = audit_powcov(powcov, samples=0)
    hit = next(v for v in violations if v.check == "powcov.entry-duplicate")
    assert f"vertex {u}" in hit.location
    assert "stored twice" in hit.message


def test_powcov_wrong_distance_reported(powcov):
    i, u, pairs = entry_site(powcov)
    d0, m0 = pairs[-1]
    pairs[-1] = (d0 + 1, m0)
    store_pair(powcov, i, u, pairs)
    # Exhaustive sampling guarantees the doctored entry is re-derived.
    violations = audit_powcov(powcov, samples=10_000)
    hits = checks_of(violations)
    # The inflated distance either disagrees with the BFS or stops being
    # SP-minimal (a one-label-removed subset now ties it) — both are bugs.
    assert hits & {"powcov.distance", "powcov.sp-minimal", "powcov.incomparable"}


def test_powcov_broken_offsets_reported(powcov):
    table = powcov.forward
    offsets = np.array(table.offsets)
    offsets[1], offsets[2] = offsets[2] + 1, offsets[1]
    powcov.forward = PowCovTable(
        offsets, table.dist, table.mask, table.num_landmarks, table.num_vertices
    )
    violations = audit_powcov(powcov, samples=5)
    assert checks_of(violations) == {"powcov.table-offsets"}


def test_powcov_mask_domain_reported(powcov, graph):
    i, u, pairs = entry_site(powcov)
    pairs.append((pairs[-1][0] + 1, full_mask(graph.num_labels) + 1))
    store_pair(powcov, i, u, pairs)
    violations = audit_powcov(powcov, samples=0)
    assert "powcov.entry-mask-domain" in checks_of(violations)


# ----------------------------------------------------------------------
# ChromLand corruptions
# ----------------------------------------------------------------------
def test_chromland_mono_self_reported(chromland):
    x = int(chromland.landmarks[0])
    chromland.mono[0, x] = 3
    violations = audit_chromland(chromland, samples=0)
    hit = next(v for v in violations if v.check == "chromland.mono-self")
    assert hit.location == f"landmark 0 (vertex {x})"
    assert "cd(x, x)" in hit.message


def test_chromland_mono_distance_reported(chromland):
    # Corrupt a non-landmark cell: only the BFS spot-check can see it.
    x = int(chromland.landmarks[0])
    u = next(
        v for v in range(chromland.graph.num_vertices)
        if v != x and chromland.mono[0, v] > 0
    )
    chromland.mono[0, u] += 1
    violations = audit_chromland(chromland, samples=K)
    hit = next(v for v in violations if v.check == "chromland.mono-distance")
    assert f"vertex {u}" in hit.location


def test_chromland_bi_corruption_reported(chromland):
    cells = np.argwhere(chromland.bi >= 0)
    assert len(cells), "need at least one finite bi-chromatic distance"
    i, j = (int(v) for v in cells[0])
    chromland.bi[i, j] += 1
    violations = audit_chromland(chromland, samples=K * K)
    hits = checks_of(violations)
    # Asymmetric now (undirected graph) and off the true d_{c(x),c(y)}.
    assert hits & {"chromland.bi-symmetry", "chromland.bi-distance"}
    locations = {v.location for v in violations}
    assert any(f"({i}, {j})" in loc or f"({j}, {i})" in loc for loc in locations)


def test_chromland_color_out_of_range_reported(chromland):
    chromland.colors[1] = chromland.graph.num_labels + 5
    violations = audit_chromland(chromland, samples=0)
    hit = next(v for v in violations if v.check == "chromland.color-range")
    assert "landmark 1" in hit.location


# ----------------------------------------------------------------------
# Report plumbing and wire-ups
# ----------------------------------------------------------------------
def test_assert_clean_and_format_report(powcov):
    assert_clean([])  # no violations, no raise
    assert format_report([]) == "audit: all invariants hold"

    i, u, pairs = entry_site(powcov)
    pairs.append((pairs[-1][0], pairs[-1][1]))
    store_pair(powcov, i, u, pairs)
    violations = audit_powcov(powcov, samples=0)
    report = format_report(violations)
    assert "violation(s)" in report
    assert "powcov.entry-duplicate" in report
    with pytest.raises(AuditError) as excinfo:
        assert_clean(violations)
    assert excinfo.value.violations == violations
    assert "entry-duplicate" in str(excinfo.value)


def test_session_audit_flag(powcov):
    # Clean oracle: the audited session constructs and serves normally.
    session = QuerySession(powcov, audit=True)
    x = int(powcov.landmarks[0])
    mask = full_mask(powcov.graph.num_labels)
    assert session.query(x, x, mask) == 0.0

    i, u, pairs = entry_site(powcov)
    pairs.append((pairs[-1][0], pairs[-1][1]))
    store_pair(powcov, i, u, pairs)
    with pytest.raises(AuditError):
        QuerySession(powcov, audit=True)
    # The flag is opt-in: an unaudited session still constructs.
    QuerySession(powcov, audit=False)


def test_selfcheck_cli_flag(capsys):
    from repro.eval.cli import main

    code = main(["table1", "--scale", "0.15", "--pairs", "30", "--selfcheck"])
    out = capsys.readouterr().out
    assert code == 0
    assert "selfcheck passed" in out
