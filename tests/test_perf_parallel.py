"""Tests for the parallel index-construction engine (`repro.perf`).

The contract under test: ``build(parallel=...)`` produces **bit-for-bit**
the same index as the serial build — the same table columns, the same
query answers — for every backend and worker count, on undirected,
directed and weighted graphs; and the shared-memory blocks backing the
process pool are always released, also when a worker raises.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.chromland import ChromLandIndex, local_search_selection
from repro.core.powcov import PowCovIndex, block_from_result
from repro.core.powcov.weighted import WeightedPowCovIndex
from repro.graph.generators import labeled_erdos_renyi
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.perf import shm as shm_mod
from repro.perf.parallel import (
    ParallelConfig,
    get_default_parallel,
    resolve_parallel,
    run_tasks,
    set_default_parallel,
)
from repro.workloads import generate_workload

PROCESS_2 = ParallelConfig(num_workers=2, backend="process")
THREAD_3 = ParallelConfig(num_workers=3, backend="thread", chunk_size=1)


def directed_random(n=40, m=150, labels=3, seed=0) -> EdgeLabeledGraph:
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.add((u, v, int(rng.integers(labels))))
    return EdgeLabeledGraph.from_edges(
        n, sorted(edges), num_labels=labels, directed=True
    )


def random_queries(graph, count=60, seed=0):
    rng = np.random.default_rng(seed)
    universe = (1 << graph.num_labels) - 1
    return [
        (
            int(rng.integers(graph.num_vertices)),
            int(rng.integers(graph.num_vertices)),
            int(rng.integers(1, universe + 1)),
        )
        for _ in range(count)
    ]


def assert_same_answers(a, b, graph):
    for s, t, mask in random_queries(graph):
        assert a.query(s, t, mask) == b.query(s, t, mask)


# ----------------------------------------------------------------------
# ParallelConfig semantics
# ----------------------------------------------------------------------
class TestConfig:
    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelConfig(backend="mpi")

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            ParallelConfig(num_workers=-1)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ParallelConfig(chunk_size=0)

    def test_resolve_int_shorthand(self):
        assert resolve_parallel(4) == ParallelConfig(num_workers=4)
        assert resolve_parallel(1).backend == "serial"

    def test_resolve_rejects_bool(self):
        with pytest.raises(TypeError):
            resolve_parallel(True)

    def test_default_is_serial_and_settable(self):
        assert get_default_parallel().backend == "serial"
        try:
            set_default_parallel(ParallelConfig(num_workers=2, backend="thread"))
            assert resolve_parallel(None).num_workers == 2
        finally:
            set_default_parallel(None)
        assert resolve_parallel(None).backend == "serial"

    def test_zero_workers_means_cpu_count(self):
        import os

        assert ParallelConfig(num_workers=0).effective_workers == (os.cpu_count() or 1)


# ----------------------------------------------------------------------
# PowCov: parallel == serial, entry for entry
# ----------------------------------------------------------------------
class TestPowCovParallel:
    @pytest.mark.parametrize("config", [PROCESS_2, THREAD_3, 2], ids=["process", "thread", "int"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_flat_layout_identical_undirected(self, config, seed):
        graph = labeled_erdos_renyi(70, 200, num_labels=4, seed=seed)
        landmarks = [0, 9, 23, 41, 66]
        serial = PowCovIndex(graph, landmarks).build()
        par = PowCovIndex(graph, landmarks).build(parallel=config)
        assert serial.forward.equals(par.forward)
        assert_same_answers(serial, par, graph)

    @pytest.mark.parametrize("config", [PROCESS_2, THREAD_3], ids=["process", "thread"])
    def test_directed_tables_identical(self, config):
        graph = directed_random(seed=5)
        landmarks = [0, 7, 14, 21]
        serial = PowCovIndex(graph, landmarks).build()
        par = PowCovIndex(graph, landmarks).build(parallel=config)
        assert serial.forward.equals(par.forward)
        assert serial.reverse.equals(par.reverse)
        assert_same_answers(serial, par, graph)

    @pytest.mark.parametrize("config", [PROCESS_2, THREAD_3], ids=["process", "thread"])
    def test_weighted_identical(self, config):
        graph = labeled_erdos_renyi(45, 120, num_labels=3, seed=7)
        weights = np.random.default_rng(0).integers(1, 6, size=graph.num_arcs)
        weights = weights.astype(np.float64)
        landmarks = [3, 19, 37]
        serial = WeightedPowCovIndex(graph, landmarks, weights).build()
        par = WeightedPowCovIndex(graph, landmarks, weights).build(parallel=config)
        assert serial.forward.dist.dtype == np.float64
        assert serial.forward.equals(par.forward)
        assert_same_answers(serial, par, graph)

    def test_build_one_matches_task_path(self):
        # _build_one (kept for stats/inspection code) and the chunk task
        # must stay the same code path.
        graph = labeled_erdos_renyi(40, 100, num_labels=3, seed=9)
        index = PowCovIndex(graph, [5])
        built = index.build()
        direct = index._build_one(5)
        assert built.per_landmark[0] == direct.counters()
        expected = block_from_result(direct, graph.num_vertices, np.int32)
        for got, want in zip(built.forward.block(0), expected):
            assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# ChromLand: parallel == serial on every stored table
# ----------------------------------------------------------------------
class TestChromLandParallel:
    @pytest.mark.parametrize("config", [PROCESS_2, THREAD_3], ids=["process", "thread"])
    def test_tables_identical_undirected(self, config):
        graph = labeled_erdos_renyi(80, 240, num_labels=4, seed=11)
        selection = local_search_selection(graph, 6, iterations=15, seed=0)
        serial = ChromLandIndex(graph, selection.landmarks, selection.colors).build()
        par = ChromLandIndex(graph, selection.landmarks, selection.colors).build(
            parallel=config
        )
        assert np.array_equal(serial.mono, par.mono)
        assert np.array_equal(serial.bi, par.bi)
        assert_same_answers(serial, par, graph)

    def test_tables_identical_directed(self):
        graph = directed_random(seed=13)
        landmarks = [0, 8, 16, 24]
        colors = [0, 1, 2, 0]
        serial = ChromLandIndex(graph, landmarks, colors).build()
        par = ChromLandIndex(graph, landmarks, colors).build(parallel=PROCESS_2)
        assert np.array_equal(serial.mono, par.mono)
        assert np.array_equal(serial.mono_in, par.mono_in)
        assert np.array_equal(serial.bi, par.bi)
        assert_same_answers(serial, par, graph)

    def test_workload_evaluation_unchanged(self):
        # End-to-end: identical indexes answer an identical workload.
        graph = labeled_erdos_renyi(60, 180, num_labels=3, seed=17)
        workload = generate_workload(graph, num_pairs=20, seed=1)
        selection = local_search_selection(graph, 4, iterations=10, seed=0)
        serial = ChromLandIndex(graph, selection.landmarks, selection.colors).build()
        par = ChromLandIndex(graph, selection.landmarks, selection.colors).build(
            parallel=PROCESS_2
        )
        for q in workload:
            assert serial.query(q.source, q.target, q.label_mask) == par.query(
                q.source, q.target, q.label_mask
            )


# ----------------------------------------------------------------------
# Shared-memory lifecycle
# ----------------------------------------------------------------------
def _echo_task(graphs, items, extra):
    return [graphs[0].num_vertices + item for item in items]


def _failing_task(graphs, items, extra):
    raise RuntimeError("worker exploded")


class TestSharedMemoryLifecycle:
    def test_roundtrip_preserves_graph(self):
        graph = labeled_erdos_renyi(50, 140, num_labels=4, seed=19)
        pack = shm_mod.share_graphs((graph,))
        try:
            attached = shm_mod.attach_graph(pack.descriptors[0])
            try:
                assert attached.graph == graph
                assert attached.graph.num_edges == graph.num_edges
                # Zero-copy: the view's buffer is shared memory, not a copy.
                assert attached.graph.indptr.base is not None
            finally:
                attached.close()
        finally:
            pack.release()
        for name in pack.block_names():
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_blocks_released_after_successful_run(self, monkeypatch):
        packs = []
        original = shm_mod.share_graphs

        def spy(graphs):
            pack = original(graphs)
            packs.append(pack)
            return pack

        monkeypatch.setattr(shm_mod, "share_graphs", spy)
        graph = labeled_erdos_renyi(30, 80, num_labels=3, seed=23)
        results = run_tasks(
            _echo_task, [1, 2, 3, 4], graphs=(graph,), config=PROCESS_2
        )
        assert results == [31, 32, 33, 34]
        assert packs, "process backend should have exported the graph"
        for pack in packs:
            for name in pack.block_names():
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)

    def test_blocks_unlinked_when_worker_raises(self, monkeypatch):
        packs = []
        original = shm_mod.share_graphs

        def spy(graphs):
            pack = original(graphs)
            packs.append(pack)
            return pack

        monkeypatch.setattr(shm_mod, "share_graphs", spy)
        graph = labeled_erdos_renyi(30, 80, num_labels=3, seed=29)
        with pytest.raises(RuntimeError, match="worker exploded"):
            run_tasks(_failing_task, [1, 2, 3, 4], graphs=(graph,), config=PROCESS_2)
        assert packs, "process backend should have exported the graph"
        for pack in packs:
            for name in pack.block_names():
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
class TestRunTasks:
    def test_serial_sees_all_items_at_once(self):
        seen = []

        def task(graphs, items, extra):
            seen.append(list(items))
            return list(items)

        out = run_tasks(task, [1, 2, 3], config=None)
        assert out == [1, 2, 3]
        assert seen == [[1, 2, 3]]  # one chunk: batched kernels see everything

    def test_results_in_item_order_with_tiny_chunks(self):
        items = list(range(17))
        config = ParallelConfig(num_workers=3, chunk_size=2, backend="thread")

        def task(graphs, chunk, extra):
            return [item * 10 for item in chunk]

        assert run_tasks(task, items, config=config) == [i * 10 for i in items]

    def test_result_count_mismatch_raises(self):
        def bad_task(graphs, chunk, extra):
            return [0]  # drops items

        config = ParallelConfig(num_workers=2, chunk_size=2, backend="thread")
        with pytest.raises(RuntimeError, match="results"):
            run_tasks(bad_task, [1, 2, 3, 4], config=config)

    def test_empty_items(self):
        assert run_tasks(_echo_task, [], config=PROCESS_2) == []
