"""Property tests for :mod:`repro.kernels`: bit-identity and the registry.

Each compiled backend (numba when importable, the on-demand C extension
when a C compiler is on ``PATH``) is tested *in isolation* against the
numpy reference for all five protocol methods — directed and undirected
graphs, weighted auxiliary graphs, PowCov tables with empty pairs, no
landmarks, weighted distances and read-only ``np.memmap`` columns, and the
PR-4 edge cases (empty graphs, a trailing vertex with no in-arcs, whose
reversed-CSR segment is empty).
Every comparison is exact ``==``: the kernels contract is bit-identity,
not tolerance.

The registry tests pin the selection semantics: probe results are
memoized (one import attempt per backend per process), an explicit
request for an unavailable backend emits exactly one structured
:class:`KernelFallbackWarning`, and the ``set_default_kernel`` →
``REPRO_KERNEL`` → ``"auto"`` chain resolves as documented.
"""

from __future__ import annotations

import builtins
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.graph.labeled_graph import EdgeLabeledGraph
from repro.kernels import (
    KERNEL_CHOICES,
    KernelFallbackWarning,
    available_kernels,
    get_default_kernel,
    kernel_name,
    resolve_kernel,
    set_default_kernel,
)
from repro.perf.batched import batched_constrained_bfs

NUMPY = resolve_kernel("numpy")

KERNEL_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        # ``compiled`` only resolves a memoized backend instance; sharing
        # it across hypothesis examples is intentional.
        HealthCheck.function_scoped_fixture,
    ],
)


@pytest.fixture(params=["numba", "cext"])
def compiled(request):
    """One compiled backend, skipping when its toolchain is absent."""
    name = request.param
    if name == "numba":
        pytest.importorskip("numba")
    if name not in available_kernels():
        pytest.skip(f"{name} kernel backend unavailable in this environment")
    return resolve_kernel(name)


@pytest.fixture(autouse=True)
def _clean_registry():
    """Leave the process-wide kernel default/warning state as found."""
    yield
    kernels._reset_for_tests()


# ----------------------------------------------------------------------
# Graph strategies
# ----------------------------------------------------------------------
@st.composite
def labeled_graphs(draw) -> EdgeLabeledGraph:
    """Small directed/undirected labeled multigraph-free graphs."""
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=10))
    num_labels = draw(st.integers(min_value=1, max_value=4))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if not directed:
        pairs = [(u, v) for u, v in pairs if u < v]
    chosen = draw(
        st.lists(
            st.sampled_from(pairs),
            min_size=0,
            max_size=min(3 * n, len(pairs)),
            unique=True,
        )
    )
    labels = draw(
        st.lists(
            st.integers(0, num_labels - 1),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    edges = [(u, v, lab) for (u, v), lab in zip(chosen, labels)]
    return EdgeLabeledGraph.from_edges(
        n, edges, num_labels=num_labels, directed=directed
    )


def random_batch(data, graph: EdgeLabeledGraph, min_rows: int):
    """Sources + per-row label masks for a ``batched_constrained_bfs``."""
    n = graph.num_vertices
    rows = data.draw(st.integers(min_value=min_rows, max_value=min_rows + 6))
    sources = data.draw(
        st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows)
    )
    full = (1 << graph.num_labels) - 1
    masks = data.draw(
        st.lists(st.integers(0, full), min_size=rows, max_size=rows)
    )
    return sources, masks


# ----------------------------------------------------------------------
# Bit-identity: MS-BFS (bitset + sparse paths)
# ----------------------------------------------------------------------
class TestMsBfsIdentity:
    @KERNEL_SETTINGS
    @given(st.data())
    def test_bitset_path_matches_numpy(self, compiled, data):
        """≥4 per-source-mask rows route to ``msbfs_bitset``; the compiled
        sweep must reproduce the numpy lanes bit-for-bit."""
        graph = data.draw(labeled_graphs())
        sources, masks = random_batch(data, graph, min_rows=4)
        for max_level in (None, 0, 2):
            want = batched_constrained_bfs(
                graph, sources, masks=masks, max_level=max_level, kernel=NUMPY
            )
            got = batched_constrained_bfs(
                graph, sources, masks=masks, max_level=max_level,
                kernel=compiled,
            )
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @KERNEL_SETTINGS
    @given(st.data())
    def test_sparse_path_matches_numpy(self, compiled, data):
        """Shared-mask / few-row batches route to ``msbfs_sparse``; the
        compiled queue BFS must match numpy's frontier expansion."""
        graph = data.draw(labeled_graphs())
        n = graph.num_vertices
        rows = data.draw(st.integers(min_value=1, max_value=3))
        sources = data.draw(
            st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows)
        )
        mask = data.draw(st.integers(0, (1 << graph.num_labels) - 1))
        for max_level in (None, 1):
            want = batched_constrained_bfs(
                graph, sources, mask=mask, max_level=max_level, kernel=NUMPY
            )
            got = batched_constrained_bfs(
                graph, sources, mask=mask, max_level=max_level, kernel=compiled
            )
            assert np.array_equal(got, want)

    def test_empty_graph(self, compiled):
        """No edges at all: every row is its seed and nothing else."""
        graph = EdgeLabeledGraph.from_edges(5, [], num_labels=2)
        sources = [0, 1, 2, 3, 4]
        masks = [3, 3, 1, 2, 0]
        want = batched_constrained_bfs(graph, sources, masks=masks, kernel=NUMPY)
        got = batched_constrained_bfs(graph, sources, masks=masks, kernel=compiled)
        assert np.array_equal(got, want)

    def test_trailing_in_arc_free_vertex(self, compiled):
        """PR-4 edge case: the last vertex has out-arcs but *no* in-arcs,
        so the reversed CSR ends with an empty segment — the compiled
        in-arc sweep must not read past it."""
        edges = [(4, 0, 0), (4, 1, 1), (0, 1, 0), (1, 2, 1), (2, 3, 0)]
        graph = EdgeLabeledGraph.from_edges(5, edges, num_labels=2, directed=True)
        sources = [4, 4, 0, 1, 3]
        masks = [3, 1, 3, 2, 3]
        want = batched_constrained_bfs(graph, sources, masks=masks, kernel=NUMPY)
        got = batched_constrained_bfs(graph, sources, masks=masks, kernel=compiled)
        assert np.array_equal(got, want)
        # Same topology through the sparse (shared-mask) path.
        want = batched_constrained_bfs(graph, [4, 3], mask=3, kernel=NUMPY)
        got = batched_constrained_bfs(graph, [4, 3], mask=3, kernel=compiled)
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Bit-identity: Theorem 2 one-removed pass
# ----------------------------------------------------------------------
class TestOneRemovedIdentity:
    @KERNEL_SETTINGS
    @given(st.data())
    def test_matches_numpy(self, compiled, data):
        rows = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 12))
        prev = data.draw(st.integers(1, 5))
        subset = data.draw(st.integers(1, min(3, prev)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        big = np.int32(2**30)
        dist = rng.integers(0, 20, size=(rows, n)).astype(np.int32)
        prev_rows = rng.integers(0, 20, size=(prev + 1, n)).astype(np.int32)
        prev_rows[-1] = big  # the all-BIG pad row
        sub_rows = rng.integers(0, prev + 1, size=(rows, subset)).astype(
            np.int64
        )
        want = NUMPY.one_removed_pass(dist, prev_rows, sub_rows)
        got = compiled.one_removed_pass(dist, prev_rows, sub_rows)
        assert got.dtype == np.bool_
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Bit-identity: batched auxiliary-graph Dijkstra (weighted)
# ----------------------------------------------------------------------
def _random_aux_batch(data):
    """Bi-chromatic weights + a ``(g, k)`` batch of usable rows and legs.

    Row 0 has no usable landmark and row 1 only landmarks of one color;
    ``tied`` draws small integers so equal distances are common.  Legs of
    unusable landmarks stay finite: the kernel must ignore them.
    """
    k = data.draw(st.integers(0, 8))
    g = data.draw(st.integers(2, 7))
    tied = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    colors = rng.integers(0, 3, size=k)

    def values(shape):
        if tied:
            return rng.integers(0, 4, size=shape).astype(np.float64)
        return rng.uniform(0.5, 10.0, size=shape)

    weights = values((k, k))
    weights[rng.random((k, k)) < 0.3] = np.inf
    weights[colors[:, None] == colors[None, :]] = np.inf
    usable = rng.random((g, k)) < 0.6
    usable[0] = False
    if k:
        usable[1] = colors == colors[0]
    ds = values((g, k))
    dt = values((g, k))
    ds[rng.random((g, k)) < 0.25] = np.inf
    dt[rng.random((g, k)) < 0.25] = np.inf
    return weights, usable, ds, dt


def _plain_dijkstra(weights, usable_row, ds_row, dt_row) -> float:
    """Textbook dense Dijkstra on one query's auxiliary graph: node 0 is s,
    nodes 1..u the usable landmarks (index order), node u + 1 is t."""
    idx = np.nonzero(usable_row)[0]
    u = len(idx)
    adj = np.full((u + 2, u + 2), np.inf)
    adj[0, 1:u + 1] = ds_row[idx]
    adj[1:u + 1, u + 1] = dt_row[idx]
    adj[1:u + 1, 1:u + 1] = weights[np.ix_(idx, idx)]
    dist = np.full(u + 2, np.inf)
    dist[0] = 0.0
    done = np.zeros(u + 2, dtype=bool)
    for _ in range(u + 2):
        open_dist = np.where(done, np.inf, dist)
        node = int(open_dist.argmin())
        if not np.isfinite(open_dist[node]):
            break
        done[node] = True
        dist = np.minimum(dist, dist[node] + adj[node])
    return float(dist[u + 1])


class TestAuxDijkstraIdentity:
    @KERNEL_SETTINGS
    @given(st.data())
    def test_matches_numpy(self, compiled, data):
        weights, usable, ds, dt = _random_aux_batch(data)
        want = NUMPY.aux_dijkstra(weights, usable, ds, dt)
        got = compiled.aux_dijkstra(weights, usable, ds, dt)
        assert got.shape == want.shape == (len(ds),)
        # Bit-identity, not closeness: identical IEEE operation order.
        assert got.tobytes() == want.tobytes()
        assert np.isinf(want[0])  # the row with no usable landmark

    @KERNEL_SETTINGS
    @given(st.data())
    def test_noncontiguous_legs(self, compiled, data):
        """Compiled wrappers must coerce strided inputs correctly."""
        weights, usable, ds, dt = _random_aux_batch(data)
        g, k = ds.shape
        wide = np.zeros((g, 2 * k + 1))
        wide[:, 1::2] = ds
        wide_t = np.zeros((2 * k + 1, g))
        wide_t[1::2] = dt.T
        want = NUMPY.aux_dijkstra(weights, usable, ds, dt)
        got = compiled.aux_dijkstra(
            weights.T.copy().T, usable.T.copy().T, wide[:, 1::2], wide_t[1::2].T
        )
        assert got.tobytes() == want.tobytes()

    @KERNEL_SETTINGS
    @given(st.data())
    def test_rows_match_plain_dijkstra(self, data):
        """Reference: every row is the shortest s-t path over that row's
        usable sub-matrix (integer weights keep the sums exact)."""
        weights, usable, ds, dt = _random_aux_batch(data)
        weights, ds, dt = (np.ceil(a) for a in (weights, ds, dt))
        got = NUMPY.aux_dijkstra(weights, usable, ds, dt)
        for r in range(len(ds)):
            assert got[r] == _plain_dijkstra(weights, usable[r], ds[r], dt[r])

    def test_rejects_mismatched_shapes(self, compiled):
        """Compiled loops trust their sizes, so the wrapper checks them."""
        weights = np.full((3, 3), np.inf)
        legs = np.zeros((2, 3))
        usable = np.ones((2, 3), dtype=bool)
        with pytest.raises(ValueError, match="aux_dijkstra"):
            compiled.aux_dijkstra(weights, usable, legs, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="aux_dijkstra"):
            compiled.aux_dijkstra(np.full((2, 2), np.inf), usable, legs, legs)

    def test_all_unreachable(self, compiled):
        k = 4
        weights = np.full((k, k), np.inf)
        legs = np.full((3, k), np.inf)
        usable = np.ones((3, k), dtype=bool)
        want = NUMPY.aux_dijkstra(weights, usable, legs, legs)
        got = compiled.aux_dijkstra(weights, usable, legs, legs)
        assert np.isinf(want).all() and np.isinf(got).all()


# ----------------------------------------------------------------------
# Bit-identity: Theorem 1 PowCov table lookup
# ----------------------------------------------------------------------
def _random_powcov_table(data):
    """PowCov table columns plus a ``(g,)`` lookup batch.

    Each (landmark, vertex) pair holds up to ``max_entries`` entries in
    (distance, mask) order; ``max_entries == 0`` is an all-empty table and
    ``k == 0`` a table with no landmarks.  ``weighted`` draws float64
    distances (ties included), otherwise int32.  The batch always holds
    masks 0 and full.
    """
    k = data.draw(st.integers(0, 4))
    n = data.draw(st.integers(1, 8))
    num_labels = data.draw(st.integers(1, 5))
    max_entries = data.draw(st.integers(0, 4))
    weighted = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    full = (1 << num_labels) - 1
    counts = rng.integers(0, max_entries + 1, size=k * n)
    offsets = np.zeros(k * n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    if weighted:
        dist = rng.choice([0.5, 1.25, 2.0, 7.75], size=total)
    else:
        dist = rng.integers(0, 6, size=total).astype(np.int32)
    mask = rng.integers(0, full + 1, size=total).astype(np.int64)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        order = np.lexsort((mask[lo:hi], dist[lo:hi]))
        dist[lo:hi], mask[lo:hi] = dist[lo:hi][order], mask[lo:hi][order]
    g = data.draw(st.integers(0, 10))
    vertices = rng.integers(0, n, size=g + 2)
    masks = np.concatenate([[0, full], rng.integers(0, full + 1, size=g)])
    return (offsets, dist, mask, k, n), vertices, masks


def _first_hit_scan(offsets, dist, mask, k, n, vertices, masks):
    """Theorem 1 as a plain scan: each pair's first stored subset."""
    out = np.full((len(vertices), k), np.inf)
    for r, (u, want) in enumerate(zip(vertices.tolist(), masks.tolist())):
        for i in range(k):
            for e in range(offsets[i * n + u], offsets[i * n + u + 1]):
                if mask[e] & want == mask[e]:
                    out[r, i] = dist[e]
                    break
    return out


def _readonly_maps(directory, *columns):
    """Each column as a read-only ``np.memmap`` (as a store opens them)."""
    maps = []
    for i, column in enumerate(columns):
        path = Path(directory) / f"column{i}.npy"
        np.save(path, column)
        maps.append(np.load(path, mmap_mode="r") if len(column) else column)
    return maps


class TestPowCovLookupIdentity:
    @KERNEL_SETTINGS
    @given(st.data())
    def test_matches_numpy(self, compiled, data):
        """Compiled first-hit walk == numpy sweep, byte for byte, on plain
        and on read-only memmapped columns."""
        (offsets, dist, mask, k, n), vertices, masks = _random_powcov_table(data)
        want = NUMPY.powcov_lookup(offsets, dist, mask, k, n, vertices, masks)
        assert want.shape == (len(vertices), k) and want.dtype == np.float64
        got = compiled.powcov_lookup(offsets, dist, mask, k, n, vertices, masks)
        assert got.tobytes() == want.tobytes()
        with tempfile.TemporaryDirectory() as directory:
            columns = _readonly_maps(directory, offsets, dist, mask)
            got = compiled.powcov_lookup(*columns, k, n, vertices, masks)
            assert got.tobytes() == want.tobytes()
            del columns  # drop the maps before the directory goes

    @KERNEL_SETTINGS
    @given(st.data())
    def test_numpy_matches_first_hit_scan(self, data):
        """Reference: the sweep's minimum is each pair's first stored
        subset, ``inf`` for mask 0 and for empty pairs."""
        (offsets, dist, mask, k, n), vertices, masks = _random_powcov_table(data)
        got = NUMPY.powcov_lookup(offsets, dist, mask, k, n, vertices, masks)
        want = _first_hit_scan(offsets, dist, mask, k, n, vertices, masks)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["numpy", "numba", "cext"])
    @pytest.mark.parametrize("vertex", [-1, 3, 7])
    def test_out_of_range_vertex_raises_before_the_loop(
        self, monkeypatch, name, vertex
    ):
        """Compiled loops read offsets unchecked, so every backend rejects a
        vertex outside ``[0, n)`` with ``IndexError`` before calling in."""
        if name not in available_kernels():
            pytest.skip(f"{name} kernel backend unavailable in this environment")
        backend = resolve_kernel(name)

        def native_call(*args):
            raise AssertionError("compiled loop reached with a bad vertex")

        if name == "cext":
            monkeypatch.setattr(
                backend, "_lib", type("Lib", (), {
                    "repro_powcov_lookup_i32": staticmethod(native_call),
                    "repro_powcov_lookup_f64": staticmethod(native_call),
                })(),
            )
        elif name == "numba":
            module = sys.modules[type(backend).__module__]
            monkeypatch.setattr(module, "_powcov_lookup", native_call)
        k, n = 2, 3
        offsets = np.arange(k * n + 1, dtype=np.int64)
        dist = np.arange(k * n, dtype=np.int32)
        mask = np.ones(k * n, dtype=np.int64)
        vertices = np.array([0, vertex], dtype=np.int64)
        with pytest.raises(IndexError, match="out of range"):
            backend.powcov_lookup(
                offsets, dist, mask, k, n, vertices, np.array([1, 1])
            )

    def test_rejects_mismatched_shapes(self, compiled):
        offsets = np.zeros(5, dtype=np.int64)
        empty = np.empty(0, dtype=np.int32)
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="powcov_lookup"):
            compiled.powcov_lookup(offsets, empty, one[:0], 2, 3, one, one)
        with pytest.raises(ValueError, match="powcov_lookup"):
            compiled.powcov_lookup(offsets, empty, one[:0], 2, 2, one, one[:0])


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_kernels()
        assert resolve_kernel("numpy").name == "numpy"

    def test_instance_passthrough(self):
        assert resolve_kernel(NUMPY) is NUMPY

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            resolve_kernel("fortran")
        with pytest.raises(ValueError, match="kernel must be one of"):
            set_default_kernel("fortran")

    def test_default_chain(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        set_default_kernel(None)
        assert get_default_kernel() == "auto"
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        assert get_default_kernel() == "numpy"
        assert kernel_name() == "numpy"
        set_default_kernel("auto")  # explicit default beats the env var
        assert get_default_kernel() == "auto"
        monkeypatch.setenv("REPRO_KERNEL", "not-a-kernel")
        set_default_kernel(None)
        with pytest.raises(ValueError, match="REPRO_KERNEL"):
            get_default_kernel()

    def test_auto_resolves_to_some_backend(self):
        assert resolve_kernel("auto").name in KERNEL_CHOICES

    def test_probe_failure_is_memoized(self, monkeypatch):
        """Exactly one import attempt per backend per process."""
        kernels._reset_for_tests(clear_probes=True)
        attempts = []
        real_import = builtins.__import__

        def counting_import(name, *args, **kwargs):
            if "_numba" in name:
                attempts.append(name)
                raise ImportError("forced by test")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counting_import)
        try:
            assert kernels._load("numba") is None
            assert kernels._load("numba") is None
            assert "numba" not in available_kernels()
        finally:
            kernels._reset_for_tests(clear_probes=True)
        assert len(attempts) == 1

    def test_fallback_warns_exactly_once(self, monkeypatch):
        """An explicit request for a dead backend degrades to numpy with
        one structured warning — not one per build."""
        kernels._reset_for_tests()
        monkeypatch.setitem(
            kernels._probe_failures, "numba", "ImportError: forced by test"
        )
        monkeypatch.delitem(kernels._backends, "numba", raising=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = resolve_kernel("numba")
            second = resolve_kernel("numba")
        assert first.name == "numpy" and second.name == "numpy"
        fallbacks = [
            w for w in caught if issubclass(w.category, KernelFallbackWarning)
        ]
        assert len(fallbacks) == 1
        message = fallbacks[0].message
        assert message.requested == "numba"
        assert message.fallback == "numpy"
        assert "forced by test" in message.reason
        assert "[native]" in str(message)

    def test_default_kernel_flows_into_builds(self):
        """``set_default_kernel`` steers ``batched_constrained_bfs`` when
        no explicit kernel is passed (the CLI ``--kernel`` path)."""
        graph = EdgeLabeledGraph.from_edges(
            4, [(0, 1, 0), (1, 2, 1), (2, 3, 0)], num_labels=2
        )
        set_default_kernel("numpy")
        try:
            want = batched_constrained_bfs(graph, [0, 1, 2, 3], masks=[3] * 4)
        finally:
            set_default_kernel(None)
        for name in available_kernels():
            set_default_kernel(name)
            try:
                got = batched_constrained_bfs(
                    graph, [0, 1, 2, 3], masks=[3] * 4
                )
            finally:
                set_default_kernel(None)
            assert np.array_equal(got, want), name


# ----------------------------------------------------------------------
# Observability: spans attribute the kernel
# ----------------------------------------------------------------------
class TestSpanAttribution:
    def test_wave_span_tags_kernel(self):
        from repro.core.powcov import PowCovIndex
        from repro.obs.trace import get_trace, reset_trace, set_tracing

        graph = EdgeLabeledGraph.from_edges(
            5,
            [(0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 4, 1), (0, 4, 0)],
            num_labels=2,
        )
        set_tracing(True)
        reset_trace()
        try:
            PowCovIndex(graph, [0, 2, 4], builder="wave").build()
            spans = get_trace()
        finally:
            set_tracing(False)
            reset_trace()

        def collect(all_spans, name):
            found = []
            for s in all_spans:
                if s.name == name:
                    found.append(s)
                found.extend(collect(s.children, name))
            return found

        waves = collect(spans, "powcov.wave")
        assert waves, "wave builder emitted no powcov.wave spans"
        for s in waves:
            assert str(s.tags.get("kernel")) in ("numpy", "numba", "cext")
        builds = collect(spans, "powcov.build")
        assert builds and all(
            str(s.tags.get("kernel")) in ("numpy", "numba", "cext")
            for s in builds
        )
