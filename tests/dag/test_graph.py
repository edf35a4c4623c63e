"""Tests for the task-graph layer (repro.dag.graph)."""

from __future__ import annotations

import hashlib

import pytest

from repro.dag.graph import TaskGraph, cached_graph, tiled_qr_graph
from repro.dag.runtime import DAGFactorizationConfig, run_dag_factorization
from repro.exceptions import ConfigurationError
from repro.model.costs import dag_caqr_costs
from repro.util.units import DOUBLE_BYTES


def _toy_graph() -> TaskGraph:
    g = TaskGraph()
    g.handle("x", (4, 4))
    g.handle("y", (4, 4))
    return g


def _add(g: TaskGraph, reads=(), writes=()) -> int:
    return g.add_task(
        "geqrt",
        reads=tuple(g.handle_id(k) for k in reads),
        writes=tuple(g.handle_id(k) for k in writes),
        flops=1.0,
        width=4,
        kernel_class="qr_leaf",
        host_row=0,
    )


class TestEdgeDerivation:
    def test_read_after_write(self):
        g = _toy_graph()
        w = _add(g, writes=("x",))
        r = _add(g, reads=("x",))
        assert g.preds[r] == (w,)
        assert g.tasks[r].read_producers == (w,)

    def test_write_after_read(self):
        g = _toy_graph()
        w1 = _add(g, writes=("x",))
        r = _add(g, reads=("x",))
        w2 = _add(g, writes=("x",))  # must wait for the reader
        assert r in g.preds[w2] and w1 in g.preds[w2]

    def test_write_after_write(self):
        g = _toy_graph()
        w1 = _add(g, writes=("x",))
        w2 = _add(g, writes=("x",))
        assert g.preds[w2] == (w1,)

    def test_initial_reads_have_no_producer(self):
        g = _toy_graph()
        r = _add(g, reads=("x", "y"))
        assert g.preds[r] == ()
        assert g.tasks[r].read_producers == (-1, -1)

    def test_edges_point_forward(self):
        """Task ids are a topological order (the runtime relies on this)."""
        g = tiled_qr_graph(96, 96, 16, n_groups=3)
        for tid, deps in enumerate(g.preds):
            assert all(p < tid for p in deps)

    def test_successors_and_sinks_are_consistent(self):
        g = tiled_qr_graph(64, 32, 16, n_groups=2)
        succs = g.successors()
        n_edges = sum(len(s) for s in succs)
        assert n_edges == g.n_edges
        for sink in g.sinks():
            assert not succs[sink]


class TestTiledQRGraph:
    def test_single_tile_is_one_geqrt(self):
        g = tiled_qr_graph(8, 8, 16)
        assert [t.kernel for t in g.tasks] == ["geqrt"]

    def test_two_by_two_tiling_task_mix(self):
        # mt = nt = 2, one group: panel 0 = 2 geqrt + 2 unmqr + tsqrt +
        # tsmqr, panel 1 = 1 geqrt.
        g = tiled_qr_graph(32, 32, 16)
        kinds = sorted(t.kernel for t in g.tasks)
        assert kinds == ["geqrt", "geqrt", "geqrt", "tsmqr", "tsqrt", "unmqr", "unmqr"]

    def test_group_structure_matches_spmd_participants(self):
        # 4 tile rows over 2 groups: each panel has an intra-group chain and
        # one cross-group combine, exactly like the SPMD program.
        g = tiled_qr_graph(64, 32, 16, n_groups=2)
        cross = [
            t for t in g.tasks
            if t.kernel == "tsqrt" and t.i == 0 and t.i2 == 2  # group 1's top row
        ]
        assert len(cross) == 1  # panel 0 only (panel 1 row 1 is group 0's)

    def test_panel_factor_wire_bytes_are_triangular(self):
        g = tiled_qr_graph(32, 32, 16)
        geqrt0 = g.tasks[0]
        tile_handle = geqrt0.writes[0]
        assert g.handle_keys[tile_handle] == ("A", 0, 0)
        assert geqrt0.write_nbytes[0] == 16 * 17 // 2 * DOUBLE_BYTES

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            tiled_qr_graph(0, 8, 4)
        with pytest.raises(ConfigurationError):
            tiled_qr_graph(8, 8, 4, n_groups=0)

    def test_cluster_count_must_match_groups(self):
        with pytest.raises(ConfigurationError, match="cluster names"):
            tiled_qr_graph(32, 16, 8, n_groups=2, group_clusters=["a"])


class TestGraphCache:
    """The memoised cached_graph front: hits share, eviction is safe."""

    def test_hit_returns_the_same_object(self):
        assert cached_graph("qr", 64, 32, 16) is cached_graph("qr", 64, 32, 16)

    def test_eviction_then_rebuild_is_structurally_identical(self):
        """An evicted graph rebuilds to the exact same structure.

        Clearing the cache forces the eviction deterministically.  The
        rebuilt graph is a *new object* (the eviction really happened) with
        an *identical fingerprint* (handles, tasks, edges, wire sizes) —
        eviction can change performance, never results.
        """
        first = cached_graph("qr", 96, 96, 16, 3, "binary", None)
        fingerprint = _graph_fingerprint(first)
        cached_graph.cache_clear()
        rebuilt = cached_graph("qr", 96, 96, 16, 3, "binary", None)
        assert rebuilt is not first
        assert _graph_fingerprint(rebuilt) == fingerprint

    def test_cost_model_and_runtime_share_one_graph(self, platform8):
        """The model and the runtime key the cache alike: one build, one hit."""
        m, n, tile = 256, 48, 16
        p = platform8.n_processes
        clusters = [platform8.placement.cluster_of(r) for r in range(p)]
        cached_graph.cache_clear()
        dag_caqr_costs(m, n, p, tile_size=tile, clusters=clusters)
        run_dag_factorization(platform8, DAGFactorizationConfig(m=m, n=n, tile_size=tile))
        info = cached_graph.cache_info()
        assert info.misses == 1
        assert info.hits >= 1


def _graph_fingerprint(graph) -> str:
    """Canonical digest of a graph's full structure: handles, tasks, edges.

    Mirrors the fingerprint of tests/gridsim/test_engine_equivalence.py so
    a cache-eviction rebuild is checked against the same notion of
    structural identity the golden-graph tests pin.
    """
    parts = [
        ("kind", graph.kind),
        ("n_groups", graph.n_groups),
        (
            "handles",
            tuple(zip(graph.handle_keys, graph.handle_shapes, graph.handle_nbytes)),
        ),
    ]
    for t in graph.tasks:
        parts.append(
            (
                t.id, t.kernel, t.kernel_class, t.k, t.i, t.i2, t.j,
                t.flops, t.width, t.host_row,
                t.reads, t.read_producers, t.writes, t.write_nbytes,
                tuple(graph.preds[t.id]),
            )
        )
    return hashlib.sha256(repr(parts).encode()).hexdigest()
