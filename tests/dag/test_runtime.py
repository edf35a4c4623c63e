"""Tests for the DAG runtime (repro.dag.runtime) and its analysis layer."""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro
import repro.dag
from repro.dag import (
    DAGFactorizationConfig,
    mean_idle_fraction,
    rank_utilization,
    run_dag_factorization,
    write_gantt_csv,
)
from repro.exceptions import ConfigurationError
from repro.model.costs import dag_caqr_costs
from repro.programs.caqr import CAQRConfig, run_parallel_caqr
from repro.util.random_matrices import random_matrix
from repro.util.units import DOUBLE_BYTES
from repro.util.validation import r_factors_match

PLACEMENTS = ("block", "block-cyclic", "owner-computes")
PRIORITIES = ("critical-path", "panel", "fifo")


class TestConfig:
    """QR-side validation; policies and matrix shape are checked for every
    algorithm in tests/dag/test_cholesky_lu.py."""

    def test_mirrors_caqr_config_validation(self):
        with pytest.raises(ConfigurationError, match="positive"):
            DAGFactorizationConfig(m=0, n=4)
        with pytest.raises(ConfigurationError, match="unknown panel tree"):
            DAGFactorizationConfig(m=8, n=8, panel_tree="fractal")


class TestRealPayloads:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("priority", PRIORITIES)
    def test_bitwise_identical_to_spmd_caqr(self, platform8, placement, priority):
        """Every placement x priority combination reproduces the SPMD R
        factor bit for bit (the graph pins each tile's operation order)."""
        m, n, tile = 120, 60, 16
        a = random_matrix(m, n, seed=7)
        spmd = run_parallel_caqr(
            platform8, CAQRConfig(m=m, n=n, tile_size=tile, matrix=a)
        )
        dag = run_dag_factorization(
            platform8,
            DAGFactorizationConfig(
                m=m, n=n, tile_size=tile, placement=placement, priority=priority,
                matrix=a,
            ),
        )
        assert np.array_equal(dag.r, spmd.r)
        assert r_factors_match(dag.r, np.linalg.qr(a, mode="r"))

    @pytest.mark.parametrize("tree", ("flat", "binary", "grid-hierarchical"))
    @pytest.mark.parametrize(
        "m,n,tile",
        [
            (200, 50, 8),   # many tile rows per rank
            (37, 29, 10),   # nothing divides anything
            (40, 80, 16),   # fat matrix
            (10, 6, 64),    # single tile, idle ranks
        ],
    )
    def test_r_matches_lapack(self, platform8, m, n, tile, tree):
        a = random_matrix(m, n, seed=m * 31 + n)
        dag = run_dag_factorization(
            platform8,
            DAGFactorizationConfig(m=m, n=n, tile_size=tile, panel_tree=tree, matrix=a),
        )
        assert dag.r.shape == (min(m, n), n)
        assert r_factors_match(dag.r, np.linalg.qr(a, mode="r"))


class TestVirtualPayloads:
    def test_virtual_and_real_runs_trace_identically(self, platform8):
        m, n, tile = 200, 50, 8
        a = random_matrix(m, n, seed=9)
        real = run_dag_factorization(
            platform8, DAGFactorizationConfig(m=m, n=n, tile_size=tile, matrix=a)
        )
        virtual = run_dag_factorization(platform8, DAGFactorizationConfig(m=m, n=n, tile_size=tile))
        assert real.trace.n_messages == virtual.trace.n_messages
        assert real.trace.bytes_by_link == virtual.trace.bytes_by_link
        assert real.trace.flops_per_rank_max == pytest.approx(
            virtual.trace.flops_per_rank_max
        )
        assert real.makespan_s == pytest.approx(virtual.makespan_s)

    def test_identical_runs_are_trace_deterministic(self, platform8):
        config = DAGFactorizationConfig(m=2**12, n=96, tile_size=32)
        first = run_dag_factorization(platform8, config, record_messages=True)
        second = run_dag_factorization(platform8, config, record_messages=True)
        assert first.simulation.events == second.simulation.events
        assert first.makespan_s == second.makespan_s

    def test_counts_match_model_exactly(self, platform8):
        m, n, tile = 2**12, 192, 32
        p = platform8.n_processes
        clusters = [platform8.placement.cluster_of(r) for r in range(p)]
        for placement in PLACEMENTS:
            run = run_dag_factorization(
                platform8, DAGFactorizationConfig(m=m, n=n, tile_size=tile, placement=placement)
            )
            model = dag_caqr_costs(
                m, n, p, tile_size=tile, placement=placement, clusters=clusters
            )
            assert run.trace.total_messages == model.messages
            measured_volume = sum(run.trace.bytes_by_link.values()) / 8.0
            assert measured_volume == pytest.approx(model.volume_doubles, rel=1e-12)

    def test_latency_hiding_beats_bulk_synchronous_spmd(self, platform8):
        """The headline property: dataflow execution overlaps panel
        factorization with trailing updates and beats the static schedule."""
        m, n, tile = 2**13, 128, 32
        spmd = run_parallel_caqr(platform8, CAQRConfig(m=m, n=n, tile_size=tile))
        for priority in PRIORITIES:
            dag = run_dag_factorization(
                platform8, DAGFactorizationConfig(m=m, n=n, tile_size=tile, priority=priority)
            )
            assert dag.makespan_s <= spmd.makespan_s
            assert dag.critical_path_s <= dag.makespan_s + 1e-12

    def test_critical_path_bound_holds_for_every_policy(self, platform8):
        for placement in PLACEMENTS:
            dag = run_dag_factorization(
                platform8,
                DAGFactorizationConfig(m=2**12, n=96, tile_size=32, placement=placement),
            )
            assert 0.0 < dag.critical_path_s <= dag.makespan_s + 1e-12


class TestAnalysis:
    def test_rank_utilization_partitions_the_makespan(self, platform8):
        dag = run_dag_factorization(platform8, DAGFactorizationConfig(m=2**12, n=96, tile_size=32))
        usage = rank_utilization(dag.trace, dag.makespan_s)
        assert len(usage) == platform8.n_processes
        for u in usage:
            assert u.busy_s >= 0 and u.comm_wait_s >= 0 and u.idle_s >= 0
            assert u.total_s == pytest.approx(dag.makespan_s)
        assert 0.0 <= mean_idle_fraction(dag.trace, dag.makespan_s) <= 1.0

    def test_schedule_recording_and_gantt_export(self, platform8, tmp_path):
        dag = run_dag_factorization(
            platform8,
            DAGFactorizationConfig(m=2**10, n=64, tile_size=32),
            record_schedule=True,
        )
        assert dag.schedule is not None
        assert len(dag.schedule) == dag.graph.n_tasks
        for entry in dag.schedule:
            assert entry.end_s >= entry.start_s
        path = write_gantt_csv(dag.schedule, tmp_path / "gantt.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "task,kernel,rank,start_s,end_s"
        assert len(lines) == dag.graph.n_tasks + 1


class TestSinglePanelIsTSQR:
    """A QR with one tile row per rank and one panel column is TSQR: one
    ``geqrt`` leaf per rank, one ``tsqrt`` combine and one message per
    tree edge."""

    @pytest.mark.parametrize("tree", ("flat", "binary", "grid-hierarchical"))
    def test_r_matches_lapack(self, platform8, tree):
        m, n = 800, 24
        p = platform8.n_processes
        a = random_matrix(m, n, seed=3)
        result = run_dag_factorization(
            platform8,
            DAGFactorizationConfig(
                m=m, n=n, tile_size=math.ceil(m / p), panel_tree=tree, matrix=a
            ),
        )
        kernels = [t.kernel for t in result.graph.tasks]
        assert kernels.count("geqrt") == p
        assert kernels.count("tsqrt") == p - 1
        assert len(kernels) == 2 * p - 1
        assert result.trace.total_messages == p - 1
        assert result.r.shape == (n, n)
        assert r_factors_match(result.r, np.linalg.qr(a, mode="r"))

    def test_virtual_run_costs_the_reduction(self, platform8):
        m, n = 2**18, 64
        p = platform8.n_processes
        result = run_dag_factorization(
            platform8, DAGFactorizationConfig(m=m, n=n, tile_size=math.ceil(m / p))
        )
        assert result.r is None
        assert result.makespan_s > 0
        assert result.trace.total_messages == p - 1
        assert result.critical_path_s <= result.makespan_s + 1e-12

    def test_r_wire_bytes_are_the_papers_half_triangle(self, platform8):
        """Every tree edge ships one R factor as ``n (n + 1) / 2`` doubles."""
        m, n = 2**14, 32
        p = platform8.n_processes
        result = run_dag_factorization(
            platform8, DAGFactorizationConfig(m=m, n=n, tile_size=math.ceil(m / p))
        )
        total_bytes = sum(result.trace.bytes_by_link.values())
        assert total_bytes == (p - 1) * n * (n + 1) // 2 * DOUBLE_BYTES


class TestPackageSurface:
    def test_package_exports_the_dag_entry_point(self):
        assert repro.run_dag_factorization is run_dag_factorization
        assert repro.DAGFactorizationConfig is DAGFactorizationConfig
        assert {"DAGFactorizationConfig", "run_dag_factorization"} <= set(repro.__all__)
        for module in (repro, repro.dag):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
