"""Tests for the DAG-CAQR sweep artefact and its runner plumbing."""

from __future__ import annotations

import pytest

from repro.dag.runtime import DAGFactorizationConfig, run_dag_factorization
from repro.exceptions import ConfigurationError
from repro.experiments.figures import (
    dag_caqr_sweep,
    dag_cholesky_sweep,
    dag_failures_sweep,
    failure_schedule_pairs,
)
from repro.experiments.grid5000 import Grid5000Settings
from repro.experiments.runner import ExperimentRunner, PointSpec

#: Reduced workload: same shape as the paper-scale artefact, CI-sized.
SWEEP = dict(n=128, m_values=(16384,), tile_size=32)


class TestPointSpec:
    def test_dag_points_need_caqr(self):
        with pytest.raises(ConfigurationError, match="DAG runtime"):
            PointSpec(algorithm="scalapack", m=64, n=8, n_sites=1, runtime="dag")

    def test_policies_need_dag_runtime(self):
        with pytest.raises(ConfigurationError, match="placement/priority"):
            PointSpec(
                algorithm="caqr", m=64, n=8, n_sites=1, tile_size=8, priority="fifo"
            )

    def test_unknown_policies_rejected(self):
        with pytest.raises(ConfigurationError, match="placement"):
            PointSpec(
                algorithm="caqr", m=64, n=8, n_sites=1, tile_size=8,
                runtime="dag", placement="striped",
            )
        with pytest.raises(ConfigurationError, match="runtime"):
            PointSpec(algorithm="caqr", m=64, n=8, n_sites=1, tile_size=8, runtime="mpi")

    def test_cholesky_lu_points_are_dag_only(self):
        with pytest.raises(ConfigurationError, match="runtime"):
            PointSpec(algorithm="cholesky", m=64, n=64, n_sites=1, tile_size=8)
        with pytest.raises(ConfigurationError, match="runtime"):
            PointSpec(
                algorithm="lu", m=64, n=32, n_sites=1, tile_size=8, runtime="spmd"
            )
        with pytest.raises(ConfigurationError, match="tile_size"):
            PointSpec(algorithm="cholesky", m=64, n=64, n_sites=1, runtime="dag")
        with pytest.raises(ConfigurationError, match="factor only"):
            PointSpec(
                algorithm="lu", m=64, n=32, n_sites=1, tile_size=8,
                runtime="dag", want_q=True,
            )


class TestSweep:
    def test_rows_record_the_three_inequalities(self):
        rows = dag_caqr_sweep(ExperimentRunner(), **SWEEP)
        assert len(rows) == 3  # one per priority policy
        for row in rows:
            dag = row["DAG makespan (s)"]
            spmd = row["SPMD makespan (s)"]
            cp = row["critical path (s)"]
            assert cp <= dag <= spmd
            assert 0.0 <= row["idle fraction (mean)"] <= 1.0
            assert row["msgs (DAG)"] > 0 and row["msgs (SPMD)"] > 0

    def test_sweep_rows_identical_jobs_1_vs_n(self):
        """Parallel prefetch must be invisible: byte-identical rows."""
        serial = dag_caqr_sweep(ExperimentRunner(jobs=1), **SWEEP)
        parallel = dag_caqr_sweep(ExperimentRunner(jobs=2), **SWEEP)
        assert serial == parallel

    def test_dag_point_carries_critical_path(self):
        runner = ExperimentRunner()
        point = runner.dag_caqr_point(16384, 128, 4, tile_size=32)
        assert point.critical_path_s is not None
        assert 0.0 < point.critical_path_s <= point.time_s
        spmd = runner.caqr_point(16384, 128, 4, tile_size=32)
        assert spmd.critical_path_s is None

    @pytest.mark.parametrize("algorithm", ("caqr", "cholesky", "lu"))
    def test_dag_point_is_the_runtime_run(self, algorithm):
        """Every DAG algorithm goes through one runner branch, and a point
        that omits the policies runs the runtime's default schedule."""
        runner = ExperimentRunner(Grid5000Settings(nodes_per_cluster=2, processes_per_node=2))
        m = 256 if algorithm == "cholesky" else 1024
        spec = PointSpec(algorithm=algorithm, m=m, n=256, n_sites=2, tile_size=64,
                         tree_kind="binary", runtime="dag")
        point = runner.run_point(spec)
        direct = run_dag_factorization(
            runner.platform(2),
            DAGFactorizationConfig(m=m, n=256, tile_size=64,
                                   algorithm="qr" if algorithm == "caqr" else algorithm),
        )
        assert point.time_s == direct.makespan_s
        assert point.critical_path_s == direct.critical_path_s
        assert point.trace == direct.trace


class TestCholeskySweep:
    def test_rows_report_exact_model_agreement(self):
        rows = dag_cholesky_sweep(
            ExperimentRunner(), n_values=(1024,), tile_size=128
        )
        assert len(rows) == 3  # one per priority policy
        for row in rows:
            assert row["algorithm"] == "DAG-Cholesky"
            assert row["msg ratio"] == 1.0
            assert row["volume ratio"] == 1.0
            assert row["critical path (s)"] <= row["makespan (s)"]
            assert 0.0 <= row["idle fraction (mean)"] <= 1.0

    def test_failures_need_the_dag_runtime(self):
        with pytest.raises(ConfigurationError, match="runtime='dag'"):
            PointSpec(algorithm="tsqr", m=65536, n=32, n_sites=1,
                      domains_per_cluster=4, failures=((0, 0.1),))

    def test_failure_schedule_normalised(self):
        spec = PointSpec(algorithm="cholesky", m=512, n=512, n_sites=1,
                         tile_size=64, runtime="dag",
                         failures=[[2, 0.2], (0, 0.1)])
        assert spec.failures == ((0, 0.1), (2, 0.2))
        empty = PointSpec(algorithm="cholesky", m=512, n=512, n_sites=1,
                          tile_size=64, runtime="dag", failures=())
        assert empty.failures is None  # same simulation, same cache key
        with pytest.raises(ConfigurationError, match="non-negative"):
            PointSpec(algorithm="cholesky", m=512, n=512, n_sites=1,
                      tile_size=64, runtime="dag", failures=((-1, 0.1),))
        with pytest.raises(ConfigurationError, match="non-negative"):
            PointSpec(algorithm="cholesky", m=512, n=512, n_sites=1,
                      tile_size=64, runtime="dag", failures=((0, -0.1),))

    def test_cholesky_and_lu_points_run(self):
        runner = ExperimentRunner()
        chol = runner.dag_cholesky_point(512, 2, tile_size=64)
        assert chol.critical_path_s is not None
        assert 0.0 < chol.critical_path_s <= chol.time_s
        lu = runner.dag_lu_point(1024, 512, 2, tile_size=64)
        assert 0.0 < lu.critical_path_s <= lu.time_s
        assert lu.gflops > 0


class TestFailuresSweep:
    def test_schedule_pairs_are_deterministic_and_in_window(self):
        busy = tuple(1.0 + 0.1 * r for r in range(16))
        pairs = failure_schedule_pairs(4, 16, busy)
        assert pairs == failure_schedule_pairs(4, 16, busy)
        ranks = [r for r, _ in pairs]
        assert len(set(ranks)) == len(ranks)  # stride 7 never repeats a rank
        assert all(0 <= r < 16 for r in ranks)
        # each death sits inside its own rank's busy window, so the
        # deadline is guaranteed to fire at an op entry or compute charge
        for rank, at_time in pairs:
            assert 0.0 < at_time < busy[rank]

    def test_schedule_pairs_idle_rank_dies_at_startup(self):
        busy = [1.0] * 16
        busy[3] = 0.0  # the first stride victim computed nothing
        assert failure_schedule_pairs(1, 16, busy)[0] == (3, 0.0)

    def test_rows_account_for_every_failure(self):
        runner = ExperimentRunner()
        rows = dag_failures_sweep(
            runner, n=1024, tile_size=128, failure_counts=(0, 1, 2)
        )
        assert [row["failures"] for row in rows] == [0, 1, 2]
        baseline = rows[0]
        assert baseline["dead ranks"] == "-"
        assert baseline["overhead (s)"] == 0.0
        assert baseline["tasks re-executed"] == 0
        for row in rows[1:]:
            assert len(row["dead ranks"].split()) == row["failures"]
            assert row["recovery rounds"] >= 1
            assert row["makespan (s)"] >= baseline["makespan (s)"]
            assert row["failure-free (s)"] == baseline["makespan (s)"]
            assert row["tasks re-executed"] >= 0
        # overhead grows (weakly) with the number of deaths on this workload
        overheads = [row["overhead (s)"] for row in rows]
        assert overheads[0] <= overheads[-1]

    def test_no_survivor_rejected(self):
        with pytest.raises(ConfigurationError, match="no survivor"):
            dag_failures_sweep(
                ExperimentRunner(), n=1024, tile_size=128,
                failure_counts=(10**6,),
            )

    def test_sweep_is_reproducible(self):
        kwargs = dict(n=1024, tile_size=128, failure_counts=(1,))
        first = dag_failures_sweep(ExperimentRunner(), **kwargs)
        second = dag_failures_sweep(ExperimentRunner(), **kwargs)
        assert first == second
