"""DAG re-execution recovery: bit-identical results despite rank deaths.

The contract: given a deterministic failure schedule, the fault-tolerant
DAG runtime re-places the dead ranks' unfinished work (plus the transitive
closure of lost tile versions) onto survivors, and a real-mode run returns
the factor **bit-identical** to the failure-free run — while the same
schedule against the SPMD runtime deterministically raises, which is the
capability gap the recovery layer demonstrates.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.dag.runtime as runtime_mod
from repro.dag import (
    DAGFactorizationConfig,
    build_recovery_plan,
    cached_graph,
    lost_version_closure,
    run_dag_factorization,
)
from repro.exceptions import ConfigurationError, RankFailedError
from repro.gridsim.failures import FailureSchedule, RankFailure
from repro.programs.caqr import CAQRConfig, run_parallel_caqr
from repro.util.random_matrices import random_matrix
from tests.conftest import event_hash


def spd_matrix(n: int, *, seed: int = 0) -> np.ndarray:
    a = random_matrix(n, n, seed=seed)
    return a @ a.T + n * np.eye(n)


def qr_config(seed: int = 3) -> DAGFactorizationConfig:
    a = random_matrix(256, 96, seed=seed)
    return DAGFactorizationConfig(m=256, n=96, tile_size=32, matrix=a)


# ---------------------------------------------------------------------------
# The closure itself (unit level, synthetic survivor state)
# ---------------------------------------------------------------------------

class TestLostVersionClosure:
    def graph(self):
        return cached_graph("cholesky", 128, 128, 64)  # 4 tasks: POTRF/TRSM/SYRK/POTRF

    def test_nothing_lost_means_nothing_to_do(self):
        g = self.graph()
        H = g.n_handles
        done = set(range(len(g.tasks)))
        final = {(g.last_writer(h) + 1) * H + h for h in range(H)}
        assert lost_version_closure(g, done, final, final) == set()

    def test_lost_result_version_readds_its_writer(self):
        g = self.graph()
        H = g.n_handles
        done = set(range(len(g.tasks)))
        last = len(g.tasks) - 1
        wanted = {(last + 1) * H + h for h in g.tasks[last].writes}
        # Nothing survives: the writer must re-run, and so (transitively)
        # must the producers of every version it reads.
        closure = lost_version_closure(g, done, set(), wanted)
        assert last in closure
        for h, p in zip(g.tasks[last].reads, g.tasks[last].read_producers):
            if p >= 0:
                assert p in closure

    def test_surviving_inputs_stop_the_chase(self):
        g = self.graph()
        H = g.n_handles
        done = set(range(len(g.tasks)))
        last = len(g.tasks) - 1
        wanted = {(last + 1) * H + h for h in g.tasks[last].writes}
        # Every version the writer reads survives: only the writer re-runs.
        available = {
            (p + 1) * H + h
            for h, p in zip(g.tasks[last].reads, g.tasks[last].read_producers)
        }
        assert lost_version_closure(g, done, available, wanted) == {last}

    def test_never_executed_tasks_are_always_in(self):
        g = self.graph()
        closure = lost_version_closure(g, set(), set(), set())
        assert closure == set(range(len(g.tasks)))


# ---------------------------------------------------------------------------
# End-to-end: bit-identical factors, every algorithm
# ---------------------------------------------------------------------------

class TestBitIdenticalRecovery:
    def test_qr_r_is_bit_identical_across_schedules(self, platform4_single_site):
        cfg = qr_config()
        base = run_dag_factorization(platform4_single_site, cfg)
        schedules = [
            FailureSchedule([RankFailure(1, at_time=0.0)]),
            FailureSchedule([RankFailure(2, after_events=40)]),
            FailureSchedule([RankFailure(0, at_time=0.001), RankFailure(3, after_events=25)]),
        ]
        for schedule in schedules:
            res = run_dag_factorization(platform4_single_site, cfg, failures=schedule)
            assert np.array_equal(res.r, base.r)
            assert res.recovery is not None
            assert res.recovery.dead_ranks == schedule.ranks
            assert res.recovery.tasks_executed > 0
            assert res.recovery.makespan_s == res.makespan_s
            assert res.recovery.makespan_overhead_s > 0.0

    @pytest.mark.parametrize(
        "algorithm,matrix",
        [
            ("cholesky", spd_matrix(128, seed=5)),
            ("lu", spd_matrix(128, seed=6)),  # SPD is diagonally dominant enough
        ],
    )
    def test_cholesky_and_lu_recover_bit_identically(
        self, platform4_single_site, algorithm, matrix
    ):
        cfg = DAGFactorizationConfig(
            m=128, n=128, tile_size=32, matrix=matrix, algorithm=algorithm
        )
        base = run_dag_factorization(platform4_single_site, cfg)
        res = run_dag_factorization(
            platform4_single_site,
            cfg,
            failures=FailureSchedule([RankFailure(3, after_events=6)]),
        )
        assert np.array_equal(res.r, base.r)
        assert res.recovery is not None and res.recovery.rounds >= 1

    def test_multiple_failures_make_multiple_rounds(self, platform4_single_site):
        cfg = qr_config()
        base = run_dag_factorization(platform4_single_site, cfg)
        res = run_dag_factorization(
            platform4_single_site,
            cfg,
            failures=FailureSchedule(
                [RankFailure(0, at_time=0.001), RankFailure(3, after_events=25)]
            ),
        )
        assert np.array_equal(res.r, base.r)
        assert res.recovery.rounds == 2
        assert res.recovery.dead_ranks == (0, 3)

    def test_virtual_mode_recovers_the_whole_graph(self, platform8):
        cfg = DAGFactorizationConfig(m=1024, n=1024, tile_size=128, algorithm="cholesky")
        res = run_dag_factorization(
            platform8, cfg, failures=FailureSchedule([RankFailure(5, at_time=0.0004)])
        )
        assert res.r is None
        assert res.recovery is not None
        assert res.recovery.tasks_executed > 0

    def test_inert_schedule_reports_no_recovery(self, platform4_single_site):
        cfg = qr_config()
        res = run_dag_factorization(
            platform4_single_site,
            cfg,
            failures=FailureSchedule([RankFailure(1, at_time=1e9)]),
        )
        base = run_dag_factorization(platform4_single_site, cfg)
        assert np.array_equal(res.r, base.r)
        assert res.recovery is None

    def test_killing_every_rank_is_rejected(self, platform4_single_site):
        cfg = qr_config()
        schedule = FailureSchedule.from_pairs([(r, 0.0) for r in range(4)])
        with pytest.raises(ConfigurationError, match="survive"):
            run_dag_factorization(platform4_single_site, cfg, failures=schedule)


# ---------------------------------------------------------------------------
# Determinism and the exactly-once accounting
# ---------------------------------------------------------------------------

def _factorization_config(algorithm: str, seed: int) -> DAGFactorizationConfig:
    return DAGFactorizationConfig(
        m=128, n=128, tile_size=32, matrix=spd_matrix(128, seed=seed),
        algorithm=algorithm,
    )


#: Golden recovery runs on the 4-rank single-site platform -> (config,
#: schedule, event hash, (recovery rounds, tasks re-executed, tasks
#: executed)), captured with the retired thread-per-rank backend and the
#: coroutine engine agreeing.  The Cholesky and LU matrices are those of
#: ``test_cholesky_and_lu_recover_bit_identically``.
RECOVERY_RUNS = {
    "qr": (
        qr_config(),
        FailureSchedule([RankFailure(2, after_events=40)]),
        "517a31d716b5eb4eb5e97060dba2c7b9b1a1afb723fb8ed78f56a8e3f14031e9",
        (1, 6, 59),
    ),
    "cholesky": (
        _factorization_config("cholesky", seed=5),
        FailureSchedule([RankFailure(3, after_events=20)]),
        "e1915eb4a69990200f7d2e8bdbbfcd3288ec526ae8f9a65757464d323a6088e0",
        (1, 0, 14),
    ),
    "lu": (
        _factorization_config("lu", seed=6),
        FailureSchedule([RankFailure(3, after_events=20)]),
        "5ce1d797198e96a053aff12d695e52d0fe45ae98567434e59bba02cfe585514a",
        (1, 0, 26),
    ),
}


class TestDeterminismAndAccounting:
    @pytest.mark.parametrize("run", sorted(RECOVERY_RUNS))
    def test_repeated_runs_are_bit_deterministic(self, platform4_single_site, run):
        cfg, schedule, digest, accounting = RECOVERY_RUNS[run]
        runs = [
            run_dag_factorization(
                platform4_single_site, cfg, failures=schedule, record_messages=True
            )
            for _ in range(2)
        ]
        first = runs[0]
        assert event_hash(first.simulation) == digest
        assert first.recovery.dead_ranks == schedule.ranks
        assert (first.recovery.rounds, first.recovery.tasks_reexecuted,
                first.recovery.tasks_executed) == accounting
        for other in runs[1:]:
            assert np.array_equal(other.r, first.r)
            assert other.makespan_s == first.makespan_s
            assert other.trace == first.trace
            assert other.recovery == first.recovery
            assert other.simulation.events == first.simulation.events

    def test_rank_failure_events_are_traced(self, platform4_single_site):
        cfg = qr_config()
        res = run_dag_factorization(
            platform4_single_site,
            cfg,
            failures=FailureSchedule([RankFailure(1, after_events=10)]),
        )
        [(rank, time)] = res.trace.rank_failures
        assert rank == 1
        assert res.recovery.death_times == (time,)

    @pytest.mark.parametrize("after_events", [10, 40, 80])
    def test_report_matches_independent_closure(
        self, platform4_single_site, monkeypatch, after_events
    ):
        """The accounting equals the closure recomputed from first principles.

        The planner's inputs (survivor done sets and store keys) are
        snapshotted at plan-build time; the test recomputes the
        lost-version closure independently and checks both counters.
        """
        captured: list[dict] = []
        real_build = build_recovery_plan

        def spy(graph, survivors, registry, wanted, original_rank_of):
            captured.append(
                {
                    "graph": graph,
                    "survivors": tuple(survivors),
                    "done": {r: set(registry[r]["done"]) for r in survivors},
                    "stored": {r: set(registry[r]["store"]) for r in survivors},
                    "wanted": tuple(wanted),
                }
            )
            return real_build(graph, survivors, registry, wanted, original_rank_of)

        monkeypatch.setattr(runtime_mod, "build_recovery_plan", spy)
        cfg = qr_config()
        res = run_dag_factorization(
            platform4_single_site,
            cfg,
            failures=FailureSchedule([RankFailure(1, after_events=after_events)]),
        )
        assert len(captured) == res.recovery.rounds == 1
        snap = captured[0]
        done = set().union(*snap["done"].values())
        available = set().union(*snap["stored"].values())
        wanted = {vkey for _h, vkey in snap["wanted"]}
        closure = lost_version_closure(snap["graph"], done, available, wanted)
        assert res.recovery.tasks_executed == len(closure)
        assert res.recovery.tasks_reexecuted == len(closure & done)


# ---------------------------------------------------------------------------
# The capability gap: SPMD cannot recover, the DAG runtime can
# ---------------------------------------------------------------------------

class TestSPMDCapabilityGap:
    def test_same_schedule_kills_spmd_but_not_dag(self, platform4_single_site):
        schedule = FailureSchedule([RankFailure(1, at_time=0.0)])
        a = random_matrix(256, 96, seed=3)
        with pytest.raises(RankFailedError, match="revoked"):
            run_parallel_caqr(
                platform4_single_site,
                CAQRConfig(m=256, n=96, tile_size=32, matrix=a),
                failures=schedule,
            )
        res = run_dag_factorization(
            platform4_single_site,
            DAGFactorizationConfig(m=256, n=96, tile_size=32, matrix=a),
            failures=schedule,
        )
        base = run_dag_factorization(
            platform4_single_site, DAGFactorizationConfig(m=256, n=96, tile_size=32, matrix=a)
        )
        assert np.array_equal(res.r, base.r)
