"""Property-based (hypothesis) correctness of DAG failure recovery.

Random failure schedules against small tiled QR and Cholesky graphs: for
*every* sampled schedule the recovered factor must be bit-identical to the
failure-free run, repeated runs must produce identical traces (failures
included), and the exactly-once accounting must be internally consistent.
These properties are the fault-tolerance analogue of the policy-invisibility
properties in ``test_dag_properties.py``: a failure schedule changes when
and where kernels run — never the numbers.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dag import DAGFactorizationConfig, run_dag_factorization
from repro.gridsim.failures import FailureSchedule, RankFailure
from tests.conftest import make_platform
from tests.dag.test_cholesky_lu import spd_matrix

# Every example simulates a failure-free baseline plus a failing run with
# full recovery; keep the example counts moderate.
RECOVERY = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: One platform for the whole module (session fixtures are unavailable
#: inside @given bodies).
PLATFORM = make_platform(1, 2, 2)
N_RANKS = PLATFORM.n_processes


@st.composite
def failure_schedules(draw) -> FailureSchedule:
    """1-2 distinct ranks, each dying at a random time or event count."""
    n_failures = draw(st.integers(1, 2))
    ranks = draw(
        st.lists(
            st.integers(0, N_RANKS - 1),
            min_size=n_failures,
            max_size=n_failures,
            unique=True,
        )
    )
    failures = []
    for rank in ranks:
        if draw(st.booleans()):
            failures.append(RankFailure(rank, at_time=draw(st.floats(0.0, 0.02))))
        else:
            failures.append(RankFailure(rank, after_events=draw(st.integers(0, 120))))
    return FailureSchedule(failures)


def _consistent_report(res, schedule: FailureSchedule) -> None:
    rec = res.recovery
    if rec is None:  # the schedule never fired — a legitimate outcome
        return
    assert set(rec.dead_ranks) <= set(schedule.ranks)
    assert len(rec.dead_ranks) == len(rec.death_times)
    assert rec.rounds >= 1
    assert rec.tasks_executed >= rec.tasks_reexecuted >= 0
    assert rec.makespan_s == res.makespan_s


@RECOVERY
@given(schedule=failure_schedules(), seed=st.integers(0, 2**16))
def test_qr_recovery_is_bit_identical_for_any_schedule(schedule, seed):
    a = np.random.default_rng(seed).standard_normal((192, 64))
    cfg = DAGFactorizationConfig(m=192, n=64, tile_size=32, matrix=a)
    base = run_dag_factorization(PLATFORM, cfg)
    res = run_dag_factorization(
        PLATFORM, cfg, failures=schedule, baseline_makespan_s=base.makespan_s
    )
    assert np.array_equal(res.r, base.r)
    _consistent_report(res, schedule)


@RECOVERY
@given(schedule=failure_schedules(), seed=st.integers(0, 2**16))
def test_cholesky_recovery_is_bit_identical_for_any_schedule(schedule, seed):
    a = spd_matrix(96, seed=seed)
    cfg = DAGFactorizationConfig(m=96, n=96, tile_size=32, matrix=a, algorithm="cholesky")
    base = run_dag_factorization(PLATFORM, cfg)
    res = run_dag_factorization(
        PLATFORM, cfg, failures=schedule, baseline_makespan_s=base.makespan_s
    )
    assert np.array_equal(res.r, base.r)
    _consistent_report(res, schedule)


@RECOVERY
@given(schedule=failure_schedules())
def test_failing_runs_are_bit_deterministic(schedule):
    """Two identical runs under the same schedule: identical traces, events,
    death times and accounting."""
    cfg = DAGFactorizationConfig(m=192, n=64, tile_size=32)  # virtual: trace-only
    runs = [
        run_dag_factorization(
            PLATFORM,
            cfg,
            failures=schedule,
            record_messages=True,
            baseline_makespan_s=1.0,
        )
        for _ in range(2)
    ]
    first = runs[0]
    for other in runs[1:]:
        assert other.makespan_s == first.makespan_s
        assert other.trace == first.trace
        assert other.recovery == first.recovery
        assert other.simulation.events == first.simulation.events
        assert other.trace.rank_failures == first.trace.rank_failures
