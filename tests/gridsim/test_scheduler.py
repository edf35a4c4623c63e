"""Tests for the virtual-time cooperative scheduler: deadlocks, aborts, determinism.

These are the regression tests of the scheduler rewrite: deadlocks must be
detected *immediately* (no wall-clock timeouts exist any more) with a useful
per-rank wait graph, a failing rank must abort the run through the one abort
path with its root cause reported, and two identical simulations must
produce identical trace event streams, clocks and makespans.
"""

from __future__ import annotations

import time

import pytest

from repro.exceptions import DeadlockError, SimulationError
from repro.gridsim.engine import Park, format_deadlock
from repro.gridsim.executor import run_spmd
from repro.tsqr.parallel import TSQRConfig, run_parallel_tsqr
from tests.conftest import event_hash


class TestDeadlockDetection:
    def test_recv_cycle_detected_fast_with_wait_graph(self, platform4_single_site):
        """Two ranks waiting on each other's message: a head-to-head recv cycle."""

        def prog(ctx):
            if ctx.comm.rank < 2:
                other = 1 - ctx.comm.rank
                return (yield from ctx.comm.recv(source=other))
            return None

        start = time.perf_counter()
        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(platform4_single_site, prog)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0  # instant, not a 120 s wall-clock timeout
        assert str(excinfo.value) == "\n".join(
            [
                "deadlock detected: all 2 live rank(s) are blocked and no pending "
                "event can unblock them",
                "  rank 0: waiting on recv(source=1, tag=0) on communicator 'world'",
                "  rank 1: waiting on recv(source=0, tag=0) on communicator 'world'",
                "  (2 rank(s) already finished)",
            ]
        )

    def test_recv_from_self_detected(self, platform4_single_site):
        def prog(ctx):
            if ctx.comm.rank == 0:
                yield from ctx.comm.recv(source=0)

        start = time.perf_counter()
        with pytest.raises(DeadlockError, match="recv\\(source=0"):
            run_spmd(platform4_single_site, prog)
        assert time.perf_counter() - start < 1.0

    def test_missing_collective_participant_detected(self, platform4_single_site):
        """A rank that returns without entering the barrier strands the others."""

        def prog(ctx):
            if ctx.comm.rank == 3:
                return None  # skips the barrier
            yield from ctx.comm.barrier()

        with pytest.raises(DeadlockError, match="collective 'barrier'"):
            run_spmd(platform4_single_site, prog)

    def test_wait_graph_mixes_recv_and_collective(self, platform4_single_site):
        def prog(ctx):
            if ctx.comm.rank == 0:
                yield from ctx.comm.recv(source=1, tag="never-sent")
            else:
                yield from ctx.comm.barrier()

        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(platform4_single_site, prog)
        message = str(excinfo.value)
        assert "recv(source=1, tag='never-sent')" in message
        assert "collective 'barrier'" in message

    def test_deadlock_error_is_a_simulation_error(self, platform4_single_site):
        def prog(ctx):
            if ctx.comm.rank == 0:
                yield from ctx.comm.recv(source=1)

        with pytest.raises(SimulationError):
            run_spmd(platform4_single_site, prog)


class TestDeadlockReport:
    HEADER = (
        "deadlock detected: all {} live rank(s) are blocked and no pending "
        "event can unblock them"
    )

    def test_callable_detail_is_formatted_lazily(self):
        calls = []

        def detail():
            calls.append(1)
            return "a lazily described wait"

        waiting = {4: Park("recv", ("world", 4), detail)}
        assert calls == []  # parking never formats the description
        assert format_deadlock([4], waiting, 0) == "\n".join(
            [self.HEADER.format(1), "  rank 4: waiting on a lazily described wait"]
        )
        assert calls == [1]

    def test_rank_without_a_park_request_is_reported(self):
        waiting = {0: Park("barrier", ("world", 0), "collective 'barrier'")}
        assert format_deadlock([0, 1], waiting, 3) == "\n".join(
            [
                self.HEADER.format(2),
                "  rank 0: waiting on collective 'barrier'",
                "  rank 1: waiting on unknown wait",
                "  (3 rank(s) already finished)",
            ]
        )


def _boom_on_rank_2(started, raised):
    """Ranks 0/1 park (recv, barrier) before rank 2 raises; rank 3 comes last.

    Records the ranks whose program body ran and what each one raised.
    """

    def prog(ctx):
        rank = ctx.comm.rank
        started.append(rank)
        try:
            if rank == 2:
                raise ValueError("boom")
            if rank == 0:
                return (yield from ctx.comm.recv(source=1))
            yield from ctx.comm.barrier()
        except Exception as exc:
            raised[rank] = exc
            raise

    return prog


class TestAbortPath:
    def test_root_cause_is_reported_over_secondary_aborts(
        self, platform4_single_site
    ):
        raised = {}
        with pytest.raises(SimulationError) as excinfo:
            run_spmd(platform4_single_site, _boom_on_rank_2([], raised))
        assert str(excinfo.value) == (
            "3 rank(s) failed; first failure on rank 2: ValueError('boom')"
        )
        root = excinfo.value.__cause__
        assert root is raised[2]
        # The parked ranks are woken and raise a chained "aborted" error.
        assert sorted(raised) == [0, 1, 2]
        for rank in (0, 1):
            assert type(raised[rank]) is SimulationError
            assert str(raised[rank]) == "simulation aborted: ValueError('boom')"
            assert raised[rank].__cause__ is root

    def test_ranks_not_yet_started_never_start(self, platform4_single_site):
        started = []
        with pytest.raises(SimulationError):
            run_spmd(platform4_single_site, _boom_on_rank_2(started, {}))
        assert started == [0, 1, 2]

    def test_deadlock_abort_keeps_its_type_in_every_rank(
        self, platform4_single_site
    ):
        seen = {}

        def prog(ctx):
            try:
                yield from ctx.comm.recv(source=(ctx.comm.rank + 1) % 4)
            except DeadlockError as exc:
                seen[ctx.comm.rank] = str(exc)
                raise

        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(platform4_single_site, prog)
        assert seen == {rank: str(excinfo.value) for rank in range(4)}

    def test_a_run_after_an_abort_is_unaffected(self, platform8, platform4_single_site):
        config = TSQRConfig(m=262_144, n=32, n_domains=4, tree_kind="grid-hierarchical")
        before = run_parallel_tsqr(platform8, config, record_messages=True)
        with pytest.raises(SimulationError):
            run_spmd(platform4_single_site, _boom_on_rank_2([], {}))
        after = run_parallel_tsqr(platform8, config, record_messages=True)
        assert event_hash(after.simulation) == event_hash(before.simulation)


class TestDeterminism:
    @staticmethod
    def _run_tsqr(platform):
        return run_parallel_tsqr(
            platform,
            TSQRConfig(m=262_144, n=32, n_domains=4, tree_kind="grid-hierarchical"),
            record_messages=True,
        )

    def test_identical_runs_produce_identical_traces(self, platform8):
        first = self._run_tsqr(platform8)
        second = self._run_tsqr(platform8)
        assert first.simulation.events == second.simulation.events
        assert len(first.simulation.events) > 0
        assert first.makespan_s == second.makespan_s  # bit-identical, no approx
        assert first.simulation.clocks == second.simulation.clocks
        assert first.trace == second.trace

    def test_events_follow_virtual_time_order_per_rank(self, platform8):
        """Each rank's message receive times are non-decreasing in the stream."""
        events = self._run_tsqr(platform8).simulation.events
        last_recv: dict[int, float] = {}
        for event in events:
            if event[0] != "message":
                continue
            record = event[1]
            assert record.recv_time >= last_recv.get(record.dest, 0.0)
            last_recv[record.dest] = record.recv_time

    def test_scheduler_runs_one_rank_at_a_time(self, platform4_single_site):
        """The single-runner invariant: code between blocking calls never overlaps."""
        busy = {"rank": None}
        overlaps: list[tuple[int, int]] = []

        def prog(ctx):
            for _ in range(50):
                if busy["rank"] is not None:
                    overlaps.append((busy["rank"], ctx.comm.rank))
                busy["rank"] = ctx.comm.rank
                time.sleep(0.0001)  # invite preemption mid-section
                busy["rank"] = None
                yield from ctx.comm.barrier()

        run_spmd(platform4_single_site, prog)
        assert overlaps == []
