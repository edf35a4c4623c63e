"""Tests for the probe and yield primitives the DAG runtime is built on."""

from __future__ import annotations

import pytest

from repro.exceptions import CommunicatorError
from repro.gridsim.executor import run_spmd
from tests.conftest import make_platform


@pytest.fixture(scope="module")
def platform():
    return make_platform(1, 2, 2)


class TestProbe:
    def test_probe_reports_arrival_without_consuming(self, platform):
        priced = {}

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                priced["t"] = comm.send(b"x" * 1000, dest=1, tag="t")
                # A self-message costs nothing: it arrives at the send clock.
                ctx.compute(1e6)
                now = ctx.clock()
                assert now > 0.0
                assert comm.send("me", dest=0, tag="self") == now
                assert comm.probe(source=0, tag="self") == now
                assert (yield from comm.recv(source=0, tag="self")) == "me"
                assert ctx.clock() == now
                return None
            # Rank 1 runs after rank 0 parked/finished; the message is queued.
            first = comm.probe(source=0, tag="t")
            second = comm.probe(source=0, tag="t")
            assert first is not None and first == second  # non-destructive
            # The message is priced once: probe reports what send returned.
            assert first == priced["t"]
            assert comm.probe(source=0, tag="other") is None
            before = ctx.clock()
            assert before < first  # the receiver is behind the arrival
            payload = yield from comm.recv(source=0, tag="t")
            assert payload == b"x" * 1000
            # recv advanced the clock exactly to the priced arrival time.
            assert ctx.clock() == first
            return first

        result = run_spmd(platform, program, ranks=[0, 1])
        assert result.results[1] == priced["t"] > 0.0

    def test_probe_validates_source(self, platform):
        def program(ctx):
            if ctx.comm.rank == 0:
                with pytest.raises(CommunicatorError, match="invalid rank"):
                    ctx.comm.probe(source=99)

        run_spmd(platform, program, ranks=[0])

    def test_probe_records_nothing(self, platform):
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                comm.send(None, dest=1, tag=0, nbytes=64)
            else:
                comm.probe(source=0, tag=0)
            return None

        result = run_spmd(platform, program, ranks=[0, 1])
        # The message was sent but never received: probing must not count it.
        assert result.trace.total_messages == 0


class TestBusyAccounting:
    def test_collective_combines_count_as_busy_time(self, platform):
        """Reduce combine flops carry their charged seconds into the trace's
        per-rank busy accounting (not misclassified as idle)."""
        from repro.gridsim.communicator import ReduceOp

        op = ReduceOp(
            func=lambda a, b: (a or 0) + (b or 0), flops=lambda a, b: 1e9
        )

        def program(ctx):
            yield from ctx.comm.allreduce(1.0, op=op)
            return None

        result = run_spmd(platform, program)
        trace = result.trace
        # Some rank performed combines; its busy seconds must be positive
        # and no rank's busy time may exceed the makespan.
        assert max(trace.busy_s_per_rank) > 0.0
        assert all(b <= result.makespan + 1e-12 for b in trace.busy_s_per_rank)

    def test_compute_charges_busy_seconds(self, platform):
        def program(ctx):
            ctx.compute(1e9, kernel="gemm")
            return None

        result = run_spmd(platform, program, ranks=[0])
        assert result.trace.busy_s_per_rank[0] == pytest.approx(result.clocks[0])


class TestYieldTurn:
    def test_yield_hands_cpu_to_the_earliest_rank(self, platform):
        """A compute-heavy rank that yields between work items interleaves
        with its peers in virtual-time order, so its probes see messages
        that causally arrived."""

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 1:
                ctx.compute(1e9, kernel="gemm")  # busy until ~virtual 0.1s
                comm.send("hello", dest=0, tag="m")
                return None
            # Rank 0 chops its work into slices and yields between them;
            # without the yields it would run all slices before rank 1 ever
            # executes, and the probe below would see nothing.
            seen_at = None
            for _ in range(20):
                ctx.compute(2e8, kernel="gemm")
                yield from ctx.yield_turn()
                arrival = comm.probe(source=1, tag="m")
                if arrival is not None and seen_at is None:
                    seen_at = ctx.clock()
            assert seen_at is not None
            got = yield from comm.recv(source=1, tag="m")
            assert got == "hello"
            return seen_at

        result = run_spmd(platform, program, ranks=[0, 1])
        # The message was visible well before rank 0 finished its 20 slices.
        assert result.results[0] < result.clocks[0]

    def test_yield_is_safe_when_alone(self, platform):
        def program(ctx):
            for _ in range(3):
                yield from ctx.yield_turn()
            return ctx.rank

        result = run_spmd(platform, program, ranks=[2])
        assert result.results == [2]

    def test_yield_preserves_determinism(self, platform):
        def program(ctx):
            comm = ctx.comm
            for i in range(5):
                ctx.compute(1e7 * (comm.rank + 1), kernel="gemm")
                yield from ctx.yield_turn()
            return ctx.clock()

        a = run_spmd(platform, program)
        b = run_spmd(platform, program)
        assert a.clocks == b.clocks
