"""Engine failure model: deterministic rank deaths and revoked communicators.

The contract under test: a :class:`FailureSchedule` kills each scheduled
rank at its first failure checkpoint at/past its deadline, the dead rank is
retired quietly (no abort), survivors touching a communicator containing it
get :class:`RankFailedError` in virtual time, every death is recorded as a
``rank_failure`` trace event — and all of it is bit-deterministic given
``(program, schedule)``.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, RankFailedError
from repro.gridsim.executor import run_spmd
from repro.gridsim.failures import FailureSchedule, RankFailure
from tests.conftest import event_hash


def _compute_only(ctx):
    """Plain (never-blocking) program: ten compute charges, no communication."""
    for _ in range(10):
        ctx.compute(1e6)
    return ctx.comm.rank


def _ring(ctx):
    """Compute, send to the next rank, receive from the previous one."""
    comm = ctx.comm
    nxt = (comm.rank + 1) % comm.size
    prev = (comm.rank - 1) % comm.size
    try:
        ctx.compute(1e6)
        comm.send(comm.rank, nxt)
        yield from comm.recv(source=prev)
        return "completed"
    except RankFailedError:
        return "survived"


def _two_allreduces(ctx):
    yield from ctx.comm.allreduce(1.0)
    ctx.compute(1e9)  # pushes every clock past the scheduled death time
    return (yield from ctx.comm.allreduce(1.0))


#: Polls per polling step of ``_polling``.
N_POLLS = 3


def _probe_polls(comm):
    for _ in range(N_POLLS):
        comm.probe(source=0)


#: Two ways to charge ``N_POLLS`` polls: that many probes, or one
#: ``checkpoint`` call counting for all of them.
POLLS = {
    "probe": _probe_polls,
    "checkpoint": lambda comm: comm.checkpoint(N_POLLS),
}


def _polling(poll):
    """Rank 1 polls between compute charges; the others only compute.

    Rank 1's failure checkpoints: its first compute charge, ``N_POLLS``
    polls at the clock that charge reached, then two more charges.
    """

    def program(ctx):
        ctx.compute(1e6)
        if ctx.rank == 1:
            poll(ctx.comm)
        ctx.compute(1e6)
        ctx.compute(1e6)
        return ctx.clock()

    return program


class TestFailureSchedule:
    def test_needs_a_deadline(self):
        with pytest.raises(ConfigurationError, match="deadline"):
            RankFailure(rank=0)

    def test_rejects_duplicate_ranks(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            FailureSchedule(
                [RankFailure(0, at_time=1.0), RankFailure(0, at_time=2.0)]
            )

    def test_rejects_negative_deadlines(self):
        with pytest.raises(ConfigurationError):
            RankFailure(0, at_time=-1.0)
        with pytest.raises(ConfigurationError):
            RankFailure(0, after_events=-1)

    def test_from_pairs_and_key(self):
        schedule = FailureSchedule.from_pairs([(3, 0.5), (1, 0.25)])
        assert schedule.ranks == (1, 3)
        assert schedule.key() == ((1, 0.25, None), (3, 0.5, None))
        assert schedule == FailureSchedule.from_pairs([(1, 0.25), (3, 0.5)])


class TestQuietRetirement:
    def test_dead_rank_never_poisons_a_communication_free_run(
        self, platform4_single_site
    ):
        """A death with no communicator use afterwards: survivors just finish."""
        schedule = FailureSchedule([RankFailure(1, after_events=3)])
        result = run_spmd(platform4_single_site, _compute_only, failures=schedule)
        assert result.results == [0, None, 2, 3]
        summary = result.trace
        # Died at its 4th checkpoint: exactly 3 compute charges landed.
        [(rank, death_time)] = summary.rank_failures
        assert rank == 1
        assert death_time == result.clocks[1] > 0.0

    @pytest.mark.parametrize(
        "deadline",
        [{"at_time": 0.0}, {"after_events": 0}],
        ids=["at_time", "after_events"],
    )
    def test_zero_deadline_kills_before_any_work(
        self, platform4_single_site, deadline
    ):
        schedule = FailureSchedule([RankFailure(2, **deadline)])
        result = run_spmd(platform4_single_site, _compute_only, failures=schedule)
        assert result.results == [0, 1, None, 3]
        assert result.trace.rank_failures == ((2, 0.0),)
        assert result.clocks[2] == 0.0


class TestRevokedCommunicators:
    def test_survivors_observe_rank_failed_error(self, platform4_single_site):
        """Every survivor of the ring — parked or not — gets RankFailedError."""
        schedule = FailureSchedule([RankFailure(1, at_time=0.0)])
        result = run_spmd(platform4_single_site, _ring, failures=schedule)
        assert result.results == ["survived", None, "survived", "survived"]

    def test_uncaught_failure_raises_with_precise_type(self, platform4_single_site):
        """The error names the communicator, the dead rank and its death time
        (captured with the retired thread-per-rank backend agreeing)."""
        schedule = FailureSchedule([RankFailure(2, at_time=0.1)])
        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(platform4_single_site, _two_allreduces, failures=schedule)
        assert str(excinfo.value) == (
            "communicator 'world' is revoked: rank(s) 2 at t=0.272634s failed"
        )

    def test_detection_happens_in_virtual_time(self, platform4_single_site):
        """A survivor's clock never observes a death before it happened."""
        schedule = FailureSchedule([RankFailure(1, at_time=0.05)])

        def prog(ctx):
            if ctx.comm.rank == 1:
                ctx.compute(1e9)  # dies at the send below (clock ~0.27 >= 0.05)
                ctx.comm.send("never-delivered", 0)
                return None
            try:
                return (yield from ctx.comm.recv(source=1))
            except RankFailedError:
                return ctx.clock()

        result = run_spmd(platform4_single_site, prog, failures=schedule)
        [(_, death_time)] = result.trace.rank_failures
        assert death_time >= 0.05
        for rank in (0, 2, 3):
            assert result.results[rank] >= death_time

    def test_failure_free_schedule_path_is_inert(self, platform4_single_site):
        """A schedule naming a rank that finishes first changes nothing."""
        baseline = run_spmd(platform4_single_site, _ring, record_messages=True)
        late = FailureSchedule([RankFailure(0, at_time=1e9)])
        shadowed = run_spmd(
            platform4_single_site, _ring, record_messages=True, failures=late
        )
        assert shadowed.results == baseline.results
        assert shadowed.events == baseline.events
        assert shadowed.clocks == baseline.clocks
        assert shadowed.trace == baseline.trace


class TestCheckpointAccounting:
    """``checkpoint(n)`` is charged exactly like ``n`` probes."""

    @pytest.mark.parametrize("after_events", range(N_POLLS + 5))
    def test_checkpoint_dies_where_probes_die(self, platform4_single_site, after_events):
        schedule = FailureSchedule([RankFailure(1, after_events=after_events)])
        probed, charged = (
            run_spmd(
                platform4_single_site,
                _polling(POLLS[poll]),
                record_messages=True,
                failures=schedule,
            )
            for poll in ("probe", "checkpoint")
        )
        assert event_hash(charged) == event_hash(probed)
        assert charged.results == probed.results
        assert charged.trace == probed.trace
        # The sweep reaches every checkpoint: before any work, inside the
        # polls, at each later charge, and past the last one.
        died = after_events <= N_POLLS + 2
        assert (probed.results[1] is None) == died
        assert len(probed.trace.rank_failures) == int(died)

    @pytest.mark.parametrize("poll", ["probe", "checkpoint"])
    def test_revoked_poll_raises_after_one_checkpoint(self, platform4_single_site, poll):
        """However many polls one call stands for, a revoked communicator
        raises at the first, with exactly one checkpoint counted."""
        schedule = FailureSchedule(
            [RankFailure(0, at_time=0.0), RankFailure(1, after_events=100)]
        )

        def prog(ctx):
            if ctx.rank != 1:
                ctx.compute(1e6)  # rank 0 dies here, before rank 1 runs
                return None
            ctx.compute(1e6)
            counts = ctx.state._failure_checkpoints
            before = counts[1]
            ctx.comm.checkpoint(0)  # zero polls check and count nothing
            with pytest.raises(RankFailedError, match="revoked"):
                POLLS[poll](ctx.comm)
            return counts[1] - before

        result = run_spmd(platform4_single_site, prog, failures=schedule)
        assert result.results[1] == 1
        assert result.trace.rank_failures == ((0, 0.0),)


#: Golden failure runs under ``DETERMINISM_SCHEDULE`` on the 4-rank
#: single-site platform, captured with the retired thread-per-rank backend
#: and the coroutine engine agreeing: program -> (event hash, results,
#: rank failures).
DETERMINISM_SCHEDULE = FailureSchedule(
    [RankFailure(1, at_time=0.0), RankFailure(3, after_events=5)]
)
FAILURE_RUNS = [
    (
        _ring,
        "394eba40fdfbd58ed1d869e1a45ad94f8e5dd1971c1a69d373a4d569ba3dfa74",
        ["survived", None, "survived", "survived"],
        ((1, 0.0),),
    ),
    (
        _compute_only,
        "9c9ca31ef435ef3431a981469aea3892f25b7bb02aba09f9e3e8ff9fa11409f6",
        [0, None, 2, None],
        ((1, 0.0), (3, 0.001362397820163488)),
    ),
]


class TestDeterminism:
    @pytest.mark.parametrize(
        "program,digest,results,rank_failures",
        FAILURE_RUNS,
        ids=[program.__name__.lstrip("_") for program, *_ in FAILURE_RUNS],
    )
    def test_failure_runs_are_pinned_bit_for_bit(
        self, platform4_single_site, program, digest, results, rank_failures
    ):
        runs = [
            run_spmd(
                platform4_single_site,
                program,
                record_messages=True,
                failures=DETERMINISM_SCHEDULE,
            )
            for _ in range(2)  # repeated runs must agree too
        ]
        first = runs[0]
        assert event_hash(first) == digest
        assert first.results == results
        assert first.trace.rank_failures == rank_failures
        for other in runs[1:]:
            assert other.results == first.results
            assert other.events == first.events
            assert other.clocks == first.clocks
            assert other.makespan == first.makespan
            assert other.trace == first.trace
            assert other.trace.rank_failures == first.trace.rank_failures

    def test_rank_failure_appears_in_the_event_stream(self, platform4_single_site):
        schedule = FailureSchedule([RankFailure(1, after_events=2)])
        result = run_spmd(
            platform4_single_site,
            _compute_only,
            record_messages=True,
            failures=schedule,
        )
        failure_events = [e for e in result.events if e[0] == "rank_failure"]
        assert failure_events == [("rank_failure", 1, result.clocks[1])]
