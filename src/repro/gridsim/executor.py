"""SPMD executor: run one Python program per simulated MPI rank.

The executor is the ``mpiexec`` of the simulator: it hands each rank a
:class:`RankContext` (its rank, the world communicator handle and the shared
simulation state), runs the rank programs under the engine's scheduler and
collects per-rank return values.  Exactly one rank executes at a time
(always one whose virtual clock was minimal when it became runnable), a
blocked rank suspends until the event it waits for occurs, and a cyclic wait
raises :class:`~repro.exceptions.DeadlockError` immediately with a per-rank
wait graph.

Rank programs are generators (blocking communicator calls are driven with
``yield from``) resumed one at a time by the single-threaded
:class:`~repro.gridsim.engine.CoroutineScheduler` event loop.  Programs
that never block (only ``send``/``probe``/``compute``) may remain plain
functions; the executor detects generator programs at runtime.

The *virtual* execution time of the program is the maximum rank clock when
every rank has finished — wall-clock time spent in numpy is never added to
the virtual clocks — and because scheduling decisions depend only on
simulation state, two identical runs produce identical results, clocks and
trace event streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence, TypeVar

from repro.exceptions import (
    ConfigurationError,
    DeadlockError,
    RankFailedError,
    SimulationError,
)
from repro.gridsim.communicator import CommCore, CommHandle
from repro.gridsim.engine import SWITCH
from repro.gridsim.failures import FailureSchedule
from repro.gridsim.platform import Platform, SimulationState
from repro.gridsim.topology import ProcessLocation
from repro.gridsim.trace import TraceSummary

__all__ = ["RankContext", "SimulationResult", "SPMDExecutor", "run_spmd"]

T = TypeVar("T")


@dataclass(slots=True)
class RankContext:
    """Everything a rank program needs: identity, communicator, clock access."""

    rank: int
    size: int
    comm: CommHandle
    state: SimulationState

    @property
    def platform(self) -> Platform:
        """The simulated platform this rank runs on."""
        return self.state.platform

    @property
    def location(self) -> ProcessLocation:
        """Physical location (cluster/node/slot) of this rank."""
        return self.state.platform.placement.location(self.rank)

    @property
    def cluster(self) -> str:
        """Name of the cluster hosting this rank."""
        return self.location.cluster

    def clock(self) -> float:
        """Current virtual time of this rank in seconds."""
        return self.state.clock(self.rank)

    def compute(self, flops: float, kernel: str = "gemm", n: int | float | None = None) -> float:
        """Charge ``flops`` of ``kernel`` to this rank and return the elapsed seconds."""
        return self.state.charge_compute(self.rank, flops, kernel, n)

    def shared(self, key: Hashable, build: Callable[[], T]) -> T:
        """Memoise run-wide pure setup identical on every rank.

        All ranks pass the same key and an equivalent builder; the first one
        to arrive builds, everyone else reuses (the scheduler's single-runner
        invariant makes this race-free and deterministic).  The returned
        value must be treated as immutable.
        """
        return self.state.shared(key, build)

    def yield_turn(self):
        """Hand the CPU back to the scheduler and resume in clock order.

        A generator (drive with ``yield from ctx.yield_turn()``).
        Long-running programs call this between work items (the DAG
        runtime's per-rank ready loops) so every rank advances in
        virtual-time order: the rank is re-keyed by its current clock and
        runs again when it is the minimum, so every runnable peer with an
        earlier clock has executed at least up to this rank's clock — a
        mailbox probe after the yield gets the causally correct answer.
        """
        yield SWITCH


@dataclass
class SimulationResult:
    """Outcome of one SPMD run."""

    results: list[object]
    makespan: float
    trace: TraceSummary
    clocks: list[float] = field(default_factory=list)
    #: Ordered event stream (messages and flops, in global virtual-time
    #: execution order); populated only when the executor records messages.
    events: list[tuple] = field(default_factory=list, repr=False)
    #: World rank of each entry of :attr:`results` (``results[i]`` is the
    #: return value of world rank ``ranks[i]``).  Identity for full runs;
    #: differs when the executor ran a subset of the platform's ranks.
    ranks: tuple[int, ...] = ()

    def result_of(self, rank: int) -> object:
        """Return the value returned by *world* rank ``rank``'s program."""
        if not self.ranks:
            return self.results[rank]
        try:
            local = self.ranks.index(rank)
        except ValueError:
            raise KeyError(
                f"world rank {rank} did not participate in this run "
                f"(active ranks: {list(self.ranks)})"
            ) from None
        return self.results[local]


#: Signature of an SPMD rank program.
RankProgram = Callable[..., object]


class SPMDExecutor:
    """Run SPMD programs on a simulated platform.

    Parameters
    ----------
    platform:
        The simulated grid (machine + network + placement + kernel model).
    record_messages:
        Keep individual message records in the trace (slower, used by the
        fine-grained tests); counters are always kept.
    collective_tree:
        Tree shape used by the world communicator's collectives: ``"binary"``
        (MPI/ScaLAPACK default), ``"hierarchical"`` (topology-aware) or
        ``"flat"``.
    failures:
        Optional :class:`~repro.gridsim.failures.FailureSchedule` injecting
        deterministic rank deaths.  A dead rank is retired quietly (its
        result stays ``None``); survivors touching a communicator that
        contains it get :class:`~repro.exceptions.RankFailedError`, which
        aborts the run with that type unless the program catches it (the
        DAG runtime's recovery path does).
    """

    def __init__(
        self,
        platform: Platform,
        *,
        record_messages: bool = False,
        collective_tree: str = "binary",
        failures: FailureSchedule | None = None,
        streaming_stats: bool | None = None,
    ) -> None:
        if failures is not None and not isinstance(failures, FailureSchedule):
            raise ConfigurationError(
                f"failures must be a FailureSchedule, got {failures!r}"
            )
        self.platform = platform
        self.record_messages = record_messages
        self.collective_tree = collective_tree
        self.failures = failures
        #: None = process default (on unless REPRO_STREAMING_STATS=0); the
        #: benchmark overhead gate passes False explicitly.
        self.streaming_stats = streaming_stats

    def run(
        self,
        program: RankProgram,
        *args: object,
        ranks: Sequence[int] | None = None,
        **kwargs: object,
    ) -> SimulationResult:
        """Execute ``program(ctx, *args, **kwargs)`` on every rank.

        ``ranks`` restricts execution to a subset of world ranks (used by
        tests); by default every placed rank participates.

        Raises
        ------
        SimulationError
            If any rank program raises; the original exception is chained.
        """
        n = self.platform.n_processes
        active = list(range(n)) if ranks is None else list(ranks)
        state = SimulationState(
            self.platform,
            record_messages=self.record_messages,
            active_ranks=active,
            failures=self.failures,
            streaming_stats=self.streaming_stats,
        )
        world = CommCore(
            state, active, collective_tree=self.collective_tree, name="world"
        )
        results: list[object] = [None] * len(active)
        errors: list[tuple[int, BaseException]] = []
        local_of = [0] * n
        for local, world_rank in enumerate(active):
            local_of[world_rank] = local

        def _start(world_rank: int) -> object:
            ctx = RankContext(
                rank=world_rank,
                size=len(active),
                comm=CommHandle(world, local_of[world_rank]),
                state=state,
            )
            return program(ctx, *args, **kwargs)

        def _on_result(world_rank: int, value: object) -> None:
            results[local_of[world_rank]] = value

        def _on_error(world_rank: int, exc: BaseException) -> None:
            errors.append((world_rank, exc))

        state.scheduler.run(_start, _on_result, _on_error)

        if errors:
            # Deadlocks and rank failures keep their precise type: callers
            # (tests, the recovery layer, the CLI) match on them.
            if isinstance(state.failure, (DeadlockError, RankFailedError)):
                raise state.failure
            # Prefer the root cause: the failure that tripped the abort flag
            # (every other rank only raised a secondary "simulation aborted").
            rank, first = min(
                ((r, e) for r, e in errors if e is state.failure),
                default=min(errors, key=lambda e: e[0]),
            )
            raise SimulationError(
                f"{len(errors)} rank(s) failed; first failure on rank {rank}: {first!r}"
            ) from first
        # Pin the streaming-stats horizon to the makespan before
        # snapshotting, so the timeline window width does not depend on the
        # dispatch pattern.
        makespan = state.makespan()
        state.trace.finalize(makespan)
        return SimulationResult(
            results=results,
            makespan=makespan,
            trace=state.trace.summary(),
            clocks=state.clocks(),
            # The trace accumulates events only when recording is on; the
            # stream is handed over without copying (the trace dies with the
            # run), and non-recording runs never allocate one.
            events=state.trace.events if self.record_messages else [],
            ranks=tuple(active),
        )


def run_spmd(
    platform: Platform,
    program: RankProgram,
    *args: object,
    record_messages: bool = False,
    collective_tree: str = "binary",
    failures: FailureSchedule | None = None,
    streaming_stats: bool | None = None,
    **kwargs: object,
) -> SimulationResult:
    """Convenience wrapper: build an executor and run ``program`` once."""
    executor = SPMDExecutor(
        platform,
        record_messages=record_messages,
        collective_tree=collective_tree,
        failures=failures,
        streaming_stats=streaming_stats,
    )
    return executor.run(program, *args, **kwargs)
