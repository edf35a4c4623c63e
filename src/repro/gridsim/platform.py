"""Platform: the bundle of machine, network, placement and kernel model.

A :class:`Platform` is everything the simulator needs to know about "where
this computation runs": the grid hardware description, the network
characteristics, where each MPI rank was placed by the middleware, and how
fast each rank executes the dense kernels.  Experiment configurations
(:mod:`repro.experiments.grid5000`) construct platforms; the SPMD executor
and the communicator only ever read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence, TypeVar

from repro.exceptions import ConfigurationError
from repro.gridsim.engine import CoroutineScheduler
from repro.gridsim.failures import FailureSchedule, _RankDeath
from repro.gridsim.kernelmodel import KernelRateModel
from repro.gridsim.machine import GridSpec
from repro.gridsim.network import LinkClass, LinkSpec, NetworkModel
from repro.gridsim.topology import ProcessPlacement
from repro.gridsim.trace import Trace

__all__ = ["Platform", "SimulationState"]

T = TypeVar("T")


@dataclass(frozen=True)
class Platform:
    """Immutable description of the simulated execution environment."""

    grid: GridSpec
    network: NetworkModel
    placement: ProcessPlacement
    kernel_model: KernelRateModel
    name: str = "platform"

    def __post_init__(self) -> None:
        if self.placement.grid is not self.grid and self.placement.grid != self.grid:
            raise ConfigurationError("placement was built for a different grid")

    @property
    def n_processes(self) -> int:
        """Number of MPI ranks of the platform."""
        return self.placement.size

    @property
    def n_sites(self) -> int:
        """Number of geographical sites actually hosting ranks."""
        return len(self.placement.clusters_used())

    def practical_peak_gflops(self) -> float:
        """Paper §V-B practical upper bound: all processes at DGEMM speed."""
        return self.kernel_model.practical_peak_gflops(self.n_processes)

    def theoretical_peak_gflops(self) -> float:
        """Sum of the processors' theoretical peaks over all placed ranks."""
        peak = 0.0
        for rank in range(self.n_processes):
            cluster = self.grid.cluster(self.placement.cluster_of(rank))
            peak += cluster.node.processor.peak_gflops
        return peak


class SimulationState:
    """Mutable per-simulation state: virtual clocks, trace, scheduler, abort flag.

    One :class:`SimulationState` is created per SPMD run and shared by all
    ranks.  The state owns the single-threaded
    :class:`~repro.gridsim.engine.CoroutineScheduler` (and through it the
    ready set keyed by virtual clock) that runs exactly one rank at a time.

    **Single-writer invariant.**  Because the scheduler runs one rank at a
    time, clock reads and writes are never concurrent: a rank normally only
    touches its own clock, collective execution (performed by whichever rank
    arrives last) updates everyone's while the others are parked, and the
    executor reads the final clocks only after every rank has finished.
    Clock access therefore takes **no lock**: everything runs on one thread.

    ``active_ranks`` restricts the scheduled ranks to a subset of the
    platform's processes (the executor's ``ranks=...`` feature); clocks and
    traces are always platform-wide.
    """

    def __init__(
        self,
        platform: Platform,
        *,
        record_messages: bool = False,
        active_ranks: Sequence[int] | None = None,
        failures: FailureSchedule | None = None,
        streaming_stats: bool | None = None,
    ) -> None:
        self.platform = platform
        self.trace = Trace(
            platform.n_processes,
            record_messages=record_messages,
            streaming=streaming_stats,
        )
        self._clocks = [0.0] * platform.n_processes
        #: Set by :meth:`fail`; read on every hot-path abort check.
        self.aborted = False
        self.failure: BaseException | None = None
        #: Injected-failure machinery.  ``failures is None`` (the default)
        #: keeps every hot path on its pre-fault-tolerance branch — the
        #: engine equivalence suite pins failure-free runs bit-identical.
        self.failures = failures
        #: World ranks that have died, and their virtual death times.  A
        #: communicator whose group intersects :attr:`dead_ranks` is
        #: *revoked*: every operation on it raises
        #: :class:`~repro.exceptions.RankFailedError`.
        self.dead_ranks: set[int] = set()
        self.death_time: dict[int, float] = {}
        self._failure_checkpoints = (
            [0] * platform.n_processes if failures is not None else []
        )
        self._next_comm_id = 0
        #: Memo of kernel rates per ``(kernel, n)`` — the kernel model is
        #: immutable for the lifetime of a simulation, and the efficiency
        #: curve lookup is on the per-event hot path.
        self._rate_cache: dict[tuple[str, int | float | None], float] = {}
        #: Memo of ``(src, dest) -> (LinkClass, LinkSpec | None)`` — placement
        #: and network are immutable per simulation, and every message prices
        #: and classifies its link.  Populated lazily with the pairs that
        #: actually communicate (tree edges), so it stays O(P)-sized.
        self._link_cache: dict[tuple[int, int], tuple[LinkClass, LinkSpec | None]] = {}
        #: Run-wide memo for pure, rank-identical setup artifacts (domain row
        #: ranges, reduction trees, cluster lists).  Under the single-runner
        #: invariant the first rank to need a value builds it and every other
        #: rank reuses it; see :meth:`RankContext.shared`.
        self.memo: dict[Hashable, object] = {}
        ranks = range(platform.n_processes) if active_ranks is None else active_ranks
        self.scheduler = CoroutineScheduler(ranks, self)

    def allocate_comm_id(self) -> int:
        """Allocate the next communicator id (deterministic per simulation)."""
        comm_id = self._next_comm_id
        self._next_comm_id += 1
        return comm_id

    # ---------------------------------------------------------------- memo
    def shared(self, key: Hashable, build: Callable[[], T]) -> T:
        """Return the memoised value for ``key``, building it on first use.

        Every rank must call this with an identical key *and* a builder that
        produces an identical (treated-as-immutable) value; the single-runner
        invariant guarantees exactly one rank executes the builder.  Used to
        collapse per-rank O(P) setup work (identical on all ranks) into O(1)
        per run.
        """
        memo = self.memo
        try:
            return memo[key]  # type: ignore[return-value]
        except KeyError:
            value = build()
            memo[key] = value
            return value

    # -------------------------------------------------------------- clocks
    def clock(self, rank: int) -> float:
        """Current virtual time of ``rank`` in seconds."""
        return self._clocks[rank]

    def advance(self, rank: int, dt: float) -> float:
        """Advance ``rank``'s clock by ``dt`` seconds and return the new time."""
        if dt < 0:
            raise ConfigurationError(f"cannot advance clock by negative time {dt}")
        self._clocks[rank] += dt
        return self._clocks[rank]

    def set_clock(self, rank: int, t: float) -> None:
        """Set ``rank``'s clock, never moving it backwards."""
        if t > self._clocks[rank]:
            self._clocks[rank] = t

    def clocks(self) -> list[float]:
        """Snapshot of all clocks."""
        return list(self._clocks)

    def makespan(self) -> float:
        """Completion time of the simulation: the maximum clock."""
        return max(self._clocks) if self._clocks else 0.0

    # ------------------------------------------------------- communication
    def link_of(self, src: int, dest: int) -> tuple[LinkClass, LinkSpec | None]:
        """Memoised ``(class, spec)`` of the ``src -> dest`` link.

        ``spec`` is None exactly for self-messages (which cost nothing).
        One dict hit replaces the classify + spec-resolution walk on every
        message after the first over a given rank pair.
        """
        ent = self._link_cache.get((src, dest))
        if ent is None:
            if src == dest:
                ent = (LinkClass.SELF, None)
            else:
                placement = self.platform.placement
                la, lb = placement.locations[src], placement.locations[dest]
                ent = self.platform.network.link_between(
                    la.cluster, la.node, lb.cluster, lb.node
                )
            self._link_cache[(src, dest)] = ent
        return ent

    def transfer_time(self, nbytes: int | float, src: int, dest: int) -> float:
        """Seconds to move ``nbytes`` from ``src`` to ``dest``."""
        spec = self.link_of(src, dest)[1]
        return 0.0 if spec is None else spec.transfer_time(nbytes)

    def link_class(self, src: int, dest: int) -> LinkClass:
        """Class of the link between two ranks."""
        return self.link_of(src, dest)[0]

    def record_message(
        self, src: int, dest: int, nbytes: int, *, tag: str = "", send_time: float = 0.0,
        recv_time: float = 0.0, wait_s: float = 0.0
    ) -> None:
        """Record a message in the trace with its link classification."""
        self.trace.record_message(
            src,
            dest,
            nbytes,
            self.link_class(src, dest),
            tag=tag,
            send_time=send_time,
            recv_time=recv_time,
            wait_s=wait_s,
        )

    # ------------------------------------------------------------- compute
    def charge_compute(
        self, rank: int, flops: float, kernel: str = "gemm", n: int | float | None = None
    ) -> float:
        """Charge ``flops`` of ``kernel`` to ``rank`` and return the elapsed time."""
        if flops < 0:
            raise ConfigurationError(f"negative flop count: {flops}")
        if self.failures is not None:
            self.failure_checkpoint(rank)
        rate = self._rate_cache.get((kernel, n))
        if rate is None:
            rate = self.platform.kernel_model.rate(kernel, n)
            self._rate_cache[(kernel, n)] = rate
        dt = float(flops) / rate if flops else 0.0
        # Inlined advance(): dt >= 0 by construction (flops >= 0, rate > 0).
        clock = self._clocks[rank] + dt
        self._clocks[rank] = clock
        self.trace.record_flops(rank, flops, kernel, dt, clock)
        return dt

    # ------------------------------------------------------- injected death
    def failure_checkpoint(self, rank: int) -> None:
        """Kill ``rank`` if its scheduled deadline has been reached.

        Called (guarded by ``failures is not None``) at every communicator
        operation entry and compute charge.  A rank dies at
        its *first* checkpoint whose virtual clock is at or past its
        ``at_time``, or at its ``after_events + 1``-th checkpoint — both
        pure functions of simulation state, hence bit-deterministic.  Death
        raises :class:`_RankDeath`, which unwinds the rank's program; the
        engine retires it quietly.
        """
        deadline = self.failures.deadline(rank)
        if deadline is None:
            return
        counts = self._failure_checkpoints
        counts[rank] += 1
        if (
            deadline.at_time is not None and self._clocks[rank] >= deadline.at_time
        ) or (
            deadline.after_events is not None and counts[rank] > deadline.after_events
        ):
            self._kill_rank(rank)

    def _kill_rank(self, rank: int) -> None:
        """Retire ``rank`` at its current clock and notify the survivors."""
        self.dead_ranks.add(rank)
        time = self._clocks[rank]
        self.death_time[rank] = time
        self.trace.record_rank_failure(rank, time)
        # Failure-detector broadcast: every parked survivor is requeued (in
        # virtual-clock order, no abort) so it re-checks its wait and
        # observes the revoked communicator.
        self.scheduler.wake_all_blocked()
        raise _RankDeath(rank)

    # --------------------------------------------------------------- abort
    def fail(self, exc: BaseException) -> None:
        """Record a failure, set the abort flag and wake every parked rank.

        The first failure recorded is the root cause the executor reports;
        the woken ranks observe the abort flag and raise.
        """
        if self.failure is None:
            self.failure = exc
        self.aborted = True
        self.scheduler.wake_all_blocked()
