"""Generator-core engine: the request protocol and the single-threaded loop.

Rank programs are written as Python *generators*: every potentially blocking
operation (``recv`` on an empty mailbox, an incomplete collective rendezvous,
a voluntary ``yield_turn``) suspends the program by ``yield``-ing a small
request object to the :class:`CoroutineScheduler`.  One ordinary Python loop
owns the virtual-clock ready heap and resumes one rank generator at a time;
a blocked rank is literally a suspended generator in a list.  There are no
OS threads, no semaphores, no GIL hand-offs — resuming a rank is a single
``gen.send(None)``.

The request protocol is deliberately tiny:

* ``Park(kind, key, detail)`` — suspend until another rank produces the
  event ``(kind, key)`` (a matching ``unpark``).  ``detail`` is the
  human-readable wait description used by the deadlock wait graph — a
  string, or a zero-arg callable formatted lazily at deadlock detection
  (parking is on the per-event hot path; deadlocks are not).
* ``SWITCH`` — hand the CPU back voluntarily and resume in virtual-clock
  order (the cooperative ``yield_turn``).

Every scheduling decision takes the runnable rank with the minimum
``(virtual clock, rank id)``, and a woken rank is re-keyed by its current
clock, so the event order — and therefore the trace, the clocks and the
makespan — is a pure function of the program.  The golden hashes of
``tests/gridsim/test_engine_equivalence.py`` pin this.
"""

from __future__ import annotations

import gc
import heapq
from types import GeneratorType
from typing import TYPE_CHECKING, Callable, Hashable, Mapping, Sequence

from repro.exceptions import DeadlockError, SimulationError
from repro.gridsim.failures import _RankDeath

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (platform -> engine)
    from repro.gridsim.platform import SimulationState

__all__ = ["Park", "SWITCH", "RankStatus", "CoroutineScheduler", "format_deadlock"]


class RankStatus:
    """Lifecycle states of a simulated rank."""

    READY = "ready"  # in the ready set, waiting to be granted the CPU
    RUNNING = "running"  # the (single) rank currently executing
    BLOCKED = "blocked"  # parked on an unsatisfied dependency
    DONE = "done"  # program returned or raised


class Park:
    """Request: suspend the yielding rank until ``(kind, key)`` is produced.

    The scheduler registers the rank in its waiter table and resumes the
    generator only after a matching ``scheduler.unpark(kind, key)`` — or
    immediately when the simulation has aborted, in which case the resumed
    code re-checks the abort flag and raises.
    """

    __slots__ = ("kind", "key", "detail")

    def __init__(self, kind: str, key: Hashable, detail: object) -> None:
        self.kind = kind
        self.key = key
        self.detail = detail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Park(kind={self.kind!r}, key={self.key!r})"


class _Switch:
    """Singleton request: yield the CPU and resume in virtual-clock order."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SWITCH"


#: The one voluntary-yield request (identity-compared by the scheduler).
SWITCH = _Switch()


def format_deadlock(
    blocked: Sequence[int], waiting: Mapping[int, Park], done: int
) -> str:
    """Build the deadlock message with its per-rank wait graph."""
    lines = [
        f"deadlock detected: all {len(blocked)} live rank(s) are blocked "
        "and no pending event can unblock them"
    ]
    for rank in blocked:
        park = waiting.get(rank)
        detail = park.detail if park is not None else "unknown wait"
        if callable(detail):
            detail = detail()
        lines.append(f"  rank {rank}: waiting on {detail}")
    if done:
        lines.append(f"  ({done} rank(s) already finished)")
    return "\n".join(lines)


class CoroutineScheduler:
    """Single-threaded event loop driving every rank as a suspended generator.

    The ready heap is keyed by ``(clock, rank)``, with a one-element
    direct-dispatch slot in front of it; parked ranks sit in a waiter table
    keyed by ``(kind, key)`` and are re-keyed by their clock when woken.
    Resuming a rank is one ``gen.send(None)``.

    The communicator and the simulation state call :meth:`unpark`,
    :meth:`wake_all_blocked` and :meth:`check_abort`; parking and yielding
    happen in the loop, when a generator yields ``Park`` / ``SWITCH``.
    """

    def __init__(self, ranks: Sequence[int], state: "SimulationState") -> None:
        self._state = state
        self._ranks = tuple(int(r) for r in ranks)
        #: Flat per-rank tables indexed by world rank (never-scheduled ranks
        #: sit at DONE): list indexing beats dict hashing on the per-event
        #: hot path.
        n_slots = (max(self._ranks) + 1) if self._ranks else 0
        self._status: list[RankStatus] = [RankStatus.DONE] * n_slots
        for r in self._ranks:
            self._status[r] = RankStatus.READY
        #: rank -> the Park request it is suspended on.
        self._waiting: dict[int, Park] = {}
        self._waiters: dict[tuple[str, Hashable], list[int]] = {}
        #: Ready heap: (virtual clock at enqueue time, rank); ties broken by
        #: rank id, so the pop order is a pure function of simulation state.
        self._ready: list[tuple[float, int]] = [(0.0, r) for r in sorted(self._ranks)]
        heapq.heapify(self._ready)
        #: Direct-dispatch slot: at most one READY rank held outside the heap
        #: (fast path for send-wakes-one-receiver and for yields).
        self._direct: tuple[float, int] | None = None
        self._started: set[int] = set()
        self._gens: list[GeneratorType | None] = [None] * n_slots
        #: Streaming-stats window ticks: one float compare per dispatch when
        #: streaming is on, a compare against +inf when it is off.  Pure
        #: observer (max-only horizon update) — never affects pop order.
        stats = state.trace.stats
        self._obs = stats
        self._obs_tick = stats.next_tick if stats is not None else float("inf")

    # ------------------------------------------------------------ main loop
    def run(
        self,
        start: Callable[[int], object],
        on_result: Callable[[int, object], None],
        on_error: Callable[[int, BaseException], None],
    ) -> None:
        """Run every rank to completion (or until the simulation aborts).

        ``start(rank)`` invokes the rank program and returns either a plain
        value (a program that never blocks: it is complete) or a generator
        (driven by this loop).  ``on_result`` / ``on_error`` receive each
        rank's return value or exception; after a failure the remaining
        started ranks are resumed so they observe the abort flag and raise,
        while never-started ranks are skipped entirely.
        """
        state = self._state
        status = self._status
        gens = self._gens
        # Pause the cyclic GC for the duration of the loop: the engine
        # allocates only acyclic, refcount-reclaimed objects (requests,
        # payload tuples, trace rows), but the generational collector keeps
        # re-scanning the thousands of suspended generator frames it can see
        # — ~30% of wall time at 2048 ranks.  Collection is deferred, not
        # skipped: the previous enable state is restored on exit.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._run(state, status, gens, start, on_result, on_error)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self, state, status, gens, start, on_result, on_error) -> None:
        while True:
            rank = self._pop_min_ready()
            if rank is None:
                blocked = [r for r in self._ranks if status[r] is RankStatus.BLOCKED]
                if not blocked:
                    return
                if state.aborted:
                    # Resume every parked rank so it can observe the abort.
                    self.wake_all_blocked()
                else:
                    self._deadlock(blocked)
                continue
            status[rank] = RankStatus.RUNNING
            try:
                gen = gens[rank]
                if gen is None:
                    if rank not in self._started:
                        self._started.add(rank)
                        if state.aborted:
                            # A failure elsewhere: never start this program.
                            self._finish(rank)
                            continue
                        out = start(rank)
                        if not isinstance(out, GeneratorType):
                            on_result(rank, out)
                            self._finish(rank)
                            continue
                        gens[rank] = gen = out
                    else:  # pragma: no cover - defensive; finished ranks stay DONE
                        self._finish(rank)
                        continue
                while True:
                    req = gen.send(None)
                    if state.aborted:
                        # Resume at once so the program's abort re-check
                        # raises.
                        continue
                    if req is SWITCH:
                        status[rank] = RankStatus.READY
                        self._enqueue_ready((state.clock(rank), rank))
                    else:
                        status[rank] = RankStatus.BLOCKED
                        self._waiting[rank] = req
                        self._waiters.setdefault((req.kind, req.key), []).append(rank)
                    break
            except StopIteration as stop:
                gens[rank] = None
                on_result(rank, stop.value)
                self._finish(rank)
            except _RankDeath:
                # Injected death: retire the rank quietly — no result, no
                # error, no abort.  Survivors keep running; their next
                # operation on a communicator containing this rank raises
                # RankFailedError.
                gens[rank] = None
                self._finish(rank)
            except BaseException as exc:  # noqa: BLE001 - surfaced by the executor
                gens[rank] = None
                on_error(rank, exc)
                state.fail(exc)
                self._finish(rank)

    def _finish(self, rank: int) -> None:
        self._status[rank] = RankStatus.DONE
        self._waiting.pop(rank, None)

    # ---------------------------------------------------------- ready queue
    def _enqueue_ready(self, entry: tuple[float, int]) -> None:
        """Insert a READY rank's ``(clock, rank)`` into the runnable set.

        A likely-minimum entry takes the direct slot (the fast path for the
        send-wakes-one-receiver pattern and for yields); everything else goes
        to the heap.  :meth:`_pop_min_ready` considers slot and heap
        together, so the pop order is that of one priority queue.
        """
        direct = self._direct
        if direct is None and (not self._ready or entry < self._ready[0]):
            self._direct = entry
        elif direct is not None and entry < direct:
            heapq.heappush(self._ready, direct)
            self._direct = entry
        else:
            heapq.heappush(self._ready, entry)

    def _pop_min_ready(self) -> int | None:
        """Pop the READY rank with the minimum ``(clock, rank)``, or None."""
        while True:
            direct = self._direct
            top = self._ready[0] if self._ready else None
            if direct is not None and (top is None or direct < top):
                self._direct = None
                entry = direct
            elif top is not None:
                entry = heapq.heappop(self._ready)
            else:
                return None
            rank = entry[1]
            if self._status[rank] is RankStatus.READY:
                if entry[0] >= self._obs_tick:
                    self._obs_tick = self._obs.on_tick(entry[0])
                return rank

    # ------------------------------------------------------------- wake-ups
    def unpark(self, kind: str, key: Hashable) -> None:
        """Make every rank parked on ``(kind, key)`` runnable again.

        Called synchronously from within a running rank (a ``send`` waking a
        receiver, a completing collective); the woken ranks re-enter the
        ready set keyed by their *current* virtual clock.
        """
        ranks = self._waiters.pop((kind, key), None)
        if not ranks:
            return
        clock_of = self._state.clock
        status = self._status
        for rank in ranks:
            if status[rank] is not RankStatus.BLOCKED:
                continue
            status[rank] = RankStatus.READY
            self._waiting.pop(rank, None)
            self._enqueue_ready((clock_of(rank), rank))

    def wake_all_blocked(self) -> None:
        """Move every parked rank to READY, re-keyed by its clock.

        Used on abort (the woken ranks observe the abort flag and raise) and
        by the failure-detector broadcast after an injected rank death (the
        woken survivors re-check their wait and either re-park or observe the
        revoked communicator).  A woken rank only ever resumes through the
        main loop, in virtual-clock order.
        """
        clock_of = self._state.clock
        status = self._status
        for rank in self._ranks:
            if status[rank] is RankStatus.BLOCKED:
                status[rank] = RankStatus.READY
                self._waiting.pop(rank, None)
                self._enqueue_ready((clock_of(rank), rank))

    def check_abort(self) -> None:
        """Raise if the simulation has failed (deadlock errors keep their type)."""
        state = self._state
        if not state.aborted:
            return
        failure = state.failure
        if isinstance(failure, DeadlockError):
            raise DeadlockError(str(failure))
        raise SimulationError(f"simulation aborted: {failure!r}") from failure

    # -------------------------------------------------------------- deadlock
    def _deadlock(self, blocked: list[int]) -> None:
        """Fail the simulation with the wait graph of every parked rank."""
        done = sum(1 for r in self._ranks if self._status[r] is RankStatus.DONE)
        self._state.fail(DeadlockError(format_deadlock(blocked, self._waiting, done)))
