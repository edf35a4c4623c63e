"""Simulated MPI communicator.

The SPMD programs of this project (QCG-TSQR, the ScaLAPACK-style baseline,
the examples) are written against the interface below, which mirrors the
mpi4py object API (``send``/``recv``/``bcast``/``reduce``/``allreduce``/
``gather``/``scatter``/``split``/``barrier``) but executes under *virtual
time*:

* every rank is a cooperative generator driven by the engine's scheduler
  (exactly one rank runs at a time, minimum virtual clock first), with its
  own virtual clock in :class:`~repro.gridsim.platform.SimulationState`;
  blocking methods below are generator functions that suspend by yielding a
  :class:`~repro.gridsim.engine.Park` request — rank programs call them with
  ``yield from`` (``r = yield from comm.recv(...)``);
* a point-to-point message advances the receiver's clock by the link's
  ``latency + overhead + bytes/bandwidth``, with the link chosen from the
  placement of the two ranks (intra-node / intra-cluster / inter-cluster);
* collectives are executed as explicit tree schedules
  (:mod:`repro.gridsim.collectives`), so a reduction over ranks spread across
  clusters pays wide-area latencies exactly where its tree crosses sites —
  the effect at the heart of the paper;
* every message and every flop is recorded in the
  :class:`~repro.gridsim.trace.Trace` for the Table I/II count validations.

Implementation notes: a collective is executed by whichever rank enters the
rendezvous last; every other participant parks (yields ``Park`` to the
engine) until the schedule has been simulated.  A ``recv`` on an empty
mailbox likewise parks until the matching ``send`` unparks it.  There are no
polling sleeps and no wall-clock timeouts: blocking is event-driven, and a
cyclic wait is reported immediately as a
:class:`~repro.exceptions.DeadlockError` by the scheduler.  Because only one
rank runs at a time, mailboxes and rendezvous state need no locks of their
own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import CommunicatorError, RankFailedError
from repro.gridsim.collectives import (
    TreeSchedule,
    binary_tree,
    flat_tree,
    hierarchical_tree,
    simulate_broadcast,
    simulate_reduce,
)
from repro.gridsim.engine import Park
from repro.gridsim.platform import SimulationState
from repro.virtual.matrix import VirtualMatrix

__all__ = ["payload_nbytes", "ReduceOp", "SUM", "MAX", "CommCore", "CommHandle"]


def payload_nbytes(obj: object) -> int:
    """Best-effort size in bytes of a message payload.

    Handles numpy arrays, :class:`VirtualMatrix`, scalars, ``None`` and
    containers; anything unknown is charged a small fixed envelope.  Sizes
    feed the bandwidth term of the network model, so the goal is a faithful
    order of magnitude, not serialization-exact byte counts.
    """
    if obj is None:
        return 0
    if isinstance(obj, VirtualMatrix):
        return obj.nbytes
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return 8
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (tuple, list, set, frozenset)):
        return sum(payload_nbytes(x) for x in obj) + 16
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()) + 16
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    return 64


@dataclass(frozen=True)
class ReduceOp:
    """A user-defined reduction operator with its cost model.

    Attributes
    ----------
    func:
        Binary combine ``func(acc, incoming) -> combined``; must be
        associative (and commutative if the tree shape is not fixed).
    flops:
        ``flops(acc, incoming) -> float`` cost of one combine, used to charge
        virtual compute time; defaults to one flop per element of the result.
    kernel:
        Kernel-model class used to convert those flops into seconds.
    width:
        Optional ``width(acc, incoming) -> int`` giving the column count N
        passed to the kernel-efficiency curve.
    """

    func: Callable[[object, object], object]
    flops: Callable[[object, object], float] | None = None
    kernel: str = "reduce_op"
    width: Callable[[object, object], int | None] | None = None

    def combine_cost(self, acc: object, incoming: object) -> tuple[float, int | None]:
        """Return ``(flops, n)`` of combining ``acc`` with ``incoming``."""
        if self.flops is not None:
            f = float(self.flops(acc, incoming))
        else:
            f = float(np.size(acc)) if isinstance(acc, np.ndarray) else 1.0
        n = self.width(acc, incoming) if self.width is not None else None
        return f, n


def _sum_combine(a: object, b: object) -> object:
    if a is None:
        return b
    if b is None:
        return a
    return a + b


#: Element-wise sum, the default reduction.
SUM = ReduceOp(func=_sum_combine)
#: Element-wise maximum.
MAX = ReduceOp(func=lambda a, b: b if a is None else (a if b is None else np.maximum(a, b)))


class _Rendezvous:
    """Collective meeting point shared by the ranks of one communicator.

    Plain data: the single-runner invariant of the scheduler means at most
    one rank mutates it at any instant, so no lock is needed.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.generation = 0
        self.entries: dict[int, tuple[str, object, dict]] = {}
        self.results: dict[int, dict[int, object]] = {}
        self.pending_reads: dict[int, int] = {}


class CommCore:
    """Shared state of one communicator (the 'MPI_Comm' object)."""

    __slots__ = (
        "state",
        "world_ranks",
        "collective_tree",
        "comm_id",
        "name",
        "size",
        "_mailbox",
        "_rendezvous",
        "_tree_cache",
    )

    def __init__(
        self,
        state: SimulationState,
        world_ranks: Sequence[int],
        *,
        collective_tree: str = "binary",
        name: str | None = None,
    ) -> None:
        if len(set(world_ranks)) != len(world_ranks):
            raise CommunicatorError("duplicate world ranks in communicator group")
        if collective_tree not in ("binary", "flat", "hierarchical"):
            raise CommunicatorError(f"unknown collective tree kind {collective_tree!r}")
        self.state = state
        self.world_ranks = tuple(int(r) for r in world_ranks)
        self.collective_tree = collective_tree
        self.comm_id = state.allocate_comm_id()
        self.name = name or f"comm{self.comm_id}"
        self.size = len(self.world_ranks)
        self._mailbox: dict[tuple[int, int, object], deque] = {}
        self._rendezvous = _Rendezvous(self.size)
        self._tree_cache: dict[int, TreeSchedule] = {}

    # ------------------------------------------------------------- helpers
    def world_rank(self, local_rank: int) -> int:
        """Translate a local rank of this communicator into a world rank."""
        if not 0 <= local_rank < self.size:
            raise CommunicatorError(f"local rank {local_rank} out of range [0, {self.size})")
        return self.world_ranks[local_rank]

    def _check_abort(self) -> None:
        # Hot path: a plain attribute read; only a failed simulation pays
        # for the scheduler call that raises the recorded exception.
        if self.state.aborted:
            self.state.scheduler.check_abort()

    def _failure_checks(self, local_rank: int) -> None:
        """Failure checkpoint + revocation check at one operation *entry*.

        Called (guarded by ``state.failures is not None`` — runs without a
        schedule never branch here) at every operation entry.  First the
        calling rank's own deadline is checked (it may die here); then the
        revocation check of :meth:`_revocation_check`.  Park wake-ups run
        the revocation check only: deadlines fire at operation entries and
        compute charges, never on the way out of a completed rendezvous —
        so a completed collective is a consistent cut, which the DAG
        recovery protocol relies on for its completion barriers.
        """
        state = self.state
        state.failure_checkpoint(self.world_ranks[local_rank])
        self._revocation_check(local_rank)

    def _revocation_check(self, local_rank: int) -> None:
        """Raise if any group member has died (the ULFM 'revoked' state).

        The operation raises :class:`~repro.exceptions.RankFailedError` in
        virtual time, with the caller's clock already advanced past the
        death it observed.  Undelivered mailbox entries of a revoked
        communicator are tombstones — never consumed, never traced.
        """
        state = self.state
        if state.dead_ranks:
            dead = [r for r in self.world_ranks if r in state.dead_ranks]
            if dead:
                me = self.world_ranks[local_rank]
                # Detection happens in virtual time: the survivor learns of
                # the death no earlier than the death itself.
                detect = max(state.death_time[r] for r in dead)
                if detect > state._clocks[me]:
                    state._clocks[me] = detect
                times = ", ".join(f"{r} at t={state.death_time[r]:.6g}s" for r in dead)
                raise RankFailedError(
                    f"communicator {self.name!r} is revoked: rank(s) {times} failed"
                )

    def _edge_time_recorder(self, nbytes_of: Callable[[object], int], tag: str):
        """Return an ``edge_time(src_pos, dst_pos, payload)`` callback that
        prices the link between the corresponding world ranks and records the
        message in the trace.

        Payload sizes are memoised per collective execution (a broadcast
        sends the *same* object down every tree edge, and sizing a nested
        container is O(size)); the memo holds a strong reference to each
        sized payload, so an ``id`` can never be reused while its entry is
        alive, and dies with the closure when the collective completes.
        """
        memo: dict[int, tuple[object, int]] = {}

        def edge_time(src_pos: int, dst_pos: int, payload: object) -> float:
            src = self.world_ranks[src_pos]
            dst = self.world_ranks[dst_pos]
            entry = memo.get(id(payload))
            if entry is None or entry[0] is not payload:
                nbytes = nbytes_of(payload)
                memo[id(payload)] = (payload, nbytes)
            else:
                nbytes = entry[1]
            link, spec = self.state.link_of(src, dst)
            dt = 0.0 if spec is None else spec.transfer_time(nbytes)
            self.state.trace.record_message(src, dst, nbytes, link, tag=tag)
            return dt

        return edge_time

    def _build_tree(self, root_local: int) -> TreeSchedule:
        """Build (and memoise) the collective tree rooted at ``root_local``."""
        cached = self._tree_cache.get(root_local)
        if cached is not None:
            return cached
        tree = self._build_tree_uncached(root_local)
        self._tree_cache[root_local] = tree
        return tree

    def _build_tree_uncached(self, root_local: int) -> TreeSchedule:
        if self.collective_tree == "flat":
            return flat_tree(self.size, root=root_local)
        if self.collective_tree == "binary":
            return binary_tree(self.size, root=root_local)
        # Topology-aware: group local ranks by hosting cluster, keep the
        # root's cluster as the root group.
        placement = self.state.platform.placement
        clusters: dict[str, list[int]] = {}
        for pos, wr in enumerate(self.world_ranks):
            clusters.setdefault(placement.cluster_of(wr), []).append(pos)
        groups = list(clusters.values())
        root_cluster = placement.cluster_of(self.world_ranks[root_local])
        names = list(clusters.keys())
        root_group = names.index(root_cluster)
        # Make sure the root is the first member of its group so it becomes
        # the group root (and thus the global root).
        grp = groups[root_group]
        grp.remove(root_local)
        groups[root_group] = [root_local] + grp
        return hierarchical_tree(groups, root_group=root_group)

    # ----------------------------------------------------------------- p2p
    def send(self, local_rank: int, payload: object, dest: int, tag: object = 0,
             nbytes: int | None = None) -> float:
        """Eager send: price the message and enqueue it for ``dest``.

        The message is priced once, here: the link class and the alpha-beta
        transfer time from the sender's current clock give its virtual
        arrival time, which is stored with the mailbox entry (``recv`` and
        ``probe`` read it back) and returned to the caller.
        """
        state = self.state
        if state.aborted:
            state.scheduler.check_abort()
        if state.failures is not None:
            self._failure_checks(local_rank)
        if not 0 <= dest < self.size:
            raise CommunicatorError(f"send to invalid rank {dest} (size {self.size})")
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        src_world = self.world_ranks[local_rank]
        sender_clock = state._clocks[src_world]
        link, spec = state.link_of(src_world, self.world_ranks[dest])
        arrival = sender_clock + (0.0 if spec is None else spec.transfer_time(size))
        key = (dest, local_rank, tag)
        self._mailbox.setdefault(key, deque()).append(
            (payload, sender_clock, size, link, arrival)
        )
        # Wake the receiver if it is parked on exactly this (source, tag).
        state.scheduler.unpark("recv", (self.comm_id, dest, local_rank, tag))
        return arrival

    def recv(self, local_rank: int, source: int, tag: object = 0):
        """Blocking receive; advances the receiver's clock by the transfer time.

        A generator (drive with ``yield from``).  When the mailbox is empty
        the calling rank parks — yields a :class:`Park` to the engine — and
        is woken by the matching :meth:`send`, or fails immediately with a
        :class:`~repro.exceptions.DeadlockError` if no rank can ever send it.
        """
        state = self.state
        if state.aborted:
            state.scheduler.check_abort()
        if state.failures is not None:
            self._failure_checks(local_rank)
        if not 0 <= source < self.size:
            raise CommunicatorError(f"recv from invalid rank {source} (size {self.size})")
        key = (local_rank, source, tag)
        while True:
            queue = self._mailbox.get(key)
            if queue:
                payload, sender_clock, nbytes, link, arrival = queue.popleft()
                break
            yield Park(
                "recv",
                (self.comm_id, local_rank, source, tag),
                # Lazy: only formatted if this wait ends up in a deadlock report.
                lambda: f"recv(source={source}, tag={tag!r}) on communicator {self.name!r}",
            )
            self._check_abort()
            if state.failures is not None:
                self._revocation_check(local_rank)
        # ``send`` priced the arrival; a receiver that is behind waits for it.
        me = self.world_ranks[local_rank]
        clocks = state._clocks
        my_clock = clocks[me]
        if arrival > my_clock:
            clocks[me] = arrival
        state.trace.record_message(
            self.world_ranks[source], me, nbytes, link, tag=str(tag),
            send_time=sender_clock, recv_time=arrival,
            wait_s=max(0.0, arrival - my_clock),
        )
        return payload

    def probe(self, local_rank: int, source: int, tag: object = 0) -> float | None:
        """Non-destructive check for a pending message from ``source``/``tag``.

        Returns the message's virtual *arrival time* (the value ``send``
        returned) when one is queued, ``None`` otherwise.  Nothing is
        consumed, no clock moves and nothing is traced — the caller decides
        whether to :meth:`recv`.  Under the cooperative scheduler the result
        is a pure function of simulation state, so probe-driven programs
        stay deterministic.
        """
        self.checkpoint(local_rank)
        if not 0 <= source < self.size:
            raise CommunicatorError(f"probe of invalid rank {source} (size {self.size})")
        queue = self._mailbox.get((local_rank, source, tag))
        return queue[0][4] if queue else None

    def checkpoint(self, local_rank: int, count: int = 1) -> None:
        """The entry checks of ``count`` operations, without an operation.

        Exactly what ``count`` consecutive :meth:`probe` calls check: the
        abort flag, then — under a failure schedule — one full failure
        checkpoint plus revocation check and ``count - 1`` more failure
        checkpoints (the revocation verdict cannot change in between: only
        the caller runs, and its own death raises).  A program that polls
        by other means than ``probe`` (the DAG runtime's arrival index)
        charges its polls here, so failure deadlines counted in events
        fire where they would under polling.
        """
        if count < 1:
            return
        state = self.state
        if state.aborted:
            state.scheduler.check_abort()
        if state.failures is not None:
            self._failure_checks(local_rank)
            me = self.world_ranks[local_rank]
            for _ in range(count - 1):
                state.failure_checkpoint(me)

    def sendrecv(
        self, local_rank: int, payload: object, dest: int, source: int, tag: object = 0
    ):
        """Combined send + receive (a generator; drive with ``yield from``)."""
        self.send(local_rank, payload, dest, tag)
        return (yield from self.recv(local_rank, source, tag))

    # ----------------------------------------------------------- rendezvous
    def _collective(
        self, local_rank: int, kind: str, value: object, params: dict
    ):
        """Enter a collective; the last rank to arrive executes the schedule.

        A generator (drive with ``yield from``).  Every earlier arrival parks
        keyed by the rendezvous generation; the executing rank simulates the
        whole schedule, updates all exit clocks, publishes the per-rank
        results and unparks everyone.
        """
        state = self.state
        if state.aborted:
            state.scheduler.check_abort()
        if state.failures is not None:
            self._failure_checks(local_rank)
        rv = self._rendezvous
        my_gen = rv.generation
        if local_rank in rv.entries:
            raise CommunicatorError(
                f"rank {local_rank} entered collective {kind!r} twice in generation {my_gen}"
            )
        rv.entries[local_rank] = (kind, value, params)
        if len(rv.entries) == self.size:
            entries = rv.entries
            rv.entries = {}
            try:
                results = self._execute_collective(entries)
            except BaseException as exc:  # propagate to every waiting rank
                rv.generation += 1
                self.state.fail(exc)  # wakes every parked participant
                raise
            rv.results[my_gen] = results
            rv.pending_reads[my_gen] = self.size
            rv.generation += 1
            self.state.scheduler.unpark("collective", (self.comm_id, my_gen))
        else:
            while rv.generation == my_gen:
                yield Park(
                    "collective",
                    (self.comm_id, my_gen),
                    # Lazy: formatted only at deadlock detection.
                    lambda: f"collective {kind!r} on communicator {self.name!r} "
                    f"({len(rv.entries)}/{self.size} ranks arrived)",
                )
                self._check_abort()
                if state.failures is not None:
                    self._revocation_check(local_rank)
        result = rv.results[my_gen][local_rank]
        rv.pending_reads[my_gen] -= 1
        if rv.pending_reads[my_gen] == 0:
            del rv.results[my_gen]
            del rv.pending_reads[my_gen]
        return result

    def _execute_collective(self, entries: dict[int, tuple[str, object, dict]]) -> dict[int, object]:
        """Simulate one collective over all local ranks and return per-rank results."""
        kinds = {kind for kind, _, _ in entries.values()}
        if len(kinds) != 1:
            raise CommunicatorError(
                f"collective mismatch: ranks called different collectives {sorted(kinds)}"
            )
        kind = kinds.pop()
        params = entries[min(entries)][2]
        values = [entries[i][1] for i in range(self.size)]
        clocks = [self.state.clock(self.world_rank(i)) for i in range(self.size)]
        dispatch = {
            "barrier": self._do_barrier,
            "bcast": self._do_bcast,
            "reduce": self._do_reduce,
            "allreduce": self._do_allreduce,
            "gather": self._do_gather,
            "allgather": self._do_allgather,
            "scatter": self._do_scatter,
            "split": self._do_split,
        }
        if kind not in dispatch:
            raise CommunicatorError(f"unknown collective kind {kind!r}")
        results, exit_clocks = dispatch[kind](values, clocks, params)
        for i, t in enumerate(exit_clocks):
            self.state.set_clock(self.world_rank(i), t)
        return {i: results[i] for i in range(self.size)}

    # ------------------------------------------------------ collective impl
    def _combine_maker(self, op: ReduceOp):
        """Return a ``combine(acc, incoming) -> (value, dt)`` closure charging flops.

        The flops are recorded against the rank that *performs* the combine;
        since the reduce simulation does not know which position combines
        (it is the parent), we charge them to the parent when pricing the
        edge — here we only compute the time.
        """

        def combine(acc: object, incoming: object) -> tuple[object, float]:
            flops, n = op.combine_cost(acc, incoming)
            dt = self.state.platform.kernel_model.time(flops, op.kernel, n)
            combined = op.func(acc, incoming)
            return combined, dt

        return combine

    def _do_barrier(self, values, clocks, params):
        tree = self._build_tree(0)
        edge_time = self._edge_time_recorder(lambda _p: 0, tag="barrier")
        noop = ReduceOp(func=lambda a, b: None, flops=lambda a, b: 0.0)
        _, up = simulate_reduce(tree, [None] * self.size, clocks, edge_time, self._combine_maker(noop))
        _, down = simulate_broadcast(tree, None, up, edge_time, root_ready=up[tree.root])
        return [None] * self.size, down

    def _do_bcast(self, values, clocks, params):
        root = params.get("root", 0)
        tree = self._build_tree(root)
        nbytes_fn = params.get("nbytes_fn", payload_nbytes)
        edge_time = self._edge_time_recorder(nbytes_fn, tag="bcast")
        value = values[root]
        results, exit_clocks = simulate_broadcast(tree, value, clocks, edge_time)
        return results, exit_clocks

    def _do_reduce(self, values, clocks, params):
        root = params.get("root", 0)
        op: ReduceOp = params.get("op", SUM)
        tree = self._build_tree(root)
        nbytes_fn = params.get("nbytes_fn", payload_nbytes)
        edge_time = self._edge_time_recorder(nbytes_fn, tag="reduce")
        result, exit_clocks = simulate_reduce(
            tree, list(values), clocks, edge_time, self._combine_maker(op)
        )
        # Record the combine flops against the world rank of each internal node.
        self._charge_reduce_flops(tree, values, clocks, op)
        out = [None] * self.size
        out[root] = result
        return out, exit_clocks

    def _do_allreduce(self, values, clocks, params):
        root = params.get("root", 0)
        op: ReduceOp = params.get("op", SUM)
        tree = self._build_tree(root)
        nbytes_fn = params.get("nbytes_fn", payload_nbytes)
        edge_up = self._edge_time_recorder(nbytes_fn, tag="reduce")
        edge_down = self._edge_time_recorder(nbytes_fn, tag="bcast")
        result, up_clocks = simulate_reduce(
            tree, list(values), clocks, edge_up, self._combine_maker(op)
        )
        self._charge_reduce_flops(tree, values, clocks, op)
        results, exit_clocks = simulate_broadcast(
            tree, result, up_clocks, edge_down, root_ready=up_clocks[tree.root]
        )
        return results, exit_clocks

    def _charge_reduce_flops(
        self, tree: TreeSchedule, values, clocks, op: ReduceOp
    ) -> None:
        """Replay the reduce combine order to attribute flops to parent ranks.

        The seconds passed along are the same ``dt`` the reduce simulation
        charged to the parent's exit clock, so the per-rank busy accounting
        of the trace covers collective compute too.  The streaming busy
        timeline places each combine at the parent's *entry* clock — a
        deliberately coarse attribution (the exact exit clock lives inside
        the reduce simulation), deterministic because ``clocks`` is the
        entry snapshot.
        """
        acc = list(values)
        kernel_model = self.state.platform.kernel_model

        def _walk(pos: int) -> None:
            for child in tree.children[pos]:
                _walk(child)
                flops, n = op.combine_cost(acc[pos], acc[child])
                dt = kernel_model.time(flops, op.kernel, n)
                self.state.trace.record_flops(
                    self.world_rank(pos), flops, op.kernel, dt, clocks[pos]
                )
                acc[pos] = op.func(acc[pos], acc[child])

        _walk(tree.root)

    def _do_gather(self, values, clocks, params):
        root = params.get("root", 0)
        nbytes_fn = params.get("nbytes_fn", payload_nbytes)
        exit_clocks = list(clocks)
        root_world = self.world_rank(root)
        root_time = clocks[root]
        for src in range(self.size):
            if src == root:
                continue
            nbytes = nbytes_fn(values[src])
            dt = self.state.transfer_time(nbytes, self.world_rank(src), root_world)
            self.state.record_message(self.world_rank(src), root_world, nbytes, tag="gather")
            root_time = max(root_time, clocks[src] + dt)
        exit_clocks[root] = root_time
        out = [None] * self.size
        out[root] = list(values)
        return out, exit_clocks

    def _do_allgather(self, values, clocks, params):
        gathered, after_gather = self._do_gather(values, clocks, {**params, "root": 0})
        tree = self._build_tree(0)
        nbytes_fn = params.get("nbytes_fn", payload_nbytes)
        edge_time = self._edge_time_recorder(nbytes_fn, tag="allgather")
        results, exit_clocks = simulate_broadcast(
            tree, gathered[0], after_gather, edge_time, root_ready=after_gather[0]
        )
        return results, exit_clocks

    def _do_scatter(self, values, clocks, params):
        root = params.get("root", 0)
        nbytes_fn = params.get("nbytes_fn", payload_nbytes)
        items = values[root]
        if items is None or len(items) != self.size:
            raise CommunicatorError(
                f"scatter root must provide exactly {self.size} items, got "
                f"{None if items is None else len(items)}"
            )
        exit_clocks = list(clocks)
        sender_busy = clocks[root]
        root_world = self.world_rank(root)
        out = [None] * self.size
        for dest in range(self.size):
            if dest == root:
                out[dest] = items[dest]
                continue
            nbytes = nbytes_fn(items[dest])
            dt = self.state.transfer_time(nbytes, root_world, self.world_rank(dest))
            self.state.record_message(root_world, self.world_rank(dest), nbytes, tag="scatter")
            sender_busy += dt
            exit_clocks[dest] = max(clocks[dest], sender_busy)
            out[dest] = items[dest]
        exit_clocks[root] = sender_busy
        return out, exit_clocks

    def _do_split(self, values, clocks, params):
        # values[i] is the (color, key) pair supplied by local rank i.
        # Communicator creation is treated as free *setup*: the paper's cost
        # model (and its measurements) cover the factorization only, and the
        # topology-aware communicators are built once per application run, so
        # no messages are recorded and no virtual time is charged here.
        exit_clocks = list(clocks)

        groups: dict[object, list[tuple[object, int]]] = {}
        for local, (color, key) in enumerate(values):
            if color is None:  # MPI_UNDEFINED: rank opts out of any new comm
                continue
            groups.setdefault(color, []).append((key if key is not None else local, local))
        cores: dict[object, CommCore] = {}
        membership: dict[int, tuple[CommCore, int]] = {}
        for color, members in groups.items():
            members.sort()
            world = [self.world_rank(local) for _, local in members]
            core = CommCore(
                self.state,
                world,
                collective_tree=params.get("collective_tree", self.collective_tree),
                name=f"{self.name}.split({color})",
            )
            cores[color] = core
            for new_local, (_, local) in enumerate(members):
                membership[local] = (core, new_local)
        out: list[object] = []
        for local in range(self.size):
            if local in membership:
                core, new_local = membership[local]
                out.append(CommHandle(core, new_local))
            else:
                out.append(None)
        return out, exit_clocks


@dataclass(slots=True)
class CommHandle:
    """Per-rank view of a communicator (what an MPI process holds).

    Blocking methods (``recv``, ``sendrecv`` and every collective) are
    generator functions: rank programs drive them with ``yield from`` so the
    engine can suspend the program at the blocking point.  Non-blocking
    methods (``send``, ``probe``, ``checkpoint``, ``compute``, ``clock``)
    are plain calls.
    """

    core: CommCore
    local_rank: int

    # --------------------------------------------------------------- basics
    @property
    def rank(self) -> int:
        """Rank of the calling process within this communicator."""
        return self.local_rank

    @property
    def size(self) -> int:
        """Number of processes in this communicator."""
        return self.core.size

    @property
    def world_rank(self) -> int:
        """Global (world) rank of the calling process."""
        return self.core.world_rank(self.local_rank)

    @property
    def state(self) -> SimulationState:
        """The simulation state shared by all ranks."""
        return self.core.state

    def clock(self) -> float:
        """Current virtual time of the calling rank, in seconds."""
        return self.core.state.clock(self.world_rank)

    # ------------------------------------------------------------------ p2p
    def send(self, payload: object, dest: int, tag: object = 0, *, nbytes: int | None = None) -> float:
        """Send ``payload`` to local rank ``dest`` (eager, non-blocking in time).

        Returns the message's virtual arrival time at ``dest``.
        """
        return self.core.send(self.local_rank, payload, dest, tag, nbytes)

    def recv(self, source: int, tag: object = 0):
        """Receive the next message from ``source`` with matching ``tag``."""
        return (yield from self.core.recv(self.local_rank, source, tag))

    def probe(self, source: int, tag: object = 0) -> float | None:
        """Arrival time of a pending message from ``source``/``tag``, or None."""
        return self.core.probe(self.local_rank, source, tag)

    def checkpoint(self, count: int = 1) -> None:
        """Charge the entry checks of ``count`` probes without probing."""
        self.core.checkpoint(self.local_rank, count)

    def sendrecv(self, payload: object, dest: int, source: int, tag: object = 0):
        """Send to ``dest`` and receive from ``source``."""
        return (yield from self.core.sendrecv(self.local_rank, payload, dest, source, tag))

    # ---------------------------------------------------------- collectives
    def barrier(self):
        """Synchronise all ranks of the communicator."""
        yield from self.core._collective(self.local_rank, "barrier", None, {})

    def bcast(self, payload: object = None, root: int = 0):
        """Broadcast ``payload`` from ``root`` to every rank; returns it everywhere."""
        return (yield from self.core._collective(
            self.local_rank, "bcast", payload, {"root": root}
        ))

    def reduce(self, value: object, op: ReduceOp = SUM, root: int = 0):
        """Tree reduction to ``root``; non-root ranks receive ``None``."""
        return (yield from self.core._collective(
            self.local_rank, "reduce", value, {"op": op, "root": root}
        ))

    def allreduce(self, value: object, op: ReduceOp = SUM):
        """Tree reduction followed by a broadcast of the result to every rank."""
        return (yield from self.core._collective(
            self.local_rank, "allreduce", value, {"op": op}
        ))

    def gather(self, value: object, root: int = 0):
        """Gather one value per rank at ``root`` (rank order); ``None`` elsewhere."""
        return (yield from self.core._collective(
            self.local_rank, "gather", value, {"root": root}
        ))

    def allgather(self, value: object):
        """Gather one value per rank and broadcast the list to everyone."""
        return (yield from self.core._collective(self.local_rank, "allgather", value, {}))

    def scatter(self, values: list[object] | None = None, root: int = 0):
        """Scatter one item of ``values`` (given at ``root``) to each rank."""
        return (yield from self.core._collective(
            self.local_rank, "scatter", values, {"root": root}
        ))

    def split(self, color: object, key: int | None = None, *,
              collective_tree: str | None = None):
        """Split the communicator by ``color`` (mirrors ``MPI_Comm_split``).

        Ranks passing ``color=None`` receive ``None`` (they join no new
        communicator).  ``collective_tree`` overrides the tree shape of the
        resulting communicators.
        """
        params = {}
        if collective_tree is not None:
            params["collective_tree"] = collective_tree
        return (yield from self.core._collective(
            self.local_rank, "split", (color, key), params
        ))

    # --------------------------------------------------------------- compute
    def compute(self, flops: float, kernel: str = "gemm", n: int | float | None = None) -> float:
        """Charge ``flops`` of ``kernel`` to the calling rank's virtual clock."""
        return self.core.state.charge_compute(self.world_rank, flops, kernel, n)
