"""Execution traces: message, byte and flop accounting.

The paper's Tables I and II are statements about *counts* — number of
messages, volume of data exchanged, number of flops on the critical path.
The simulator therefore keeps, for every rank, counters broken down by link
class and kernel, and the benchmark harness compares the measured counts to
the analytic formulas of :mod:`repro.model.costs`.

**Single-writer, lock-free recording.**  The single-threaded scheduler runs
exactly one rank at a time, so :meth:`Trace.record_message` /
:meth:`Trace.record_flops` are never called concurrently.  The hot
recording path therefore takes **no lock**: counters are pre-seeded
plain dictionaries (one slot per :class:`LinkClass`, allocated once in the
constructor rather than through a ``defaultdict`` miss in the hot path) and
flat per-rank lists.  A lock is retained only for the aggregation
boundaries — :meth:`summary` and :meth:`reset` — which may be called from
the harness thread around a run.

Because events are appended in a single global order that is a pure function
of the simulated program, two identical runs produce identical ``events``
streams (and therefore byte-identical summaries), which the determinism
tests assert.

**Streaming statistics.**  Independently of event recording, the trace feeds
a :class:`~repro.obs.stats.StreamingTraceStats` observer inline from the same
single-writer hot path (``streaming=True``, the default): log-bucketed
latency/size/flop histograms, windowed busy/wait timelines and contention
hot spots, all in fixed memory with no event list.  The observer never feeds
back into pricing or scheduling — pinned trace hashes are untouched — and it
can be switched off (``streaming=False`` or ``REPRO_STREAMING_STATS=0``) for
overhead measurements.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

from repro.gridsim.network import LinkClass
from repro.obs.stats import HotSpot, StreamingTraceStats, TraceStats

__all__ = ["MessageRecord", "Trace", "TraceSummary"]


def _streaming_default() -> bool:
    """Session-wide default for streaming stats (env kill switch for benches)."""
    return os.environ.get("REPRO_STREAMING_STATS", "1") not in ("0", "false", "off")


@dataclass(frozen=True)
class MessageRecord:
    """One logical message between two ranks (kept only when recording is on)."""

    source: int
    dest: int
    nbytes: int
    link: LinkClass
    tag: str
    send_time: float
    recv_time: float


@dataclass
class TraceSummary:
    """Aggregated view of a :class:`Trace`, used by reports and benchmarks."""

    n_messages: dict[str, int] = field(default_factory=dict)
    bytes_by_link: dict[str, int] = field(default_factory=dict)
    messages_per_rank_max: int = 0
    inter_cluster_messages_per_rank_max: int = 0
    total_flops: float = 0.0
    flops_per_rank_max: float = 0.0
    flops_by_kernel: dict[str, float] = field(default_factory=dict)
    #: Number of flop-charging events recorded (used by the engine
    #: benchmarks' events/s metric; not a paper quantity).
    flop_events: int = 0
    #: Seconds each rank spent computing (sum of the virtual time charged by
    #: its flop events).  Used by the per-rank utilisation breakdown of the
    #: DAG analysis layer and the sweep CSVs.
    busy_s_per_rank: tuple[float, ...] = ()
    #: Seconds each rank's clock advanced waiting for point-to-point
    #: messages (``max(0, arrival - clock)`` summed over its receives).
    #: Zero wait means the message had already arrived when the rank asked
    #: for it — communication fully hidden behind computation.
    comm_wait_s_per_rank: tuple[float, ...] = ()
    #: ``(rank, virtual death time)`` of every injected rank failure, in
    #: death order.  Empty for runs without a failure schedule, so summaries
    #: of failure-free runs compare equal to pre-fault-tolerance ones.
    rank_failures: tuple[tuple[int, float], ...] = ()
    #: Top-K contention sites by accumulated p2p wait time (streaming
    #: observability; empty when streaming stats are off).  Excluded from
    #: equality so summaries round-tripped through the persistent cache —
    #: which serialises the spots but not the full snapshot — and summaries
    #: from streaming-off runs still compare equal.
    hot_spots: tuple[HotSpot, ...] = field(default=(), compare=False)
    #: Full streaming snapshot (histograms, timelines, link traffic) for
    #: live runs; None when streaming is off or the summary was rebuilt from
    #: the persistent cache.  Observer output only — excluded from equality
    #: and repr like :attr:`hot_spots`.
    stats: TraceStats | None = field(default=None, compare=False, repr=False)

    def idle_s_per_rank(self, makespan: float) -> tuple[float, ...]:
        """Per-rank idle seconds: makespan minus compute minus p2p waits.

        "Idle" covers everything the busy/comm columns do not: time parked in
        collectives, load imbalance at the end of the run, and (for the DAG
        runtime) time with an empty ready queue.
        """
        return tuple(
            max(0.0, makespan - busy - wait)
            for busy, wait in zip(self.busy_s_per_rank, self.comm_wait_s_per_rank)
        )

    @property
    def total_messages(self) -> int:
        """Total number of point-to-point messages over all links."""
        return sum(self.n_messages.values())

    @property
    def total_events(self) -> int:
        """Messages plus flop charges: the engine's per-event workload."""
        return self.total_messages + self.flop_events

    @property
    def inter_cluster_messages(self) -> int:
        """Total number of messages crossing cluster boundaries."""
        return self.n_messages.get(LinkClass.INTER_CLUSTER.value, 0)

    @property
    def inter_cluster_bytes(self) -> int:
        """Total bytes crossing cluster boundaries."""
        return self.bytes_by_link.get(LinkClass.INTER_CLUSTER.value, 0)


class Trace:
    """Single-writer accumulator of communication and computation events.

    Parameters
    ----------
    n_ranks:
        World size of the simulation the trace belongs to.
    record_messages:
        When True, every message is kept as a :class:`MessageRecord` (useful
        for debugging and for the fine-grained tree tests); when False only
        the counters are maintained, which is what the large benchmarks use.
    streaming:
        When True (the default, overridable per-process with
        ``REPRO_STREAMING_STATS=0``), an always-on
        :class:`~repro.obs.stats.StreamingTraceStats` observer is fed inline
        from the recording hot path: histograms, windowed timelines and hot
        spots in fixed memory, independent of ``record_messages``.
    """

    def __init__(
        self,
        n_ranks: int,
        *,
        record_messages: bool = False,
        streaming: bool | None = None,
    ) -> None:
        self.n_ranks = n_ranks
        self.record_messages = record_messages
        if streaming is None:
            streaming = _streaming_default()
        self.stats: StreamingTraceStats | None = (
            StreamingTraceStats(n_ranks) if streaming else None
        )
        # Bound-method caches: one attribute load on the hot path instead of
        # two, and a plain None test when streaming is off.
        self._on_message = self.stats.on_message if streaming else None
        self._on_flops = self.stats.on_flops if streaming else None
        # Guards summary()/reset() boundaries only; recording is lock-free
        # (single-writer under the cooperative scheduler).
        self._lock = threading.Lock()
        self.messages: list[MessageRecord] = []
        #: Ordered event stream: ``("message", MessageRecord)`` and
        #: ``("flops", rank, flops, kernel)`` tuples in execution order (kept
        #: only when recording is on; message events share the records of
        #: :attr:`messages` rather than duplicating them).
        self.events: list[tuple] = []
        # Flat per-link slots indexed by ``LinkClass.index``: the hot path is
        # a C-level list increment, never an enum-hashing dict lookup.
        # summary() exports only links that carried at least one message,
        # matching the lazily-created dictionaries of the previous
        # implementation bit for bit.
        self._msg_count: list[int] = [0] * len(LinkClass)
        self._bytes: list[int] = [0] * len(LinkClass)
        self._msgs_per_rank = [0] * n_ranks
        self._inter_msgs_per_rank = [0] * n_ranks
        self._flops_per_rank = [0.0] * n_ranks
        self._flops_by_kernel: dict[str, float] = {}
        self._flop_events = 0
        self._busy_s_per_rank = [0.0] * n_ranks
        self._comm_wait_s_per_rank = [0.0] * n_ranks
        #: Injected rank deaths, in death order (always kept — failures are
        #: rare and the recovery accounting needs them even when message
        #: recording is off).
        self.rank_failures: list[tuple[int, float]] = []

    # ----------------------------------------------------------- recording
    def record_message(
        self,
        source: int,
        dest: int,
        nbytes: int,
        link: LinkClass,
        *,
        tag: str = "",
        send_time: float = 0.0,
        recv_time: float = 0.0,
        wait_s: float = 0.0,
    ) -> None:
        """Account for one message from ``source`` to ``dest``.

        Self-messages (``link is LinkClass.SELF``) are free and not counted:
        MPI implementations short-circuit them and so does the paper's model.
        ``wait_s`` is the receiver-clock advance the message caused (0 when it
        had already arrived — fully-hidden communication).
        """
        if link is LinkClass.SELF:
            return
        idx = link.index
        nbytes = int(nbytes)
        self._msg_count[idx] += 1
        self._bytes[idx] += nbytes
        self._msgs_per_rank[source] += 1
        self._msgs_per_rank[dest] += 1
        if wait_s > 0.0:
            self._comm_wait_s_per_rank[dest] += wait_s
        if link is LinkClass.INTER_CLUSTER:
            self._inter_msgs_per_rank[source] += 1
            self._inter_msgs_per_rank[dest] += 1
        if self._on_message is not None:
            self._on_message(
                source, dest, nbytes, idx, tag, send_time, recv_time, wait_s
            )
        if self.record_messages:
            record = MessageRecord(
                source, dest, nbytes, link, tag, send_time, recv_time
            )
            self.messages.append(record)
            self.events.append(("message", record))

    def record_flops(
        self,
        rank: int,
        flops: float,
        kernel: str = "unknown",
        seconds: float = 0.0,
        end_time: float | None = None,
    ) -> None:
        """Account for ``flops`` floating-point operations executed by ``rank``.

        ``seconds`` is the virtual time those flops took on the rank's clock
        (the busy-time component of the per-rank utilisation breakdown).
        ``end_time`` is the rank's clock when the charge completed; it only
        places the charge on the streaming busy timeline (None leaves the
        timeline untouched) and is deliberately absent from the pinned event
        tuple format.
        """
        if flops <= 0:
            return
        flops = float(flops)
        self._flops_per_rank[rank] += flops
        self._busy_s_per_rank[rank] += seconds
        kernels = self._flops_by_kernel
        kernels[kernel] = kernels.get(kernel, 0.0) + flops
        self._flop_events += 1
        if self._on_flops is not None:
            self._on_flops(rank, flops, kernel, seconds, end_time)
        if self.record_messages:
            self.events.append(("flops", rank, flops, kernel))

    def record_rank_failure(self, rank: int, time: float) -> None:
        """Record the injected death of ``rank`` at virtual ``time``."""
        self.rank_failures.append((rank, time))
        if self.record_messages:
            self.events.append(("rank_failure", rank, time))

    def finalize(self, makespan: float) -> None:
        """Pin the streaming horizon to the run's makespan.

        Called by the executor once every rank has finished, so the
        timeline snapshot width is a pure function of the makespan —
        identical across recording modes regardless of how often the
        scheduler ticked.
        """
        if self.stats is not None:
            self.stats.finalize(makespan)

    # ------------------------------------------------------------- queries
    def message_count(self, link: LinkClass | None = None) -> int:
        """Number of messages, optionally restricted to one link class."""
        if link is None:
            return sum(self._msg_count)
        return self._msg_count[link.index]

    def bytes_sent(self, link: LinkClass | None = None) -> int:
        """Bytes moved, optionally restricted to one link class."""
        if link is None:
            return sum(self._bytes)
        return self._bytes[link.index]

    def flops(self, rank: int | None = None) -> float:
        """Flops executed by one rank, or by all ranks when ``rank`` is None."""
        if rank is None:
            return float(sum(self._flops_per_rank))
        return self._flops_per_rank[rank]

    def summary(self) -> TraceSummary:
        """Return an immutable aggregate snapshot of the trace."""
        with self._lock:
            # One ranking of the contention sites serves both hot-spot
            # fields: the summary's tuple is the snapshot's.
            stats = self.stats.snapshot() if self.stats is not None else None
            # Export only links that carried messages, so the summary is
            # identical to the one the lazily-populated counters produced.
            return TraceSummary(
                n_messages={
                    k.value: self._msg_count[k.index]
                    for k in LinkClass
                    if self._msg_count[k.index]
                },
                bytes_by_link={
                    k.value: self._bytes[k.index]
                    for k in LinkClass
                    if self._msg_count[k.index]
                },
                messages_per_rank_max=max(self._msgs_per_rank, default=0),
                inter_cluster_messages_per_rank_max=max(self._inter_msgs_per_rank, default=0),
                total_flops=float(sum(self._flops_per_rank)),
                flops_per_rank_max=float(max(self._flops_per_rank, default=0.0)),
                flops_by_kernel=dict(self._flops_by_kernel),
                flop_events=self._flop_events,
                busy_s_per_rank=tuple(self._busy_s_per_rank),
                comm_wait_s_per_rank=tuple(self._comm_wait_s_per_rank),
                rank_failures=tuple(self.rank_failures),
                hot_spots=stats.hot_spots if stats is not None else (),
                stats=stats,
            )

    def reset(self) -> None:
        """Clear all counters (used between benchmark repetitions)."""
        with self._lock:
            self.messages.clear()
            self.events.clear()
            self._msg_count = [0] * len(LinkClass)
            self._bytes = [0] * len(LinkClass)
            self._msgs_per_rank = [0] * self.n_ranks
            self._inter_msgs_per_rank = [0] * self.n_ranks
            self._flops_per_rank = [0.0] * self.n_ranks
            self._flops_by_kernel = {}
            self._flop_events = 0
            self._busy_s_per_rank = [0.0] * self.n_ranks
            self._comm_wait_s_per_rank = [0.0] * self.n_ranks
            self.rank_failures = []
            if self.stats is not None:
                self.stats = StreamingTraceStats(self.n_ranks)
                self._on_message = self.stats.on_message
                self._on_flops = self.stats.on_flops
