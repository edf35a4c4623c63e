"""Streaming trace statistics: fixed-memory observability for simulations.

The trace layer's counters (:class:`~repro.gridsim.trace.TraceSummary`) answer
the paper's Table I/II questions — totals of messages, bytes and flops — but
nothing distributional: no latency percentiles, no per-window utilisation, no
notion of *where* the waiting happened.  Historically those questions required
``record_messages=True`` and a post-hoc pass over millions of event tuples,
which is exactly what large sweeps cannot afford.

This module provides the always-on alternative: :class:`StreamingTraceStats`
is fed inline by the single-writer hot path of
:meth:`~repro.gridsim.trace.Trace.record_message` /
:meth:`~repro.gridsim.trace.Trace.record_flops` and maintains

* **log-bucketed histograms** (factor-of-two buckets) of message latency and
  size per link class and of flop-charge magnitude per kernel — O(log range)
  memory, exact integer bucket counts, p50/p95/p99 read off the CDF;
* **windowed timelines** of per-rank busy seconds, comm-wait seconds and
  received bytes in a fixed number of virtual-time windows whose width doubles
  as the horizon grows (see :mod:`repro.obs.timeline`);
* **contention hot spots**: accumulated wait seconds per
  ``(link class, source, dest)`` site, the top-K of which surface in
  ``TraceSummary.hot_spots``;
* **per-(link, traffic-class) totals** separating collective phases
  (barrier/bcast/reduce/...) from point-to-point traffic.

Everything is a pure *observer*: the statistics never feed back into
scheduling or pricing, so pinned trace hashes are unaffected, and every
structure is bounded — no event list.  The timelines live in flat buffers
allocated once per run, and contention sites in parallel arrays keyed by an
int.  An event keeps a new Python object only when it opens a histogram
bucket, a kernel, a traffic class or a contention site, so the
accumulator's object count does not grow with the rank count.

Determinism: under the cooperative scheduler the record calls arrive in a
single global order that is a pure function of the simulated program, so two
identical runs (with or without event recording) produce bit-identical
snapshots.  The bucket transforms (``int.bit_length``,
``math.frexp``) and the integer bucket counts are exact; the windowed
timelines fold by exact index halving (see :mod:`repro.obs.timeline`), so the
same guarantee extends to them.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from math import frexp

from repro.gridsim.network import LinkClass
from repro.obs.timeline import FrozenTimeline, WindowedTimeline

__all__ = [
    "COLLECTIVE_TAGS",
    "HistogramSummary",
    "HotSpot",
    "LogHistogram",
    "StreamingTraceStats",
    "TraceStats",
    "stats_from_events",
]

#: Tags the communicator's collective edge recorders use; anything else is a
#: point-to-point tag (stringified user tags).
COLLECTIVE_TAGS = frozenset(
    {"barrier", "bcast", "reduce", "allgather", "gather", "scatter"}
)


class LogHistogram:
    """Power-of-two-bucketed histogram with exact integer counts.

    Bucket ``i`` holds values in ``[2**(i-1), 2**i)``; the index is
    ``math.frexp(x)[1]`` for floats and ``x.bit_length()`` for non-negative
    integers (the two agree on common magnitudes).  Buckets live in a plain
    dict keyed by exponent, so any magnitude — including sub-second latencies
    with negative exponents — is representable without clamping.

    The hot path updates :attr:`counts` / :attr:`n` / :attr:`total` directly
    (see :class:`StreamingTraceStats`); :meth:`add` is the convenience entry
    point for cold paths such as the service metrics.
    """

    __slots__ = ("counts", "n", "total")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.n = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        """Record one observation (non-positive values land in bucket 0)."""
        if isinstance(value, int):
            i = value.bit_length() if value > 0 else 0
        else:
            i = frexp(value)[1] if value > 0.0 else 0
        counts = self.counts
        counts[i] = counts.get(i, 0) + 1
        self.n += 1
        self.total += value

    def freeze(self) -> HistogramSummary:
        """Immutable snapshot with deterministic (sorted) bucket order."""
        return HistogramSummary(
            buckets=tuple(sorted(self.counts.items())),
            n=self.n,
            total=self.total,
        )


@dataclass(frozen=True)
class HistogramSummary:
    """Frozen view of a :class:`LogHistogram`.

    ``buckets`` is a sorted tuple of ``(exponent, count)`` pairs; bucket
    ``e`` covers ``[2**(e-1), 2**e)``.  Quantiles return the *upper edge* of
    the bucket containing the requested rank, so they are conservative to at
    most a factor of two — the resolution the paper-scale sweeps need.
    """

    buckets: tuple[tuple[int, int], ...] = ()
    n: int = 0
    total: float = 0.0

    def quantile(self, q: float) -> float:
        """Upper bucket edge at cumulative fraction ``q`` (0 for empty)."""
        if self.n <= 0:
            return 0.0
        target = q * self.n
        seen = 0
        for exponent, count in self.buckets:
            seen += count
            if seen >= target:
                return 2.0 ** exponent
        return 2.0 ** self.buckets[-1][0]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    @property
    def max_edge(self) -> float:
        """Upper edge of the highest occupied bucket."""
        return 2.0 ** self.buckets[-1][0] if self.buckets else 0.0

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "total": self.total,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max_edge,
            "buckets": [list(b) for b in self.buckets],
        }


@dataclass(frozen=True)
class HotSpot:
    """One contention site: wait time accumulated at a receiving rank pair.

    ``source``/``dest`` are world ranks; the sentinel pair ``(-1, -1)`` is the
    overflow site that absorbs accounting once the per-run site table reaches
    its cap (so memory stays bounded on adversarial traffic patterns).
    ``messages`` and ``nbytes`` count only the messages that actually caused
    waiting — fully-hidden traffic never registers here.
    """

    link: str
    source: int
    dest: int
    wait_s: float
    messages: int
    nbytes: int

    def as_dict(self) -> dict:
        return {
            "link": self.link,
            "source": self.source,
            "dest": self.dest,
            "wait_s": self.wait_s,
            "messages": self.messages,
            "nbytes": self.nbytes,
        }


@dataclass(frozen=True, eq=False)
class TraceStats:
    """Immutable snapshot of a run's streaming statistics.

    Attached to ``TraceSummary.stats`` by live simulations (``None`` for
    summaries rebuilt from the persistent cache — the windows are not
    serialised, only the top-K hot spots are).  All fields are excluded from
    ``TraceSummary`` equality so cached round-trips still compare equal.

    The three per-rank timelines are properties: the snapshot keeps a frozen
    copy of the raw timeline rows (``windows``) and boxes them into
    rank-keyed dicts of tuples the first time one of them is read.  Most
    runs never read them (only the exports do), so most snapshots never
    pay for the boxing.  Equality compares the boxed timelines, as if they
    were plain fields.
    """

    n_ranks: int = 0
    #: Largest virtual time observed (pinned to the makespan at finalize).
    horizon_s: float = 0.0
    #: Width of one timeline window in the normalised snapshot.
    window_s: float = 0.0
    latency_by_link: dict[str, HistogramSummary] = field(default_factory=dict)
    size_by_link: dict[str, HistogramSummary] = field(default_factory=dict)
    flops_by_kernel: dict[str, HistogramSummary] = field(default_factory=dict)
    #: link -> traffic class ("p2p" or a collective tag) ->
    #: {"messages", "nbytes", "wait_s"} totals.
    link_traffic: dict[str, dict[str, dict]] = field(default_factory=dict)
    hot_spots: tuple[HotSpot, ...] = ()
    #: Frozen raw timeline rows; None for a snapshot without timelines.
    windows: FrozenTimeline | None = field(default=None, repr=False)

    @cached_property
    def _series(self) -> tuple[dict, dict, dict]:
        # cached_property writes the instance __dict__ directly, which a
        # frozen dataclass allows.
        return self.windows.series() if self.windows is not None else ({}, {}, {})

    @property
    def busy_timeline(self) -> dict[int, tuple[float, ...]]:
        """rank -> per-window busy seconds (only ranks with any activity)."""
        return self._series[0]

    @property
    def wait_timeline(self) -> dict[int, tuple[float, ...]]:
        """rank -> per-window p2p wait seconds."""
        return self._series[1]

    @property
    def recv_bytes_timeline(self) -> dict[int, tuple[int, ...]]:
        """rank -> per-window received bytes (exact integers)."""
        return self._series[2]

    def _compared(self) -> tuple:
        return (
            self.n_ranks,
            self.horizon_s,
            self.window_s,
            self.latency_by_link,
            self.size_by_link,
            self.flops_by_kernel,
            self.busy_timeline,
            self.wait_timeline,
            self.recv_bytes_timeline,
            self.link_traffic,
            self.hot_spots,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def as_dict(self) -> dict:
        return {
            "n_ranks": self.n_ranks,
            "horizon_s": self.horizon_s,
            "window_s": self.window_s,
            "latency_by_link": {
                k: v.as_dict() for k, v in self.latency_by_link.items()
            },
            "size_by_link": {k: v.as_dict() for k, v in self.size_by_link.items()},
            "flops_by_kernel": {
                k: v.as_dict() for k, v in self.flops_by_kernel.items()
            },
            "busy_timeline": {str(r): list(v) for r, v in self.busy_timeline.items()},
            "wait_timeline": {str(r): list(v) for r, v in self.wait_timeline.items()},
            "recv_bytes_timeline": {
                str(r): list(v) for r, v in self.recv_bytes_timeline.items()
            },
            "link_traffic": self.link_traffic,
            "hot_spots": [h.as_dict() for h in self.hot_spots],
        }


class StreamingTraceStats:
    """Single-pass accumulator fed inline by the trace recording hot path.

    The three public callbacks — :meth:`on_message`, :meth:`on_flops`,
    :meth:`on_tick` — are written for the per-event budget of the engine
    benchmarks: bound locals, dict upserts and flat-buffer increments, a
    helper call only when a rank's timeline row is seeded or rebinned or a
    contention site is opened.  ``on_tick`` only advances the time horizon
    (a max), so the dispatch pattern cannot perturb the snapshot; the
    executor's ``finalize(makespan)`` pins the horizon regardless.

    World ranks passed to the callbacks must lie in ``[0, n_ranks)``: they
    index the timeline buffers and the contention-site keys.
    """

    def __init__(
        self,
        n_ranks: int,
        *,
        n_windows: int = 64,
        base_window_s: float = 1e-6,
        top_k: int = 8,
        max_sites: int = 65536,
    ) -> None:
        self.n_ranks = n_ranks
        self.top_k = top_k
        self.horizon = 0.0
        #: Next virtual time at which the scheduler should call
        #: :meth:`on_tick`; geometric stride keeps the tick count
        #: logarithmic in the makespan.
        self.next_tick = 0.0
        self._max_sites = max_sites
        self._lat: list[LogHistogram] = [LogHistogram() for _ in LinkClass]
        self._size: list[LogHistogram] = [LogHistogram() for _ in LinkClass]
        self._kernels: dict[str, LogHistogram] = {}
        tl = self._timeline = WindowedTimeline(
            n_ranks, n_windows=n_windows, base_s=base_window_s
        )
        # The hot path indexes the timeline's buffers directly; they are
        # updated in place and never replaced.
        self._n_windows = n_windows
        self._width = tl.width
        self._busy = tl.busy
        self._wait = tl.wait
        self._nbytes = tl.nbytes
        #: Contention sites, accounted only for messages with wait_s > 0.
        #: A site ``(link index, source, dest)`` is keyed by the int
        #: ``(link * (n_ranks + 1) + source + 1) * (n_ranks + 1) + dest + 1``,
        #: whose order is the tuple's, and ``_site_slot`` maps it to a slot
        #: of the parallel totals arrays.  Past ``max_sites`` entries new
        #: sites fold into one overflow slot per link, keyed as
        #: ``(link, -1, -1)``.
        self._site_base = n_ranks + 1
        self._site_slot: dict[int, int] = {}
        self._site_key = array("q")
        self._site_wait = array("d")
        self._site_msgs = array("q")
        self._site_bytes = array("q")
        #: (link index, traffic class) -> [messages, nbytes, wait_s].
        self._traffic: dict[tuple[int, str], list] = {}

    # ------------------------------------------------------------ hot path
    def on_message(
        self,
        source: int,
        dest: int,
        nbytes: int,
        link_idx: int,
        tag: str,
        send_time: float,
        recv_time: float,
        wait_s: float,
    ) -> None:
        """Observe one recorded message (called inline, single writer)."""
        h = self._size[link_idx]
        counts = h.counts
        i = nbytes.bit_length()
        counts[i] = counts.get(i, 0) + 1
        h.n += 1
        h.total += nbytes
        if recv_time > send_time:
            lat = recv_time - send_time
            h = self._lat[link_idx]
            counts = h.counts
            i = frexp(lat)[1]
            counts[i] = counts.get(i, 0) + 1
            h.n += 1
            h.total += lat
        cls = tag if tag in COLLECTIVE_TAGS else "p2p"
        traffic = self._traffic
        tkey = (link_idx, cls)
        ent = traffic.get(tkey)
        if ent is None:
            ent = traffic[tkey] = [0, 0, 0.0]
        ent[0] += 1
        ent[1] += nbytes
        timed = recv_time > 0.0
        waited = wait_s > 0.0
        if timed or waited:
            # Inlined timeline update: bytes and wait share the window at
            # ``recv_time``, so one width lookup and one division cover both
            # (the separate add_bytes/add_wait calls cost ~2x on this path).
            # Collective tree edges carry no absolute times (recv_time 0.0)
            # and are excluded from the bytes timeline, matching what an
            # event replay can reconstruct.
            width = self._width[dest]
            if not width:
                width = self._timeline._seed(dest, recv_time)
            i = int(recv_time / width)
            if i >= self._n_windows:
                width = self._timeline._grow(dest, recv_time)
                i = int(recv_time / width)
            i += dest * self._n_windows
            if timed:
                self._nbytes[i] += nbytes
                if recv_time > self.horizon:
                    self.horizon = recv_time
            if waited:
                self._wait[i] += wait_s
                ent[2] += wait_s
                base = self._site_base
                skey = (link_idx * base + source + 1) * base + dest + 1
                slot = self._site_slot.get(skey)
                if slot is None:
                    slot = self._open_site(skey, link_idx)
                self._site_wait[slot] += wait_s
                self._site_msgs[slot] += 1
                self._site_bytes[slot] += nbytes

    def _open_site(self, key: int, link_idx: int) -> int:
        """Slot of a site not seen before (the link's overflow slot once full)."""
        slots = self._site_slot
        if len(slots) >= self._max_sites:
            key = link_idx * self._site_base**2  # (link_idx, -1, -1)
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(self._site_key)
            self._site_key.append(key)
            self._site_wait.append(0.0)
            self._site_msgs.append(0)
            self._site_bytes.append(0)
        return slot

    def on_flops(
        self,
        rank: int,
        flops: float,
        kernel: str,
        seconds: float,
        end_time: float | None,
    ) -> None:
        """Observe one flop charge (``end_time`` None when unknown)."""
        h = self._kernels.get(kernel)
        if h is None:
            h = self._kernels[kernel] = LogHistogram()
        counts = h.counts
        i = frexp(flops)[1]
        counts[i] = counts.get(i, 0) + 1
        h.n += 1
        h.total += flops
        if end_time is not None and seconds > 0.0:
            # Inlined WindowedTimeline.add_busy (hot path, see on_message).
            width = self._width[rank]
            if not width:
                width = self._timeline._seed(rank, end_time)
            i = int(end_time / width)
            if i >= self._n_windows:
                width = self._timeline._grow(rank, end_time)
                i = int(end_time / width)
            self._busy[rank * self._n_windows + i] += seconds
            if end_time > self.horizon:
                self.horizon = end_time

    def on_tick(self, now: float) -> float:
        """Advance the horizon from the scheduler; returns the next tick time.

        Max-only and therefore insensitive to how often it is called — any
        divergence in tick patterns washes out because :meth:`finalize`
        pins the horizon to the makespan.
        """
        if now > self.horizon:
            self.horizon = now
        nxt = now * 1.25 + 1e-4
        self.next_tick = nxt
        return nxt

    # ---------------------------------------------------------- aggregation
    def finalize(self, makespan: float) -> None:
        """Pin the horizon to the run's makespan (called by the executor)."""
        if makespan > self.horizon:
            self.horizon = makespan

    def top_hotspots(self) -> tuple[HotSpot, ...]:
        """Top-K contention sites by accumulated wait, deterministic order.

        Ranked by descending wait, ties by ``(link, source, dest)``: the
        packed site key sorts like that tuple and is unique per site, so
        the partial selection returns exactly the head of a full sort.
        """
        link_names = [k.value for k in LinkClass]
        keys = self._site_key
        waits = self._site_wait
        base = self._site_base
        top = heapq.nsmallest(
            self.top_k, range(len(keys)), key=lambda s: (-waits[s], keys[s])
        )
        spots = []
        for slot in top:
            link_idx, pair = divmod(keys[slot], base * base)
            source, dest = divmod(pair, base)
            spots.append(
                HotSpot(
                    link=link_names[link_idx],
                    source=source - 1,
                    dest=dest - 1,
                    wait_s=waits[slot],
                    messages=self._site_msgs[slot],
                    nbytes=self._site_bytes[slot],
                )
            )
        return tuple(spots)

    def snapshot(self) -> TraceStats:
        """Freeze every accumulator into an immutable :class:`TraceStats`."""
        link_names = [k.value for k in LinkClass]
        traffic: dict[str, dict[str, dict]] = {}
        for (link_idx, cls), (messages, total_bytes, wait_s) in sorted(
            self._traffic.items()
        ):
            traffic.setdefault(link_names[link_idx], {})[cls] = {
                "messages": messages,
                "nbytes": total_bytes,
                "wait_s": wait_s,
            }
        windows = self._timeline.freeze(self.horizon)
        return TraceStats(
            n_ranks=self.n_ranks,
            horizon_s=self.horizon,
            window_s=windows.window_s,
            latency_by_link={
                link_names[i]: h.freeze() for i, h in enumerate(self._lat) if h.n
            },
            size_by_link={
                link_names[i]: h.freeze() for i, h in enumerate(self._size) if h.n
            },
            flops_by_kernel={k: h.freeze() for k, h in sorted(self._kernels.items())},
            link_traffic=traffic,
            hot_spots=self.top_hotspots(),
            windows=windows,
        )


def stats_from_events(
    events, *, n_ranks: int, makespan: float, **kwargs
) -> TraceStats:
    """Recompute streaming statistics from a ``record_messages=True`` stream.

    Replays the event tuples through the *same* :class:`StreamingTraceStats`
    code path, so every statistic derivable from the retained events —
    latency and size histograms, per-kernel flop histograms, the
    received-bytes timeline and the per-link traffic counts — matches the
    online snapshot bit for bit (the equivalence test asserts this).

    Event tuples do not carry per-receive wait times or flop end times (the
    pinned event format predates this layer), so the wait-derived statistics
    — hot spots, the wait and busy timelines, the ``wait_s`` traffic column —
    come back empty here; the equivalence suite covers those by comparing
    recording against non-recording runs instead.
    """
    stats = StreamingTraceStats(n_ranks, **kwargs)
    on_message = stats.on_message
    on_flops = stats.on_flops
    for event in events:
        kind = event[0]
        if kind == "message":
            rec = event[1]
            on_message(
                rec.source,
                rec.dest,
                rec.nbytes,
                rec.link.index,
                rec.tag,
                rec.send_time,
                rec.recv_time,
                0.0,
            )
        elif kind == "flops":
            on_flops(event[1], event[2], event[3], 0.0, None)
    stats.finalize(makespan)
    return stats.snapshot()
