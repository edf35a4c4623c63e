"""Fixed-memory virtual-time timelines with width-doubling windows.

A :class:`WindowedTimeline` keeps, for every rank, a fixed number of
accumulation windows for three series — busy seconds, p2p wait seconds and
received bytes.  The run's makespan is unknown until the end, so instead of
guessing a window width each rank starts at the smallest power-of-two
multiple of ``base_s`` whose window range covers the rank's *first* event,
and doubles (rebinning the series) whenever a later event lands past the
last window.

**Layout.**  Each series is one flat buffer of ``n_ranks x n_windows``
machine numbers (rank ``r``'s windows are the slice ``[r * n_windows,
(r + 1) * n_windows)``), and a per-rank ``width`` buffer holds each rank's
current window width, ``0.0`` marking a rank with no activity yet.  The
buffers are reserved once per run at ``3 x 8 x n_windows + 8`` bytes per
rank (1544 B at 64 windows, ~12.6 MB at 8192 ranks) as anonymous memory
maps whose pages become resident only when first written, so a run pays
for the pages its active ranks touch: memory is O(ranks x n_windows) at
most, regardless of makespan or event count.  An event allocates nothing,
and the buffers are four objects whatever the rank count.

**Determinism.**  An event at virtual time ``t`` is attributed wholly to
the window containing ``t`` (no proportional span splitting).  Widths are
exact powers of two times ``base_s``, so ``int(t / (w * 2**k)) ==
int(t / w) >> k`` exactly in floating point — an event's final window under
any sequence of doublings is identical to binning it directly at the final
width, which is why :meth:`WindowedTimeline.freeze` can normalise every rank
to one global width.  Rebinning on growth folds each series in place
(``new[j >> k] += old[j]``, ascending ``j``), and since the seed width and
every doubling are pure functions of the event sequence, two runs with the
same event order produce bit-identical timelines; the received-bytes series
additionally uses exact integer arithmetic, making it reproducible even
from an event replay whose rebin history differs (no busy events to drive
the widths).

**Cost.**  Seeding at the first event's width (rather than always at
``base_s``) keeps most rebins off the hot path, but a rank whose events
span several powers of two still rebins once per doubling: at 8192 ranks
a with-Q TSQR run rebins every rank twice (16,384 rebins), the R-only run
124 times in all.  A rebin touches only the rank's non-zero windows
— they are located by a C-level scan of its 64-window slice — and the
additions happen in the same ascending order as a full scan, so no float
bit depends on how the windows were found.

**Snapshots.**  :meth:`WindowedTimeline.freeze` copies the active ranks'
raw rows into a :class:`FrozenTimeline` (a few numpy copies, no Python
object per rank); folding to the common width and boxing into per-rank
tuples happen only when a consumer asks for them
(:meth:`FrozenTimeline.series`).
"""

from __future__ import annotations

import mmap
from itertools import compress
from math import frexp

import numpy as np

__all__ = ["FrozenTimeline", "WindowedTimeline"]


def _zeros(typecode: str, size: int) -> memoryview:
    """``size`` zeros of ``typecode`` ('d' or 'q') as a writable flat buffer.

    Backed by a private anonymous memory map: its pages read as zero and
    take no resident memory until first written, so nothing is zero-filled
    up front and the rows of ranks that never become active are never
    touched.  Item access on a typed memoryview costs no more than on an
    ``array``.
    """
    raw = mmap.mmap(-1, max(size, 1) * 8, flags=mmap.MAP_PRIVATE)
    return memoryview(raw).cast(typecode)[:size]


class WindowedTimeline:
    """Per-rank windowed accumulator for busy / wait / received-bytes series."""

    __slots__ = ("n_ranks", "n_windows", "base_s", "width", "busy", "wait", "nbytes")

    def __init__(self, n_ranks: int, *, n_windows: int = 64, base_s: float = 1e-6):
        if n_windows < 2 or n_windows & (n_windows - 1):
            raise ValueError(f"n_windows must be a power of two >= 2: {n_windows}")
        self.n_ranks = n_ranks
        self.n_windows = n_windows
        self.base_s = base_s
        size = n_ranks * n_windows
        #: rank -> current window width; 0.0 marks a rank with no activity.
        self.width = _zeros("d", n_ranks)
        self.busy = _zeros("d", size)
        self.wait = _zeros("d", size)
        self.nbytes = _zeros("q", size)

    # ------------------------------------------------------------ hot path
    # NOTE: StreamingTraceStats inlines the add_* window binning against
    # width/busy/wait/nbytes and _seed/_grow directly (one width lookup
    # serves bytes and wait for the same message) — keep the layout and
    # the grow protocol in sync.
    def _seed(self, rank: int, t: float) -> float:
        """Activate ``rank`` at a width whose window range covers ``t``."""
        width = self.base_s
        limit = self.n_windows * width
        if t >= limit:
            # Smallest power-of-two factor with t < limit * 2**k; rounding in
            # the division can only mis-size by one step, which the add-time
            # ``i >= n_windows`` guard absorbs via _grow.
            width *= 2.0 ** frexp(t / limit)[1]
        self.width[rank] = width
        return width

    def _grow(self, rank: int, t: float) -> float:
        """Double the rank's window width until ``t`` fits; rebin in place."""
        n = self.n_windows
        width = self.width[rank]
        shift = 0
        while t >= n * width:
            width *= 2.0
            shift += 1
        base = rank * n
        windows = range(1, n)
        for series, zero in ((self.busy, 0.0), (self.wait, 0.0), (self.nbytes, 0)):
            # compress() walks the slice in C and yields only the non-zero
            # windows.  Ascending j drains every source index before a later
            # j lands on it as a target (j >> shift < j for j >= 1), so the
            # additions are exactly those of a full in-place scan.
            for j in compress(windows, series[base + 1 : base + n]):
                series[base + (j >> shift)] += series[base + j]
                series[base + j] = zero
        self.width[rank] = width
        return width

    def _window(self, rank: int, t: float) -> int:
        """Flat buffer index of the window holding ``t`` on ``rank``'s row."""
        width = self.width[rank]
        if not width:
            width = self._seed(rank, t)
        i = int(t / width)
        if i >= self.n_windows:
            width = self._grow(rank, t)
            i = int(t / width)
        return rank * self.n_windows + i

    def add_busy(self, rank: int, t: float, seconds: float) -> None:
        self.busy[self._window(rank, t)] += seconds

    def add_wait(self, rank: int, t: float, seconds: float) -> None:
        self.wait[self._window(rank, t)] += seconds

    def add_bytes(self, rank: int, t: float, nbytes: int) -> None:
        self.nbytes[self._window(rank, t)] += nbytes

    # ------------------------------------------------------------ snapshot
    def snapshot_width(self, horizon: float) -> float:
        """Smallest power-of-two multiple of ``base_s`` covering ``horizon``."""
        width = self.base_s
        limit = self.n_windows * width
        while horizon >= limit:
            width *= 2.0
            limit = self.n_windows * width
        return width

    def freeze(self, horizon: float) -> FrozenTimeline:
        """Copy the active ranks' raw rows; the live buffers stay untouched."""
        n = self.n_windows
        widths = np.frombuffer(self.width, dtype=np.float64)
        ranks = np.flatnonzero(widths)
        return FrozenTimeline(
            n_windows=n,
            window_s=self.snapshot_width(horizon),
            ranks=ranks,
            widths=widths[ranks],
            busy=np.frombuffer(self.busy, dtype=np.float64).reshape(-1, n)[ranks],
            wait=np.frombuffer(self.wait, dtype=np.float64).reshape(-1, n)[ranks],
            nbytes=np.frombuffer(self.nbytes, dtype=np.int64).reshape(-1, n)[ranks],
        )

    def snapshot(
        self, horizon: float
    ) -> tuple[
        dict[int, tuple[float, ...]],
        dict[int, tuple[float, ...]],
        dict[int, tuple[int, ...]],
    ]:
        """``(busy, wait, received bytes)`` at the ``horizon`` width.

        Shorthand for ``freeze(horizon).series()``.
        """
        return self.freeze(horizon).series()


class FrozenTimeline:
    """Immutable copy of a :class:`WindowedTimeline`'s active rows.

    ``ranks`` lists the active ranks in ascending order; ``widths`` and the
    rows of the ``(len(ranks), n_windows)`` matrices ``busy``, ``wait`` and
    ``nbytes`` are theirs, each at the rank's own (unnormalised) width.
    Holds numpy arrays only, so a retained snapshot adds no per-rank
    object for the garbage collector to scan, and pickles as a handful of
    buffers.
    """

    __slots__ = ("n_windows", "window_s", "ranks", "widths", "busy", "wait", "nbytes")

    def __init__(self, *, n_windows, window_s, ranks, widths, busy, wait, nbytes):
        self.n_windows = n_windows
        #: Common window width every rank is folded to.
        self.window_s = window_s
        self.ranks = ranks
        self.widths = widths
        self.busy = busy
        self.wait = wait
        self.nbytes = nbytes

    def series(
        self,
    ) -> tuple[
        dict[int, tuple[float, ...]],
        dict[int, tuple[float, ...]],
        dict[int, tuple[int, ...]],
    ]:
        """Normalise every rank to ``window_s``; skip all-zero series.

        Returns ``(busy, wait, received bytes)`` as rank-keyed dicts of
        per-window tuples.  The fold is a vectorised
        ``reshape(-1, 2**shift).sum(axis=1)`` over the ranks sharing a fold
        shift, stacked in ascending rank order; with fixed inputs the result
        is deterministic, and for the integer bytes series it is exact under
        any summation order.
        """
        n = self.n_windows
        busy_out: dict[int, tuple[float, ...]] = {}
        wait_out: dict[int, tuple[float, ...]] = {}
        bytes_out: dict[int, tuple[int, ...]] = {}
        ranks = self.ranks.tolist()
        # Both widths are power-of-two multiples of the same base, so the
        # ratio is an exact power of two and frexp's exponent is its log2.
        shifts = np.maximum(np.frexp(self.window_s / self.widths)[1] - 1, 0)
        # Group rows by their fold shift so each group stacks into one 2-D
        # matrix and folds in a single vectorised pass — thousands of ranks
        # cost a handful of numpy calls, not three per rank.
        by_shift: dict[int, list[int]] = {}
        for pos, shift in enumerate(shifts.tolist()):
            by_shift.setdefault(shift, []).append(pos)
        for shift, rows in by_shift.items():
            group = [ranks[p] for p in rows]
            whole = len(rows) == len(ranks)
            for out, source in (
                (busy_out, self.busy),
                (wait_out, self.wait),
                (bytes_out, self.nbytes),
            ):
                mat = source if whole else source[rows]
                if shift:
                    span = 1 << shift
                    folded = np.zeros((len(rows), n), dtype=mat.dtype)
                    if span >= n:
                        folded[:, 0] = mat.sum(axis=1)
                    else:
                        folded[:, : n >> shift] = mat.reshape(
                            len(rows), -1, span
                        ).sum(axis=2)
                    mat = folded
                mask = mat.any(axis=1)
                n_active = int(mask.sum())
                if n_active == 0:
                    continue
                if n_active < len(rows):
                    # Boxing a row into Python numbers is the expensive part
                    # of the whole snapshot — do it only for active rows.
                    keep = [r for r, k in zip(group, mask.tolist()) if k]
                    values = mat[mask].tolist()
                else:
                    keep = group
                    values = mat.tolist()
                for rank, row in zip(keep, values):
                    out[rank] = tuple(row)
        if len(by_shift) > 1:  # restore sorted-rank iteration order
            busy_out = {r: busy_out[r] for r in sorted(busy_out)}
            wait_out = {r: wait_out[r] for r in sorted(wait_out)}
            bytes_out = {r: bytes_out[r] for r in sorted(bytes_out)}
        return busy_out, wait_out, bytes_out
