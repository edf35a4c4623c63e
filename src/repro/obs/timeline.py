"""Fixed-memory virtual-time timelines with width-doubling windows.

A :class:`WindowedTimeline` keeps, for every rank that shows activity, a
fixed number of accumulation windows for three series — busy seconds, p2p
wait seconds and received bytes.  The run's makespan is unknown until the
end, so instead of guessing a window width each rank's row starts at the
smallest power-of-two multiple of ``base_s`` whose window range covers the
rank's *first* event, and doubles (rebinning the series) whenever a later
event lands past the last window.  Memory is therefore
O(active ranks x n_windows) regardless of makespan, and a 2048-rank run
costs a few megabytes.

**Determinism.**  An event at virtual time ``t`` is attributed wholly to
the window containing ``t`` (no proportional span splitting).  Widths are
exact powers of two times ``base_s``, so ``int(t / (w * 2**k)) ==
int(t / w) >> k`` exactly in floating point — an event's final window under
any sequence of doublings is identical to binning it directly at the final
width, which is why :meth:`snapshot` can normalise every rank to one
global width.  Rebinning on growth is a single pass (``new[j >> k] +=
old[j]``), and since the seed width and every doubling are pure functions
of the event sequence, two runs with the same event order produce
bit-identical timelines; the received-bytes series
additionally uses exact integer arithmetic, making it reproducible even
from an event replay whose rebin history differs (no busy events to drive
the widths).

The per-rank series live in ``array`` buffers (machine doubles / int64),
not Python lists, to keep the per-rank footprint near 2 KB.  Seeding at
the first event's width (rather than always at ``base_s``) is what keeps
the rebin work off the hot path: a rank typically rebins zero or one time
over a whole run, which the benchmark overhead gate relies on.
"""

from __future__ import annotations

from array import array
from math import frexp

import numpy as np

__all__ = ["WindowedTimeline"]

# Row layout: [window width, busy array('d'), wait array('d'), bytes array('q')]
_WIDTH, _BUSY, _WAIT, _BYTES = 0, 1, 2, 3


class WindowedTimeline:
    """Per-rank windowed accumulator for busy / wait / received-bytes series."""

    __slots__ = ("n_ranks", "n_windows", "base_s", "_rows", "_zeros")

    def __init__(self, n_ranks: int, *, n_windows: int = 64, base_s: float = 1e-6):
        if n_windows < 2 or n_windows & (n_windows - 1):
            raise ValueError(f"n_windows must be a power of two >= 2: {n_windows}")
        self.n_ranks = n_ranks
        self.n_windows = n_windows
        self.base_s = base_s
        #: rank -> [width, busy, wait, bytes]; allocated on first activity.
        self._rows: dict[int, list] = {}
        self._zeros = bytes(8 * n_windows)

    # ------------------------------------------------------------ hot path
    # NOTE: StreamingTraceStats inlines the add_* window binning against
    # _rows/_seed/_grow directly (one row lookup serves bytes and wait for
    # the same message) — keep the row layout and grow protocol in sync.
    def _seed(self, rank: int, t: float) -> list:
        """Allocate a row whose window range already covers time ``t``."""
        n = self.n_windows
        width = self.base_s
        limit = n * width
        if t >= limit:
            # Smallest power-of-two factor with t < limit * 2**k; rounding in
            # the division can only mis-size by one step, which the add-time
            # ``i >= n_windows`` guard absorbs via _grow.
            width *= 2.0 ** frexp(t / limit)[1]
        zeros = self._zeros
        row = self._rows[rank] = [
            width,
            array("d", zeros),
            array("d", zeros),
            array("q", zeros),
        ]
        return row

    def _grow(self, row: list, t: float) -> float:
        """Double the row's window width until ``t`` fits; rebin in one pass."""
        n = self.n_windows
        width = row[_WIDTH]
        shift = 0
        while t >= n * width:
            width *= 2.0
            shift += 1
        for series in (row[_BUSY], row[_WAIT], row[_BYTES]):
            zero = 0 if series.typecode == "q" else 0.0
            # Ascending j guarantees every source index is drained before a
            # later j lands on it as a target (j >> shift < j for j >= 1).
            for j in range(1, n):
                v = series[j]
                if v:
                    series[j >> shift] += v
                    series[j] = zero
        row[_WIDTH] = width
        return width

    def add_busy(self, rank: int, t: float, seconds: float) -> None:
        row = self._rows.get(rank)
        if row is None:
            row = self._seed(rank, t)
        width = row[_WIDTH]
        i = int(t / width)
        if i >= self.n_windows:
            width = self._grow(row, t)
            i = int(t / width)
        row[_BUSY][i] += seconds

    def add_wait(self, rank: int, t: float, seconds: float) -> None:
        row = self._rows.get(rank)
        if row is None:
            row = self._seed(rank, t)
        width = row[_WIDTH]
        i = int(t / width)
        if i >= self.n_windows:
            width = self._grow(row, t)
            i = int(t / width)
        row[_WAIT][i] += seconds

    def add_bytes(self, rank: int, t: float, nbytes: int) -> None:
        row = self._rows.get(rank)
        if row is None:
            row = self._seed(rank, t)
        width = row[_WIDTH]
        i = int(t / width)
        if i >= self.n_windows:
            width = self._grow(row, t)
            i = int(t / width)
        row[_BYTES][i] += nbytes

    # ------------------------------------------------------------ snapshot
    def snapshot_width(self, horizon: float) -> float:
        """Smallest power-of-two multiple of ``base_s`` covering ``horizon``."""
        width = self.base_s
        limit = self.n_windows * width
        while horizon >= limit:
            width *= 2.0
            limit = self.n_windows * width
        return width

    def snapshot(
        self, horizon: float
    ) -> tuple[
        dict[int, tuple[float, ...]],
        dict[int, tuple[float, ...]],
        dict[int, tuple[int, ...]],
    ]:
        """Normalise every rank to the ``horizon`` width; skip all-zero series.

        Returns ``(busy, wait, received bytes)`` as rank-keyed dicts of
        per-window tuples.  Rebinning happens on fresh buffers — the live
        accumulators are untouched, so snapshotting mid-run is safe.  The
        fold is a vectorised ``reshape(-1, 2**shift).sum(axis=1)``; with
        fixed inputs the result is deterministic, and for the integer bytes
        series it is exact under any summation order.
        """
        target = self.snapshot_width(horizon)
        n = self.n_windows
        busy_out: dict[int, tuple[float, ...]] = {}
        wait_out: dict[int, tuple[float, ...]] = {}
        bytes_out: dict[int, tuple[int, ...]] = {}
        # Group rows by their fold shift so each group stacks into one 2-D
        # matrix and folds in a single vectorised pass — thousands of ranks
        # cost a handful of numpy calls, not three per rank.
        by_shift: dict[int, list[int]] = {}
        for rank in sorted(self._rows):
            width = self._rows[rank][_WIDTH]
            shift = 0
            while width < target:
                width *= 2.0
                shift += 1
            by_shift.setdefault(shift, []).append(rank)
        for shift, ranks in by_shift.items():
            for out, idx, dtype in (
                (busy_out, _BUSY, np.float64),
                (wait_out, _WAIT, np.float64),
                (bytes_out, _BYTES, np.int64),
            ):
                blob = b"".join(self._rows[r][idx].tobytes() for r in ranks)
                mat = np.frombuffer(blob, dtype=dtype).reshape(len(ranks), n)
                if shift:
                    span = 1 << shift
                    folded = np.zeros((len(ranks), n), dtype=dtype)
                    if span >= n:
                        folded[:, 0] = mat.sum(axis=1)
                    else:
                        folded[:, : n >> shift] = mat.reshape(
                            len(ranks), -1, span
                        ).sum(axis=2)
                    mat = folded
                mask = mat.any(axis=1)
                n_active = int(mask.sum())
                if n_active == 0:
                    continue
                if n_active < len(ranks):
                    # Boxing a row into Python numbers is the expensive part
                    # of the whole snapshot — do it only for active rows.
                    keep = [r for r, k in zip(ranks, mask.tolist()) if k]
                    rows = mat[mask].tolist()
                else:
                    keep = ranks
                    rows = mat.tolist()
                for rank, values in zip(keep, rows):
                    out[rank] = tuple(values)
        if len(by_shift) > 1:  # restore sorted-rank iteration order
            busy_out = {r: busy_out[r] for r in sorted(busy_out)}
            wait_out = {r: wait_out[r] for r in sorted(wait_out)}
            bytes_out = {r: bytes_out[r] for r in sorted(bytes_out)}
        return busy_out, wait_out, bytes_out
