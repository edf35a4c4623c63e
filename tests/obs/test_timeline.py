"""Unit tests of the width-doubling windowed timeline."""

from __future__ import annotations

import random
from math import frexp

import pytest

from repro.obs.timeline import WindowedTimeline


def test_rejects_non_power_of_two_window_counts():
    with pytest.raises(ValueError):
        WindowedTimeline(4, n_windows=48)
    with pytest.raises(ValueError):
        WindowedTimeline(4, n_windows=1)


def test_rows_allocated_lazily():
    # A rank's row exists only once it has activity: inactive ranks are
    # absent from the snapshot.
    tl = WindowedTimeline(1024, n_windows=4, base_s=1.0)
    assert tl.snapshot(horizon=1.0) == ({}, {}, {})
    assert tl.freeze(horizon=1.0).ranks.tolist() == []
    tl.add_busy(7, 0.5, 0.5)
    busy, wait, nbytes = tl.snapshot(horizon=1.0)
    assert set(busy) == {7}
    assert wait == {} and nbytes == {}
    assert tl.freeze(horizon=1.0).ranks.tolist() == [7]


def test_single_window_attribution():
    tl = WindowedTimeline(2, n_windows=4, base_s=1.0)
    tl.add_busy(0, 0.5, 0.4)
    tl.add_busy(0, 2.5, 0.6)
    busy, wait, nbytes = tl.snapshot(horizon=3.0)
    assert busy[0] == (0.4, 0.0, 0.6, 0.0)
    assert wait == {}
    assert nbytes == {}


def test_grow_folds_pairwise_and_doubles_width():
    tl = WindowedTimeline(1, n_windows=4, base_s=1.0)
    for t in (0.5, 1.5, 2.5, 3.5):
        tl.add_bytes(0, t, 10)
    # t=5.0 is past the last window: one doubling to width 2.0.
    tl.add_bytes(0, 5.0, 100)
    _busy, _wait, nbytes = tl.snapshot(horizon=5.0)
    assert nbytes[0] == (20, 20, 100, 0)


def test_fold_is_equivalent_to_direct_binning():
    # The determinism claim: an event's final window after any sequence of
    # doublings equals binning it directly at the final width.
    events = [(0.3, 1), (1.9, 2), (7.2, 4), (30.0, 8), (121.5, 16), (2.2, 32)]
    grown = WindowedTimeline(1, n_windows=8, base_s=1.0)
    for t, v in events:
        grown.add_bytes(0, t, v)
    final_width = grown.snapshot_width(max(t for t, _ in events))
    direct = WindowedTimeline(1, n_windows=8, base_s=final_width)
    for t, v in events:
        direct.add_bytes(0, t, v)
    horizon = max(t for t, _ in events)
    assert grown.snapshot(horizon) == direct.snapshot(horizon)


def test_snapshot_folds_copies_not_the_live_rows():
    tl = WindowedTimeline(2, n_windows=4, base_s=1.0)
    tl.add_busy(0, 0.5, 1.0)
    tl.add_busy(0, 2.5, 2.0)
    before = tl.snapshot(horizon=3.0)
    assert before[0] == {0: (1.0, 0.0, 2.0, 0.0)}
    tl.snapshot(horizon=1000.0)  # forces folding to a much wider window
    # The live row still bins at its own width, so the narrow view is back.
    assert tl.snapshot(horizon=3.0) == before


def test_frozen_rows_never_see_later_events():
    tl = WindowedTimeline(2, n_windows=4, base_s=1.0)
    tl.add_busy(0, 0.5, 1.0)
    frozen = tl.freeze(horizon=1.0)
    tl.add_busy(0, 0.5, 4.0)
    tl.add_busy(1, 9.0, 1.0)  # activates a rank and grows the width
    assert frozen.series() == ({0: (1.0, 0.0, 0.0, 0.0)}, {}, {})


def test_snapshot_width_covers_the_horizon():
    tl = WindowedTimeline(1, n_windows=64, base_s=1e-6)
    w = tl.snapshot_width(0.05)
    assert 64 * w > 0.05
    assert 64 * (w / 2) <= 0.05


def test_all_zero_series_are_skipped():
    tl = WindowedTimeline(2, n_windows=4, base_s=1.0)
    tl.add_wait(1, 0.5, 0.25)
    busy, wait, nbytes = tl.snapshot(horizon=1.0)
    assert busy == {}
    assert wait == {1: (0.25, 0.0, 0.0, 0.0)}
    assert nbytes == {}


def test_bytes_series_stays_integer():
    tl = WindowedTimeline(1, n_windows=2, base_s=1.0)
    tl.add_bytes(0, 0.1, 3)
    tl.add_bytes(0, 1.1, 4)
    tl.add_bytes(0, 3.9, 5)  # forces a fold
    _busy, _wait, nbytes = tl.snapshot(horizon=3.9)
    assert nbytes[0] == (7, 5)
    assert all(isinstance(v, int) for v in nbytes[0])


def _reference_rows(events, *, n_windows, base_s):
    """Per-rank rows rebinned by a full in-place scan of every window."""
    rows: dict[int, list] = {}
    for rank, series, t, value in events:
        row = rows.get(rank)
        if row is None:
            width = base_s
            if t >= n_windows * width:
                width *= 2.0 ** frexp(t / (n_windows * width))[1]
            row = rows[rank] = [width, [0.0] * n_windows, [0.0] * n_windows, [0] * n_windows]
        width = row[0]
        if int(t / width) >= n_windows:
            shift = 0
            while t >= n_windows * width:
                width *= 2.0
                shift += 1
            for values in row[1:]:
                for j in range(1, n_windows):
                    v = values[j]
                    if v:
                        values[j >> shift] += v
                        values[j] = 0 * v
            row[0] = width
        row[series][int(t / width)] += value
    return rows


def test_rebin_matches_a_full_scan_bit_for_bit():
    # Float sums depend on addition order, so rebinning only the non-zero
    # windows must add them in the full scan's (ascending) order.
    rng = random.Random(11)
    n_windows, base_s = 8, 1e-3
    events = []
    for _ in range(3000):
        rank = rng.randrange(5)
        series = rng.choice((1, 2, 3))
        t = rng.random() * 10.0 ** rng.uniform(-3, 1)
        value = rng.randrange(1, 1000) if series == 3 else rng.random() / 3.0
        events.append((rank, series, t, value))
    tl = WindowedTimeline(6, n_windows=n_windows, base_s=base_s)
    add = {1: tl.add_busy, 2: tl.add_wait, 3: tl.add_bytes}
    for rank, series, t, value in events:
        add[series](rank, t, value)
    reference = _reference_rows(events, n_windows=n_windows, base_s=base_s)
    assert tl.width[5] == 0.0  # never active
    for rank, (width, busy, wait, nbytes) in reference.items():
        assert tl.width[rank] == width
        window = slice(rank * n_windows, (rank + 1) * n_windows)
        assert list(tl.busy[window]) == busy
        assert list(tl.wait[window]) == wait
        assert list(tl.nbytes[window]) == nbytes
