"""Unit tests of the streaming accumulator itself (synthetic event feeds)."""

from __future__ import annotations

import random

import pytest

from repro.gridsim.network import LinkClass
from repro.obs.stats import COLLECTIVE_TAGS, StreamingTraceStats

INTRA_NODE = list(LinkClass).index(LinkClass.INTRA_NODE)
INTER = list(LinkClass).index(LinkClass.INTER_CLUSTER)


def _msg(stats, *, source=0, dest=1, nbytes=100, link=INTER, tag="42",
         send=1.0, recv=2.0, wait=0.0):
    stats.on_message(source, dest, nbytes, link, tag, send, recv, wait)


class TestTrafficClasses:
    def test_collective_tags_are_split_from_p2p(self):
        stats = StreamingTraceStats(4)
        _msg(stats, tag="reduce")
        _msg(stats, tag="reduce")
        _msg(stats, tag="7")  # a stringified user tag: p2p
        traffic = stats.snapshot().link_traffic
        inter = traffic[LinkClass.INTER_CLUSTER.value]
        assert inter["reduce"]["messages"] == 2
        assert inter["p2p"]["messages"] == 1

    def test_known_collective_tags(self):
        assert COLLECTIVE_TAGS == {
            "barrier", "bcast", "reduce", "allgather", "gather", "scatter"
        }

    def test_wait_accumulates_into_the_traffic_column(self):
        stats = StreamingTraceStats(4)
        _msg(stats, wait=0.5)
        _msg(stats, wait=0.25)
        _msg(stats, wait=0.0)
        traffic = stats.snapshot().link_traffic
        assert traffic[LinkClass.INTER_CLUSTER.value]["p2p"]["wait_s"] == 0.75


class TestHotSpots:
    def test_only_waiting_messages_register(self):
        stats = StreamingTraceStats(4)
        _msg(stats, wait=0.0)
        assert stats.top_hotspots() == ()
        _msg(stats, wait=0.1)
        (spot,) = stats.top_hotspots()
        assert (spot.source, spot.dest, spot.messages) == (0, 1, 1)

    def test_ranking_is_by_wait_then_site_key(self):
        stats = StreamingTraceStats(8)
        _msg(stats, source=3, dest=4, wait=0.1)
        _msg(stats, source=1, dest=2, wait=0.3)
        _msg(stats, source=5, dest=6, wait=0.3, link=INTRA_NODE)
        spots = stats.top_hotspots()
        assert [(s.source, s.dest) for s in spots] == [(5, 6), (1, 2), (3, 4)]
        # Equal waits tie-break on (link index, source, dest): INTRA_NODE
        # precedes INTER_CLUSTER in the LinkClass order.
        assert INTRA_NODE < INTER

    def test_top_k_caps_the_report(self):
        stats = StreamingTraceStats(64, top_k=3)
        for d in range(10):
            _msg(stats, source=0, dest=d, wait=0.01 * (d + 1))
        spots = stats.top_hotspots()
        assert len(spots) == 3
        assert [s.dest for s in spots] == [9, 8, 7]

    def test_top_k_is_the_head_of_a_full_sort(self):
        # Few distinct waits force ties, broken by (link, source, dest); the
        # small cap sends late sites to the per-link overflow slots.
        rng = random.Random(5)
        stats = StreamingTraceStats(16, top_k=12, max_sites=40)
        sites: dict[tuple[int, int, int], list] = {}
        for _ in range(400):
            link = rng.choice((INTRA_NODE, INTER))
            source, dest = rng.randrange(16), rng.randrange(16)
            wait = rng.choice((0.125, 0.25, 0.5))
            _msg(stats, source=source, dest=dest, link=link, nbytes=8, wait=wait)
            key = (link, source, dest)
            if key not in sites and len(sites) >= 40:
                key = (link, -1, -1)
            totals = sites.setdefault(key, [0.0, 0, 0])
            totals[0] += wait
            totals[1] += 1
            totals[2] += 8
        assert any(key[1] == -1 for key in sites)
        ranked = sorted(sites.items(), key=lambda kv: (-kv[1][0], *kv[0]))[:12]
        names = [k.value for k in LinkClass]
        assert [
            (s.link, s.source, s.dest, s.wait_s, s.messages, s.nbytes)
            for s in stats.top_hotspots()
        ] == [(names[k[0]], k[1], k[2], *v) for k, v in ranked]

    def test_site_table_overflows_into_a_sentinel(self):
        stats = StreamingTraceStats(64, max_sites=2, top_k=10)
        _msg(stats, source=0, dest=1, wait=0.1)
        _msg(stats, source=0, dest=2, wait=0.2)
        _msg(stats, source=0, dest=3, wait=0.4)  # table full: overflow slot
        _msg(stats, source=0, dest=4, wait=0.8)  # joins the same slot
        spots = stats.top_hotspots()
        overflow = [s for s in spots if s.source == -1 and s.dest == -1]
        assert len(overflow) == 1
        assert overflow[0].wait_s == 0.4 + 0.8
        assert overflow[0].messages == 2
        # Total accounted wait is conserved despite the cap.
        assert sum(s.wait_s for s in spots) == pytest.approx(1.5)


class TestHorizon:
    def test_on_tick_is_max_only_and_geometric(self):
        stats = StreamingTraceStats(4)
        nxt = stats.on_tick(1.0)
        assert nxt == stats.next_tick == 1.0 * 1.25 + 1e-4
        stats.on_tick(0.5)  # going backwards must not lower the horizon
        assert stats.horizon == 1.0

    def test_finalize_pins_the_horizon_to_the_makespan(self):
        stats = StreamingTraceStats(4)
        _msg(stats, recv=0.25)
        stats.finalize(3.0)
        assert stats.horizon == 3.0
        stats.finalize(1.0)  # never lowers
        assert stats.horizon == 3.0

    def test_collective_edges_do_not_move_the_horizon(self):
        stats = StreamingTraceStats(4)
        # Tree edges record recv_time 0.0 and carry no absolute times.
        _msg(stats, tag="reduce", send=0.0, recv=0.0)
        assert stats.horizon == 0.0
        assert stats.snapshot().recv_bytes_timeline == {}


class TestSnapshotIsFrozen:
    def test_later_events_do_not_reach_an_earlier_snapshot(self):
        stats = StreamingTraceStats(4)
        _msg(stats, wait=0.5, recv=2.0)
        stats.on_flops(2, 1e6, "qr_leaf", 0.5, 1.5)
        snap = stats.snapshot()  # no timeline read yet
        before = (snap.busy_timeline, snap.wait_timeline, snap.recv_bytes_timeline)
        fresh = stats.snapshot()
        _msg(stats, wait=0.25, recv=900.0)  # grows rank 1's window width
        stats.on_flops(3, 1e6, "qr_leaf", 0.5, 1.5)  # activates a rank
        assert (fresh.busy_timeline, fresh.wait_timeline,
                fresh.recv_bytes_timeline) == before
        assert set(fresh.busy_timeline) == {2}
        assert fresh.hot_spots[0].wait_s == 0.5
