"""Streaming statistics vs event-list recomputation (the PR's acceptance test).

The streaming layer maintains its snapshot online, with no event list.  These
tests pin the equivalence contract from three directions:

* every statistic that *can* be recomputed from a ``record_messages=True``
  event stream — latency/size histograms per link, per-kernel flop
  histograms, the received-bytes timeline, the per-link traffic totals —
  matches the online snapshot **bit for bit**;
* the statistics that events cannot reproduce (wait-derived: hot spots, the
  busy/wait timelines — the frozen event format carries neither per-receive
  wait nor flop end times) are instead pinned by recording-vs-non-recording
  equality of the full snapshot and by golden digests of it;
* turning streaming off yields ``stats=None`` / empty hot spots while the
  rest of the summary stays equal, and pinned traces stay bit-identical
  either way (the observer never participates in scheduling).
"""

from __future__ import annotations

import hashlib
import json

from repro.dag.runtime import DAGFactorizationConfig, run_dag_factorization
from repro.gridsim.executor import SPMDExecutor
from repro.obs.stats import stats_from_events
from repro.tsqr.parallel import TSQRConfig, qcg_tsqr_program, run_parallel_tsqr

CONFIG = TSQRConfig(m=262_144, n=32, n_domains=4, tree_kind="grid-hierarchical")

#: Snapshot fields an event replay can reconstruct exactly.
REPLAYABLE = (
    "n_ranks",
    "horizon_s",
    "window_s",
    "latency_by_link",
    "size_by_link",
    "flops_by_kernel",
    "recv_bytes_timeline",
)


#: Golden digests of the full snapshot (``_snapshot_digest``) of the SPMD
#: TSQR run and the DAG CAQR run below on the 8-rank test platform, captured
#: with the retired thread-per-rank backend and the coroutine engine agreeing.
SNAPSHOT_HASHES = {
    "spmd-tsqr": "546dd0a4f1baaeaac5e22664a6b530db02c3556e6fc688140695712838d0660d",
    "dag-caqr": "88e35c12595ab27acf9effb57f4f3c8529abdad19f7b1f95170e6cfad4970682",
}


def _snapshot_digest(summary) -> str:
    """Digest of a run's streaming snapshot and its top hot spots."""
    payload = json.dumps(
        {
            "stats": summary.stats.as_dict(),
            "hot_spots": [spot.as_dict() for spot in summary.hot_spots],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _tsqr_run(platform, *, record=False, streaming=None):
    executor = SPMDExecutor(platform, record_messages=record, streaming_stats=streaming)
    return executor.run(qcg_tsqr_program, CONFIG)


class TestReplayEquivalence:
    def test_online_matches_event_recomputation(self, platform8):
        sim = _tsqr_run(platform8, record=True)
        online = sim.trace.stats
        assert online is not None
        replayed = stats_from_events(
            sim.events, n_ranks=platform8.n_processes, makespan=sim.makespan
        )
        for name in REPLAYABLE:
            assert getattr(online, name) == getattr(replayed, name), name

    def test_traffic_counts_match_event_recomputation(self, platform8):
        sim = _tsqr_run(platform8, record=True)
        online = sim.trace.stats.link_traffic
        replayed = stats_from_events(
            sim.events, n_ranks=platform8.n_processes, makespan=sim.makespan
        ).link_traffic
        # The wait_s column is wait-derived (0 under replay); messages and
        # bytes must agree exactly.
        assert set(online) == set(replayed)
        for link, classes in online.items():
            assert set(classes) == set(replayed[link])
            for cls, totals in classes.items():
                assert totals["messages"] == replayed[link][cls]["messages"]
                assert totals["nbytes"] == replayed[link][cls]["nbytes"]


class TestObserverInvariance:
    def test_recording_does_not_change_the_snapshot(self, platform8):
        recorded = _tsqr_run(platform8, record=True)
        bare = _tsqr_run(platform8, record=False)
        assert bare.trace.stats == recorded.trace.stats
        assert bare.trace.hot_spots == recorded.trace.hot_spots
        assert bare.events == []  # non-recording runs retain no event list

    def test_snapshot_pinned(self, platform8):
        sim = _tsqr_run(platform8)
        assert _snapshot_digest(sim.trace) == SNAPSHOT_HASHES["spmd-tsqr"]

    def test_streaming_off_leaves_the_summary_equal(self, platform8):
        on = _tsqr_run(platform8, streaming=True)
        off = _tsqr_run(platform8, streaming=False)
        assert off.trace.stats is None
        assert off.trace.hot_spots == ()
        assert on.trace.stats is not None
        # stats/hot_spots are compare=False: the summaries still compare
        # equal, and the simulation itself is bit-identical.
        assert on.trace == off.trace
        assert on.makespan == off.makespan
        assert on.clocks == off.clocks

    def test_env_knob_disables_streaming(self, platform8, monkeypatch):
        monkeypatch.setenv("REPRO_STREAMING_STATS", "0")
        sim = _tsqr_run(platform8)
        assert sim.trace.stats is None
        monkeypatch.setenv("REPRO_STREAMING_STATS", "1")
        sim = _tsqr_run(platform8)
        assert sim.trace.stats is not None


class TestDagRuntime:
    CONFIG = DAGFactorizationConfig(m=1024, n=256, tile_size=64)  # matrix None: virtual

    def test_dag_online_matches_event_recomputation(self, platform8):
        run = run_dag_factorization(platform8, self.CONFIG, record_messages=True)
        sim = run.simulation
        online = run.trace.stats
        assert online is not None
        replayed = stats_from_events(
            sim.events, n_ranks=platform8.n_processes, makespan=sim.makespan
        )
        for name in REPLAYABLE:
            assert getattr(online, name) == getattr(replayed, name), name

    def test_dag_snapshot_pinned(self, platform8):
        run = run_dag_factorization(platform8, self.CONFIG)
        assert _snapshot_digest(run.trace) == SNAPSHOT_HASHES["dag-caqr"]


class TestSnapshotContents:
    def test_snapshot_is_populated(self, platform8):
        sim = _tsqr_run(platform8)
        stats = sim.trace.stats
        assert stats.n_ranks == platform8.n_processes
        assert stats.horizon_s == sim.makespan
        assert stats.window_s > 0.0
        assert stats.horizon_s < len(next(iter(stats.recv_bytes_timeline.values()))) * stats.window_s * 2
        assert stats.latency_by_link  # some link saw latency
        assert stats.flops_by_kernel
        total_bytes = sum(
            sum(series) for series in stats.recv_bytes_timeline.values()
        )
        assert total_bytes == sum(
            cls["nbytes"]
            for classes in stats.link_traffic.values()
            for cls in classes.values()
        ) - sum(
            # Collective tree edges (recv_time 0) are counted in traffic but
            # excluded from the timeline.
            cls["nbytes"]
            for classes in stats.link_traffic.values()
            for name, cls in classes.items()
            if name != "p2p"
        )

    def test_hotspots_are_ranked_and_consistent(self, platform8):
        sim = _tsqr_run(platform8)
        spots = sim.trace.hot_spots
        assert spots  # the hierarchical reduction must contend somewhere
        waits = [s.wait_s for s in spots]
        assert waits == sorted(waits, reverse=True)
        for s in spots:
            assert s.wait_s > 0.0
            assert s.messages > 0
            assert s.link in ("intra-node", "intra-cluster", "inter-cluster")

    def test_run_parallel_tsqr_streaming_knob(self, platform8):
        run = run_parallel_tsqr(platform8, CONFIG, streaming_stats=False)
        assert run.trace.stats is None
        run = run_parallel_tsqr(platform8, CONFIG)
        assert run.trace.stats is not None
