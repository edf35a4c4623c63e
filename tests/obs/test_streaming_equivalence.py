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

import gc
import hashlib
import json
import pickle

import pytest

from repro.dag.runtime import DAGFactorizationConfig, run_dag_factorization
from repro.gridsim.executor import SPMDExecutor
from repro.obs.stats import stats_from_events
from repro.tsqr.parallel import TSQRConfig, qcg_tsqr_program, run_parallel_tsqr

from tests.conftest import make_platform

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


#: Golden digests of the full snapshot (``_snapshot_digest``).  ``spmd-tsqr``
#: and ``dag-caqr`` are the SPMD TSQR run and the DAG CAQR run below on the
#: 8-rank test platform, captured with the retired thread-per-rank backend
#: and the coroutine engine agreeing.  ``tsqr-q-512`` and ``dag-cholesky-64``
#: pin the snapshot at scale (:data:`AT_SCALE`), captured with per-rank row
#: objects before the timelines moved to flat buffers: the TSQR run rebins
#: every rank's row twice (1,024 rebins), as the 8192-rank benchmark does.
SNAPSHOT_HASHES = {
    "spmd-tsqr": "546dd0a4f1baaeaac5e22664a6b530db02c3556e6fc688140695712838d0660d",
    "dag-caqr": "88e35c12595ab27acf9effb57f4f3c8529abdad19f7b1f95170e6cfad4970682",
    "tsqr-q-512": "8d2994b2c23e2efcc1a7ae17975198c3196a5c78e226b18e53fb0d3053078999",
    "dag-cholesky-64": "98f2fe140bb89aa984875d455f141c34c58c096d244d28b7d66f8f5c665cb7ae",
}

#: The at-scale runs behind the last two digests: 4 clusters x 64 nodes x 2
#: (512 ranks) TSQR with explicit Q, and 4 x 8 x 2 (64 ranks) tiled Cholesky.
AT_SCALE = {
    "tsqr-q-512": lambda: run_parallel_tsqr(
        make_platform(4, 64, 2), TSQRConfig(m=512 * 4096, n=64, want_q=True)
    ),
    "dag-cholesky-64": lambda: run_dag_factorization(
        make_platform(4, 8, 2),
        DAGFactorizationConfig(m=1024, n=1024, tile_size=64, algorithm="cholesky"),
    ),
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


class TestSnapshotAtScale:
    @pytest.mark.parametrize("name", sorted(AT_SCALE))
    def test_snapshot_pinned(self, name):
        assert _snapshot_digest(AT_SCALE[name]().trace) == SNAPSHOT_HASHES[name]

    def test_hot_spots_are_ranked_once(self, platform8):
        summary = _tsqr_run(platform8).trace
        assert summary.hot_spots
        assert summary.hot_spots is summary.stats.hot_spots

    def test_pickled_snapshot_compares_equal(self):
        summary = AT_SCALE["tsqr-q-512"]().trace
        # Pickled before any timeline is read: only the raw rows travel.
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.stats == summary.stats
        assert _snapshot_digest(clone) == SNAPSHOT_HASHES["tsqr-q-512"]
        # Pickled after a read, boxed timelines included.
        again = pickle.loads(pickle.dumps(summary.stats))
        assert again == summary.stats == clone.stats


def _tracked_objects_alive(run) -> int:
    """GC-tracked objects that ``run()`` leaves alive while its result is held."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = run()
        alive = len(gc.get_objects()) - before
    finally:
        gc.enable()
    del result
    return alive


def _two_charges(ctx):
    """Compute-only rank program: two flop charges, no message."""
    ctx.compute(1e6, kernel="qr_leaf")
    ctx.compute(2e6, kernel="qr_leaf")
    return None
    yield  # a generator, like every rank program


FOOTPRINT_RUNS = {
    "tsqr-q-512": lambda platform, streaming: run_parallel_tsqr(
        platform, TSQRConfig(m=512 * 4096, n=64, want_q=True), streaming_stats=streaming
    ),
    "compute-only-512": lambda platform, streaming: SPMDExecutor(
        platform, streaming_stats=streaming
    ).run(_two_charges),
}


class TestObserverFootprint:
    """The observer's retained objects follow events, not ranks x windows.

    Per-rank row objects and eagerly boxed per-rank timeline tuples left
    ~5-10 tracked objects per rank alive (5,201 on the 512-rank TSQR run,
    2,584 on the compute-only one), which every full garbage collection
    then re-scanned.
    """

    @pytest.mark.parametrize("name", sorted(FOOTPRINT_RUNS))
    def test_streaming_adds_few_tracked_objects(self, name):
        platform = make_platform(4, 64, 2)
        run = FOOTPRINT_RUNS[name]
        counts = {
            streaming: _tracked_objects_alive(lambda: run(platform, streaming))
            for streaming in (False, True)
        }
        assert counts[True] - counts[False] < 128, counts
