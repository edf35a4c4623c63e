"""Determinism / golden-hash suite for the engine.

The engine must reproduce its pinned simulations *bit for bit*: the same
ordered event stream, final clocks, makespan and per-rank results for every
program entry point — SPMD TSQR and CAQR, ScaLAPACK, the DAG runtime (probe /
yield semantics included) — and deadlocking programs (the same wait graph in
the error message).  The golden values below were captured while the retired
thread-per-rank backend and the coroutine engine still agreed on them, so
they carry that cross-check forward.  These tests pin that contract, plus:

* every collective tree pinned the same way;
* the engine runs on the calling thread and never starts an OS thread;
* the DAG ready loop reproduces its pins without ever probing a mailbox;
* repeated runs in one process (no state leaks between runs);
* ``jobs=1`` vs ``jobs=N`` figure sweeps, and event streams produced in a
  worker process vs the parent process;
* the registry refactor contract: the generic graph builder emits tiled-QR
  graphs *identical* (task ids, edges, handles, wire sizes — hard-coded
  golden fingerprints captured from the hand-written builder it replaced)
  and the runtime's event streams stay bit-identical (golden trace hashes,
  all placements x priorities).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading

import pytest

from repro.exceptions import DeadlockError
from repro.dag.runtime import DAGFactorizationConfig, run_dag_factorization
from repro.gridsim.communicator import CommHandle
from repro.gridsim.executor import SimulationResult, SPMDExecutor, run_spmd
from repro.gridsim.failures import FailureSchedule, RankFailure
from repro.programs.caqr import CAQRConfig, run_parallel_caqr
from repro.scalapack.driver import ScaLAPACKConfig, run_scalapack_qr
from repro.tsqr.parallel import TSQRConfig, run_parallel_tsqr
from tests.conftest import event_hash
from tests.dag.test_recovery import RECOVERY_RUNS

CONFIG = TSQRConfig(m=262_144, n=32, n_domains=4, tree_kind="grid-hierarchical")
CAQR_CONFIG = CAQRConfig(m=65_536, n=64, tile_size=64)


def _run(platform) -> SimulationResult:
    from repro.tsqr.parallel import qcg_tsqr_program

    executor = SPMDExecutor(platform, record_messages=True)
    return executor.run(qcg_tsqr_program, CONFIG)


def _dag_factorization(platform, algorithm: str, m: int, n: int):
    config = DAGFactorizationConfig(
        m=m, n=n, tile_size=128, placement="block-cyclic", algorithm=algorithm
    )
    return run_dag_factorization(platform, config, record_messages=True).simulation


#: Every pinned workload, each run with its messages recorded on the 8-rank
#: test platform; ``PARITY_HASHES`` holds the digest of each one's events.
ENTRY_POINTS = {
    "spmd-tsqr": _run,
    "spmd-caqr": lambda platform: run_parallel_caqr(
        platform, CAQR_CONFIG, record_messages=True
    ).simulation,
    "dag-cholesky": lambda platform: _dag_factorization(platform, "cholesky", 768, 768),
    "dag-lu": lambda platform: _dag_factorization(platform, "lu", 1024, 768),
    "tsqr-q": lambda platform: run_parallel_tsqr(
        platform,
        TSQRConfig(
            m=262_144, n=32, n_domains=4, tree_kind="grid-hierarchical", want_q=True
        ),
        record_messages=True,
    ).simulation,
    "scalapack": lambda platform: run_scalapack_qr(
        platform, ScaLAPACKConfig(m=262_144, n=32), record_messages=True
    ).simulation,
    "scalapack-hierarchical": lambda platform: run_scalapack_qr(
        platform,
        ScaLAPACKConfig(m=262_144, n=32),
        collective_tree="hierarchical",
        record_messages=True,
    ).simulation,
}


def _collectives(ctx):
    """An allreduce, a bcast, a barrier and a second allreduce."""
    comm = ctx.comm
    total = yield from comm.allreduce(float(comm.rank + 1))
    root_value = yield from comm.bcast(0 if comm.rank == 0 else None, root=0)
    yield from comm.barrier()
    doubled = yield from comm.allreduce(total * 2.0)
    return (total, root_value, doubled)


class TestPinnedWorkloads:
    """The workloads the thread-per-rank backend was once compared against."""

    @pytest.mark.parametrize("workload", sorted(ENTRY_POINTS))
    def test_workload_hash_pinned(self, platform8, workload):
        sim = ENTRY_POINTS[workload](platform8)
        assert len(sim.events) > 0
        assert event_hash(sim) == PARITY_HASHES[workload]

    def test_results_in_rank_order(self, platform8):
        sim = _run(platform8)
        assert [r.rank for r in sim.results] == [0, 1, 2, 3, 4, 5, 6, 7]
        assert [r.domain for r in sim.results] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_deadlock_wait_graph_pinned(self, platform4_single_site):
        """The deadlock report names every rank and what it waits on."""

        def prog(ctx):
            if ctx.comm.rank < 2:
                other = 1 - ctx.comm.rank
                return (yield from ctx.comm.recv(source=other, tag="cycle"))
            yield from ctx.comm.barrier()

        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(platform4_single_site, prog)
        assert str(excinfo.value) == DEADLOCK_WAIT_GRAPH

    def test_probe_and_yield_turn_samples_pinned(self, platform4_single_site):
        """Probe visibility and yield_turn interleaving: the sampled
        (clock, arrival) pairs and the final clocks are compared exactly."""

        def prog(ctx):
            comm = ctx.comm
            if comm.rank == 1:
                ctx.compute(1e9, kernel="gemm")
                comm.send("late", dest=0, tag="m")
                return None
            if comm.rank != 0:
                return None
            samples = []
            for _ in range(12):
                ctx.compute(2e8, kernel="gemm")
                yield from ctx.yield_turn()
                samples.append((ctx.clock(), comm.probe(source=1, tag="m")))
            got = yield from comm.recv(source=1, tag="m")
            return (got, tuple(samples))

        sim = run_spmd(platform4_single_site, prog)
        assert sim.results == [("late", PROBE_YIELD_SAMPLES), None, None, None]
        assert sim.clocks == PROBE_YIELD_CLOCKS

    @pytest.mark.parametrize("tree", ["binary", "hierarchical", "flat"])
    def test_collective_tree_hash_pinned(self, platform8, tree):
        sim = run_spmd(
            platform8, _collectives, collective_tree=tree, record_messages=True
        )
        assert sim.results == [(36.0, 0, 576.0)] * platform8.n_processes
        assert event_hash(sim) == COLLECTIVE_HASHES[tree]


def _deadlock(platform):
    def prog(ctx):
        if ctx.comm.rank < 2:
            return (yield from ctx.comm.recv(source=1 - ctx.comm.rank))
        yield from ctx.comm.barrier()

    with pytest.raises(DeadlockError):
        run_spmd(platform, prog)


#: One run per engine path: SPMD programs, the DAG runtime (failure
#: recovery included) and the deadlock abort.
SINGLE_THREAD_WORKLOADS = {
    "spmd-tsqr": _run,
    "spmd-caqr": lambda platform: run_parallel_caqr(platform, CAQR_CONFIG),
    "scalapack": ENTRY_POINTS["scalapack"],
    "dag-caqr": lambda platform: run_dag_factorization(
        platform, DAGFactorizationConfig(m=32_768, n=96, tile_size=32)
    ),
    "dag-recovery": lambda platform: run_dag_factorization(
        platform,
        DAGFactorizationConfig(m=1024, n=1024, tile_size=128, algorithm="cholesky"),
        failures=FailureSchedule([RankFailure(5, at_time=0.0004)]),
    ),
    "deadlock": _deadlock,
}


class TestSingleThreaded:
    """One engine: every rank runs as a generator on the calling thread."""

    @pytest.mark.parametrize("workload", sorted(SINGLE_THREAD_WORKLOADS))
    def test_no_thread_is_started(self, platform8, workload, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"the simulator started a thread: {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        SINGLE_THREAD_WORKLOADS[workload](platform8)

    def test_rank_programs_run_on_the_calling_thread(self, platform8):
        def prog(ctx):
            yield from ctx.comm.barrier()
            return threading.get_ident()

        sim = run_spmd(platform8, prog)
        assert sim.results == [threading.get_ident()] * platform8.n_processes


class TestReadyLoopNeverProbes:
    """The DAG ready loop finds arrivals in its index, never by probing.

    A probe scan creeping back in would leave every digest as it is and
    only cost time, so the pinned DAG workloads are rerun with probing refused.
    """

    @pytest.fixture(autouse=True)
    def _refuse_probes(self, monkeypatch):
        def refuse(handle, *args, **kwargs):
            raise AssertionError("the DAG ready loop probed a mailbox")

        monkeypatch.setattr(CommHandle, "probe", refuse)

    @pytest.mark.parametrize("workload", ["dag-cholesky", "dag-lu"])
    def test_parity_workload(self, platform8, workload):
        assert event_hash(ENTRY_POINTS[workload](platform8)) == PARITY_HASHES[workload]

    def test_trace_workload(self, platform8):
        (placement, priority), expected = TRACE_HASHES[3]  # block-cyclic
        config = DAGFactorizationConfig(
            m=32_768, n=96, tile_size=32, placement=placement, priority=priority
        )
        result = run_dag_factorization(platform8, config, record_messages=True)
        assert event_hash(result.simulation) == expected

    def test_recovery_run(self, platform4_single_site):
        cfg, schedule, digest, accounting = RECOVERY_RUNS["cholesky"]
        res = run_dag_factorization(
            platform4_single_site, cfg, failures=schedule, record_messages=True
        )
        assert event_hash(res.simulation) == digest
        recovery = res.recovery
        assert (recovery.rounds, recovery.tasks_reexecuted,
                recovery.tasks_executed) == accounting


class TestRepeatedRunsShareNoState:
    def test_three_consecutive_runs_identical(self, platform8):
        runs = [_run(platform8) for _ in range(3)]
        hashes = {event_hash(sim) for sim in runs}
        assert len(hashes) == 1
        assert runs[0].events == runs[1].events == runs[2].events
        assert runs[0].trace == runs[1].trace == runs[2].trace

    def test_interleaved_configs_do_not_leak(self, platform8):
        """A different simulation between two identical ones changes nothing."""
        before = _run(platform8)
        other = run_parallel_tsqr(
            platform8,
            TSQRConfig(m=131_072, n=16, n_domains=8, tree_kind="binary"),
            record_messages=True,
        ).simulation
        after = _run(platform8)
        assert other.events != before.events  # actually a different schedule
        assert event_hash(before) == event_hash(after)


def _graph_fingerprint(graph) -> str:
    """Canonical digest of a graph's full structure: handles, tasks, edges."""
    parts = [
        ("kind", graph.kind),
        ("n_groups", graph.n_groups),
        (
            "handles",
            tuple(zip(graph.handle_keys, graph.handle_shapes, graph.handle_nbytes)),
        ),
    ]
    for t in graph.tasks:
        parts.append(
            (
                t.id, t.kernel, t.kernel_class, t.k, t.i, t.i2, t.j,
                t.flops, t.width, t.host_row,
                t.reads, t.read_producers, t.writes, t.write_nbytes,
                tuple(graph.preds[t.id]),
            )
        )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


#: Golden fingerprints of the hand-written tiled-QR builder the generic
#: registry-driven builder replaced, captured immediately before the swap.
#: A drift in any task id, edge, handle key/shape or wire size fails here.
GRAPH_FINGERPRINTS = [
    ((('m', 96), ('n', 96), ('n_groups', 3), ('panel_tree', 'binary'), ('tile_size', 16)),
     '58f3e35dabad0f7d2dbff107651898cd826e8160e1eb9788cda1d4cbc37c016a'),
    ((('m', 64), ('n', 32), ('n_groups', 2), ('panel_tree', 'flat'), ('tile_size', 16)),
     '17d65341a6e654d0415e54e0554a6a275517915b6f4102909f4cbbcdd4dc4ff0'),
    ((('m', 200), ('n', 56), ('n_groups', 4), ('panel_tree', 'binary'), ('tile_size', 8)),
     '765f0264ef964cad6f5ba2b959ec1d9021e0fc0e1691202eece55af850dc85d3'),
    ((('group_clusters', (0, 0, 1, 1)), ('m', 200), ('n', 56), ('n_groups', 4), ('panel_tree', 'grid-hierarchical'), ('tile_size', 8)),
     'a557345fc969e8483466c6d40ef2384578069c64c731fe7b5919449aaae05478'),
    ((('m', 4096), ('n', 96), ('n_groups', 8), ('panel_tree', 'binary'), ('tile_size', 32)),
     '48204dc3cbeb73a94551f24a775e5802246f16c68b9537cf0dfb989dcb8b5d29'),
    ((('m', 33), ('n', 17), ('n_groups', 1), ('panel_tree', 'flat'), ('tile_size', 5)),
     '437381051527d3eb61ca7a57f32e86b96bd541bf6d4f4f48f35b7556e36d594d'),
]

#: Golden event-stream hashes of ``DAGFactorizationConfig(m=32768, n=96, tile_size=32)``
#: on the 8-rank test platform, captured from the pre-refactor runtime: the
#: registry swap must not move a single event, under any placement x priority.
TRACE_HASHES = [
    (('block', 'critical-path'), 'cd79c27802ee292c61039992de2a0f50cacee65de9ab0ecf4a2548762c12c91b'),
    (('block', 'panel'), '420ef39d8ba26bf713677d611d02ae14423ffdd84e5af924d5d6830e50914488'),
    (('block', 'fifo'), 'c092e74003caae95860faa68513b311f53d00cbe45a73227b10054758a9fc6f0'),
    (('block-cyclic', 'critical-path'), 'e3dace64f29b9b15082008332656fde0b885b240df7d9c5acfad35c8ce6fc2a2'),
    (('block-cyclic', 'panel'), '96f4e2b34820ddfdf94bde3e7b646e1ddd6363f71a6a0adcf623da765fdf2e03'),
    (('block-cyclic', 'fifo'), 'aba463589fd3b68b311453af745985f2e6e5aed957987a5dcc07bbcf260ae684'),
    (('owner-computes', 'critical-path'), '8b0a57873b175eef7e93b0a3a158d8cdc51d18d55773a1d7610d08ca4bd8db81'),
    (('owner-computes', 'panel'), '7e36fda2d4b2f08707105963acd02fc3e7dbf45e7068fbe7caea5747d9a8388c'),
    (('owner-computes', 'fifo'), 'ce1ae3eb6132db06328810a5dabb650530a5a6bd2ec63ee8f5e36d2073328c2d'),
]

#: Golden event-stream hashes of the ``ENTRY_POINTS`` runs, captured on the
#: last commit that had the thread-per-rank backend, with both backends
#: agreeing.
PARITY_HASHES = {
    "spmd-tsqr": "f1e968ec0004937602009f179dc283e872b19bc22cd5d68a0b9ce5190c42d239",
    "spmd-caqr": "99953b82bddd8d7cd9c92b5e5255d7aaadf49a0601f08b2d7d8428eea8e9e3e9",
    "dag-cholesky": "360f3e6022b01bea503b4e131fd6a2176d8019de4b615be89b3dc6d914a89714",
    "dag-lu": "0171fa0b6fad0640272f38d5fc9da5d1118d36eabe162ffb571049166fcc9600",
    "tsqr-q": "5ff66297769a3e10f43e94938d3a91bc914a521b908840fcf5415fba24698e87",
    "scalapack": "d23049db83f8b4922acf4c62cece841b5725321e084485ac72aa801726145f32",
    "scalapack-hierarchical": "407ddabbf9242571951a17cb11b48ee321ba2ba1f6443125151e5f87e8772b25",
}

#: Golden event-stream hashes of ``_collectives`` on the 8-rank test
#: platform under each collective tree (captured with both backends
#: agreeing).
COLLECTIVE_HASHES = {
    "binary": "29c674e543a258a2a8cb700c684bd558a1cc3efc9bc844d35ef26e3144d769f9",
    "hierarchical": "9712cc02a1a7a1495853ee463ab8a217e97a9d5c0b685d2a15c495dabd5d1ce6",
    "flat": "f1409a58207c43fc2febb988e1922d473add5ece2ee992583d6b852084a64f73",
}

#: Deadlock report of a two-rank recv cycle plus a half-entered barrier on
#: the 4-rank single-site platform (captured with both backends agreeing).
DEADLOCK_WAIT_GRAPH = (
    "deadlock detected: all 4 live rank(s) are blocked and no pending event "
    "can unblock them\n"
    "  rank 0: waiting on recv(source=1, tag='cycle') on communicator 'world'\n"
    "  rank 1: waiting on recv(source=0, tag='cycle') on communicator 'world'\n"
    "  rank 2: waiting on collective 'barrier' on communicator 'world' "
    "(2/4 ranks arrived)\n"
    "  rank 3: waiting on collective 'barrier' on communicator 'world' "
    "(2/4 ranks arrived)"
)

#: ``(clock, probe)`` samples of rank 0 yielding between compute charges
#: while rank 1's late message is in flight, and the final clocks (captured
#: with both backends agreeing).  The probe reports the message's arrival
#: time from the first sample on: rank 1 sent it during rank 0's first yield.
PROBE_YIELD_SAMPLES = (
    (0.05449591280653951, 0.2724965704326976),
    (0.10899182561307902, 0.2724965704326976),
    (0.16348773841961853, 0.2724965704326976),
    (0.21798365122615804, 0.2724965704326976),
    (0.2724795640326976, 0.2724965704326976),
    (0.3269754768392371, 0.2724965704326976),
    (0.38147138964577665, 0.2724965704326976),
    (0.4359673024523162, 0.2724965704326976),
    (0.4904632152588557, 0.2724965704326976),
    (0.5449591280653953, 0.2724965704326976),
    (0.5994550408719348, 0.2724965704326976),
    (0.6539509536784743, 0.2724965704326976),
)
PROBE_YIELD_CLOCKS = [0.6539509536784743, 0.2724795640326976, 0.0, 0.0]


class TestRegistryRefactorEquivalence:
    """The generic builder's QR output is the legacy builder's, bit for bit."""

    @pytest.mark.parametrize("params,expected", GRAPH_FINGERPRINTS)
    def test_qr_graph_fingerprints_unchanged(self, params, expected):
        from repro.dag.graph import tiled_qr_graph

        kwargs = dict(params)
        kwargs["group_clusters"] = kwargs.pop("group_clusters", None)
        assert _graph_fingerprint(tiled_qr_graph(**kwargs)) == expected

    @pytest.mark.parametrize("policies,expected", TRACE_HASHES)
    def test_qr_trace_hashes_unchanged(self, platform8, policies, expected):
        placement, priority = policies
        config = DAGFactorizationConfig(
            m=32_768, n=96, tile_size=32, placement=placement, priority=priority
        )
        result = run_dag_factorization(platform8, config, record_messages=True)
        assert event_hash(result.simulation) == expected


def _make_platform8():
    """Deterministic 8-rank platform, importable from pool worker processes."""
    from repro.gridsim import (
        ClusterSpec,
        GridSpec,
        KernelRateModel,
        LinkSpec,
        NetworkModel,
        NodeSpec,
        Platform,
        ProcessorSpec,
        block_placement,
    )

    node = NodeSpec(processor=ProcessorSpec("test-cpu", 8.0, 3.67), processes_per_node=2)
    grid = GridSpec(
        name="test-grid",
        clusters=tuple(ClusterSpec(name=f"site{i}", n_nodes=2, node=node) for i in range(2)),
    )
    network = NetworkModel(
        intra_node=LinkSpec.from_us_mbits(17.0, 5000.0),
        intra_cluster=LinkSpec.from_ms_mbits(0.06, 890.0),
        inter_cluster_default=LinkSpec.from_ms_mbits(8.0, 90.0),
    )
    placement = block_placement(grid, nodes_per_cluster=2, processes_per_node=2)
    return Platform(
        grid=grid,
        network=network,
        placement=placement,
        kernel_model=KernelRateModel(),
        name="test-platform",
    )


def _child_event_hash(_arg: int) -> str:
    """Run the reference simulation in a worker process and hash its events."""
    return event_hash(
        run_parallel_tsqr(_make_platform8(), CONFIG, record_messages=True).simulation
    )


class TestJobsEquivalence:
    def test_sweep_rows_identical_jobs_1_vs_n(self):
        from repro.experiments.figures import figure6
        from repro.experiments.runner import ExperimentRunner

        m_values = [1_048_576, 4_194_304]
        serial = figure6(
            ExperimentRunner(), 64, m_values=m_values, domain_counts=(1, 64)
        )
        parallel = figure6(
            ExperimentRunner(jobs=2), 64, m_values=m_values, domain_counts=(1, 64)
        )
        assert serial.as_rows() == parallel.as_rows()

    def test_worker_process_events_match_parent(self, platform8):
        """The same program hashes identically in-process and in a pool worker."""
        parent_hash = event_hash(
            run_parallel_tsqr(platform8, CONFIG, record_messages=True).simulation
        )
        methods = multiprocessing.get_all_start_methods()
        if "fork" not in methods:  # pragma: no cover - non-POSIX fallback
            pytest.skip("fork start method unavailable")
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            child_hashes = pool.map(_child_event_hash, range(2))
        assert child_hashes == [parent_hash, parent_hash]
