"""The benchmark's three workloads, each driving the program's public entry points.

A workload builds its inputs from the seed in :meth:`Workload.setup`, then
runs whole *rounds* of the same operations (:meth:`Workload.run_round`).  A
round times every operation and keeps what the checks need; the checks run
afterwards, outside the timed region, as closures over those outputs.  All
runs use the default configuration users run: the coroutine engine,
streaming statistics on, no environment switches, and -- where a service is
involved -- a private store under the benchmark's own work directory instead
of the shared ``results/cache``.
"""

from __future__ import annotations

import asyncio
import cProfile
import functools
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from perfbench import checks

perf_counter = time.perf_counter

#: Wide-area link ranges of paper Fig. 3(a): latency (ms) and throughput (Mb/s).
WAN_LATENCY_MS = (6.12, 9.03)
WAN_THROUGHPUT_MBITS = (77.0, 102.0)
#: Shape of the synthetic grids: equal clusters of two-process nodes.
CLUSTERS = 4
PROCESSES_PER_NODE = 2

#: Size of the duplicate cold burst of each fig8-sweep round.
BURST_SIZE = 32


class FirstEvent:
    """One-shot stamp of the host time of the first simulated event.

    While armed, the trace's two recording methods are wrapped; the first
    call stamps the clock and puts the originals back, so every later event
    runs the unwrapped program.
    """

    METHODS = ("record_message", "record_flops")

    def __init__(self) -> None:
        self.stamp: float | None = None
        self._saved: dict[str, object] = {}
        self._cls = None

    def arm(self) -> None:
        from repro.gridsim.trace import Trace

        self._cls = Trace
        for name in self.METHODS:
            original = Trace.__dict__[name]
            self._saved[name] = original

            def first(trace, *args, _original=original, **kwargs):
                self._fire()
                return _original(trace, *args, **kwargs)

            setattr(Trace, name, first)

    def _fire(self) -> None:
        if self.stamp is None:
            self.stamp = perf_counter()
        self.disarm()

    def disarm(self) -> None:
        for name, original in self._saved.items():
            setattr(self._cls, name, original)
        self._saved = {}

    def host_time(self, t0: float, t1: float) -> float:
        """``t1 - t0`` less the part before the first simulated event, which
        belongs to set-up (``setup_s``)."""
        if self.stamp is not None and t0 < self.stamp <= t1:
            return t1 - self.stamp
        return t1 - t0


@dataclass
class Round:
    """Timings and outputs of one round of a workload's operations."""

    wall_s: float = 0.0  # host seconds of the round's operations
    sim_s: float = 0.0  # host seconds of those spent simulating
    events: int = 0  # messages + flop charges simulated
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Simulated outputs per operation (compared between traced and untraced runs).
    outcomes: list[dict] = field(default_factory=list)
    #: Median latency (ms) of each memory-tier and disk-tier replay slice.
    memory_slices: list[float] = field(default_factory=list)
    disk_slices: list[float] = field(default_factory=list)
    cold_overhead_ms: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    _checks: list[Callable[[], list[str]]] = field(default_factory=list, repr=False)

    def expect(self, check: Callable[[], list[str]], ops: int = 1) -> None:
        """Register the check of ``ops`` operations (0 for a check across
        operations); :meth:`run_checks` evaluates it."""
        self.attempted += ops
        self._checks.append(check)

    def run_checks(self) -> None:
        """Evaluate every registered check; a failing check fails one operation."""
        for check in self._checks:
            found = check()
            if found:
                self.failed += 1
                self.failures.extend(found)
        self._checks = []


def synthetic_platform(n_ranks: int, rng: random.Random):
    """``n_ranks`` ranks on the synthetic grid with the paper's link classes;
    each wide-area link is drawn from the Fig. 3(a) ranges."""
    from repro.gridsim import (
        ClusterSpec, GridSpec, KernelRateModel, LinkSpec, NetworkModel, NodeSpec,
        Platform, ProcessorSpec, block_placement,
    )

    ppn = PROCESSES_PER_NODE
    nodes = n_ranks // (CLUSTERS * ppn)
    node = NodeSpec(processor=ProcessorSpec("bench-cpu", 8.0, 3.67), processes_per_node=ppn)
    names = [f"site{i}" for i in range(CLUSTERS)]
    grid = GridSpec(
        name=f"bench-grid-{n_ranks}",
        clusters=tuple(ClusterSpec(name=name, n_nodes=nodes, node=node) for name in names),
    )
    wan = {
        (a, b): LinkSpec.from_ms_mbits(rng.uniform(*WAN_LATENCY_MS), rng.uniform(*WAN_THROUGHPUT_MBITS))
        for i, a in enumerate(names)
        for b in names[i + 1:]
    }
    network = NetworkModel(
        intra_node=LinkSpec.from_us_mbits(17.0, 5000.0),
        intra_cluster=LinkSpec.from_ms_mbits(0.06, 890.0),
        inter_cluster=wan,
    )
    placement = block_placement(grid, nodes_per_cluster=nodes, processes_per_node=ppn)
    return Platform(
        grid=grid, network=network, placement=placement,
        kernel_model=KernelRateModel(), name=f"bench-{n_ranks}",
    )


def trace_outcome(name: str, result) -> dict:
    """Simulated outputs of one run that a traced run must reproduce."""
    return {
        "op": name,
        "makespan_s": result.makespan_s,
        "messages": result.trace.total_messages,
        "bytes": sum(result.trace.bytes_by_link.values()),
    }


class Workload:
    """One benchmark workload (see the README for the why of each)."""

    name = ""
    #: True when the rounds query the service themselves; for the others a
    #: :func:`sample_queries` process measures the query metrics.
    QUERIES = False

    def __init__(self) -> None:
        #: cProfile objects of worker threads (trace mode), merged by run.py.
        self.thread_profiles: list[cProfile.Profile] | None = None
        self.work_dir = Path(".")
        self.rng = random.Random(0)

    def import_program(self) -> None:
        """Import the program modules this workload calls (timed as set-up)."""

    def setup(self, seed: int, work_dir: Path) -> None:
        self.rng = random.Random(seed)
        self.work_dir = work_dir

    def run_round(self, index: int, first: FirstEvent) -> Round:
        raise NotImplementedError


# ---------------------------------------------------------------- tsqr-8192

class Tsqr8192(Workload):
    """Virtual QCG-TSQR, R only and with explicit Q, on 8192 ranks."""

    name = "tsqr-8192"
    P = 8192
    M = 8192 * 4096
    N = 64

    def import_program(self) -> None:
        import repro.tsqr.parallel  # noqa: F401

    def setup(self, seed: int, work_dir: Path) -> None:
        from repro.tsqr.parallel import TSQRConfig

        super().setup(seed, work_dir)
        self.platform = synthetic_platform(self.P, self.rng)
        self.configs = [TSQRConfig(m=self.M, n=self.N, want_q=q) for q in (False, True)]

    def run_round(self, index: int, first: FirstEvent) -> Round:
        from repro.tsqr.parallel import run_parallel_tsqr

        rnd = Round()
        for config in self.configs:
            t0 = perf_counter()
            result = run_parallel_tsqr(self.platform, config)
            host = first.host_time(t0, perf_counter())
            trace = result.trace
            rnd.wall_s += host
            rnd.sim_s += host
            rnd.events += trace.total_events
            rnd.outcomes.append(trace_outcome("tsqr-q" if config.want_q else "tsqr-r", result))
            out = {
                "makespan_s": result.makespan_s,
                "messages": trace.total_messages,
                "inter_cluster_messages": trace.inter_cluster_messages,
                "total_flops": trace.total_flops,
            }
            rnd.expect(lambda out=out, q=config.want_q: checks.check_tsqr_run(
                out, m=self.M, n=self.N, p=self.P, clusters=CLUSTERS, want_q=q))
        return rnd


# --------------------------------------------------------------- fig8-sweep

@functools.cache
def timed_runner_class():
    """An ``ExperimentRunner`` that records the host time inside each
    ``run_point`` call and, in trace mode, profiles it: the service simulates
    on a worker thread, and cProfile sees only the thread that enables it."""
    from repro.experiments.runner import ExperimentRunner

    class TimedRunner(ExperimentRunner):
        def __init__(self, *args, profiles: list | None = None, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.inside: list[tuple[float, float]] = []
            self.profiles = profiles

        def run_point(self, spec):
            profile = None
            if self.profiles is not None:
                profile = cProfile.Profile()
                profile.enable()
            t0 = perf_counter()
            try:
                return super().run_point(spec)
            finally:
                self.inside.append((t0, perf_counter()))
                if profile is not None:
                    profile.disable()
                    self.profiles.append(profile)

    return TimedRunner


class QueryClient:
    """One closed-loop caller of an in-process ``SimulationService``.

    The service runs over a private store.  Cold queries simulate and fill
    it; replay slices then ask again for keys already answered: memory-tier
    replays through the same service, disk-tier replays each through a fresh
    service over the same store.  Slices are spread over the whole run
    because this host's speed changes every few seconds; a single replay
    phase would measure the moment rather than the tier.
    """

    def __init__(self, rng: random.Random, store: Path, profiles: list | None = None) -> None:
        from repro.service import ResultCache, SimulationService

        self.rng = rng
        self.store = store
        self.runner = timed_runner_class()(store=ResultCache(store), profiles=profiles)
        self.service = SimulationService(self.runner)
        self.cold: dict[tuple, dict] = {}
        self.answered: list[dict] = []
        #: Counters of the fresh disk-tier services (the main one keeps its own).
        self.fresh_counts: dict[str, int] = {}

    async def cold_query(self, config: dict, rnd: Round, first: FirstEvent) -> dict:
        """One cold query: a simulation, timed inside and outside ``run_point``."""
        t0 = perf_counter()
        reply = await self.service.submit(config)
        t1 = perf_counter()
        i0, i1 = self.runner.inside[-1]
        sim = first.host_time(i0, i1)
        rnd.wall_s += first.host_time(t0, t1)
        rnd.sim_s += sim
        rnd.cold_overhead_ms.append(((t1 - t0) - (i1 - i0)) * 1e3)
        rnd.events += reply.point.trace.total_events
        answer = _answer(config, reply)
        self.cold[_key(config)] = answer
        self.answered.append(config)
        rnd.outcomes.append({"op": "query", **{k: answer[k] for k in checks.REPLY_FIELDS}})
        rnd.expect(lambda: [] if answer["source"] == "simulated"
                   else [f"cold query answered from {answer['source']}"])
        return answer

    async def replay_slice(self, rnd: Round, n_memory: int, n_disk: int) -> float:
        """Replay answered keys from both tiers; the slice's host seconds."""
        from repro.experiments.runner import ExperimentRunner
        from repro.service import ResultCache, SimulationService

        rng = self.rng
        memory, disk = [], []
        for _ in range(n_memory):
            config = rng.choice(self.answered)
            t0 = perf_counter()
            reply = await self.service.submit(config)
            memory.append(perf_counter() - t0)
            rnd.expect(lambda a=_answer(config, reply), c=self.cold[_key(config)]:
                       checks.check_replay(a, c, source="memory"))
        for _ in range(n_disk):
            config = rng.choice(self.answered)
            fresh = SimulationService(ExperimentRunner(store=ResultCache(self.store)))
            t0 = perf_counter()
            reply = await fresh.submit(config)
            disk.append(perf_counter() - t0)
            _add_counts(self.fresh_counts, fresh.stats)
            rnd.expect(lambda a=_answer(config, reply), c=self.cold[_key(config)]:
                       checks.check_replay(a, c, source="disk"))
        rnd.memory_slices.append(statistics.median(memory) * 1e3)
        rnd.disk_slices.append(statistics.median(disk) * 1e3)
        return sum(memory) + sum(disk)

    def counts(self) -> dict[str, int]:
        """Service counters so far, plus the bytes in the store."""
        out = dict(self.fresh_counts)
        _add_counts(out, self.service.stats)
        out["store_bytes"] = sum(p.stat().st_size for p in self.store.rglob("*") if p.is_file())
        return out


SERVICE_COUNTERS = ("memory_hits", "disk_hits", "single_flight_joins", "simulations")


def _add_counts(into: dict[str, int], stats) -> None:
    for name in SERVICE_COUNTERS:
        into[name] = into.get(name, 0) + getattr(stats, name)


def _key(config: dict) -> tuple:
    return tuple(sorted(config.items()))


def _answer(config: dict, reply) -> dict:
    point = reply.point
    return {
        "algorithm": config["algorithm"],
        "m": config["m"],
        "sites": config["n_sites"],
        "source": reply.source,
        "time_s": point.time_s,
        "gflops": point.gflops,
        "total_messages": point.total_messages,
        "inter_cluster_messages": point.inter_cluster_messages,
    }


class Fig8Sweep(Workload):
    """Paper Fig. 8 at paper scale through the query service."""

    name = "fig8-sweep"
    N = 64
    SITES = (1, 2, 4)
    DOMAINS = (32, 64)
    QUERIES = True
    #: 18 cold queries a round, each followed by 56 memory and 11 disk replays.
    SLICE = (56, 11)

    def import_program(self) -> None:
        import repro.experiments.runner  # noqa: F401
        import repro.service  # noqa: F401

    def setup(self, seed: int, work_dir: Path) -> None:
        from repro.experiments.workloads import paper_m_values

        super().setup(seed, work_dir)
        # Both ends of the Fig. 8 axis: latency-bound and bandwidth-bound.
        # Fixed rather than seeded, so that every seed runs the same points
        # and the paper-vs-simulation comparison in the README holds for all.
        m_values = paper_m_values(self.N)
        self.m_values = (m_values[0], m_values[-1])

    def configs(self) -> list[dict]:
        out = []
        for m in self.m_values:
            out += [{"algorithm": "tsqr", "m": m, "n": self.N, "n_sites": s,
                     "domains_per_cluster": d} for s in self.SITES for d in self.DOMAINS]
            out += [{"algorithm": "scalapack", "m": m, "n": self.N, "n_sites": s}
                    for s in self.SITES]
        return out

    def run_round(self, index: int, first: FirstEvent) -> Round:
        configs = self.configs()
        self.rng.shuffle(configs)
        rnd = Round()
        client = QueryClient(self.rng, self.work_dir / f"round{index}", self.thread_profiles)
        burst = QueryClient(self.rng, self.work_dir / f"round{index}-burst", self.thread_profiles)
        burst_config = {"algorithm": "tsqr", "m": self.m_values[-1], "n": self.N,
                        "n_sites": 4, "domains_per_cluster": 64}

        async def phases() -> None:
            for config in configs:
                await client.cold_query(config, rnd, first)
                rnd.wall_s += await client.replay_slice(rnd, *self.SLICE)
            sims = (client.service.stats.simulations, client.runner.simulations_run)
            rnd.expect(lambda: checks.check_simulation_count(sims[0], len(configs))
                       + checks.check_simulation_count(sims[1], len(configs)), ops=0)
            t0 = perf_counter()
            replies = await asyncio.gather(
                *(burst.service.submit(burst_config) for _ in range(BURST_SIZE))
            )
            rnd.wall_s += perf_counter() - t0
            answers = [_answer(burst_config, r) for r in replies]
            simulated = burst.runner.simulations_run
            rnd.expect(lambda: checks.check_burst(simulated, [a["source"] for a in answers]),
                       ops=0)
            reference = client.cold[_key(burst_config)]
            for a in answers:
                rnd.expect(lambda a=a: checks.check_replay(a, reference, source=None))

        asyncio.run(phases())
        answers = [client.cold[_key(c)] for c in configs]
        rnd.expect(lambda: checks.check_fig8_best(answers), ops=0)
        rnd.extra["service"] = counts = client.counts()
        for name, value in burst.counts().items():
            counts[name] += value
        rnd.extra["gflops"] = {
            f"{c['algorithm']}-M{c['m']}-{c['n_sites']}site"
            + (f"-{c['domains_per_cluster']}dpc" if c["algorithm"] == "tsqr" else ""):
            a["gflops"] for a, c in zip(answers, configs)
        }
        return rnd


# ---------------------------------------------------------- dag-cholesky-512

class DagCholesky512(Workload):
    """Virtual tiled Cholesky on the DAG runtime, 512 ranks."""

    name = "dag-cholesky-512"
    P = 512
    N = 4096
    TILE = 64

    def import_program(self) -> None:
        import repro.dag.runtime  # noqa: F401
        import repro.model.costs  # noqa: F401

    def setup(self, seed: int, work_dir: Path) -> None:
        from repro.dag.runtime import DAGFactorizationConfig

        super().setup(seed, work_dir)
        self.platform = synthetic_platform(self.P, self.rng)
        self.config = DAGFactorizationConfig(
            m=self.N, n=self.N, tile_size=self.TILE, algorithm="cholesky"
        )
        self._model = None

    def model(self):
        """Cost-model counts (computed once, after the first run, untimed)."""
        if self._model is None:
            from repro.model.costs import dag_cholesky_costs

            self._model = dag_cholesky_costs(self.N, self.P, tile_size=self.TILE)
        return self._model

    def run_round(self, index: int, first: FirstEvent) -> Round:
        from repro.dag.runtime import run_dag_factorization

        rnd = Round()
        t0 = perf_counter()
        result = run_dag_factorization(self.platform, self.config)
        host = first.host_time(t0, perf_counter())
        trace = result.trace
        rnd.wall_s = rnd.sim_s = host
        rnd.events = trace.total_events
        rnd.outcomes.append(trace_outcome("dag-cholesky", result))
        out = {
            "makespan_s": result.makespan_s,
            "critical_path_s": result.critical_path_s,
            "messages": trace.total_messages,
            "bytes": sum(trace.bytes_by_link.values()),
            "tasks": result.graph.n_tasks,
            "total_flops": trace.total_flops,
        }
        rnd.extra["messages"] = out["messages"]

        def check() -> list[str]:
            model = self.model()
            return checks.check_dag_cholesky(
                out, n=self.N, tile=self.TILE,
                model_messages=int(model.messages), model_bytes=int(model.volume_bytes),
            )

        rnd.expect(check)
        return rnd


# ------------------------------------------------------------ query sampler

#: Replays per sampler slice (memory, disk) and the pause between slices:
#: about 8 ms of work every 0.2 s, so the sampler barely loads the host.
SAMPLER_SLICE = (20, 10)
SAMPLER_PAUSE_S = 0.2


def sample_queries(seed: int, store: Path, control) -> dict:
    """Query metrics for the workloads that never call the service.

    Runs in its own process next to the workload's: one cold query of the
    Grid'5000 4-site, 64-domains TSQR point at a seeded M, then -- between a
    ``go`` and a ``stop`` line (or end of file) on ``control`` -- a replay
    slice every ``SAMPLER_PAUSE_S``, so the samples span the whole timed
    window rather than the gaps between its operations.
    """
    import select

    from repro.experiments.workloads import paper_m_values

    rng = random.Random(seed)
    client = QueryClient(rng, store)
    rnd = Round()
    config = {"algorithm": "tsqr", "m": rng.choice(paper_m_values(64)), "n": 64,
              "n_sites": 4, "domains_per_cluster": 64}
    asyncio.run(client.cold_query(config, rnd, FirstEvent()))
    # Raw reads: a buffered readline could swallow a "stop" sent right
    # behind "go", which select() would then never see.
    fd = control.fileno()
    received = os.read(fd, 64)  # b"go\n" once the workload is set up; b"" at EOF
    while received.startswith(b"go"):
        asyncio.run(client.replay_slice(rnd, *SAMPLER_SLICE))
        if b"stop" in received or select.select([fd], [], [], SAMPLER_PAUSE_S)[0]:
            break
    rnd.run_checks()
    return {
        "memory_slices": rnd.memory_slices,
        "disk_slices": rnd.disk_slices,
        "cold_overhead_ms": rnd.cold_overhead_ms,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "failures": rnd.failures,
    }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Tsqr8192, Fig8Sweep, DagCholesky512)
}
