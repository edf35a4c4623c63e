"""The runtime layer of the task-DAG runtime: dataflow execution on gridsim.

The runtime is itself an SPMD program (reusing
:func:`repro.programs.spmd.run_program`, the scheduler and the executor
unchanged): every simulated rank owns the tasks its placement policy assigns
it and drives a **ready queue**:

* when a task completes, its outputs are **sent immediately** to every rank
  that consumes them (eager, asynchronous — the sender's clock never waits);
* a rank **receives lazily**: before picking the next task it collects
  only the expected messages whose virtual arrival time has passed (a free
  receive — the communication was hidden behind whatever the rank computed
  in the meantime).  It finds them in an **arrival index**, a per-rank
  min-heap the senders push each message's priced arrival into, so a step
  costs O(log n) per message instead of a look at every outstanding
  receive;
* among the ready tasks the configured **priority policy** picks the next
  one; when nothing is ready the rank falls back to its earliest unfinished
  task in graph order and blocks on that task's missing inputs.

The id-order fallback is what makes the runtime deadlock-free: task ids are
a topological order of the graph, so around any hypothetical cycle of
blocked ranks the earliest-unfinished ids would strictly decrease — a
contradiction.  Everything else (arrival-index contents, ready-queue
contents, tie breaks) is a pure function of simulation state, so virtual
traces are bit-reproducible and identical to real-payload runs.

Values are stored **per version** — keyed by ``(producer task, handle)`` —
so a rank can hold a tile's old value for a straggling reader while a newer
version already arrived for a later task, whatever the placement policy.

:func:`run_dag_factorization` is the one entry point, for every algorithm
of the registry; a :class:`DAGFactorizationConfig` names the algorithm
(``qr`` by default).  For QR it is the DAG counterpart of
:func:`repro.programs.caqr.run_parallel_caqr`: same kernels, same
elimination structure, bit-identical R in real mode.  A single-panel QR
(``tile_size = ceil(m / p)``, ``n <= tile_size``) runs the paper's TSQR
reduction tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush

import numpy as np

from repro.dag.analysis import (
    CriticalPath,
    ScheduleEntry,
    critical_path,
    iter_messages,
)
from repro.dag.graph import TaskGraph, cached_graph
from repro.dag.kernels import AlgorithmSpec, algorithm_spec, execute_kernel
from repro.dag.placement import (
    DEFAULT_PLACEMENT,
    DEFAULT_PRIORITY,
    PLACEMENT_POLICIES,
    PRIORITY_POLICIES,
    TaskPlacement,
    place_tasks,
    priority_order,
)
from repro.dag.recovery import RecoveryReport, build_recovery_plan
from repro.exceptions import ConfigurationError, RankFailedError
from repro.gridsim.communicator import CommCore, CommHandle
from repro.gridsim.executor import RankContext, SimulationResult
from repro.gridsim.failures import FailureSchedule
from repro.gridsim.kernelmodel import KernelRateModel
from repro.gridsim.platform import Platform
from repro.gridsim.trace import TraceSummary
from repro.programs.caqr import PANEL_TREE_KINDS
from repro.programs.spmd import run_program
from repro.virtual.matrix import VirtualMatrix

__all__ = [
    "DAGFactorizationConfig",
    "DAGRunResult",
    "run_dag_factorization",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DAGFactorizationConfig:
    """Configuration of one DAG factorization run, any registered algorithm.

    The matrix/tiling fields mirror :class:`repro.programs.caqr.CAQRConfig`
    (for QR the two runtimes factor the same problem with the same kernels
    and the same elimination structure); ``placement`` and ``priority``
    select the dataflow policies of :mod:`repro.dag.placement`;
    ``algorithm`` names the :mod:`repro.dag.kernels` registry entry
    (``qr``, ``cholesky`` or ``lu``).  ``panel_tree`` only applies to QR —
    the single-tile panels of Cholesky and LU have nothing to reduce.
    """

    m: int
    n: int
    tile_size: int = 64
    panel_tree: str = "binary"
    placement: str = DEFAULT_PLACEMENT
    priority: str = DEFAULT_PRIORITY
    nb: int = 32
    matrix: np.ndarray | None = field(default=None, repr=False, compare=False)
    algorithm: str = "qr"

    def __post_init__(self) -> None:
        spec = algorithm_spec(self.algorithm)  # raises for unknown names
        if self.m <= 0 or self.n <= 0:
            raise ConfigurationError(
                f"matrix dimensions must be positive, got {self.m} x {self.n}"
            )
        if spec.square_only and self.m != self.n:
            raise ConfigurationError(
                f"tiled {self.algorithm} needs a square matrix, got {self.m} x {self.n}"
            )
        if self.tile_size <= 0:
            raise ConfigurationError(f"tile size must be positive, got {self.tile_size}")
        if spec.uses_panel_tree:
            if self.panel_tree not in PANEL_TREE_KINDS:
                raise ConfigurationError(
                    f"unknown panel tree {self.panel_tree!r}; choose from {PANEL_TREE_KINDS}"
                )
        elif self.panel_tree != "binary":
            raise ConfigurationError(
                f"the panel tree only applies to QR; tiled {self.algorithm} "
                "eliminates single-tile panels and has nothing to reduce"
            )
        if self.placement not in PLACEMENT_POLICIES:
            raise ConfigurationError(
                f"unknown placement policy {self.placement!r}; "
                f"choose from {PLACEMENT_POLICIES}"
            )
        if self.priority not in PRIORITY_POLICIES:
            raise ConfigurationError(
                f"unknown priority policy {self.priority!r}; "
                f"choose from {PRIORITY_POLICIES}"
            )
        if self.matrix is not None and self.matrix.shape != (self.m, self.n):
            raise ConfigurationError(
                f"matrix shape {self.matrix.shape} does not match ({self.m}, {self.n})"
            )

    @property
    def virtual(self) -> bool:
        """True when the run uses shape-only payloads."""
        return self.matrix is None

    def flop_count(self) -> float:
        """Useful flops credited to the run (the Gflop/s denominator)."""
        return algorithm_spec(self.algorithm).total_flops(self.m, self.n)


@dataclass(frozen=True)
class _ExecSpec:
    """What the generic task executor needs to know about one run."""

    matrix: np.ndarray | None = field(repr=False, compare=False)
    inner_b: int = 32
    record_schedule: bool = False

    @property
    def virtual(self) -> bool:
        return self.matrix is None


# ---------------------------------------------------------------------------
# Communication plan
# ---------------------------------------------------------------------------

class _CommPlan:
    """Everything the per-rank ready loops need, derived once per (graph,
    placement) pair and treated as immutable.

    Versioned value keys: ``vkey = (producer + 1) * n_handles + handle``
    (producer ``-1`` is the initial value).  A vkey doubles as the message
    tag, so concurrent versions of the same tile never collide in the
    mailboxes or the per-rank stores.
    """

    def __init__(self, graph: TaskGraph, placement: TaskPlacement) -> None:
        self.graph = graph
        self.placement = placement
        H = graph.n_handles
        self.n_handles = H
        rank_of = placement.task_rank
        p = placement.n_ranks

        self.tasks_by_rank: list[list[int]] = [[] for _ in range(p)]
        for tid, r in enumerate(rank_of):
            self.tasks_by_rank[r].append(tid)

        # Per-task local bookkeeping templates and the message plan.
        self.local_preds: list[dict[int, int]] = [{} for _ in range(p)]
        self.remote_counts: list[dict[int, int]] = [{} for _ in range(p)]
        self.local_succs: dict[int, list[int]] = {}
        self.remote_inputs: dict[int, tuple[tuple[int, int, int], ...]] = {}
        #: Sends as ``(vkey, dest, nbytes, position in dest's expected list)``.
        self.sends_by_task: dict[int, list[tuple[int, int, int, int]]] = {}
        self.init_sends_by_rank: list[list[tuple[int, int, int, int]]] = [
            [] for _ in range(p)
        ]
        self.init_values_by_rank: list[list[int]] = [[] for _ in range(p)]
        self.expected_by_rank: list[list[tuple[int, int]]] = [[] for _ in range(p)]
        self.waiters_by_rank: list[dict[int, list[int]]] = [{} for _ in range(p)]
        #: Per rank: how many times each value version is consumed locally
        #: (task reads plus outbound sends) — the runtime frees a version on
        #: its last use, so stores stay O(live tiles), not O(history).
        self.use_counts_by_rank: list[dict[int, int]] = [{} for _ in range(p)]

        seen_initial: set[int] = set()
        for tid, task in enumerate(graph.tasks):
            me = rank_of[tid]
            raw = set(task.read_producers)
            remote = []
            uses = self.use_counts_by_rank[me]
            for h, prod in zip(task.reads, task.read_producers):
                vkey = (prod + 1) * H + h
                uses[vkey] = uses.get(vkey, 0) + 1
                if prod >= 0:
                    if rank_of[prod] != me:
                        remote.append((vkey, rank_of[prod], h))
                else:
                    src = placement.initial_owner[h]
                    if src != me:
                        remote.append((vkey, src, h))
                    elif h not in seen_initial:
                        seen_initial.add(h)
                        self.init_values_by_rank[me].append(h)
            # Non-dataflow (WAR/WAW) edges carry no message, so they are
            # only enforceable between co-located tasks.
            for pred in graph.preds[tid]:
                if pred not in raw and rank_of[pred] != me:
                    raise ConfigurationError(
                        f"task {tid} has a cross-rank anti-dependency on task "
                        f"{pred}; the DAG runtime requires writers to read "
                        "what they overwrite (all shipped builders do)"
                    )
            # Count local dependency edges (of any type) once each.
            n_local_edges = sum(1 for pr in graph.preds[tid] if rank_of[pr] == me)
            if n_local_edges:
                self.local_preds[me][tid] = n_local_edges
                for pr in graph.preds[tid]:
                    if rank_of[pr] == me:
                        self.local_succs.setdefault(pr, []).append(tid)
            if remote:
                self.remote_counts[me][tid] = len(remote)
                self.remote_inputs[tid] = tuple(remote)
                for vkey, _src, _h in remote:
                    self.waiters_by_rank[me].setdefault(vkey, []).append(tid)

        # The message plan itself comes from the single shared definition in
        # the analysis layer, so the cost model's counts and the runtime's
        # sends can never drift apart.  Each send carries the message's
        # position in its receiver's expected list, the receiver's tie break
        # between messages that arrive at the same virtual time.
        for prod, h, src, dest, nbytes in iter_messages(graph, placement):
            vkey = (prod + 1) * H + h
            send = (vkey, dest, nbytes, len(self.expected_by_rank[dest]))
            if prod >= 0:
                self.sends_by_task.setdefault(prod, []).append(send)
            else:
                if h not in seen_initial:
                    seen_initial.add(h)
                    self.init_values_by_rank[src].append(h)
                self.init_sends_by_rank[src].append(send)
            self.expected_by_rank[dest].append((vkey, src))
            uses = self.use_counts_by_rank[src]
            uses[vkey] = uses.get(vkey, 0) + 1  # the outbound send is one use

        # Final location of every tile handle (for result assembly).
        self.final_rank: dict[int, int] = {}
        self.final_vkey: dict[int, int] = {}
        for h in range(H):
            lw = graph.last_writer(h)
            if lw >= 0:
                self.final_rank[h] = rank_of[lw]
                self.final_vkey[h] = (lw + 1) * H + h
            else:
                self.final_rank[h] = placement.initial_owner[h]
                self.final_vkey[h] = h

    def collect_by_rank(self, handles: list[int]) -> list[list[tuple[int, int]]]:
        """Group ``handles`` by final rank as ``(handle, vkey)`` pairs."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.placement.n_ranks)]
        for h in handles:
            rank = self.final_rank[h]
            if rank >= 0:
                out[rank].append((h, self.final_vkey[h]))
        return out


@lru_cache(maxsize=8)
def _plan_for(graph: TaskGraph, policy: str, n_ranks: int) -> tuple[TaskPlacement, _CommPlan]:
    """Memoised placement + communication plan (graphs are cached upstream)."""
    placement = place_tasks(graph, policy, n_ranks)
    return placement, _CommPlan(graph, placement)


@lru_cache(maxsize=16)
def _order_for(
    graph: TaskGraph, policy: str, kernel_model: KernelRateModel
) -> tuple[int, ...]:
    """Memoised priority order (critical-path orders cost an O(V+E) sweep)."""
    return priority_order(graph, policy, kernel_model)


@lru_cache(maxsize=8)
def _critical_path_for(graph: TaskGraph, kernel_model: KernelRateModel) -> CriticalPath:
    """Memoised critical-path bound of a cached graph."""
    return critical_path(graph, kernel_model)


# ---------------------------------------------------------------------------
# Initial tile values (real or virtual payloads)
# ---------------------------------------------------------------------------

def _initial_value(graph: TaskGraph, h: int, spec: _ExecSpec):
    """Initial payload of handle ``h``: a real matrix slice or a virtual tile."""
    shape = graph.handle_shapes[h]
    if spec.virtual:
        return VirtualMatrix(shape[0], shape[1])
    _, i, j = graph.handle_keys[h]
    r0, r1 = graph.grid.row_ranges[i]
    c0, c1 = graph.grid.col_ranges[j]
    return np.array(spec.matrix[r0:r1, c0:c1], dtype=np.float64, copy=True)


# ---------------------------------------------------------------------------
# The per-rank ready loop (the SPMD program)
# ---------------------------------------------------------------------------

def dag_program(
    ctx: RankContext,
    graph: TaskGraph,
    plan: _CommPlan,
    order: tuple[int, ...],
    spec: _ExecSpec,
    collect: list[list[tuple[int, int]]],
    _capture: dict | None = None,
):
    """Dataflow execution of ``graph`` on one simulated rank.

    A generator: blocking receives and the per-task ``yield_turn`` suspend
    via ``yield from``.  ``_capture``, when given, receives references to
    this rank's live ``store``/``done``/``schedule`` so the fault-tolerant
    wrapper can salvage partial state after a :class:`RankFailedError`;
    the no-failure execution path is unchanged.
    """
    comm = ctx.comm
    me = comm.rank
    H = plan.n_handles
    tasks = graph.tasks
    my_ids = plan.tasks_by_rank[me]
    store: dict[int, object] = {}

    # The arrival index: one min-heap per rank of ``(arrival, position in
    # the receiver's expected list, vkey)``, pushed by the sender with the
    # arrival time its send priced.  Entries whose message the blocking
    # fallback already received are skipped when they surface.
    arrivals: list[list[tuple[float, int, int]]] = ctx.state.shared(
        ("dag-arrivals", comm.core.comm_id), lambda: [[] for _ in range(comm.size)]
    )
    inbox = arrivals[me]
    missing_local = dict(plan.local_preds[me])
    missing_remote = dict(plan.remote_counts[me])
    expected: dict[int, int] = dict(plan.expected_by_rank[me])
    waiters = plan.waiters_by_rank[me]
    uses = dict(plan.use_counts_by_rank[me])
    keep = {vkey for _h, vkey in collect[me]}
    done: set[int] = set()
    schedule: list[ScheduleEntry] | None = [] if spec.record_schedule else None
    if _capture is not None:
        _capture["store"] = store
        _capture["done"] = done
        _capture["schedule"] = schedule

    def _consume(vkey: int) -> None:
        # One use of a stored version; the last use frees it (result tiles
        # excepted), keeping the store O(live tiles) rather than O(history).
        left = uses[vkey] - 1
        uses[vkey] = left
        if left == 0 and vkey not in keep:
            del store[vkey]

    def _send(vkey: int, dest: int, nbytes: int, position: int) -> None:
        arrival = comm.send(store[vkey], dest=dest, tag=vkey, nbytes=nbytes)
        heappush(arrivals[dest], (arrival, position, vkey))
        _consume(vkey)

    # Initial tiles this rank owns, then the startup sends of those needed
    # remotely (eager, like every other producer-side send).
    for h in plan.init_values_by_rank[me]:
        store[h] = _initial_value(graph, h, spec)
    for send in plan.init_sends_by_rank[me]:
        _send(*send)

    ready: list[tuple[int, int]] = []
    for tid in my_ids:
        if not missing_local.get(tid) and not missing_remote.get(tid):
            heappush(ready, (order[tid], tid))

    def _mark_arrival(vkey: int, value) -> None:
        store[vkey] = value
        for w in waiters.get(vkey, ()):
            left = missing_remote.get(w, 0) - 1
            missing_remote[w] = left
            if left == 0 and not missing_local.get(w) and w not in done:
                heappush(ready, (order[w], w))

    def _receive(vkey: int):
        src = expected.pop(vkey)
        _mark_arrival(vkey, (yield from comm.recv(source=src, tag=vkey)))

    n_done = 0
    n_mine = len(my_ids)
    fallback_pos = 0
    while n_done < n_mine:
        # Collect every expected message that has virtually arrived by now —
        # free receives, communication already hidden — in expected-list
        # order.  The per-task yields below keep the ranks interleaved in
        # virtual-time order, so "has it arrived?" is causally meaningful,
        # not a race against peers.  Each look at the arrival index stands
        # for polling every outstanding receive, and is charged as such.
        if expected:
            comm.checkpoint(len(expected))
            now = ctx.clock()
            arrived = []
            while inbox and inbox[0][0] <= now:
                _arrival, position, vkey = heappop(inbox)
                if vkey in expected:
                    arrived.append((position, vkey))
            for _position, vkey in sorted(arrived):
                yield from _receive(vkey)
        tid = -1
        while ready:
            _prio, cand = heappop(ready)
            if cand not in done:
                tid = cand
                break
        if tid < 0:
            if expected:
                # Nothing ready now: advance to the next event.  Take the
                # queued message with the earliest virtual arrival, ties
                # going to the earlier expected one (its waiters are the
                # soonest-possible work)...
                comm.checkpoint(len(expected))
                while inbox and inbox[0][2] not in expected:
                    heappop(inbox)
                if inbox:
                    yield from _receive(heappop(inbox)[2])
                    continue
            # ...or, with nothing queued at all, block on the earliest
            # unfinished task in graph order (its local preds are
            # necessarily done).  Deterministic and deadlock-free: around
            # any cycle of ranks blocked this way the earliest-unfinished
            # task ids would strictly decrease.
            while my_ids[fallback_pos] in done:
                fallback_pos += 1
            tid = my_ids[fallback_pos]
            for vkey, _src, _h in plan.remote_inputs.get(tid, ()):
                if vkey in expected:
                    yield from _receive(vkey)
        task = tasks[tid]
        inputs = [
            store[(prod + 1) * H + h]
            for h, prod in zip(task.reads, task.read_producers)
        ]
        start = ctx.clock()
        outputs = execute_kernel(task, inputs, spec)
        ctx.compute(task.flops, kernel=task.kernel_class, n=task.width)
        for h, prod in zip(task.reads, task.read_producers):
            _consume((prod + 1) * H + h)
        base = (tid + 1) * H
        for h, value in zip(task.writes, outputs):
            vkey = base + h
            if uses.get(vkey, 0) > 0 or vkey in keep:
                store[vkey] = value
        done.add(tid)
        n_done += 1
        if schedule is not None:
            schedule.append(
                ScheduleEntry(
                    task=tid, kernel=task.kernel, rank=me,
                    start_s=start, end_s=ctx.clock(),
                )
            )
        for succ in plan.local_succs.get(tid, ()):
            left = missing_local[succ] - 1
            missing_local[succ] = left
            if left == 0 and not missing_remote.get(succ) and succ not in done:
                heappush(ready, (order[succ], succ))
        for send in plan.sends_by_task.get(tid, ()):
            _send(*send)
        # Hand the CPU back so the globally earliest rank runs next: without
        # this, a compute-heavy rank would race arbitrarily far ahead in
        # virtual time and its arrival checks would miss messages that
        # causally had long arrived.
        yield from ctx.yield_turn()

    tiles = {h: store[vkey] for h, vkey in collect[me] if vkey in store}
    return tiles, schedule


# ---------------------------------------------------------------------------
# Fault-tolerant execution (the DAG recovery protocol)
# ---------------------------------------------------------------------------

def dag_program_ft(
    ctx: RankContext,
    graph: TaskGraph,
    plan: _CommPlan,
    order: tuple[int, ...],
    spec: _ExecSpec,
    collect: list[list[tuple[int, int]]],
    report: dict,
):
    """Fault-tolerant dataflow execution: ``dag_program`` plus recovery.

    Round zero is the ordinary ready loop; a rank that observes a death
    (its communicator raises :class:`RankFailedError`) keeps its partial
    state — completed tasks and the versions still in its store — and joins
    a recovery round with the other survivors.  The trailing completion
    barrier pins the exit protocol: no rank returns while a peer might
    still fail and need this rank's surviving versions (deadlines fire at
    operation entries only, so a completed world barrier means no further
    deaths are possible).

    Each recovery round re-executes the lost-version closure on a
    survivors-only communicator; further deaths revoke *that* communicator
    and simply start the next round with the smaller survivor set.
    ``report`` (one shared dict, harness-owned) accumulates the
    exactly-once accounting across rounds.
    """
    capture: dict = {}
    try:
        tiles, schedule = yield from dag_program(
            ctx, graph, plan, order, spec, collect, _capture=capture
        )
        yield from ctx.comm.barrier()
        return tiles, schedule
    except RankFailedError:
        pass
    while True:
        try:
            return (yield from _recovery_round(
                ctx, graph, plan, spec, collect, capture, report
            ))
        except RankFailedError:
            continue


def _recovery_round(
    ctx: RankContext,
    graph: TaskGraph,
    plan: _CommPlan,
    spec: _ExecSpec,
    collect: list[list[tuple[int, int]]],
    capture: dict,
    report: dict,
):
    """One recovery round over the current survivor set.

    The model is an idealised, instantaneous failure detector: the set of
    dead ranks is global knowledge (``state.dead_ranks``), so every
    survivor independently computes the same survivor list and the round's
    plan is built exactly once through the simulation-state memo — the
    global-knowledge coordinator a real ULFM recovery would elect.

    Execution is deliberately simple (recovery is the cold path): first the
    surviving versions the plan needs elsewhere are pre-seeded with eager
    sends, then the closure's tasks run in task-id — topological — order
    with blocking tag-matched receives, which is deadlock-free by the usual
    induction on that order.  Versions produced in recovery are never
    freed; the round ends with a completion barrier and re-routed result
    delivery.
    """
    state = ctx.state
    me = ctx.rank
    dead = tuple(sorted(state.dead_ranks))
    world_ranks = ctx.comm.core.world_ranks
    survivors = tuple(r for r in world_ranks if r not in state.dead_ranks)
    era = ("dag-recovery", dead)

    registry = state.shared((*era, "registry"), dict)
    registry[me] = capture
    core = state.shared(
        (*era, "comm"),
        lambda: CommCore(state, survivors, name=f"dag-recovery-{len(dead)}"),
    )
    comm = CommHandle(core, survivors.index(me))
    # Everyone has registered once this barrier completes; the plan below
    # therefore sees a consistent global snapshot.
    yield from comm.barrier()

    wanted = tuple((h, vkey) for per_rank in collect for (h, vkey) in per_rank)

    def _build_plan():
        rplan = build_recovery_plan(
            graph, survivors, registry, wanted, plan.placement.task_rank
        )
        report["dead_ranks"] = list(dead)
        report["death_times"] = [state.death_time[r] for r in dead]
        report["rounds"] = report.get("rounds", 0) + 1
        report["tasks_reexecuted"] = (
            report.get("tasks_reexecuted", 0) + rplan.tasks_reexecuted
        )
        report["tasks_executed"] = report.get("tasks_executed", 0) + len(rplan.tasks)
        return rplan

    rplan = state.shared((*era, "plan"), _build_plan)
    local = {wr: i for i, wr in enumerate(survivors)}
    store: dict[int, object] = capture["store"]
    done: set[int] = capture["done"]
    H = plan.n_handles

    # Pre-seed surviving versions (eager sends first — this phase cannot
    # block — then the matching receives).
    for vkey, src, dest in rplan.preseed:
        if src == me:
            comm.send(store[vkey], dest=local[dest], tag=vkey)
    for vkey, src, dest in rplan.preseed:
        if dest == me:
            store[vkey] = yield from comm.recv(source=local[src], tag=vkey)

    for tid in rplan.tasks:
        if rplan.assign[tid] != me:
            continue
        for vkey, src in rplan.recvs.get(tid, ()):
            store[vkey] = yield from comm.recv(source=local[src], tag=vkey)
        for vkey in rplan.materialize.get(tid, ()):
            store[vkey] = _initial_value(graph, vkey, spec)
        task = graph.tasks[tid]
        inputs = [
            store[(prod + 1) * H + h]
            for h, prod in zip(task.reads, task.read_producers)
        ]
        outputs = execute_kernel(task, inputs, spec)
        ctx.compute(task.flops, kernel=task.kernel_class, n=task.width)
        base = (tid + 1) * H
        for h, value in zip(task.writes, outputs):
            store[base + h] = value
        done.add(tid)
        for vkey, dest in rplan.sends.get(tid, ()):
            comm.send(store[vkey], dest=local[dest], tag=vkey)
        yield from ctx.yield_turn()

    # Completion barrier of the round: same exit-protocol argument as the
    # fault-free path's (no deaths are possible once it completes).
    yield from comm.barrier()
    tiles = {}
    for h, vkey in rplan.deliver.get(me, ()):
        if vkey not in store and vkey < H:
            store[vkey] = _initial_value(graph, vkey, spec)
        tiles[h] = store[vkey]
    return tiles, capture.get("schedule")


# ---------------------------------------------------------------------------
# Harnesses
# ---------------------------------------------------------------------------

@dataclass
class DAGRunResult:
    """Harness-level outcome of one DAG run.

    ``r`` is the assembled factor of a real-payload run (upper-triangular
    ``R`` for QR, lower-triangular ``L`` for Cholesky, the packed
    ``L\\U`` for LU; ``None`` in virtual mode).  ``recovery`` is the
    fault-tolerance accounting of a run with an injected failure schedule
    (``None`` on ordinary runs, and also when the schedule never fired).
    """

    r: np.ndarray | None
    makespan_s: float
    gflops: float
    trace: TraceSummary
    critical_path: CriticalPath
    graph: TaskGraph = field(repr=False)
    placement: TaskPlacement = field(repr=False)
    schedule: tuple[ScheduleEntry, ...] | None = field(default=None, repr=False)
    simulation: SimulationResult | None = field(default=None, repr=False)
    config: DAGFactorizationConfig | None = None
    recovery: RecoveryReport | None = None

    @property
    def time_s(self) -> float:
        """Simulated wall-clock time of the run."""
        return self.makespan_s

    @property
    def critical_path_s(self) -> float:
        """Exact dependence-chain lower bound on the makespan."""
        return self.critical_path.seconds


def _merge_schedules(results) -> tuple[ScheduleEntry, ...]:
    entries: list[ScheduleEntry] = []
    for res in results:
        if res is None:  # a rank that died mid-run returns nothing
            continue
        _tiles, sched = res
        if sched:
            entries.extend(sched)
    entries.sort(key=lambda e: (e.start_s, e.rank, e.task))
    return tuple(entries)


def run_dag_factorization(
    platform: Platform,
    config: DAGFactorizationConfig,
    *,
    record_messages: bool = False,
    record_schedule: bool = False,
    failures: FailureSchedule | None = None,
    baseline_makespan_s: float | None = None,
) -> DAGRunResult:
    """Run any registered DAG factorization on ``platform``.

    One harness for every algorithm in the registry: the graph comes from
    :func:`repro.dag.graph.cached_graph` keyed on the algorithm name, the
    result tiles and their assembly from the :class:`AlgorithmSpec` — the
    ready loop, placement, priority and communication layers in between are
    untouched by construction.  Real payloads return the assembled factor
    (``R``/``L``/``L\\U``); virtual payloads return ``r=None`` and the
    trace/critical-path summary only.

    ``failures`` switches the run to the fault-tolerant program: scheduled
    ranks die mid-run and the survivors re-execute the lost work, so real
    payloads still return the bit-identical factor.  The failure-free
    baseline needed for the overhead accounting is simulated internally
    unless ``baseline_makespan_s`` is supplied (sweeps pass the cached
    baseline to avoid re-simulating it per schedule).
    """
    alg: AlgorithmSpec = algorithm_spec(config.algorithm)
    p = platform.n_processes
    if failures is not None and set(failures.ranks) >= set(range(p)):
        raise ConfigurationError(
            "the failure schedule names every rank of the platform; "
            "at least one rank must survive to run the recovery"
        )
    if alg.uses_panel_tree:
        clusters = tuple(platform.placement.cluster_of(r) for r in range(p))
        graph = cached_graph(
            config.algorithm, config.m, config.n, config.tile_size,
            p, config.panel_tree, clusters,
        )
    else:
        graph = cached_graph(config.algorithm, config.m, config.n, config.tile_size)
    placement, plan = _plan_for(graph, config.placement, p)
    order = _order_for(graph, config.priority, platform.kernel_model)
    grid = graph.grid
    wanted = [graph.handle_id(key) for key in alg.result_keys(grid)]
    collect = plan.collect_by_rank(wanted if not config.virtual else [])
    spec = _ExecSpec(
        matrix=config.matrix,
        inner_b=min(config.nb, config.tile_size),
        record_schedule=record_schedule,
    )
    recovery = None
    if failures is None:
        run = run_program(
            platform,
            dag_program,
            graph,
            plan,
            order,
            spec,
            collect,
            flop_count=config.flop_count(),
            record_messages=record_messages,
        )
    else:
        if baseline_makespan_s is None:
            baseline_makespan_s = run_dag_factorization(platform, config).makespan_s
        report: dict = {}
        run = run_program(
            platform,
            dag_program_ft,
            graph,
            plan,
            order,
            spec,
            collect,
            report,
            flop_count=config.flop_count(),
            record_messages=record_messages,
            failures=failures,
        )
        if report:
            recovery = RecoveryReport(
                dead_ranks=tuple(report["dead_ranks"]),
                death_times=tuple(report["death_times"]),
                rounds=report["rounds"],
                tasks_reexecuted=report["tasks_reexecuted"],
                tasks_executed=report["tasks_executed"],
                makespan_s=run.makespan_s,
                baseline_makespan_s=baseline_makespan_s,
            )
    r = None
    if not config.virtual:
        tiles_by_key = {}
        for res in run.results:
            if res is None:  # a dead rank; its tiles were re-routed
                continue
            tiles, _sched = res
            for h, value in tiles.items():
                tiles_by_key[graph.handle_keys[h]] = value
        r = alg.assemble(grid, config.m, config.n, tiles_by_key)
    return DAGRunResult(
        r=r,
        makespan_s=run.makespan_s,
        gflops=run.gflops,
        trace=run.trace,
        critical_path=_critical_path_for(graph, platform.kernel_model),
        graph=graph,
        placement=placement,
        schedule=_merge_schedules(run.results) if record_schedule else None,
        simulation=run.simulation,
        config=config,
        recovery=recovery,
    )
