"""The graph layer of the task-DAG runtime: tasks, tiles and dependencies.

The paper's programs (QCG-TSQR, the ScaLAPACK baseline, distributed CAQR)
are *bulk-synchronous*: every rank follows one static SPMD script, panel
factorization and trailing-matrix updates never overlap, and wide-area
latency is paid on the critical path.  The tile-algorithm line of work the
paper sits in executes the very same kernels as a *dependency DAG* instead —
any task whose inputs are ready may run, so independent work hides latency.

This module is the graph half of that runtime:

* a :class:`Task` names one kernel invocation together with its analytic
  flop count (:mod:`repro.virtual.flops`) and the *handles* it reads and
  writes;
* a :class:`TaskGraph` derives dependency edges **automatically** from those
  read/write sets (read-after-write, write-after-read, write-after-write),
  so builders only state what each task touches, never who waits for whom;
* :func:`build_tiled_graph` emits the DAG of **any registered algorithm**
  (:mod:`repro.dag.kernels`) by walking its loop nest and resolving each
  task's read/write plan on the tile grid — tiled QR, tiled Cholesky and
  tiled LU are three instances of the same builder;
* :func:`tiled_qr_graph` is the QR instance — with an elimination structure
  *identical* to the one the SPMD CAQR program executes (per-group flat
  chains, then a configurable cross-group tree), so a real-payload DAG
  execution reproduces the SPMD R factor **bit for bit**.  With one tile
  row per group and a single panel column it *is* the TSQR reduction tree:
  one ``geqrt`` leaf per group, one ``tsqrt`` combine per tree edge;
* :func:`cached_graph` memoises the builder per algorithm and shape.

Handles are hashable keys: ``("A", i, j)`` is matrix tile ``(i, j)``,
``("F", k, i)`` the reflector block of ``geqrt`` on tile ``(i, k)`` and
``("S", k, i_top, i_bot)`` the reflector block of a ``tsqrt`` combine.
Every handle knows its shape and its *wire size* (triangular factors travel
as the paper's ``N^2/2``-style half triangles), so virtual and real
executions charge byte-identical communication.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Sequence

from repro.dag.kernels import KERNELS, GraphStructure, algorithm_spec
from repro.exceptions import ConfigurationError
from repro.util.partition import TileGrid
from repro.util.units import DOUBLE_BYTES

__all__ = [
    "Task",
    "TaskGraph",
    "build_tiled_graph",
    "tiled_qr_graph",
    "cached_graph",
]


class Task:
    """One kernel invocation of a task graph.

    ``reads``/``writes`` are handle ids; ``read_producers`` names, for each
    read, the task that produced the value (``-1`` for an initial input).
    ``kernel_class``/``width`` are what the kernel-rate model charges
    (``qr_leaf``/``qr_combine`` with the panel width, exactly like the SPMD
    programs), ``host_row`` the tile row hosting the compute under the
    row-based placement policies.
    """

    __slots__ = (
        "id", "kernel", "kernel_class", "k", "i", "i2", "j",
        "flops", "width", "host_row",
        "reads", "read_producers", "writes", "write_nbytes",
    )

    def __init__(
        self,
        id: int,
        kernel: str,
        *,
        kernel_class: str,
        flops: float,
        width: int,
        host_row: int,
        reads: tuple[int, ...],
        read_producers: tuple[int, ...],
        writes: tuple[int, ...],
        write_nbytes: tuple[int, ...],
        k: int = -1,
        i: int = -1,
        i2: int = -1,
        j: int = -1,
    ) -> None:
        self.id = id
        self.kernel = kernel
        self.kernel_class = kernel_class
        self.flops = flops
        self.width = width
        self.host_row = host_row
        self.reads = reads
        self.read_producers = read_producers
        self.writes = writes
        self.write_nbytes = write_nbytes
        self.k = k
        self.i = i
        self.i2 = i2
        self.j = j

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Task(#{self.id} {self.kernel} k={self.k} i={self.i} "
            f"i2={self.i2} j={self.j})"
        )


class TaskGraph:
    """A dataflow graph over tile handles with automatic dependency edges.

    Builders declare handles (:meth:`handle`) and append tasks
    (:meth:`add_task`) stating only their read and write sets; the graph
    derives the edges:

    * **RAW** — a task reading handle ``h`` depends on ``h``'s last writer;
    * **WAR** — a task writing ``h`` depends on every reader since the last
      write (it must not clobber a value still being consumed);
    * **WAW** — a task writing ``h`` depends on the previous writer.

    Because tasks are appended in program order, every edge points from a
    lower to a higher task id — task ids are a topological order, which the
    runtime's deadlock-freedom argument and the analysis layer's single
    reverse sweep both rely on.
    """

    def __init__(self, *, kind: str = "custom") -> None:
        self.kind = kind
        self.tasks: list[Task] = []
        self.preds: list[tuple[int, ...]] = []
        self.handle_keys: list[Hashable] = []
        self.handle_shapes: list[tuple[int, int]] = []
        self.handle_nbytes: list[int] = []
        self._handle_index: dict[Hashable, int] = {}
        self._last_writer: dict[int, int] = {}
        self._readers_since: dict[int, list[int]] = {}
        self._n_edges = 0
        #: Builder metadata consumed by placement and the runtime.
        self.grid: TileGrid | None = None
        self.n_groups: int = 1

    # -------------------------------------------------------------- handles
    def handle(self, key: Hashable, shape: tuple[int, int], nbytes: int | None = None) -> int:
        """Declare (or look up) the handle ``key`` and return its id.

        ``nbytes`` is the dense payload size; it is the wire size of the
        handle's *initial* value (task outputs carry their own wire sizes).
        """
        idx = self._handle_index.get(key)
        if idx is not None:
            return idx
        idx = len(self.handle_keys)
        self._handle_index[key] = idx
        self.handle_keys.append(key)
        self.handle_shapes.append(shape)
        self.handle_nbytes.append(
            shape[0] * shape[1] * DOUBLE_BYTES if nbytes is None else int(nbytes)
        )
        return idx

    def handle_id(self, key: Hashable) -> int:
        """Id of an existing handle (raises for unknown keys)."""
        return self._handle_index[key]

    def last_writer(self, handle: int) -> int:
        """Task id of the final writer of ``handle`` (-1 if never written)."""
        return self._last_writer.get(handle, -1)

    # ---------------------------------------------------------------- tasks
    def add_task(
        self,
        kernel: str,
        *,
        reads: Sequence[int],
        writes: Sequence[int],
        flops: float,
        width: int,
        kernel_class: str,
        host_row: int,
        write_nbytes: Sequence[int] | None = None,
        k: int = -1,
        i: int = -1,
        i2: int = -1,
        j: int = -1,
    ) -> int:
        """Append a task; dependency edges are derived from ``reads``/``writes``."""
        tid = len(self.tasks)
        producers = tuple(self._last_writer.get(h, -1) for h in reads)
        deps: set[int] = {p for p in producers if p >= 0}
        for h in writes:
            prev = self._last_writer.get(h)
            if prev is not None:
                deps.add(prev)  # WAW
            for reader in self._readers_since.get(h, ()):
                deps.add(reader)  # WAR
        deps.discard(tid)
        if write_nbytes is None:
            write_nbytes = tuple(self.handle_nbytes[h] for h in writes)
        task = Task(
            tid,
            kernel,
            kernel_class=kernel_class,
            flops=flops,
            width=width,
            host_row=host_row,
            reads=tuple(reads),
            read_producers=producers,
            writes=tuple(writes),
            write_nbytes=tuple(write_nbytes),
            k=k,
            i=i,
            i2=i2,
            j=j,
        )
        self.tasks.append(task)
        self.preds.append(tuple(sorted(deps)))
        self._n_edges += len(deps)
        for h in reads:
            self._readers_since.setdefault(h, []).append(tid)
        for h in writes:
            self._last_writer[h] = tid
            self._readers_since[h] = []
        return tid

    # -------------------------------------------------------------- queries
    @property
    def n_tasks(self) -> int:
        """Number of tasks in the graph."""
        return len(self.tasks)

    @property
    def n_handles(self) -> int:
        """Number of declared handles."""
        return len(self.handle_keys)

    @property
    def n_edges(self) -> int:
        """Number of dependency edges."""
        return self._n_edges

    def successors(self) -> list[list[int]]:
        """Adjacency list task -> dependent tasks (built on demand)."""
        succs: list[list[int]] = [[] for _ in self.tasks]
        for tid, deps in enumerate(self.preds):
            for p in deps:
                succs[p].append(tid)
        return succs

    def sinks(self) -> list[int]:
        """Tasks no other task depends on."""
        has_succ = [False] * len(self.tasks)
        for deps in self.preds:
            for p in deps:
                has_succ[p] = True
        return [tid for tid, flag in enumerate(has_succ) if not flag]

    def describe(self) -> str:
        """One-line summary used by reports and examples."""
        return (
            f"{self.kind} graph: {self.n_tasks} tasks, {self.n_edges} edges, "
            f"{self.n_handles} tile handles"
        )


# ---------------------------------------------------------------------------
# The generic tiled builder
# ---------------------------------------------------------------------------

def build_tiled_graph(
    algorithm: str,
    m: int,
    n: int,
    tile_size: int,
    *,
    structure: GraphStructure | None = None,
) -> TaskGraph:
    """Emit the task DAG of any registered tiled algorithm.

    The builder is a straight product of the registry
    (:mod:`repro.dag.kernels`): it declares every matrix tile up front, then
    walks the algorithm's loop nest in program order; for each yielded
    ``(kernel, k, i, i2, j)`` it resolves the kernel's read/write plan on
    the tile grid — declaring factor handles (``F``/``S``) at their first
    write, exactly where a hand-written builder would — and appends the
    task.  Dependency edges, task ids and wire sizes all fall out of the
    declarations, so a new algorithm needs only kernels and a loop nest.
    """
    spec = algorithm_spec(algorithm)
    if m <= 0 or n <= 0:
        raise ConfigurationError(f"matrix dimensions must be positive, got {m} x {n}")
    if spec.square_only and m != n:
        raise ConfigurationError(
            f"tiled {algorithm} needs a square matrix, got {m} x {n}"
        )
    if structure is None:
        structure = GraphStructure()
    grid = TileGrid(m, n, tile_size)
    graph = TaskGraph(kind=spec.kind)
    graph.grid = grid
    graph.n_groups = structure.n_groups

    # Declare every matrix tile up front (initial values are dense).
    for i in range(grid.mt):
        for j in range(grid.nt):
            graph.handle(("A", i, j), grid.tile_shape(i, j))

    for kname, k, i, i2, j in spec.loop_nest(grid, structure):
        kspec = KERNELS[kname]
        plan = kspec.plan(grid, k, i, i2, j)
        write_ids: list[int] = []
        wire_nbytes: list[int] = []
        for w in plan.writes:
            hid = graph.handle(w.key, w.shape, nbytes=w.handle_nbytes)
            write_ids.append(hid)
            wire_nbytes.append(
                w.wire_nbytes if w.wire_nbytes is not None else graph.handle_nbytes[hid]
            )
        graph.add_task(
            kname,
            reads=tuple(graph.handle_id(key) for key in plan.reads),
            writes=tuple(write_ids),
            write_nbytes=tuple(wire_nbytes),
            flops=plan.flops,
            width=grid.col_width(k),
            kernel_class=kspec.kernel_class,
            host_row=i,
            k=k,
            i=i,
            i2=i2,
            j=j,
        )
    return graph


# ---------------------------------------------------------------------------
# The QR instance
# ---------------------------------------------------------------------------

def tiled_qr_graph(
    m: int,
    n: int,
    tile_size: int,
    *,
    n_groups: int = 1,
    panel_tree: str = "binary",
    group_clusters: Sequence[str] | None = None,
) -> TaskGraph:
    """The tiled-QR DAG of an ``M x N`` matrix (geqrt/unmqr/tsqrt/tsmqr).

    The elimination structure mirrors the SPMD CAQR program of
    :mod:`repro.programs.caqr` exactly: tile rows are split into
    ``n_groups`` contiguous groups (one per simulated rank there), each
    panel is eliminated by a flat ``tsqrt`` chain *inside* every group and a
    ``panel_tree``-shaped reduction *across* group triangles, children
    combined in tree order.  Since floating-point results depend only on the
    per-tile operation sequence — which the dependency edges pin — any
    topological execution of this graph reproduces the SPMD R factor bit
    for bit.

    ``group_clusters`` names the cluster hosting each group, used by the
    ``grid-hierarchical`` panel tree exactly like the SPMD program.
    """
    if m <= 0 or n <= 0:
        raise ConfigurationError(f"matrix dimensions must be positive, got {m} x {n}")
    if n_groups <= 0:
        raise ConfigurationError(f"group count must be positive, got {n_groups}")
    return build_tiled_graph(
        "qr",
        m,
        n,
        tile_size,
        structure=GraphStructure(
            n_groups=n_groups,
            panel_tree=panel_tree,
            group_clusters=tuple(group_clusters) if group_clusters is not None else None,
        ),
    )


# ---------------------------------------------------------------------------
# The graph cache
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def cached_graph(
    algorithm: str,
    m: int,
    n: int,
    tile_size: int,
    n_groups: int = 1,
    panel_tree: str = "binary",
    group_clusters: tuple[str, ...] | None = None,
) -> TaskGraph:
    """Memoised :func:`build_tiled_graph` (paper-scale graphs take seconds).

    The cache key is the algorithm name plus **every** shape parameter, so
    two algorithms (or two elimination structures) can never collide on a
    cache entry.  The returned graph is shared: callers must treat it as
    immutable — the runtime's placement/priority memos key on the graph
    object's identity, which is exactly what the sharing preserves.  Like
    any ``lru_cache``, it keys positional and keyword arguments apart, so
    callers that must share one graph (the runtime and the cost model) pass
    every argument positionally.

    The capacity is 32: a best-config sweep touches one graph per
    (algorithm, shape, tile) candidate, and 8 thrashed as soon as a sweep
    crossed two tile sizes x a few M values.  Eviction is safe: a rebuilt
    graph is structurally identical to the evicted one, merely a new object
    (the runtime's identity-keyed memos then miss once and recompute).
    """
    if algorithm == "qr":
        # Through the QR wrapper so its n_groups validation applies.
        return tiled_qr_graph(
            m,
            n,
            tile_size,
            n_groups=n_groups,
            panel_tree=panel_tree,
            group_clusters=group_clusters,
        )
    return build_tiled_graph(
        algorithm,
        m,
        n,
        tile_size,
        structure=GraphStructure(
            n_groups=n_groups,
            panel_tree=panel_tree,
            group_clusters=group_clusters,
        ),
    )
