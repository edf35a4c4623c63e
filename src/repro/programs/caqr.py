"""Distributed CAQR: general-matrix QR on the simulated grid (paper §VI).

The paper closes by presenting its grid TSQR as "a first step towards the
factorization of general matrices on the grid".  This module takes that
step: CAQR as an SPMD program on the :mod:`repro.gridsim` platform, built on
the shared program layer of :mod:`repro.programs.spmd`.

Algorithm (the tiled CAQR of §II-C/§II-E, distributed):

1. the ``M x N`` matrix is tiled into ``mt x nt`` blocks of ``tile_size``;
   *tile rows* are distributed over the ranks in contiguous blocks, so every
   rank owns a block-row of the matrix (all ``nt`` tiles of its tile rows);
2. panel ``k`` is factored by a TSQR reduction over the tile rows
   ``k .. mt-1``: each participating rank factors its local tiles
   (``geqrt``), updates its own trailing tiles (``unmqr``), flat-reduces its
   local triangles (``tsqrt``/``tsmqr``, no messages), and the per-rank
   triangles are then reduced along a configurable tree — ``flat``,
   ``binary`` or the paper's ``grid-hierarchical`` (binary inside every
   cluster, binary across clusters, one inter-cluster message per tree edge);
3. a cross-rank combine couples the *trailing rows* of the two ranks: the
   child sends its panel triangle plus its trailing tile row up the tree,
   the parent runs ``tsqrt``/``tsmqr`` and returns the child's updated
   trailing row down the same edge.  Messages therefore come in up/down
   pairs per tree edge per panel, the up payload charged the paper's
   triangular ``N^2/2``-style volume plus the trailing row, the down payload
   the trailing row alone.

Real payloads give exact numerics — R matches ``numpy.linalg.qr`` at machine
precision for every panel tree; virtual payloads run the *identical*
schedule (same messages, same byte counts, same flop charges, asserted by
the trace-equivalence tests), which is how the general-matrix sweeps execute
at paper scale.  The structured flop counts charged per kernel live in
:mod:`repro.virtual.flops` and are shared with the analytic cost model
(:func:`repro.model.costs.caqr_costs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError, TreeError
from repro.gridsim.executor import RankContext, SimulationResult
from repro.gridsim.failures import FailureSchedule
from repro.gridsim.platform import Platform
from repro.gridsim.trace import TraceSummary
from repro.kernels.tiled import geqrt, tsmqr, tsqrt, unmqr
from repro.programs.spmd import assemble_row_blocks, run_program
from repro.tsqr.trees import ReductionTree, tree_for
from repro.util.partition import TileGrid, block_ranges, tile_ranges
from repro.util.units import DOUBLE_BYTES
from repro.virtual.flops import (
    caqr_combine_flops,
    caqr_down_message_doubles,
    caqr_panel_leaf_flops,
    caqr_up_message_doubles,
    qr_flops,
)
from repro.virtual.matrix import MatrixLike, VirtualMatrix, is_virtual, shape_of

__all__ = [
    "CAQRConfig",
    "CAQRRankResult",
    "CAQRRunResult",
    "caqr_program",
    "run_parallel_caqr",
    "tile_ranges",
    "PANEL_TREE_KINDS",
]

#: Message tags of the panel reduction (up) and trailing write-back (down).
_TAG_UP = "caqr-reduce"
_TAG_DOWN = "caqr-update"

#: Panel reduction trees the distributed CAQR accepts.
PANEL_TREE_KINDS = ("flat", "binary", "grid-hierarchical")


@dataclass(frozen=True)
class CAQRConfig:
    """Configuration of one distributed CAQR run.

    Unlike :class:`~repro.tsqr.parallel.TSQRConfig` the matrix may be any
    shape — tall, square or fat — and ``tile_size`` bounds both tile
    dimensions (row and column boundaries coincide so diagonal tiles sit on
    the global diagonal, as in every tiled QR formulation).
    """

    m: int
    n: int
    tile_size: int = 64
    panel_tree: str = "binary"
    nb: int = 32
    matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m <= 0 or self.n <= 0:
            raise ConfigurationError(
                f"matrix dimensions must be positive, got {self.m} x {self.n}"
            )
        if self.tile_size <= 0:
            raise ConfigurationError(f"tile size must be positive, got {self.tile_size}")
        if self.panel_tree not in PANEL_TREE_KINDS:
            raise ConfigurationError(
                f"unknown panel tree {self.panel_tree!r}; choose from {PANEL_TREE_KINDS}"
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
        return qr_flops(self.m, self.n)


@dataclass
class CAQRRankResult:
    """Per-rank return value of the CAQR SPMD program."""

    rank: int
    row_start: int
    row_stop: int
    n_tile_rows: int
    a_local: np.ndarray | None

    @property
    def local_rows(self) -> int:
        """Number of matrix rows owned by this rank."""
        return self.row_stop - self.row_start


def _padded_triangle(tile: MatrixLike, r: MatrixLike) -> MatrixLike:
    """Store the triangle ``r`` into a full-size tile (zero-padded below)."""
    if is_virtual(tile):
        return VirtualMatrix(tile.m, tile.n, structure="upper")
    out = np.zeros_like(np.asarray(tile))
    kk = min(shape_of(r)[0], out.shape[0])
    out[:kk, :] = np.asarray(r)[:kk, :]
    return out


def _zero_tile(tile: MatrixLike) -> MatrixLike:
    """Replace an eliminated panel tile with explicit zeros (same shape)."""
    if is_virtual(tile):
        return VirtualMatrix(tile.m, tile.n)
    return np.zeros_like(np.asarray(tile))


def caqr_program(ctx: RankContext, config: CAQRConfig):
    """The distributed CAQR SPMD program (one call per simulated MPI process).

    A generator: the executor drives it, and its cross-rank reduction
    receives suspend via ``yield from``.
    """
    comm = ctx.comm
    p = comm.size
    m, n = config.m, config.n
    # Tilings and the tile-row distribution are identical on every rank:
    # built once per run, shared through the simulation-state memo.  All tile
    # index arithmetic goes through the shared TileGrid helper.
    grid: TileGrid = ctx.shared(
        ("tile-grid", m, n, config.tile_size),
        lambda: TileGrid(m, n, config.tile_size),
    )
    row_ranges = grid.row_ranges
    col_ranges = grid.col_ranges
    mt, nt = grid.mt, grid.nt

    # Contiguous block distribution of tile rows over ranks (a rank owns all
    # nt tiles of its tile rows); ranks beyond mt tile rows own nothing.
    owners = ctx.shared(("block-ranges", mt, p), lambda: block_ranges(mt, p))
    t0, t1 = owners[comm.rank]
    row0 = row_ranges[t0][0] if t1 > t0 else 0
    row1 = row_ranges[t1 - 1][1] if t1 > t0 else 0

    tile_height = grid.row_height

    # Local tile storage: real slices of the input, or shape-only stand-ins.
    tiles: dict[tuple[int, int], MatrixLike] = {}
    for i in range(t0, t1):
        r0, r1 = row_ranges[i]
        for j in range(nt):
            c0, c1 = col_ranges[j]
            if config.virtual:
                tiles[i, j] = VirtualMatrix(r1 - r0, c1 - c0)
            else:
                tiles[i, j] = np.array(
                    config.matrix[r0:r1, c0:c1], dtype=np.float64, copy=True
                )

    # Cluster of every rank, identical on all ranks, for the panel trees.
    placement = ctx.platform.placement
    rank_clusters = ctx.shared(
        ("rank-clusters", comm.core.comm_id),
        lambda: tuple(
            placement.cluster_of(comm.core.world_rank(r)) for r in range(p)
        ),
    )
    inner_b = min(config.nb, config.tile_size)

    for k in range(min(mt, nt)):
        if t1 <= k or t1 == t0:
            # All of this rank's tile rows sit above the current panel (or it
            # owns none): it is done with every remaining panel too.
            break
        c0k, c1k = col_ranges[k]
        wk = c1k - c0k
        trailing = list(range(k + 1, nt))
        trail_cols = n - c1k

        participants = [
            r for r in range(p) if owners[r][1] > k and owners[r][1] > owners[r][0]
        ]
        pos = participants.index(comm.rank)
        i_top = max(t0, k)
        h_top = tile_height(i_top)

        # ------------------------------------------------- local leaf stage
        # geqrt every local tile row of the panel and update its own trailing
        # tiles; flops are summed and charged in one batch (same totals on the
        # real and the virtual path — the trace-equivalence contract), from
        # the same helper the cost model sums.
        leaf_flops = caqr_panel_leaf_flops(
            [tile_height(i) for i in range(i_top, t1)], wk, trail_cols
        )
        for i in range(i_top, t1):
            fact = geqrt(tiles[i, k], block_size=inner_b)
            tiles[i, k] = _padded_triangle(tiles[i, k], fact.r)
            for j in trailing:
                tiles[i, j] = unmqr(fact, tiles[i, j], transpose=True)
        ctx.compute(leaf_flops, kernel="qr_leaf", n=wk)

        # ------------------------------------- local flat reduction (no msgs)
        combine_flops = 0.0
        for i in range(i_top + 1, t1):
            combine_flops += caqr_combine_flops(tile_height(i), wk, trail_cols)
            ts = tsqrt(tiles[i_top, k], tiles[i, k], block_size=inner_b)
            tiles[i_top, k] = _padded_triangle(tiles[i_top, k], ts.r)
            tiles[i, k] = _zero_tile(tiles[i, k])
            for j in trailing:
                top, bottom = tsmqr(ts, tiles[i_top, j], tiles[i, j], transpose=True)
                tiles[i_top, j] = top
                tiles[i, j] = bottom
        if combine_flops:
            ctx.compute(combine_flops, kernel="qr_combine", n=wk)

        # --------------------------------- cross-rank reduction along the tree
        # Position 0 is the rank owning diagonal tile row k; it must be the
        # reduction root so the panel's R lands on the global diagonal.
        # Panels sharing a participant set share one tree (built by the first
        # participating rank to reach this panel).
        tree: ReductionTree = ctx.shared(
            ("caqr-panel-tree", comm.core.comm_id, config.panel_tree, tuple(participants)),
            lambda: tree_for(
                config.panel_tree,
                len(participants),
                [rank_clusters[r] for r in participants],
            ),
        )
        if tree.root != 0:
            raise TreeError("panel reduction tree must be rooted at the diagonal tile")

        for child_pos in tree.children(pos):
            child = participants[child_pos]
            h_child = tile_height(max(owners[child][0], k))
            panel_tile, trail_tiles = yield from comm.recv(source=child, tag=_TAG_UP)
            ctx.compute(
                caqr_combine_flops(h_child, wk, trail_cols), kernel="qr_combine", n=wk
            )
            ts = tsqrt(tiles[i_top, k], panel_tile, block_size=inner_b)
            tiles[i_top, k] = _padded_triangle(tiles[i_top, k], ts.r)
            if trailing:
                down = []
                for idx, j in enumerate(trailing):
                    top, bottom = tsmqr(
                        ts, tiles[i_top, j], trail_tiles[idx], transpose=True
                    )
                    tiles[i_top, j] = top
                    down.append(bottom)
                comm.send(
                    down,
                    dest=child,
                    tag=_TAG_DOWN,
                    nbytes=caqr_down_message_doubles(h_child, trail_cols) * DOUBLE_BYTES,
                )

        if pos != tree.root:
            parent = participants[tree.parent(pos)]
            payload = (tiles[i_top, k], [tiles[i_top, j] for j in trailing])
            comm.send(
                payload,
                dest=parent,
                tag=_TAG_UP,
                nbytes=caqr_up_message_doubles(wk, h_top, trail_cols) * DOUBLE_BYTES,
            )
            tiles[i_top, k] = _zero_tile(tiles[i_top, k])
            if trailing:
                down = yield from comm.recv(source=parent, tag=_TAG_DOWN)
                for idx, j in enumerate(trailing):
                    tiles[i_top, j] = down[idx]

    # --------------------------------------------------------- local assembly
    a_local: np.ndarray | None = None
    if not config.virtual:
        a_local = np.zeros((row1 - row0, n))
        for i in range(t0, t1):
            r0, r1 = row_ranges[i]
            for j in range(nt):
                c0, c1 = col_ranges[j]
                a_local[r0 - row0 : r1 - row0, c0:c1] = np.asarray(tiles[i, j])

    return CAQRRankResult(
        rank=comm.rank,
        row_start=row0,
        row_stop=row1,
        n_tile_rows=t1 - t0,
        a_local=a_local,
    )


@dataclass
class CAQRRunResult:
    """Harness-level outcome of one distributed CAQR run."""

    config: CAQRConfig
    r: np.ndarray | None
    makespan_s: float
    gflops: float
    trace: TraceSummary
    tree: ReductionTree | None
    simulation: SimulationResult = field(repr=False)

    @property
    def time_s(self) -> float:
        """Simulated wall-clock time of the factorization."""
        return self.makespan_s


def run_parallel_caqr(
    platform: Platform,
    config: CAQRConfig,
    *,
    collective_tree: str = "binary",
    record_messages: bool = False,
    failures: "FailureSchedule | None" = None,
) -> CAQRRunResult:
    """Run distributed CAQR on ``platform`` and summarise its performance.

    With a real payload the global R factor (``min(M, N) x N``, validated
    against LAPACK by the tests) is assembled from the per-rank block-rows;
    virtual runs return ``r=None`` and the cost/trace summary only.

    ``failures`` injects a deterministic rank-death schedule.  SPMD CAQR
    has no recovery path — by design: its communication structure is baked
    into the program text, so a death surfaces as an uncaught
    :class:`~repro.exceptions.RankFailedError`.  The DAG runtime's
    graph-driven recovery (``run_dag_factorization(..., failures=...)``)
    is the capability this gap demonstrates.
    """
    run = run_program(
        platform,
        caqr_program,
        config,
        flop_count=config.flop_count(),
        collective_tree=collective_tree,
        record_messages=record_messages,
        failures=failures,
    )
    results: list[CAQRRankResult] = list(run.results)
    r = None
    if not config.virtual:
        blocks = {
            res.rank: res.a_local for res in results if res.row_stop > res.row_start
        }
        factored = assemble_row_blocks(blocks, what="R")
        kmin = min(config.m, config.n)
        r = np.triu(factored[:kmin, :])
    # The panel-0 reduction tree (over every rank owning tile rows) is the
    # widest of the run and the one reported for locality analysis.
    mt = TileGrid(config.m, config.n, config.tile_size).mt
    owners = block_ranges(mt, platform.n_processes)
    owning = [rk for rk, (a, b) in enumerate(owners) if b > a]
    tree = tree_for(
        config.panel_tree,
        len(owning),
        [platform.placement.cluster_of(rk) for rk in owning],
    )
    return CAQRRunResult(
        config=config,
        r=r,
        makespan_s=run.makespan_s,
        gflops=run.gflops,
        trace=run.trace,
        tree=tree,
        simulation=run.simulation,
    )
