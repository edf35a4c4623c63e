"""The algorithm registry of the task-DAG runtime: kernels and loop nests.

The graph builder (:mod:`repro.dag.graph`), the executor
(:mod:`repro.dag.runtime`) and the policies (:mod:`repro.dag.placement`)
are algorithm-agnostic; everything they need to know about a factorization
lives here, in two declarative tables:

* :data:`KERNELS` — one :class:`KernelSpec` per tile kernel, declaring the
  handles it reads and writes (with shapes and triangular wire sizes), its
  analytic flop count (:mod:`repro.virtual.flops`), the rate-model class it
  is charged as, whether it is a *panel* kernel (for the panel priority
  policy), and the real/virtual implementation;
* :data:`ALGORITHMS` — one :class:`AlgorithmSpec` per factorization,
  declaring its loop nest (a generator yielding ``(kernel, k, i, i2, j)``
  tuples in program order), its total useful flops and how to assemble the
  factor from the final tiles.

Three algorithms ship: tiled QR (``geqrt``/``unmqr``/``tsqrt``/``tsmqr``
with the SPMD CAQR elimination structure), tiled Cholesky
(``potrf``/``trsm``/``syrk``/``gemm``) and tiled right-looking LU without
pivoting (``getrf``/``trsm_row``/``trsm_col``/``gemm_nn``).  The paper's
TSQR needs no kernels of its own: a tiled QR with a single panel column and
one tile row per group is its reduction tree.  Every kernel has a plan, so
the tiled builder emits them all.  Adding a fourth algorithm is a matter of
registering its kernels and loop nest — see ``docs/architecture.md`` ("The
algorithm registry").

Dependency edges are *not* declared here: the graph layer derives
RAW/WAR/WAW edges from the read/write sets.  One invariant every kernel in
this table obeys (and any new one must): **a task reads every handle it
overwrites**, so all true dependencies carry data and the runtime never
needs cross-rank anti-dependency messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, TreeError
from repro.kernels import tiled_cholesky as chol
from repro.kernels import tiled_lu as lu
from repro.kernels.tiled import geqrt, tsmqr, tsqrt, unmqr
from repro.programs.caqr import _padded_triangle
from repro.tsqr.trees import tree_for
from repro.util.partition import TileGrid, block_ranges
from repro.util.shapes import trapezoid_doubles, triangle_doubles
from repro.util.units import DOUBLE_BYTES
from repro.virtual.flops import (
    cholesky_flops,
    gemm_flops,
    geqrt_flops,
    getrf_flops,
    lu_flops,
    potrf_flops,
    qr_flops,
    syrk_flops,
    trsm_flops,
    tsmqr_flops,
    tsqrt_flops,
    unmqr_flops,
)

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "GraphStructure",
    "KERNELS",
    "KernelSpec",
    "TaskPlan",
    "WriteSpec",
    "algorithm_spec",
    "execute_kernel",
    "panel_kernel_names",
]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WriteSpec:
    """One handle written by a task.

    ``handle_nbytes`` overrides the dense payload size of the handle's
    declaration (``None`` = dense); ``wire_nbytes`` is the wire size of
    *this* write (``None`` = the handle's declared size) — triangular
    factors travel as the paper's ``N^2/2``-style half triangles.
    """

    key: Hashable
    shape: tuple[int, int]
    handle_nbytes: int | None = None
    wire_nbytes: int | None = None


@dataclass(frozen=True)
class TaskPlan:
    """Reads, writes and flops of one task instance, resolved on a grid."""

    reads: tuple[Hashable, ...]
    writes: tuple[WriteSpec, ...]
    flops: float


@dataclass(frozen=True)
class KernelSpec:
    """Everything the generic layers need to know about one tile kernel.

    ``plan`` maps ``(grid, k, i, i2, j)`` to the task's :class:`TaskPlan`;
    ``execute`` runs the kernel on its input values (in
    ``plan.reads`` order) and returns the written values (in ``plan.writes``
    order), real or virtual.  ``panel`` marks panel-factorization kernels
    for the panel priority policy.
    """

    name: str
    kernel_class: str
    panel: bool
    plan: Callable[[TileGrid, int, int, int, int], TaskPlan]
    execute: Callable[[object, list, object], list]


@dataclass(frozen=True)
class GraphStructure:
    """Elimination-structure knobs of a tiled graph (QR uses all of them;
    Cholesky and LU, whose panels are single tiles, need none)."""

    n_groups: int = 1
    panel_tree: str = "binary"
    group_clusters: tuple[str, ...] | None = None


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered factorization: loop nest, kernels, result assembly.

    ``loop_nest`` yields ``(kernel, k, i, i2, j)`` in program order (task
    ids follow it, so it must be a valid topological emission);
    ``result_keys`` names the handles that form the factor and ``assemble``
    stitches their final values into the dense result; ``total_flops`` is
    the useful-flop Gflop/s denominator.
    """

    name: str
    kind: str
    display: str
    kernels: tuple[str, ...]
    square_only: bool
    uses_panel_tree: bool
    loop_nest: Callable[[TileGrid, GraphStructure], Iterator[tuple]]
    total_flops: Callable[[int, int], float]
    result_keys: Callable[[TileGrid], list]
    assemble: Callable[[TileGrid, int, int, dict], np.ndarray]


# ---------------------------------------------------------------------------
# Tiled QR (the CAQR elimination structure)
# ---------------------------------------------------------------------------

def _plan_geqrt(grid: TileGrid, k: int, i: int, i2: int, j: int) -> TaskPlan:
    h = grid.row_height(i)
    wk = grid.col_width(k)
    kk = min(h, wk)
    return TaskPlan(
        reads=(("A", i, k),),
        writes=(
            WriteSpec(
                ("A", i, k),
                grid.tile_shape(i, k),
                wire_nbytes=trapezoid_doubles(h, wk) * DOUBLE_BYTES,
            ),
            WriteSpec(
                ("F", k, i),
                (h, kk),
                handle_nbytes=(h * kk + kk * kk) * DOUBLE_BYTES,
            ),
        ),
        flops=geqrt_flops(h, wk),
    )


def _plan_unmqr(grid: TileGrid, k: int, i: int, i2: int, j: int) -> TaskPlan:
    h = grid.row_height(i)
    kk = min(h, grid.col_width(k))
    return TaskPlan(
        reads=(("F", k, i), ("A", i, j)),
        writes=(WriteSpec(("A", i, j), grid.tile_shape(i, j)),),
        flops=unmqr_flops(h, grid.col_width(j), kk),
    )


def _plan_tsqrt(grid: TileGrid, k: int, i: int, i2: int, j: int) -> TaskPlan:
    wk = grid.col_width(k)
    h_top = grid.row_height(i)
    h_bot = grid.row_height(i2)
    kk = min(h_top + h_bot, wk)
    return TaskPlan(
        reads=(("A", i, k), ("A", i2, k)),
        writes=(
            WriteSpec(
                ("A", i, k),
                grid.tile_shape(i, k),
                wire_nbytes=trapezoid_doubles(h_top, wk) * DOUBLE_BYTES,
            ),
            WriteSpec(
                ("S", k, i, i2),
                (h_top + h_bot, kk),
                handle_nbytes=((h_top + h_bot) * kk + kk * kk) * DOUBLE_BYTES,
            ),
        ),
        flops=tsqrt_flops(h_bot, wk),
    )


def _plan_tsmqr(grid: TileGrid, k: int, i: int, i2: int, j: int) -> TaskPlan:
    return TaskPlan(
        reads=(("S", k, i, i2), ("A", i, j), ("A", i2, j)),
        writes=(
            WriteSpec(("A", i, j), grid.tile_shape(i, j)),
            WriteSpec(("A", i2, j), grid.tile_shape(i2, j)),
        ),
        flops=tsmqr_flops(grid.row_height(i2), grid.col_width(j), grid.col_width(k)),
    )


def _exec_geqrt(task, inputs: list, spec) -> list:
    (a,) = inputs
    fact = geqrt(a, block_size=spec.inner_b)
    return [_padded_triangle(a, fact.r), fact]


def _exec_unmqr(task, inputs: list, spec) -> list:
    fact, c = inputs
    return [unmqr(fact, c, transpose=True)]


def _exec_tsqrt(task, inputs: list, spec) -> list:
    top, bottom = inputs
    ts = tsqrt(top, bottom, block_size=spec.inner_b)
    return [_padded_triangle(top, ts.r), ts]


def _exec_tsmqr(task, inputs: list, spec) -> list:
    ts, c_top, c_bottom = inputs
    new_top, new_bottom = tsmqr(ts, c_top, c_bottom, transpose=True)
    return [new_top, new_bottom]


def _qr_combine_tasks(k: int, i_top: int, i_bot: int, trailing) -> Iterator[tuple]:
    yield ("tsqrt", k, i_top, i_bot, -1)
    for j in trailing:
        yield ("tsmqr", k, i_top, i_bot, j)


def _qr_loop_nest(grid: TileGrid, structure: GraphStructure) -> Iterator[tuple]:
    """The CAQR elimination order of :mod:`repro.programs.caqr`, per panel:
    leaf ``geqrt``+``unmqr`` per group row, intra-group flat ``tsqrt``
    chains, then the cross-group ``panel_tree`` reduction in tree order."""
    n_groups = structure.n_groups
    owners = block_ranges(grid.mt, n_groups)
    clusters = (
        list(structure.group_clusters)
        if structure.group_clusters is not None
        else ["local"] * n_groups
    )
    if len(clusters) != n_groups:
        raise ConfigurationError(
            f"{len(clusters)} cluster names for {n_groups} groups"
        )
    for k in range(grid.n_panels):
        trailing = range(k + 1, grid.nt)
        participants = [
            g for g in range(n_groups) if owners[g][1] > k and owners[g][1] > owners[g][0]
        ]
        tops = {g: max(owners[g][0], k) for g in participants}

        # Leaf stage: geqrt + same-row trailing updates.
        for g in participants:
            _t0, t1 = owners[g]
            for i in range(tops[g], t1):
                yield ("geqrt", k, i, -1, -1)
                for j in trailing:
                    yield ("unmqr", k, i, -1, j)

        # Intra-group flat elimination chains.
        for g in participants:
            _t0, t1 = owners[g]
            i_top = tops[g]
            for i in range(i_top + 1, t1):
                yield from _qr_combine_tasks(k, i_top, i, trailing)

        # Cross-group reduction along the panel tree.
        tree = tree_for(
            structure.panel_tree, len(participants), [clusters[g] for g in participants]
        )
        if tree.root != 0:
            raise TreeError("panel reduction tree must be rooted at the diagonal tile")

        def _emit_tree(pos: int) -> Iterator[tuple]:
            for child_pos in tree.children(pos):
                yield from _emit_tree(child_pos)
                yield from _qr_combine_tasks(
                    k, tops[participants[pos]], tops[participants[child_pos]], trailing
                )

        yield from _emit_tree(tree.root)


def _qr_result_keys(grid: TileGrid) -> list:
    return [
        ("A", i, j) for i in range(grid.n_panels) for j in range(i, grid.nt)
    ]


def _qr_assemble(grid: TileGrid, m: int, n: int, tiles: dict) -> np.ndarray:
    cover = grid.row_ranges[grid.n_panels - 1][1]
    assembled = np.zeros((cover, n))
    for key, value in tiles.items():
        _, i, j = key
        grid.set_tile(assembled, i, j, np.asarray(value))
    return np.triu(assembled[: min(m, n), :])


# ---------------------------------------------------------------------------
# Tiled Cholesky (lower, A = L L^T)
# ---------------------------------------------------------------------------

def _plan_potrf(grid: TileGrid, k: int, i: int, i2: int, j: int) -> TaskPlan:
    w = grid.col_width(k)
    return TaskPlan(
        reads=(("A", k, k),),
        writes=(
            WriteSpec(
                ("A", k, k),
                grid.tile_shape(k, k),
                wire_nbytes=triangle_doubles(w) * DOUBLE_BYTES,
            ),
        ),
        flops=potrf_flops(w),
    )


def _plan_chol_trsm(grid: TileGrid, k: int, i: int, i2: int, j: int) -> TaskPlan:
    return TaskPlan(
        reads=(("A", k, k), ("A", i, k)),
        writes=(WriteSpec(("A", i, k), grid.tile_shape(i, k)),),
        flops=trsm_flops(grid.col_width(k), grid.row_height(i)),
    )


def _plan_syrk(grid: TileGrid, k: int, i: int, i2: int, j: int) -> TaskPlan:
    return TaskPlan(
        reads=(("A", i, k), ("A", i, i)),
        writes=(WriteSpec(("A", i, i), grid.tile_shape(i, i)),),
        flops=syrk_flops(grid.col_width(i), grid.col_width(k)),
    )


def _plan_chol_gemm(grid: TileGrid, k: int, i: int, i2: int, j: int) -> TaskPlan:
    return TaskPlan(
        reads=(("A", i, k), ("A", j, k), ("A", i, j)),
        writes=(WriteSpec(("A", i, j), grid.tile_shape(i, j)),),
        flops=gemm_flops(grid.row_height(i), grid.col_width(j), grid.col_width(k)),
    )


def _exec_potrf(task, inputs: list, spec) -> list:
    (a,) = inputs
    return [chol.potrf(a)]


def _exec_chol_trsm(task, inputs: list, spec) -> list:
    l_kk, a_ik = inputs
    return [chol.trsm(l_kk, a_ik)]


def _exec_syrk(task, inputs: list, spec) -> list:
    l_ik, a_ii = inputs
    return [chol.syrk(l_ik, a_ii)]


def _exec_chol_gemm(task, inputs: list, spec) -> list:
    l_ik, l_jk, a_ij = inputs
    return [chol.gemm(l_ik, l_jk, a_ij)]


def _cholesky_loop_nest(grid: TileGrid, structure: GraphStructure) -> Iterator[tuple]:
    """Classical right-looking tile Cholesky: per panel ``k``, factor the
    diagonal tile, solve the column below it, update the trailing matrix
    (``syrk`` on diagonals, ``gemm`` below them)."""
    for k in range(grid.nt):
        yield ("potrf", k, k, -1, -1)
        for i in range(k + 1, grid.mt):
            yield ("trsm", k, i, -1, -1)
        for j in range(k + 1, grid.nt):
            yield ("syrk", k, j, -1, -1)
            for i in range(j + 1, grid.mt):
                yield ("gemm", k, i, -1, j)


def _cholesky_result_keys(grid: TileGrid) -> list:
    return [("A", i, j) for i in range(grid.mt) for j in range(i + 1)]


def _cholesky_assemble(grid: TileGrid, m: int, n: int, tiles: dict) -> np.ndarray:
    assembled = np.zeros((n, n))
    for key, value in tiles.items():
        _, i, j = key
        grid.set_tile(assembled, i, j, np.asarray(value))
    return np.tril(assembled)


# ---------------------------------------------------------------------------
# Tiled LU, right-looking, no pivoting
# ---------------------------------------------------------------------------

def _plan_getrf(grid: TileGrid, k: int, i: int, i2: int, j: int) -> TaskPlan:
    return TaskPlan(
        reads=(("A", k, k),),
        writes=(WriteSpec(("A", k, k), grid.tile_shape(k, k)),),
        flops=getrf_flops(grid.row_height(k), grid.col_width(k)),
    )


def _plan_lu_trsm_row(grid: TileGrid, k: int, i: int, i2: int, j: int) -> TaskPlan:
    return TaskPlan(
        reads=(("A", k, k), ("A", k, j)),
        writes=(WriteSpec(("A", k, j), grid.tile_shape(k, j)),),
        flops=trsm_flops(grid.row_height(k), grid.col_width(j)),
    )


def _plan_lu_trsm_col(grid: TileGrid, k: int, i: int, i2: int, j: int) -> TaskPlan:
    return TaskPlan(
        reads=(("A", k, k), ("A", i, k)),
        writes=(WriteSpec(("A", i, k), grid.tile_shape(i, k)),),
        flops=trsm_flops(grid.col_width(k), grid.row_height(i)),
    )


def _plan_lu_gemm(grid: TileGrid, k: int, i: int, i2: int, j: int) -> TaskPlan:
    return TaskPlan(
        reads=(("A", i, k), ("A", k, j), ("A", i, j)),
        writes=(WriteSpec(("A", i, j), grid.tile_shape(i, j)),),
        flops=gemm_flops(grid.row_height(i), grid.col_width(j), grid.col_width(k)),
    )


def _exec_getrf(task, inputs: list, spec) -> list:
    (a,) = inputs
    return [lu.getrf(a)]


def _exec_lu_trsm_row(task, inputs: list, spec) -> list:
    lu_kk, a_kj = inputs
    return [lu.trsm_row(lu_kk, a_kj)]


def _exec_lu_trsm_col(task, inputs: list, spec) -> list:
    lu_kk, a_ik = inputs
    return [lu.trsm_col(lu_kk, a_ik)]


def _exec_lu_gemm(task, inputs: list, spec) -> list:
    l_ik, u_kj, a_ij = inputs
    return [lu.gemm(l_ik, u_kj, a_ij)]


def _lu_loop_nest(grid: TileGrid, structure: GraphStructure) -> Iterator[tuple]:
    """Classical right-looking tile LU without pivoting: per panel ``k``,
    factor the diagonal tile, solve the row to its right and the column
    below it, then rank-``b`` update the trailing matrix."""
    for k in range(grid.n_panels):
        yield ("getrf", k, k, -1, -1)
        for j in range(k + 1, grid.nt):
            yield ("trsm_row", k, k, -1, j)
        for i in range(k + 1, grid.mt):
            yield ("trsm_col", k, i, -1, -1)
        for j in range(k + 1, grid.nt):
            for i in range(k + 1, grid.mt):
                yield ("gemm_nn", k, i, -1, j)


def _lu_result_keys(grid: TileGrid) -> list:
    return [("A", i, j) for i in range(grid.mt) for j in range(grid.nt)]


def _lu_assemble(grid: TileGrid, m: int, n: int, tiles: dict) -> np.ndarray:
    assembled = np.zeros((m, n))
    for key, value in tiles.items():
        _, i, j = key
        grid.set_tile(assembled, i, j, np.asarray(value))
    return assembled


# ---------------------------------------------------------------------------
# The registries
# ---------------------------------------------------------------------------

KERNELS: dict[str, KernelSpec] = {
    spec.name: spec
    for spec in (
        # Tiled QR (CAQR elimination structure).
        KernelSpec("geqrt", "qr_leaf", True, _plan_geqrt, _exec_geqrt),
        KernelSpec("unmqr", "qr_leaf", False, _plan_unmqr, _exec_unmqr),
        KernelSpec("tsqrt", "qr_combine", True, _plan_tsqrt, _exec_tsqrt),
        KernelSpec("tsmqr", "qr_combine", False, _plan_tsmqr, _exec_tsmqr),
        # Tiled Cholesky.
        KernelSpec("potrf", "qr_leaf", True, _plan_potrf, _exec_potrf),
        KernelSpec("trsm", "update", True, _plan_chol_trsm, _exec_chol_trsm),
        KernelSpec("syrk", "gemm", False, _plan_syrk, _exec_syrk),
        KernelSpec("gemm", "gemm", False, _plan_chol_gemm, _exec_chol_gemm),
        # Tiled LU (no pivoting).
        KernelSpec("getrf", "qr_leaf", True, _plan_getrf, _exec_getrf),
        KernelSpec("trsm_row", "update", True, _plan_lu_trsm_row, _exec_lu_trsm_row),
        KernelSpec("trsm_col", "update", True, _plan_lu_trsm_col, _exec_lu_trsm_col),
        KernelSpec("gemm_nn", "gemm", False, _plan_lu_gemm, _exec_lu_gemm),
    )
}


ALGORITHMS: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        AlgorithmSpec(
            name="qr",
            kind="tiled-qr",
            display="DAG-CAQR",
            kernels=("geqrt", "unmqr", "tsqrt", "tsmqr"),
            square_only=False,
            uses_panel_tree=True,
            loop_nest=_qr_loop_nest,
            total_flops=qr_flops,
            result_keys=_qr_result_keys,
            assemble=_qr_assemble,
        ),
        AlgorithmSpec(
            name="cholesky",
            kind="tiled-cholesky",
            display="DAG-Cholesky",
            kernels=("potrf", "trsm", "syrk", "gemm"),
            square_only=True,
            uses_panel_tree=False,
            loop_nest=_cholesky_loop_nest,
            total_flops=lambda m, n: cholesky_flops(n),
            result_keys=_cholesky_result_keys,
            assemble=_cholesky_assemble,
        ),
        AlgorithmSpec(
            name="lu",
            kind="tiled-lu",
            display="DAG-LU",
            kernels=("getrf", "trsm_row", "trsm_col", "gemm_nn"),
            square_only=False,
            uses_panel_tree=False,
            loop_nest=_lu_loop_nest,
            total_flops=lu_flops,
            result_keys=_lu_result_keys,
            assemble=_lu_assemble,
        ),
    )
}


def algorithm_spec(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm (raises naming the known ones)."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        ) from None


def panel_kernel_names() -> frozenset[str]:
    """Kernels the panel priority policy runs first (registry ``panel`` flags)."""
    return frozenset(name for name, spec in KERNELS.items() if spec.panel)


def execute_kernel(task, inputs: list, spec) -> list:
    """Run one kernel on its input values and return the written values.

    Read/write orderings follow the :data:`KERNELS` plans; the arithmetic is
    byte-for-byte the SPMD programs' (same kernels, same padding helpers),
    which is what makes the real-mode factors bit-identical.
    """
    kspec = KERNELS.get(task.kernel)
    if kspec is None:
        raise ConfigurationError(f"unknown task kernel {task.kernel!r}")
    return kspec.execute(task, inputs, spec)
