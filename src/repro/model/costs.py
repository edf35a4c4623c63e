"""Analytic communication/computation costs (paper Tables I and II).

For an ``M x N`` tall-and-skinny matrix distributed over ``P`` domains and a
binary reduction tree of depth ``log2(P)``, the paper's model counts, on the
critical path:

==================  =======================  ==============================
quantity            ScaLAPACK QR2            TSQR
==================  =======================  ==============================
R only
  # messages        ``2 N log2 P``           ``log2 P``
  volume (doubles)  ``log2(P) N^2 / 2``      ``log2(P) N^2 / 2``
  # flops           ``(2MN^2 - 2/3 N^3)/P``  ``... + 2/3 log2(P) N^3``
Q and R
  # messages        ``4 N log2 P``           ``2 log2 P``
  volume (doubles)  ``2 log2(P) N^2 / 2``    ``2 log2(P) N^2 / 2``
  # flops           ``(4MN^2 - 4/3 N^3)/P``  ``... + 4/3 log2(P) N^3``
==================  =======================  ==============================

These are exposed as :class:`CostBreakdown` objects so the predictor
(:mod:`repro.model.predictor`) and the Table I/II validation benchmarks can
consume them uniformly.  :func:`caqr_costs` extends the accounting to the
general-matrix CAQR of §VI: total messages and volume of the per-panel TSQR
reductions plus the maximum per-rank flops of the structured tiled kernels,
matching the counts the simulated program charges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.tsqr.trees import tree_for
from repro.util.partition import block_ranges, tile_ranges
from repro.virtual.flops import (
    caqr_combine_flops,
    caqr_down_message_doubles,
    caqr_panel_leaf_flops,
    caqr_up_message_doubles,
)

__all__ = [
    "CostBreakdown",
    "scalapack_costs",
    "tsqr_costs",
    "caqr_costs",
    "dag_caqr_costs",
    "dag_cholesky_costs",
    "dag_lu_costs",
    "cost_table",
]


@dataclass(frozen=True)
class CostBreakdown:
    """Critical-path communication and computation counts of one algorithm."""

    algorithm: str
    m: int
    n: int
    p: int
    want_q: bool
    messages: float
    volume_doubles: float
    flops: float

    @property
    def volume_bytes(self) -> float:
        """Volume of data exchanged, in bytes (double precision)."""
        return self.volume_doubles * 8.0

    def as_row(self) -> dict[str, float | str]:
        """Row representation used by the report tables."""
        return {
            "algorithm": self.algorithm,
            "M": self.m,
            "N": self.n,
            "P": self.p,
            "Q requested": self.want_q,
            "# msg": self.messages,
            "volume (doubles)": self.volume_doubles,
            "# flops": self.flops,
        }


def _validate(m: int, n: int, p: int) -> float:
    if m <= 0 or n <= 0:
        raise ConfigurationError(f"matrix dimensions must be positive, got {m} x {n}")
    if p <= 0:
        raise ConfigurationError(f"domain count must be positive, got {p}")
    return math.log2(p) if p > 1 else 0.0


def scalapack_costs(m: int, n: int, p: int, *, want_q: bool = False) -> CostBreakdown:
    """Paper Table I/II row for ScaLAPACK QR2 on ``p`` processes."""
    log_p = _validate(m, n, p)
    messages = 2.0 * n * log_p
    volume = log_p * n * n / 2.0
    flops = (2.0 * m * n * n - (2.0 / 3.0) * n**3) / p
    if want_q:
        messages *= 2.0
        volume *= 2.0
        flops *= 2.0
    return CostBreakdown(
        algorithm="ScaLAPACK QR2",
        m=m,
        n=n,
        p=p,
        want_q=want_q,
        messages=messages,
        volume_doubles=volume,
        flops=flops,
    )


def tsqr_costs(m: int, n: int, p: int, *, want_q: bool = False) -> CostBreakdown:
    """Paper Table I/II row for TSQR on ``p`` domains."""
    log_p = _validate(m, n, p)
    messages = log_p
    volume = log_p * n * n / 2.0
    flops = (2.0 * m * n * n - (2.0 / 3.0) * n**3) / p + (2.0 / 3.0) * log_p * n**3
    if want_q:
        messages *= 2.0
        volume *= 2.0
        flops *= 2.0
    return CostBreakdown(
        algorithm="TSQR",
        m=m,
        n=n,
        p=p,
        want_q=want_q,
        messages=messages,
        volume_doubles=volume,
        flops=flops,
    )


def caqr_costs(
    m: int,
    n: int,
    p: int,
    *,
    tile_size: int = 64,
    panel_tree: str = "binary",
    clusters: Sequence[str] | None = None,
) -> CostBreakdown:
    """CAQR counts for a general ``m x n`` matrix over ``p`` ranks (paper §II/§VI).

    The accounting opens the paper's Table I formulas for the general-matrix
    follow-up: tile rows are block-distributed, every panel is one TSQR
    reduction over the ranks owning tile rows at or below the diagonal, and
    each tree edge carries the panel triangle plus the child's trailing tile
    row up and the updated trailing row down.  The returned quantities use
    the conventions of the CAQR sweep artefact:

    * ``messages`` — *total* point-to-point messages of the run (two per
      tree edge per panel while trailing columns remain, one on the final
      panel);
    * ``volume_doubles`` — total doubles exchanged: per up message the
      ``N^2/2``-style half triangle ``w(w+1)/2`` of the panel width ``w``
      plus the dense trailing row, per down message the trailing row alone;
    * ``flops`` — the maximum per-rank count, from the structured tiled-QR
      kernel formulas of :mod:`repro.virtual.flops` (``geqrt`` + ``unmqr``
      leaf work, ``tsqrt`` + ``tsmqr`` combines charged to the parent).

    ``clusters`` names the cluster hosting each rank (defaults to a single
    cluster), which the ``grid-hierarchical`` panel tree uses exactly like
    the simulated program does; the counts therefore match the measured
    traces of :func:`repro.programs.caqr.run_parallel_caqr` — the CAQR sweep
    benchmark asserts agreement within 10%.
    """
    _validate(m, n, p)
    if tile_size <= 0:
        raise ConfigurationError(f"tile size must be positive, got {tile_size}")
    cluster_names = list(clusters) if clusters is not None else ["local"] * p
    if len(cluster_names) != p:
        raise ConfigurationError(
            f"{len(cluster_names)} cluster names for {p} ranks"
        )
    row_ranges = tile_ranges(m, tile_size)
    col_ranges = tile_ranges(n, tile_size)
    mt, nt = len(row_ranges), len(col_ranges)
    owners = block_ranges(mt, p)

    def height(i: int) -> int:
        return row_ranges[i][1] - row_ranges[i][0]

    messages = 0.0
    volume = 0.0
    per_rank_flops = [0.0] * p
    for k in range(min(mt, nt)):
        wk = col_ranges[k][1] - col_ranges[k][0]
        trail_cols = n - col_ranges[k][1]
        participants = [
            r for r in range(p) if owners[r][1] > k and owners[r][1] > owners[r][0]
        ]
        # Leaf factorization and local flat reduction of every rank, summed
        # from the same shared helpers the simulated program charges with
        # (virtual/flops.py), so the two accountings cannot drift apart.
        for r in participants:
            t0, t1 = owners[r]
            i_top = max(t0, k)
            per_rank_flops[r] += caqr_panel_leaf_flops(
                [height(i) for i in range(i_top, t1)], wk, trail_cols
            )
            for i in range(i_top + 1, t1):
                per_rank_flops[r] += caqr_combine_flops(height(i), wk, trail_cols)
        # Cross-rank reduction along the same tree the program builds.
        tree = tree_for(
            panel_tree, len(participants), [cluster_names[r] for r in participants]
        )
        for child_pos, parent_pos in tree.edges():
            child = participants[child_pos]
            parent = participants[parent_pos]
            h_child = height(max(owners[child][0], k))
            per_rank_flops[parent] += caqr_combine_flops(h_child, wk, trail_cols)
            messages += 1.0
            volume += caqr_up_message_doubles(wk, h_child, trail_cols)
            if trail_cols:
                messages += 1.0
                volume += caqr_down_message_doubles(h_child, trail_cols)
    return CostBreakdown(
        algorithm="CAQR",
        m=m,
        n=n,
        p=p,
        want_q=False,
        messages=messages,
        volume_doubles=volume,
        flops=max(per_rank_flops),
    )


def dag_caqr_costs(
    m: int,
    n: int,
    p: int,
    *,
    tile_size: int = 64,
    panel_tree: str = "binary",
    placement: str | None = None,
    clusters: Sequence[str] | None = None,
) -> CostBreakdown:
    """Counts of a *dataflow* CAQR execution, joining the Eq. (1) predictor.

    Unlike the bulk-synchronous :func:`caqr_costs`, the flop term here is the
    **critical-path** count — the longest flop-weighted dependence chain of
    the task graph — because a DAG execution charges only dependent work
    sequentially; everything else overlaps.  Messages and volume are the
    exact per-(value, consumer-rank) counts of the runtime's communication
    plan under the given placement policy, so measured traces match them
    identically (asserted by the DAG tests).
    """
    _validate(m, n, p)
    # Imported here, not at module level: repro.dag builds on the kernels and
    # partition layers this module also serves, and the model must stay
    # importable without pulling the whole runtime in.
    from repro.dag.graph import cached_graph

    cluster_names = tuple(clusters) if clusters is not None else tuple(["local"] * p)
    if len(cluster_names) != p:
        raise ConfigurationError(f"{len(cluster_names)} cluster names for {p} ranks")
    # Positional, exactly like the runtime's call: the cache keys keyword
    # arguments apart, and the model and the runtime share one graph object.
    graph = cached_graph("qr", m, n, tile_size, p, panel_tree, cluster_names)
    return _graph_costs("DAG-CAQR", graph, m, n, p, placement)


def _graph_costs(
    display: str, graph, m: int, n: int, p: int, placement: str | None
) -> CostBreakdown:
    """Critical-path flops + exact message/volume counts of a task graph.

    ``placement`` None is the runtime's default policy.
    """
    from repro.dag.analysis import communication_counts, flop_critical_path
    from repro.dag.placement import DEFAULT_PLACEMENT, place_tasks

    if placement is None:
        placement = DEFAULT_PLACEMENT
    messages, nbytes = communication_counts(graph, place_tasks(graph, placement, p))
    return CostBreakdown(
        algorithm=display,
        m=m,
        n=n,
        p=p,
        want_q=False,
        messages=float(messages),
        volume_doubles=nbytes / 8.0,
        flops=flop_critical_path(graph),
    )


def dag_cholesky_costs(
    n: int,
    p: int,
    *,
    tile_size: int = 64,
    placement: str | None = None,
) -> CostBreakdown:
    """Counts of a dataflow tiled-Cholesky execution (see :func:`dag_caqr_costs`).

    Same semantics as the CAQR predictor: the flop term is the longest
    flop-weighted dependence chain of the ``potrf``/``trsm``/``syrk``/
    ``gemm`` graph, messages and volume the exact per-(value, consumer-rank)
    counts of the runtime's communication plan under ``placement`` — so
    measured traces match them identically.
    """
    _validate(n, n, p)
    from repro.dag.graph import cached_graph

    graph = cached_graph("cholesky", n, n, tile_size)
    return _graph_costs("DAG-Cholesky", graph, n, n, p, placement)


def dag_lu_costs(
    m: int,
    n: int,
    p: int,
    *,
    tile_size: int = 64,
    placement: str | None = None,
) -> CostBreakdown:
    """Counts of a dataflow tiled-LU (no pivoting) execution.

    Same semantics as :func:`dag_cholesky_costs`, for the ``getrf``/
    ``trsm_row``/``trsm_col``/``gemm_nn`` graph.
    """
    _validate(m, n, p)
    from repro.dag.graph import cached_graph

    graph = cached_graph("lu", m, n, tile_size)
    return _graph_costs("DAG-LU", graph, m, n, p, placement)


def cost_table(m: int, n: int, p: int, *, want_q: bool = False) -> list[CostBreakdown]:
    """Both rows of Table I (``want_q=False``) or Table II (``want_q=True``)."""
    return [scalapack_costs(m, n, p, want_q=want_q), tsqr_costs(m, n, p, want_q=want_q)]
