"""The SPMD program layer: scaffolding shared by the distributed algorithms.

Every distributed algorithm of this project (QCG-TSQR, the ScaLAPACK-style
baseline, distributed CAQR) is an SPMD *program* — one Python function run
per simulated MPI rank.  This module holds the scaffolding those programs
share, extracted from :mod:`repro.tsqr.parallel` where it first grew:

* **domain / communicator setup** — :func:`resolve_domain_count` and
  :func:`build_domain_layout` turn a process count plus a domain request
  into the per-rank :class:`DomainLayout` (domain index, leader flag, row
  ranges, the split per-domain communicator);
* **topology-aware reduction trees** — :func:`domain_reduction_tree` maps
  domain leaders to their hosting clusters and builds the requested
  :class:`~repro.tsqr.trees.ReductionTree` identically on every rank;
* **virtual-vs-real payload dispatch** — :func:`local_block_payload` builds
  a rank's block-row operand either as a real slice of the input matrix or
  as a shape-only :class:`~repro.virtual.matrix.VirtualMatrix`, so one
  program body serves both the numerics tests and the paper-scale sweeps;
* **rank-result assembly** — :func:`assemble_row_blocks` stacks per-rank
  block-rows in explicit rank order and reports missing blocks as a
  :class:`~repro.exceptions.FactorizationError` naming the ranks;
* **cost accounting** — :func:`run_program` executes a program on a
  platform and converts the outcome into a :class:`ProgramRun` carrying the
  simulated makespan, the achieved Gflop/s and the trace summary;
  :func:`triangle_nbytes` is the paper's ``N^2/2`` triangular message
  volume, charged by every R-factor exchange.

The extraction is behaviour-preserving: QCG-TSQR rebased on this layer
produces bit-identical traces, clocks and results (asserted by
``tests/programs/test_spmd.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, FactorizationError
from repro.gridsim.communicator import CommHandle
from repro.gridsim.executor import RankProgram, SimulationResult, SPMDExecutor
from repro.gridsim.failures import FailureSchedule
from repro.gridsim.platform import Platform
from repro.gridsim.trace import TraceSummary
from repro.scalapack.descriptor import RowBlockDescriptor
from repro.util.partition import block_ranges, partition_rows_weighted
from repro.util.shapes import triangle_doubles
from repro.util.units import DOUBLE_BYTES, gflops_rate
from repro.virtual.matrix import MatrixLike, VirtualMatrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tsqr.trees import ReductionTree

__all__ = [
    "DomainLayout",
    "ProgramRun",
    "assemble_row_blocks",
    "build_domain_layout",
    "domain_reduction_tree",
    "domain_row_ranges",
    "local_block_payload",
    "resolve_domain_count",
    "run_program",
    "triangle_nbytes",
]


def triangle_nbytes(n: int) -> int:
    """Bytes of an upper-triangular ``n x n`` factor (the paper's N^2/2 term)."""
    return triangle_doubles(n) * DOUBLE_BYTES


def resolve_domain_count(n_domains: int | None, n_processes: int) -> int:
    """Number of domains actually used for ``n_processes`` processes.

    ``None`` means one domain per process (the pure TSQR of Demmel et al.);
    otherwise the domain count must divide the process count so that every
    domain is owned by the same number of processes.
    """
    d = n_domains if n_domains is not None else n_processes
    if d > n_processes:
        raise ConfigurationError(
            f"{d} domains requested but only {n_processes} processes are available"
        )
    if n_processes % d != 0:
        raise ConfigurationError(
            f"the process count ({n_processes}) must be a multiple of the "
            f"domain count ({d})"
        )
    return d


def domain_row_ranges(
    m: int,
    n_domains: int,
    domain_weights: Sequence[float] | None = None,
) -> list[tuple[int, int]]:
    """Row range of each domain, optionally weighted for heterogeneous domains."""
    if domain_weights is not None:
        if len(domain_weights) != n_domains:
            raise ConfigurationError(
                f"{len(domain_weights)} weights for {n_domains} domains"
            )
        return partition_rows_weighted(m, domain_weights)
    return block_ranges(m, n_domains)


@dataclass(frozen=True, slots=True)
class DomainLayout:
    """Everything one rank knows about its domain after setup.

    Domains are contiguous block-rows of the global matrix; each domain is
    owned by ``ppd`` consecutive ranks whose local rows are themselves a
    block-row split of the domain (:class:`RowBlockDescriptor`).
    """

    n_domains: int
    ppd: int
    domain: int
    leader_local: int
    is_leader: bool
    dom_start: int
    dom_stop: int
    local_start: int
    local_stop: int
    desc: RowBlockDescriptor
    domain_comm: CommHandle
    domain_ranges: tuple[tuple[int, int], ...]

    @property
    def dom_rows(self) -> int:
        """Number of rows of this rank's domain."""
        return self.dom_stop - self.dom_start

    @property
    def local_rows(self) -> int:
        """Number of rows owned by this rank."""
        return self.local_stop - self.local_start

    @property
    def global_row_slice(self) -> slice:
        """Global row slice of this rank's block (within the full matrix)."""
        return slice(self.dom_start + self.local_start, self.dom_start + self.local_stop)


def build_domain_layout(
    comm: CommHandle,
    *,
    m: int,
    n: int,
    n_domains: int | None,
    domain_weights: Sequence[float] | None = None,
    min_rows: int | None = None,
):
    """Set up this rank's domain view and split the per-domain communicator.

    A generator (drive with ``yield from``): it performs a ``comm.split``,
    which can suspend the calling rank.  ``min_rows`` enforces the
    algorithm's per-domain row floor (TSQR needs every domain to produce a
    full ``n x n`` R factor, hence ``min_rows=n``); the error message names
    the constraint so the failing configuration is obvious from the
    traceback.

    Every rank of the communicator must call this, and all ranks must pass
    identical arguments.
    """
    p = comm.size
    resolved = resolve_domain_count(n_domains, p)
    ppd = p // resolved
    domain = comm.rank // ppd
    leader_local = domain * ppd
    is_leader = comm.rank == leader_local

    # Identical on every rank: computed once per run and shared through the
    # simulation-state memo (per-rank O(#domains) work becomes O(1)).
    weights_key = None if domain_weights is None else tuple(domain_weights)
    ranges = comm.state.shared(
        ("domain-row-ranges", m, resolved, weights_key),
        lambda: tuple(domain_row_ranges(m, resolved, domain_weights)),
    )
    dom_start, dom_stop = ranges[domain]
    dom_rows = dom_stop - dom_start
    if min_rows is not None and dom_rows < min_rows:
        raise ConfigurationError(
            f"domain {domain} holds {dom_rows} rows which is fewer than n={min_rows}; "
            "use fewer domains for this matrix"
        )

    desc = RowBlockDescriptor(dom_rows, n, ppd)
    local_start, local_stop = desc.row_range(comm.rank - leader_local)

    # Split once per run: one communicator per domain (used by multi-process
    # domains for the ScaLAPACK factorization and by optional broadcasts).
    domain_comm = yield from comm.split(color=domain, key=comm.rank)

    return DomainLayout(
        n_domains=resolved,
        ppd=ppd,
        domain=domain,
        leader_local=leader_local,
        is_leader=is_leader,
        dom_start=dom_start,
        dom_stop=dom_stop,
        local_start=local_start,
        local_stop=local_stop,
        desc=desc,
        domain_comm=domain_comm,
        domain_ranges=ranges,
    )


def local_block_payload(
    matrix: np.ndarray | None,
    rows: slice,
    n: int,
    *,
    n_rows: int | None = None,
) -> MatrixLike:
    """Build a rank's local block-row operand, real or virtual.

    With a real ``matrix`` the slice is copied (ranks own private storage,
    as MPI processes do); with ``matrix=None`` a shape-only
    :class:`VirtualMatrix` of ``n_rows x n`` stands in, which is how the
    paper-scale sweeps run the identical program without the memory.
    """
    if matrix is None:
        if n_rows is None:
            raise ConfigurationError("virtual payloads need an explicit row count")
        return VirtualMatrix(n_rows, n)
    return np.array(matrix[rows, :], dtype=np.float64, copy=True)


def domain_reduction_tree(
    platform: Platform,
    tree_kind: str,
    n_domains: int,
    ppd: int,
    *,
    world_rank_of: Callable[[int], int] | None = None,
) -> ReductionTree:
    """Build the reduction tree over domain leaders, topology-aware.

    Each domain is represented by the cluster hosting its leader rank
    (``domain * ppd`` translated to a world rank by ``world_rank_of``, the
    identity for the world communicator); the ``grid-hierarchical`` kind
    then reduces binary-inside-every-cluster, binary-across-clusters.  All
    ranks (and the harness) call this with identical arguments and obtain
    identical trees.
    """
    # Imported here, not at module level: the tsqr package itself builds on
    # this layer, and a module-level import would close the cycle.
    from repro.tsqr.trees import tree_for

    placement = platform.placement
    translate = world_rank_of if world_rank_of is not None else (lambda r: r)
    clusters = [placement.cluster_of(translate(d * ppd)) for d in range(n_domains)]
    return tree_for(tree_kind, n_domains, clusters)


def assemble_row_blocks(
    blocks: Mapping[int, np.ndarray | None],
    *,
    what: str = "Q",
) -> np.ndarray:
    """Stack per-rank block-rows in explicit rank order.

    Ranks own contiguous, ascending row blocks, so the global matrix is
    assembled by sorting on rank; a missing block is a bug, never a silent
    ``None``, and the error names every offending rank.
    """
    missing = sorted(rank for rank, block in blocks.items() if block is None)
    if missing:
        raise FactorizationError(
            f"explicit {what} was requested but rank(s) {missing} returned no {what} block"
        )
    stacked = [np.atleast_2d(np.asarray(blocks[rank])) for rank in sorted(blocks)]
    return np.vstack([b for b in stacked if b.shape[0] > 0])


@dataclass
class ProgramRun:
    """Harness-level outcome of one SPMD program run."""

    simulation: SimulationResult
    makespan_s: float
    gflops: float
    trace: TraceSummary

    @property
    def results(self) -> list[object]:
        """Per-rank return values of the program."""
        return self.simulation.results


def run_program(
    platform: Platform,
    program: RankProgram,
    *args: object,
    flop_count: float,
    collective_tree: str = "binary",
    record_messages: bool = False,
    failures: "FailureSchedule | None" = None,
    streaming_stats: bool | None = None,
    **kwargs: object,
) -> ProgramRun:
    """Run an SPMD program on ``platform`` and summarise its performance.

    ``flop_count`` is the number of *useful* flops credited to the run (the
    paper's Gflop/s denominator), not the number executed — TSQR's redundant
    combine flops, for instance, are excluded by convention.  ``failures``
    injects a deterministic rank-death schedule; ``streaming_stats``
    overrides the always-on streaming observability (the benchmark overhead
    gate passes False).
    """
    executor = SPMDExecutor(
        platform,
        record_messages=record_messages,
        collective_tree=collective_tree,
        failures=failures,
        streaming_stats=streaming_stats,
    )
    sim = executor.run(program, *args, **kwargs)
    return ProgramRun(
        simulation=sim,
        makespan_s=sim.makespan,
        gflops=gflops_rate(flop_count, sim.makespan),
        trace=sim.trace,
    )
