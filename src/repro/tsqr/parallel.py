"""QCG-TSQR: the parallel, topology-aware TSQR of the paper.

This is the SPMD program of paper §III articulated with the (simulated)
QCG-OMPI middleware:

1. the matrix is split into ``n_domains`` block-rows ("domains"); a domain is
   owned either by a single process (LAPACK leaf, the original TSQR) or by a
   *group* of processes that factor it together with the ScaLAPACK-style
   distributed QR — the per-cluster groups delivered by the middleware;
2. the per-domain R factors are reduced along a reduction tree; with the
   default ``grid-hierarchical`` tree the reduction is binary inside every
   cluster and binary across cluster roots, so each inter-cluster link
   carries exactly one (half-triangular) R factor per reduction, regardless
   of the number of columns — the property illustrated by paper Fig. 2;
3. optionally the orthogonal factor is produced by a symmetric downward sweep
   that pushes blocks of the identity back through the stored combine
   factors, doubling messages, volume and flops exactly as the paper's
   Table II and Property 1 state.  The sweep works for *both* domain kinds:
   a single-process domain applies its stored leaf Householder factor, while
   a multi-process domain scatters the arriving coefficient block over the
   domain communicator and finishes with the distributed
   :func:`~repro.scalapack.pdorgqr.pdorgqr`, whose allreduces mirror the
   factorization's and keep the doubling intact.

Real payloads give exact numerics (validated against LAPACK at test scale);
virtual payloads run the same communication schedule while charging analytic
flop counts, which is how the 33-million-row sweeps of the evaluation are
reproduced.

The SPMD scaffolding this program runs on — domain layout and communicator
split, topology-aware reduction trees, virtual-vs-real payload dispatch,
rank-ordered result assembly and the run harness — lives in the shared
program layer :mod:`repro.programs.spmd`; this module instantiates it for
the tall-and-skinny case, and :mod:`repro.programs.caqr` for general
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gridsim.executor import RankContext, SimulationResult
from repro.gridsim.platform import Platform
from repro.gridsim.trace import TraceSummary
from repro.kernels.householder import HouseholderQR, apply_q, geqrf
from repro.kernels.tskernels import StackedQR, qr_of_stacked_triangles
from repro.programs.spmd import (
    assemble_row_blocks,
    build_domain_layout,
    domain_reduction_tree,
    local_block_payload,
    resolve_domain_count,
    run_program,
    triangle_nbytes,
)
from repro.scalapack.pdgeqrf import pdgeqrf
from repro.scalapack.pdorgqr import pdorgqr
from repro.tsqr.trees import ReductionTree
from repro.virtual.flops import qr_flops, stacked_triangle_qr_flops
from repro.virtual.matrix import MatrixLike, VirtualMatrix

__all__ = [
    "TSQRConfig",
    "TSQRRankResult",
    "TSQRRunResult",
    "qcg_tsqr_program",
    "run_parallel_tsqr",
    "tsqr_reduce_op",
]

#: Message tags of the explicit reduction / downward sweep.
_TAG_REDUCE = "tsqr-reduce"
_TAG_SWEEP = "tsqr-qsweep"


@dataclass(frozen=True)
class TSQRConfig:
    """Configuration of one QCG-TSQR run.

    ``n_domains`` defaults to one domain per process (the pure TSQR of
    Demmel et al.); smaller values group ``P / n_domains`` processes per
    domain and factor each domain with the distributed ScaLAPACK-style QR,
    which is the knob swept by the paper's Figs. 6 and 7.
    """

    m: int
    n: int
    n_domains: int | None = None
    tree_kind: str = "grid-hierarchical"
    want_q: bool = False
    broadcast_r: bool = False
    nb: int = 64
    matrix: np.ndarray | None = field(default=None, repr=False, compare=False)
    domain_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.m < self.n:
            raise ConfigurationError(f"TSQR requires a tall matrix, got {self.m} x {self.n}")
        if self.n <= 0:
            raise ConfigurationError("the matrix must have at least one column")
        if self.matrix is not None and self.matrix.shape != (self.m, self.n):
            raise ConfigurationError(
                f"matrix shape {self.matrix.shape} does not match ({self.m}, {self.n})"
            )
        if self.n_domains is not None and self.n_domains <= 0:
            raise ConfigurationError("n_domains must be positive")

    @property
    def virtual(self) -> bool:
        """True when the run uses shape-only payloads."""
        return self.matrix is None

    def flop_count(self) -> float:
        """Useful flops credited to the run (the Gflop/s denominator)."""
        base = qr_flops(self.m, self.n)
        return 2.0 * base if self.want_q else base

    def resolve_domains(self, n_processes: int) -> int:
        """Number of domains actually used for ``n_processes`` processes."""
        return resolve_domain_count(self.n_domains, n_processes)


@dataclass
class TSQRRankResult:
    """Per-rank return value of the SPMD program."""

    rank: int
    domain: int
    is_domain_leader: bool
    r: np.ndarray | None
    q_local: np.ndarray | None
    local_rows: int


def tsqr_reduce_op(n: int, *, want_q: bool = False):
    """Reduction operator turning TSQR into a single MPI allreduce.

    Returned object plugs into :meth:`CommHandle.allreduce`; the combine is
    the stacked-triangle QR and its cost is the structured ``2/3 n^3`` count
    the paper's model charges per tree level.  This is the literal reading of
    the paper's statement that "TSQR is a single complex allreduce operation".
    """
    from repro.gridsim.communicator import ReduceOp

    def _combine(a, b):
        if a is None:
            return b
        if b is None:
            return a
        if isinstance(a, VirtualMatrix) or isinstance(b, VirtualMatrix):
            return VirtualMatrix(n, n, structure="upper")
        return qr_of_stacked_triangles(np.triu(a), np.triu(b), want_q=want_q).r

    return ReduceOp(
        func=_combine,
        flops=lambda a, b: stacked_triangle_qr_flops(n) * (2.0 if want_q else 1.0),
        kernel="qr_combine",
        width=lambda a, b: n,
    )


def qcg_tsqr_program(ctx: RankContext, config: TSQRConfig):
    """The QCG-TSQR SPMD program, a generator (one call per simulated MPI process)."""
    comm = ctx.comm
    n = config.n

    # Domain setup and the per-domain communicator split come from the shared
    # SPMD program layer; TSQR's contribution is ``min_rows=n`` (every domain
    # must produce a full ``n x n`` R factor).
    layout = yield from build_domain_layout(
        comm,
        m=config.m,
        n=n,
        n_domains=config.n_domains,
        domain_weights=config.domain_weights,
        min_rows=n,
    )
    n_domains = layout.n_domains
    ppd = layout.ppd
    domain = layout.domain
    is_leader = layout.is_leader
    desc = layout.desc
    local_start = layout.local_start
    local_rows = layout.local_rows
    domain_comm = layout.domain_comm

    # ------------------------------------------------------------ local data
    a_local = local_block_payload(
        config.matrix, layout.global_row_slice, n, n_rows=local_rows
    )

    # -------------------------------------------------------- leaf factoring
    leaf_fact: HouseholderQR | None = None
    dist = None  # DistributedQR of a multi-process domain, kept for the Q sweep
    r_acc: np.ndarray | VirtualMatrix | None = None
    if ppd == 1:
        if config.virtual:
            ctx.compute(qr_flops(local_rows, n), kernel="qr_leaf", n=n)
            r_acc = VirtualMatrix(n, n, structure="upper")
        else:
            leaf_fact = geqrf(a_local, block_size=min(config.nb, n))
            ctx.compute(qr_flops(local_rows, n), kernel="qr_leaf", n=n)
            r_acc = leaf_fact.r
    else:
        dist = yield from pdgeqrf(ctx, domain_comm, a_local, nb=config.nb)
        if is_leader:
            r_acc = dist.r if not config.virtual else VirtualMatrix(n, n, structure="upper")

    # ------------------------------------------------- reduction over domains
    # The tree is identical on every rank (a pure function of placement and
    # config): the first rank builds it, everyone else shares it — per-rank
    # O(#domains) tree construction was the engine's scaling bottleneck.
    tree: ReductionTree = ctx.shared(
        ("tsqr-domain-tree", comm.core.comm_id, config.tree_kind, n_domains, ppd),
        lambda: domain_reduction_tree(
            ctx.platform,
            config.tree_kind,
            n_domains,
            ppd,
            world_rank_of=comm.core.world_rank,
        ),
    )

    combines: list[tuple[int, StackedQR | None]] = []  # (child_domain, factors)
    if is_leader:
        for child in tree.children(domain):
            child_r = yield from comm.recv(source=child * ppd, tag=_TAG_REDUCE)
            if config.virtual or isinstance(child_r, VirtualMatrix):
                ctx.compute(stacked_triangle_qr_flops(n), kernel="qr_combine", n=n)
                combines.append((child, None))
                r_acc = VirtualMatrix(n, n, structure="upper")
            else:
                stacked = qr_of_stacked_triangles(
                    np.triu(r_acc), np.triu(child_r), want_q=config.want_q
                )
                ctx.compute(stacked_triangle_qr_flops(n), kernel="qr_combine", n=n)
                combines.append((child, stacked))
                r_acc = stacked.r
        parent = tree.parent(domain)
        if parent is not None:
            comm.send(r_acc, dest=parent * ppd, tag=_TAG_REDUCE, nbytes=triangle_nbytes(n))

    is_root_leader = is_leader and tree.parent(domain) is None
    r_out: np.ndarray | None = None
    if is_root_leader and not config.virtual:
        r_out = np.triu(np.asarray(r_acc))[:n, :n]

    # ------------------------------------------------------ optional R bcast
    if config.broadcast_r:
        # Reverse sweep over the reduction tree (leaders), then one broadcast
        # inside every domain: R reaches every process with the same number of
        # inter-cluster messages as the reduction itself.
        if is_leader:
            parent = tree.parent(domain)
            if parent is not None:
                r_everywhere = yield from comm.recv(source=parent * ppd, tag=_TAG_REDUCE + "-down")
            else:
                r_everywhere = r_acc
            for child in tree.children(domain):
                comm.send(
                    r_everywhere,
                    dest=child * ppd,
                    tag=_TAG_REDUCE + "-down",
                    nbytes=triangle_nbytes(n),
                )
        else:
            r_everywhere = None
        r_everywhere = yield from domain_comm.bcast(r_everywhere, root=0)
        if not config.virtual:
            r_out = np.triu(np.asarray(r_everywhere))[:n, :n]

    # ------------------------------------------------- optional Q construction
    q_local: np.ndarray | None = None
    if config.want_q:
        # Downward sweep: the root pushes the n x n identity through the
        # stored combine factors; every domain ends with its m_d x n slice of Q.
        # Each sweep message is charged the paper's Table II volume of N^2/2
        # doubles: the model transmits the downward update in the compact
        # half-triangular form of the stacked-triangle factors, mirroring the
        # upward triangle, while the simulator's payload carries the explicit
        # block for the numerics.
        sweep_nbytes = triangle_nbytes(n)
        c_block: np.ndarray | VirtualMatrix | None = None
        if is_leader:
            if is_root_leader:
                c_block = VirtualMatrix(n, n) if config.virtual else np.eye(n)
            else:
                c_block = yield from comm.recv(source=tree.parent(domain) * ppd, tag=_TAG_SWEEP)
            # Undo the combines in reverse order: the part of the stacked Q
            # acting on this domain's rows stays here, the rest goes to the
            # child it came from.
            for child, stacked in reversed(combines):
                if config.virtual or stacked is None:
                    ctx.compute(stacked_triangle_qr_flops(n), kernel="qr_combine", n=n)
                    comm.send(
                        VirtualMatrix(n, n) if config.virtual else None,
                        dest=child * ppd,
                        tag=_TAG_SWEEP,
                        nbytes=sweep_nbytes,
                    )
                else:
                    y = stacked.q @ np.asarray(c_block)
                    ctx.compute(stacked_triangle_qr_flops(n), kernel="qr_combine", n=n)
                    top, bottom = y[: stacked.rows_top, :], y[stacked.rows_top :, :]
                    comm.send(
                        bottom, dest=child * ppd, tag=_TAG_SWEEP, nbytes=sweep_nbytes
                    )
                    c_block = top
        if ppd == 1:
            # Apply the leaf orthogonal factor to the surviving block.
            ctx.compute(qr_flops(local_rows, n), kernel="qr_leaf", n=n)
            if not config.virtual and leaf_fact is not None:
                padded = np.zeros((local_rows, n))
                padded[: min(n, local_rows), :] = np.asarray(c_block)[: min(n, local_rows), :]
                q_local = apply_q(leaf_fact.v, leaf_fact.tau, padded, transpose=False)
        else:
            # Multi-process domain: the leader scatters the rows of the sweep
            # coefficient block falling in each member's block-row range (the
            # leader's own range covers all n of them whenever the distributed
            # QR succeeded), then every member forms its slice of Q with the
            # distributed PDORGQR, whose allreduces mirror the factorization's.
            if is_leader:
                slices: list[MatrixLike] = []
                for member in range(ppd):
                    m_start, m_stop = desc.row_range(member)
                    rows = max(0, min(m_stop, n) - m_start)
                    if config.virtual:
                        slices.append(VirtualMatrix(rows, n))
                    else:
                        block = np.asarray(c_block)
                        slices.append(np.array(block[m_start : m_start + rows, :], copy=True))
                c_init = yield from domain_comm.scatter(slices, root=0)
            else:
                c_init = yield from domain_comm.scatter(None, root=0)
            q_block = yield from pdorgqr(ctx, domain_comm, dist, row_start=local_start, c_init=c_init)
            if not config.virtual:
                q_local = np.asarray(q_block)

    return TSQRRankResult(
        rank=comm.rank,
        domain=domain,
        is_domain_leader=is_leader,
        r=r_out,
        q_local=q_local,
        local_rows=local_rows,
    )


@dataclass
class TSQRRunResult:
    """Harness-level outcome of one QCG-TSQR run."""

    config: TSQRConfig
    r: np.ndarray | None
    q: np.ndarray | None
    makespan_s: float
    gflops: float
    trace: TraceSummary
    tree: ReductionTree | None
    simulation: SimulationResult = field(repr=False)

    @property
    def time_s(self) -> float:
        """Simulated wall-clock time of the factorization."""
        return self.makespan_s


def run_parallel_tsqr(
    platform: Platform,
    config: TSQRConfig,
    *,
    collective_tree: str = "binary",
    record_messages: bool = False,
    streaming_stats: bool | None = None,
) -> TSQRRunResult:
    """Run QCG-TSQR on ``platform`` and summarise its performance."""
    run = run_program(
        platform,
        qcg_tsqr_program,
        config,
        flop_count=config.flop_count(),
        collective_tree=collective_tree,
        record_messages=record_messages,
        streaming_stats=streaming_stats,
    )
    results: list[TSQRRankResult] = list(run.results)
    r = next((res.r for res in results if res.r is not None), None)
    q = None
    if config.want_q and not config.virtual:
        # Ranks own contiguous, ascending row blocks, so Q is assembled in
        # explicit rank order; a missing block is a bug, never a silent None.
        q = assemble_row_blocks({res.rank: res.q_local for res in results}, what="Q")
    n_domains = config.resolve_domains(platform.n_processes)
    ppd = platform.n_processes // n_domains
    tree = domain_reduction_tree(platform, config.tree_kind, n_domains, ppd)
    return TSQRRunResult(
        config=config,
        r=r,
        q=q,
        makespan_s=run.makespan_s,
        gflops=run.gflops,
        trace=run.trace,
        tree=tree,
        simulation=run.simulation,
    )
