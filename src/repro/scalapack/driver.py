"""SPMD driver for the ScaLAPACK-style QR baseline.

This is the baseline the paper compares against: the whole matrix is
distributed by block-rows over *all* processes of the allocation (no notion
of domains, no topology awareness — the collectives use the rank-ordered
binary tree of a generic MPI), and the factorization is the blocked
``PDGEQRF`` of :mod:`repro.scalapack.pdgeqrf`.

Two entry points are provided:

* :func:`scalapack_qr_program` — the per-rank SPMD program, usable directly
  under :class:`~repro.gridsim.executor.SPMDExecutor` or as the *domain
  factorization* inside QCG-TSQR (paper §III attributes each domain to a
  group of processes calling ScaLAPACK);
* :func:`run_scalapack_qr` — a harness wrapper that builds the executor, runs
  the program on a platform and converts the outcome into performance
  numbers (Gflop/s, message counts) for the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gridsim.executor import RankContext, SPMDExecutor, SimulationResult
from repro.gridsim.platform import Platform
from repro.gridsim.trace import TraceSummary
from repro.scalapack.descriptor import RowBlockDescriptor
from repro.scalapack.pdgeqrf import DEFAULT_NB, DEFAULT_NX, pdgeqrf
from repro.scalapack.pdorgqr import pdorgqr
from repro.util.units import gflops_rate
from repro.virtual.flops import qr_flops
from repro.virtual.matrix import VirtualMatrix

__all__ = ["ScaLAPACKConfig", "ScaLAPACKRankResult", "ScaLAPACKRunResult",
           "scalapack_qr_program", "run_scalapack_qr"]


@dataclass(frozen=True)
class ScaLAPACKConfig:
    """Configuration of one ScaLAPACK-style QR run.

    ``matrix`` supplies real data (numpy array of shape ``(m, n)``); when it
    is ``None`` the run is *virtual*: every rank works on a shape-only block
    of its share of an ``m x n`` matrix, which is how the paper-scale sweeps
    are executed.
    """

    m: int
    n: int
    nb: int = DEFAULT_NB
    nx: int = DEFAULT_NX
    want_q: bool = False
    matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m < self.n:
            raise ConfigurationError(
                f"the baseline targets tall matrices, got {self.m} x {self.n}"
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
        """Useful flops credited to the run (the paper's Gflop/s denominator)."""
        base = qr_flops(self.m, self.n)
        return 2.0 * base if self.want_q else base


@dataclass
class ScaLAPACKRankResult:
    """Per-rank return value of the SPMD program."""

    rank: int
    local_rows: int
    r: np.ndarray | None
    q_local: np.ndarray | VirtualMatrix | None


def scalapack_qr_program(ctx: RankContext, config: ScaLAPACKConfig):
    """SPMD program (a generator): distributed blocked QR over the whole communicator."""
    comm = ctx.comm
    desc = RowBlockDescriptor(config.m, config.n, comm.size)
    start, stop = desc.row_range(comm.rank)
    local_rows = stop - start

    if config.virtual:
        a_local: np.ndarray | VirtualMatrix = VirtualMatrix(local_rows, config.n)
    else:
        a_local = np.array(config.matrix[start:stop, :], dtype=np.float64, copy=True)

    factorization = yield from pdgeqrf(ctx, comm, a_local, nb=config.nb, nx=config.nx)
    q_local: np.ndarray | VirtualMatrix | None = None
    if config.want_q:
        q_local = yield from pdorgqr(ctx, comm, factorization, row_start=start)
    return ScaLAPACKRankResult(
        rank=comm.rank, local_rows=local_rows, r=factorization.r, q_local=q_local
    )


@dataclass
class ScaLAPACKRunResult:
    """Harness-level outcome of one baseline run."""

    config: ScaLAPACKConfig
    r: np.ndarray | None
    q: np.ndarray | None
    makespan_s: float
    gflops: float
    trace: TraceSummary
    simulation: SimulationResult = field(repr=False)

    @property
    def time_s(self) -> float:
        """Simulated wall-clock time of the factorization."""
        return self.makespan_s


def run_scalapack_qr(
    platform: Platform,
    config: ScaLAPACKConfig,
    *,
    collective_tree: str = "binary",
    record_messages: bool = False,
) -> ScaLAPACKRunResult:
    """Run the ScaLAPACK baseline on ``platform`` and summarise its performance.

    ``collective_tree`` defaults to the topology-oblivious binary tree — the
    point of the baseline; passing ``"hierarchical"`` gives the
    "topology-aware collectives" ablation.
    """
    executor = SPMDExecutor(
        platform,
        record_messages=record_messages,
        collective_tree=collective_tree,
    )
    sim = executor.run(scalapack_qr_program, config)
    rank0: ScaLAPACKRankResult = sim.results[0]
    q = None
    if config.want_q and not config.virtual:
        blocks = [res.q_local for res in sim.results]
        q = np.vstack(blocks)
    return ScaLAPACKRunResult(
        config=config,
        r=rank0.r,
        q=q,
        makespan_s=sim.makespan,
        gflops=gflops_rate(config.flop_count(), sim.makespan),
        trace=sim.trace,
        simulation=sim,
    )
