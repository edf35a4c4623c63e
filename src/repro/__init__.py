"""repro — reproduction of "QR Factorization of Tall and Skinny Matrices in a
Grid Computing Environment" (Agullo, Coti, Dongarra, Herault, Langou, 2010).

The package is organised in layers:

* :mod:`repro.kernels`     — LAPACK-style dense kernels (Householder, tiled,
  Givens, Gram-Schmidt and Cholesky-QR baselines);
* :mod:`repro.tsqr`        — the paper's contribution: TSQR with configurable
  reduction trees, the implicit Q factor, QCG-TSQR on the simulated grid and
  tiled CAQR for general matrices;
* :mod:`repro.programs`    — the SPMD program layer shared by the distributed
  algorithms, and distributed CAQR on the grid (paper §VI follow-up);
* :mod:`repro.dag`         — the task-DAG runtime: dataflow execution of the
  tiled kernels (graph builders, placement/priority policies, ready-queue
  driver, critical-path analysis);
* :mod:`repro.scalapack`   — the ScaLAPACK-style distributed baseline
  (PDGEQR2 / PDGEQRF / PDORGQR analogues);
* :mod:`repro.gridsim`     — the simulated grid: machines, heterogeneous
  network, topology-aware middleware (QCG-OMPI analogue), virtual-time MPI;
* :mod:`repro.model`       — the §IV cost model, Eq. (1) predictor and the
  five properties;
* :mod:`repro.experiments` — the §V evaluation harness (Grid'5000 platform,
  figure/table regeneration, reporting);
* :mod:`repro.linalg`      — application-level consumers (block
  orthogonalization, least squares, block eigensolver, randomized SVD);
* :mod:`repro.virtual`     — shape-only matrix payloads and flop formulas;
* :mod:`repro.util`        — validation, generators, partitioning, units.

Quickstart
----------
>>> import numpy as np
>>> from repro import tsqr
>>> a = np.random.default_rng(0).standard_normal((10_000, 32))
>>> result = tsqr(a, n_domains=16, want_q=True)
>>> bool(np.allclose(result.q.explicit() @ result.r, a))
True
"""

from repro.dag import (
    DAGFactorizationConfig,
    DAGRunResult,
    TaskGraph,
    run_dag_factorization,
    tiled_qr_graph,
)
from repro.exceptions import ReproError
from repro.linalg import block_subspace_iteration, lstsq_tsqr, orthonormalize, randomized_svd
from repro.programs import (
    CAQRConfig,
    CAQRRunResult,
    caqr_program,
    run_parallel_caqr,
    run_program,
)
from repro.scalapack import ScaLAPACKConfig, run_scalapack_qr
from repro.tsqr import (
    TSQRConfig,
    TSQRQFactor,
    TSQRResult,
    caqr,
    caqr_r,
    run_parallel_tsqr,
    tsqr,
    tsqr_r,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "block_subspace_iteration",
    "lstsq_tsqr",
    "orthonormalize",
    "randomized_svd",
    "TSQRConfig",
    "TSQRQFactor",
    "TSQRResult",
    "caqr",
    "caqr_r",
    "CAQRConfig",
    "CAQRRunResult",
    "caqr_program",
    "run_parallel_caqr",
    "run_program",
    "DAGFactorizationConfig",
    "DAGRunResult",
    "TaskGraph",
    "run_dag_factorization",
    "tiled_qr_graph",
    "run_parallel_tsqr",
    "tsqr",
    "tsqr_r",
    "ScaLAPACKConfig",
    "run_scalapack_qr",
    "__version__",
]
