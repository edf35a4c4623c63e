#!/usr/bin/env python
"""Task-DAG CAQR: dataflow execution of tiled QR on the simulated grid.

The SPMD CAQR program is bulk-synchronous — panel factorization and
trailing-matrix updates never overlap.  The task-DAG runtime executes the
*same kernels* as a dependency graph: tasks fire as their input tiles become
ready, producers push tiles eagerly, consumers receive lazily, and wide-area
latency hides behind whatever is computable meanwhile.

This example (1) factors a real matrix through both runtimes and shows the
R factors are bit-identical, (2) races them on a virtual workload and
reports the makespans next to the exact critical-path lower bound and the
per-rank idle breakdown, (3) exports the DAG schedule as a Gantt CSV.

Run with::

    python examples/dag_caqr.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.dag import (
    DAGFactorizationConfig,
    mean_idle_fraction,
    run_dag_factorization,
    write_gantt_csv,
)
from repro.experiments.grid5000 import grid5000_platform
from repro.programs.caqr import CAQRConfig, run_parallel_caqr
from repro.util.random_matrices import random_matrix


def main() -> None:
    platform = grid5000_platform(2)  # two sites, 128 simulated ranks
    print(f"platform: {platform.n_processes} ranks over {platform.n_sites} sites\n")

    # ---- real payload: the dataflow schedule changes nothing numerically
    m, n, tile = 240, 96, 16
    a = random_matrix(m, n, seed=11)
    spmd = run_parallel_caqr(platform, CAQRConfig(m=m, n=n, tile_size=tile, matrix=a))
    dag = run_dag_factorization(
        platform,
        DAGFactorizationConfig(m=m, n=n, tile_size=tile, priority="critical-path", matrix=a),
    )
    # This example doubles as a CI smoke gate: fail loudly, don't just print.
    assert np.array_equal(dag.r, spmd.r), "DAG R is not bit-identical to SPMD R"
    print(f"real {m} x {n} factorization, tile {tile}:")
    print(f"  R bit-identical to SPMD CAQR : {np.array_equal(dag.r, spmd.r)}")
    r_ref = np.linalg.qr(a, mode='r')
    agreement = np.linalg.norm(np.abs(dag.r) - np.abs(r_ref)) / np.linalg.norm(r_ref)
    assert agreement < 1e-12, "DAG R disagrees with LAPACK"
    print(f"  |R| vs LAPACK                : {agreement:.2e}\n")

    # ---- virtual payload: same schedule at scale, who wins?
    m, n, tile = 2**16, 256, 64
    spmd = run_parallel_caqr(platform, CAQRConfig(m=m, n=n, tile_size=tile))
    print(f"virtual {m:,} x {n} factorization, tile {tile}:")
    print(f"  SPMD CAQR makespan           : {spmd.makespan_s:.4f} s")
    for priority in ("critical-path", "panel", "fifo"):
        run = run_dag_factorization(
            platform, DAGFactorizationConfig(m=m, n=n, tile_size=tile, priority=priority)
        )
        idle = mean_idle_fraction(run.trace, run.makespan_s)
        print(
            f"  DAG ({priority:13s}) makespan : {run.makespan_s:.4f} s  "
            f"(critical path {run.critical_path_s:.4f} s, "
            f"mean idle {idle * 100:.1f}%)"
        )

    # ---- the schedule itself, exported for plotting
    run = run_dag_factorization(
        platform,
        DAGFactorizationConfig(m=2**12, n=128, tile_size=64),
        record_schedule=True,
    )
    out = Path(tempfile.gettempdir()) / "dag_caqr_gantt.csv"
    write_gantt_csv(run.schedule, out)
    print(f"\ngraph: {run.graph.describe()}")
    print(f"Gantt schedule ({len(run.schedule)} tasks) written to {out}")


if __name__ == "__main__":
    main()
