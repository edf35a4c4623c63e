"""Command-line interface.

Three subcommands cover the common workflows without writing Python:

``factor``
    Factor a random tall-and-skinny matrix in memory with TSQR and report the
    numerical quality (residual, orthogonality, agreement with LAPACK).

``simulate``
    Run one evaluation point of the paper on the simulated Grid'5000 platform
    (QCG-TSQR or the ScaLAPACK baseline) and report simulated time, Gflop/s
    and message counts.

``figure``
    Regenerate one of the paper's figures or tables and print/save its series.

``serve`` / ``query``
    Run the simulation service (shared result cache, single-flight batched
    serving) and query it — one point, a duplicate burst, or a best-config
    question answered by the Eq. (1) predictor with top-k escalation.

Usage examples live in one place — the parser epilog (:data:`_EPILOG`),
printed by ``python -m repro --help``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ReproError
from repro.dag.placement import (
    DEFAULT_PLACEMENT,
    DEFAULT_PRIORITY,
    PLACEMENT_POLICIES,
    PRIORITY_POLICIES,
)
from repro.experiments import (
    CAQR_SWEEP_N,
    DAG_CHOLESKY_SWEEP_N,
    DAG_FAILURES_SWEEP_N,
    DAG_SWEEP_N,
    ExperimentRunner,
    caqr_sweep,
    dag_caqr_sweep,
    dag_cholesky_sweep,
    dag_failures_sweep,
    figure3_network,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure67_m_values,
    format_points,
    reduced_m_values,
    table1,
    table2,
    table2_sweep,
    trace_hotspots_report,
    write_csv,
)
from repro.service import (
    EscalationPolicy,
    ResultCache,
    SimulationService,
    remote_burst,
    remote_query,
    remote_stats,
    spec_from_config,
)
from repro.tsqr.sequential import tsqr
from repro.util.random_matrices import random_tall_skinny
from repro.util.validation import factorization_residual, orthogonality_error, r_factors_match

__all__ = ["main", "build_parser"]


_EPILOG = """\
examples:
  repro factor --rows 200000 --cols 64 --domains 64 --want-q
  repro simulate --algorithm tsqr --rows 33554432 --cols 64 --sites 4 --domains-per-cluster 64
  repro figure --id fig5 --cols 64 --points 3 --csv results/fig5.csv
  repro figure --id fig6 --cols 512 --jobs 8   # sweep points in 8 worker processes
  repro figure --id table2-sweep --domains 1,64 --csv results/table2_sweep.csv
  repro figure --id caqr-sweep --tile-size 64 --panel-tree grid-hierarchical \\
      --csv results/caqr_sweep.csv   # general-matrix CAQR at paper scale (§VI)
  repro simulate --algorithm caqr --runtime dag --rows 1048576 --cols 512 \\
      --tile-size 128 --priority critical-path   # one dataflow CAQR point
  repro figure --id dag-caqr-sweep --csv results/dag_caqr_sweep.csv \\
      # task-DAG vs SPMD CAQR makespan, critical-path bound, idle fractions
  repro figure --id dag-caqr-sweep --placement block-cyclic --priority fifo \\
      --rows 16384 --cols 128 --tile-size 32   # a quick reduced policy study
  repro simulate --algorithm cholesky --rows 8192 --cols 8192 --tile-size 128 \\
      # one dataflow tiled-Cholesky point (square; the DAG runtime is implied)
  repro simulate --algorithm lu --rows 4096 --cols 2048 --tile-size 64 \\
      --placement owner-computes   # tiled LU without pivoting
  repro figure --id dag-cholesky-sweep --cols 2048 --tile-size 64 \\
      --csv results/dag_cholesky_sweep.csv   # reduced registry-scenario sweep
  repro figure --id fig5 --points 2   # re-running answers from results/cache
  repro figure --id fig5 --points 2 --no-cache   # bypass the persistent cache
  repro serve --port 8642 --jobs 4   # simulation service on the result cache
  repro query --connect 127.0.0.1:8642 --algorithm caqr --runtime dag \\
      --rows 16384 --cols 128 --tile-size 32   # warm keys answer in microseconds
  repro query --connect 127.0.0.1:8642 --burst 8 --algorithm tsqr --cols 64 \\
      # 8 identical concurrent queries; single-flight runs ONE simulation
  repro query --algorithm caqr --runtime dag --rows 16384 --cols 128 \\
      --best-tile --candidates 16,32,64 --top-k 2   # Eq.(1) ranks, top-k simulate
  repro simulate --algorithm cholesky --cols 4096 --tile-size 128 \\
      --fail-rank 5 --fail-at 0.02 --fail-rank 11 --fail-at 0.05 \\
      # two deterministic rank deaths; the DAG runtime re-executes lost work
  repro figure --id dag-failures --failure-counts 0,1,2,4 \\
      # recovery-overhead curve, written to results/dag_failures.csv
  repro query --connect 127.0.0.1:8642 --retries 4 --timeout 2.0 --cols 64 \\
      # bounded retry with exponential backoff against a flaky server
  repro figure --id trace-hotspots --rows 16384 --cols 128 --tile-size 32 \\
      # top contention sites by accumulated wait; results/trace_hotspots.csv
  repro simulate --algorithm caqr --runtime dag --rows 16384 --cols 128 \\
      --tile-size 32 --trace-out results/trace_caqr.perfetto.json \\
      # Chrome-trace/Perfetto export of the streaming busy/wait windows
  repro query --connect 127.0.0.1:8642 --stats   # pretty service counters
"""


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TSQR on the grid: reproduction of Agullo et al., IPDPS 2010.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    factor = sub.add_parser("factor", help="factor a random tall-and-skinny matrix with TSQR")
    factor.add_argument("--rows", type=int, default=100_000, help="number of rows M")
    factor.add_argument("--cols", type=int, default=32, help="number of columns N")
    factor.add_argument("--domains", type=int, default=None, help="number of block-row domains")
    factor.add_argument(
        "--tree",
        choices=("binary", "flat", "grid-hierarchical"),
        default="binary",
        help="reduction tree family",
    )
    factor.add_argument("--want-q", action="store_true", help="also build the implicit Q factor")
    factor.add_argument("--seed", type=int, default=0, help="random seed of the test matrix")

    simulate = sub.add_parser("simulate", help="run one evaluation point on the simulated grid")
    _add_point_flags(simulate)
    simulate.add_argument(
        "--fail-rank",
        type=int,
        action="append",
        metavar="R",
        help="kill this rank mid-run (repeatable; each use pairs with one "
        "--fail-at; needs a DAG-runtime point, which recovers by "
        "re-executing the lost work)",
    )
    simulate.add_argument(
        "--fail-at",
        type=float,
        action="append",
        metavar="T",
        help="virtual time in seconds of the matching --fail-rank death "
        "(repeatable)",
    )
    simulate.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="export the run's streaming busy/wait timeline: *.csv writes the "
        "windowed per-rank CSV, anything else a Chrome-trace/Perfetto JSON "
        "(forces a fresh simulation — cached points carry no timeline)",
    )
    _add_cache_flags(simulate)

    figure = sub.add_parser("figure", help="regenerate a figure or table of the paper")
    figure.add_argument(
        "--id",
        dest="figure_id",
        required=True,
        choices=(
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "table1", "table2", "table2-sweep", "caqr-sweep", "dag-caqr-sweep",
            "dag-cholesky-sweep", "dag-failures", "trace-hotspots",
        ),
        help="which artefact to regenerate",
    )
    figure.add_argument(
        "--cols",
        type=int,
        default=None,
        help="column count N of the panel (default: 64; caqr-sweep and "
        f"dag-caqr-sweep: the paper's widest N={CAQR_SWEEP_N}; "
        f"dag-cholesky-sweep: the matrix order, default {DAG_CHOLESKY_SWEEP_N[0]}; "
        f"dag-failures: the matrix order, default {DAG_FAILURES_SWEEP_N[0]})",
    )
    figure.add_argument(
        "--points",
        type=int,
        default=None,
        help="number of M values to sweep in fig4-fig8 (default: 3)",
    )
    figure.add_argument(
        "--rows",
        type=int,
        default=None,
        help="row count M of the table2-sweep / caqr-sweep / dag-caqr-sweep "
        "artefacts (default: the paper-scale workload)",
    )
    figure.add_argument(
        "--domains",
        type=str,
        default=None,
        help="comma-separated domains/cluster sweep for fig6/fig7/table2-sweep "
        "(default: the paper's sweep)",
    )
    figure.add_argument(
        "--want-q",
        action="store_true",
        help="also form the explicit Q factor (Table II scenario) in the fig4-fig8 sweeps",
    )
    figure.add_argument(
        "--tile-size",
        type=int,
        default=None,
        help="row/column tile size of the caqr-sweep (default: 64), "
        "dag-caqr-sweep, dag-cholesky-sweep and dag-failures (default: 128) "
        "artefacts",
    )
    figure.add_argument(
        "--panel-tree",
        choices=("flat", "binary", "grid-hierarchical"),
        default=None,
        help="restrict the caqr-sweep artefact to one panel reduction tree "
        "(default: all three families; dag-caqr-sweep: binary)",
    )
    figure.add_argument(
        "--placement",
        choices=PLACEMENT_POLICIES,
        default=None,
        help="tile placement policy of the dag-caqr-sweep and "
        "dag-cholesky-sweep artefacts (default: block)",
    )
    figure.add_argument(
        "--priority",
        choices=PRIORITY_POLICIES,
        default=None,
        help="restrict the dag-caqr-sweep / dag-cholesky-sweep artefacts to "
        "one ready-queue priority (default: all three policies)",
    )
    figure.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="simulate the sweep's points in this many parallel worker "
        "processes (fig4-fig8, table2-sweep, caqr-sweep; results are "
        "byte-identical to a serial run)",
    )
    figure.add_argument(
        "--failure-counts",
        type=str,
        default=None,
        help="comma-separated failure counts of the dag-failures sweep "
        "(default: 0,1,2,4)",
    )
    figure.add_argument(
        "--csv",
        type=str,
        default=None,
        help="write the series to this CSV file "
        "(dag-failures default: results/dag_failures.csv)",
    )
    _add_cache_flags(figure)

    serve = sub.add_parser(
        "serve", help="run the simulation service (JSON-lines protocol over TCP)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="interface to listen on")
    serve.add_argument(
        "--port", type=int, default=8642, help="TCP port (0 picks a free port)"
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes a batch of cold misses fans out over",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        help="how long to hold the first cold miss for batch-mates (default: 5)",
    )
    _add_cache_flags(serve)

    query = sub.add_parser(
        "query", help="query the simulation service (local, or --connect to a server)"
    )
    _add_point_flags(query)
    query.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="send the query to a running `repro serve` instead of answering locally",
    )
    query.add_argument(
        "--burst",
        type=int,
        default=None,
        help="send this many identical concurrent queries (single-flight probe; "
        "needs --connect)",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="fetch the server's cache/dedup counters instead of querying "
        "(needs --connect)",
    )
    query.add_argument(
        "--json",
        action="store_true",
        dest="raw_json",
        help="print the raw --stats reply as JSON instead of the pretty report",
    )
    query.add_argument(
        "--best-tile",
        action="store_true",
        help="best-config query: rank the --candidates tile sizes by the "
        "Eq. (1) predictor and simulate only the top-k shortlist",
    )
    query.add_argument(
        "--candidates",
        type=str,
        default=None,
        help="comma-separated tile-size candidates of --best-tile "
        "(default: 16,32,64,128)",
    )
    query.add_argument(
        "--top-k",
        type=int,
        default=3,
        help="most candidates allowed to escalate to full simulation (default: 3)",
    )
    query.add_argument(
        "--margin",
        type=float,
        default=0.5,
        help="predictor error band of the escalation shortlist (default: 0.5)",
    )
    query.add_argument(
        "--retries",
        type=int,
        default=None,
        help="transport retry budget of a --connect request: up to this many "
        "re-attempts with exponential backoff after a connect/read failure "
        "(default: 2; queries are idempotent, so retrying is safe)",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="connect/read timeout of each --connect attempt (default: 10)",
    )
    _add_cache_flags(query)
    return parser


def _add_point_flags(parser: argparse.ArgumentParser) -> None:
    """Flags selecting one evaluation point (shared by simulate and query)."""
    parser.add_argument(
        "--algorithm",
        choices=("tsqr", "scalapack", "caqr", "cholesky", "lu"),
        default="tsqr",
        help="algorithm to run (cholesky and lu execute on the task-DAG runtime)",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=None,
        help="number of rows M (default: 1048576; cholesky: the --cols order)",
    )
    parser.add_argument("--cols", type=int, default=64, help="number of columns N")
    parser.add_argument("--sites", type=int, choices=(1, 2, 4), default=4, help="grid sites used")
    parser.add_argument(
        "--domains-per-cluster", type=int, default=None, help="TSQR domains per cluster"
    )
    parser.add_argument("--want-q", action="store_true", help="also produce the Q factor")
    parser.add_argument(
        "--runtime",
        choices=("spmd", "dag"),
        default=None,
        help="CAQR execution runtime: the bulk-synchronous SPMD program or "
        "the task-DAG dataflow runtime (default: spmd; cholesky/lu points "
        "always run on the DAG runtime)",
    )
    parser.add_argument(
        "--tile-size",
        type=int,
        default=None,
        help="row/column tile size of a tiled (caqr/cholesky/lu) point",
    )
    parser.add_argument(
        "--placement",
        choices=PLACEMENT_POLICIES,
        default=None,
        help=f"tile placement policy of a DAG-runtime point (default: {DEFAULT_PLACEMENT})",
    )
    parser.add_argument(
        "--priority",
        choices=PRIORITY_POLICIES,
        default=None,
        help=f"ready-queue priority of a DAG-runtime point (default: {DEFAULT_PRIORITY})",
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """The persistent result-cache switches (shared by the simulating commands)."""
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent result cache entirely",
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="persistent result-cache directory "
        "(default: $REPRO_CACHE_DIR or results/cache)",
    )


def _store_from_args(args: argparse.Namespace) -> ResultCache | None:
    """The persistent store selected by the cache flags (None = bypass)."""
    if args.no_cache:
        if args.cache_dir is not None:
            raise ConfigurationError("--cache-dir and --no-cache are mutually exclusive")
        return None
    return ResultCache(args.cache_dir)


def _parse_domains(spec: str) -> tuple[int, ...]:
    """Parse a comma-separated domains/cluster sweep such as ``"1,16,64"``."""
    try:
        counts = tuple(int(d) for d in spec.split(",") if d.strip())
    except ValueError as exc:
        raise ConfigurationError(f"invalid domain count in {spec!r}: {exc}") from exc
    if not counts:
        raise ConfigurationError(f"no domain counts in {spec!r}")
    return counts


def _parse_failure_counts(spec: str) -> tuple[int, ...]:
    """Parse a comma-separated failure-count sweep such as ``"0,1,2,4"``."""
    try:
        counts = tuple(int(c) for c in spec.split(",") if c.strip())
    except ValueError as exc:
        raise ConfigurationError(f"invalid failure count in {spec!r}: {exc}") from exc
    if not counts:
        raise ConfigurationError(f"no failure counts in {spec!r}")
    if any(c < 0 for c in counts):
        raise ConfigurationError(f"failure counts must be >= 0, got {spec!r}")
    return counts


def _spread(values: list[int], points: int) -> list[int]:
    """First, last and evenly spaced interior elements of ``values``."""
    if points >= len(values):
        return values
    points = max(points, 2)
    idx = sorted({round(i * (len(values) - 1) / (points - 1)) for i in range(points)})
    return [values[i] for i in idx]


def _cmd_factor(args: argparse.Namespace) -> int:
    a = random_tall_skinny(args.rows, args.cols, seed=args.seed)
    result = tsqr(a, args.domains, tree=args.tree, want_q=args.want_q)
    r_ref = np.linalg.qr(a, mode="r")
    print(f"TSQR factorization of a {args.rows:,} x {args.cols} matrix "
          f"({args.domains or 'auto'} domains, {args.tree} tree)")
    print(f"  |R| agreement with LAPACK : {'yes' if r_factors_match(result.r, r_ref) else 'NO'}")
    if args.want_q and result.q is not None:
        q = result.q.explicit()
        print(f"  ||A - QR|| / ||A||        : {factorization_residual(a, q, result.r):.2e}")
        print(f"  ||I - Q^T Q||             : {orthogonality_error(q):.2e}")
    print(f"  reduction tree            : {result.tree.describe()}")
    return 0


def _point_config_from_args(args: argparse.Namespace) -> dict[str, object]:
    """Validate the point flags and build the query configuration they select.

    Shared by ``simulate`` and ``query`` so both commands fill the same
    defaults — and therefore hash to the same cache key for the same flags.
    """
    tiled = ("caqr", "cholesky", "lu")
    dag_only = ("cholesky", "lu")
    # Reject flags the requested algorithm would silently ignore.
    if args.runtime is not None and args.algorithm not in tiled:
        raise ConfigurationError(
            "--runtime only applies to the tiled algorithms (--algorithm caqr/cholesky/lu)"
        )
    if args.runtime == "spmd" and args.algorithm in dag_only:
        raise ConfigurationError(
            f"tiled {args.algorithm} only exists on the DAG runtime; drop --runtime spmd"
        )
    if args.tile_size is not None and args.algorithm not in tiled:
        raise ConfigurationError(
            "--tile-size only applies to the tiled algorithms (--algorithm caqr/cholesky/lu)"
        )
    uses_dag = args.runtime == "dag" or args.algorithm in dag_only
    if (args.placement or args.priority) and not uses_dag:
        raise ConfigurationError(
            "--placement/--priority only apply to --runtime dag (the SPMD "
            "program has a fixed schedule)"
        )
    if args.domains_per_cluster is not None and args.algorithm != "tsqr":
        raise ConfigurationError("--domains-per-cluster only applies to --algorithm tsqr")
    if args.want_q and args.algorithm == "caqr":
        raise ConfigurationError("the distributed CAQR computes R only (its Q stays implicit)")
    if args.want_q and args.algorithm in dag_only:
        raise ConfigurationError(
            f"tiled {args.algorithm} computes the factor only "
            "(its Q/L inverses stay implicit); drop --want-q"
        )
    # Cholesky is square: the order comes from --cols unless --rows agrees.
    rows = args.rows
    if rows is None:
        rows = args.cols if args.algorithm == "cholesky" else 1_048_576
    if args.algorithm == "cholesky" and rows != args.cols:
        raise ConfigurationError(
            f"tiled cholesky needs a square matrix, got {rows} x {args.cols}; "
            "pass matching --rows/--cols (or --cols alone)"
        )
    config: dict[str, object] = {
        "algorithm": args.algorithm,
        "m": rows,
        "n": args.cols,
        "n_sites": args.sites,
        "want_q": args.want_q,
    }
    if args.algorithm == "tsqr":
        config["domains_per_cluster"] = (
            args.domains_per_cluster if args.domains_per_cluster is not None else 64
        )
    if args.algorithm in tiled:
        config["tile_size"] = args.tile_size if args.tile_size is not None else 64
        config["runtime"] = "dag" if uses_dag else "spmd"
        if args.algorithm == "caqr":
            config["tree_kind"] = "binary"  # the CLI's panel-tree default
    if uses_dag:
        config["placement"] = args.placement or DEFAULT_PLACEMENT
        config["priority"] = args.priority or DEFAULT_PRIORITY
    # Failure injection (the simulate command only; query has no such flags).
    fail_ranks = getattr(args, "fail_rank", None)
    fail_times = getattr(args, "fail_at", None)
    if fail_ranks or fail_times:
        if not uses_dag:
            raise ConfigurationError(
                "--fail-rank/--fail-at need the task-DAG runtime: an SPMD "
                "program's communication structure is fixed in its text, so "
                "a rank death strands every survivor in a revoked collective "
                "with no way to re-place the lost work; run with --runtime "
                "dag (or --algorithm cholesky/lu) to get re-execution "
                "recovery"
            )
        if len(fail_ranks or ()) != len(fail_times or ()):
            raise ConfigurationError(
                "--fail-rank and --fail-at come in pairs: got "
                f"{len(fail_ranks or ())} rank(s) and {len(fail_times or ())} "
                "time(s)"
            )
        config["failures"] = tuple(zip(fail_ranks, fail_times))
    return config


def _print_cache_line(runner: ExperimentRunner) -> None:
    """One-line cache summary: how much work the persistent store saved."""
    store = runner.store
    if store is None:
        return
    print(f"\ncache: {runner.simulations_run} simulated, "
          f"{store.stats.hits} warm ({store.root})")


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = spec_from_config(_point_config_from_args(args))
    # A trace export needs the full streaming snapshot (histograms,
    # timelines), which is deliberately not serialised into the result
    # cache — force a live simulation instead of a warm answer.
    store = None if args.trace_out else _store_from_args(args)
    runner = ExperimentRunner(store=store)
    point = runner.run_point(spec)
    print(format_points([point.as_row()]))
    if args.trace_out:
        from repro.obs.export import write_perfetto_trace, write_timeline_csv

        if args.trace_out.endswith(".csv"):
            path = write_timeline_csv(args.trace_out, point.trace)
        else:
            path = write_perfetto_trace(
                args.trace_out, point.trace, title=f"repro-{spec.algorithm}"
            )
        print(f"\nstreaming timeline written to {path}")
    if point.critical_path_s is not None:
        print(f"\ncritical-path lower bound: {point.critical_path_s:.4f} s "
              f"({point.critical_path_s / point.time_s * 100:.1f}% of the makespan)")
    if point.recovery:
        rec = point.recovery
        dead = " ".join(str(r) for r in rec["dead_ranks"])
        print(f"\nrecovered from rank death(s) {dead}: "
              f"{rec['rounds']} round(s), {rec['tasks_reexecuted']} task(s) "
              f"re-executed ({rec['tasks_executed']} executed in recovery), "
              f"overhead {rec['makespan_overhead_s']:.4f} s "
              f"({rec['makespan_overhead_pct']:.1f}% of the failure-free run)")
    peak = runner.platform(args.sites).practical_peak_gflops()
    print(f"\npractical peak of the reservation: {peak:.0f} Gflop/s "
          f"({point.gflops / peak * 100:.1f}% achieved)")
    _print_cache_line(runner)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    # Reject flags that the requested artefact would silently ignore.
    if args.rows is not None and args.figure_id not in (
        "table2-sweep", "caqr-sweep", "dag-caqr-sweep", "trace-hotspots"
    ):
        raise ConfigurationError(
            "--rows only applies to --id table2-sweep, caqr-sweep, "
            "dag-caqr-sweep and trace-hotspots"
            + (
                " (tiled Cholesky is square; set the order with --cols)"
                if args.figure_id in ("dag-cholesky-sweep", "dag-failures")
                else ""
            )
        )
    if args.want_q and args.figure_id not in ("fig4", "fig5", "fig6", "fig7", "fig8"):
        raise ConfigurationError(
            "--want-q only applies to fig4..fig8 (the table2 artefacts include Q by "
            "definition, and the distributed CAQR computes R only)"
        )
    if args.domains and args.figure_id not in ("fig6", "fig7", "table2-sweep"):
        raise ConfigurationError("--domains only applies to fig6, fig7 and table2-sweep")
    if args.points is not None and args.figure_id not in (
        "fig4", "fig5", "fig6", "fig7", "fig8"
    ):
        raise ConfigurationError("--points only applies to fig4..fig8")
    if args.tile_size is not None and args.figure_id not in (
        "caqr-sweep", "dag-caqr-sweep", "dag-cholesky-sweep", "dag-failures",
        "trace-hotspots",
    ):
        raise ConfigurationError(
            "--tile-size only applies to --id caqr-sweep, dag-caqr-sweep, "
            "dag-cholesky-sweep, dag-failures and trace-hotspots"
        )
    if args.panel_tree is not None and args.figure_id not in (
        "caqr-sweep", "dag-caqr-sweep", "trace-hotspots"
    ):
        raise ConfigurationError(
            "--panel-tree only applies to --id caqr-sweep, dag-caqr-sweep "
            "and trace-hotspots"
            + (
                " (tiled Cholesky eliminates single-tile panels and has "
                "nothing to reduce)"
                if args.figure_id == "dag-cholesky-sweep"
                else ""
            )
        )
    if args.placement is not None and args.figure_id not in (
        "dag-caqr-sweep", "dag-cholesky-sweep", "dag-failures", "trace-hotspots"
    ):
        raise ConfigurationError(
            "--placement only applies to --id dag-caqr-sweep, "
            "dag-cholesky-sweep, dag-failures and trace-hotspots"
        )
    if args.priority is not None and args.figure_id not in (
        "dag-caqr-sweep", "dag-cholesky-sweep", "dag-failures", "trace-hotspots"
    ):
        raise ConfigurationError(
            "--priority only applies to --id dag-caqr-sweep, "
            "dag-cholesky-sweep, dag-failures and trace-hotspots"
        )
    if args.failure_counts is not None and args.figure_id != "dag-failures":
        raise ConfigurationError("--failure-counts only applies to --id dag-failures")
    if args.jobs is not None:
        if args.figure_id in ("fig3", "table1", "table2"):
            raise ConfigurationError(
                "--jobs only applies to the multi-point sweeps "
                "(fig4..fig8, table2-sweep, caqr-sweep, dag-caqr-sweep, "
                "dag-cholesky-sweep)"
            )
        if args.jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
    runner = ExperimentRunner(jobs=args.jobs or 1, store=_store_from_args(args))
    if args.cols is not None:
        n = args.cols
    else:
        # The general-matrix artefacts default to the paper's widest panel.
        n = (
            CAQR_SWEEP_N
            if args.figure_id == "caqr-sweep"
            else DAG_SWEEP_N
            if args.figure_id == "dag-caqr-sweep"
            else DAG_CHOLESKY_SWEEP_N[0]
            if args.figure_id == "dag-cholesky-sweep"
            else DAG_FAILURES_SWEEP_N[0]
            if args.figure_id == "dag-failures"
            else DAG_SWEEP_N
            if args.figure_id == "trace-hotspots"
            else 64
        )
    if args.figure_id == "fig3":
        rows = figure3_network(runner)
    elif args.figure_id == "table1":
        rows = table1(runner, n=n)
    elif args.figure_id == "table2":
        rows = table2(runner, n=n)
    elif args.figure_id == "table2-sweep":
        kwargs = {"n": n}
        if args.rows is not None:
            kwargs["m"] = args.rows  # invalid values are rejected by TSQRConfig
        if args.domains:
            kwargs["domain_counts"] = _parse_domains(args.domains)
        rows = table2_sweep(runner, **kwargs)
    elif args.figure_id == "caqr-sweep":
        kwargs = {"n": n}
        if args.rows is not None:
            kwargs["m_values"] = (args.rows,)  # rejected by CAQRConfig if invalid
        if args.tile_size is not None:
            kwargs["tile_size"] = args.tile_size
        if args.panel_tree is not None:
            kwargs["panel_trees"] = (args.panel_tree,)
        rows = caqr_sweep(runner, **kwargs)
    elif args.figure_id == "dag-caqr-sweep":
        kwargs = {"n": n}
        if args.rows is not None:
            kwargs["m_values"] = (args.rows,)  # rejected by DAGFactorizationConfig if invalid
        if args.tile_size is not None:
            kwargs["tile_size"] = args.tile_size
        if args.panel_tree is not None:
            kwargs["panel_tree"] = args.panel_tree
        if args.placement is not None:
            kwargs["placement"] = args.placement
        if args.priority is not None:
            kwargs["priorities"] = (args.priority,)
        rows = dag_caqr_sweep(runner, **kwargs)
    elif args.figure_id == "dag-cholesky-sweep":
        kwargs = {"n_values": (n,)}  # rejected by DAGFactorizationConfig if invalid
        if args.tile_size is not None:
            kwargs["tile_size"] = args.tile_size
        if args.placement is not None:
            kwargs["placement"] = args.placement
        if args.priority is not None:
            kwargs["priorities"] = (args.priority,)
        rows = dag_cholesky_sweep(runner, **kwargs)
    elif args.figure_id == "dag-failures":
        kwargs = {"n": n}  # rejected by DAGFactorizationConfig if invalid
        if args.tile_size is not None:
            kwargs["tile_size"] = args.tile_size
        if args.placement is not None:
            kwargs["placement"] = args.placement
        if args.priority is not None:
            kwargs["priority"] = args.priority
        if args.failure_counts is not None:
            kwargs["failure_counts"] = _parse_failure_counts(args.failure_counts)
        rows = dag_failures_sweep(runner, **kwargs)
    elif args.figure_id == "trace-hotspots":
        kwargs = {"n": n}
        if args.rows is not None:
            kwargs["m"] = args.rows  # rejected by DAGFactorizationConfig if invalid
        if args.tile_size is not None:
            kwargs["tile_size"] = args.tile_size
        if args.panel_tree is not None:
            kwargs["panel_tree"] = args.panel_tree
        if args.placement is not None:
            kwargs["placement"] = args.placement
        if args.priority is not None:
            kwargs["priority"] = args.priority
        rows = trace_hotspots_report(runner, **kwargs)
    else:
        builder = {"fig4": figure4, "fig5": figure5, "fig6": figure6, "fig7": figure7,
                   "fig8": figure8}[args.figure_id]
        kwargs = {"want_q": args.want_q}
        points = args.points if args.points is not None else 3
        if args.figure_id in ("fig4", "fig5", "fig8"):
            kwargs["m_values"] = reduced_m_values(n, points=points)
        elif args.figure_id in ("fig6", "fig7"):
            kwargs["m_values"] = _spread(
                figure67_m_values(n, single_site=args.figure_id == "fig7"), points
            )
            if args.domains:
                kwargs["domain_counts"] = _parse_domains(args.domains)
        fig = builder(runner, n, **kwargs)
        print(f"{fig.figure_id}: {fig.title}")
        rows = fig.as_rows()
    print(format_points(rows))
    _print_cache_line(runner)
    # The fault-tolerance sweep is an acceptance artefact: it always leaves
    # its CSV behind (CI uploads it), --csv only moves it elsewhere.
    csv_path = args.csv
    if csv_path is None and args.figure_id == "dag-failures":
        csv_path = "results/dag_failures.csv"
    if csv_path is None and args.figure_id == "trace-hotspots":
        csv_path = "results/trace_hotspots.csv"
    if csv_path:
        path = write_csv(csv_path, rows)
        print(f"\nseries written to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
    runner = ExperimentRunner(jobs=args.jobs, store=_store_from_args(args))
    service = SimulationService(runner, batch_window_s=args.batch_window_ms / 1e3)
    cache = service.cache

    async def _run() -> None:
        server = await service.serve(args.host, args.port)
        host, port = server.sockets[0].getsockname()[:2]
        where = cache.root if cache is not None else "memory only"
        print(f"repro service listening on {host}:{port} (cache: {where})", flush=True)
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _parse_hostport(spec: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` --connect target."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(f"--connect expects HOST:PORT, got {spec!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ConfigurationError(f"invalid port in --connect {spec!r}: {exc}") from exc


def _parse_tiles(spec: str) -> tuple[int, ...]:
    """Parse the comma-separated tile-size candidates of --best-tile."""
    try:
        tiles = tuple(dict.fromkeys(int(t) for t in spec.split(",") if t.strip()))
    except ValueError as exc:
        raise ConfigurationError(f"invalid tile size in {spec!r}: {exc}") from exc
    if not tiles:
        raise ConfigurationError(f"no tile sizes in {spec!r}")
    return tiles


def _cmd_query_best_tile(args: argparse.Namespace, runner: ExperimentRunner) -> int:
    """Best-config query: Eq. (1) ranks the candidates, top-k escalate."""
    if args.algorithm not in ("caqr", "cholesky", "lu"):
        raise ConfigurationError(
            "--best-tile only applies to the tiled algorithms "
            "(--algorithm caqr/cholesky/lu)"
        )
    if args.tile_size is not None:
        raise ConfigurationError("--best-tile sweeps --candidates; drop --tile-size")
    base = _point_config_from_args(args)
    tiles = _parse_tiles(args.candidates or "16,32,64,128")
    policy = EscalationPolicy(top_k=args.top_k, margin=args.margin)
    candidates = [spec_from_config({**base, "tile_size": t}) for t in tiles]
    result = policy.best_config(candidates, runner)
    simulated = {p.spec.tile_size: p for p in result.simulated}
    best_tile = result.best_candidate.spec.tile_size
    print(f"best-tile query: {args.algorithm} m={base['m']} n={base['n']} "
          f"sites={base['n_sites']} over {len(tiles)} candidates")
    print(f"{'tile':>6} {'predicted_s':>12} {'simulated_s':>12}")
    for candidate in result.ranked:
        tile = candidate.spec.tile_size
        point = simulated.get(tile)
        sim_txt = f"{point.time_s:.4f}" if point is not None else "-"
        mark = "   <- best" if tile == best_tile else ""
        print(f"{tile:>6} {candidate.predicted_s:>12.4f} {sim_txt:>12}{mark}")
    print(f"escalated {result.simulations} of {len(tiles)} candidates "
          f"(top_k={policy.top_k}, margin={policy.margin})")
    if result.degraded:
        print("degraded: true (simulation tier failed for "
              f"{len(result.errors)} shortlisted candidate(s): "
              + "; ".join(result.errors) + ")")
    if result.best is not None:
        print(f"best tile size: {best_tile} ({result.best.time_s:.4f} s simulated)")
    else:
        print(f"best tile size: {best_tile} "
              f"({result.best_candidate.predicted_s:.4f} s predicted — "
              "predictor-only answer)")
    _print_cache_line(runner)
    return 0


def _format_quantiles(q: dict) -> str:
    """One-line ``n/mean/p50/p95/p99/max`` rendering of a histogram summary."""
    return (f"n={q.get('n', 0)}  mean={q.get('mean', 0.0):.6g}  "
            f"p50={q.get('p50', 0.0):.6g}  p95={q.get('p95', 0.0):.6g}  "
            f"p99={q.get('p99', 0.0):.6g}  max={q.get('max', 0.0):.6g}")


def _print_service_stats(target: str, reply: dict) -> None:
    """Human-readable report of one ``stats`` protocol reply."""
    stats = reply.get("stats", {})
    print(f"service stats ({target})")
    print(f"  queries ............... {stats.get('queries', 0)}")
    print(f"  memory hits ........... {stats.get('memory_hits', 0)}")
    print(f"  disk hits ............. {stats.get('disk_hits', 0)}")
    print(f"  single-flight joins ... {stats.get('single_flight_joins', 0)}")
    print(f"  simulations ........... {stats.get('simulations', 0)} "
          f"(runner total: {stats.get('runner_simulations', 0)})")
    print(f"  batches ............... {stats.get('batches', 0)} "
          f"(largest: {stats.get('largest_batch', 0)})")
    print(f"  failed simulations .... {stats.get('failed_simulations', 0)}")
    cache = stats.get("cache")
    if cache is not None:
        print("\ncache (memory LRU over the content-addressed disk store)")
        print(f"  memory hits {cache.get('memory_hits', 0)} | "
              f"disk hits {cache.get('disk_hits', 0)} | "
              f"misses {cache.get('misses', 0)} | "
              f"stores {cache.get('stores', 0)} | "
              f"stale {cache.get('stale_entries', 0)} | "
              f"corrupt {cache.get('corrupt_entries', 0)}")
    metrics = stats.get("metrics")
    if metrics is not None:
        latencies = metrics.get("request_latency_s", {})
        if latencies:
            print("\nrequest latency (wall seconds)")
            for op, q in latencies.items():
                print(f"  {op:<12} {_format_quantiles(q)}")
        print("\nqueue depth at enqueue")
        print(f"  {_format_quantiles(metrics.get('queue_depth', {}))}")
        print("batch size at flush")
        print(f"  {_format_quantiles(metrics.get('batch_size', {}))}")


def _cmd_query(args: argparse.Namespace) -> int:
    if args.burst is not None and args.burst < 1:
        raise ConfigurationError(f"--burst must be >= 1, got {args.burst}")
    if args.stats and (args.burst is not None or args.best_tile):
        raise ConfigurationError("--stats is a request of its own; drop --burst/--best-tile")
    if args.raw_json and not args.stats:
        raise ConfigurationError("--json only applies to --stats")
    if args.candidates is not None and not args.best_tile:
        raise ConfigurationError("--candidates only applies to --best-tile")
    if (args.retries is not None or args.timeout is not None) and args.connect is None:
        raise ConfigurationError(
            "--retries/--timeout shape the TCP client; a local query never "
            "leaves the process — drop them or add --connect"
        )
    if args.retries is not None and args.retries < 0:
        raise ConfigurationError(f"--retries must be >= 0, got {args.retries}")
    if args.timeout is not None and args.timeout <= 0:
        raise ConfigurationError(f"--timeout must be > 0 seconds, got {args.timeout}")
    if args.connect is not None:
        # Remote mode: the server owns the cache; local cache flags are noise.
        if args.no_cache or args.cache_dir is not None:
            raise ConfigurationError(
                "--no-cache/--cache-dir configure the local cache; with "
                "--connect the server owns the cache"
            )
        if args.best_tile:
            raise ConfigurationError(
                "--best-tile queries are answered locally; drop --connect"
            )
        host, port = _parse_hostport(args.connect)
        client = {}
        if args.retries is not None:
            client["retries"] = args.retries
        if args.timeout is not None:
            client["timeout_s"] = args.timeout
        if args.stats:
            reply = remote_stats(host, port, **client)
            if args.raw_json:
                print(json.dumps(reply, indent=2, sort_keys=True))
            else:
                _print_service_stats(args.connect, reply)
            return 0
        config = _point_config_from_args(args)
        if args.burst is not None:
            replies = remote_burst(host, port, config, args.burst, **client)
            counts: dict[str, int] = {}
            for reply in replies:
                source = str(reply.get("source", "error"))
                counts[source] = counts.get(source, 0) + 1
            print(json.dumps(
                {"burst": args.burst, "sources": counts, "reply": replies[0]},
                indent=2, sort_keys=True,
            ))
            return 0
        print(json.dumps(remote_query(host, port, config, **client),
                         indent=2, sort_keys=True))
        return 0
    if args.stats:
        raise ConfigurationError("--stats needs --connect (it reads a running server)")
    if args.burst is not None:
        raise ConfigurationError(
            "--burst needs --connect (the single-flight probe is a client-side test)"
        )
    runner = ExperimentRunner(store=_store_from_args(args))
    if args.best_tile:
        return _cmd_query_best_tile(args, runner)
    service = SimulationService(runner, batch_window_s=0.0)
    reply = asyncio.run(service.submit(_point_config_from_args(args)))
    print(json.dumps(reply.as_dict(), indent=2, sort_keys=True))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro`` and the ``repro-grid`` script.

    A :class:`~repro.exceptions.ReproError` (an invalid configuration, a
    failed simulation, an unreachable server) is reported as one
    ``error: <message>`` line on stderr with exit code 2, not a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "factor": _cmd_factor,
        "simulate": _cmd_simulate,
        "figure": _cmd_figure,
        "serve": _cmd_serve,
        "query": _cmd_query,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
