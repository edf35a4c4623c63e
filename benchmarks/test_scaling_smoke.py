"""Benchmark: simulator engine scaling — wall time versus number of ranks.

Not a figure of the paper: this tracks the *simulator's own* speed so future
engine changes can be compared against the recorded baseline.  A
virtual-payload TSQR run is simulated on synthetic 4-cluster grids of
32/128/512/2048/8192 ranks (32768 with ``REPRO_BENCH_FULL=1``); wall-clock
time per rank count goes to ``results/local/scaling_smoke.csv`` and the
machine-readable trajectory — wall time, engine events/s and speedup over the
per-rank-count baseline — to ``results/local/BENCH_engine.json`` (git
ignores ``results/local/``; a run rewrites no tracked file).

Three gates run against the committed ``results/BENCH_engine.json``, so an
engine regression fails tier-1 instead of silently shipping, and the
reference moves only when a new recording is committed:

* wall clock per rank count within 2x of the recorded run (absolute 1s floor
  so slow CI hardware cannot flake the suite);
* events/s per rank count at least half the recorded rate (rows too fast to
  time reliably are skipped);
* monotone-or-flat events/s across the sweep itself, out to 8192 ranks: no
  rank count may fall below half the best rate at smaller counts (the
  retired thread-per-rank engine's collapse to 0.14x by 2048 ranks is
  exactly what this catches).

``speedup_vs_baseline`` is measured against a per-rank-count baseline map
recorded *once*: the pre-fast-path seed engine for 32-512 ranks, the
thread-backed engine's committed 2048-rank row, and for larger counts the
first recorded measurement (speedup 1.0 on first recording, tracked
thereafter).  Every row gets a real number — no nulls beyond the seed's
largest measured rank count.

A 512-rank task-DAG CAQR point rides along under the same wall and events/s
gates (its own baseline row in ``BENCH_engine.json``), so the dataflow
runtime's engine cost is tracked next to the SPMD path's.  A 512-rank
DAG-Cholesky point (the algorithm registry's first non-QR scenario, ~45k
tasks) joins it under the same gates, so graph construction and scheduling
cost is tracked for a dense 2-D dependence structure too.

A fourth section measures the always-on streaming-observability layer: the
512- and 2048-rank TSQR rows re-run with ``streaming_stats=False`` next to a
streaming run, best of paired measurements, and the streaming wall must stay
within 10% (plus a small absolute slack) of the bare run — the overhead
budget the observability layer was designed against.  Rows go to
``results/local/scaling_smoke_tracing.csv`` and ``BENCH_engine.json`` under
``tracing_overhead``.
"""

from __future__ import annotations

import time

from repro.dag import DAGFactorizationConfig, run_dag_factorization
from repro.gridsim import (
    ClusterSpec,
    GridSpec,
    KernelRateModel,
    LinkSpec,
    NetworkModel,
    NodeSpec,
    Platform,
    ProcessorSpec,
    block_placement,
)
from repro.tsqr.parallel import TSQRConfig, run_parallel_tsqr

from benchmarks.conftest import (
    events_flatness_failures,
    events_gate_failures,
    full_sweep,
    load_bench_json,
    report_rows,
    wall_gate_failures,
)

#: Rank counts of the sweep (4 clusters x nodes x 2 processes/node).
RANK_COUNTS = (32, 128, 512, 2048, 8192)
#: Extra scale exercised by the full sweep only.
FULL_RANK_COUNTS = (32768,)

#: Per-rank-count baselines of the ``speedup_vs_baseline`` column.  32-512 are
#: the pre-fast-path seed engine's scaling_smoke.csv rows; 2048 is the
#: thread-backed engine's committed BENCH row (1.69s, 3.6k events/s — the
#: number the generator core was built to fix).  Counts absent here (8192,
#: 32768) are pinned by their first recorded measurement and carried forward
#: in the BENCH file, so every row always reports a real speedup.
BASELINE_WALL_S = {32: 0.006, 128: 0.068, 512: 0.439, 2048: 1.6898}

#: Wall-clock gate: at most this factor over the recorded run per rank count…
REGRESSION_FACTOR = 2.0
#: …but never failing below this absolute wall time (CI hardware headroom).
REGRESSION_FLOOR_S = 1.0
#: Events/s gate: at least ``1/REGRESSION_FACTOR`` of the recorded rate, for
#: rows that ran long enough for the rate to be signal rather than noise.
EVENTS_GATE_MIN_WALL_S = 0.01
#: Flatness gate: no rank count below this fraction of the sweep's best rate.
FLATNESS_COLLAPSE_RATIO = 0.5

#: Rank counts of the streaming-stats overhead comparison.
TRACING_OVERHEAD_RANKS = (512, 2048)
#: Streaming on may cost at most 10% over streaming off…
TRACING_OVERHEAD_FACTOR = 1.10
#: …plus a small absolute slack so sub-second rows cannot flake on
#: scheduler jitter.
TRACING_OVERHEAD_SLACK_S = 0.15
#: Each mode is measured this many times; the best wall is kept.
TRACING_OVERHEAD_REPEATS = 2


def _platform(n_ranks: int) -> Platform:
    clusters, ppn = 4, 2
    nodes = n_ranks // (clusters * ppn)
    node = NodeSpec(processor=ProcessorSpec("smoke-cpu", 8.0, 3.67), processes_per_node=ppn)
    grid = GridSpec(
        name=f"smoke-grid-{n_ranks}",
        clusters=tuple(
            ClusterSpec(name=f"site{i}", n_nodes=nodes, node=node) for i in range(clusters)
        ),
    )
    network = NetworkModel(
        intra_node=LinkSpec.from_us_mbits(17.0, 5000.0),
        intra_cluster=LinkSpec.from_ms_mbits(0.06, 890.0),
        inter_cluster_default=LinkSpec.from_ms_mbits(8.0, 90.0),
    )
    placement = block_placement(grid, nodes_per_cluster=nodes, processes_per_node=ppn)
    return Platform(
        grid=grid,
        network=network,
        placement=placement,
        kernel_model=KernelRateModel(),
        name=f"smoke-{n_ranks}",
    )


def test_engine_scaling_smoke(local_results_dir, bench_json):
    baseline = load_bench_json("engine") or {}
    prev_rows = baseline.get("rows", [])
    prev_dag_rows = [r for r in [(baseline.get("dag") or {}).get("row")] if r]
    prev_chol_rows = [r for r in [(baseline.get("dag_cholesky") or {}).get("row")] if r]

    # Per-rank-count speedup baselines: the seed constants, extended by
    # whatever the committed recording pinned (JSON keys arrive as strings).
    baselines = dict(BASELINE_WALL_S)
    for key, wall in (baseline.get("baseline_wall_s") or {}).items():
        baselines.setdefault(int(key), wall)

    rank_counts = RANK_COUNTS + (FULL_RANK_COUNTS if full_sweep() else ())

    rows = []
    bench_rows = []
    for n_ranks in rank_counts:
        platform = _platform(n_ranks)
        config = TSQRConfig(m=n_ranks * 4096, n=64)  # virtual payload
        start = time.perf_counter()
        result = run_parallel_tsqr(platform, config)
        wall_s = time.perf_counter() - start
        events = result.trace.total_events
        # First measurement of a new rank count becomes its baseline, pinned
        # once a recording carrying it is committed.
        base_wall = baselines.setdefault(n_ranks, round(wall_s, 4))
        rows.append(
            {
                "ranks": n_ranks,
                "wall time (s)": round(wall_s, 3),
                "simulated time (s)": round(result.makespan_s, 6),
                "Gflop/s": round(result.gflops, 2),
                "messages": result.trace.total_messages,
            }
        )
        bench_rows.append(
            {
                "ranks": n_ranks,
                "wall_s": round(wall_s, 4),
                "simulated_s": round(result.makespan_s, 6),
                "messages": result.trace.total_messages,
                "events": events,
                "events_per_s": round(events / wall_s, 1) if wall_s > 0 else None,
                "speedup_vs_baseline": round(base_wall / wall_s, 2) if wall_s > 0 else None,
            }
        )
        # Every row — including the 32768-rank full-sweep one — must complete
        # in seconds, not minutes.
        assert result.makespan_s > 0.0
        assert wall_s < 30.0
    report_rows(
        "Engine scaling smoke (wall time vs ranks)", rows, local_results_dir,
        "scaling_smoke.csv",
    )

    # A 512-rank task-DAG CAQR point tracks the dataflow runtime's engine
    # cost (ready-queue + per-task yields + versioned stores) alongside the
    # SPMD path: ~25k tasks, events/s and simulated makespan recorded.
    dag_platform = _platform(512)
    dag_config = DAGFactorizationConfig(m=512 * 512, n=128, tile_size=64, priority="critical-path")
    start = time.perf_counter()
    dag_result = run_dag_factorization(dag_platform, dag_config)
    dag_wall = time.perf_counter() - start
    dag_events = dag_result.trace.total_events
    dag_row = {
        "ranks": 512,
        "wall_s": round(dag_wall, 4),
        "simulated_s": round(dag_result.makespan_s, 6),
        "critical_path_s": round(dag_result.critical_path_s, 6),
        "tasks": dag_result.graph.n_tasks,
        "events": dag_events,
        "events_per_s": round(dag_events / dag_wall, 1) if dag_wall > 0 else None,
    }
    report_rows(
        "DAG runtime smoke (512 ranks)", [dag_row], local_results_dir,
        "scaling_smoke_dag.csv",
    )
    assert dag_result.critical_path_s <= dag_result.makespan_s
    assert dag_wall < 30.0

    # The registry's first non-QR scenario on the same 512-rank platform:
    # a 4096-point tiled Cholesky (64 x 64 tiles, ~45k tasks) whose trailing
    # updates fan out quadratically — a denser dependence structure than the
    # panel-chained CAQR graph, tracked under the same gates.
    chol_config = DAGFactorizationConfig(
        m=4096, n=4096, tile_size=64, priority="critical-path", algorithm="cholesky"
    )
    start = time.perf_counter()
    chol_result = run_dag_factorization(dag_platform, chol_config)
    chol_wall = time.perf_counter() - start
    chol_events = chol_result.trace.total_events
    chol_row = {
        "ranks": 512,
        "wall_s": round(chol_wall, 4),
        "simulated_s": round(chol_result.makespan_s, 6),
        "critical_path_s": round(chol_result.critical_path_s, 6),
        "tasks": chol_result.graph.n_tasks,
        "events": chol_events,
        "events_per_s": round(chol_events / chol_wall, 1) if chol_wall > 0 else None,
    }
    report_rows(
        "DAG-Cholesky runtime smoke (512 ranks)",
        [chol_row],
        local_results_dir,
        "scaling_smoke_dag_cholesky.csv",
    )
    assert chol_result.critical_path_s <= chol_result.makespan_s
    assert chol_wall < 30.0

    # Streaming-observability overhead: the always-on statistics layer may
    # cost at most TRACING_OVERHEAD_FACTOR over a run with streaming off.
    # Paired best-of-N runs per rank count (same platform, same config,
    # alternating modes) keep CI noise out of the ratio; a small absolute
    # slack keeps sub-second rows from flaking on scheduler jitter.
    overhead_rows = []
    overhead_failures = []
    for n_ranks in TRACING_OVERHEAD_RANKS:
        platform = _platform(n_ranks)
        config = TSQRConfig(m=n_ranks * 4096, n=64)
        wall_on = wall_off = float("inf")
        for _ in range(TRACING_OVERHEAD_REPEATS):
            start = time.perf_counter()
            run_parallel_tsqr(platform, config, streaming_stats=False)
            wall_off = min(wall_off, time.perf_counter() - start)
            start = time.perf_counter()
            result = run_parallel_tsqr(platform, config, streaming_stats=True)
            wall_on = min(wall_on, time.perf_counter() - start)
        assert result.trace.stats is not None  # streaming mode actually ran
        limit = wall_off * TRACING_OVERHEAD_FACTOR + TRACING_OVERHEAD_SLACK_S
        overhead_rows.append(
            {
                "ranks": n_ranks,
                "wall_streaming_s": round(wall_on, 4),
                "wall_no_streaming_s": round(wall_off, 4),
                "overhead_pct": round((wall_on / wall_off - 1.0) * 100, 1)
                if wall_off > 0 else None,
            }
        )
        if wall_on > limit:
            overhead_failures.append(
                f"tracing overhead at {n_ranks} ranks: {wall_on:.3f}s streaming "
                f"vs {wall_off:.3f}s without (limit {limit:.3f}s)"
            )
    report_rows(
        "Streaming-stats overhead (wall on vs off)",
        overhead_rows,
        local_results_dir,
        "scaling_smoke_tracing.csv",
    )

    # Gate limits derive from the committed baseline; the fresh artifact
    # records that baseline next to the fresh numbers, so a CI failure
    # uploads both.
    bench_json(
        "engine",
        {
            "benchmark": "engine_scaling_smoke",
            "workload": "virtual-payload TSQR, M = ranks * 4096, N = 64, "
                        "4 clusters x 2 processes/node",
            "baseline_wall_s": {n: baselines[n] for n in sorted(baselines)},
            "regression_gate": {
                "wall_factor": REGRESSION_FACTOR,
                "wall_floor_s": REGRESSION_FLOOR_S,
                "events_factor": REGRESSION_FACTOR,
                "events_min_wall_s": EVENTS_GATE_MIN_WALL_S,
                "flatness_collapse_ratio": FLATNESS_COLLAPSE_RATIO,
                "recorded_rows": prev_rows,
            },
            "rows": bench_rows,
            "dag": {
                "workload": "virtual-payload DAG-CAQR, M = 512 * 512, N = 128, "
                            "tile 64, critical-path priority, block placement",
                "recorded_row": prev_dag_rows[0] if prev_dag_rows else None,
                "row": dag_row,
            },
            "dag_cholesky": {
                "workload": "virtual-payload DAG-Cholesky, N = 4096, tile 64, "
                            "critical-path priority, block placement",
                "recorded_row": prev_chol_rows[0] if prev_chol_rows else None,
                "row": chol_row,
            },
            "tracing_overhead": {
                "workload": "virtual-payload TSQR, streaming stats on vs off, "
                            "best of paired runs",
                "gate": {
                    "factor": TRACING_OVERHEAD_FACTOR,
                    "slack_s": TRACING_OVERHEAD_SLACK_S,
                },
                "rows": overhead_rows,
            },
        },
    )

    failures = wall_gate_failures(
        bench_rows, prev_rows, factor=REGRESSION_FACTOR, floor_s=REGRESSION_FLOOR_S
    )
    failures += events_gate_failures(
        bench_rows, prev_rows,
        factor=REGRESSION_FACTOR, min_wall_s=EVENTS_GATE_MIN_WALL_S,
    )
    failures += wall_gate_failures(
        [dag_row], prev_dag_rows,
        factor=REGRESSION_FACTOR, floor_s=REGRESSION_FLOOR_S, label="DAG ",
    )
    failures += events_gate_failures(
        [dag_row], prev_dag_rows,
        factor=REGRESSION_FACTOR, min_wall_s=EVENTS_GATE_MIN_WALL_S, label="DAG ",
    )
    failures += wall_gate_failures(
        [chol_row], prev_chol_rows,
        factor=REGRESSION_FACTOR, floor_s=REGRESSION_FLOOR_S, label="DAG-Cholesky ",
    )
    failures += events_gate_failures(
        [chol_row], prev_chol_rows,
        factor=REGRESSION_FACTOR, min_wall_s=EVENTS_GATE_MIN_WALL_S,
        label="DAG-Cholesky ",
    )
    # The flat profile is promised out to 8192 ranks — the full-sweep
    # 32768 row is tracked by the wall and events/s gates but sits at memory
    # scales where the rate legitimately dips below the flatness floor.
    failures += events_flatness_failures(
        [r for r in bench_rows if r["ranks"] <= RANK_COUNTS[-1]],
        collapse_ratio=FLATNESS_COLLAPSE_RATIO,
        min_wall_s=EVENTS_GATE_MIN_WALL_S,
    )
    failures += overhead_failures
    assert not failures, "engine regression gate:\n  " + "\n  ".join(failures)
