"""Benchmark: the simulation service — cache tiers and single-flight dedup.

Not a figure of the paper: this tracks the *service layer's* speed so future
cache/serving changes can be compared against the recorded numbers.  One
256-rank task-DAG CAQR point (4 sites of the paper's Grid'5000 reservation)
is served three ways:

* **cold** — a genuine simulation through the runner (the price every query
  paid before the service tier existed);
* **warm, memory tier** — the same canonical key answered by the in-process
  LRU front;
* **warm, disk tier** — a fresh service instance over the same on-disk store
  (the cross-invocation path ``repro figure`` re-runs take).

Two acceptance gates are asserted, not just recorded:

* each warm tier answers at least ``WARM_SPEEDUP_FLOOR`` (100x) faster than
  the cold simulation;
* a burst of ``BURST_N`` identical concurrent queries runs **exactly one**
  simulation — the single-flight dedup contract.

The machine-readable trajectory (latencies, speedups, warm queries/s, dedup
factor, cache counters) goes to the git-ignored
``results/local/BENCH_service.json``, with the committed
``results/BENCH_service.json`` echoed back as ``baseline`` so a regression
investigation always has both runs side by side.
"""

from __future__ import annotations

import asyncio
import time

from repro.experiments.runner import ExperimentRunner
from repro.service import ENGINE_SEMANTICS_VERSION, ResultCache, SimulationService

from benchmarks.conftest import load_bench_json, report_rows

#: The 256-rank evaluation point every tier serves (4 sites x 32 nodes x 2).
POINT = {"algorithm": "caqr", "runtime": "dag", "m": 16384, "n": 128,
         "n_sites": 4, "tile_size": 32}

#: Warm answers must beat the cold simulation by at least this factor.
WARM_SPEEDUP_FLOOR = 100.0
#: Size of the duplicate concurrent burst (and its expected dedup factor).
BURST_N = 32
#: Repetitions used to time the warm tiers (single shots are timer noise).
WARM_REPS = 50


def _submit(service: SimulationService, config=POINT):
    return asyncio.run(service.submit(config))


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_service_cache_tiers_and_single_flight(tmp_path, bench_json, local_results_dir):
    baseline = load_bench_json("service")
    store_dir = tmp_path / "cache"

    # --- cold: one real simulation of the 256-rank DAG point ------------
    service = SimulationService(ExperimentRunner(store=ResultCache(store_dir)))
    cold_s, cold = _timed(lambda: _submit(service))
    assert cold.source == "simulated"
    assert service.runner.simulations_run == 1

    # --- warm, memory tier ----------------------------------------------
    def _memory_reps():
        for _ in range(WARM_REPS):
            assert _submit(service).source == "memory"
    memory_total_s, _ = _timed(_memory_reps)
    memory_s = memory_total_s / WARM_REPS

    # --- warm, disk tier (fresh process stand-in: fresh service + store) -
    def _disk_reps():
        for _ in range(WARM_REPS):
            fresh = SimulationService(ExperimentRunner(store=ResultCache(store_dir)))
            reply = _submit(fresh)
            assert reply.source == "disk"
            assert fresh.runner.simulations_run == 0
    disk_total_s, _ = _timed(_disk_reps)
    disk_s = disk_total_s / WARM_REPS

    # --- single-flight: a duplicate burst runs exactly one simulation ----
    burst_service = SimulationService(
        ExperimentRunner(store=ResultCache(tmp_path / "burst-cache"))
    )

    async def _burst():
        return await asyncio.gather(
            *(burst_service.submit(POINT) for _ in range(BURST_N))
        )

    burst_s, replies = _timed(lambda: asyncio.run(_burst()))
    sources = [r.source for r in replies]
    assert burst_service.runner.simulations_run == 1  # the dedup contract
    assert sources.count("simulated") == 1
    assert sources.count("single-flight") == BURST_N - 1
    assert len({r.point.time_s for r in replies}) == 1
    dedup_factor = BURST_N / burst_service.runner.simulations_run

    # --- the acceptance gates -------------------------------------------
    memory_speedup = cold_s / memory_s
    disk_speedup = cold_s / disk_s
    failures = []
    if memory_speedup < WARM_SPEEDUP_FLOOR:
        failures.append(
            f"memory tier speedup {memory_speedup:.0f}x under the "
            f"{WARM_SPEEDUP_FLOOR:.0f}x floor (cold {cold_s:.3f}s, "
            f"warm {memory_s * 1e6:.0f}us)"
        )
    if disk_speedup < WARM_SPEEDUP_FLOOR:
        failures.append(
            f"disk tier speedup {disk_speedup:.0f}x under the "
            f"{WARM_SPEEDUP_FLOOR:.0f}x floor (cold {cold_s:.3f}s, "
            f"warm {disk_s * 1e3:.2f}ms)"
        )

    rows = [
        {"tier": "cold (simulate)", "latency_s": round(cold_s, 6),
         "speedup_vs_cold": 1.0, "queries_per_s": round(1.0 / cold_s, 2)},
        {"tier": "warm (memory)", "latency_s": round(memory_s, 6),
         "speedup_vs_cold": round(memory_speedup, 1),
         "queries_per_s": round(1.0 / memory_s, 2)},
        {"tier": "warm (disk)", "latency_s": round(disk_s, 6),
         "speedup_vs_cold": round(disk_speedup, 1),
         "queries_per_s": round(1.0 / disk_s, 2)},
    ]
    report_rows("service: query latency by cache tier", rows, local_results_dir,
                "service_tiers.csv")
    print(f"single-flight: burst of {BURST_N} identical queries -> "
          f"{burst_service.runner.simulations_run} simulation(s) in "
          f"{burst_s:.3f}s (dedup factor {dedup_factor:.0f}x)")

    bench_json("service", {
        "engine_semantics": ENGINE_SEMANTICS_VERSION,
        "point": POINT,
        "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
        "cold_s": cold_s,
        "warm_memory_s": memory_s,
        "warm_disk_s": disk_s,
        "memory_speedup_vs_cold": memory_speedup,
        "disk_speedup_vs_cold": disk_speedup,
        "warm_memory_queries_per_s": 1.0 / memory_s,
        "warm_disk_queries_per_s": 1.0 / disk_s,
        "burst": {
            "n": BURST_N,
            "simulations": burst_service.runner.simulations_run,
            "single_flight_joins": burst_service.stats.single_flight_joins,
            "dedup_factor": dedup_factor,
            "wall_s": burst_s,
        },
        "cache_stats": service.cache.stats.as_dict(),
        "gate_failures": failures,
        "baseline": {
            k: baseline.get(k) for k in
            ("cold_s", "warm_memory_s", "warm_disk_s",
             "memory_speedup_vs_cold", "disk_speedup_vs_cold")
        } if baseline else None,
    })
    assert not failures, "; ".join(failures)
