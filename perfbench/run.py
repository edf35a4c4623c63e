"""Benchmark command: run one workload in this process and print one JSON line.

    python3 perfbench/run.py --workload tsqr-8192 --seed 1 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` first
runs the same workload untraced for one round in a child process, then runs
one round under cProfile here and reports the per-layer split, the tracing
overhead, and checks that both runs simulated the same thing.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is non-zero when any operation failed its check.  Raw per-run
records and profiles go to ``perfbench/out/``.
"""

from __future__ import annotations

import time

_SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
#: Wall limit of the untraced reference child of a traced run.
CHILD_TIMEOUT_S = 170.0
#: How long the query sampler may take to finish its slice and report.
SAMPLER_TIMEOUT_S = 30.0


def process_age_s() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


#: Process start on the perf_counter time line: set-up is timed from here.
PROCESS_START = _SCRIPT_START - process_age_s()


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tsqr-8192", "fig8-sweep", "dag-cholesky-512"))
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"],
                        help="measured time; whole rounds run up to the round boundary "
                             "nearest to it (at least one round; default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--raw-out", type=Path, default=None,
                        help="where to write the raw per-run record")
    parser.add_argument("--query-sampler", type=Path, default=None, metavar="STORE",
                        help=argparse.SUPPRESS)  # the sampler process of a measured run
    return parser.parse_args(argv)


def bootstrap() -> Path | None:
    """Put the checkout's ``src`` first on the path; the package directory,
    or None when this directory holds no program to measure.

    Every ``REPRO_*`` variable is dropped from the environment first, so that
    this process, its query sampler and its untraced reference child all
    measure the default configuration (streaming stats on, default graph
    cache, no shared result store), whatever the caller exported."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {src}/repro", file=sys.stderr)
        return None
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(src), str(ROOT)]
    return src / "repro"


def check_package(package_dir: Path) -> None:
    """Refuse to measure a ``repro`` imported from anywhere but this checkout."""
    import repro

    if Path(repro.__file__).resolve().parent != package_dir.resolve():
        raise RuntimeError(f"imported {repro.__file__}, not the checkout's package")


# ------------------------------------------------------------------ untraced

def measure(args: argparse.Namespace, work_dir: Path, package_dir: Path) -> dict:
    """Set up, run whole rounds for ``--seconds``, check; the raw record."""
    from perfbench.workloads import WORKLOADS, FirstEvent

    workload = WORKLOADS[args.workload]()
    sampler = None
    if not workload.QUERIES:
        # Started first so that its own start-up overlaps set-up, not rounds.
        sampler = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--query-sampler", str(work_dir / "sampler")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
    try:
        first = FirstEvent()
        workload.import_program()
        imported = time.perf_counter()
        check_package(package_dir)
        workload.setup(args.seed, work_dir)
        if sampler is not None:
            sampler.stdin.write("go\n")
            sampler.stdin.flush()
        first.arm()
        rounds = []
        measured = 0.0
        while True:
            t0 = time.perf_counter()
            rnd = workload.run_round(len(rounds), first)
            measured += time.perf_counter() - t0
            rnd.run_checks()
            rounds.append(rnd)
            # Stop at the round boundary nearest to --seconds, so that a run
            # measures that long on average whatever its round length.
            if args.seconds - measured <= measured / len(rounds) / 2:
                break
        first.disarm()
        if sampler is not None:
            out, _ = sampler.communicate("stop\n", timeout=SAMPLER_TIMEOUT_S)
            if sampler.returncode != 0:
                raise RuntimeError("query sampler failed")
            queries = json.loads(out.splitlines()[-1])
        else:
            queries = {
                "memory_slices": [x for r in rounds for x in r.memory_slices],
                "disk_slices": [x for r in rounds for x in r.disk_slices],
                "cold_overhead_ms": [x for r in rounds for x in r.cold_overhead_ms],
                "attempted": 0, "failed": 0, "failures": [],
            }
    finally:
        if sampler is not None and sampler.poll() is None:
            sampler.kill()
            sampler.wait()
    if first.stamp is None:
        raise RuntimeError("no simulated event was recorded")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Averages over the run, not medians over its rounds: this host's speed
    # flips between a fast and a slow phase many times a second, in
    # proportions that drift over seconds, and a median of three rounds
    # flips with it where a mean moves by a third.
    sim_s = sum(r.sim_s for r in rounds)
    metrics = {
        "setup_s": (first.stamp - PROCESS_START, "s"),
        "wall_s": (statistics.fmean(r.wall_s for r in rounds), "s"),
        "events_per_s": (sum(r.events for r in rounds) / sim_s, "events/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        # Time-averaged medians: the mean over the run's replay slices of
        # each slice's median latency.
        "warm_query_p50_ms": (statistics.fmean(queries["memory_slices"]), "ms"),
        "disk_query_p50_ms": (statistics.fmean(queries["disk_slices"]), "ms"),
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": sum(r.attempted for r in rounds) + queries["attempted"],
        "failed": sum(r.failed for r in rounds) + queries["failed"],
        "failures": ([f for r in rounds for f in r.failures] + queries["failures"])[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup": {"import_s": imported - PROCESS_START, "setup_s": first.stamp - PROCESS_START},
        "rounds": [
            {"wall_s": r.wall_s, "sim_s": r.sim_s, "events": r.events,
             "outcomes": r.outcomes, "extra": r.extra}
            for r in rounds
        ],
        "queries": queries,
    }


# -------------------------------------------------------------------- traced

def untraced_reference(args: argparse.Namespace) -> dict:
    """One untraced round of the same workload and seed, in a fresh process."""
    raw = OUT_DIR / f"{args.workload}-seed{args.seed}-reference-{os.getpid()}.json"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--raw-out", str(raw)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0 or not raw.is_file():
        raise RuntimeError(f"untraced reference run failed:\n{proc.stderr[-2000:]}")
    return json.loads(raw.read_text())


def traced(args: argparse.Namespace, work_dir: Path, package_dir: Path) -> dict:
    """Profile import, set-up and one round; split the profile by layer."""
    import cProfile
    import pstats

    reference = untraced_reference(args)
    import numpy  # noqa: F401  imported before profiling: not a layer's cost

    profile = cProfile.Profile()
    profile.enable()
    from perfbench.workloads import WORKLOADS, FirstEvent

    workload = WORKLOADS[args.workload]()
    # Up to Python 3.11 a profiler sees only the thread that enabled it, so
    # the service's worker-thread simulations get profilers of their own.
    # From 3.12 cProfile runs on sys.monitoring: one profiler per process,
    # which already sees every thread, and a second one fails to enable.
    workload.thread_profiles = [] if sys.version_info < (3, 12) else None
    first = FirstEvent()
    # The command-line entry point imports every layer, so even a layer the
    # workload never calls shows its import cost rather than a zero.
    import repro.cli  # noqa: F401

    workload.import_program()
    check_package(package_dir)
    workload.setup(args.seed, work_dir)
    counters = CommCounters()
    counters.install()
    first.arm()
    try:
        rnd = workload.run_round(0, first)
    finally:
        first.disarm()
        counters.uninstall()
        profile.disable()
    rnd.run_checks()

    stats = pstats.Stats(profile)
    for thread_profile in workload.thread_profiles or ():
        stats.add(thread_profile)
    stats.dump_stats(OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}.prof")

    from perfbench.layers import LAYERS, LayerMap, ProfileSplit

    split = ProfileSplit(stats.stats, LayerMap(package_dir))
    tasks_executed = split.calls("kernels", "execute_kernel", caller_layer="dag.runtime")
    untraced_wall = reference["rounds"][0]["wall_s"]
    # Only fig8-sweep calls the service in this process.
    service = rnd.extra.get("service", {})
    overhead = reference["queries"]["cold_overhead_ms"]
    metrics = {f"{layer}.self_s": (split.self_s.get(layer, 0.0), "s") for layer in LAYERS}
    metrics.update({
        "gridsim.engine.resumes": (split.builtin_calls(
            "<method 'send' of 'generator' objects>", caller_layer="gridsim.engine"), "count"),
        "gridsim.communicator.sends": (counters.sends, "count"),
        "gridsim.communicator.recvs": (counters.recvs, "count"),
        "gridsim.communicator.probes": (counters.probes, "count"),
        "gridsim.communicator.probe_hit_ratio": (
            counters.probe_hits / counters.probes if counters.probes else 0.0, "ratio"),
        "gridsim.communicator.collectives": (counters.collectives, "count"),
        "gridsim.collectives.edges": (split.calls(
            "gridsim.communicator", "edge_time", caller_layer="gridsim.collectives"), "count"),
        "gridsim.platform.link_lookups": (split.calls("gridsim.platform", "link_of"), "count"),
        "gridsim.platform.compute_charges": (
            split.calls("gridsim.platform", "charge_compute"), "count"),
        "gridsim.trace.messages": (split.calls("gridsim.trace", "record_message"), "count"),
        "gridsim.trace.flop_events": (split.calls("gridsim.trace", "record_flops"), "count"),
        "obs.snapshot_s": (split.entry_time("obs", "snapshot"), "s"),
        "dag.graph.tasks": (split.calls("dag.graph", "add_task"), "count"),
        "dag.runtime.tasks_executed": (tasks_executed, "count"),
        "dag.runtime.probes_per_task": (
            counters.probes / tasks_executed if tasks_executed else 0.0, "probes/task"),
        "kernels.calls": (split.entry_calls("kernels"), "count"),
        "service.memory_hits": (service.get("memory_hits", 0), "count"),
        "service.disk_hits": (service.get("disk_hits", 0), "count"),
        "service.single_flight_joins": (service.get("single_flight_joins", 0), "count"),
        "service.simulations": (service.get("simulations", 0), "count"),
        "service.store_bytes": (service.get("store_bytes", 0), "bytes"),
        "service.cold_overhead_ms": (statistics.median(overhead), "ms"),
        "setup.import_s": (reference["setup"]["import_s"], "s"),
        "setup.build_s": (reference["setup"]["setup_s"] - reference["setup"]["import_s"], "s"),
        "trace_overhead": (rnd.wall_s / untraced_wall, "ratio"),
        "wall_traced_s": (rnd.wall_s, "s"),
        "wall_untraced_s": (untraced_wall, "s"),
    })

    failures = list(rnd.failures)
    failed = rnd.failed
    if rnd.outcomes != reference["rounds"][0]["outcomes"]:
        failures.append("traced run simulated other makespans or counts than the untraced one")
        failed += 1
    # Counts reached by two independent paths must agree.
    if tasks_executed != metrics["dag.graph.tasks"][0]:
        failures.append(f"tasks executed {tasks_executed} != tasks built "
                        f"{metrics['dag.graph.tasks'][0]}")
        failed += 1
    if args.workload == "dag-cholesky-512":
        from perfbench import checks

        nt = workload.N // workload.TILE
        model = int(workload.model().messages)
        if not tasks_executed == checks.cholesky_task_count(nt):
            failures.append(f"tasks executed {tasks_executed} != closed form")
            failed += 1
        if not counters.recvs == rnd.extra["messages"] == model:
            failures.append(f"recvs {counters.recvs}, trace messages {rnd.extra['messages']} "
                            f"and cost-model messages {model} differ")
            failed += 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": rnd.attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "outside_package_s": split.outside_s,
        "reference": {k: reference[k] for k in ("setup", "metrics")},
    }


class CommCounters:
    """Counts calls at the communicator's public boundary (``CommHandle``)."""

    COLLECTIVES = ("barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
                   "scatter", "split")

    def __init__(self) -> None:
        self.sends = self.recvs = self.probes = self.probe_hits = self.collectives = 0
        self._saved: dict[str, object] = {}

    def install(self) -> None:
        from repro.gridsim.communicator import CommHandle

        self._cls = CommHandle
        saved = self._saved = {
            name: CommHandle.__dict__[name]
            for name in ("send", "recv", "sendrecv", "probe", *self.COLLECTIVES)
        }

        def send(handle, *args, **kwargs):
            self.sends += 1
            return saved["send"](handle, *args, **kwargs)

        def recv(handle, *args, **kwargs):
            self.recvs += 1
            return (yield from saved["recv"](handle, *args, **kwargs))

        def sendrecv(handle, *args, **kwargs):
            self.sends += 1
            self.recvs += 1
            return (yield from saved["sendrecv"](handle, *args, **kwargs))

        def probe(handle, *args, **kwargs):
            self.probes += 1
            arrival = saved["probe"](handle, *args, **kwargs)
            if arrival is not None and arrival <= handle.clock():
                self.probe_hits += 1
            return arrival

        def collective(original):
            def counted(handle, *args, **kwargs):
                self.collectives += 1
                return (yield from original(handle, *args, **kwargs))
            return counted

        for name, wrapper in (("send", send), ("recv", recv), ("sendrecv", sendrecv),
                              ("probe", probe)):
            setattr(CommHandle, name, wrapper)
        for name in self.COLLECTIVES:
            setattr(CommHandle, name, collective(saved[name]))

    def uninstall(self) -> None:
        for name, original in self._saved.items():
            setattr(self._cls, name, original)
        self._saved = {}


# ---------------------------------------------------------------------- main

def benchmark_spec() -> dict:
    """The repository's BENCHMARK.json: run length and declared metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit that BENCHMARK.json declares for this mode."""
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    package_dir = bootstrap()
    if package_dir is None:
        return 2
    if args.query_sampler is not None:
        from perfbench.workloads import sample_queries

        print(json.dumps(sample_queries(args.seed, args.query_sampler, sys.stdin)))
        return 0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        if args.trace:
            record = traced(args, work_dir, package_dir)
        else:
            record = measure(args, work_dir, package_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    raw = args.raw_out or OUT_DIR / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json")
    raw.write_text(json.dumps(record, indent=1, default=float) + "\n")
    declared = declared_metrics(args.trace)
    produced = {name: m["unit"] for name, m in record["metrics"].items()}
    if produced != declared:
        print(f"perfbench: metrics {sorted(set(produced) ^ set(declared))} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 2
    for failure in record["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    failed = record["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
