"""Self-tests of the benchmark harness: every checker rejects a corrupted
output, the layer map covers the package, and the profile split charges time
where it should.  No workload runs here; the whole file takes about a second.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks
from perfbench.layers import LayerMap, ProfileSplit, layers_of_module
from perfbench.workloads import FirstEvent

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def test_every_module_has_one_layer():
    modules = sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py"))
    assert modules
    unmapped = [m for m in modules if len(layers_of_module(m)) != 1]
    assert not unmapped, f"modules without exactly one layer: {unmapped}"


def test_layer_map_ignores_code_outside_the_package():
    layers = LayerMap(PACKAGE)
    assert layers.layer(str(PACKAGE / "dag" / "kernels.py")) == "kernels"
    assert layers.layer(str(PACKAGE / "dag" / "graph.py")) == "dag.graph"
    assert layers.layer(np.__file__) is None
    assert layers.layer("~") is None


def test_profile_split_charges_callees_outside_the_package_to_their_caller():
    engine = (str(PACKAGE / "gridsim" / "engine.py"), 10, "_run")
    kernel = (str(PACKAGE / "kernels" / "householder.py"), 20, "geqrf")
    helper = ("/usr/lib/python3/numpy/linalg.py", 5, "qr")
    builtin = ("~", 0, "<built-in method numpy.core._multiarray_umath.dot>")
    stats = {
        engine: (1, 1, 0.5, 3.0, {}),
        kernel: (2, 2, 0.25, 2.5, {engine: (2, 2, 0.25, 2.5)}),
        # numpy helper called by the kernel layer, builtin by engine and helper.
        helper: (2, 2, 0.75, 1.75, {kernel: (2, 2, 0.75, 1.75)}),
        builtin: (3, 3, 1.25, 1.25, {engine: (1, 1, 0.25, 0.25), helper: (2, 2, 1.0, 1.0)}),
    }
    split = ProfileSplit(stats, LayerMap(PACKAGE))
    assert split.self_s["gridsim.engine"] == pytest.approx(0.5 + 0.25)
    assert split.self_s["kernels"] == pytest.approx(0.25 + 0.75 + 1.0)
    assert split.outside_s == 0.0
    assert split.entry_calls("kernels") == 2
    assert split.calls("kernels", "geqrf", caller_layer="gridsim.engine") == 2


def test_first_event_moves_the_time_before_it_into_set_up():
    first = FirstEvent()
    assert first.host_time(1.0, 3.0) == 2.0
    first.stamp = 2.5
    assert first.host_time(1.0, 3.0) == 0.5
    assert first.host_time(4.0, 5.0) == 1.0


# ------------------------------------------------------------------ tsqr-8192

def _tsqr_out(p=64, clusters=4, want_q=False, m=64 * 256, n=16):
    sweeps = 2 if want_q else 1
    return {
        "makespan_s": 0.1,
        "messages": sweeps * (p - 1),
        "inter_cluster_messages": sweeps * (clusters - 1),
        "total_flops": checks.tsqr_flops(m, n, p, want_q=want_q),
    }


@pytest.mark.parametrize("want_q", [False, True])
def test_tsqr_checker_rejects_each_corruption(want_q):
    kwargs = dict(m=64 * 256, n=16, p=64, clusters=4, want_q=want_q)
    assert checks.check_tsqr_run(_tsqr_out(want_q=want_q), **kwargs) == []
    for field, delta in (("messages", 1), ("inter_cluster_messages", -1)):
        bad = _tsqr_out(want_q=want_q)
        bad[field] += delta
        assert checks.check_tsqr_run(bad, **kwargs)
    bad = _tsqr_out(want_q=want_q)
    bad["total_flops"] *= 1.0 + 1e-6
    assert checks.check_tsqr_run(bad, **kwargs)


def test_tsqr_flops_closed_form_matches_the_8192_rank_run():
    # R-only total recorded by the simulator for M = 8192 * 4096, N = 64.
    assert math.isclose(checks.tsqr_flops(8192 * 4096, 64, 8192, want_q=False),
                        274877732181.33646, rel_tol=1e-12)


# ----------------------------------------------------------------- fig8-sweep

def _answers():
    return [
        {"algorithm": "tsqr", "m": 1024, "gflops": 30.0},
        {"algorithm": "tsqr", "m": 1024, "gflops": 12.0},
        {"algorithm": "scalapack", "m": 1024, "gflops": 20.0},
    ]


def test_fig8_checker_rejects_scalapack_winning():
    assert checks.check_fig8_best(_answers()) == []
    bad = _answers()
    bad[0]["gflops"] = 19.0
    assert checks.check_fig8_best(bad)
    assert checks.check_fig8_best(_answers()[:2])  # a missing ScaLAPACK point


def test_replay_checker_rejects_a_changed_answer_or_tier():
    cold = {"source": "simulated", "time_s": 0.5, "gflops": 30.0,
            "total_messages": 255, "inter_cluster_messages": 3}
    warm = dict(cold, source="memory")
    assert checks.check_replay(warm, cold, source="memory") == []
    assert checks.check_replay(dict(warm, time_s=0.5000001), cold, source="memory")
    assert checks.check_replay(dict(warm, total_messages=254), cold, source="memory")
    assert checks.check_replay(warm, cold, source="disk")


def test_simulation_count_and_burst_checkers_reject_extra_simulations():
    assert checks.check_simulation_count(9, 9) == []
    assert checks.check_simulation_count(10, 9)
    sources = ["simulated"] + ["single-flight"] * 31
    assert checks.check_burst(1, sources) == []
    assert checks.check_burst(2, sources)
    assert checks.check_burst(1, ["simulated", "simulated"] + ["single-flight"] * 30)


# ----------------------------------------------------------- dag-cholesky-512

def _chol_out():
    return {"makespan_s": 0.32, "critical_path_s": 0.05, "messages": 43680,
            "bytes": 1398792192, "tasks": checks.cholesky_task_count(64),
            "total_flops": 4096**3 / 3.0 * 1.0004}


def test_dag_cholesky_checker_rejects_each_corruption():
    kwargs = dict(n=4096, tile=64, model_messages=43680, model_bytes=1398792192)
    assert checks.check_dag_cholesky(_chol_out(), **kwargs) == []
    assert checks.cholesky_task_count(64) == 45760
    for field, value in (("makespan_s", 0.04), ("messages", 43681), ("bytes", 1398792191),
                         ("tasks", 45759), ("total_flops", 4096**3 / 3.0 * 1.02)):
        assert checks.check_dag_cholesky(dict(_chol_out(), **{field: value}), **kwargs), field


# -------------------------------------------------------------- command line

def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero, silently."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tsqr-8192", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_bootstrap_drops_exported_repro_switches(monkeypatch):
    """An exported REPRO_* switch cannot change the configuration measured."""
    from perfbench import run

    # Recorded by monkeypatch, so the environment is restored after the test.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.setenv(name, os.environ[name])
    monkeypatch.setenv("REPRO_STREAMING_STATS", "0")
    monkeypatch.setenv("REPRO_GRAPH_CACHE_SIZE", "0")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert run.bootstrap() == PACKAGE
    assert [name for name in os.environ if name.startswith("REPRO_")] == []


def test_query_sampler_takes_one_slice_when_stop_follows_go(tmp_path):
    """A stop that arrives together with go still ends the sampler."""
    from perfbench.workloads import SAMPLER_SLICE, sample_queries

    read_fd, write_fd = os.pipe()
    os.write(write_fd, b"go\nstop\n")
    os.close(write_fd)
    with os.fdopen(read_fd) as control:
        result = sample_queries(1, tmp_path / "store", control)
    assert len(result["memory_slices"]) == len(result["disk_slices"]) == 1
    assert result["failed"] == 0 and result["attempted"] == 1 + sum(SAMPLER_SLICE)
