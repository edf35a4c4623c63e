"""Correctness checks of the benchmark's outputs, computed apart from the program.

Every checker takes plain values (simulated counts, makespans, replies) and
returns a list of failure messages; an empty list means the output passed.
Expected values come from closed forms, from the cost model, or from a
property the method must have -- never from the code path being measured.
"""

from __future__ import annotations

import math

#: Relative slack for comparing a flop total against its closed form: the
#: simulator accumulates thousands of float charges, the formula one product.
FLOP_RTOL = 1e-9


# ---------------------------------------------------------------- closed forms

def qr_flops(m: int, n: int) -> float:
    """Householder QR of an m x n matrix: 2 m n^2 - 2/3 n^3 (m >= n)."""
    return 2.0 * m * n * n - 2.0 / 3.0 * n**3


def tsqr_flops(m: int, n: int, p: int, *, want_q: bool) -> float:
    """Flops TSQR executes on p domains: p leaf QRs of (m/p) x n plus p - 1
    combines of two stacked triangles (2/3 n^3 each); the Q sweep doubles it."""
    total = p * qr_flops(m // p, n) + (p - 1) * (2.0 / 3.0) * n**3
    return 2.0 * total if want_q else total


def cholesky_flops(n: int) -> float:
    """Useful flops of a Cholesky factorization: n^3 / 3."""
    return n**3 / 3.0


def cholesky_task_count(nt: int) -> int:
    """Tasks of a tiled Cholesky on nt x nt tiles: nt potrf, nt(nt-1)/2 trsm
    and syrk, and nt(nt-1)(nt-2)/6 gemm."""
    return nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) // 6


# ------------------------------------------------------------------ tsqr-8192

def check_tsqr_run(
    out: dict, *, m: int, n: int, p: int, clusters: int, want_q: bool
) -> list[str]:
    """Virtual QCG-TSQR on a p-rank, ``clusters``-cluster grid.

    One message per reduction-tree edge (p - 1), one inter-cluster message per
    extra cluster (paper Fig. 2), each doubled by the explicit-Q sweep; flops
    equal to :func:`tsqr_flops` to rounding.
    """
    sweeps = 2 if want_q else 1
    failures = []
    if out["messages"] != sweeps * (p - 1):
        failures.append(f"messages {out['messages']} != {sweeps} x (P-1) = {sweeps * (p - 1)}")
    if out["inter_cluster_messages"] != sweeps * (clusters - 1):
        failures.append(
            f"inter-cluster messages {out['inter_cluster_messages']} != "
            f"{sweeps} x (clusters-1) = {sweeps * (clusters - 1)}"
        )
    expected = tsqr_flops(m, n, p, want_q=want_q)
    if not math.isclose(out["total_flops"], expected, rel_tol=FLOP_RTOL):
        failures.append(f"total flops {out['total_flops']!r} != closed form {expected!r}")
    if not out["makespan_s"] > 0.0:
        failures.append(f"makespan {out['makespan_s']!r} is not positive")
    return failures


# ----------------------------------------------------------------- fig8-sweep

def check_fig8_best(replies: list[dict]) -> list[str]:
    """Paper section V-E: at every M the best TSQR configuration out-runs the
    best ScaLAPACK one (Gflop/s, best over sites and domain counts)."""
    best: dict[tuple[int, str], float] = {}
    for reply in replies:
        key = (reply["m"], reply["algorithm"])
        best[key] = max(best.get(key, 0.0), reply["gflops"])
    failures = []
    for m in sorted({m for m, _ in best}):
        tsqr, scal = best.get((m, "tsqr")), best.get((m, "scalapack"))
        if tsqr is None or scal is None:
            failures.append(f"M={m}: sweep lacks a TSQR or a ScaLAPACK point")
        elif not tsqr > scal:
            failures.append(f"M={m}: best TSQR {tsqr:.3f} Gflop/s <= best ScaLAPACK {scal:.3f}")
    return failures


#: Reply fields a warm answer must reproduce exactly.
REPLY_FIELDS = ("time_s", "gflops", "total_messages", "inter_cluster_messages")


def check_replay(reply: dict, cold: dict, *, source: str | None) -> list[str]:
    """A repeated answer equals the cold answer for its key, field for field,
    and (unless ``source`` is None) came from the expected cache tier."""
    failures = []
    if source is not None and reply["source"] != source:
        failures.append(f"expected a {source} answer, got {reply['source']!r}")
    for name in REPLY_FIELDS:
        if reply[name] != cold[name]:
            failures.append(
                f"{reply['source']} reply {name} {reply[name]!r} != cold {cold[name]!r}"
            )
    return failures


def check_simulation_count(simulations: int, distinct_keys: int) -> list[str]:
    """A cold pass simulates every distinct key once and nothing else."""
    if simulations != distinct_keys:
        return [f"{simulations} simulations for {distinct_keys} distinct keys"]
    return []


def check_burst(simulations: int, sources: list[str]) -> list[str]:
    """A burst of identical cold queries runs exactly one simulation and every
    other query joins it (single flight)."""
    failures = []
    if simulations != 1:
        failures.append(f"duplicate burst ran {simulations} simulations, expected 1")
    if sources.count("simulated") != 1 or sources.count("single-flight") != len(sources) - 1:
        failures.append(f"burst sources {sorted(set(sources))} are not 1 simulated + joins")
    return failures


# ----------------------------------------------------------- dag-cholesky-512

def check_dag_cholesky(
    out: dict, *, n: int, tile: int, model_messages: int, model_bytes: int
) -> list[str]:
    """Virtual DAG Cholesky: makespan no shorter than the critical path,
    messages and bytes equal to the cost model, the task count equal to its
    closed form, and total flops within 1% of n^3/3."""
    failures = []
    if not out["makespan_s"] >= out["critical_path_s"]:
        failures.append(
            f"makespan {out['makespan_s']!r} below the critical path {out['critical_path_s']!r}"
        )
    if out["messages"] != model_messages:
        failures.append(f"messages {out['messages']} != cost model {model_messages}")
    if out["bytes"] != model_bytes:
        failures.append(f"bytes {out['bytes']} != cost model {model_bytes}")
    expected_tasks = cholesky_task_count(n // tile)
    if out["tasks"] != expected_tasks:
        failures.append(f"tasks {out['tasks']} != closed form {expected_tasks}")
    if abs(out["total_flops"] / cholesky_flops(n) - 1.0) > 0.01:
        failures.append(f"total flops {out['total_flops']!r} not within 1% of n^3/3")
    return failures

