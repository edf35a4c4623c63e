"""Property-based (hypothesis) correctness of the task-DAG runtime.

DAG-CAQR must agree with LAPACK *and* reproduce the SPMD CAQR program bit
for bit on any shape — non-divisible tiles, fat panels, single-tile inputs —
under every placement and priority policy.  The scheduling policies change
*when and where* each kernel runs, never its operands, so the sampled policy
must be invisible in the numbers.

The registry generalization adds structural properties over all three
algorithms (QR, Cholesky, LU) on awkward tile shapes: the derived edges are
exactly the RAW/WAW/WAR closure of the declared read/write sets, task ids
are a topological order, and ``communication_counts`` matches the measured
trace of a virtual run message for message and byte for byte.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dag import (
    DAGFactorizationConfig,
    build_tiled_graph,
    communication_counts,
    place_tasks,
    run_dag_factorization,
)
from repro.programs.caqr import CAQRConfig, run_parallel_caqr
from repro.util.validation import r_factors_match
from tests.conftest import make_platform
from tests.dag.test_cholesky_lu import (
    dominant_matrix,
    reference_cholesky,
    reference_lu,
    spd_matrix,
)

# Every example runs a full distributed factorization twice (DAG + SPMD)
# plus a LAPACK reference; moderate example counts keep the suite fast.
NUMERIC = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: One platform for the whole module (session fixtures are unavailable
#: inside @given bodies).
PLATFORM = make_platform(2, 2, 2)

shapes = st.tuples(st.integers(1, 40), st.integers(1, 40))
tiles = st.integers(1, 48)
placements = st.sampled_from(["block", "block-cyclic", "owner-computes"])
priorities = st.sampled_from(["critical-path", "panel", "fifo"])
trees = st.sampled_from(["flat", "binary", "grid-hierarchical"])


def _matrix(m: int, n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, n))


@NUMERIC
@given(
    shape=shapes,
    tile=tiles,
    seed=st.integers(0, 2**16),
    placement=placements,
    priority=priorities,
    tree=trees,
)
def test_dag_caqr_matches_lapack_and_spmd_bitwise(
    shape, tile, seed, placement, priority, tree
):
    m, n = shape
    a = _matrix(m, n, seed)
    spmd = run_parallel_caqr(
        PLATFORM, CAQRConfig(m=m, n=n, tile_size=tile, panel_tree=tree, matrix=a)
    )
    dag = run_dag_factorization(
        PLATFORM,
        DAGFactorizationConfig(
            m=m, n=n, tile_size=tile, panel_tree=tree,
            placement=placement, priority=priority, matrix=a,
        ),
    )
    assert dag.r.shape == (min(m, n), n)
    assert np.array_equal(dag.r, spmd.r)
    assert r_factors_match(dag.r, np.linalg.qr(a, mode="r"))


@NUMERIC
@given(n=st.integers(1, 24), fat_extra=st.integers(1, 24), tile=tiles,
       seed=st.integers(0, 2**16), priority=priorities)
def test_fat_panels(n, fat_extra, tile, seed, priority):
    """m < n: R is upper-trapezoidal and still matches LAPACK."""
    m = n
    a = _matrix(m, n + fat_extra, seed)
    dag = run_dag_factorization(
        PLATFORM,
        DAGFactorizationConfig(m=m, n=n + fat_extra, tile_size=tile, priority=priority, matrix=a),
    )
    assert dag.r.shape == (m, n + fat_extra)
    assert r_factors_match(dag.r, np.linalg.qr(a, mode="r"))


@NUMERIC
@given(shape=shapes, seed=st.integers(0, 2**16), placement=placements)
def test_tile_larger_than_matrix_is_single_task(shape, seed, placement):
    m, n = shape
    a = _matrix(m, n, seed)
    dag = run_dag_factorization(
        PLATFORM,
        DAGFactorizationConfig(
            m=m, n=n, tile_size=max(m, n) + 5, placement=placement, matrix=a
        ),
    )
    assert dag.graph.n_tasks == 1
    assert r_factors_match(dag.r, np.linalg.qr(a, mode="r"))


# ---------------------------------------------------------------------------
# Registry-wide structural properties: QR, Cholesky and LU graphs
# ---------------------------------------------------------------------------

#: Structural checks build graphs only (no simulation) — they can afford
#: more examples than the full-factorization properties above.
STRUCTURAL = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

algorithms = st.sampled_from(["qr", "cholesky", "lu"])


def _graph_for(algorithm: str, shape: tuple[int, int], tile: int):
    m, n = shape
    if algorithm == "cholesky":
        n = m  # square only
    return build_tiled_graph(algorithm, m, n, tile)


@STRUCTURAL
@given(algorithm=algorithms, shape=shapes, tile=tiles)
def test_edges_are_exactly_the_read_write_closure(algorithm, shape, tile):
    """Replay every task's declared read/write sets through an independent
    RAW/WAW/WAR derivation and require the graph's edges to match exactly."""
    graph = _graph_for(algorithm, shape, tile)
    last_writer: dict[int, int] = {}
    readers_since: dict[int, list[int]] = {}
    for task in graph.tasks:
        deps = set()
        for h in task.reads:
            if h in last_writer:
                deps.add(last_writer[h])  # RAW
        for h in task.writes:
            if h in last_writer:
                deps.add(last_writer[h])  # WAW
            deps.update(readers_since.get(h, ()))  # WAR
        deps.discard(task.id)
        assert tuple(sorted(deps)) == graph.preds[task.id]
        expected_producers = tuple(last_writer.get(h, -1) for h in task.reads)
        assert task.read_producers == expected_producers
        for h in task.reads:
            readers_since.setdefault(h, []).append(task.id)
        for h in task.writes:
            last_writer[h] = task.id
            readers_since[h] = []


@STRUCTURAL
@given(algorithm=algorithms, shape=shapes, tile=tiles)
def test_task_ids_are_a_topological_order(algorithm, shape, tile):
    """Acyclicity by construction: every edge points strictly forward, and
    writers read what they overwrite (the communication plan's contract)."""
    graph = _graph_for(algorithm, shape, tile)
    assert graph.n_tasks > 0
    for task in graph.tasks:
        assert all(p < task.id for p in graph.preds[task.id])
        for h in task.writes:
            if graph.handle_keys[h][0] == "A":
                assert h in task.reads  # writers read what they overwrite


@NUMERIC
@given(
    algorithm=algorithms,
    shape=st.tuples(st.integers(1, 20), st.integers(1, 20)),
    tile=st.integers(1, 24),
    placement=placements,
    priority=priorities,
)
def test_communication_counts_match_measured_traces(
    algorithm, shape, tile, placement, priority
):
    """The analysis layer's counts ARE the runtime's: a virtual run of any
    algorithm on any shape measures exactly the planned messages/bytes."""
    m, n = shape
    if algorithm == "cholesky":
        n = m
    run = run_dag_factorization(
        PLATFORM,
        DAGFactorizationConfig(
            m=m, n=n, tile_size=tile, placement=placement, priority=priority,
            algorithm=algorithm,
        ),
    )
    plan = place_tasks(run.graph, placement, PLATFORM.n_processes)
    messages, nbytes = communication_counts(run.graph, plan)
    assert run.trace.total_messages == messages
    assert sum(run.trace.bytes_by_link.values()) == nbytes


@NUMERIC
@given(
    n=st.integers(1, 40),
    tile=tiles,
    seed=st.integers(0, 2**16),
    placement=placements,
    priority=priorities,
)
def test_dag_cholesky_matches_sequential_reference_bitwise(
    n, tile, seed, placement, priority
):
    a = spd_matrix(n, seed=seed)
    run = run_dag_factorization(
        PLATFORM,
        DAGFactorizationConfig(
            m=n, n=n, tile_size=tile, placement=placement, priority=priority,
            matrix=a, algorithm="cholesky",
        ),
    )
    assert np.array_equal(run.r, reference_cholesky(a, tile))


@NUMERIC
@given(
    shape=shapes,
    tile=tiles,
    seed=st.integers(0, 2**16),
    placement=placements,
    priority=priorities,
)
def test_dag_lu_matches_sequential_reference_bitwise(
    shape, tile, seed, placement, priority
):
    m, n = shape
    a = dominant_matrix(m, n, seed=seed)
    run = run_dag_factorization(
        PLATFORM,
        DAGFactorizationConfig(
            m=m, n=n, tile_size=tile, placement=placement, priority=priority,
            matrix=a, algorithm="lu",
        ),
    )
    assert np.array_equal(run.r, reference_lu(a, tile))
