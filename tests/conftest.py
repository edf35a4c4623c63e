"""Shared fixtures: small simulated platforms and reference matrices.

The unit and integration tests run on deliberately tiny platforms (a handful
of ranks over one or two "clusters") so the whole suite stays fast while
still exercising every code path the paper-scale benchmarks use.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the persistent result cache at a session tmp dir.

    CLI invocations under test default to ``results/cache`` in the working
    tree; redirecting ``REPRO_CACHE_DIR`` keeps test runs from writing (or
    reading!) the developer's real cache.  Tests that need a fresh store
    still pass an explicit ``--cache-dir``.
    """
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("result-cache")))
    yield
    mp.undo()

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
from repro.util.random_matrices import matrix_with_condition_number, random_tall_skinny


def event_hash(sim) -> str:
    """Canonical digest of a run's ordered event stream and final clocks.

    The golden hashes of the determinism tests are digests of this form.
    """
    payload = repr((sim.events, sim.clocks, sim.makespan)).encode()
    return hashlib.sha256(payload).hexdigest()


def make_grid(n_clusters: int = 2, nodes: int = 2, ppn: int = 2) -> GridSpec:
    """Small grid of identical clusters used throughout the tests."""
    node = NodeSpec(processor=ProcessorSpec("test-cpu", 8.0, 3.67), processes_per_node=ppn)
    clusters = tuple(
        ClusterSpec(name=f"site{i}", n_nodes=nodes, node=node) for i in range(n_clusters)
    )
    return GridSpec(name="test-grid", clusters=clusters)


def make_network() -> NetworkModel:
    """Hierarchical network with realistic-looking latencies."""
    return NetworkModel(
        intra_node=LinkSpec.from_us_mbits(17.0, 5000.0),
        intra_cluster=LinkSpec.from_ms_mbits(0.06, 890.0),
        inter_cluster_default=LinkSpec.from_ms_mbits(8.0, 90.0),
    )


def make_platform(n_clusters: int = 2, nodes: int = 2, ppn: int = 2) -> Platform:
    """Platform with ``n_clusters * nodes * ppn`` ranks."""
    grid = make_grid(n_clusters, nodes, ppn)
    placement = block_placement(grid, nodes_per_cluster=nodes, processes_per_node=ppn)
    return Platform(
        grid=grid,
        network=make_network(),
        placement=placement,
        kernel_model=KernelRateModel(),
        name="test-platform",
    )


@pytest.fixture(scope="session")
def platform8() -> Platform:
    """Two clusters x two nodes x two processes = 8 ranks."""
    return make_platform(2, 2, 2)


@pytest.fixture(scope="session")
def platform4_single_site() -> Platform:
    """One cluster x two nodes x two processes = 4 ranks."""
    return make_platform(1, 2, 2)


@pytest.fixture(scope="session")
def platform16() -> Platform:
    """Four clusters x two nodes x two processes = 16 ranks."""
    return make_platform(4, 2, 2)


@pytest.fixture()
def tall_matrix() -> np.ndarray:
    """A deterministic 240 x 12 tall-and-skinny matrix."""
    return random_tall_skinny(240, 12, seed=7)


@pytest.fixture()
def ill_conditioned_matrix() -> np.ndarray:
    """A tall matrix with condition number 1e10 (stresses stability)."""
    return matrix_with_condition_number(300, 10, 1e10, seed=11)


@pytest.fixture()
def reference_r(tall_matrix) -> np.ndarray:
    """LAPACK reference R factor of :func:`tall_matrix`."""
    return np.linalg.qr(tall_matrix, mode="r")
