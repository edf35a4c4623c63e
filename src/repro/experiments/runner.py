"""Experiment runner: one entry point per measured point of the evaluation.

The runner owns the platform objects (one per site count), executes TSQR or
ScaLAPACK runs at paper scale (virtual payloads) and converts the outcome
into :class:`ExperimentPoint` records carrying everything the figures and
tables report: achieved Gflop/s, simulated time, message counts by link
class, and the configuration that produced them.

Results are memoised by configuration: Fig. 8 reuses the points of Figs. 4
and 5, and repeated benchmark invocations do not re-simulate identical runs.

**Parallel sweeps.**  Every evaluation point is an independent simulation,
so a figure sweep is embarrassingly parallel: constructing the runner with
``jobs=N`` makes :meth:`ExperimentRunner.prefetch` simulate pending points
in a pool of ``N`` worker processes (each with its own platform cache) and
fill the shared memo.  Results are keyed by :class:`PointSpec` and the
figure builders read them back in their own deterministic loop order, so a
parallel sweep produces byte-identical series to a serial one — asserted by
the jobs-equivalence tests.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # service imports the runner; the reverse stays lazy
    from repro.service.cache import ResultCache

from repro.dag.placement import (
    DEFAULT_PLACEMENT,
    DEFAULT_PRIORITY,
    PLACEMENT_POLICIES,
    PRIORITY_POLICIES,
)
from repro.dag.runtime import DAGFactorizationConfig, run_dag_factorization
from repro.exceptions import ConfigurationError
from repro.experiments.grid5000 import Grid5000Settings, grid5000_platform
from repro.gridsim.failures import FailureSchedule
from repro.gridsim.platform import Platform
from repro.gridsim.trace import TraceSummary
from repro.programs.caqr import CAQRConfig, run_parallel_caqr
from repro.scalapack.driver import ScaLAPACKConfig, run_scalapack_qr
from repro.tsqr.parallel import TSQRConfig, run_parallel_tsqr

__all__ = ["PointSpec", "ExperimentPoint", "ExperimentRunner"]


@dataclass(frozen=True)
class PointSpec:
    """One measured configuration (an x-value of one curve of one figure)."""

    algorithm: str  # "tsqr", "scalapack", "caqr", "cholesky" or "lu"
    m: int
    n: int
    n_sites: int
    domains_per_cluster: int | None = None
    tree_kind: str = "grid-hierarchical"
    want_q: bool = False
    tile_size: int | None = None  # CAQR only
    #: CAQR execution runtime: the bulk-synchronous SPMD program ("spmd") or
    #: the task-DAG dataflow runtime ("dag").
    runtime: str = "spmd"
    placement: str | None = None  # DAG runtime only
    priority: str | None = None  # DAG runtime only
    #: Deterministic rank-death schedule as ``(rank, at_time)`` pairs; DAG
    #: runtime only (the SPMD programs have no recovery path).
    failures: tuple[tuple[int, float], ...] | None = None

    #: Algorithms executed as tile DAGs (they need a tile_size).
    _TILED = ("caqr", "cholesky", "lu")
    #: Algorithms that exist only on the DAG runtime.
    _DAG_ONLY = ("cholesky", "lu")

    def __post_init__(self) -> None:
        if self.algorithm not in ("tsqr", "scalapack", "caqr", "cholesky", "lu"):
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "tsqr" and self.domains_per_cluster is None:
            raise ConfigurationError("TSQR points need a domains_per_cluster value")
        if self.algorithm in self._TILED and self.tile_size is None:
            raise ConfigurationError(
                f"{self.algorithm} points need a tile_size value"
            )
        if self.algorithm not in self._TILED and self.tile_size is not None:
            raise ConfigurationError(
                "tile_size only applies to tiled (caqr/cholesky/lu) points"
            )
        if self.algorithm in self._TILED and self.want_q:
            raise ConfigurationError(
                "the tiled factorizations compute the factor only "
                "(their Q/L inverses stay implicit)"
            )
        if self.runtime not in ("spmd", "dag"):
            raise ConfigurationError(
                f"unknown runtime {self.runtime!r}; choose from ('spmd', 'dag')"
            )
        if self.runtime == "dag" and self.algorithm not in self._TILED:
            raise ConfigurationError(
                "the DAG runtime only executes tiled (caqr/cholesky/lu) points"
            )
        if self.algorithm in self._DAG_ONLY and self.runtime != "dag":
            raise ConfigurationError(
                f"tiled {self.algorithm} only exists on the DAG runtime; "
                "pass runtime='dag'"
            )
        if self.runtime != "dag" and (self.placement or self.priority):
            raise ConfigurationError(
                "placement/priority policies only apply to DAG-runtime points"
            )
        if self.placement is not None and self.placement not in PLACEMENT_POLICIES:
            raise ConfigurationError(
                f"unknown placement {self.placement!r}; choose from {PLACEMENT_POLICIES}"
            )
        if self.priority is not None and self.priority not in PRIORITY_POLICIES:
            raise ConfigurationError(
                f"unknown priority {self.priority!r}; choose from {PRIORITY_POLICIES}"
            )
        if self.failures is not None and len(self.failures) == 0:
            # An empty schedule is the same simulation as no schedule; fold
            # them together so they share one cache key.
            object.__setattr__(self, "failures", None)
        if self.failures is not None:
            if self.runtime != "dag":
                raise ConfigurationError(
                    "failure injection needs the DAG runtime: an SPMD program's "
                    "communication structure is baked into its text, so a dead "
                    "rank leaves every peer stuck in a revoked collective with "
                    "no way to re-place the lost work; the task graph is what "
                    "makes recovery possible (pass runtime='dag')"
                )
            # Normalise eagerly so equal schedules hash equally in the memo.
            object.__setattr__(
                self,
                "failures",
                tuple(sorted((int(r), float(t)) for r, t in self.failures)),
            )
            for rank, at_time in self.failures:
                if rank < 0 or at_time < 0.0:
                    raise ConfigurationError(
                        f"failure ({rank}, {at_time}) must have a non-negative "
                        "rank and death time"
                    )


@dataclass(frozen=True)
class ExperimentPoint:
    """Result of simulating one :class:`PointSpec`."""

    spec: PointSpec
    gflops: float
    time_s: float
    trace: TraceSummary = field(compare=False, repr=False)
    #: Exact dependence-chain lower bound of the run (DAG-runtime points).
    critical_path_s: float | None = field(default=None, compare=False)
    #: JSON-safe :meth:`~repro.dag.recovery.RecoveryReport.as_dict` of the
    #: failure recovery, when the spec injected failures that actually fired.
    recovery: dict | None = field(default=None, compare=False, repr=False)

    @property
    def total_messages(self) -> int:
        """Total point-to-point messages of the run."""
        return self.trace.total_messages

    @property
    def inter_cluster_messages(self) -> int:
        """Messages that crossed a wide-area link."""
        return self.trace.inter_cluster_messages

    def as_row(self) -> dict[str, object]:
        """Flat dictionary used by CSV/ASCII reports."""
        return {
            "algorithm": self.spec.algorithm,
            "M": self.spec.m,
            "N": self.spec.n,
            "sites": self.spec.n_sites,
            "domains/cluster": self.spec.domains_per_cluster or "-",
            "Gflop/s": round(self.gflops, 2),
            "time (s)": round(self.time_s, 4),
            "messages": self.total_messages,
            "inter-cluster msgs": self.inter_cluster_messages,
        }


#: Per-worker-process runner of a parallel prefetch (set by the initializer).
_WORKER_RUNNER: "ExperimentRunner | None" = None


def _prefetch_init(settings: "Grid5000Settings") -> None:
    """Pool initializer: one serial runner (own platform cache) per worker."""
    global _WORKER_RUNNER
    _WORKER_RUNNER = ExperimentRunner(settings)


def _prefetch_point(spec: "PointSpec") -> "ExperimentPoint":
    """Simulate one point in a prefetch worker process."""
    assert _WORKER_RUNNER is not None, "worker pool initializer did not run"
    return _WORKER_RUNNER.run_point(spec)


class ExperimentRunner:
    """Run and memoise evaluation points on the simulated Grid'5000 platform.

    ``jobs`` sets the number of worker processes used by :meth:`prefetch`
    (the figure builders prefetch their whole sweep before reading points);
    ``jobs=1`` (the default) keeps everything serial in-process.

    ``store`` plugs in a persistent :class:`~repro.service.cache.ResultCache`
    behind the in-process memo: every simulated point is written through to
    it, every lookup consults it before simulating, so repeated figure
    sweeps and service queries get cross-invocation cache hits.  The
    :attr:`simulations_run` counter counts *actual* simulations only (cache
    hits of either level never increment it) — the persistent-cache tests
    pin "second invocation simulates zero points" on it.
    """

    def __init__(
        self,
        settings: Grid5000Settings | None = None,
        *,
        jobs: int = 1,
        store: "ResultCache | None" = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.settings = settings or Grid5000Settings()
        self.jobs = jobs
        self.store = store
        self.simulations_run = 0
        self._platforms: dict[int, Platform] = {}
        self._cache: dict[PointSpec, ExperimentPoint] = {}

    # --------------------------------------------------------------- set-up
    def platform(self, n_sites: int) -> Platform:
        """The (cached) 1-, 2- or 4-site reserved platform."""
        if n_sites not in self._platforms:
            self._platforms[n_sites] = grid5000_platform(n_sites, self.settings)
        return self._platforms[n_sites]

    def processes(self, n_sites: int) -> int:
        """Number of MPI processes of an ``n_sites`` experiment."""
        return self.platform(n_sites).n_processes

    def processes_per_cluster(self, n_sites: int) -> int:
        """Processes reserved on each cluster (64 in the paper's setup)."""
        return self.processes(n_sites) // n_sites

    # -------------------------------------------------------------- the memo
    def memoised(self, spec: PointSpec) -> ExperimentPoint | None:
        """The in-process memo entry for ``spec``, if any (never simulates)."""
        return self._cache.get(spec)

    def remember(self, spec: PointSpec, point: ExperimentPoint) -> None:
        """Fill the in-process memo (used by prefetch and the service tier)."""
        self._cache[spec] = point

    # ----------------------------------------------------------------- runs
    @staticmethod
    def _failure_schedule(spec: PointSpec) -> FailureSchedule | None:
        """The spec's deterministic failure schedule, or None when unset."""
        if spec.failures is None:
            return None
        return FailureSchedule.from_pairs(spec.failures)

    def _baseline_makespan(self, spec: PointSpec) -> float | None:
        """Failure-free makespan for a failing spec's overhead accounting.

        Routed through :meth:`run_point` on the ``failures=None`` twin of the
        spec, so a whole failure sweep shares one memoised baseline instead
        of each point simulating its own."""
        if spec.failures is None:
            return None
        return self.run_point(replace(spec, failures=None)).time_s

    def run_point(self, spec: PointSpec) -> ExperimentPoint:
        """Simulate (or fetch from memo/persistent cache) one configuration."""
        cached = self._cache.get(spec)
        if cached is not None:
            return cached
        if self.store is not None:
            stored = self.store.get_spec(spec, self.settings)
            if stored is not None:
                self._cache[spec] = stored
                return stored
        platform = self.platform(spec.n_sites)
        if spec.algorithm == "scalapack":
            result = run_scalapack_qr(
                platform, ScaLAPACKConfig(m=spec.m, n=spec.n, want_q=spec.want_q)
            )
            point = ExperimentPoint(
                spec=spec, gflops=result.gflops, time_s=result.makespan_s, trace=result.trace
            )
        elif spec.runtime == "dag":
            algorithm = "qr" if spec.algorithm == "caqr" else spec.algorithm
            dag_result = run_dag_factorization(
                platform,
                DAGFactorizationConfig(
                    m=spec.m,
                    n=spec.n,
                    tile_size=spec.tile_size,
                    # Only QR reduces a panel; Cholesky/LU keep the default.
                    panel_tree=spec.tree_kind if algorithm == "qr" else "binary",
                    placement=spec.placement or DEFAULT_PLACEMENT,
                    priority=spec.priority or DEFAULT_PRIORITY,
                    algorithm=algorithm,
                ),
                failures=self._failure_schedule(spec),
                baseline_makespan_s=self._baseline_makespan(spec),
            )
            point = ExperimentPoint(
                spec=spec,
                gflops=dag_result.gflops,
                time_s=dag_result.makespan_s,
                trace=dag_result.trace,
                critical_path_s=dag_result.critical_path_s,
                recovery=dag_result.recovery.as_dict() if dag_result.recovery else None,
            )
        elif spec.algorithm == "caqr":
            result = run_parallel_caqr(
                platform,
                CAQRConfig(
                    m=spec.m,
                    n=spec.n,
                    tile_size=spec.tile_size,
                    panel_tree=spec.tree_kind,
                ),
            )
            point = ExperimentPoint(
                spec=spec, gflops=result.gflops, time_s=result.makespan_s, trace=result.trace
            )
        else:
            dpc = spec.domains_per_cluster
            per_cluster = self.processes_per_cluster(spec.n_sites)
            if dpc is None or dpc <= 0 or per_cluster % dpc != 0:
                raise ConfigurationError(
                    f"domains/cluster {dpc} must divide the {per_cluster} processes of a cluster"
                )
            config = TSQRConfig(
                m=spec.m,
                n=spec.n,
                n_domains=dpc * spec.n_sites,
                tree_kind=spec.tree_kind,
                want_q=spec.want_q,
            )
            result = run_parallel_tsqr(platform, config)
            point = ExperimentPoint(
                spec=spec, gflops=result.gflops, time_s=result.makespan_s, trace=result.trace
            )
        self.simulations_run += 1
        self._cache[spec] = point
        if self.store is not None:
            self.store.put_spec(spec, point, self.settings)
        return point

    def prefetch(self, specs: Iterable[PointSpec]) -> None:
        """Simulate every pending spec, in parallel when ``jobs > 1``.

        Duplicate and already-cached specs are skipped; with ``jobs=1`` (or
        fewer than two pending points) this is a no-op and the points are
        simulated lazily by :meth:`run_point` as before.  The filled cache is
        what makes the subsequent serial reads deterministic: result order is
        fixed by the caller's loop, never by worker completion order.
        """
        pending = [s for s in dict.fromkeys(specs) if s not in self._cache]
        if self.store is not None:
            # Warm store entries are pulled into the memo here, so workers
            # only ever fork for points that genuinely need simulating.
            cold = []
            for spec in pending:
                stored = self.store.get_spec(spec, self.settings)
                if stored is None:
                    cold.append(spec)
                else:
                    self._cache[spec] = stored
            pending = cold
        if self.jobs <= 1 or len(pending) < 2:
            return
        # fork keeps worker start-up cheap (no re-import of numpy).
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        with ctx.Pool(
            processes=min(self.jobs, len(pending)),
            initializer=_prefetch_init,
            initargs=(self.settings,),
        ) as pool:
            for spec, point in zip(pending, pool.map(_prefetch_point, pending)):
                self.simulations_run += 1
                self._cache[spec] = point
                if self.store is not None:
                    self.store.put_spec(spec, point, self.settings)

    # ------------------------------------------------------------ spec sweeps
    def tsqr_specs(
        self,
        m_values: Sequence[int],
        n: int,
        sites: Sequence[int],
        domain_counts: Sequence[int],
        *,
        tree_kind: str = "grid-hierarchical",
        want_q: bool = False,
    ) -> list[PointSpec]:
        """Cartesian TSQR sweep (every m x site x domains-per-cluster point)."""
        return [
            PointSpec(
                algorithm="tsqr",
                m=m,
                n=n,
                n_sites=s,
                domains_per_cluster=dpc,
                tree_kind=tree_kind,
                want_q=want_q,
            )
            for m in m_values
            for s in sites
            for dpc in domain_counts
        ]

    def scalapack_specs(
        self,
        m_values: Sequence[int],
        n: int,
        sites: Sequence[int],
        *,
        want_q: bool = False,
    ) -> list[PointSpec]:
        """Cartesian ScaLAPACK sweep (every m x site point)."""
        return [
            PointSpec(algorithm="scalapack", m=m, n=n, n_sites=s, want_q=want_q)
            for m in m_values
            for s in sites
        ]

    # ---------------------------------------------------------- conveniences
    def scalapack_point(self, m: int, n: int, n_sites: int, *, want_q: bool = False) -> ExperimentPoint:
        """ScaLAPACK baseline at one (M, N, sites) configuration."""
        return self.run_point(
            PointSpec(algorithm="scalapack", m=m, n=n, n_sites=n_sites, want_q=want_q)
        )

    def tsqr_point(
        self,
        m: int,
        n: int,
        n_sites: int,
        domains_per_cluster: int,
        *,
        tree_kind: str = "grid-hierarchical",
        want_q: bool = False,
    ) -> ExperimentPoint:
        """QCG-TSQR at one (M, N, sites, domains/cluster) configuration."""
        return self.run_point(
            PointSpec(
                algorithm="tsqr",
                m=m,
                n=n,
                n_sites=n_sites,
                domains_per_cluster=domains_per_cluster,
                tree_kind=tree_kind,
                want_q=want_q,
            )
        )

    def caqr_point(
        self,
        m: int,
        n: int,
        n_sites: int,
        *,
        tile_size: int = 64,
        panel_tree: str = "binary",
    ) -> ExperimentPoint:
        """Distributed CAQR at one (M, N, sites, tile, panel-tree) configuration."""
        return self.run_point(
            PointSpec(
                algorithm="caqr",
                m=m,
                n=n,
                n_sites=n_sites,
                tree_kind=panel_tree,
                tile_size=tile_size,
            )
        )

    def dag_caqr_point(
        self,
        m: int,
        n: int,
        n_sites: int,
        *,
        tile_size: int = 64,
        panel_tree: str = "binary",
        placement: str = DEFAULT_PLACEMENT,
        priority: str = DEFAULT_PRIORITY,
        failures: tuple[tuple[int, float], ...] | None = None,
    ) -> ExperimentPoint:
        """DAG-runtime CAQR at one (M, N, sites, tile, placement, priority) point."""
        return self.run_point(
            PointSpec(
                algorithm="caqr",
                m=m,
                n=n,
                n_sites=n_sites,
                tree_kind=panel_tree,
                tile_size=tile_size,
                runtime="dag",
                placement=placement,
                priority=priority,
                failures=failures,
            )
        )

    def dag_cholesky_point(
        self,
        n: int,
        n_sites: int,
        *,
        tile_size: int = 64,
        placement: str = DEFAULT_PLACEMENT,
        priority: str = DEFAULT_PRIORITY,
        failures: tuple[tuple[int, float], ...] | None = None,
    ) -> ExperimentPoint:
        """DAG-runtime tiled Cholesky at one (N, sites, tile, policies) point."""
        return self.run_point(
            PointSpec(
                algorithm="cholesky",
                m=n,
                n=n,
                n_sites=n_sites,
                tile_size=tile_size,
                runtime="dag",
                placement=placement,
                priority=priority,
                failures=failures,
            )
        )

    def dag_lu_point(
        self,
        m: int,
        n: int,
        n_sites: int,
        *,
        tile_size: int = 64,
        placement: str = DEFAULT_PLACEMENT,
        priority: str = DEFAULT_PRIORITY,
    ) -> ExperimentPoint:
        """DAG-runtime tiled LU (no pivoting) at one (M, N, sites, ...) point."""
        return self.run_point(
            PointSpec(
                algorithm="lu",
                m=m,
                n=n,
                n_sites=n_sites,
                tile_size=tile_size,
                runtime="dag",
                placement=placement,
                priority=priority,
            )
        )

    def best_tsqr_point(
        self,
        m: int,
        n: int,
        n_sites: int,
        domain_candidates: tuple[int, ...] = (32, 64),
        *,
        want_q: bool = False,
    ) -> ExperimentPoint:
        """TSQR with the best-performing domains/cluster among the candidates.

        Mirrors the paper's Fig. 5/8 reporting ("the performance for the
        optimum number of domains").  The default candidates are the two
        optima the paper identifies (one domain per node, one per processor).
        """
        best: ExperimentPoint | None = None
        for dpc in domain_candidates:
            point = self.tsqr_point(m, n, n_sites, dpc, want_q=want_q)
            if best is None or point.gflops > best.gflops:
                best = point
        assert best is not None
        return best

    def best_over_sites(
        self,
        algorithm: str,
        m: int,
        n: int,
        sites: tuple[int, ...] = (1, 2, 4),
        *,
        domain_candidates: tuple[int, ...] = (32, 64),
        want_q: bool = False,
    ) -> ExperimentPoint:
        """Best configuration over site counts (the convex hull of Fig. 8)."""
        best: ExperimentPoint | None = None
        for s in sites:
            if algorithm == "scalapack":
                point = self.scalapack_point(m, n, s, want_q=want_q)
            else:
                point = self.best_tsqr_point(m, n, s, domain_candidates, want_q=want_q)
            if best is None or point.gflops > best.gflops:
                best = point
        assert best is not None
        return best
