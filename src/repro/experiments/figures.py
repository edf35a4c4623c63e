"""Regeneration of every figure and table of the paper's evaluation (§V).

Each ``figure*``/``table*`` function returns a :class:`FigureData` (series of
(x, y) points plus metadata) or a list of comparison rows; the benchmark
harness prints them and EXPERIMENTS.md records them against the paper's
curves.  The underlying simulations run at paper scale with virtual payloads
through :class:`~repro.experiments.runner.ExperimentRunner`.

Index
-----
* :func:`figure3_network`  — Fig. 3(a): inter/intra-cluster latency & throughput.
* :func:`figure4`          — Fig. 4: ScaLAPACK Gflop/s vs M (1/2/4 sites).
* :func:`figure5`          — Fig. 5: QCG-TSQR (best #domains) Gflop/s vs M.
* :func:`figure6`          — Fig. 6: #domains/cluster sweep on four sites.
* :func:`figure7`          — Fig. 7: #domains sweep on a single site.
* :func:`figure8`          — Fig. 8: TSQR (best) vs ScaLAPACK (best).
* :func:`table1` / :func:`table2` — Tables I/II: message / volume / flop counts,
  analytic model vs counts measured from the simulation traces.
* :func:`caqr_sweep`   — §VI follow-up: general-matrix CAQR at paper scale,
  measured counts vs :func:`repro.model.costs.caqr_costs` per panel tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.experiments.grid5000 import CLUSTER_NAMES, PAPER_LATENCY_MS, PAPER_THROUGHPUT_MBITS
from repro.experiments.runner import ExperimentPoint, ExperimentRunner, PointSpec
from repro.dag.analysis import mean_idle_fraction, rank_utilization
from repro.dag.placement import DEFAULT_PLACEMENT, DEFAULT_PRIORITY
from repro.experiments.workloads import (
    CAQR_PANEL_TREES,
    CAQR_SWEEP_M,
    CAQR_SWEEP_N,
    CAQR_SWEEP_SITES,
    CAQR_SWEEP_TILE,
    DAG_CHOLESKY_SWEEP_N,
    DAG_CHOLESKY_SWEEP_SITES,
    DAG_CHOLESKY_SWEEP_TILE,
    DAG_FAILURES_COUNTS,
    DAG_FAILURES_SWEEP_N,
    DAG_FAILURES_SWEEP_SITES,
    DAG_FAILURES_SWEEP_TILE,
    DAG_SWEEP_M,
    DAG_SWEEP_N,
    DAG_SWEEP_PRIORITIES,
    DAG_SWEEP_SITES,
    DAG_SWEEP_TILE,
    DOMAIN_COUNTS_PER_CLUSTER,
    TABLE2_DOMAINS_PER_CLUSTER,
    TABLE2_M,
    TABLE2_N,
    TABLE2_SITES,
    figure67_m_values,
    reduced_m_values,
)
from repro.gridsim.executor import run_spmd
from repro.model.costs import caqr_costs, dag_cholesky_costs, scalapack_costs, tsqr_costs
from repro.util.units import DOUBLE_BYTES

__all__ = [
    "FigureSeries",
    "FigureData",
    "figure3_network",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "table1",
    "table2",
    "table2_sweep",
    "caqr_sweep",
    "dag_caqr_sweep",
    "dag_cholesky_sweep",
    "dag_failures_sweep",
]


@dataclass
class FigureSeries:
    """One curve of a figure."""

    label: str
    points: list[tuple[float, float]] = field(default_factory=list)

    def xs(self) -> list[float]:
        """X coordinates of the curve."""
        return [x for x, _ in self.points]

    def ys(self) -> list[float]:
        """Y coordinates of the curve."""
        return [y for _, y in self.points]


@dataclass
class FigureData:
    """All curves of one figure panel, plus labelling metadata."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: list[FigureSeries] = field(default_factory=list)

    def series_by_label(self, label: str) -> FigureSeries:
        """Return the curve with the given label."""
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)

    def as_mapping(self) -> dict[str, list[tuple[float, float]]]:
        """Mapping form used by the ASCII plotting helper."""
        return {s.label: list(s.points) for s in self.series}

    def as_rows(self) -> list[dict[str, object]]:
        """Long-form rows (one per point) for CSV output."""
        rows = []
        for s in self.series:
            for x, y in s.points:
                rows.append(
                    {"figure": self.figure_id, "series": s.label, self.xlabel: x, self.ylabel: y}
                )
        return rows


# ---------------------------------------------------------------------------
# Fig. 3(a): network characteristics
# ---------------------------------------------------------------------------

def figure3_network(runner: ExperimentRunner | None = None) -> list[dict[str, object]]:
    """Measure the simulated latency/throughput matrix with ping-pong runs.

    For every cluster pair the first rank of each cluster exchanges an empty
    message (latency estimate) and a 4 MB message (throughput estimate); the
    measured values are reported next to the published Table 3(a) numbers.
    """
    runner = runner or ExperimentRunner()
    platform = runner.platform(4)
    placement = platform.placement
    per_cluster = {name: placement.ranks_of_cluster(name) for name in CLUSTER_NAMES}
    payload_bytes = 4 * 1024 * 1024

    def _pingpong(ctx, rank_a: int, rank_b: int, nbytes: int):
        me = ctx.comm.rank
        if me == rank_a:
            ctx.comm.send(None, dest=rank_b, tag="ping", nbytes=nbytes)
            yield from ctx.comm.recv(source=rank_b, tag="pong")
            return ctx.clock()
        if me == rank_b:
            yield from ctx.comm.recv(source=rank_a, tag="ping")
            ctx.comm.send(None, dest=rank_a, tag="pong", nbytes=nbytes)
        return None

    rows: list[dict[str, object]] = []
    for i, a in enumerate(CLUSTER_NAMES):
        for b in CLUSTER_NAMES[i:]:
            if a == b:
                rank_a, rank_b = per_cluster[a][0], per_cluster[a][2]
            else:
                rank_a, rank_b = per_cluster[a][0], per_cluster[b][0]
            small = run_spmd(platform, _pingpong, rank_a, rank_b, 0)
            large = run_spmd(platform, _pingpong, rank_a, rank_b, payload_bytes)
            rtt_small = small.results[rank_a]
            rtt_large = large.results[rank_a]
            latency_ms = rtt_small / 2.0 * 1e3
            transfer_s = max((rtt_large - rtt_small) / 2.0, 1e-12)
            throughput_mbits = payload_bytes * 8.0 / transfer_s / 1e6
            key = (a, b) if (a, b) in PAPER_LATENCY_MS else (b, a)
            rows.append(
                {
                    "from": a,
                    "to": b,
                    "measured latency (ms)": round(latency_ms, 3),
                    "paper latency (ms)": PAPER_LATENCY_MS[key],
                    "measured throughput (Mb/s)": round(throughput_mbits, 1),
                    "paper throughput (Mb/s)": PAPER_THROUGHPUT_MBITS[key],
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 4 / Fig. 5: performance versus M for 1, 2 and 4 sites
# ---------------------------------------------------------------------------

def figure4(
    runner: ExperimentRunner,
    n: int,
    *,
    m_values: list[int] | None = None,
    sites: tuple[int, ...] = (1, 2, 4),
    want_q: bool = False,
) -> FigureData:
    """ScaLAPACK performance versus the number of rows (paper Fig. 4)."""
    m_values = m_values or reduced_m_values(n)
    data = FigureData(
        figure_id=f"fig4-N{n}" + ("-Q" if want_q else ""),
        title=f"ScaLAPACK performance, N={n}" + (", Q included" if want_q else ""),
        xlabel="M",
        ylabel="Gflop/s",
    )
    runner.prefetch(runner.scalapack_specs(m_values, n, sites, want_q=want_q))
    for s in sites:
        series = FigureSeries(label=f"{s} site(s)")
        for m in m_values:
            point = runner.scalapack_point(m, n, s, want_q=want_q)
            series.points.append((float(m), point.gflops))
        data.series.append(series)
    return data


def figure5(
    runner: ExperimentRunner,
    n: int,
    *,
    m_values: list[int] | None = None,
    sites: tuple[int, ...] = (1, 2, 4),
    domain_candidates: tuple[int, ...] = (32, 64),
    want_q: bool = False,
) -> FigureData:
    """QCG-TSQR performance (best #domains) versus M (paper Fig. 5)."""
    m_values = m_values or reduced_m_values(n)
    data = FigureData(
        figure_id=f"fig5-N{n}" + ("-Q" if want_q else ""),
        title=f"TSQR performance (best #domains), N={n}" + (", Q included" if want_q else ""),
        xlabel="M",
        ylabel="Gflop/s",
    )
    runner.prefetch(
        runner.tsqr_specs(m_values, n, sites, domain_candidates, want_q=want_q)
    )
    for s in sites:
        series = FigureSeries(label=f"{s} site(s)")
        for m in m_values:
            point = runner.best_tsqr_point(m, n, s, domain_candidates, want_q=want_q)
            series.points.append((float(m), point.gflops))
        data.series.append(series)
    return data


# ---------------------------------------------------------------------------
# Fig. 6 / Fig. 7: effect of the number of domains
# ---------------------------------------------------------------------------

def figure6(
    runner: ExperimentRunner,
    n: int,
    *,
    m_values: list[int] | None = None,
    domain_counts: tuple[int, ...] = DOMAIN_COUNTS_PER_CLUSTER,
    want_q: bool = False,
) -> FigureData:
    """Effect of domains/cluster on TSQR over all four sites (paper Fig. 6)."""
    m_values = m_values or figure67_m_values(n)
    data = FigureData(
        figure_id=f"fig6-N{n}" + ("-Q" if want_q else ""),
        title=f"Effect of #domains per cluster (4 sites), N={n}"
        + (", Q included" if want_q else ""),
        xlabel="domains per cluster",
        ylabel="Gflop/s",
    )
    runner.prefetch(runner.tsqr_specs(m_values, n, (4,), domain_counts, want_q=want_q))
    for m in m_values:
        series = FigureSeries(label=f"M = {m:,}")
        for dpc in domain_counts:
            point = runner.tsqr_point(m, n, 4, dpc, want_q=want_q)
            series.points.append((float(dpc), point.gflops))
        data.series.append(series)
    return data


def figure7(
    runner: ExperimentRunner,
    n: int,
    *,
    m_values: list[int] | None = None,
    domain_counts: tuple[int, ...] = DOMAIN_COUNTS_PER_CLUSTER,
    want_q: bool = False,
) -> FigureData:
    """Effect of the number of domains on TSQR on a single site (paper Fig. 7)."""
    m_values = m_values or figure67_m_values(n, single_site=True)
    data = FigureData(
        figure_id=f"fig7-N{n}" + ("-Q" if want_q else ""),
        title=f"Effect of #domains (1 site), N={n}" + (", Q included" if want_q else ""),
        xlabel="domains",
        ylabel="Gflop/s",
    )
    runner.prefetch(runner.tsqr_specs(m_values, n, (1,), domain_counts, want_q=want_q))
    for m in m_values:
        series = FigureSeries(label=f"M = {m:,}")
        for dpc in domain_counts:
            point = runner.tsqr_point(m, n, 1, dpc, want_q=want_q)
            series.points.append((float(dpc), point.gflops))
        data.series.append(series)
    return data


# ---------------------------------------------------------------------------
# Fig. 8: best TSQR against best ScaLAPACK
# ---------------------------------------------------------------------------

def figure8(
    runner: ExperimentRunner,
    n: int,
    *,
    m_values: list[int] | None = None,
    sites: tuple[int, ...] = (1, 2, 4),
    domain_candidates: tuple[int, ...] = (32, 64),
    want_q: bool = False,
) -> FigureData:
    """TSQR (best configuration) versus ScaLAPACK (best configuration), Fig. 8."""
    m_values = m_values or reduced_m_values(n)
    data = FigureData(
        figure_id=f"fig8-N{n}" + ("-Q" if want_q else ""),
        title=f"TSQR (best) vs ScaLAPACK (best), N={n}" + (", Q included" if want_q else ""),
        xlabel="M",
        ylabel="Gflop/s",
    )
    runner.prefetch(
        runner.tsqr_specs(m_values, n, sites, domain_candidates, want_q=want_q)
        + runner.scalapack_specs(m_values, n, sites, want_q=want_q)
    )
    tsqr_series = FigureSeries(label="TSQR (best)")
    scal_series = FigureSeries(label="ScaLAPACK (best)")
    for m in m_values:
        best_tsqr = runner.best_over_sites(
            "tsqr", m, n, sites, domain_candidates=domain_candidates, want_q=want_q
        )
        best_scal = runner.best_over_sites("scalapack", m, n, sites, want_q=want_q)
        tsqr_series.points.append((float(m), best_tsqr.gflops))
        scal_series.points.append((float(m), best_scal.gflops))
    data.series = [tsqr_series, scal_series]
    return data


# ---------------------------------------------------------------------------
# Tables I and II: counts measured from traces vs analytic model
# ---------------------------------------------------------------------------

def _measured_counts(point: ExperimentPoint, p: int) -> tuple[int, float, float]:
    """Trace counts of one run: (max msgs/rank, volume in doubles / P, max flops/rank)."""
    trace = point.trace
    volume_doubles = sum(trace.bytes_by_link.values()) / DOUBLE_BYTES
    return trace.messages_per_rank_max, volume_doubles / p, trace.flops_per_rank_max


def _count_rows(
    runner: ExperimentRunner, m: int, n: int, n_sites: int, *, want_q: bool
) -> list[dict[str, object]]:
    p = runner.processes(n_sites)
    dpc = runner.processes_per_cluster(n_sites)
    scal_model = scalapack_costs(m, n, p, want_q=want_q)
    tsqr_model = tsqr_costs(m, n, p, want_q=want_q)
    scal_point = runner.scalapack_point(m, n, n_sites, want_q=want_q)
    tsqr_point = runner.tsqr_point(m, n, n_sites, dpc, want_q=want_q)
    rows = []
    for name, model, point in (
        ("ScaLAPACK QR2", scal_model, scal_point),
        ("TSQR", tsqr_model, tsqr_point),
    ):
        msgs, volume_per_p, flops = _measured_counts(point, p)
        rows.append(
            {
                "algorithm": name,
                "M": m,
                "N": n,
                "P": p,
                "Q requested": want_q,
                "model # msg (critical path)": round(model.messages, 1),
                "measured # msg (max per rank)": msgs,
                "model volume (doubles)": round(model.volume_doubles, 0),
                "measured volume (doubles, total/P)": round(volume_per_p, 0),
                "model flops (per domain)": round(model.flops, 0),
                "measured flops (max per rank)": round(flops, 0),
                "Gflop/s": round(point.gflops, 2),
            }
        )
    return rows


def table1(
    runner: ExperimentRunner, *, m: int = 1_048_576, n: int = 64, n_sites: int = 4
) -> list[dict[str, object]]:
    """Table I: counts when only the R factor is requested."""
    return _count_rows(runner, m, n, n_sites, want_q=False)


def table2(
    runner: ExperimentRunner, *, m: int = 1_048_576, n: int = 64, n_sites: int = 4
) -> list[dict[str, object]]:
    """Table II: counts when both the Q and the R factors are requested."""
    return _count_rows(runner, m, n, n_sites, want_q=True)


def table2_sweep(
    runner: ExperimentRunner,
    *,
    m: int = TABLE2_M,
    n: int = TABLE2_N,
    n_sites: int = TABLE2_SITES,
    domain_counts: tuple[int, ...] = TABLE2_DOMAINS_PER_CLUSTER,
    include_scalapack: bool = True,
) -> list[dict[str, object]]:
    """Table II opened across the domain sweep: Property 1, measured vs model.

    Every domains-per-cluster configuration is simulated twice — R only,
    then Q and R — and the measured increase of messages, volume and flops
    is reported next to the analytic prediction of :mod:`repro.model.costs`
    (the model ratios are exactly 2: Property 1).  The one-domain-per-process
    rows are the pure TSQR that the paper's Table II models directly and
    reproduce the 2x within a few percent; the multi-process-domain rows
    exercise the distributed ``PDORGQR`` finish of the downward sweep, whose
    blocked application communicates less and computes more than the paper's
    uniform doubling (the same deviation the ScaLAPACK baseline row shows).
    """
    p = runner.processes(n_sites)

    def _row(name, dpc, r_point, q_point, model_r, model_q):
        msg_r, vol_r, flop_r = _measured_counts(r_point, p)
        msg_q, vol_q, flop_q = _measured_counts(q_point, p)
        return {
            "algorithm": name,
            "M": m,
            "N": n,
            "P": p,
            "domains/cluster": dpc if dpc is not None else "-",
            "processes/domain": p // (dpc * n_sites) if dpc is not None else "-",
            "msgs (R)": msg_r,
            "msgs (Q+R)": msg_q,
            "msg ratio": round(msg_q / msg_r, 3),
            "volume/P (R)": round(vol_r, 0),
            "volume/P (Q+R)": round(vol_q, 0),
            "volume ratio": round(vol_q / vol_r, 3),
            "flops (R)": round(flop_r, 0),
            "flops (Q+R)": round(flop_q, 0),
            "flop ratio": round(flop_q / flop_r, 3),
            "model msg ratio": round(model_q.messages / model_r.messages, 3),
            "model volume ratio": round(model_q.volume_doubles / model_r.volume_doubles, 3),
            "model flop ratio": round(model_q.flops / model_r.flops, 3),
            "time ratio": round(q_point.time_s / r_point.time_s, 3),
        }

    sweep_specs = runner.tsqr_specs([m], n, (n_sites,), domain_counts) + runner.tsqr_specs(
        [m], n, (n_sites,), domain_counts, want_q=True
    )
    if include_scalapack:
        sweep_specs += runner.scalapack_specs([m], n, (n_sites,))
        sweep_specs += runner.scalapack_specs([m], n, (n_sites,), want_q=True)
    runner.prefetch(sweep_specs)
    rows: list[dict[str, object]] = []
    for dpc in domain_counts:
        n_domains = dpc * n_sites
        rows.append(
            _row(
                "TSQR",
                dpc,
                runner.tsqr_point(m, n, n_sites, dpc, want_q=False),
                runner.tsqr_point(m, n, n_sites, dpc, want_q=True),
                tsqr_costs(m, n, n_domains),
                tsqr_costs(m, n, n_domains, want_q=True),
            )
        )
    if include_scalapack:
        rows.append(
            _row(
                "ScaLAPACK QR2",
                None,
                runner.scalapack_point(m, n, n_sites),
                runner.scalapack_point(m, n, n_sites, want_q=True),
                scalapack_costs(m, n, p),
                scalapack_costs(m, n, p, want_q=True),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# CAQR sweep: general matrices on the grid (paper §VI), measured vs model
# ---------------------------------------------------------------------------

def caqr_sweep(
    runner: ExperimentRunner,
    *,
    n: int = CAQR_SWEEP_N,
    m_values: tuple[int, ...] | list[int] | None = None,
    n_sites: int = CAQR_SWEEP_SITES,
    tile_size: int = CAQR_SWEEP_TILE,
    panel_trees: tuple[str, ...] = CAQR_PANEL_TREES,
) -> list[dict[str, object]]:
    """Distributed CAQR at paper scale: measured counts next to the model.

    The paper's closing follow-up ("factorization of general matrices on the
    grid"), opened as an artefact: for every row count and panel-tree family
    a virtual general-matrix CAQR runs on the full reservation, and the
    measured message count, exchanged volume and maximum per-rank flops are
    reported as ratios against :func:`repro.model.costs.caqr_costs` (the
    benchmark asserts every ratio within 10%).  Inter-cluster message counts
    expose the tree effect of paper Fig. 2 on the panel reductions: the
    grid-hierarchical tree pays one wide-area message per cluster pair per
    panel, the topology-oblivious binary tree considerably more.
    """
    p = runner.processes(n_sites)
    platform = runner.platform(n_sites)
    clusters = [platform.placement.cluster_of(r) for r in range(p)]

    def _ratio(measured: float, predicted: float) -> float:
        # A single tile row (or a single participating rank) legitimately
        # predicts zero messages and volume; agreement then means the
        # measurement is zero too, not a division.
        if predicted == 0:
            return 1.0 if measured == 0 else float("inf")
        return round(measured / predicted, 3)

    sweep_m = tuple(m_values) if m_values is not None else CAQR_SWEEP_M
    runner.prefetch(
        PointSpec(
            algorithm="caqr", m=m, n=n, n_sites=n_sites,
            tree_kind=tree, tile_size=tile_size,
        )
        for m in sweep_m
        for tree in panel_trees
    )
    rows: list[dict[str, object]] = []
    for m in sweep_m:
        for tree in panel_trees:
            point = runner.caqr_point(m, n, n_sites, tile_size=tile_size, panel_tree=tree)
            model = caqr_costs(
                m, n, p, tile_size=tile_size, panel_tree=tree, clusters=clusters
            )
            measured_msgs = point.trace.total_messages
            measured_volume = sum(point.trace.bytes_by_link.values()) / DOUBLE_BYTES
            measured_flops = point.trace.flops_per_rank_max
            rows.append(
                {
                    "algorithm": "CAQR",
                    "M": m,
                    "N": n,
                    "P": p,
                    "tile": tile_size,
                    "panel tree": tree,
                    "msgs (measured)": measured_msgs,
                    "msgs (model)": round(model.messages, 0),
                    "msg ratio": _ratio(measured_msgs, model.messages),
                    "volume (doubles, measured)": round(measured_volume, 0),
                    "volume (doubles, model)": round(model.volume_doubles, 0),
                    "volume ratio": _ratio(measured_volume, model.volume_doubles),
                    "flops/rank max (measured)": round(measured_flops, 0),
                    "flops/rank max (model)": round(model.flops, 0),
                    "flop ratio": _ratio(measured_flops, model.flops),
                    "inter-cluster msgs": point.inter_cluster_messages,
                    "Gflop/s": round(point.gflops, 2),
                    "time (s)": round(point.time_s, 4),
                    # Per-rank utilisation (from the trace's busy/comm-wait
                    # second counters), averaged over the active ranks —
                    # ranks owning no tile rows would only dilute the mean.
                    "idle fraction (mean)": round(
                        mean_idle_fraction(
                            point.trace, point.time_s, _active_ranks(point.trace)
                        ),
                        4,
                    ),
                    "comm wait max (s)": round(
                        max(point.trace.comm_wait_s_per_rank, default=0.0), 4
                    ),
                }
            )
    return rows


def _active_ranks(trace) -> list[int]:
    """Ranks that executed at least one kernel (owned work) in a run."""
    return [r for r, busy in enumerate(trace.busy_s_per_rank) if busy > 0.0]


# ---------------------------------------------------------------------------
# DAG-CAQR sweep: dataflow vs bulk-synchronous execution of the same problem
# ---------------------------------------------------------------------------

def dag_caqr_sweep(
    runner: ExperimentRunner,
    *,
    n: int = DAG_SWEEP_N,
    m_values: tuple[int, ...] | list[int] | None = None,
    n_sites: int = DAG_SWEEP_SITES,
    tile_size: int = DAG_SWEEP_TILE,
    panel_tree: str = "binary",
    placement: str = DEFAULT_PLACEMENT,
    priorities: tuple[str, ...] = DAG_SWEEP_PRIORITIES,
) -> list[dict[str, object]]:
    """Task-DAG CAQR against SPMD CAQR on the same problem, per priority.

    For every row count and priority policy the same tiled factorization is
    simulated twice — once through the bulk-synchronous SPMD program, once
    through the task-DAG runtime — and the row records the makespans next to
    the exact critical-path lower bound and the per-rank idle breakdown.
    The three inequalities the artefact demonstrates, per point:
    ``critical path <= DAG makespan <= SPMD makespan`` (dataflow execution
    hides the latency the static schedule pays, but no schedule beats the
    dependence chain).
    """
    p = runner.processes(n_sites)
    sweep_m = tuple(m_values) if m_values is not None else DAG_SWEEP_M
    specs = [
        PointSpec(
            algorithm="caqr", m=m, n=n, n_sites=n_sites,
            tree_kind=panel_tree, tile_size=tile_size,
        )
        for m in sweep_m
    ] + [
        PointSpec(
            algorithm="caqr", m=m, n=n, n_sites=n_sites,
            tree_kind=panel_tree, tile_size=tile_size,
            runtime="dag", placement=placement, priority=prio,
        )
        for m in sweep_m
        for prio in priorities
    ]
    runner.prefetch(specs)
    rows: list[dict[str, object]] = []
    for m in sweep_m:
        spmd = runner.caqr_point(m, n, n_sites, tile_size=tile_size, panel_tree=panel_tree)
        for prio in priorities:
            dag = runner.dag_caqr_point(
                m, n, n_sites, tile_size=tile_size, panel_tree=panel_tree,
                placement=placement, priority=prio,
            )
            active = _active_ranks(dag.trace)
            usage = rank_utilization(dag.trace, dag.time_s, active)
            idle_mean = mean_idle_fraction(dag.trace, dag.time_s, active)
            idle_max = max((u.idle_fraction() for u in usage), default=0.0)
            cp = dag.critical_path_s or 0.0
            rows.append(
                {
                    "algorithm": "DAG-CAQR",
                    "M": m,
                    "N": n,
                    "P": p,
                    "tile": tile_size,
                    "panel tree": panel_tree,
                    "placement": placement,
                    "priority": prio,
                    "DAG makespan (s)": round(dag.time_s, 4),
                    "SPMD makespan (s)": round(spmd.time_s, 4),
                    "speedup vs SPMD": round(spmd.time_s / dag.time_s, 3)
                    if dag.time_s > 0
                    else float("inf"),
                    "critical path (s)": round(cp, 4),
                    "CP / DAG makespan": round(cp / dag.time_s, 3)
                    if dag.time_s > 0
                    else 0.0,
                    "idle fraction (mean)": round(idle_mean, 4),
                    "idle fraction (max)": round(idle_max, 4),
                    "comm wait max (s)": round(
                        max(dag.trace.comm_wait_s_per_rank, default=0.0), 4
                    ),
                    "msgs (DAG)": dag.total_messages,
                    "msgs (SPMD)": spmd.total_messages,
                    "inter-cluster msgs": dag.inter_cluster_messages,
                    "Gflop/s": round(dag.gflops, 2),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# DAG-Cholesky sweep: the first non-QR scenario of the algorithm registry
# ---------------------------------------------------------------------------

def dag_cholesky_sweep(
    runner: ExperimentRunner,
    *,
    n_values: tuple[int, ...] | list[int] | None = None,
    n_sites: int = DAG_CHOLESKY_SWEEP_SITES,
    tile_size: int = DAG_CHOLESKY_SWEEP_TILE,
    placement: str = DEFAULT_PLACEMENT,
    priorities: tuple[str, ...] = DAG_SWEEP_PRIORITIES,
) -> list[dict[str, object]]:
    """Task-DAG tiled Cholesky per priority, measured counts next to the model.

    The registry's first non-QR scenario at paper-reservation scale: for
    every matrix order and priority policy a virtual tiled Cholesky runs
    through the task-DAG runtime, and the row records the makespan against
    the exact flop-weighted critical path plus the measured message count
    and exchanged volume as ratios against
    :func:`repro.model.costs.dag_cholesky_costs`.  Both derive from the same
    communication plan, so the ratios are exactly 1.0 — the benchmark gate
    allows 10% — while the idle and critical-path columns show how the
    ``potrf`` chain, far shorter than QR's panel reductions, leaves the
    priority policies much closer together.
    """
    p = runner.processes(n_sites)

    def _ratio(measured: float, predicted: float) -> float:
        if predicted == 0:
            return 1.0 if measured == 0 else float("inf")
        return round(measured / predicted, 3)

    sweep_n = tuple(n_values) if n_values is not None else DAG_CHOLESKY_SWEEP_N
    runner.prefetch(
        PointSpec(
            algorithm="cholesky", m=n, n=n, n_sites=n_sites,
            tile_size=tile_size, runtime="dag",
            placement=placement, priority=prio,
        )
        for n in sweep_n
        for prio in priorities
    )
    rows: list[dict[str, object]] = []
    for n in sweep_n:
        model = dag_cholesky_costs(n, p, tile_size=tile_size, placement=placement)
        for prio in priorities:
            point = runner.dag_cholesky_point(
                n, n_sites, tile_size=tile_size, placement=placement, priority=prio
            )
            active = _active_ranks(point.trace)
            usage = rank_utilization(point.trace, point.time_s, active)
            idle_mean = mean_idle_fraction(point.trace, point.time_s, active)
            idle_max = max((u.idle_fraction() for u in usage), default=0.0)
            cp = point.critical_path_s or 0.0
            measured_msgs = point.trace.total_messages
            measured_volume = sum(point.trace.bytes_by_link.values()) / DOUBLE_BYTES
            rows.append(
                {
                    "algorithm": "DAG-Cholesky",
                    "N": n,
                    "P": p,
                    "tile": tile_size,
                    "placement": placement,
                    "priority": prio,
                    "makespan (s)": round(point.time_s, 4),
                    "critical path (s)": round(cp, 4),
                    "CP / makespan": round(cp / point.time_s, 3)
                    if point.time_s > 0
                    else 0.0,
                    "idle fraction (mean)": round(idle_mean, 4),
                    "idle fraction (max)": round(idle_max, 4),
                    "comm wait max (s)": round(
                        max(point.trace.comm_wait_s_per_rank, default=0.0), 4
                    ),
                    "msgs (measured)": measured_msgs,
                    "msgs (model)": round(model.messages, 0),
                    "msg ratio": _ratio(measured_msgs, model.messages),
                    "volume (doubles, measured)": round(measured_volume, 0),
                    "volume (doubles, model)": round(model.volume_doubles, 0),
                    "volume ratio": _ratio(measured_volume, model.volume_doubles),
                    "inter-cluster msgs": point.inter_cluster_messages,
                    "Gflop/s": round(point.gflops, 2),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# DAG-failures sweep: the cost of surviving rank deaths
# ---------------------------------------------------------------------------

def failure_schedule_pairs(
    count: int, p: int, busy_s_per_rank: Sequence[float]
) -> tuple[tuple[int, float], ...]:
    """Deterministic ``(rank, at_time)`` pairs for a ``count``-failure point.

    Victims walk the rank space with a stride coprime to any power-of-two
    rank count (so they never collide and never all share one node).  Each
    death time sits inside *that rank's own* compute window — between 25%
    and 75% of its failure-free busy seconds — which guarantees the
    deadline fires: deadlines are checked at op entries and compute
    charges, and a rank's clock at its trailing-barrier entry is at least
    its total busy time.  A victim that computed nothing in the baseline
    dies at its first operation instead.  The construction is a pure
    function of ``(count, p, busy_s_per_rank)``: the sweep is exactly
    reproducible and the failing points hash to stable cache keys.
    """
    pairs = []
    for i in range(count):
        rank = (7 * i + 3) % p
        busy = busy_s_per_rank[rank] if rank < len(busy_s_per_rank) else 0.0
        pairs.append((rank, round(busy * (0.25 + 0.5 * i / count), 9)))
    return tuple(pairs)


def dag_failures_sweep(
    runner: ExperimentRunner,
    *,
    n: int | None = None,
    n_sites: int = DAG_FAILURES_SWEEP_SITES,
    tile_size: int = DAG_FAILURES_SWEEP_TILE,
    placement: str = DEFAULT_PLACEMENT,
    priority: str = DEFAULT_PRIORITY,
    failure_counts: tuple[int, ...] | list[int] = DAG_FAILURES_COUNTS,
) -> list[dict[str, object]]:
    """Re-execution recovery cost versus the number of injected rank deaths.

    For every failure count a tiled Cholesky runs through the fault-tolerant
    DAG runtime under the deterministic schedule of
    :func:`failure_schedule_pairs`, and the row records the recovered
    makespan against the memoised failure-free baseline: absolute and
    relative overhead, recovery rounds, and the exactly-once re-execution
    accounting (tasks re-executed = lost-version closure ∩ already-done
    work; tasks executed additionally counts the never-started work the
    dead ranks abandoned).  The zero-failure row *is* the baseline, so the
    curve starts at zero overhead by construction.
    """
    p = runner.processes(n_sites)
    order = n if n is not None else DAG_FAILURES_SWEEP_N[0]
    base = runner.dag_cholesky_point(
        order, n_sites, tile_size=tile_size, placement=placement, priority=priority
    )
    rows: list[dict[str, object]] = []
    for count in failure_counts:
        if count >= p:
            raise ConfigurationError(
                f"{count} failures on a {p}-rank reservation leaves no survivor"
            )
        if count == 0:
            point, recovery = base, None
        else:
            pairs = failure_schedule_pairs(
                count, p, base.trace.busy_s_per_rank
            )
            point = runner.dag_cholesky_point(
                order,
                n_sites,
                tile_size=tile_size,
                placement=placement,
                priority=priority,
                failures=pairs,
            )
            recovery = point.recovery
            scheduled = sorted(r for r, _ in pairs)
            died = sorted((recovery or {}).get("dead_ranks", ()))
            if died != scheduled:
                # Artifact integrity: a row labelled "count failures" must
                # have simulated exactly those deaths, never silently fewer.
                raise SimulationError(
                    f"failure schedule only partially fired: scheduled ranks "
                    f"{scheduled}, died {died}"
                )
        rec = recovery or {}
        rows.append(
            {
                "algorithm": "DAG-Cholesky",
                "N": order,
                "P": p,
                "tile": tile_size,
                "placement": placement,
                "priority": priority,
                "failures": count,
                "dead ranks": " ".join(str(r) for r in rec.get("dead_ranks", ())) or "-",
                "makespan (s)": round(point.time_s, 4),
                "failure-free (s)": round(base.time_s, 4),
                "overhead (s)": round(rec.get("makespan_overhead_s", 0.0), 4),
                "overhead (%)": round(rec.get("makespan_overhead_pct", 0.0), 2),
                "recovery rounds": rec.get("rounds", 0),
                "tasks re-executed": rec.get("tasks_reexecuted", 0),
                "tasks executed in recovery": rec.get("tasks_executed", 0),
                "Gflop/s": round(point.gflops, 2),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Trace hot spots: where the waiting happened (streaming observability)
# ---------------------------------------------------------------------------

def trace_hotspots_report(
    runner: ExperimentRunner,
    *,
    m: int = DAG_SWEEP_M[0],
    n: int = DAG_SWEEP_N,
    n_sites: int = DAG_SWEEP_SITES,
    tile_size: int = DAG_SWEEP_TILE,
    panel_tree: str = "binary",
    placement: str = DEFAULT_PLACEMENT,
    priority: str = DEFAULT_PRIORITY,
    top_k: int = 8,
) -> list[dict[str, object]]:
    """Rank the top-K contention sites of a contended DAG-CAQR run.

    The streaming trace layer accumulates p2p wait seconds per
    ``(link class, source, dest)`` site online, in fixed memory, with no
    event retention — so this report works unchanged at 2048+ ranks.  Each
    row is one site, ordered by accumulated wait; "wait share" is its
    fraction of the run's total p2p wait, so the head of the table answers
    "which links do I fix first".  The sentinel pair ``source = dest = -1``
    is the bounded accumulator's overflow site (all sites past the cap).

    Works from warm cache entries too: the top-K sites are serialised with
    the cached point (unlike the full histogram/timeline snapshot, which
    needs a live run).
    """
    point = runner.dag_caqr_point(
        m, n, n_sites, tile_size=tile_size, panel_tree=panel_tree,
        placement=placement, priority=priority,
    )
    total_wait = sum(point.trace.comm_wait_s_per_rank)
    rows: list[dict[str, object]] = []
    for i, spot in enumerate(point.trace.hot_spots[:top_k], 1):
        rows.append(
            {
                "#": i,
                "M": m,
                "N": n,
                "tile": tile_size,
                "link": spot.link,
                "source": spot.source,
                "dest": spot.dest,
                "wait (s)": round(spot.wait_s, 6),
                "wait share": round(spot.wait_s / total_wait, 4)
                if total_wait > 0
                else 0.0,
                "messages": spot.messages,
                "MB": round(spot.nbytes / 1e6, 3),
            }
        )
    return rows
