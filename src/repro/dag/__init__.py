"""The task-DAG runtime: dataflow execution of tiled algorithms on gridsim.

Four layers (see ``docs/architecture.md``, "The task-DAG runtime" and "The
algorithm registry"):

* :mod:`repro.dag.kernels` — the algorithm registry: per-kernel read/write
  plans, flop counts and implementations, plus per-algorithm loop nests
  (tiled QR, tiled Cholesky, tiled LU ship; new algorithms register here);
* :mod:`repro.dag.graph` — tasks, tile handles and the automatic derivation
  of dependency edges from read/write sets, plus the generic
  :func:`build_tiled_graph` builder, its :func:`tiled_qr_graph` instance
  and the memoised :func:`cached_graph`;
* :mod:`repro.dag.runtime` + :mod:`repro.dag.placement` — the SPMD
  ready-queue driver (eager sends, lazy receives) and the placement /
  priority policies it composes; :func:`run_dag_factorization` with a
  :class:`DAGFactorizationConfig` runs any registered algorithm;
* :mod:`repro.dag.analysis` — the exact critical-path lower bound, per-rank
  busy/comm/idle breakdowns and Gantt CSV export.
"""

from repro.dag.analysis import (
    CriticalPath,
    RankUtilization,
    ScheduleEntry,
    communication_counts,
    critical_path,
    flop_critical_path,
    iter_messages,
    mean_idle_fraction,
    rank_utilization,
    write_gantt_csv,
)
from repro.dag.graph import (
    Task,
    TaskGraph,
    build_tiled_graph,
    cached_graph,
    tiled_qr_graph,
)
from repro.dag.kernels import (
    ALGORITHMS,
    AlgorithmSpec,
    GraphStructure,
    KERNELS,
    KernelSpec,
    algorithm_spec,
)
from repro.dag.placement import (
    PLACEMENT_POLICIES,
    PRIORITY_POLICIES,
    TaskPlacement,
    place_tasks,
    priority_order,
)
from repro.dag.recovery import (
    RecoveryPlan,
    RecoveryReport,
    build_recovery_plan,
    lost_version_closure,
)
from repro.dag.runtime import (
    DAGFactorizationConfig,
    DAGRunResult,
    run_dag_factorization,
)

__all__ = [
    "CriticalPath",
    "RankUtilization",
    "ScheduleEntry",
    "communication_counts",
    "critical_path",
    "flop_critical_path",
    "iter_messages",
    "mean_idle_fraction",
    "rank_utilization",
    "write_gantt_csv",
    "Task",
    "TaskGraph",
    "build_tiled_graph",
    "cached_graph",
    "tiled_qr_graph",
    "ALGORITHMS",
    "AlgorithmSpec",
    "GraphStructure",
    "KERNELS",
    "KernelSpec",
    "algorithm_spec",
    "PLACEMENT_POLICIES",
    "PRIORITY_POLICIES",
    "TaskPlacement",
    "place_tasks",
    "priority_order",
    "RecoveryPlan",
    "RecoveryReport",
    "build_recovery_plan",
    "lost_version_closure",
    "DAGFactorizationConfig",
    "DAGRunResult",
    "run_dag_factorization",
]
