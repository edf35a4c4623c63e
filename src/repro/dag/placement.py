"""Placement and priority policies of the task-DAG runtime.

Placement decides *where* a task runs (which simulated rank owns which
tiles); priority decides *what* a rank runs first among its ready tasks.
The two compose freely and neither affects numerical results — the graph's
dependency edges pin every per-tile operation sequence — so policies are a
pure scheduling study.

Placement policies (``PLACEMENT_POLICIES``):

* ``block`` — contiguous tile-row blocks per rank, the distribution of the
  SPMD CAQR program (combine traffic crosses ranks only at group
  boundaries);
* ``block-cyclic`` — tile rows dealt round-robin over the ranks (classic
  ScaLAPACK-style balance, more cross traffic);
* ``owner-computes`` — tiles spread diagonally over the ranks and each task
  runs wherever its first output tile lives (2-D traffic, the
  tile-runtime default).

Priority policies (``PRIORITY_POLICIES``):

* ``critical-path`` — longest time-weighted path to a sink first (computed
  from the kernel-rate model), the classic latency-hiding heuristic;
* ``panel`` — panel-column factorization kernels before trailing updates,
  earlier panels first (lookahead in its simplest form);
* ``fifo`` — graph emission order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dag.analysis import downstream_seconds
from repro.dag.graph import TaskGraph
from repro.dag.kernels import panel_kernel_names
from repro.exceptions import ConfigurationError
from repro.gridsim.kernelmodel import KernelRateModel
from repro.util.partition import block_ranges

__all__ = [
    "DEFAULT_PLACEMENT",
    "DEFAULT_PRIORITY",
    "PLACEMENT_POLICIES",
    "PRIORITY_POLICIES",
    "TaskPlacement",
    "place_tasks",
    "priority_order",
]

PLACEMENT_POLICIES = ("block", "block-cyclic", "owner-computes")
PRIORITY_POLICIES = ("critical-path", "panel", "fifo")

#: The policies a DAG run uses when none is named.  The runner, the CLI and
#: the service's cache keys all read these, so a key never names one
#: schedule while the runner simulates another.
DEFAULT_PLACEMENT = "block"
DEFAULT_PRIORITY = "critical-path"

#: Kernels that advance a panel factorization (preferred by ``panel``),
#: straight from the registry's per-kernel ``panel`` flags — a newly
#: registered algorithm gets the panel priority policy for free.
_PANEL_KERNELS = panel_kernel_names()


@dataclass(frozen=True)
class TaskPlacement:
    """Who owns what: task -> rank and initial tile -> rank maps."""

    policy: str
    n_ranks: int
    task_rank: tuple[int, ...]
    #: Owner of each handle's *initial* value (meaningful for "A" handles).
    initial_owner: tuple[int, ...]

    def ranks_used(self) -> set[int]:
        """Ranks that execute at least one task."""
        return set(self.task_rank)


def place_tasks(graph: TaskGraph, policy: str, n_ranks: int) -> TaskPlacement:
    """Assign every task (and every initial tile) of ``graph`` to a rank."""
    if n_ranks <= 0:
        raise ConfigurationError(f"rank count must be positive, got {n_ranks}")
    if policy not in PLACEMENT_POLICIES:
        raise ConfigurationError(
            f"unknown placement policy {policy!r}; choose from {PLACEMENT_POLICIES}"
        )
    mt = graph.grid.mt

    if policy == "block":
        owner_ranges = block_ranges(mt, n_ranks)
        row_owner = [0] * mt
        for rank, (a, b) in enumerate(owner_ranges):
            for i in range(a, b):
                row_owner[i] = rank
    elif policy == "block-cyclic":
        row_owner = [i % n_ranks for i in range(mt)]
    else:  # owner-computes: tasks follow their output tile (set below)
        row_owner = [i % n_ranks for i in range(mt)]

    def tile_owner(i: int, j: int) -> int:
        if policy == "owner-computes":
            return (i + j) % n_ranks
        return row_owner[i]

    initial_owner = [
        tile_owner(key[1], key[2]) if key[0] == "A" else -1
        for key in graph.handle_keys
    ]

    task_rank = []
    for task in graph.tasks:
        if policy == "owner-computes":
            rank = None
            for h in task.writes:
                key = graph.handle_keys[h]
                if key[0] == "A":
                    rank = tile_owner(key[1], key[2])
                    break
            if rank is None:
                rank = row_owner[task.host_row]
        else:
            rank = row_owner[task.host_row]
        task_rank.append(rank)

    return TaskPlacement(
        policy=policy,
        n_ranks=n_ranks,
        task_rank=tuple(task_rank),
        initial_owner=tuple(initial_owner),
    )


def priority_order(
    graph: TaskGraph,
    policy: str,
    kernel_model: KernelRateModel | None = None,
) -> tuple[int, ...]:
    """Return ``order[task] = position``; lower positions run first.

    ``critical-path`` needs the ``kernel_model`` that converts flop counts
    into seconds (the same one the simulation charges, so the heuristic
    optimises exactly the makespan being measured).
    """
    if policy not in PRIORITY_POLICIES:
        raise ConfigurationError(
            f"unknown priority policy {policy!r}; choose from {PRIORITY_POLICIES}"
        )
    ids = range(graph.n_tasks)
    if policy == "fifo":
        ranked = list(ids)
    elif policy == "panel":
        ranked = sorted(
            ids,
            key=lambda t: (
                graph.tasks[t].kernel not in _PANEL_KERNELS,
                graph.tasks[t].k,
                t,
            ),
        )
    else:
        if kernel_model is None:
            raise ConfigurationError(
                "the critical-path priority needs the platform's kernel model"
            )
        cp = downstream_seconds(graph, kernel_model)
        ranked = sorted(ids, key=lambda t: (-cp[t], t))
    order = [0] * graph.n_tasks
    for position, t in enumerate(ranked):
        order[t] = position
    return tuple(order)
