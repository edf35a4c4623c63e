"""Simulated grid computing environment (the Grid'5000 + QCG-OMPI substrate).

The paper's experiments run on Grid'5000 through the QCG-OMPI topology-aware
MPI middleware; this package provides the equivalent substrate as a
virtual-time simulator so the algorithms above it (TSQR, CAQR, the ScaLAPACK
baseline) can be written in ordinary SPMD/MPI style and evaluated at paper
scale on a single machine.  See DESIGN.md §2 for the substitution argument.

Layering (bottom to top):

* :mod:`machine`, :mod:`network`, :mod:`topology` — platform description;
* :mod:`kernelmodel` — per-kernel compute rates (Property 2 of the paper);
* :mod:`platform` — the bundle of the above + per-run mutable state;
* :mod:`engine` — the single-threaded virtual-time scheduler (rank programs
  are generators, one runnable rank at a time, event-driven blocking,
  instant deadlock detection);
* :mod:`collectives`, :mod:`communicator` — simulated MPI;
* :mod:`executor` — SPMD execution, one generator program per rank;
* :mod:`middleware` — the QCG-OMPI analogue (JobProfile, meta-scheduler,
  topology attributes, per-group communicators);
* :mod:`trace` — message/byte/flop accounting behind Tables I and II.
"""

from repro.gridsim.collectives import (
    TreeSchedule,
    binary_tree,
    flat_tree,
    hierarchical_tree,
)
from repro.gridsim.communicator import MAX, SUM, CommCore, CommHandle, ReduceOp, payload_nbytes
from repro.gridsim.executor import RankContext, SimulationResult, SPMDExecutor, run_spmd
from repro.gridsim.failures import FailureSchedule, RankFailure
from repro.gridsim.kernelmodel import KernelEfficiency, KernelRateModel
from repro.gridsim.machine import ClusterSpec, GridSpec, NodeSpec, ProcessorSpec
from repro.gridsim.middleware import (
    Allocation,
    GroupCommunicators,
    JobProfile,
    MetaScheduler,
    NetworkRequirement,
    ProcessGroupRequirement,
    TopologyAttributes,
    group_communicators,
    topology_attributes,
)
from repro.gridsim.network import LinkClass, LinkSpec, NetworkModel
from repro.gridsim.platform import Platform, SimulationState
from repro.gridsim.topology import (
    ProcessLocation,
    ProcessPlacement,
    block_placement,
    round_robin_placement,
)
from repro.gridsim.trace import MessageRecord, Trace, TraceSummary

__all__ = [
    "TreeSchedule",
    "binary_tree",
    "flat_tree",
    "hierarchical_tree",
    "MAX",
    "SUM",
    "CommCore",
    "CommHandle",
    "ReduceOp",
    "payload_nbytes",
    "RankContext",
    "SimulationResult",
    "SPMDExecutor",
    "run_spmd",
    "FailureSchedule",
    "RankFailure",
    "KernelEfficiency",
    "KernelRateModel",
    "ClusterSpec",
    "GridSpec",
    "NodeSpec",
    "ProcessorSpec",
    "Allocation",
    "GroupCommunicators",
    "JobProfile",
    "MetaScheduler",
    "NetworkRequirement",
    "ProcessGroupRequirement",
    "TopologyAttributes",
    "group_communicators",
    "topology_attributes",
    "LinkClass",
    "LinkSpec",
    "NetworkModel",
    "Platform",
    "SimulationState",
    "ProcessLocation",
    "ProcessPlacement",
    "block_placement",
    "round_robin_placement",
    "MessageRecord",
    "Trace",
    "TraceSummary",
]
