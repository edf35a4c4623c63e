"""Performance prediction from the analytic cost model (paper Eq. (1)).

The paper approximates the factorization time on a homogeneous network as::

    time = beta * (# msg) + alpha * (vol. data exchanged) + gamma * (# FLOPs)

with ``alpha`` the inverse bandwidth, ``beta`` the latency and ``gamma`` the
inverse flop rate of a domain.  The predictor evaluates that formula for both
algorithms of Tables I/II, converts times into Gflop/s the same way the
paper's figures do (useful flops divided by wall time), and answers the two
qualitative questions the model is used for in §IV:

* Property 5: for which column counts ``N`` does TSQR beat ScaLAPACK, and
  where does the advantage fade?
* scalability: how does predicted performance evolve with ``M`` and with the
  number of domains / sites?
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.model.costs import (
    CostBreakdown,
    caqr_costs,
    dag_caqr_costs,
    scalapack_costs,
    tsqr_costs,
)
from repro.util.units import gflops_rate
from repro.virtual.flops import qr_flops

__all__ = [
    "MachineParameters",
    "Prediction",
    "predict",
    "predict_pair",
    "predict_caqr",
    "predict_dag_caqr",
    "crossover_n",
]


@dataclass(frozen=True)
class MachineParameters:
    """The three constants of Eq. (1).

    Attributes
    ----------
    latency_s:
        ``beta`` — time per message, seconds.
    inverse_bandwidth_s_per_double:
        ``alpha`` — seconds per double-precision word exchanged.
    domain_gflops:
        ``1/gamma`` expressed as the sustained rate of one domain in Gflop/s.
    """

    latency_s: float
    inverse_bandwidth_s_per_double: float
    domain_gflops: float

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.inverse_bandwidth_s_per_double < 0:
            raise ConfigurationError("latency and inverse bandwidth must be non-negative")
        if self.domain_gflops <= 0:
            raise ConfigurationError("the domain rate must be positive")

    @classmethod
    def from_link(
        cls, latency_s: float, bandwidth_bytes_per_s: float, domain_gflops: float
    ) -> "MachineParameters":
        """Build the constants from a link description (bytes/s) and a rate."""
        return cls(
            latency_s=latency_s,
            inverse_bandwidth_s_per_double=8.0 / bandwidth_bytes_per_s,
            domain_gflops=domain_gflops,
        )


@dataclass(frozen=True)
class Prediction:
    """Predicted cost and achieved rate of one algorithm on one problem."""

    costs: CostBreakdown
    latency_time_s: float
    bandwidth_time_s: float
    compute_time_s: float

    @property
    def time_s(self) -> float:
        """Total predicted time (Eq. (1))."""
        return self.latency_time_s + self.bandwidth_time_s + self.compute_time_s

    @property
    def gflops(self) -> float:
        """Achieved rate using the paper's useful-flop convention."""
        useful = qr_flops(self.costs.m, self.costs.n)
        if self.costs.want_q:
            useful *= 2.0
        return gflops_rate(useful, self.time_s)


def predict(costs: CostBreakdown, machine: MachineParameters) -> Prediction:
    """Evaluate Eq. (1) for one cost breakdown."""
    latency_time = machine.latency_s * costs.messages
    bandwidth_time = machine.inverse_bandwidth_s_per_double * costs.volume_doubles
    compute_time = costs.flops / (machine.domain_gflops * 1e9)
    return Prediction(
        costs=costs,
        latency_time_s=latency_time,
        bandwidth_time_s=bandwidth_time,
        compute_time_s=compute_time,
    )


def predict_pair(
    m: int, n: int, p: int, machine: MachineParameters, *, want_q: bool = False
) -> tuple[Prediction, Prediction]:
    """Predictions for (ScaLAPACK QR2, TSQR) on the same problem and machine."""
    return (
        predict(scalapack_costs(m, n, p, want_q=want_q), machine),
        predict(tsqr_costs(m, n, p, want_q=want_q), machine),
    )


def predict_caqr(
    m: int,
    n: int,
    p: int,
    machine: MachineParameters,
    *,
    tile_size: int = 64,
    panel_tree: str = "binary",
) -> Prediction:
    """Eq. (1) applied to the general-matrix CAQR counts of §VI.

    This is the prediction the paper's closing discussion calls for: once
    ``N`` grows past :func:`crossover_n`, the extra ``2/3 log2(P) N^3``
    combine flops of plain TSQR dominate and one should switch to CAQR,
    whose panels are ``tile_size`` wide regardless of ``N``.
    """
    return predict(
        caqr_costs(m, n, p, tile_size=tile_size, panel_tree=panel_tree), machine
    )


def predict_dag_caqr(
    m: int,
    n: int,
    p: int,
    machine: MachineParameters,
    *,
    tile_size: int = 64,
    panel_tree: str = "binary",
    placement: str | None = None,
) -> Prediction:
    """Eq. (1) applied to the dataflow CAQR counts of the task-DAG runtime.

    The flop term is the critical-path count (the only work a DAG execution
    serialises), so the prediction is a *lower envelope*: comparing it with
    :func:`predict_caqr` bounds how much a dataflow schedule can gain over
    the bulk-synchronous program on the same machine.
    """
    return predict(
        dag_caqr_costs(
            m, n, p, tile_size=tile_size, panel_tree=panel_tree, placement=placement
        ),
        machine,
    )


def crossover_n(
    m: int,
    p: int,
    machine: MachineParameters,
    *,
    n_candidates: range | None = None,
    want_q: bool = False,
) -> int | None:
    """Smallest ``N`` (if any) at which ScaLAPACK becomes faster than TSQR.

    Paper Property 5: TSQR wins for mid-range ``N`` but its extra
    ``2/3 log2(P) N^3`` flops eventually dominate, at which point one should
    switch to CAQR.  Returns ``None`` when no crossover occurs in the
    candidate range.
    """
    candidates = n_candidates if n_candidates is not None else range(1, 4097)
    for n in candidates:
        if n > m:
            break
        scal, ts = predict_pair(m, n, p, machine, want_q=want_q)
        if scal.time_s < ts.time_s:
            return n
    return None
