"""Deterministic rank-failure injection.

The paper's target is a *grid* — federated, volatile resources where
processes disappear mid-run — so the simulator models failures as
first-class, reproducible events.  A :class:`FailureSchedule` names, per
rank, a virtual-time deadline (``at_time``) and/or an event-count budget
(``after_events``); the simulation state checks the schedule at every
*failure checkpoint* — each communicator operation entry (``send``,
``recv``, ``probe``, every collective; ``CommHandle.checkpoint(count)``
counts as ``count`` entries) and each compute charge — and kills the rank
at the first checkpoint at or past its deadline.  Park wake-ups run only
the revocation check.

Death is implemented with the internal :class:`_RankDeath` control-flow
signal: it unwinds the dying rank's generator, the engine retires the rank
quietly (no abort, no error), and every parked survivor is requeued so it
can observe the failure.  From then on any operation on a communicator
whose group contains the dead rank raises
:class:`~repro.exceptions.RankFailedError` in the caller — the simulated
analogue of ULFM's revoked-communicator semantics: parked and queued
messages of the dead rank become tombstones that are never delivered.

Because every decision is a pure function of ``(program, schedule)``,
failure injection is bit-deterministic, and a run with ``failures=None``
takes no new branches at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.exceptions import ConfigurationError

__all__ = ["RankFailure", "FailureSchedule"]


class _RankDeath(BaseException):
    """Internal control flow: unwinds a dying rank's program.

    Deliberately a ``BaseException`` so rank programs that catch
    ``Exception`` (or :class:`~repro.exceptions.ReproError`, like the DAG
    recovery path) can never swallow their own death.  The engine catches
    it and retires the rank without recording an error.
    """

    def __init__(self, rank: int) -> None:
        super().__init__(f"rank {rank} failed (injected by the failure schedule)")
        self.rank = rank


@dataclass(frozen=True)
class RankFailure:
    """One rank's death sentence: a virtual-time and/or event-count deadline.

    ``at_time`` kills the rank at its first failure checkpoint whose virtual
    clock is ``>= at_time``; ``after_events`` kills it at its
    ``after_events + 1``-th checkpoint.  When both are given, whichever
    triggers first wins.
    """

    rank: int
    at_time: float | None = None
    after_events: int | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(f"failure rank must be >= 0, got {self.rank}")
        if self.at_time is None and self.after_events is None:
            raise ConfigurationError(
                f"failure of rank {self.rank} needs an at_time or an after_events deadline"
            )
        if self.at_time is not None and self.at_time < 0:
            raise ConfigurationError(
                f"failure time of rank {self.rank} must be >= 0, got {self.at_time}"
            )
        if self.after_events is not None and self.after_events < 0:
            raise ConfigurationError(
                f"failure event count of rank {self.rank} must be >= 0, "
                f"got {self.after_events}"
            )


class FailureSchedule:
    """Immutable set of :class:`RankFailure` deadlines, at most one per rank."""

    __slots__ = ("_by_rank",)

    def __init__(self, failures: Iterable[RankFailure]) -> None:
        by_rank: dict[int, RankFailure] = {}
        for failure in failures:
            if not isinstance(failure, RankFailure):
                raise ConfigurationError(
                    f"FailureSchedule takes RankFailure entries, got {failure!r}"
                )
            if failure.rank in by_rank:
                raise ConfigurationError(
                    f"duplicate failure entry for rank {failure.rank}"
                )
            by_rank[failure.rank] = failure
        if not by_rank:
            raise ConfigurationError("a FailureSchedule needs at least one failure")
        self._by_rank = by_rank

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, float]]) -> "FailureSchedule":
        """Build a schedule from ``(rank, at_time)`` pairs (the CLI's form)."""
        return cls(RankFailure(rank=int(r), at_time=float(t)) for r, t in pairs)

    @property
    def ranks(self) -> tuple[int, ...]:
        """The ranks scheduled to die, in increasing order."""
        return tuple(sorted(self._by_rank))

    def deadline(self, rank: int) -> RankFailure | None:
        """The deadline of ``rank``, or None when it is not scheduled to die."""
        return self._by_rank.get(rank)

    def key(self) -> tuple[tuple[int, float | None, int | None], ...]:
        """Canonical hashable identity (used by caches and memo keys)."""
        return tuple(
            (f.rank, f.at_time, f.after_events)
            for f in (self._by_rank[r] for r in sorted(self._by_rank))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailureSchedule):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = ", ".join(
            f"rank {f.rank} @ "
            + "/".join(
                part
                for part in (
                    f"t={f.at_time}" if f.at_time is not None else "",
                    f"events={f.after_events}" if f.after_events is not None else "",
                )
                if part
            )
            for f in (self._by_rank[r] for r in sorted(self._by_rank))
        )
        return f"FailureSchedule({entries})"
