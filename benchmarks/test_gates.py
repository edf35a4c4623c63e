"""Self-test of the perf-benchmark regression gates: every gate can fail.

Each gate helper of ``benchmarks/conftest.py`` gets one row just past its
limit, which it must report, and one just inside, which it must not.  A
gate that cannot fail passes every slowdown; this runs in milliseconds, so
CI runs it next to the engine perf smoke whose gates it covers.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    events_flatness_failures,
    events_gate_failures,
    overhead_gate_failures,
    wall_gate_failures,
)

#: How far past (or inside) a limit the probe rows sit, relative.
NUDGE = 1e-6

RECORDED = [{"ranks": 8192, "wall_s": 2.0, "events_per_s": 40_000.0}]


def _wall(factor: float) -> list[str]:
    # Limit: max(2 x 2.0 s, 1 s floor) = 4.0 s.
    row = {"ranks": 8192, "wall_s": 4.0 * factor, "events_per_s": 1.0}
    return wall_gate_failures([row], RECORDED, factor=2.0, floor_s=1.0)


def _events(factor: float) -> list[str]:
    # Limit: 40,000 / 2 = 20,000 events/s.
    row = {"ranks": 8192, "wall_s": 1.0, "events_per_s": 20_000.0 * factor}
    return events_gate_failures([row], RECORDED, factor=2.0, min_wall_s=0.01)


def _flatness(factor: float) -> list[str]:
    # Limit: half the best rate at smaller rank counts (50,000 events/s).
    rows = [
        {"ranks": 512, "wall_s": 0.5, "events_per_s": 100_000.0},
        {"ranks": 8192, "wall_s": 1.0, "events_per_s": 50_000.0 * factor},
    ]
    return events_flatness_failures(rows, collapse_ratio=0.5, min_wall_s=0.01)


def _overhead(factor: float) -> list[str]:
    # Limit: 0.3 s x 1.10 + 0.15 s = 0.48 s.
    row = {
        "ranks": 8192,
        "wall_streaming_s": 0.48 * factor,
        "wall_no_streaming_s": 0.3,
    }
    return overhead_gate_failures([row], factor=1.10, slack_s=0.15)


#: gate -> (probe, factor that puts the row just past the limit).  Wall and
#: overhead limits are ceilings, the two events/s limits floors.
GATES = {
    "wall": (_wall, 1.0 + NUDGE),
    "events": (_events, 1.0 - NUDGE),
    "flatness": (_flatness, 1.0 - NUDGE),
    "overhead": (_overhead, 1.0 + NUDGE),
}


@pytest.mark.parametrize("gate", sorted(GATES))
def test_a_row_just_past_the_limit_trips_the_gate(gate):
    probe, past = GATES[gate]
    failures = probe(past)
    assert len(failures) == 1, failures
    assert "8192" in failures[0]


@pytest.mark.parametrize("gate", sorted(GATES))
def test_a_row_just_inside_the_limit_passes(gate):
    probe, past = GATES[gate]
    inside = 2.0 - past  # mirror the nudge to the other side of the limit
    assert probe(inside) == []
