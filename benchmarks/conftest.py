"""Shared fixtures of the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(§V) on the simulated Grid'5000 platform, prints the resulting series next to
the paper's approximate values, and stores the raw numbers as CSV under
``results/``.  Those are simulated (virtual-time) numbers, identical on every
host.  Host timings — the engine and service perf benchmarks' CSVs and
``BENCH_<name>.json`` trajectories — go to the git-ignored ``results/local/``
instead, so a benchmark run never rewrites a tracked file.

Two sweep sizes are supported:

* the default ("reduced") sweep keeps the full M range but fewer points and
  only the narrowest/widest column counts, so the whole benchmark suite runs
  in a few minutes;
* setting the environment variable ``REPRO_BENCH_FULL=1`` switches to the
  paper's complete sweeps (all four column counts, every power-of-two M),
  which takes substantially longer.

The :class:`~repro.experiments.runner.ExperimentRunner` is session-scoped so
identical evaluation points (e.g. those shared by Fig. 4/5 and Fig. 8) are
simulated once and reused.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.figures import FigureData
from repro.experiments.report import ascii_series, ascii_table, format_points, write_csv
from repro.experiments.runner import ExperimentRunner
from repro.experiments.workloads import PAPER_N_VALUES, paper_m_values, reduced_m_values

#: Directory where benchmark outputs (CSV series) are written.
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
#: Git-ignored directory for host-timing outputs (timing CSVs, fresh
#: ``BENCH_<name>.json`` trajectories).
LOCAL_RESULTS_DIR = RESULTS_DIR / "local"


def full_sweep() -> bool:
    """True when the complete paper sweep was requested."""
    return os.environ.get("REPRO_BENCH_FULL", "0") not in ("", "0", "false", "False")


def bench_n_values() -> tuple[int, ...]:
    """Column counts exercised by the figure benchmarks."""
    return PAPER_N_VALUES if full_sweep() else (64, 512)


def bench_m_values(n: int, points: int = 3) -> list[int]:
    """Row counts exercised for column count ``n``."""
    return paper_m_values(n) if full_sweep() else reduced_m_values(n, points=points)


def bench_domain_counts() -> tuple[int, ...]:
    """Domains-per-cluster sweep of the Fig. 6/7 benchmarks."""
    return (1, 2, 4, 8, 16, 32, 64) if full_sweep() else (1, 4, 16, 64)


def pytest_collection_modifyitems(items) -> None:
    """Mark every paper-scale benchmark as ``slow``.

    The tier-1 command still runs them; ``-m "not slow"`` gives the quick
    unit-test-only run (the same selection the CI workflow uses via
    ``pytest tests``).
    """
    here = Path(__file__).resolve().parent
    for item in items:
        if here in Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """Session-wide experiment runner (shared point cache)."""
    return ExperimentRunner()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory for CSV outputs, created on demand."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def local_results_dir() -> Path:
    """Git-ignored directory for host-timing outputs, created on demand."""
    LOCAL_RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return LOCAL_RESULTS_DIR


def report_figure(figure: FigureData, results_dir: Path, *, note: str = "") -> None:
    """Print a figure's series (table + ASCII sketch) and persist them as CSV."""
    print(f"\n=== {figure.figure_id}: {figure.title} ===")
    if note:
        print(note)
    print(format_points(figure.as_rows()))
    print()
    print(ascii_series(figure.as_mapping(), xlabel=figure.xlabel, ylabel=figure.ylabel))
    write_csv(results_dir / f"{figure.figure_id}.csv", figure.as_rows())


def report_rows(title: str, rows: list[dict], results_dir: Path, filename: str) -> None:
    """Print tabular benchmark output and persist it as CSV."""
    print(f"\n=== {title} ===")
    print(format_points(rows))
    write_csv(results_dir / filename, rows)


# ---------------------------------------------------------------------------
# Machine-readable perf trajectories (BENCH_<name>.json)
# ---------------------------------------------------------------------------

def bench_json_path(name: str, results_dir: Path = RESULTS_DIR) -> Path:
    """Location of a recorded perf trajectory."""
    return results_dir / f"BENCH_{name}.json"


def load_bench_json(name: str, results_dir: Path = RESULTS_DIR) -> dict | None:
    """Read a recorded trajectory, or None when absent/corrupt.

    The committed ``results/BENCH_<name>.json`` is the regression baseline:
    a perf benchmark derives its gate limits from it and echoes it next to
    the fresh numbers it writes to ``results/local/`` — so a failing run's
    artifact shows both, and the baseline moves only when a recording is
    deliberately committed (copy the local file over the tracked one), never
    with the speed of whichever host ran last.
    """
    path = bench_json_path(name, results_dir)
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def write_bench_json(
    name: str, payload: dict, results_dir: Path = LOCAL_RESULTS_DIR
) -> Path:
    """Persist a perf trajectory as pretty-printed JSON and return the path."""
    path = bench_json_path(name, results_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


@pytest.fixture(scope="session")
def bench_json(local_results_dir):
    """Reporter fixture: ``bench_json(name, payload)`` writes
    ``results/local/BENCH_<name>.json``."""

    def _write(name: str, payload: dict) -> Path:
        return write_bench_json(name, payload, local_results_dir)

    return _write


# ---------------------------------------------------------------------------
# Regression gates (wall clock and events/s)
# ---------------------------------------------------------------------------
#
# Perf benchmarks gate themselves against the committed BENCH_<name>.json.
# Rows are dicts carrying at least ``ranks``, ``wall_s`` and
# ``events_per_s``; all three helpers return human-readable failure
# messages (empty list = gate passed) so a benchmark can collect every
# violation before asserting.

def wall_gate_failures(
    fresh_rows: list[dict],
    baseline_rows: list[dict],
    *,
    factor: float = 2.0,
    floor_s: float = 1.0,
    label: str = "",
) -> list[str]:
    """Wall-clock regression check of fresh rows against recorded ones.

    Each fresh row's ``wall_s`` may be at most ``factor`` over the recorded
    row at the same rank count, but never fails below the absolute
    ``floor_s`` (headroom so slow CI hardware cannot flake the suite).  Rank
    counts without a recorded row are skipped — their first recorded run
    becomes the gate for the next one.
    """
    recorded = {r.get("ranks"): r for r in baseline_rows if r.get("wall_s")}
    failures = []
    for row in fresh_rows:
        base = recorded.get(row.get("ranks"))
        if base is None:
            continue
        limit = max(factor * base["wall_s"], floor_s)
        if row["wall_s"] > limit:
            failures.append(
                f"{label}{row['ranks']} ranks: wall {row['wall_s']:.3f}s vs "
                f"recorded {base['wall_s']:.3f}s (limit {limit:.3f}s)"
            )
    return failures


def events_gate_failures(
    fresh_rows: list[dict],
    baseline_rows: list[dict],
    *,
    factor: float = 2.0,
    min_wall_s: float = 0.01,
    label: str = "",
) -> list[str]:
    """Events/s regression check: engine throughput must not collapse.

    Each fresh row must sustain at least ``1/factor`` of the recorded
    events/s at the same rank count.  Rows whose fresh wall time is under
    ``min_wall_s`` are skipped (the rate is timer noise there), as are rank
    counts with no recorded rate yet.
    """
    recorded = {r.get("ranks"): r for r in baseline_rows if r.get("events_per_s")}
    failures = []
    for row in fresh_rows:
        base = recorded.get(row.get("ranks"))
        rate = row.get("events_per_s")
        if base is None or not rate or row.get("wall_s", 0.0) < min_wall_s:
            continue
        limit = base["events_per_s"] / factor
        if rate < limit:
            failures.append(
                f"{label}{row['ranks']} ranks: {rate:,.0f} events/s vs "
                f"recorded {base['events_per_s']:,.0f} (limit {limit:,.0f})"
            )
    return failures


def events_flatness_failures(
    fresh_rows: list[dict],
    *,
    collapse_ratio: float = 0.5,
    min_wall_s: float = 0.01,
) -> list[str]:
    """Monotone-or-flat check across one run's own scaling sweep.

    Walking the rows in increasing rank order, each measurable events/s must
    stay within ``collapse_ratio`` of the best rate seen at any smaller rank
    count.  This is the superlinear collapse the generator core was built to
    remove: the thread-backed engine fell to 0.14x of its small-sweep peak by
    2048 ranks, while a flat engine sits near 1.0.
    """
    best = 0.0
    failures = []
    for row in sorted(fresh_rows, key=lambda r: r.get("ranks", 0)):
        rate = row.get("events_per_s")
        if not rate or row.get("wall_s", 0.0) < min_wall_s:
            continue
        if best and rate < collapse_ratio * best:
            failures.append(
                f"events/s collapsed at {row['ranks']} ranks: {rate:,.0f} vs "
                f"best {best:,.0f} at smaller rank counts "
                f"(floor {collapse_ratio:.0%} of best)"
            )
        best = max(best, rate)
    return failures


__all__ = [
    "ascii_table",
    "bench_domain_counts",
    "bench_json_path",
    "bench_m_values",
    "bench_n_values",
    "events_flatness_failures",
    "events_gate_failures",
    "full_sweep",
    "load_bench_json",
    "report_figure",
    "report_rows",
    "wall_gate_failures",
    "write_bench_json",
]
