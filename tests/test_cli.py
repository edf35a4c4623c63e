"""Tests for the command-line interface."""

from __future__ import annotations

import socket

import pytest

from repro.cli import build_parser, main


def _error_line(capsys, argv) -> str:
    """Run a CLI command that must fail; return its one-line stderr report."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_factor_defaults(self):
        args = build_parser().parse_args(["factor"])
        assert args.command == "factor"
        assert args.rows == 100_000
        assert args.tree == "binary"

    def test_simulate_arguments(self):
        args = build_parser().parse_args(
            ["simulate", "--algorithm", "scalapack", "--sites", "2", "--rows", "123"]
        )
        assert args.algorithm == "scalapack"
        assert args.sites == 2
        assert args.rows == 123

    def test_invalid_site_count_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--sites", "3"])

    def test_figure_requires_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure"])

    def test_figure_domain_sweep_argument(self):
        args = build_parser().parse_args(
            ["figure", "--id", "fig6", "--domains", "1,16,64", "--points", "2"]
        )
        assert args.domains == "1,16,64"
        assert args.points == 2

    def test_figure_want_q_flag(self):
        args = build_parser().parse_args(["figure", "--id", "fig7", "--want-q"])
        assert args.want_q is True
        assert build_parser().parse_args(["figure", "--id", "fig7"]).want_q is False

    def test_figure_table2_sweep_arguments(self):
        args = build_parser().parse_args(
            ["figure", "--id", "table2-sweep", "--rows", "1048576", "--domains", "1,64"]
        )
        assert args.figure_id == "table2-sweep"
        assert args.rows == 1_048_576
        assert args.domains == "1,64"

    def test_figure_caqr_sweep_arguments(self):
        args = build_parser().parse_args(
            ["figure", "--id", "caqr-sweep", "--tile-size", "32",
             "--panel-tree", "grid-hierarchical"]
        )
        assert args.figure_id == "caqr-sweep"
        assert args.tile_size == 32
        assert args.panel_tree == "grid-hierarchical"
        # defaults resolve per artefact inside the handler
        assert build_parser().parse_args(["figure", "--id", "caqr-sweep"]).tile_size is None

    def test_invalid_panel_tree_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["figure", "--id", "caqr-sweep", "--panel-tree", "fractal"]
            )

    def test_epilog_mentions_caqr_sweep(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "caqr-sweep" in capsys.readouterr().out


class TestCommands:
    def test_factor_reports_quality(self, capsys):
        code = main(["factor", "--rows", "4000", "--cols", "8", "--domains", "4", "--want-q"])
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement with LAPACK : yes" in out
        assert "||I - Q^T Q||" in out

    def test_factor_r_only(self, capsys):
        code = main(["factor", "--rows", "2000", "--cols", "4", "--tree", "grid-hierarchical"])
        out = capsys.readouterr().out
        assert code == 0
        assert "grid-hierarchical" in out

    def test_simulate_tsqr(self, capsys):
        code = main(
            ["simulate", "--algorithm", "tsqr", "--rows", "262144", "--cols", "64",
             "--sites", "1", "--domains-per-cluster", "16"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Gflop/s" in out
        assert "practical peak" in out

    def test_simulate_scalapack(self, capsys):
        code = main(
            ["simulate", "--algorithm", "scalapack", "--rows", "262144", "--cols", "64",
             "--sites", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "scalapack" in out

    def test_figure_table1_to_csv(self, capsys, tmp_path):
        target = tmp_path / "table1.csv"
        code = main(["figure", "--id", "table1", "--cols", "64", "--csv", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "TSQR" in out
        assert target.exists()
        assert "algorithm" in target.read_text().splitlines()[0]

    def test_figure_fig7(self, capsys):
        # A reduced sweep (2 of the 4 M values, 3 of the 7 domain counts)
        # keeps this test fast while exercising the full fig7 path.
        code = main(["figure", "--id", "fig7", "--cols", "64",
                     "--points", "2", "--domains", "1,8,64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig7" in out
        assert "M = 65,536" in out
        assert "M = 8,388,608" in out

    def test_figure_fig7_want_q(self, capsys):
        # The Q-included domain sweep of the Table II scenario: exercises the
        # downward sweep for both grouped (dpc=16: 4 processes per domain)
        # and one-process domains at full 64-process platform scale.
        code = main(["figure", "--id", "fig7", "--cols", "64",
                     "--points", "2", "--domains", "16,64", "--want-q"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig7-N64-Q" in out
        assert "Q included" in out

    def test_figure_rejects_inapplicable_flags(self, capsys):
        assert "--rows" in _error_line(
            capsys, ["figure", "--id", "table2", "--rows", "4000000"])
        assert "--want-q" in _error_line(
            capsys, ["figure", "--id", "table2", "--want-q"])
        assert "--domains" in _error_line(
            capsys, ["figure", "--id", "fig4", "--domains", "1,64"])
        assert "--tile-size" in _error_line(
            capsys, ["figure", "--id", "fig4", "--tile-size", "32"])
        assert "--points" in _error_line(
            capsys, ["figure", "--id", "caqr-sweep", "--points", "5"])
        assert "--points" in _error_line(
            capsys, ["figure", "--id", "table1", "--points", "5"])
        assert "--panel-tree" in _error_line(
            capsys, ["figure", "--id", "table1", "--panel-tree", "binary"])
        # CAQR computes R only and accepts no domain sweep.
        assert "--want-q" in _error_line(
            capsys, ["figure", "--id", "caqr-sweep", "--want-q"])
        assert "--domains" in _error_line(
            capsys, ["figure", "--id", "caqr-sweep", "--domains", "1,64"])
        # --jobs parallelises sweep points; the single-point artefacts would
        # silently ignore it, and a non-positive worker count is nonsense.
        assert "--jobs" in _error_line(
            capsys, ["figure", "--id", "table1", "--jobs", "4"])
        assert "--jobs" in _error_line(
            capsys, ["figure", "--id", "fig3", "--jobs", "2"])
        assert "--jobs" in _error_line(
            capsys, ["figure", "--id", "fig4", "--jobs", "0"])
        # The DAG policy flags only make sense for the dag-caqr-sweep artefact.
        assert "--placement" in _error_line(
            capsys, ["figure", "--id", "caqr-sweep", "--placement", "block"])
        assert "--priority" in _error_line(
            capsys, ["figure", "--id", "fig4", "--priority", "fifo"])

    def test_simulate_rejects_inapplicable_flags(self, capsys):
        assert "--runtime" in _error_line(
            capsys, ["simulate", "--algorithm", "tsqr", "--runtime", "dag"])
        assert "--tile-size" in _error_line(
            capsys, ["simulate", "--algorithm", "scalapack", "--tile-size", "32"])
        assert "--placement" in _error_line(
            capsys, ["simulate", "--algorithm", "caqr", "--placement", "block"])
        assert "--priority" in _error_line(
            capsys, ["simulate", "--algorithm", "caqr", "--runtime", "spmd",
                     "--priority", "fifo"])
        assert "--domains-per-cluster" in _error_line(
            capsys, ["simulate", "--algorithm", "caqr", "--domains-per-cluster", "4"])
        assert "R only" in _error_line(
            capsys, ["simulate", "--algorithm", "caqr", "--want-q"])

    def test_repro_error_is_one_line_with_exit_code_2(self, capsys):
        """An invalid configuration reports one line, not a traceback."""
        err = _error_line(
            capsys, ["simulate", "--algorithm", "tsqr", "--sites", "4",
                     "--domains-per-cluster", "3"])
        assert err == (
            "error: domains/cluster 3 must divide the 64 processes of a cluster\n"
        )

    def test_simulate_rejects_inapplicable_cholesky_lu_flags(self, capsys):
        assert "DAG runtime" in _error_line(
            capsys, ["simulate", "--algorithm", "cholesky", "--runtime", "spmd"])
        assert "square" in _error_line(
            capsys, ["simulate", "--algorithm", "cholesky", "--rows", "128",
                     "--cols", "64"])
        assert "factor only" in _error_line(
            capsys, ["simulate", "--algorithm", "lu", "--want-q"])
        assert "--domains-per-cluster" in _error_line(
            capsys, ["simulate", "--algorithm", "lu", "--domains-per-cluster", "4"])

    def test_figure_rejects_inapplicable_cholesky_sweep_flags(self, capsys):
        assert "--panel-tree" in _error_line(
            capsys, ["figure", "--id", "dag-cholesky-sweep", "--panel-tree", "binary"])
        assert "--rows" in _error_line(
            capsys, ["figure", "--id", "dag-cholesky-sweep", "--rows", "4096"])
        assert "--placement" in _error_line(
            capsys, ["figure", "--id", "caqr-sweep", "--placement", "block"])

    def test_simulate_dag_cholesky_and_lu(self, capsys):
        code = main(
            ["simulate", "--algorithm", "cholesky", "--cols", "512",
             "--sites", "2", "--tile-size", "64", "--priority", "fifo"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cholesky" in out
        assert "critical-path lower bound" in out
        code = main(
            ["simulate", "--algorithm", "lu", "--rows", "1024", "--cols", "512",
             "--sites", "2", "--tile-size", "64", "--placement", "owner-computes"]
        )
        assert code == 0
        assert "lu" in capsys.readouterr().out

    def test_figure_dag_cholesky_sweep_to_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "chol.csv"
        code = main(
            ["figure", "--id", "dag-cholesky-sweep", "--cols", "1024",
             "--tile-size", "128", "--priority", "critical-path",
             "--csv", str(csv_path)]
        )
        assert code == 0
        import csv

        with csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows and rows[0]["algorithm"] == "DAG-Cholesky"
        # measured-vs-model agreement is exact for the dataflow counts
        for col in ("msg ratio", "volume ratio"):
            assert 0.9 <= float(rows[0][col]) <= 1.1, col

    def test_simulate_dag_caqr(self, capsys):
        code = main(
            ["simulate", "--algorithm", "caqr", "--runtime", "dag",
             "--rows", "16384", "--cols", "128", "--sites", "4",
             "--tile-size", "32", "--priority", "fifo"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "critical-path lower bound" in out

    def test_figure_dag_caqr_sweep_to_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "dag.csv"
        code = main(
            ["figure", "--id", "dag-caqr-sweep", "--rows", "16384",
             "--cols", "128", "--tile-size", "32", "--priority", "critical-path",
             "--csv", str(csv_path)]
        )
        assert code == 0
        content = csv_path.read_text()
        assert "DAG makespan (s)" in content
        assert "critical path (s)" in content
        assert "idle fraction (mean)" in content

    def test_figure_caqr_sweep_to_csv(self, capsys, tmp_path):
        target = tmp_path / "caqr_sweep.csv"
        code = main(["figure", "--id", "caqr-sweep", "--rows", "16384", "--cols", "128",
                     "--tile-size", "32", "--panel-tree", "binary", "--csv", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "CAQR" in out
        import csv

        with target.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "the sweep must emit at least one row"
        # measured-vs-model agreement is part of the artefact's contract even
        # at reduced scale
        for col in ("msg ratio", "volume ratio", "flop ratio"):
            assert 0.9 <= float(rows[0][col]) <= 1.1, col

    def test_figure_caqr_sweep_single_tile_row(self, capsys):
        # A matrix no taller than one tile has a single participating rank,
        # zero messages and zero volume — a legitimate degenerate sweep that
        # must report agreement (ratio 1.0), not divide by zero.
        code = main(["figure", "--id", "caqr-sweep", "--rows", "64", "--cols", "128",
                     "--tile-size", "64", "--panel-tree", "binary"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CAQR" in out

    def test_figure_table2_sweep_to_csv(self, capsys, tmp_path):
        target = tmp_path / "table2_sweep.csv"
        code = main(["figure", "--id", "table2-sweep", "--cols", "64",
                     "--rows", "1048576", "--domains", "64", "--csv", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "msg ratio" in out
        header = target.read_text().splitlines()[0]
        assert "volume ratio" in header and "flop ratio" in header


class TestServiceCommands:
    """The service tier at CLI level: serve/query plus the persistent cache."""

    def test_serve_and_query_parser_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--jobs", "2", "--batch-window-ms", "1"]
        )
        assert args.command == "serve"
        assert args.port == 0 and args.jobs == 2
        args = build_parser().parse_args(
            ["query", "--connect", "localhost:8642", "--burst", "8"]
        )
        assert args.connect == "localhost:8642"
        assert args.burst == 8
        args = build_parser().parse_args(
            ["query", "--best-tile", "--candidates", "16,32", "--top-k", "2"]
        )
        assert args.best_tile and args.candidates == "16,32" and args.top_k == 2

    def test_epilog_mentions_the_service(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "repro serve" in out
        assert "--best-tile" in out

    def test_repeated_figure_simulates_zero_points(self, capsys, tmp_path):
        """The satellite pin: a re-run answers entirely from the store."""
        args = ["figure", "--id", "table1", "--cols", "64",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache: " in first
        assert "cache: 0 simulated" not in first  # the first run did the work

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cache: 0 simulated" in second  # the re-run simulated NOTHING

    def test_no_cache_escape_hatch(self, capsys, tmp_path):
        args = ["figure", "--id", "table1", "--cols", "64", "--no-cache"]
        assert main(args) == 0
        assert "cache:" not in capsys.readouterr().out

    def test_simulate_warm_across_invocations(self, capsys, tmp_path):
        args = ["simulate", "--algorithm", "tsqr", "--rows", "262144",
                "--cols", "64", "--sites", "1", "--domains-per-cluster", "16",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert "cache: 1 simulated, 0 warm" in capsys.readouterr().out
        assert main(args) == 0
        assert "cache: 0 simulated, 1 warm" in capsys.readouterr().out

    def test_query_local_answers_json(self, capsys, tmp_path):
        import json

        args = ["query", "--algorithm", "tsqr", "--rows", "262144",
                "--cols", "64", "--sites", "1", "--domains-per-cluster", "16",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["ok"] and cold["source"] == "simulated"
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["source"] == "disk"  # a fresh process: the disk tier answered
        assert warm["time_s"] == cold["time_s"]
        assert warm["key"] == cold["key"]

    def test_query_best_tile(self, capsys, tmp_path):
        args = ["query", "--algorithm", "caqr", "--runtime", "dag",
                "--rows", "16384", "--cols", "128", "--sites", "4",
                "--best-tile", "--candidates", "16,32", "--top-k", "1",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "best tile size:" in out
        assert "escalated 1 of 2 candidates" in out

    def test_query_rejects_inapplicable_flags(self, capsys):
        assert "--burst needs --connect" in _error_line(
            capsys, ["query", "--burst", "4"])
        assert "--stats needs --connect" in _error_line(
            capsys, ["query", "--stats"])
        assert "--burst must be >= 1" in _error_line(
            capsys, ["query", "--connect", "localhost:1", "--burst", "0"])
        assert "--candidates" in _error_line(
            capsys, ["query", "--candidates", "16,32"])
        assert "drop --connect" in _error_line(
            capsys, ["query", "--connect", "localhost:1", "--best-tile"])
        assert "server owns the cache" in _error_line(
            capsys, ["query", "--connect", "localhost:1", "--no-cache"])
        assert "HOST:PORT" in _error_line(
            capsys, ["query", "--connect", "nocolon"])
        assert "tiled algorithms" in _error_line(
            capsys, ["query", "--best-tile", "--algorithm", "tsqr"])
        assert "drop --tile-size" in _error_line(
            capsys, ["query", "--algorithm", "caqr", "--best-tile",
                     "--tile-size", "32"])

    def test_serve_rejects_bad_flags(self, capsys):
        assert "--jobs" in _error_line(
            capsys, ["serve", "--jobs", "0"])
        assert "mutually exclusive" in _error_line(
            capsys, ["serve", "--no-cache", "--cache-dir", "somewhere"])
        assert "batch_window_s" in _error_line(
            capsys, ["serve", "--batch-window-ms", "-1"])


class TestFailureCommands:
    """Fault injection at CLI level: --fail-rank/--fail-at, dag-failures,
    client resilience knobs."""

    def test_simulate_with_failure_reports_recovery(self, capsys):
        code = main(
            ["simulate", "--algorithm", "cholesky", "--cols", "512",
             "--sites", "2", "--tile-size", "64",
             "--fail-rank", "2", "--fail-at", "0.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered from rank death(s) 2" in out
        assert "re-executed" in out
        assert "of the failure-free run" in out

    def test_simulate_failure_flags_rejected_for_spmd(self, capsys):
        assert "--runtime dag" in _error_line(
            capsys, ["simulate", "--algorithm", "tsqr",
                     "--fail-rank", "0", "--fail-at", "0.1"])
        assert "--runtime dag" in _error_line(
            capsys, ["simulate", "--algorithm", "caqr", "--runtime", "spmd",
                     "--fail-rank", "0", "--fail-at", "0.1"])

    def test_simulate_failure_flags_come_in_pairs(self, capsys):
        assert "pairs" in _error_line(
            capsys, ["simulate", "--algorithm", "cholesky", "--cols", "512",
                     "--tile-size", "64", "--fail-rank", "0"])
        assert "pairs" in _error_line(
            capsys, ["simulate", "--algorithm", "cholesky", "--cols", "512",
                     "--tile-size", "64", "--fail-rank", "0", "--fail-at", "0.1",
                     "--fail-at", "0.2"])

    def test_figure_dag_failures_to_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "failures.csv"
        code = main(
            ["figure", "--id", "dag-failures", "--cols", "1024",
             "--tile-size", "128", "--failure-counts", "0,1",
             "--csv", str(csv_path)]
        )
        assert code == 0
        import csv

        with csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["failures"] for r in rows] == ["0", "1"]
        baseline, failing = rows
        assert baseline["dead ranks"] == "-"
        assert float(baseline["overhead (s)"]) == 0.0
        assert failing["dead ranks"] != "-"
        assert int(failing["recovery rounds"]) >= 1
        # the failing run pays for re-execution on fewer ranks
        assert float(failing["makespan (s)"]) >= float(baseline["makespan (s)"])
        assert float(failing["failure-free (s)"]) == float(baseline["makespan (s)"])

    def test_figure_failure_counts_rejected_elsewhere(self, capsys):
        assert "--failure-counts" in _error_line(
            capsys, ["figure", "--id", "fig4", "--failure-counts", "0,1"])
        assert "no failure counts" in _error_line(
            capsys, ["figure", "--id", "dag-failures", "--failure-counts", ""])
        assert ">= 0" in _error_line(
            capsys, ["figure", "--id", "dag-failures", "--failure-counts", "0,-1"])

    def test_query_resilience_flags_need_connect(self, capsys):
        assert "--connect" in _error_line(
            capsys, ["query", "--algorithm", "tsqr", "--retries", "2"])
        assert "--connect" in _error_line(
            capsys, ["query", "--algorithm", "tsqr", "--timeout", "1.0"])
        assert "retries" in _error_line(
            capsys, ["query", "--connect", "localhost:1", "--retries", "-1"])
        assert "timeout" in _error_line(
            capsys, ["query", "--connect", "localhost:1", "--timeout", "0"])

    def test_unreachable_server_is_one_line_with_exit_code_2(self, capsys):
        """A service error is reported like a configuration error."""
        with socket.socket() as probe:  # a port nothing is listening on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        err = _error_line(
            capsys, ["query", "--algorithm", "tsqr", "--connect", f"127.0.0.1:{port}",
                     "--retries", "0", "--timeout", "0.5"])
        assert "1 attempt(s)" in err

    def test_epilog_mentions_failure_injection(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "--fail-rank" in out
        assert "dag-failures" in out
        assert "--retries" in out


class TestObservabilityCommands:
    def test_figure_trace_hotspots_to_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "hotspots.csv"
        code = main(
            ["figure", "--id", "trace-hotspots", "--rows", "16384",
             "--cols", "128", "--tile-size", "32", "--csv", str(csv_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wait (s)" in out
        assert "wait share" in out
        import csv

        with csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        waits = [float(r["wait (s)"]) for r in rows]
        assert waits == sorted(waits, reverse=True)
        assert all(0.0 <= float(r["wait share"]) <= 1.0 for r in rows)
        assert all(
            r["link"] in ("intra-node", "intra-cluster", "inter-cluster")
            for r in rows
        )

    def test_figure_trace_hotspots_accepts_policy_flags(self, capsys, tmp_path):
        code = main(
            ["figure", "--id", "trace-hotspots", "--rows", "16384",
             "--cols", "128", "--tile-size", "32", "--placement",
             "block-cyclic", "--priority", "fifo", "--panel-tree", "binary",
             "--csv", str(tmp_path / "h.csv")]
        )
        assert code == 0

    def test_figure_trace_hotspots_rejects_inapplicable_flags(self, capsys):
        assert "--failure-counts" in _error_line(
            capsys, ["figure", "--id", "trace-hotspots", "--failure-counts", "0,1"])
        assert "--want-q" in _error_line(
            capsys, ["figure", "--id", "trace-hotspots", "--want-q"])
        assert "--points" in _error_line(
            capsys, ["figure", "--id", "trace-hotspots", "--points", "2"])

    def test_simulate_trace_out_perfetto(self, capsys, tmp_path):
        out_path = tmp_path / "trace.perfetto.json"
        code = main(
            ["simulate", "--algorithm", "caqr", "--runtime", "dag",
             "--rows", "16384", "--cols", "128", "--tile-size", "32",
             "--trace-out", str(out_path)]
        )
        assert code == 0
        assert "streaming timeline written to" in capsys.readouterr().out
        import json

        payload = json.loads(out_path.read_text())
        assert payload["traceEvents"]
        assert payload["otherData"]["n_ranks"] > 0

    def test_simulate_trace_out_csv(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code = main(
            ["simulate", "--algorithm", "tsqr", "--cols", "64",
             "--trace-out", str(out_path)]
        )
        assert code == 0
        header = out_path.read_text().splitlines()[0]
        assert header == "rank,window,t_start_s,t_end_s,busy_s,comm_wait_s,recv_bytes"

    def test_query_stats_json_needs_stats(self, capsys):
        assert "--json only applies" in _error_line(
            capsys, ["query", "--connect", "localhost:1", "--json"])

    def test_epilog_mentions_observability(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "trace-hotspots" in out
        assert "--trace-out" in out
