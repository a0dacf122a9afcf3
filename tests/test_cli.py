"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.errors import ConfigurationError


def run(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestTablesAndFigures:
    @pytest.mark.parametrize("artefact", ["table1", "table2", "table4"])
    def test_tables_render(self, capsys, artefact):
        out = run(capsys, artefact)
        assert "Table" in out
        assert len(out.splitlines()) > 5

    def test_table3_has_all_rows(self, capsys):
        out = run(capsys, "table3")
        assert out.count("Mercury") == 18
        assert out.count("Iridium") == 18

    @pytest.mark.parametrize("artefact", ["fig4", "fig6"])
    def test_figures_render(self, capsys, artefact):
        out = run(capsys, artefact)
        assert "Figure" in out
        assert "1M" in out  # the sweep reaches 1 MB

    def test_figure_chart_mode(self, capsys):
        out = run(capsys, "fig4", "--chart")
        assert "#" in out
        assert "-- Network Stack" in out

    def test_headlines(self, capsys):
        out = run(capsys, "headlines")
        assert "mercury_tps_x" in out
        assert "paper" in out


class TestAnalysisCommands:
    def test_sensitivity(self, capsys):
        out = run(capsys, "sensitivity", "--factor", "1.2")
        assert "conclusions hold" in out
        assert "NO" not in out.replace("NO_", "")  # every row holds

    def test_thermal(self, capsys):
        out = run(capsys, "thermal", "--cores", "32")
        assert "passive cooling OK" in out

    def test_evaluate_sizes_parse(self, capsys):
        out = run(capsys, "evaluate", "--family", "mercury", "--size", "1M")
        assert "Mercury-32" in out
        assert "MTPS" in out

    def test_evaluate_put(self, capsys):
        get = run(capsys, "evaluate", "--verb", "GET")
        put = run(capsys, "evaluate", "--verb", "PUT")
        assert get != put

    def test_plan(self, capsys):
        out = run(
            capsys, "plan", "--dataset-gb", "50000", "--tps", "1e6"
        )
        assert "Cheapest: Iridium" in out

    def test_plan_hot_tier_prefers_mercury(self, capsys):
        out = run(
            capsys, "plan", "--dataset-gb", "1000", "--tps", "300e6"
        )
        assert "Cheapest: Mercury" in out


class TestExport:
    def test_table_export_csv(self, capsys, tmp_path):
        target = tmp_path / "t4.csv"
        out = run(capsys, "table4", "--export", str(target))
        assert "wrote" in out
        assert target.read_text().startswith("System")

    def test_table_export_json(self, capsys, tmp_path):
        import json

        target = tmp_path / "t1.json"
        run(capsys, "table1", "--export", str(target))
        assert json.loads(target.read_text())[0]["Component"] == "A7@1GHz"

    def test_figure_export_json(self, capsys, tmp_path):
        import json

        target = tmp_path / "fig4.json"
        run(capsys, "fig4", "--export", str(target))
        panels = json.loads(target.read_text())
        assert len(panels) == 2
        assert panels[0]["x"][0] == "64"


class TestExportIntoNewDirectory:
    """Every --export creates the directories its path names."""

    FAST_RUN = ("--cores", "2", "--load", "0.02", "--duration", "0.3",
                "--window", "0.1", "--memory-mb", "4")

    @pytest.mark.parametrize("argv, name", [
        (("table1",), "t.csv"),
        (("fig4",), "f.json"),
        (("faults", *FAST_RUN), "f.json"),
        (("replication", "--replicas", "1", *FAST_RUN), "r.json"),
    ], ids=["table", "figure", "faults", "replication"])
    def test_export_creates_parent_directories(self, capsys, tmp_path, argv, name):
        path = tmp_path / "new" / "dir" / name
        out = run(capsys, *argv, "--export", str(path))
        assert out.strip() == f"wrote {path}"
        assert path.stat().st_size > 0


class TestPareto:
    def test_default_frontier(self, capsys):
        out = run(capsys, "pareto")
        assert "Pareto frontier" in out
        assert "Mercury-32" in out

    def test_custom_objectives(self, capsys):
        out = run(capsys, "pareto", "--objectives", "tps_per_watt,low_power")
        assert "of 36 designs survive" in out


class TestReport:
    def test_report_writes_directory(self, capsys, tmp_path):
        out = run(capsys, "report", "--out", str(tmp_path / "r"))
        assert "21 artefacts" in out
        assert (tmp_path / "r" / "table4.csv").exists()


class TestTelemetry:
    def test_telemetry_writes_trace_and_metrics(self, capsys, tmp_path):
        import json

        out = run(
            capsys, "telemetry", "--cores", "2", "--duration", "0.05",
            "--memory-mb", "4", "--out", str(tmp_path),
        )
        assert "requests" in out
        assert "p99" in out
        assert "time by component" in out
        metrics = (tmp_path / "metrics.prom").read_text()
        assert 'request_rtt_seconds{quantile="0.99"}' in metrics
        first_trace = json.loads(
            (tmp_path / "trace.jsonl").read_text().splitlines()[0]
        )
        assert {span["name"] for span in first_trace["spans"]} == {
            "queue", "network", "hash", "memcached",
        }
        # The observatory rides along by default: a timeseries timeline
        # and HELP-documented metrics.
        assert (tmp_path / "timeseries.jsonl").exists()
        assert "# HELP request_rtt_seconds" in metrics

    def test_telemetry_profile_and_scenario(self, capsys, tmp_path):
        import json

        out = run(
            capsys, "telemetry", "--cores", "2", "--duration", "0.06",
            "--memory-mb", "4", "--out", str(tmp_path),
            "--profile", "--scenario", "lossy-link", "--interval", "0.01",
        )
        assert "event loop:" in out  # the profiler report
        assert "us/event" in out
        assert "fault scenario: lossy-link" in out
        assert "slo alerts" in out
        rows = [
            json.loads(line)
            for line in (tmp_path / "timeseries.jsonl").read_text().splitlines()
        ]
        assert len(rows) >= 5
        assert any(row.get("requests_completed_total", 0) > 0 for row in rows)


class TestRejectedInput:
    def test_faults_schedule_with_misspelt_key_rejected(self, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({
            "name": "typo",
            "evnts": [{"kind": "node_crash", "at_s": 0.01, "node": "core0"}],
        }))
        with pytest.raises(ConfigurationError, match="evnts"):
            main(["faults", "--schedule", str(path), "--cores", "2",
                  "--duration", "0.05", "--memory-mb", "4"])

    @pytest.mark.parametrize("flag,value", [("--duration", "inf"),
                                            ("--load", "nan")])
    def test_non_finite_run_flag_exits_promptly(self, flag, value, tmp_path):
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "telemetry", "--cores", "1",
             "--memory-mb", "4", flag, value, "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode != 0
        assert "must be finite and positive" in proc.stderr


class TestSweep:
    def test_fig7_sweep_lists_every_cell(self, capsys, tmp_path):
        out = run(capsys, "sweep", "--cache-dir", str(tmp_path))
        assert "36 fig7 jobs" in out
        assert "36 executed" in out
        assert out.count("fig7[") == 36

    def test_cached_rerun_executes_nothing(self, capsys, tmp_path):
        run(capsys, "sweep", "--cache-dir", str(tmp_path))
        out = run(capsys, "sweep", "--cache-dir", str(tmp_path))
        assert "36 cache hits, 0 executed" in out

    def test_export_is_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run(capsys, "sweep", "--cache-dir", str(tmp_path / "cache"),
            "--export", str(first))
        run(capsys, "sweep", "--cache-dir", str(tmp_path / "cache"),
            "--export", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_no_cache_always_executes(self, capsys, tmp_path):
        out = run(capsys, "sweep", "--no-cache")
        assert "cache off" in out
        assert "0 cache hits" in out

    def test_stats_export(self, capsys, tmp_path):
        import json

        stats_path = tmp_path / "stats.json"
        run(capsys, "sweep", "--cache-dir", str(tmp_path / "cache"),
            "--stats-export", str(stats_path))
        stats = json.loads(stats_path.read_text())
        assert stats["jobs"] == 36
        assert stats["cache_entries"] == 36
        assert stats["kind"] == "fig7"

    def test_sensitivity_kind(self, capsys, tmp_path):
        out = run(capsys, "sweep", "--kind", "sensitivity",
                  "--cache-dir", str(tmp_path), "--factor", "1.2")
        assert "sensitivity[" in out
        assert "x1.2]" in out

    def test_full_system_kind_parallel(self, capsys, tmp_path):
        out = run(capsys, "sweep", "--kind", "full-system",
                  "--cache-dir", str(tmp_path), "--parallel", "2",
                  "--cores-list", "1", "--rates", "5000",
                  "--duration", "0.05", "--memory-mb", "4")
        assert "1 full-system jobs" in out
        assert "2 workers" in out
        assert "baseline[cores=1,rate=5000]" in out

    def test_progress_goes_to_stderr(self, capsys, tmp_path):
        assert main(["sweep", "--cache-dir", str(tmp_path), "--progress"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("executed") == 36


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["warp"])

    def test_missing_required_plan_args_exit(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan"])


class TestFlashstore:
    ARGS = (
        "flashstore",
        "--put-fractions", "0.5",
        "--rate", "6000",
        "--duration", "0.2",
        "--keys", "2000",
        "--warmup", "1000",
        "--segment-pages", "8",
    )

    def test_table_compares_tiers_against_the_ftl_baseline(self, capsys):
        out = run(capsys, *self.ARGS)
        assert "tiered flash store vs page-per-item FTL" in out
        assert "base WA" in out and "tier WA" in out
        assert "50%" in out

    def test_export_carries_the_sweep(self, capsys, tmp_path):
        import json

        path = tmp_path / "flashstore.json"
        out = run(capsys, *self.ARGS, "--export", str(path))
        assert str(path) in out
        payload = json.loads(path.read_text())
        assert payload["segment_pages"] == 8
        (row,) = payload["sweep"]
        assert row["put_fraction"] == 0.5
        assert (
            row["tiered_write_amplification"]
            < row["baseline_write_amplification"]
        )
        assert row["conversions"] > 0

    def test_parser_defaults(self):
        args = build_parser().parse_args(["flashstore"])
        assert args.put_fractions == "0.1,0.5,0.9"
        assert args.segment_pages == 256
        assert args.cores == 4

    def test_bad_put_fraction_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["flashstore", "--put-fractions", "1.5"])
