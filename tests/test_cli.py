"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.bioassay == "covid-rat"
        assert args.router == "adaptive"

    def test_synth_coordinates(self):
        args = build_parser().parse_args(
            ["synth", "--start", "2", "3", "--goal", "10", "12"]
        )
        assert args.start == [2, 3]
        assert args.goal == [10, 12]

    def test_monitor_is_run_with_default_port(self):
        from repro.obs.monitor import DEFAULT_PORT

        args = build_parser().parse_args(["monitor"])
        assert args.monitor_port == DEFAULT_PORT
        assert args.monitor_host == "127.0.0.1"
        run = build_parser().parse_args(["run"])
        assert run.monitor_port is None

    def test_telemetry_options_on_run(self):
        args = build_parser().parse_args([
            "run", "--monitor-port", "0", "--snapshot-interval-ms", "250",
            "--slo", "p99(synthesis_ms) < 50", "--slo", "runs >= 1",
        ])
        assert args.monitor_port == 0
        assert args.snapshot_interval_ms == 250
        assert args.slo == ["p99(synthesis_ms) < 50", "runs >= 1"]

    def test_report_json_and_slo_flags(self):
        args = build_parser().parse_args(
            ["report", "x.jsonl", "--json", "--slo", "runs >= 1"]
        )
        assert args.json is True
        assert args.slo == ["runs >= 1"]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "covid-rat" in out and "serial-dilution" in out
        assert "evaluation" in out and "pattern-study" in out

    def test_run_unknown_bioassay(self, capsys):
        assert main(["run", "--bioassay", "ghost"]) == 2
        assert "unknown bioassay" in capsys.readouterr().err

    def test_run_small(self, capsys):
        code = main([
            "run", "--bioassay", "master-mix", "--width", "40",
            "--height", "24", "--seed", "3", "--max-cycles", "400",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "run 1: ok" in out

    def test_run_baseline_with_wear(self, capsys):
        code = main([
            "run", "--bioassay", "covid-rat", "--router", "baseline",
            "--width", "40", "--height", "24", "--show-wear",
            "--max-cycles", "400",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "chip wear" in out

    def test_synth_prints_route(self, capsys):
        code = main(["synth", "--width", "24", "--height", "14",
                     "--goal", "18", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "E[cycles]" in out
        assert "S" in out and "G" in out

    def test_synth_repeated_in_one_process(self, capsys):
        args = ["synth", "--width", "24", "--height", "14", "--goal", "18", "8"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        again = capsys.readouterr().out
        assert "E[cycles]" in again
        # the same route map both times
        assert first.split("\n", 1)[1] == again.split("\n", 1)[1]

    def test_synth_unreachable(self, capsys):
        # kill almost everything: goal becomes unreachable
        code = main([
            "synth", "--width", "24", "--height", "14", "--goal", "18", "8",
            "--dead-fraction", "0.97", "--seed", "5",
        ])
        assert code == 1
        assert "no strategy" in capsys.readouterr().out

    def test_degradation_table(self, capsys):
        assert main(["degradation", "--tau", "0.7", "--c", "300",
                     "--n-max", "600"]) == 0
        out = capsys.readouterr().out
        assert "D(n)" in out and "H(n)" in out


class TestTelemetryCli:
    RUN = ["run", "--bioassay", "master-mix", "--width", "40",
           "--height", "24", "--seed", "3", "--max-cycles", "400"]

    def test_run_rejects_bad_slo(self, capsys):
        assert main(self.RUN + ["--slo", "not an slo"]) == 2
        assert "cannot parse SLO" in capsys.readouterr().err

    def test_run_slo_gate(self, capsys):
        # a passing objective and a violated one: violation wins, exit 4
        code = main(self.RUN + [
            "--slo", "completion_probability == 1.0",
            "--slo", "ghost.metric > 0",
        ])
        out = capsys.readouterr().out
        assert code == 4
        assert "ok " in out and "completion_probability == 1" in out
        assert "VIOLATED" in out and "(missing)" in out

    def test_run_slo_all_pass_exit_0(self, capsys):
        code = main(self.RUN + ["--slo", "completion_probability == 1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SLOs:" in out and "VIOLATED" not in out

    def test_report_empty_journal(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["report", str(path)]) == 0
        assert "no events" in capsys.readouterr().out

    def test_report_empty_journal_json(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["report", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] == 0

    def test_report_json_and_slo_round_trip(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        assert main(self.RUN + ["--journal", str(journal)]) == 0
        capsys.readouterr()

        code = main(["report", str(journal), "--json",
                     "--slo", "completion_probability == 1.0",
                     "--slo", "p99(synthesis_ms) < 1e9"])
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out)
        assert summary["runs"][0]["success"] is True
        assert summary["synthesis_ms"]["count"] >= 1
        assert [entry["ok"] for entry in summary["slos"]] == [True, True]

        # same objectives, terminal mode, with a violation: exit 4
        code = main(["report", str(journal),
                     "--slo", "p99(synthesis_ms) < 0"])
        out = capsys.readouterr().out
        assert code == 4
        assert "VIOLATED" in out


def _run_line(out: str) -> str:
    """The per-run outcome line (``ok``, cycles, replans)."""
    (line,) = [ln for ln in out.splitlines() if ln.startswith("run 1:")]
    return line


def _store_counters(out: str) -> dict[str, int]:
    (line,) = [ln for ln in out.splitlines() if ln.startswith("store: ")]
    pairs = (pair.split("=") for pair in line[len("store: "):].split(", "))
    return {key: int(value) for key, value in pairs}


class TestStrategyCache:
    RUN = ["run", "--bioassay", "master-mix", "--width", "40",
           "--height", "24", "--seed", "3", "--max-cycles", "400",
           "--runs", "1", "--perf"]

    def test_second_run_reads_the_store(self, tmp_path, capsys):
        """A pre-filled store serves the second run's plans, and the run
        routes exactly as the first one did."""
        cache = ["--strategy-cache", str(tmp_path / "s.sqlite")]
        assert main(self.RUN + cache) == 0
        first = capsys.readouterr().out
        assert main(self.RUN + cache) == 0
        second = capsys.readouterr().out
        assert "run 1: ok" in _run_line(first)
        assert _run_line(second) == _run_line(first)
        assert _store_counters(first)["hits"] == 0
        assert _store_counters(second)["hits"] > 0
        assert _store_counters(second)["misses"] == 0

    def test_store_closed_once_after_a_run(self, tmp_path, store_closes,
                                           capsys):
        cache = ["--strategy-cache", str(tmp_path / "s.sqlite")]
        assert main(self.RUN + cache) == 0
        assert len(store_closes) == 1

    def test_store_closed_once_on_early_exit(self, tmp_path, store_closes,
                                             capsys):
        cache = ["--strategy-cache", str(tmp_path / "s.sqlite")]
        # Snapshots need a journal: the run exits 2 before routing.
        assert main(self.RUN + cache + ["--snapshot-interval-ms", "100"]) == 2
        assert len(store_closes) == 1
