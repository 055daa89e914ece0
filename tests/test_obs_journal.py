"""Tests for the run journal: sinks, round-trip, report, end-to-end runs."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import obs, perf
from repro.bioassay.ops import MO, MOType
from repro.bioassay.seqgraph import SequencingGraph
from repro.biochip.chip import MedaChip
from repro.biochip.simulator import MedaSimulator
from repro.cli import main
from repro.core.baseline import AdaptiveRouter
from repro.core.scheduler import HybridScheduler
from repro.obs.journal import (
    JOURNAL_SCHEMA_VERSION,
    RunJournal,
    iter_events,
    read_journal,
    validate_event,
)
from repro.obs.report import format_report, summarize_journal

W, H = 40, 24


@pytest.fixture(autouse=True)
def clean_obs():
    obs.shutdown()
    perf.reset()
    yield
    obs.shutdown()
    perf.reset()


def two_route_graph() -> SequencingGraph:
    return SequencingGraph("g", [
        MO("a", MOType.DIS, size=(4, 4), locs=((8.5, 2.5),)),
        MO("b", MOType.DIS, size=(4, 4), locs=((8.5, 21.5),)),
        MO("m", MOType.MIX, pre=("a", "b"), locs=((20.5, 12.5),),
           hold_cycles=3),
        MO("o", MOType.OUT, pre=("m",), locs=((37.5, 12.5),)),
    ])


def run_journaled(chip: MedaChip, seed: int = 0, max_cycles: int = 600):
    scheduler = HybridScheduler(two_route_graph(), AdaptiveRouter(), W, H)
    sim = MedaSimulator(chip, np.random.default_rng(seed + 1))
    return sim.run(scheduler, max_cycles), scheduler


class TestRunJournalSinks:
    def test_memory_sink_and_seq(self):
        journal = RunJournal()
        journal.emit("alpha", cycle=1, value=3)
        journal.emit("beta", extra=(1, 2))
        records = journal.records
        assert [r["seq"] for r in records] == [1, 2]
        assert records[0] == {"seq": 1, "schema_version": 1, "event": "alpha",
                              "cycle": 1, "value": 3}
        assert records[1]["extra"] == [1, 2]  # jsonable coercion
        assert "cycle" not in records[1]
        assert len(journal) == 2

    def test_file_sink_flushes_per_event(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.emit("one")
        # readable before close: a crashed run still leaves a journal
        assert json.loads(path.read_text())["event"] == "one"
        journal.emit("two")
        journal.close()
        assert [r["event"] for r in read_journal(path)] == ["one", "two"]

    def test_callable_sink(self):
        seen = []
        journal = RunJournal(seen.append)
        journal.emit("x", cycle=4)
        assert seen[0]["event"] == "x" and seen[0]["cycle"] == 4

    def test_journal_with_a_sink_retains_nothing(self, tmp_path):
        # A sink receives every record; the journal itself keeps none, so
        # a long-lived server's journal stays bounded.
        seen = []
        stream = io.StringIO()
        for sink in (seen.append, tmp_path / "run.jsonl", stream):
            journal = RunJournal(sink)
            for i in range(50):
                journal.emit("tick", cycle=i)
            assert journal.records == []
            assert not journal._records
            assert len(journal) == 50
            journal.close()
        assert len(seen) == 50
        assert len(read_journal(tmp_path / "run.jsonl")) == 50
        assert len(stream.getvalue().splitlines()) == 50

    def test_read_journal_rejects_garbage(self, tmp_path):
        # Garbage *before* the end is corruption, not a crash artifact —
        # still rejected (only a trailing partial line is tolerated).
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 1}\nnot json\n{"seq": 2}\n')
        with pytest.raises(ValueError, match="not a JSON record"):
            read_journal(path)

    def test_read_journal_tolerates_trailing_partial_line(self, tmp_path):
        # A run killed mid-write leaves a truncated last line; the reader
        # warns and returns every complete record instead of raising.
        path = tmp_path / "crashed.jsonl"
        path.write_text('{"seq": 1, "event": "a"}\n{"seq": 2, "ev')
        with pytest.warns(RuntimeWarning, match="partial"):
            records = read_journal(path)
        assert [r["seq"] for r in records] == [1]

    def test_read_journal_strict_rejects_trailing_partial(self, tmp_path):
        path = tmp_path / "crashed.jsonl"
        path.write_text('{"seq": 1, "event": "a"}\n{"seq": 2, "ev')
        with pytest.raises(ValueError, match="not a JSON record"):
            read_journal(path, strict=True)


class TestValidateEvent:
    def test_emitted_records_validate(self):
        journal = RunJournal()
        journal.emit("synthesis", cycle=3, ms=1.5)
        record = journal.records[0]
        assert record["schema_version"] == JOURNAL_SCHEMA_VERSION
        assert validate_event(record) is record  # returns the record

    def test_versionless_legacy_record_accepted(self):
        # Pre-versioning journals have no schema_version field; version 0
        # stays in the supported set so old journals still replay.
        validate_event({"seq": 1, "event": "synthesis"})

    @pytest.mark.parametrize("record, problem", [
        ("not a dict", "must be a dict"),
        ({"event": "x"}, "positive int 'seq'"),
        ({"seq": 0, "event": "x"}, "positive int 'seq'"),
        ({"seq": True, "event": "x"}, "positive int 'seq'"),
        ({"seq": 1}, "non-empty 'event'"),
        ({"seq": 1, "event": ""}, "non-empty 'event'"),
        ({"seq": 1, "event": "x", "schema_version": 99},
         "unsupported journal schema_version"),
        ({"seq": 1, "event": "x", "cycle": -1}, "non-negative int"),
        ({"seq": 1, "event": "x", "cycle": 1.5}, "non-negative int"),
    ])
    def test_rejects_malformed(self, record, problem):
        with pytest.raises(ValueError, match=problem):
            validate_event(record)


class TestJournaledExecution:
    def test_healthy_run_emits_lifecycle_events(self):
        _, journal = obs.configure(journal=RunJournal())
        chip = MedaChip.sample(W, H, np.random.default_rng(0),
                               tau_range=(0.95, 0.99), c_range=(5000, 9000))
        result, scheduler = run_journaled(chip)
        assert result.success
        records = journal.records
        events = {r["event"] for r in records}
        assert {"run.start", "run.end", "mo.activated", "mo.done",
                "mo.merged", "synthesis"} <= events
        # every activated MO eventually reports done
        activated = {r["mo"] for r in iter_events(records, "mo.activated")}
        done = {r["mo"] for r in iter_events(records, "mo.done")}
        assert activated == done == {"a", "b", "m", "o"}
        (end,) = iter_events(records, "run.end")
        assert end["success"] is True
        assert end["cycles"] == result.cycles

    def test_degrading_run_journals_resyntheses_with_fingerprints(self):
        _, journal = obs.configure(journal=RunJournal())
        chip = MedaChip.sample(W, H, np.random.default_rng(5),
                               tau_range=(0.5, 0.6), c_range=(8, 15))
        result, scheduler = run_journaled(chip)
        assert scheduler.resyntheses > 0
        records = journal.records
        resyn = iter_events(records, "resynthesis")
        assert len(resyn) == scheduler.resyntheses
        for record in resyn:
            assert record["mo"] in {"a", "b", "m", "o"}
            assert record["latency_cycles"] == scheduler.resynthesis_latency
            # the trigger is a fingerprint change; after a successful replan
            # the recorded digests must differ
            if record["success"]:
                assert record["fp_before"] != record["fp_after"]
        # a chip this degraded also crosses health buckets mid-run
        assert iter_events(records, "degradation.crossing")
        assert perf.get("simulator.steps") > 0
        assert perf.get("simulator.transport_attempts") >= \
            perf.get("simulator.transport_failures")


class TestReport:
    def test_round_trip_write_then_summarize(self, tmp_path):
        path = tmp_path / "run.jsonl"
        obs.configure(journal=path)
        chip = MedaChip.sample(W, H, np.random.default_rng(5),
                               tau_range=(0.5, 0.6), c_range=(8, 15))
        result, scheduler = run_journaled(chip)
        obs.shutdown()

        summary = summarize_journal(read_journal(path))
        assert summary["runs"][0]["cycles"] == result.cycles
        assert summary["runs"][0]["success"] is result.success
        assert len(summary["resyntheses"]) == scheduler.resyntheses
        mos = summary["mos"]
        for name in ("a", "b", "m", "o"):
            assert name in mos
        done_mos = [m for m in mos.values() if m["cycles"] is not None]
        assert all(m["cycles"] >= 0 for m in done_mos)
        s = summary["synthesis_ms"]
        assert s["count"] >= scheduler.router.syntheses
        assert s["p50"] <= s["p90"] <= s["p99"] <= s["max"]

        text = format_report(summary)
        assert "per-MO cycle budget" in text
        assert "synthesis latency" in text
        if scheduler.resyntheses:
            assert "resyntheses (" in text

    def test_summarize_empty_journal(self):
        summary = summarize_journal([])
        assert summary["events"] == 0
        assert summary["runs"] == []
        text = format_report(summary)
        assert "no events" in text

    def test_percentiles_on_synthetic_events(self):
        records = [{"seq": i + 1, "event": "synthesis", "ms": float(v)}
                   for i, v in enumerate((1, 2, 3, 4, 5, 6, 7, 8, 9, 10))]
        s = summarize_journal(records)["synthesis_ms"]
        assert s["count"] == 10
        assert s["p50"] == pytest.approx(5.5)
        assert s["p90"] == pytest.approx(9.1)
        assert s["max"] == 10.0


class TestCliIntegration:
    def test_run_with_journal_trace_and_perf_then_report(
        self, tmp_path, capsys
    ):
        journal_path = tmp_path / "run.jsonl"
        trace_path = tmp_path / "run.trace.json"
        code = main([
            "run", "--bioassay", "master-mix", "--width", "40",
            "--height", "24", "--seed", "3", "--max-cycles", "400",
            "--journal", str(journal_path), "--trace", str(trace_path),
            "--perf",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "perf counters:" in out
        assert "scheduler.cycles" in out

        # the chrome trace loads and has the assay -> mo -> rj hierarchy
        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "assay" for e in events)
        assert any(e["ph"] == "b" and e["name"].startswith("mo:")
                   for e in events)
        spans = [json.loads(line) for line in
                 (tmp_path / "run.trace.json.spans.jsonl")
                 .read_text().splitlines()]
        by_id = {s["id"]: s for s in spans}
        rj = next(s for s in spans if s["name"] == "rj")
        mo = by_id[rj["parent"]]
        assert mo["name"].startswith("mo:")
        assay = by_id[mo["parent"]]
        assert assay["name"] == "assay"

        # telemetry is torn down after the command
        assert obs.tracer() is None and obs.journal() is None

        code = main(["report", str(journal_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "run 1: ok" in out
        assert "per-MO cycle budget" in out
        assert "synthesis latency" in out

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read journal" in capsys.readouterr().err
