"""Tests for streaming metric snapshots: state export/delta/merge, the
histogram merge edge cases, and the TelemetryPump."""

from __future__ import annotations

import os
import threading

import pytest

from repro import obs, perf
from repro.obs.journal import RunJournal
from repro.obs.metrics import Histogram, MetricsRegistry, state_delta
from repro.obs.pump import HAVE_PROC, TelemetryPump, sample_process


@pytest.fixture(autouse=True)
def clean_obs():
    obs.shutdown()
    perf.reset()
    yield
    obs.shutdown()
    perf.reset()


class TestExportState:
    def test_roundtrip_all_kinds(self):
        reg = MetricsRegistry()
        reg.incr("c", 4)
        reg.set_gauge("g", 2.5)
        reg.observe("h_ms", 7.0)
        state = reg.export_state()
        assert state["counters"] == {"c": 4}
        assert state["gauges"] == {"g": 2.5}
        hist = state["histograms"]["h_ms"]
        assert hist["count"] == 1 and hist["sum"] == 7.0
        assert hist["min"] == 7.0 and hist["max"] == 7.0
        assert sum(hist["bucket_counts"]) == 1

    def test_export_is_a_copy(self):
        reg = MetricsRegistry()
        reg.incr("c")
        state = reg.export_state()
        reg.incr("c")
        assert state["counters"]["c"] == 1

    def test_merge_into_fresh_registry_equals_original(self):
        reg = MetricsRegistry()
        reg.incr("c", 3)
        reg.set_gauge("g", 1.0)
        for v in (1.0, 5.0, 250.0):
            reg.observe("h_ms", v)
        clone = MetricsRegistry()
        clone.merge(reg.export_state())
        assert clone.export_state() == reg.export_state()

    def test_merge_histogram_bounds_mismatch_raises(self):
        a = Histogram("h", bounds=(1, 2, 3))
        b = Histogram("h", bounds=(1, 2, 4))
        b.observe(1.5)
        with pytest.raises(ValueError, match="bounds"):
            a.merge_state(b.state())


class TestStateDelta:
    def test_quiet_interval_is_empty(self):
        reg = MetricsRegistry()
        reg.incr("c", 2)
        reg.observe("h_ms", 1.0)
        state = reg.export_state()
        delta = state_delta(state, reg.export_state())
        assert delta == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_none_baseline_returns_everything(self):
        reg = MetricsRegistry()
        reg.incr("c", 2)
        delta = state_delta(None, reg.export_state())
        assert delta["counters"] == {"c": 2}

    def test_counter_and_histogram_delta(self):
        reg = MetricsRegistry()
        reg.incr("c", 2)
        reg.observe("h_ms", 1.0)
        before = reg.export_state()
        reg.incr("c", 3)
        reg.observe("h_ms", 9.0)
        delta = state_delta(before, reg.export_state())
        assert delta["counters"] == {"c": 3}
        hist = delta["histograms"]["h_ms"]
        assert hist["count"] == 1 and hist["sum"] == pytest.approx(9.0)

    def test_sum_of_deltas_equals_total_under_concurrency(self):
        reg = MetricsRegistry()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                reg.incr("c")
                reg.observe("h_ms", 1.0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            merged = MetricsRegistry()
            prev = None
            for _ in range(50):
                state = reg.export_state()
                merged.merge(state_delta(prev, state))
                prev = state
        finally:
            stop.set()
            for t in threads:
                t.join()
        # Deltas accumulated into a fresh registry reproduce the cumulative
        # state at the last export exactly — no lost or double counts.
        assert merged.export_state()["counters"]["c"] == \
            prev["counters"]["c"]
        assert merged.export_state()["histograms"]["h_ms"]["count"] == \
            prev["histograms"]["h_ms"]["count"]


class TestHistogramMergeEdgeCases:
    def test_single_sample(self):
        a = Histogram("h", bounds=(1, 10, 100))
        b = Histogram("h", bounds=(1, 10, 100))
        b.observe(5.0)
        a.merge_state(b.state())
        assert a.count == 1
        assert a.min == 5.0 and a.max == 5.0
        assert a.quantile(0.5) <= 10.0

    def test_all_samples_one_bucket(self):
        a = Histogram("h", bounds=(1, 10, 100))
        b = Histogram("h", bounds=(1, 10, 100))
        for _ in range(100):
            b.observe(4.0)
        a.merge_state(b.state())
        assert a.count == 100
        assert a.state()["bucket_counts"][1] == 100

    def test_merge_of_worker_deltas_matches_single_registry(self):
        # Two "workers" each observe a disjoint sample set; merging their
        # deltas must equal one registry that saw every sample.
        samples_a = [0.5, 3.0, 12.0]
        samples_b = [7.0, 90.0, 800.0]
        reference = Histogram("h", bounds=(1, 10, 100))
        parent = Histogram("h", bounds=(1, 10, 100))
        for worker_samples in (samples_a, samples_b):
            worker = Histogram("h", bounds=(1, 10, 100))
            for v in worker_samples:
                worker.observe(v)
                reference.observe(v)
            parent.merge_state(worker.state())
        assert parent.state() == reference.state()

    def test_merge_empty_state_is_noop(self):
        a = Histogram("h", bounds=(1, 10))
        a.observe(2.0)
        empty = Histogram("h", bounds=(1, 10))
        before = a.state()
        a.merge_state(empty.state())
        assert a.state() == before


@pytest.mark.skipif(not HAVE_PROC, reason="/proc is Linux-only")
class TestSampleProcess:
    def test_self_sample(self):
        sample = sample_process()
        assert sample["pid"] == os.getpid()
        assert sample["rss_kb"] > 0
        assert sample["cpu_s"] >= 0.0

    def test_dead_pid_returns_none(self):
        # Fork-then-reap guarantees a pid with no /proc entry is awkward;
        # an (almost certainly) unused huge pid is good enough here.
        assert sample_process(2 ** 22 + 12345) is None


class TestTelemetryPump:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            TelemetryPump(RunJournal(), interval_s=0)

    def test_tick_emits_snapshot_and_resources(self):
        journal = RunJournal()
        reg = MetricsRegistry()
        reg.incr("c", 2)
        pump = TelemetryPump(journal, registry=reg)
        record = pump.tick()
        assert record["window"] == 1
        events = [r["event"] for r in journal.records]
        assert events == ["telemetry.snapshot", "telemetry.resources"]
        snap = journal.records[0]
        assert snap["metrics"]["c"] == 2
        assert snap["delta_counters"] == {"c": 2}
        assert pump.windows == 1

    def test_delta_counters_between_ticks(self):
        journal = RunJournal()
        reg = MetricsRegistry()
        reg.incr("c", 1)
        pump = TelemetryPump(journal, registry=reg)
        pump.tick()
        reg.incr("c", 4)
        record = pump.tick()
        assert record["delta_counters"] == {"c": 4}
        quiet = pump.tick()
        assert quiet["delta_counters"] == {}

    def test_start_stop_flushes_final_window(self):
        journal = RunJournal()
        pump = TelemetryPump(journal, interval_s=30.0,
                             registry=MetricsRegistry())
        pump.start()
        with pytest.raises(RuntimeError):
            pump.start()
        pump.stop(flush=True)
        # The 30s interval never fired; the stop-flush emitted one window.
        assert pump.windows == 1
        assert any(r["event"] == "telemetry.snapshot"
                   for r in journal.records)

    def test_background_thread_ticks(self):
        journal = RunJournal()
        pump = TelemetryPump(journal, interval_s=0.02,
                             registry=MetricsRegistry())
        import time as _time

        with pump:
            deadline = _time.monotonic() + 5.0
            while pump.windows < 2 and _time.monotonic() < deadline:
                _time.sleep(0.01)
        assert pump.windows >= 2
