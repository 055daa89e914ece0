"""Tests for span tracing: nesting, attributes, exports, disabled mode."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs, perf
from repro.core import baseline
from repro.core.fastmdp import clear_build_template_cache
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import synthesize
from repro.geometry.rect import Rect
from repro.obs.tracing import NULL_SPAN, Tracer


@pytest.fixture(autouse=True)
def clean_obs():
    obs.shutdown()
    perf.reset()
    yield
    obs.shutdown()
    perf.reset()


def small_job() -> RoutingJob:
    return RoutingJob(Rect(2, 2, 4, 4), Rect(12, 9, 14, 11),
                      Rect(1, 1, 16, 12))


class TestSpanTree:
    def test_sync_nesting_sets_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                with tracer.span("leaf") as leaf:
                    pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert leaf.parent_id == inner.span_id
        assert [s.name for s in tracer.children(inner)] == ["leaf"]

    def test_attributes_at_open_and_via_set(self):
        tracer = Tracer()
        with tracer.span("s", job=(1, 2, 3)) as span:
            span.set(cache="miss", warm=True)
        assert span.attrs == {"job": (1, 2, 3), "cache": "miss", "warm": True}

    def test_durations_are_nonnegative_and_closed(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        (span,) = tracer.spans
        assert span.end_us is not None
        assert span.duration_us >= 0

    def test_async_spans_parent_to_outermost_sync_span(self):
        tracer = Tracer()
        with tracer.span("assay") as assay:
            with tracer.span("cycle"):
                mo = tracer.begin("mo:x", start_cycle=1)
            # still open across "cycles"
            assert mo.end_us is None
            tracer.end(mo, end_cycle=5)
        assert mo.parent_id == assay.span_id
        assert mo.attrs["end_cycle"] == 5

    def test_under_reparents_sync_spans(self):
        tracer = Tracer()
        with tracer.span("assay"):
            mo = tracer.begin("mo:x")
            with tracer.under(mo):
                with tracer.span("rj.plan") as rj:
                    pass
            tracer.end(mo)
        assert rj.parent_id == mo.span_id

    def test_explicit_parent_wins(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b", parent=None):
                with tracer.span("c", parent=a) as c:
                    pass
        assert c.parent_id == a.span_id


class TestExports:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", job=(1, 2)):
            with tracer.span("inner"):
                pass
        path = tmp_path / "spans.jsonl"
        tracer.export_jsonl(str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in records] == ["outer", "inner"]
        assert records[1]["parent"] == records[0]["id"]
        assert records[0]["attrs"]["job"] == [1, 2]
        assert all(r["dur_us"] >= 0 for r in records)

    def test_chrome_export_shape(self, tmp_path):
        tracer = Tracer()
        with tracer.span("assay"):
            mo = tracer.begin("mo:x")
            tracer.end(mo)
        path = tmp_path / "trace.json"
        tracer.export_chrome(str(path))
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        phases = sorted(e["ph"] for e in events)
        assert phases == ["M", "X", "b", "e"]
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["name"] == "assay"
        assert complete["dur"] >= 0
        begin = next(e for e in events if e["ph"] == "b")
        end = next(e for e in events if e["ph"] == "e")
        assert begin["id"] == end["id"]
        assert begin["name"] == "mo:x"

    def test_open_spans_export_without_crashing(self, tmp_path):
        tracer = Tracer()
        tracer.begin("mo:open")  # never ended (e.g. failed run)
        tracer.export_chrome(str(tmp_path / "t.json"))
        tracer.export_jsonl(str(tmp_path / "t.jsonl"))
        record = json.loads((tmp_path / "t.jsonl").read_text())
        assert record["dur_us"] is None

    def test_bytes_attrs_become_hex(self):
        tracer = Tracer()
        with tracer.span("s", fp=b"\x01\xff"):
            pass
        record = tracer.spans[0].to_record()
        assert record["attrs"]["fp"] == "01ff"


class TestObsFacade:
    def test_configure_enables_and_shutdown_disables(self):
        assert not obs.enabled()
        tracer, _ = obs.configure(tracing=True)
        assert obs.enabled() and obs.tracer() is tracer
        obs.shutdown()
        assert not obs.enabled() and obs.tracer() is None

    def test_traced_decorator(self):
        tracer, _ = obs.configure(tracing=True)

        @obs.traced("my.fn", flavor="test")
        def fn(x):
            return x + 1

        assert fn(1) == 2
        (span,) = tracer.find("my.fn")
        assert span.attrs == {"flavor": "test"}

    def test_synthesis_emits_construct_and_solve_spans(self, full_health):
        tracer, _ = obs.configure(tracing=True)
        result = synthesize(small_job(), full_health[:16, :12])
        assert result.exists
        assert len(tracer.find("synthesis.construct")) == 1
        (solve,) = tracer.find("synthesis.solve")
        assert solve.attrs["iterations"] >= 1
        assert solve.attrs["states"] > 0


class TestDisabledMode:
    def test_span_returns_shared_null_object(self):
        assert obs.span("anything", key="value") is NULL_SPAN
        assert obs.begin_span("x") is None
        obs.end_span(None)  # must not raise
        with obs.span("nested") as span:
            span.set(extra=1)  # no-op, must not raise
        with obs.under(None):
            pass

    def test_traced_decorator_is_passthrough(self):
        calls = []

        @obs.traced()
        def fn():
            calls.append(1)
            return 7

        assert fn() == 7 and calls == [1]

    def test_disabled_synthesis_adds_no_spans_and_no_obs_counters(
        self, full_health
    ):
        """Regression: with tracing off, a synthesis run must leave zero
        span state and no obs-related perf counters behind."""
        clear_build_template_cache()
        perf.reset()
        result = synthesize(small_job(), full_health[:16, :12])
        assert result.exists
        assert obs.tracer() is None
        assert obs.journal() is None
        snap = perf.snapshot()
        assert not any(k.startswith(("obs.", "span.", "trace."))
                       for k in snap), snap
        # the ordinary perf metrics still flow
        assert snap["synthesis.count"] == 1

    @pytest.mark.parametrize("tracing", [False, True])
    def test_plan_digests_the_health_only_when_tracing(
        self, full_health, monkeypatch, tracing
    ):
        """A library miss puts the health digest on the ``rj.plan`` span;
        with tracing off there is no span, so no digest is computed."""
        calls = []

        def counting(fingerprint):
            calls.append(fingerprint)
            return real(fingerprint)

        real = baseline.fingerprint_digest
        monkeypatch.setattr(baseline, "fingerprint_digest", counting)
        if tracing:
            tracer, _ = obs.configure(tracing=True)
        router = baseline.AdaptiveRouter()
        health = full_health[:16, :12]
        assert router.plan(small_job(), health) is not None  # a miss
        assert router.plan(small_job(), health) is not None  # a hit
        assert len(calls) == (1 if tracing else 0)
        if tracing:
            (miss, _) = tracer.find("rj.plan")
            assert miss.attrs["health_fp"] == real(calls[0])

    def test_journal_event_without_journal_is_noop(self):
        obs.journal_event("anything", cycle=1, data="x")  # must not raise
        assert obs.journal() is None
