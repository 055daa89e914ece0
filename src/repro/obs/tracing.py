"""Span tracing: the hierarchical execution record of a bioassay run.

A *span* is a named interval with attributes; spans form a tree — the
instrumented layers produce::

    assay                        (one per MedaSimulator.run)
      scheduler.cycle            (one per plan_cycle call)
        rj.plan                  (router consultation, cache hit or miss)
          synthesis.construct    (model build)
          synthesis.solve        (value iteration)
        route.step               (one per moving droplet per cycle)
      simulator.step             (actuation + outcome sampling)
      mo:<name>                  (async: activation -> done, overlapping)

Two span kinds exist because MO lifetimes cross cycle boundaries:

* **sync** spans are opened/closed in LIFO order via the :meth:`Tracer.span`
  context manager; their parent is the innermost open sync span;
* **async** spans (:meth:`Tracer.begin` / :meth:`Tracer.end`) may overlap
  arbitrarily; their parent defaults to the *outermost* open sync span
  (the run-level ``assay`` span) so concurrent MOs sit side by side under
  the run.

Exports:

* :meth:`Tracer.export_jsonl` — one JSON object per span (id, parent,
  start/duration in microseconds, attributes);
* :meth:`Tracer.export_chrome` — Chrome ``trace_event`` JSON (sync spans as
  complete ``"X"`` events, async spans as ``"b"``/``"e"`` pairs), loadable
  in Perfetto / ``chrome://tracing``.

Tracing is *disabled by default*: :func:`repro.obs.span` returns a shared
no-op context manager when no tracer is configured, so instrumented code
pays one function call and no allocation per span site.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator


def jsonable(value: Any) -> Any:
    """Coerce an attribute value into something ``json.dump`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return str(value)


class Span:
    """One named interval in the trace tree."""

    __slots__ = ("name", "span_id", "parent_id", "start_us", "end_us",
                 "attrs", "kind")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        start_us: float,
        kind: str,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_us = start_us
        self.end_us: float | None = None
        self.attrs = attrs
        self.kind = kind  # "sync" | "async"

    def set(self, **attrs: Any) -> None:
        """Attach attributes after the span was opened (e.g. a cache verdict
        known only mid-span)."""
        self.attrs.update(attrs)

    @property
    def duration_us(self) -> float | None:
        if self.end_us is None:
            return None
        return self.end_us - self.start_us

    def to_record(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "kind": self.kind,
            "start_us": round(self.start_us, 3),
            "dur_us": None if self.end_us is None
            else round(self.end_us - self.start_us, 3),
            "attrs": {k: jsonable(v) for k, v in self.attrs.items()},
        }


class NullSpan:
    """The shared disabled-mode span: enter/exit/set are all no-ops."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


NULL_SPAN = NullSpan()


class Tracer:
    """Collects spans for one tracing session (typically one CLI run)."""

    def __init__(self) -> None:
        self._epoch = perf_counter()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_id = 1
        self._local = threading.local()

    # -- internals -----------------------------------------------------------

    def _now_us(self) -> float:
        return (perf_counter() - self._epoch) * 1e6

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_span(
        self, name: str, parent_id: int | None, kind: str,
        attrs: dict[str, Any],
    ) -> Span:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(name, span_id, parent_id, self._now_us(), kind, attrs)
            self._spans.append(span)
        return span

    # -- sync spans ----------------------------------------------------------

    @contextmanager
    def span(
        self, name: str, parent: Span | None = None, **attrs: Any
    ) -> Iterator[Span]:
        """Open a sync span for the duration of the ``with`` body."""
        stack = self._stack()
        parent_id = parent.span_id if parent is not None else (
            stack[-1].span_id if stack else None
        )
        span = self._new_span(name, parent_id, "sync", attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end_us = self._now_us()
            stack.pop()

    @contextmanager
    def under(self, span: Span | None) -> Iterator[None]:
        """Make ``span`` the ambient parent for sync spans in the body.

        Used to parent a cycle's RJ spans to the long-lived MO span that
        owns them even though the MO span is async.
        """
        if span is None:
            yield
            return
        stack = self._stack()
        stack.append(span)
        try:
            yield
        finally:
            stack.pop()

    # -- async spans (cross-cycle lifetimes) ---------------------------------

    def begin(
        self, name: str, parent: Span | None = None, **attrs: Any
    ) -> Span:
        """Open an async span; close it later with :meth:`end`."""
        stack = self._stack()
        parent_id = parent.span_id if parent is not None else (
            stack[0].span_id if stack else None
        )
        return self._new_span(name, parent_id, "async", attrs)

    def end(self, span: Span, **attrs: Any) -> None:
        if attrs:
            span.attrs.update(attrs)
        span.end_us = self._now_us()

    # -- introspection / export ----------------------------------------------

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def export_jsonl(self, path: str) -> None:
        """One JSON span record per line (open spans get ``dur_us: null``)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_record()) + "\n")

    def chrome_events(self) -> list[dict[str, Any]]:
        """The spans as Chrome ``trace_event`` dicts."""
        now = self._now_us()
        events: list[dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": "repro"},
        }]
        for span in self.spans:
            end = span.end_us if span.end_us is not None else now
            args = {k: jsonable(v) for k, v in span.attrs.items()}
            if span.kind == "sync":
                events.append({
                    "name": span.name, "cat": "repro", "ph": "X",
                    "ts": round(span.start_us, 3),
                    "dur": round(max(end - span.start_us, 0.0), 3),
                    "pid": 1, "tid": 1, "args": args,
                })
            else:
                ident = f"0x{span.span_id:x}"
                events.append({
                    "name": span.name, "cat": "repro.async", "ph": "b",
                    "ts": round(span.start_us, 3), "pid": 1, "tid": 1,
                    "id": ident, "args": args,
                })
                events.append({
                    "name": span.name, "cat": "repro.async", "ph": "e",
                    "ts": round(end, 3), "pid": 1, "tid": 1, "id": ident,
                })
        return events

    def export_chrome(self, path: str) -> None:
        """Write Chrome ``trace_event`` JSON for Perfetto/chrome://tracing."""
        payload = {"traceEvents": self.chrome_events(),
                   "displayTimeUnit": "ms"}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
