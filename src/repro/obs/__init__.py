"""``repro.obs`` — structured run telemetry (tracing, metrics, journal).

Three pillars, all disabled by default and near-free when off:

* **span tracing** (:mod:`repro.obs.tracing`) — hierarchical span tree of a
  run (``assay -> mo -> rj.plan -> construct/solve`` plus per-cycle spans),
  exported as JSONL or Chrome ``trace_event`` JSON;
* **metrics** (:mod:`repro.obs.metrics`) — typed instruments behind
  :mod:`repro.perf` (counters, gauges, fixed-bucket histograms with
  p50/p90/p99);
* **run journal** (:mod:`repro.obs.journal`) — a JSONL event log of MO
  lifecycles, resynthesis triggers, stalls/recoveries, transport failures
  and degradation crossings, summarized by ``python -m repro report``.

Usage::

    from repro import obs
    tracer, journal = obs.configure(tracing=True, journal="run.jsonl")
    ...  # run the bioassay
    tracer.export_chrome("run.trace.json")
    obs.shutdown()

Instrumented code calls :func:`span` / :func:`begin_span` /
:func:`journal_event`; with nothing configured those are a function call
returning a shared no-op object (regression-tested to stay under the
disabled-overhead budget in ``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

from repro.obs.journal import (
    JOURNAL_SCHEMA_VERSION,
    RunJournal,
    iter_events,
    journal_scope,
    read_journal,
    validate_event,
)
from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    state_delta,
)
from repro.obs.tracing import NULL_SPAN, NullSpan, Span, Tracer

__all__ = [
    "configure", "shutdown", "enabled", "tracer",
    "journal", "span", "begin_span", "end_span", "under", "traced",
    "journal_event", "journal_scope",
    "Tracer", "Span", "NullSpan", "NULL_SPAN", "RunJournal",
    "read_journal", "iter_events", "validate_event",
    "JOURNAL_SCHEMA_VERSION",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "state_delta",
    "DEFAULT_LATENCY_BUCKETS_MS", "DEFAULT_COUNT_BUCKETS",
]

_tracer: Tracer | None = None
_journal: RunJournal | None = None


class _NullContext:
    """Shared no-op context manager for :func:`under` when disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


def configure(
    tracing: bool = False,
    journal: "RunJournal | str | Path | TextIO | Callable[[dict], None] | None" = None,
) -> tuple[Tracer | None, RunJournal | None]:
    """Enable telemetry for this process; returns ``(tracer, journal)``.

    ``tracing=True`` installs a fresh :class:`Tracer` (replacing any
    previous one).  ``journal`` accepts an existing :class:`RunJournal` or
    any sink the journal constructor takes (path, stream, callable);
    ``None`` leaves the current journal untouched.  (The perf metrics
    registry needs no switch: it is always live.)
    """
    global _tracer, _journal
    if tracing:
        _tracer = Tracer()
    if journal is not None:
        _journal = journal if isinstance(journal, RunJournal) else RunJournal(journal)
    return _tracer, _journal


def shutdown() -> None:
    """Disable telemetry: drop the tracer, close and drop the journal."""
    global _tracer, _journal
    if _journal is not None:
        _journal.close()
    _tracer = None
    _journal = None


def enabled() -> bool:
    """Whether span tracing is currently active."""
    return _tracer is not None


def tracer() -> Tracer | None:
    return _tracer


def journal() -> RunJournal | None:
    return _journal


# -- instrumentation entry points (hot paths; keep the disabled branch first)


def span(name: str, parent: Span | None = None, **attrs: Any):
    """A sync span context manager, or the shared no-op when disabled."""
    t = _tracer
    if t is None:
        return NULL_SPAN
    return t.span(name, parent=parent, **attrs)


def begin_span(
    name: str, parent: Span | None = None, **attrs: Any
) -> Span | None:
    """Open an async (cross-cycle) span; ``None`` when tracing is off."""
    t = _tracer
    if t is None:
        return None
    return t.begin(name, parent=parent, **attrs)


def end_span(span_obj: Span | None, **attrs: Any) -> None:
    """Close an async span from :func:`begin_span` (no-op on ``None``)."""
    t = _tracer
    if t is None or span_obj is None:
        return
    t.end(span_obj, **attrs)


def under(span_obj: Span | None):
    """Ambient-parent context: sync spans in the body nest below ``span_obj``."""
    t = _tracer
    if t is None or span_obj is None:
        return _NULL_CONTEXT
    return t.under(span_obj)


def traced(name: str | None = None, **attrs: Any):
    """Decorator form of :func:`span` (span named after the function)."""

    def decorate(fn):
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            t = _tracer
            if t is None:
                return fn(*args, **kwargs)
            with t.span(label, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def journal_event(event: str, cycle: int | None = None, **fields: Any) -> None:
    """Emit a journal record if a journal is configured (else no-op)."""
    j = _journal
    if j is None:
        return
    j.emit(event, cycle=cycle, **fields)
