"""Process-global performance metrics for the synthesis stack.

Historically a flat ``dict`` of sums; now a facade over the typed
instruments in :mod:`repro.obs.metrics` so hot-path latencies get real
distributions (p50/p90/p99) instead of just totals.  The original API is
kept verbatim as shims — every pre-existing call site still works:

* :func:`incr` — monotone event counters (`synthesis.count`,
  `fastmdp.shape_memo.hit`, `vi.warm.solves`, ...);
* :func:`add_time` / :func:`timer` — accumulated wall time per phase
  (`synthesis.construct_seconds`, `synthesis.solve_seconds`, ...);
* :func:`snapshot` — a plain ``dict`` copy for benches and JSON reports
  (histograms contribute ``<name>.count``/``.sum``/``.p50``-style keys);
* :func:`reset` — zero everything (benches call this between configs).

New typed entry points:

* :func:`observe` — record one sample into a fixed-bucket histogram
  (default buckets suit millisecond latencies; pass ``bounds`` otherwise);
* :func:`set_gauge` — last-write-wins levels (library sizes, ...);
* :func:`percentiles` / :func:`histogram_summaries` — distribution queries.

Counter naming convention: ``<layer>.<event>`` with dotted sub-events;
time accumulators end in ``_seconds``; histograms of milliseconds end in
``_ms``.  The canonical counters are listed in README.md ("Performance"
and "Observability" sections).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterable, Iterator

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "incr", "add_time", "timer", "get", "snapshot", "reset", "report",
    "observe", "set_gauge", "percentiles", "histogram", "histogram_summaries",
    "registry",
    "DEFAULT_LATENCY_BUCKETS_MS", "DEFAULT_COUNT_BUCKETS",
]

_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry (exposed for tests and benches)."""
    return _registry


# -- original flat-counter API (shims over typed instruments) ---------------


def incr(name: str, amount: float = 1) -> None:
    """Increment an event counter."""
    _registry.incr(name, amount)


def add_time(name: str, seconds: float) -> None:
    """Accumulate wall time under ``name`` (convention: ``*_seconds``)."""
    _registry.incr(name, seconds)


@contextmanager
def timer(name: str) -> Iterator[None]:
    """Accumulate the wall time of the ``with`` body under ``name``."""
    t0 = perf_counter()
    try:
        yield
    finally:
        _registry.incr(name, perf_counter() - t0)


def get(name: str, default: float = 0) -> float:
    """Current value of one counter or gauge (0 when never touched)."""
    return _registry.get(name, default)


def snapshot() -> dict[str, float]:
    """A copy of every metric, for reports and JSON dumps."""
    return _registry.snapshot()


def reset() -> None:
    """Zero the registry (benches call this between configurations)."""
    _registry.reset()


# -- typed instruments -------------------------------------------------------


def observe(
    name: str, value: float, bounds: Iterable[float] | None = None
) -> None:
    """Record one sample into the histogram ``name``.

    ``bounds`` (bucket upper bounds) applies only on first use; the default
    is :data:`DEFAULT_LATENCY_BUCKETS_MS`.
    """
    _registry.observe(name, value, bounds=bounds)


def set_gauge(name: str, value: float) -> None:
    """Set the gauge ``name`` to ``value``."""
    _registry.set_gauge(name, value)


def histogram(name: str, bounds: Iterable[float] | None = None) -> Histogram:
    """The named histogram instrument (created on first use)."""
    return _registry.histogram(name, bounds)


def percentiles(name: str, qs: Iterable[float] = (0.5, 0.9, 0.99)) -> dict[str, float]:
    """``{"p50": ..., ...}`` for one histogram (empty dict if absent)."""
    summaries = _registry.histogram_summaries()
    if name not in summaries:
        return {}
    return _registry.histogram(name).percentiles(qs)


def histogram_summaries() -> dict[str, dict[str, float]]:
    """Summary stats of every histogram."""
    return _registry.histogram_summaries()


def report() -> str:
    """Human-readable multi-line dump, sorted by metric name."""
    snap = snapshot()
    if not snap:
        return "(no perf counters recorded)"
    width = max(len(k) for k in snap)
    lines = []
    for name in sorted(snap):
        value = snap[name]
        if isinstance(value, float) and value != value:  # NaN (empty hist)
            shown = "-"
        elif isinstance(value, float) and not float(value).is_integer():
            shown = f"{value:.6f}".rstrip("0").rstrip(".")
        else:
            shown = f"{int(value)}"
        lines.append(f"{name.ljust(width)}  {shown}")
    return "\n".join(lines)
