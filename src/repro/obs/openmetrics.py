"""OpenMetrics / Prometheus text rendering of the metrics registry.

Turns a :class:`~repro.obs.metrics.MetricsRegistry` into the OpenMetrics
text exposition format — the lingua franca every scraping stack
(Prometheus, Grafana Agent, VictoriaMetrics) ingests — so a running assay
process can be watched with stock tooling instead of bespoke scripts.
Served live by :mod:`repro.obs.monitor`; also usable offline to convert a
final registry state into a textfile-collector drop.

Mapping:

* dotted repro metric names sanitize to underscores under a ``repro_``
  prefix (``store.memo.hits`` -> ``repro_store_memo_hits``);
* counters render as ``<name>_total`` with ``# TYPE ... counter``;
* gauges render verbatim with ``# TYPE ... gauge``;
* histograms render cumulative ``_bucket{le="..."}`` series (including the
  mandatory ``le="+Inf"``), plus ``_sum`` and ``_count``;
* the exposition ends with the mandatory ``# EOF`` marker.
"""

from __future__ import annotations

import math
import re

from repro import perf
from repro.obs.metrics import MetricsRegistry

#: The content type OpenMetrics scrapers negotiate.
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: Prefix for every exported metric family.
METRIC_PREFIX = "repro"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str, prefix: str = METRIC_PREFIX) -> str:
    """The OpenMetrics family name for a dotted repro metric name."""
    sanitized = _INVALID_CHARS.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"{prefix}_{sanitized}" if prefix else sanitized


def _fmt(value: float) -> str:
    """A float in OpenMetrics syntax (no inf/nan ever reaches here)."""
    if value == math.floor(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_openmetrics(
    registry: "MetricsRegistry | None" = None, prefix: str = METRIC_PREFIX
) -> str:
    """The registry's full state as OpenMetrics exposition text.

    ``registry`` defaults to the live process-global perf registry.  The
    export is taken from one consistent
    :meth:`~repro.obs.metrics.MetricsRegistry.export_state`, so a scrape
    concurrent with updates never sees a torn histogram.
    """
    state = (registry if registry is not None else perf.registry()).export_state()
    lines: list[str] = []

    for name in sorted(state["counters"]):
        family = metric_name(name, prefix)
        lines.append(f"# TYPE {family} counter")
        lines.append(f"{family}_total {_fmt(state['counters'][name])}")

    for name in sorted(state["gauges"]):
        family = metric_name(name, prefix)
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {_fmt(state['gauges'][name])}")

    for name in sorted(state["histograms"]):
        hist = state["histograms"][name]
        family = metric_name(name, prefix)
        lines.append(f"# TYPE {family} histogram")
        cumulative = 0
        for bound, count in zip(hist["bounds"], hist["bucket_counts"]):
            cumulative += count
            lines.append(
                f'{family}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
            )
        lines.append(f'{family}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{family}_sum {_fmt(hist['sum'])}")
        lines.append(f"{family}_count {hist['count']}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> dict[str, float]:
    """A minimal sample parser: ``{series-with-labels: value}``.

    Not a general scraper — just enough structure checking for the CI
    smoke test and unit tests: every non-comment line must be
    ``<name>[{labels}] <number>``, and the exposition must end with
    ``# EOF``.  Raises ``ValueError`` otherwise.
    """
    lines = text.splitlines()
    if not lines or lines[-1].strip() != "# EOF":
        raise ValueError("OpenMetrics exposition must end with '# EOF'")
    samples: dict[str, float] = {}
    for line_no, line in enumerate(lines[:-1], start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = re.fullmatch(
            r'([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?)\s+(\S+)', line
        )
        if match is None:
            raise ValueError(f"line {line_no}: not an OpenMetrics sample: {line!r}")
        samples[match.group(1)] = float(match.group(2))
    return samples
