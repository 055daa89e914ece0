"""Summarize a run journal: ``python -m repro report <journal.jsonl>``.

Turns the raw event stream back into the questions the hybrid scheduler's
adaptivity raises (Sec. VI-D): which MOs consumed the cycle budget, which
routing jobs resynthesized and why (health fingerprint before/after), and
what the per-synthesis latency distribution looked like.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.obs.journal import iter_events


def _percentile(sorted_values: list[float], q: float) -> float:
    """Exact linear-interpolation percentile over raw samples."""
    if not sorted_values:
        return math.nan
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def summarize_journal(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Reduce journal records to a structured run summary.

    Returns a plain dict (JSON-friendly) with keys:

    * ``runs`` — list of ``{"cycles", "success", "failure", "resyntheses"}``
      from run.start/run.end pairs;
    * ``mos`` — per-MO ``{"activated", "done", "cycles", "resyntheses"}``;
    * ``resyntheses`` — the resynthesis table (cycle, mo, droplet,
      fingerprints, latency);
    * ``synthesis_ms`` — ``{"count", "p50", "p90", "p99", "mean", "max"}``
      over per-synthesis wall milliseconds;
    * ``stalls`` / ``recoveries`` / ``transport_failures`` /
      ``degradation_crossings`` — event counts;
    * ``telemetry`` — streaming-telemetry activity from the
      :class:`~repro.obs.pump.TelemetryPump`: ``{"snapshots",
      "resource_samples", "peak_rss_kb", "last_metrics"}`` (zeros/None
      without a pump).
    """
    records = list(records)

    runs = []
    for end in iter_events(records, "run.end"):
        runs.append({
            "cycles": end.get("cycles"),
            "success": end.get("success"),
            "failure": end.get("failure"),
            "resyntheses": end.get("resyntheses"),
        })

    mos: dict[str, dict[str, Any]] = {}
    for rec in records:
        event = rec.get("event", "")
        if not event.startswith("mo.") and event != "resynthesis":
            continue
        name = rec.get("mo")
        if name is None:
            continue
        entry = mos.setdefault(name, {
            "activated": None, "done": None, "cycles": None,
            "resyntheses": 0,
        })
        if event == "mo.activated":
            entry["activated"] = rec.get("cycle")
        elif event == "mo.done":
            entry["done"] = rec.get("cycle")
            if entry["activated"] is not None and entry["done"] is not None:
                entry["cycles"] = entry["done"] - entry["activated"]
        elif event == "resynthesis":
            entry["resyntheses"] += 1

    resyntheses = [
        {
            "cycle": rec.get("cycle"),
            "mo": rec.get("mo"),
            "droplet": rec.get("droplet"),
            "fp_before": rec.get("fp_before"),
            "fp_after": rec.get("fp_after"),
            "latency_cycles": rec.get("latency_cycles"),
        }
        for rec in iter_events(records, "resynthesis")
    ]

    latencies = sorted(
        float(rec["ms"])
        for rec in iter_events(records, "synthesis")
        if rec.get("ms") is not None
    )
    synthesis_ms = {
        "count": len(latencies),
        "p50": _percentile(latencies, 0.50),
        "p90": _percentile(latencies, 0.90),
        "p99": _percentile(latencies, 0.99),
        "mean": (sum(latencies) / len(latencies)) if latencies else math.nan,
        "max": latencies[-1] if latencies else math.nan,
    }

    snapshots = iter_events(records, "telemetry.snapshot")
    resource_samples = iter_events(records, "telemetry.resources")
    rss_values = [
        rec["process"]["rss_kb"]
        for rec in resource_samples
        if isinstance(rec.get("process"), dict)
        and rec["process"].get("rss_kb") is not None
    ]
    telemetry = {
        "snapshots": len(snapshots),
        "resource_samples": len(resource_samples),
        "peak_rss_kb": max(rss_values) if rss_values else None,
        "last_metrics": snapshots[-1].get("metrics") if snapshots else None,
    }

    return {
        "events": len(records),
        "runs": runs,
        "mos": mos,
        "resyntheses": resyntheses,
        "synthesis_ms": synthesis_ms,
        "telemetry": telemetry,
        "stalls": len(iter_events(records, "droplet.stall")),
        "recoveries": len(iter_events(records, "mo.recovered")),
        "transport_failures": len(iter_events(records, "transport.failure")),
        "degradation_crossings": sum(
            int(rec.get("cells", 1))
            for rec in iter_events(records, "degradation.crossing")
        ),
    }


def _fmt_ms(value: float) -> str:
    return "-" if value is None or math.isnan(value) else f"{value:.2f}"


def sanitize_summary(value: Any) -> Any:
    """A JSON-safe deep copy: NaN / infinity become ``None``.

    ``json.dumps`` would happily emit bare ``NaN`` (invalid JSON that many
    parsers reject); the ``--json`` report path round-trips through this
    instead.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: sanitize_summary(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_summary(v) for v in value]
    return value


def format_report(summary: dict[str, Any]) -> str:
    """Render a :func:`summarize_journal` summary for the terminal."""
    if not summary.get("events"):
        return "journal is empty: no events recorded"
    lines: list[str] = []
    runs = summary["runs"]
    if runs:
        for idx, run in enumerate(runs, start=1):
            status = "ok" if run["success"] else (
                f"FAILED ({run['failure']})"
            )
            lines.append(
                f"run {idx}: {status}  cycles={run['cycles']} "
                f"resyntheses={run['resyntheses']}"
            )
    else:
        lines.append("(journal has no completed run.end record)")
    lines.append(f"journal events: {summary['events']}")

    mos = summary["mos"]
    if mos:
        lines.append("")
        lines.append("per-MO cycle budget:")
        lines.append(f"  {'mo':16s} {'activated':>9s} {'done':>6s} "
                     f"{'cycles':>7s} {'resyn':>6s}")
        for name, entry in sorted(
            mos.items(),
            key=lambda kv: (kv[1]["activated"] is None,
                            kv[1]["activated"] or 0),
        ):
            act = "-" if entry["activated"] is None else str(entry["activated"])
            done = "-" if entry["done"] is None else str(entry["done"])
            cyc = "-" if entry["cycles"] is None else str(entry["cycles"])
            lines.append(f"  {name:16s} {act:>9s} {done:>6s} {cyc:>7s} "
                         f"{entry['resyntheses']:6d}")

    resyn = summary["resyntheses"]
    lines.append("")
    if resyn:
        lines.append(f"resyntheses ({len(resyn)}):")
        lines.append(f"  {'cycle':>5s}  {'mo':16s} {'droplet':>7s}  "
                     f"fingerprint before -> after")
        for row in resyn:
            lines.append(
                f"  {row['cycle'] if row['cycle'] is not None else '-':>5}  "
                f"{(row['mo'] or '?'):16s} "
                f"{row['droplet'] if row['droplet'] is not None else '-':>7}  "
                f"{row['fp_before'] or '?'} -> {row['fp_after'] or '?'}"
            )
    else:
        lines.append("resyntheses: none")

    s = summary["synthesis_ms"]
    lines.append("")
    lines.append(
        f"synthesis latency: n={s['count']} p50={_fmt_ms(s['p50'])}ms "
        f"p90={_fmt_ms(s['p90'])}ms p99={_fmt_ms(s['p99'])}ms "
        f"mean={_fmt_ms(s['mean'])}ms max={_fmt_ms(s['max'])}ms"
    )
    lines.append(
        f"stalls={summary['stalls']} recoveries={summary['recoveries']} "
        f"transport failures={summary['transport_failures']} "
        f"degradation crossings={summary['degradation_crossings']} cells"
    )
    telemetry = summary.get("telemetry") or {}
    if telemetry.get("snapshots") or telemetry.get("resource_samples"):
        peak = telemetry.get("peak_rss_kb")
        lines.append(
            f"telemetry: {telemetry.get('snapshots', 0)} snapshot(s), "
            f"{telemetry.get('resource_samples', 0)} resource sample(s)"
            + (f", peak rss {peak / 1024:.1f} MiB" if peak else "")
        )
    return "\n".join(lines)
