"""Disabled-mode telemetry overhead smoke: fails if the budget is blown.

The :mod:`repro.obs` instrumentation promises a near-zero no-op fast path:
with no tracer/journal configured, every span site costs one function call
returning a shared null object and every journal site costs one ``None``
check.  This bench verifies the promise two ways:

1. **Primitive microbench** — measures the per-call cost of the disabled
   ``obs.span`` / ``obs.begin_span`` / ``obs.journal_event`` entry points,
   multiplies by a (generous) per-synthesis call count, and compares the
   total against the recorded per-RJ latency in ``BENCH_synthesis.json``.
   This is the *gating* check: it is deterministic enough for CI, unlike
   an end-to-end A/B on shared runners.
2. **End-to-end A/B** (informational) — synthesizes a real routing job
   repeatedly with tracing disabled vs enabled and prints both means.
3. **Snapshot path** (gating) — measures one :class:`TelemetryPump` tick
   (registry export + delta + snapshot + /proc sampling) and one
   OpenMetrics render against a representative registry, and requires a
   tick to cost under ``SNAPSHOT_BUDGET_PCT`` of the default 1 s pump
   interval — streaming telemetry must never become a second workload.

Exits nonzero when the primitive-derived overhead exceeds
``OVERHEAD_BUDGET_PCT`` of the recorded post-optimization mean per-RJ
latency, or when the snapshot path blows its own budget.  Results land in
``BENCH_obs_overhead.json`` at the repo root.

Run with ``PYTHONPATH=src python benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SCALE, emit, scaled  # noqa: E402

from repro import obs, perf  # noqa: E402
from repro.core.routing_job import RoutingJob  # noqa: E402
from repro.core.synthesis import synthesize  # noqa: E402
from repro.geometry.rect import Rect  # noqa: E402
from repro.obs.journal import RunJournal  # noqa: E402
from repro.obs.metrics import MetricsRegistry, state_delta  # noqa: E402
from repro.obs.openmetrics import render_openmetrics  # noqa: E402
from repro.obs.pump import DEFAULT_INTERVAL_S, TelemetryPump  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_obs_overhead.json"
BASELINE_PATH = REPO_ROOT / "BENCH_synthesis.json"

#: Maximum tolerated disabled-mode overhead, percent of mean per-RJ latency.
OVERHEAD_BUDGET_PCT = 2.0

#: Upper bound on telemetry entry-point calls a single synthesize triggers
#: through router + synthesis + scheduler instrumentation.  Counted from the
#: code: 1 rj.plan span + 2 synthesis spans + ~3 journal events + a handful
#: of route.step/span-set sites; 16 is a 2x safety margin.
CALLS_PER_SYNTHESIS = 16

#: Maximum tolerated pump-tick cost, percent of the default 1 s interval.
SNAPSHOT_BUDGET_PCT = 2.0


def time_per_call_ns(fn, iterations: int) -> float:
    t0 = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - t0) / iterations * 1e9


def primitive_costs(iterations: int) -> dict[str, float]:
    """Per-call cost (ns) of each disabled-mode telemetry entry point."""
    assert not obs.enabled() and obs.journal() is None

    def span_site() -> None:
        with obs.span("bench.site", cycle=1):
            pass

    def begin_end_site() -> None:
        obs.end_span(obs.begin_span("bench.async", mo="x"))

    def journal_site() -> None:
        obs.journal_event("bench.event", cycle=1, droplet=0)

    return {
        "span_ns": time_per_call_ns(span_site, iterations),
        "begin_end_ns": time_per_call_ns(begin_end_site, iterations),
        "journal_event_ns": time_per_call_ns(journal_site, iterations),
    }


def end_to_end_ms(samples: int, tracing: bool) -> float:
    """Mean per-synthesize wall ms on a mid-size job, A/B on tracing."""
    job = RoutingJob(Rect(2, 2, 4, 4), Rect(24, 12, 26, 14),
                     Rect(1, 1, 30, 16))
    health = np.full((30, 16), 3)
    if tracing:
        obs.configure(tracing=True)
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        result = synthesize(job, health)
        times.append(time.perf_counter() - t0)
        assert result.exists
    obs.shutdown()
    return float(np.mean(times) * 1e3)


def representative_registry() -> MetricsRegistry:
    """A registry sized like a long pooled run's process-global state."""
    registry = MetricsRegistry()
    for i in range(40):
        registry.incr(f"engine.counter.{i}", i * 7 + 1)
    for i in range(8):
        registry.set_gauge(f"pool.gauge.{i}", float(i))
    rng = np.random.default_rng(0)
    for i in range(6):
        for value in rng.gamma(2.0, 8.0, size=200):
            registry.observe(f"latency.hist_{i}_ms", float(value))
    return registry


def snapshot_path_costs(iterations: int) -> dict[str, float]:
    """Per-call cost (ms) of each streaming-snapshot building block."""
    registry = representative_registry()
    baseline = registry.export_state()
    registry.incr("engine.counter.0")  # make the delta non-trivial
    pump = TelemetryPump(RunJournal(), registry=registry)

    def per_call_ms(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(iterations):
            fn()
        return (time.perf_counter() - t0) / iterations * 1e3

    return {
        "export_state_ms": per_call_ms(registry.export_state),
        "state_delta_ms": per_call_ms(
            lambda: state_delta(baseline, registry.export_state())
        ),
        "snapshot_ms": per_call_ms(registry.snapshot),
        "render_openmetrics_ms": per_call_ms(
            lambda: render_openmetrics(registry)
        ),
        "pump_tick_ms": per_call_ms(pump.tick),
    }


def main() -> int:
    obs.shutdown()
    perf.reset()

    iterations = scaled(200_000, 1_000_000)
    costs = primitive_costs(iterations)
    worst_ns = max(costs.values())
    overhead_ms = worst_ns * CALLS_PER_SYNTHESIS / 1e6

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        per_rj_ms = float(baseline["post"]["mean_ms"])
    else:
        print(f"WARNING: {BASELINE_PATH.name} missing; "
              f"run bench_synthesis.py first — using end-to-end mean",
              file=sys.stderr)
        per_rj_ms = end_to_end_ms(scaled(8, 32), tracing=False)
    overhead_pct = overhead_ms / per_rj_ms * 100.0

    samples = scaled(8, 32)
    disabled_ms = end_to_end_ms(samples, tracing=False)
    enabled_ms = end_to_end_ms(samples, tracing=True)

    snapshot_iterations = scaled(50, 400)
    snapshot_costs = snapshot_path_costs(snapshot_iterations)
    tick_pct = (
        snapshot_costs["pump_tick_ms"] / (DEFAULT_INTERVAL_S * 1e3) * 100.0
    )
    snapshot_ok = tick_pct <= SNAPSHOT_BUDGET_PCT

    ok = overhead_pct <= OVERHEAD_BUDGET_PCT
    lines = [
        f"disabled-mode primitive costs ({iterations} iterations):",
        *(f"  {name:18s} {value:8.1f} ns/call"
          for name, value in costs.items()),
        f"calls per synthesis (bound):  {CALLS_PER_SYNTHESIS}",
        f"derived overhead:             {overhead_ms * 1e3:.2f} us/RJ "
        f"({overhead_pct:.4f}% of {per_rj_ms:.1f} ms mean per-RJ latency)",
        f"budget:                       {OVERHEAD_BUDGET_PCT}%  ->  "
        f"{'PASS' if ok else 'FAIL'}",
        "",
        f"end-to-end A/B ({samples} samples, informational):",
        f"  tracing disabled  {disabled_ms:8.2f} ms/synthesize",
        f"  tracing enabled   {enabled_ms:8.2f} ms/synthesize",
        "",
        f"snapshot path ({snapshot_iterations} iterations, "
        f"40 counters / 8 gauges / 6 histograms):",
        *(f"  {name:22s} {value * 1e3:8.1f} us/call"
          for name, value in snapshot_costs.items()),
        f"pump tick vs {DEFAULT_INTERVAL_S:.0f}s interval: {tick_pct:.4f}% "
        f"(budget {SNAPSHOT_BUDGET_PCT}%)  ->  "
        f"{'PASS' if snapshot_ok else 'FAIL'}",
    ]
    emit("bench_obs_overhead", "\n".join(lines))

    JSON_PATH.write_text(json.dumps({
        "bench": "obs_overhead",
        "scale": SCALE,
        "primitives_ns": costs,
        "calls_per_synthesis": CALLS_PER_SYNTHESIS,
        "overhead_us_per_rj": overhead_ms * 1e3,
        "overhead_pct": overhead_pct,
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "per_rj_baseline_ms": per_rj_ms,
        "end_to_end_disabled_ms": disabled_ms,
        "end_to_end_enabled_ms": enabled_ms,
        "snapshot_path": {
            "costs_ms": snapshot_costs,
            "tick_pct_of_interval": tick_pct,
            "budget_pct": SNAPSHOT_BUDGET_PCT,
            "interval_s": DEFAULT_INTERVAL_S,
            "pass": snapshot_ok,
        },
        "pass": ok and snapshot_ok,
    }, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")

    if not ok:
        print(
            f"FAIL: disabled-mode telemetry overhead {overhead_pct:.3f}% "
            f"exceeds the {OVERHEAD_BUDGET_PCT}% budget",
            file=sys.stderr,
        )
    if not snapshot_ok:
        print(
            f"FAIL: pump tick costs {tick_pct:.3f}% of the "
            f"{DEFAULT_INTERVAL_S:.0f}s snapshot interval "
            f"(budget {SNAPSHOT_BUDGET_PCT}%)",
            file=sys.stderr,
        )
    return 0 if ok and snapshot_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
