"""Per-RJ synthesis latency bench: pre-PR pipeline vs the fast path.

Measures the distribution of per-RJ synthesis wall time (model construction
plus value-iteration solve) on the 60x30 evaluation chip under a monotone
degrading health sequence — the hot loop the hybrid scheduler pays every
time zone health changes (Table V's construction/solve split).

Two pipelines are compared on identical workloads:

* **pre**  — the scalar reference builder (``build_routing_model_scalar``
  in ``tests/oracles.py``, the pre-optimization ``build_routing_model_fast``)
  followed by a cold-started ``Rmin`` solve;
* **post** — the vectorized builder with the process-global action-spec
  memo, plus warm-started value iteration seeded from the previous
  fixpoint of the same job (what ``AdaptiveRouter`` does on a library
  miss).

Results are printed, appended to ``benchmarks/out/bench_synthesis.txt``,
and written as ``BENCH_synthesis.json`` at the repository root:

```json
{
  "bench": "synthesis",
  "chip": {"width": 60, "height": 30},
  "scale": "quick",
  "jobs": 4, "health_steps": 4, "samples": 16,
  "pre":  {"mean_ms": ..., "p50_ms": ..., "p95_ms": ...,
            "construct_mean_ms": ..., "solve_mean_ms": ...},
  "post": {... same keys ...},
  "batched": {"solves": ..., "per_rj_throughput": ...,
               "batched_throughput": ..., "speedup": ...},
  "speedup_mean": 2.7,
  "perf_counters": {"fastmdp.shape_memo.hit": ..., ...}
}
```

Run with ``PYTHONPATH=src python benchmarks/bench_synthesis.py`` (honours
``REPRO_BENCH_SCALE=quick|full``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
# The "pre" pipeline's scalar builder is a test oracle (tests/oracles.py).
sys.path.insert(1, str(Path(__file__).resolve().parent.parent))

from common import CHIP_HEIGHT, CHIP_WIDTH, SCALE, emit, scaled  # noqa: E402

from repro import perf  # noqa: E402
from repro.core.fastmdp import (  # noqa: E402
    clear_build_template_cache,
    clear_shape_action_memo,
)
from repro.core.routing_job import RoutingJob  # noqa: E402
from repro.core.synthesis import (  # noqa: E402
    SYNTHESIS_EPSILON,
    BatchRequest,
    clear_batch_value_memo,
    force_field_from_health,
    synthesize_batch,
    synthesize_with_field,
)
from repro.geometry.rect import Rect  # noqa: E402
from repro.modelcheck.compiled import solve_reach_avoid_reward  # noqa: E402
from repro.modelcheck.strategy import MemorylessStrategy  # noqa: E402
from tests.oracles import build_routing_model_scalar  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_synthesis.json"


def workload_jobs() -> list[RoutingJob]:
    """Routing jobs spread across the evaluation chip (mixed distances)."""
    W, H = CHIP_WIDTH, CHIP_HEIGHT
    full = Rect(1, 1, W, H)
    return [
        RoutingJob(Rect(2, 2, 4, 4), Rect(50, 25, 52, 27), full),
        RoutingJob(Rect(55, 3, 57, 5), Rect(5, 24, 7, 26), full),
        RoutingJob(Rect(28, 2, 30, 4), Rect(30, 26, 32, 28),
                   Rect(20, 1, 40, H)),
        RoutingJob(Rect(3, 14, 5, 16), Rect(54, 14, 56, 16),
                   Rect(1, 8, W, 22)),
    ]


def health_sequence(rng: np.random.Generator, steps: int) -> list[np.ndarray]:
    """A monotone non-increasing 2-bit health trajectory (fresh chip first)."""
    h = np.full((CHIP_WIDTH, CHIP_HEIGHT), 3, dtype=int)
    seq = [h.copy()]
    for _ in range(steps - 1):
        drop = rng.random(h.shape) < 0.01
        h = np.where(drop, np.maximum(h - 1, 1), h)
        seq.append(h.copy())
    return seq


def _stats(samples_ms: list[float]) -> dict[str, float]:
    arr = np.asarray(samples_ms)
    return {
        "mean_ms": float(arr.mean()),
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
    }


def run_bench() -> dict:
    rng = np.random.default_rng(20210201)  # DATE'21 vintage
    jobs = workload_jobs()
    steps = scaled(4, 10)
    healths = health_sequence(rng, steps)

    pre_total, pre_construct, pre_solve = [], [], []
    post_total, post_construct, post_solve = [], [], []

    # -- pre-PR pipeline: scalar builder + cold solve ------------------------
    for health in healths:
        forces = force_field_from_health(health).forces
        for job in jobs:
            t0 = time.perf_counter()
            model = build_routing_model_scalar(job, forces)
            t1 = time.perf_counter()
            solve_reach_avoid_reward(model.compiled)
            t2 = time.perf_counter()
            pre_construct.append((t1 - t0) * 1e3)
            pre_solve.append((t2 - t1) * 1e3)
            pre_total.append((t2 - t0) * 1e3)

    # -- post-PR pipeline: vectorized builder + memo + warm-started VI -------
    clear_shape_action_memo()
    perf.reset()
    warm: dict[tuple, MemorylessStrategy] = {}
    for health in healths:
        field = force_field_from_health(health)
        for job in jobs:
            result = synthesize_with_field(
                job, field, warm_values=warm.get(job.key())
            )
            post_construct.append(result.construction_time * 1e3)
            post_solve.append(result.solve_time * 1e3)
            post_total.append(result.total_time * 1e3)
            if result.strategy is not None:
                warm[job.key()] = result.strategy
    counters = perf.snapshot()

    # -- batched pipeline: one synthesize_batch call per health epoch --------
    # Solve-throughput comparison (RJ/s): the same workload through the
    # batched solver core, cold caches, asserting bit-identity with the
    # cold per-RJ path it replaces.
    clear_build_template_cache()
    clear_batch_value_memo()
    solo_results = []
    t0 = time.perf_counter()
    for health in healths:
        field = force_field_from_health(health)
        for job in jobs:
            clear_build_template_cache()
            solo_results.append(synthesize_with_field(job, field))
    solo_elapsed = time.perf_counter() - t0
    clear_build_template_cache()
    clear_batch_value_memo()
    batched_results = []
    t0 = time.perf_counter()
    for health in healths:
        field = force_field_from_health(health)
        batched_results.extend(
            synthesize_batch([BatchRequest(job, field) for job in jobs])
        )
    batched_elapsed = time.perf_counter() - t0
    for rb, rs in zip(batched_results, solo_results):
        if rb.expected_cycles != rs.expected_cycles or (
            rb.strategy is not None
            and (
                rb.strategy.decisions != rs.strategy.decisions
                or rb.strategy.values != rs.strategy.values
            )
        ):
            raise RuntimeError(
                "synthesize_batch diverged from synthesize_with_field"
            )
    solves = len(jobs) * len(healths)
    batched = {
        "solves": solves,
        "per_rj_s": round(solo_elapsed, 4),
        "batched_s": round(batched_elapsed, 4),
        "per_rj_throughput": solves / solo_elapsed,
        "batched_throughput": solves / batched_elapsed,
        "speedup": solo_elapsed / batched_elapsed,
    }

    pre = _stats(pre_total)
    pre["construct_mean_ms"] = float(np.mean(pre_construct))
    pre["solve_mean_ms"] = float(np.mean(pre_solve))
    post = _stats(post_total)
    post["construct_mean_ms"] = float(np.mean(post_construct))
    post["solve_mean_ms"] = float(np.mean(post_solve))

    # Certified-bound quality over every post-pipeline solve: the interval
    # solver records each result's max bound width in the vi.interval.gap
    # histogram, so the bench can assert soundness, not just speed.
    certified = {
        "epsilon": SYNTHESIS_EPSILON,
        "solves": counters.get("vi.interval.gap.count", 0.0),
        "gap_max": counters.get("vi.interval.gap.max", float("nan")),
        "gap_mean": counters.get("vi.interval.gap.mean", float("nan")),
        "gap_p99": counters.get("vi.interval.gap.p99", float("nan")),
    }

    return {
        "bench": "synthesis",
        "chip": {"width": CHIP_WIDTH, "height": CHIP_HEIGHT},
        "scale": SCALE,
        "jobs": len(jobs),
        "health_steps": steps,
        "samples": len(pre_total),
        "pre": pre,
        "post": post,
        "batched": batched,
        "certified": certified,
        "speedup_mean": pre["mean_ms"] / post["mean_ms"],
        "perf_counters": {k: counters[k] for k in sorted(counters)},
    }


def main() -> int:
    report = run_bench()
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    lines = [
        f"per-RJ synthesis latency, {report['chip']['width']}x"
        f"{report['chip']['height']} chip, {report['samples']} samples "
        f"(scale={report['scale']})",
        f"  pre  (scalar build + cold VI):     mean {report['pre']['mean_ms']:8.1f} ms"
        f"  p50 {report['pre']['p50_ms']:8.1f}  p95 {report['pre']['p95_ms']:8.1f}",
        f"  post (vectorized build + warm VI): mean {report['post']['mean_ms']:8.1f} ms"
        f"  p50 {report['post']['p50_ms']:8.1f}  p95 {report['post']['p95_ms']:8.1f}",
        f"  speedup (mean total): {report['speedup_mean']:.2f}x",
        f"  batched solver core:  "
        f"{report['batched']['per_rj_throughput']:.1f} RJ/s per-RJ vs "
        f"{report['batched']['batched_throughput']:.1f} RJ/s batched "
        f"({report['batched']['speedup']:.2f}x, bit-identical)",
        f"  certified gaps over {int(report['certified']['solves'])} solves:"
        f"  max {report['certified']['gap_max']:.2e}"
        f"  mean {report['certified']['gap_mean']:.2e}"
        f"  (epsilon {report['certified']['epsilon']:.0e})",
        f"  wrote {JSON_PATH}",
    ]
    emit("bench_synthesis", "\n".join(lines))
    cert = report["certified"]
    if not cert["solves"] or not cert["gap_max"] <= cert["epsilon"]:
        print("FAIL: certified interval gap exceeds epsilon "
              f"(max {cert['gap_max']!r} > {cert['epsilon']!r})",
              file=sys.stderr)
        return 1
    if report["speedup_mean"] < 1.5:
        print("FAIL: speedup below the 1.5x acceptance threshold",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
