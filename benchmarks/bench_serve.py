"""Serving-core bench: k concurrent clients vs sequential one-at-a-time.

Drives a live :class:`repro.serve.service.ServeService` — real HTTP, real
queue, real worker threads — with a mixed workload of assay jobs (a few
unique (bioassay, seed) specs, each repeated), at client concurrencies
k in {1, 4, 8, 16}.  Per k the bench reports client-observed latency
percentiles (submit -> terminal state) and aggregate throughput, and
compares against the **sequential baseline**: the same workload run solo,
one job at a time, with no shared store — i.e. what ``repro run`` in a
loop would do.

Two hard gates (exit 1 unless ``--no-enforce``):

* **throughput** — aggregate jobs/s at k=8 must be >= 3x the sequential
  baseline.  On a single-core host this gain comes almost entirely from
  cross-assay amortization (the shared strategy store + memo turning
  repeat synthesis into O(decode) lookups), which is the tentpole claim;
* **trace identity** — every served job's ExecutionTrace must be frame-
  for-frame identical to the solo run of the same spec, at every k.
  Violations raise immediately.

Results land in ``BENCH_serve.json`` at the repository root:

```json
{
  "bench": "serve",
  "workload": {"jobs": 48, "unique_specs": 4, "specs": [...]},
  "sequential": {"total_s": ..., "throughput_jps": ...,
                  "p50_ms": ..., "p99_ms": ...},
  "served": {"8": {"total_s": ..., "throughput_jps": ..., "p50_ms": ...,
                    "p99_ms": ..., "speedup": ..., "trace_identical": true,
                    "store": {...}}, ...},
  "gates": {"throughput_k8_over_sequential": {"value": ..., "target": 3.0,
             "pass": true}, "trace_identity": true}
}
```

Run with ``PYTHONPATH=src python benchmarks/bench_serve.py`` (honours
``REPRO_BENCH_SCALE=quick|full``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SCALE, emit, scaled  # noqa: E402

from repro.serve import AssaySpec, ServeClient, ServeService  # noqa: E402
from repro.serve.runner import execute_assay  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_serve.json"

CONCURRENCIES = (1, 4, 8, 16)
GATE_K = 8
GATE_SPEEDUP = 3.0

#: The mixed workload's unique specs: small-chip assays whose solo runs
#: complete well under a second, so the bench stays minutes-scale even at
#: full scale.  Distinct (bioassay, seed) pairs sample distinct chips.
UNIQUE_SPECS = (
    AssaySpec(bioassay="master-mix", width=40, height=24, seed=3,
              max_cycles=400),
    AssaySpec(bioassay="serial-dilution", width=40, height=24, seed=5,
              max_cycles=400),
    AssaySpec(bioassay="covid-rat", width=40, height=24, seed=11,
              max_cycles=800),
    AssaySpec(bioassay="master-mix", width=40, height=24, seed=13,
              max_cycles=400),
)


def spec_key(spec: AssaySpec) -> tuple[str, int]:
    return (spec.bioassay, spec.seed)


def build_workload(repeats: int) -> list[AssaySpec]:
    """``repeats`` interleaved rounds of the unique specs (mixed order)."""
    return [spec for _ in range(repeats) for spec in UNIQUE_SPECS]


def percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


def run_sequential(workload: list[AssaySpec]) -> dict:
    """One job at a time, no shared store (solo runs)."""
    latencies_ms: list[float] = []
    t0 = time.perf_counter()
    for spec in workload:
        t_job = time.perf_counter()
        outcome = execute_assay(spec, engine=None)
        if not outcome.result.success:
            raise RuntimeError(
                f"sequential baseline failed: {spec_key(spec)}"
            )
        latencies_ms.append((time.perf_counter() - t_job) * 1e3)
    total_s = time.perf_counter() - t0
    return {
        "total_s": round(total_s, 4),
        "throughput_jps": len(workload) / total_s,
        "p50_ms": round(percentile(latencies_ms, 50), 3),
        "p99_ms": round(percentile(latencies_ms, 99), 3),
    }


def solo_references() -> dict:
    """One solo trace per unique spec: the bit-identity reference."""
    references = {}
    for spec in UNIQUE_SPECS:
        references[spec_key(spec)] = execute_assay(spec, engine=None)
    return references


def serve_workers_for(k: int) -> int:
    """Assay worker threads for client concurrency k.

    Capped at the core count (min 2, so concurrency is always genuinely
    exercised): on a small host more concurrent assays only multiply the
    cold-start synthesis running before the shared store warms, which is
    a scheduling mistake a real deployment would not make.
    """
    return min(k, max(2, os.cpu_count() or 1))


def run_served(
    workload: list[AssaySpec], k: int, references: dict
) -> dict:
    """k concurrent HTTP clients against a fresh service + fresh store."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        service = ServeService(
            port=0, serve_workers=serve_workers_for(k),
            store_path=Path(tmp) / "store.sqlite", keep_traces=True,
            drain_deadline_s=600.0,
        )
        service.start()
        try:
            base_url = service.url
            latencies_ms: list[float] = []
            latency_lock = threading.Lock()
            errors: list[BaseException] = []
            job_ids: list[str] = []

            def client_loop(client_idx: int) -> None:
                client = ServeClient(base_url, timeout=600.0)
                try:
                    for spec in workload[client_idx::k]:
                        t_job = time.perf_counter()
                        job_id = client.submit(spec)
                        document = client.wait(job_id, timeout=600.0)
                        elapsed_ms = (time.perf_counter() - t_job) * 1e3
                        if document["state"] != "done":
                            raise RuntimeError(
                                f"job {job_id} ended {document['state']}: "
                                f"{document.get('error')}"
                            )
                        with latency_lock:
                            latencies_ms.append(elapsed_ms)
                            job_ids.append(job_id)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)

            t0 = time.perf_counter()
            threads = [
                threading.Thread(target=client_loop, args=(i,))
                for i in range(k)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            total_s = time.perf_counter() - t0
            if errors:
                raise errors[0]

            # Hard gate: every served trace is bit-identical to its solo
            # reference.
            for job_id in job_ids:
                job = service.job(job_id)
                reference = references[spec_key(job.spec)]
                served_trace = service.trace(job_id)
                identical = (
                    job.result["cycles"] == reference.result.cycles
                    and len(served_trace.frames)
                    == len(reference.trace.frames)
                    and all(
                        sf.cycle == rf.cycle
                        and sf.droplets == rf.droplets
                        and sf.moving == rf.moving
                        for rf, sf in zip(
                            reference.trace.frames, served_trace.frames
                        )
                    )
                )
                if not identical:
                    raise RuntimeError(
                        f"trace-identity violation at k={k}: job {job_id} "
                        f"({spec_key(job.spec)}) diverged from its solo run"
                    )

            store_counters = service.store.counters()
        finally:
            if not service._stopped:
                service.drain(deadline_s=600.0)

    return {
        "clients": k,
        "serve_workers": serve_workers_for(k),
        "total_s": round(total_s, 4),
        "throughput_jps": len(workload) / total_s,
        "p50_ms": round(percentile(latencies_ms, 50), 3),
        "p99_ms": round(percentile(latencies_ms, 99), 3),
        "trace_identical": True,
        "store": store_counters,
    }


def run_bench() -> dict:
    repeats = scaled(12, 24)
    workload = build_workload(repeats)

    # Warm the in-process template/kernel caches once so the sequential
    # baseline is not penalized by first-call effects the served runs
    # would then dodge.
    for spec in UNIQUE_SPECS:
        execute_assay(spec, engine=None)

    references = solo_references()
    sequential = run_sequential(workload)

    served: dict[str, dict] = {}
    for k in CONCURRENCIES:
        result = run_served(workload, k, references)
        result["speedup"] = (
            result["throughput_jps"] / sequential["throughput_jps"]
        )
        served[str(k)] = result

    gate_value = served[str(GATE_K)]["speedup"]
    return {
        "bench": "serve",
        "cores": os.cpu_count(),
        "scale": SCALE,
        "workload": {
            "jobs": len(workload),
            "unique_specs": len(UNIQUE_SPECS),
            "specs": [spec.to_dict() for spec in UNIQUE_SPECS],
        },
        "sequential": sequential,
        "served": served,
        "gates": {
            "throughput_k8_over_sequential": {
                "value": round(gate_value, 3),
                "target": GATE_SPEEDUP,
                "pass": gate_value >= GATE_SPEEDUP,
            },
            "trace_identity": True,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--no-enforce", action="store_true",
        help="report gate violations without failing (debugging)",
    )
    args = parser.parse_args(argv)

    report = run_bench()
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    sequential = report["sequential"]
    lines = [
        f"multi-assay serving: {report['workload']['jobs']} jobs over "
        f"{report['workload']['unique_specs']} unique specs, "
        f"{report['cores']} cores (scale={report['scale']})",
        f"  sequential        {sequential['throughput_jps']:6.2f} job/s  "
        f"p50 {sequential['p50_ms']:7.1f} ms  "
        f"p99 {sequential['p99_ms']:7.1f} ms",
    ]
    for k in CONCURRENCIES:
        entry = report["served"][str(k)]
        lines.append(
            f"  served k={k:<2d}       {entry['throughput_jps']:6.2f} job/s  "
            f"p50 {entry['p50_ms']:7.1f} ms  p99 {entry['p99_ms']:7.1f} ms  "
            f"speedup {entry['speedup']:.2f}x"
        )
    gate = report["gates"]["throughput_k8_over_sequential"]
    lines += [
        f"  gate: k={GATE_K} throughput {gate['value']:.2f}x sequential "
        f"(target >= {gate['target']}x) -> "
        f"{'PASS' if gate['pass'] else 'FAIL'}",
        "  gate: trace identity vs solo runs at every k -> PASS",
        f"  wrote {JSON_PATH}",
    ]
    emit("bench_serve", "\n".join(lines))

    if not gate["pass"]:
        print(
            f"{'WARN' if args.no_enforce else 'FAIL'}: k={GATE_K} serving "
            f"throughput {gate['value']:.2f}x sequential < "
            f"{gate['target']}x",
            file=sys.stderr,
        )
        return 0 if args.no_enforce else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
