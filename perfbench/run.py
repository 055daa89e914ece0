"""Repository benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the repository root.

Each invocation is one fresh process running one workload (see
``workloads.py`` and README.md).  The amount of work is fixed by
``--seconds`` and the workload's nominal rate, so a seed always gives the
same inputs, the same simulated outcomes and the same counts.

* ``--trace 0``: set up (imports, then three warm-ups from empty caches),
  then time the workload and print the end-to-end metrics.
* ``--trace 1``: run half the work untraced, set up again and run the
  same half traced (:mod:`layers`), and print the per-layer metrics.

Wall times are scaled to a reference host speed by :class:`HostMeter`.

Earlier lines of standard output carry the host stamp, the failure
breakdown and the per-layer counts; the last line is the result object.
A run exits non-zero when the program's source is missing.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

#: BLAS/OpenMP thread variables.  The run pins each to one thread before
#: numpy loads: OpenBLAS otherwise starts one spinning thread per core,
#: which doubles CPU use without speeding the program up and makes every
#: timing depend on whatever else holds the host's other core.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_THREAD_ENV = {k: os.environ.get(k) for k in THREAD_ENV}
os.environ.update({k: "1" for k in THREAD_ENV})

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RECORDS = HERE / ".runs"

#: Set-ups per run; ``setup_s`` takes their median.
SETUPS = 3

#: Assays per second of ``--seconds`` on a 2-core x86 host; fixes the
#: amount of work in a run (rounded to whole passes over the six assays).
NOMINAL_RATE = {"lifetime": 2.6, "serve-mix": 7.5}


def _startup_s() -> float:
    """Seconds from process start to now, from /proc (0 where absent)."""
    try:
        stat = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        uptime = float(Path("/proc/uptime").read_text().split()[0])
        return max(uptime - int(stat[19]) / os.sysconf("SC_CLK_TCK"), 0.0)
    except (OSError, ValueError, IndexError):
        return 0.0


#: Interpreter start-up (clock-tick resolution) plus a precise clock from here.
_STARTED = time.perf_counter() - _startup_s()


def process_age_s() -> float:
    return time.perf_counter() - _STARTED


def work_size(workload: str, seconds: int, trace: bool) -> int:
    unit = 12 if workload == "serve-mix" else 6
    n = max(1, round(NOMINAL_RATE[workload] * seconds / unit))
    return unit * (max(1, n // 2) if trace else n)


def probe_ms() -> float:
    """A fixed CPU-bound host-speed probe: median of 5 timings, in ms."""
    import numpy as np

    a = np.arange(40_000, dtype=float)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        np.sort(a[::-1]).sum()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def source_digest() -> str:
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_stamp(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "inherited_thread_env": INHERITED_THREAD_ENV,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "seed": seed,
    }


def set_up(workload) -> float:
    """Set the workload up ``SETUPS`` times, each from empty process caches
    (the last set-up stays in place), and return the median seconds."""
    import layers

    seconds = []
    for i in range(SETUPS):
        if i:
            workload.teardown()
        layers.clear_process_caches()
        started = time.perf_counter()
        workload.setup()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds)


#: About the time in ms of one :class:`HostMeter` sample on the development
#: host when no other tenant holds its core.
REF_METER_MS = 2.5


class HostMeter:
    """Times a fixed probe in every gap between timed items.

    The benchmark host is shared: other tenants slow each of its cores,
    not all at once, in bursts of a few seconds, so a run's wall time says
    as much about them as about the program.  A probe timed on the same
    thread between the program's items slows down with it, and the mean
    probe time over a stretch of the run tracks the slowdown there.
    :meth:`scale` turns the whole timed phase into the time it would have
    taken at the reference speed; :meth:`item_scales` does the same for
    each item from the probes within ``WINDOW_S`` of it, so an item caught
    in a burst is scaled by that burst and not by the run's average.
    The probe, a pure-Python loop plus sparse matrix-vector products,
    mixes the two kinds of work the program does.  It runs outside every
    latency, and its time is taken off the timed phase.
    """

    WINDOW_S = 1.0

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse

        n, per_row = 20_000, 10
        cols = (np.arange(n)[:, None] * 7919 + np.arange(per_row) * 104_729) % n
        self.matrix = scipy.sparse.csr_matrix(
            (np.ones(n * per_row), cols.ravel(), np.arange(0, n * per_row + 1, per_row)),
            shape=(n, n))
        self.vector = np.ones(n)
        self.times: list[float] = []  # start of each gap; item i sits between i and i+1
        self.gaps: list[list[float]] = []
        self.spent = 0.0

    def sample_ms(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        for _ in range(6):
            self.matrix @ self.vector
        return (time.perf_counter() - started) * 1e3

    def __call__(self) -> None:
        started = time.perf_counter()
        self.times.append(started)
        self.gaps.append([self.sample_ms(), self.sample_ms()])
        self.spent += time.perf_counter() - started

    def scale(self) -> float:
        return REF_METER_MS / statistics.fmean(x for gap in self.gaps for x in gap)

    def item_scales(self) -> list[float]:
        scales = []
        for i in range(len(self.gaps) - 1):
            lo = bisect.bisect_left(self.times, self.times[i] - self.WINDOW_S)
            hi = bisect.bisect_right(self.times, self.times[i + 1] + self.WINDOW_S)
            near = [x for gap in self.gaps[lo:hi] for x in gap]
            scales.append(REF_METER_MS / statistics.fmean(near))
        return scales


def timed_pass(workload, tracer=None) -> dict:
    """One timed phase: outcomes, wall time, host scale and counter deltas."""
    import layers

    meter = HostMeter()
    before = layers.read_counters()
    started = time.perf_counter()
    meter()
    outcomes = workload.run(tracer, meter)
    elapsed = time.perf_counter() - started - meter.spent
    delta = layers.counter_delta(before, layers.read_counters())
    return {"outcomes": outcomes, "elapsed": elapsed, "delta": delta,
            "scale": meter.scale(), "item_scales": meter.item_scales(),
            "meter_gaps_ms": meter.gaps}


def summarize(run: dict) -> dict:
    """End-to-end figures of one pass.  Times are scaled to the reference
    host speed (:class:`HostMeter`): throughput by the whole pass's scale,
    each latency by its own; ``wall`` keeps them as measured."""
    from workloads import FAILURE_KINDS

    outcomes = run["outcomes"]
    ok = [o for o in outcomes if o.kind == "ok"]
    kinds = {kind: sum(o.kind == kind for o in outcomes) for kind in FAILURE_KINDS}
    kinds["other"] = len(outcomes) - len(ok) - sum(kinds.values())
    latencies = [o.ms for o in outcomes]
    scaled = [ms * k for ms, k in zip(latencies, run["item_scales"], strict=True)]
    wall = {
        "assays_per_s": len(ok) / run["elapsed"],
        "assay_ms_p50": statistics.median(latencies),
        "assay_ms_p90": statistics.quantiles(latencies, n=10)[8],
    }
    return {
        "attempted": len(outcomes),
        "succeeded": len(ok),
        "failures": kinds,
        "samples": len(latencies),
        "latencies_ms": [round(ms, 2) for ms in latencies],
        "meter_gaps_ms": [[round(x, 4) for x in gap] for gap in run["meter_gaps_ms"]],
        "scale": run["scale"],
        "wall": wall,
        "assays_per_s": wall["assays_per_s"] / run["scale"],
        "assay_ms_p50": statistics.median(scaled),
        "assay_ms_p90": statistics.quantiles(scaled, n=10)[8],
        "pos": len(ok) / len(outcomes),
        "cycles_mean": statistics.fmean(o.cycles for o in ok) if ok else 0.0,
    }


def bypass_problems(name: str, delta: dict) -> list[str]:
    """The store and serve layers must be idle on lifetime and busy (both
    reads and writes) on serve-mix."""
    store = delta["store.hits"] + delta["store.misses"] + delta["store.puts"]
    if name == "serve-mix":
        if not (delta["store.hits"] and delta["store.puts"]):
            return [f"serve-mix: expected store hits and puts, got {delta}"]
        return []
    if store or delta["serve.jobs.submitted"]:
        return [f"{name}: store/serve layers did work on a solo workload"]
    return []


def determinism_problems(key: str, record: dict) -> list[str]:
    """Compare against an earlier run of the same seed, code and size."""
    path = RECORDS / f"{key}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != record:
            diff = {k: (earlier.get(k), record.get(k))
                    for k in set(earlier) | set(record)
                    if earlier.get(k) != record.get(k)}
            return [f"outputs differ from an earlier run of this seed: {diff}"]
        return []
    RECORDS.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    tmp.replace(path)
    return []


def outcome_record(summary: dict, delta: dict) -> dict:
    return {"pos": summary["pos"], "cycles_mean": summary["cycles_mean"],
            "failures": summary["failures"], "counts": delta}


def serve_metrics(outcomes) -> dict:
    """Queue wait, run and HTTP shares of served latency, from job docs."""
    queued, ran, http = [], [], []
    for o in outcomes:
        doc = o.job
        if "queued_ms" in doc and "run_ms" in doc:
            queued.append(doc["queued_ms"])
            ran.append(doc["run_ms"])
            http.append(o.ms - doc["queued_ms"] - doc["run_ms"])
    med = (lambda xs: statistics.median(xs) if xs else 0.0)
    return {"serve.queue_wait_ms_p50": med(queued), "serve.run_ms_p50": med(ran),
            "serve.http_ms_p50": med(http)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_RATE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    import workloads

    n = work_size(args.workload, args.seconds, bool(args.trace))
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, n)
    import_s = process_age_s()
    setup_s = import_s + set_up(workload)
    stamp = host_stamp(args.seed)
    key = f"{args.workload}-s{args.seed}-n{n}-{stamp['source_digest']}"
    probe_before = probe_ms()
    first = timed_pass(workload)
    problems = workload.check(first["outcomes"])
    workload.teardown()
    probe_after = probe_ms()
    summary = summarize(first)
    problems += bypass_problems(args.workload, first["delta"])
    problems += determinism_problems(key, outcome_record(summary, first["delta"]))
    report = {"host": stamp, "workload": args.workload, "assays": n,
              "probe_ms": [probe_before, probe_after], "setup_s": setup_s,
              "import_s": import_s,
              "summary": summary,
              "counts": layers.layer_counts(first["delta"])}
    attempted, failed = summary["attempted"], summary["attempted"] - summary["succeeded"]

    if not args.trace:
        metrics = {
            "assays_per_s": (summary["assays_per_s"], "1/s"),
            "assay_ms_p50": (summary["assay_ms_p50"], "ms"),
            "assay_ms_p90": (summary["assay_ms_p90"], "ms"),
            "pos": (summary["pos"], "ratio"),
            "cycles_mean": (summary["cycles_mean"], "cycles"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        workload = cls(args.seed, n)
        layers.clear_process_caches()
        workload.setup()
        tracer = layers.SpanTracer()
        tracer.install()
        try:
            traced = timed_pass(workload, tracer)
        finally:
            tracer.uninstall()
        workload.teardown()
        RECORDS.mkdir(exist_ok=True)
        tracer.write(RECORDS / f"{key}-spans.jsonl")
        problems += trace_problems(args.workload, tracer, first, traced)
        traced_summary = summarize(traced)
        attempted += traced_summary["attempted"]
        failed += traced_summary["attempted"] - traced_summary["succeeded"]
        times = tracer.layer_metrics(traced_summary["attempted"], cls.root)
        times.update(serve_metrics(traced["outcomes"]))
        values = layers.layer_counts(traced["delta"])
        values.update({name: value * traced["scale"]
                       if layer_unit(name) == "ms" else value
                       for name, value in times.items()})
        values["trace.overhead_frac"] = (
            traced["elapsed"] * traced["scale"]
            / (first["elapsed"] * first["scale"]) - 1)
        values["host.probe_ms"] = (probe_before + probe_after) / 2
        report["traced_calls"] = tracer.calls
        metrics = {name: (value, layer_unit(name)) for name, value in values.items()}

    report["problems"] = problems
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", "_p50")):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def trace_problems(name: str, tracer, first: dict, traced: dict) -> list[str]:
    """Traced-pass self-check: wrapper calls equal the counters they shadow,
    every expected wrapper fired, and tracing changed no outcome or count."""
    import layers

    d = traced["delta"]
    calls = tracer.calls
    shadows = {
        "fastmdp.build": d["fastmdp.template.hits"] + d["fastmdp.builds"],
        "modelcheck.solve": d["synthesis.count"],
        "StrategyStore.get": d["store.hits"] + d["store.misses"],
        "plan_cycle": d["scheduler.cycles"],
    }
    problems = [f"traced {span} calls {calls.get(span, 0)} != counter {want}"
                for span, want in shadows.items() if calls.get(span, 0) != want]
    for _, _, span in layers.WRAP_TARGETS:
        fired = calls.get(span, 0)
        if name != "serve-mix" and span in layers.SERVE_ONLY:
            if fired:
                problems.append(f"{span} fired {fired} times on a solo workload")
        elif not fired:
            problems.append(f"wrapper {span} never fired")
    stable = [k for k in layers.COUNTERS if k not in layers.CACHE_STATE_COUNTERS]
    if ({k: first["delta"][k] for k in stable} != {k: d[k] for k in stable}
            or outcome_record(summarize(first), {})
            != outcome_record(summarize(traced), {})):
        problems.append("traced pass outcomes or counts differ from the "
                        "untraced pass")
    return problems


if __name__ == "__main__":
    sys.exit(main())
