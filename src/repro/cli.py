"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the bioassay suite with op counts;
* ``run`` — execute a bioassay on a sampled chip and print the outcome
  (optionally the wear heatmap); ``--trace``/``--journal``/``--perf``
  switch on the :mod:`repro.obs` telemetry; ``--workers``/``--prefetch``/
  ``--strategy-cache`` enable the parallel synthesis engine
  (:mod:`repro.engine`); ``--engine-retries``/``--engine-deadline-ms``
  bound its fault tolerance and ``--chaos`` injects deterministic faults
  (:mod:`repro.engine.chaos`);
* ``report`` — summarize a run journal written by ``run --journal``
  (``--json`` for machine-readable output, ``--slo`` to gate on
  objectives);
* ``monitor`` — ``run`` with the live telemetry endpoint always on:
  serves OpenMetrics ``/metrics`` and JSON ``/healthz`` while the
  bioassay executes (``--port``, default 9178);
* ``synth`` — synthesize a single routing job and print the route map;
* ``degradation`` — print the D(n)/H(n) lifetime table for given (tau, c).

The live telemetry plane (``--monitor-port`` / ``--snapshot-interval-ms``
/ ``--slo``) is shared between ``run`` and ``monitor``: a monitor
endpoint, a background :class:`~repro.obs.pump.TelemetryPump` journaling
periodic metric snapshots and /proc resource samples, and declarative
SLOs (:mod:`repro.obs.slo`) evaluated at the end of the run — a violated
objective exits 4 (run failures still exit 1).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np


def _cmd_list(_: argparse.Namespace) -> int:
    from repro.bioassay.library import ALL_BIOASSAYS, EVALUATION_BIOASSAYS

    print(f"{'bioassay':18s} {'MOs':>4s} {'depth':>5s}  role")
    for name, builder in sorted(ALL_BIOASSAYS.items()):
        graph = builder()
        role = "evaluation" if name in EVALUATION_BIOASSAYS else "pattern-study"
        print(f"{name:18s} {len(graph):4d} {graph.depth:5d}  {role}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro import obs, perf
    from repro.analysis.render import render_degradation
    from repro.bioassay.library import ALL_BIOASSAYS
    from repro.bioassay.planner import plan
    from repro.biochip.chip import MedaChip
    from repro.biochip.simulator import MedaSimulator
    from repro.core.baseline import AdaptiveRouter, BaselineRouter
    from repro.core.scheduler import HybridScheduler

    slos = []
    if args.slo:
        from repro.obs.slo import parse_slo

        try:
            slos = [parse_slo(text) for text in args.slo]
        except ValueError as exc:
            print(f"bad --slo spec: {exc}", file=sys.stderr)
            return 2

    if args.file:
        from repro.bioassay.io import load_graph

        base_graph = load_graph(args.file)
    elif args.bioassay in ALL_BIOASSAYS:
        base_graph = ALL_BIOASSAYS[args.bioassay]()
    else:
        print(f"unknown bioassay {args.bioassay!r}; try `repro list`",
              file=sys.stderr)
        return 2
    graph = plan(base_graph, args.width, args.height)
    chip = MedaChip.sample(
        args.width, args.height, np.random.default_rng(args.seed),
        tau_range=(args.tau_min, args.tau_max),
        c_range=(args.c_min, args.c_max),
    )

    if args.chaos is not None:
        from repro.engine import chaos

        try:
            chaos.activate(chaos.parse_spec(args.chaos))
        except ValueError as exc:
            print(f"bad --chaos spec: {exc}", file=sys.stderr)
            return 2

    engine = None
    if args.router == "adaptive" and (
        args.workers != 1 or args.strategy_cache is not None
    ):
        from repro.engine import StrategyStore, SynthesisEngine

        store = None
        if args.strategy_cache is not None:
            store = StrategyStore(
                None if args.strategy_cache == "auto" else args.strategy_cache
            )
        engine = SynthesisEngine(
            workers=args.workers, store=store, prefetch=args.prefetch,
            retries=args.engine_retries, deadline_ms=args.engine_deadline_ms,
            admission_floor=True,
        )
    if args.router == "adaptive":
        router = AdaptiveRouter(engine=engine)
    else:
        router = BaselineRouter(args.width, args.height)

    # Mark metric propagation wanted whenever the telemetry plane is in
    # play, so pool workers ship their metric deltas back even when
    # neither tracing nor a journal is on (e.g. a bare /metrics endpoint).
    want_metrics = (
        args.monitor_port is not None
        or args.snapshot_interval_ms is not None
        or bool(slos)
    )
    tracer, _ = obs.configure(
        tracing=args.trace is not None,
        journal=args.journal,
        metrics=True if want_metrics else None,
    )

    monitor = None
    if args.monitor_port is not None:
        from repro.obs.monitor import MonitorServer

        def _health() -> dict:
            return {
                "bioassay": args.bioassay,
                "router": args.router,
                "workers": args.workers,
                "engine_degraded": bool(
                    engine is not None and engine.degraded
                ),
            }

        monitor = MonitorServer(
            port=args.monitor_port, host=args.monitor_host, health=_health
        )
        try:
            monitor.start()
        except OSError as exc:
            print(f"cannot start monitor endpoint: {exc}", file=sys.stderr)
            obs.shutdown()
            if engine is not None:
                engine.close()
            return 2
        print(f"monitor: {monitor.url}/metrics (OpenMetrics), "
              f"{monitor.url}/healthz")

    pump = None
    if args.snapshot_interval_ms is not None:
        journal = obs.journal()
        if journal is None:
            print("--snapshot-interval-ms needs --journal (snapshots are "
                  "journal events)", file=sys.stderr)
            if monitor is not None:
                monitor.stop()
            obs.shutdown()
            if engine is not None:
                engine.close()
            return 2
        from repro.obs.pump import TelemetryPump

        try:
            pump = TelemetryPump(
                journal,
                interval_s=args.snapshot_interval_ms / 1e3,
                worker_pids=(
                    engine.worker_pids
                    if engine is not None and engine.pooled
                    else None
                ),
            )
        except ValueError as exc:
            print(f"bad --snapshot-interval-ms: {exc}", file=sys.stderr)
            if monitor is not None:
                monitor.stop()
            obs.shutdown()
            if engine is not None:
                engine.close()
            return 2
        pump.start()

    total_failures = 0
    slo_results = None
    cleaned = {"engine": False, "pump": False}

    def _close_engine() -> None:
        if engine is None or cleaned["engine"]:
            return
        cleaned["engine"] = True
        engine.close()
        if engine.degraded:
            print("engine: worker pool degraded mid-run; finished on "
                  "the synchronous path", file=sys.stderr)
        if args.perf:
            pairs = ", ".join(
                f"{k}={v}" for k, v in engine.counters().items()
            )
            print(f"engine: {pairs}")

    def _stop_pump() -> None:
        if pump is None or cleaned["pump"]:
            return
        cleaned["pump"] = True
        pump.stop(flush=True)

    try:
        for run_idx in range(args.runs):
            obs.journal_event("cli.run", run=run_idx + 1,
                              bioassay=args.bioassay, router=args.router,
                              seed=args.seed, workers=args.workers)
            if args.wear_level and run_idx:
                # Re-place from scratch against the wear accumulated by the
                # previous runs, steering module slots and ports away from
                # the most-actuated silicon.
                graph = plan(base_graph, args.width, args.height,
                             wear=chip.actuations.copy())
            reconfig = None
            if args.reconfig:
                from repro.reconfig import ReconfigPolicy

                reconfig = ReconfigPolicy(
                    args.width, args.height,
                    wear=chip.actuations.copy() if args.wear_level else None,
                )
            scheduler = HybridScheduler(graph, router, args.width, args.height,
                                        reconfig=reconfig)
            sim = MedaSimulator(chip,
                                np.random.default_rng(args.seed + 1 + run_idx))
            if engine is not None and engine.pooled:
                scheduler.presynthesize(chip.health())
            result = sim.run(scheduler, max_cycles=args.max_cycles)
            status = "ok" if result.success else f"FAILED ({result.failure})"
            extra = f" remaps={scheduler.remaps}" if args.reconfig else ""
            print(f"run {run_idx + 1}: {status:24s} cycles={result.cycles:4d} "
                  f"replans={result.resyntheses}{extra}")
            total_failures += 0 if result.success else 1
        # Orderly teardown before the SLO gate: closing the engine salvages
        # any remaining worker telemetry (merging worker-side metric deltas
        # and spans), and the pump's final flush then journals a snapshot
        # that includes them — so objectives can gate on worker metrics.
        _close_engine()
        _stop_pump()
        if slos:
            from repro.obs.slo import evaluate

            # One-shot evaluation at end of run: the live metric snapshot
            # plus derived run-level values the objectives commonly gate on.
            slo_snapshot = dict(perf.snapshot())
            slo_snapshot["runs"] = float(args.runs)
            slo_snapshot["failures"] = float(total_failures)
            slo_snapshot["completion_probability"] = (
                (args.runs - total_failures) / args.runs if args.runs else 1.0
            )
            slo_results = evaluate(slos, slo_snapshot)
            for result_entry in slo_results:
                obs.journal_event("slo.result", **result_entry.to_record())
    finally:
        _close_engine()
        _stop_pump()
        if monitor is not None:
            monitor.stop()
        if tracer is not None and args.trace is not None:
            spans_path = args.trace + ".spans.jsonl"
            tracer.export_chrome(args.trace)
            tracer.export_jsonl(spans_path)
            print(f"trace: {args.trace} (Chrome/Perfetto), {spans_path} "
                  f"(span JSONL)")
        if args.journal is not None:
            print(f"journal: {args.journal} "
                  f"(summarize with `python -m repro report {args.journal}`)")
        obs.shutdown()
    if args.perf:
        print("\nperf counters:")
        print(perf.report())
    if args.show_wear:
        print("\nchip wear (light = healthy, dense = degraded):")
        print(render_degradation(chip.degradation()))
    exit_code = 1 if total_failures else 0
    if slo_results is not None:
        from repro.obs.slo import format_results

        print("\nSLOs:")
        print(format_results(slo_results))
        if not all(r.ok for r in slo_results) and exit_code == 0:
            exit_code = 4
    return exit_code


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.obs.journal import read_journal
    from repro.obs.report import (
        format_report,
        sanitize_summary,
        summarize_journal,
    )

    try:
        records = read_journal(args.journal)
    except (OSError, ValueError) as exc:
        print(f"cannot read journal: {exc}", file=sys.stderr)
        return 2
    summary = summarize_journal(records)

    slo_results = None
    if args.slo:
        from repro.obs.slo import evaluate, parse_slo

        try:
            specs = [parse_slo(text) for text in args.slo]
        except ValueError as exc:
            print(f"bad --slo spec: {exc}", file=sys.stderr)
            return 2
        # Evaluate against the last streamed metric snapshot (when the run
        # had a TelemetryPump) plus values derived from the journal itself,
        # so objectives work even on journals without snapshots.
        snapshot = dict(summary["telemetry"]["last_metrics"] or {})
        runs = summary["runs"]
        if runs:
            successes = sum(1 for run in runs if run.get("success"))
            snapshot.setdefault(
                "completion_probability", successes / len(runs)
            )
            snapshot.setdefault("runs", float(len(runs)))
        for stat, value in summary["synthesis_ms"].items():
            if value is not None:
                snapshot.setdefault(f"synthesis_ms.{stat}", value)
        snapshot.setdefault("resyntheses", float(len(summary["resyntheses"])))
        slo_results = evaluate(specs, snapshot)

    if args.json:
        payload = sanitize_summary(summary)
        if slo_results is not None:
            payload["slos"] = sanitize_summary(
                [r.to_record() for r in slo_results]
            )
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_report(summary))
        if slo_results is not None:
            from repro.obs.slo import format_results

            print("\nSLOs:")
            print(format_results(slo_results))
    if slo_results is not None and not all(r.ok for r in slo_results):
        return 4
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.serve import ServeService

    service = ServeService(
        port=args.port,
        host=args.host,
        serve_workers=args.serve_workers,
        engine_workers=args.workers,
        store_path=args.strategy_cache,
        prefetch=args.prefetch,
        drain_deadline_s=args.drain_deadline,
        journal_path=args.journal,
        engine_retries=args.engine_retries,
        engine_deadline_ms=args.engine_deadline_ms,
    )
    try:
        port = service.start()
    except OSError as exc:
        print(f"cannot start serve endpoint: {exc}", file=sys.stderr)
        return 2
    print(f"serving on {service.url} "
          f"(POST /jobs, GET /jobs/<id>[/events], /metrics, /healthz)")
    print(f"serve workers={args.serve_workers} engine workers={args.workers} "
          f"store={'on' if service.engine.store is not None else 'off'}")

    stop = threading.Event()

    def _signalled(signum: int, _frame: object) -> None:
        print(f"\nreceived {signal.Signals(signum).name}; draining "
              f"(deadline {args.drain_deadline:.0f}s)", file=sys.stderr)
        stop.set()

    previous = {
        sig: signal.signal(sig, _signalled)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        while not stop.wait(0.2):
            pass
        summary = service.drain()
        pairs = ", ".join(f"{k}={v}" for k, v in summary.items())
        print(f"drained: {pairs}")
        return 0 if summary.get("settled") else 3
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        _ = port


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient, ServeError
    from repro.serve.job import AssaySpec

    client = ServeClient(args.url, timeout=args.timeout)
    spec = AssaySpec(
        bioassay=args.bioassay, width=args.width, height=args.height,
        seed=args.seed, max_cycles=args.max_cycles,
        tau_min=args.tau_min, tau_max=args.tau_max,
        c_min=args.c_min, c_max=args.c_max, priority=args.priority,
    )
    try:
        job_id = client.submit(spec)
    except (ServeError, OSError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 2
    print(f"submitted {job_id} ({spec.bioassay}, seed {spec.seed})")
    if not args.wait:
        return 0
    try:
        document = client.wait(job_id, timeout=args.timeout)
    except (ServeError, OSError, TimeoutError) as exc:
        print(f"wait failed: {exc}", file=sys.stderr)
        return 2
    state = document["state"]
    result = document.get("result") or {}
    if state == "done":
        print(f"{job_id}: done cycles={result.get('cycles')} "
              f"replans={result.get('resyntheses')} "
              f"run_ms={document.get('run_ms')}")
        return 0 if result.get("success") else 1
    print(f"{job_id}: {state} {document.get('error', '')}".rstrip(),
          file=sys.stderr)
    return 1


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.analysis.render import render_route
    from repro.core.routing_job import RoutingJob, zone
    from repro.core.strategy import strategy_from_synthesis
    from repro.core.synthesis import synthesize
    from repro.geometry.rect import Rect

    start = Rect(args.start[0], args.start[1],
                 args.start[0] + args.droplet - 1,
                 args.start[1] + args.droplet - 1)
    goal = Rect(args.goal[0], args.goal[1],
                args.goal[0] + args.droplet - 1,
                args.goal[1] + args.droplet - 1)
    hazard = (
        Rect(1, 1, args.width, args.height)
        if args.full_chip
        else zone(start, goal, args.width, args.height)
    )
    job = RoutingJob(start, goal, hazard)
    health = np.full((args.width, args.height), 3)
    rng = np.random.default_rng(args.seed)
    if args.dead_fraction > 0:
        dead = rng.random((args.width, args.height)) < args.dead_fraction
        health[dead] = 0
        health[start.xa - 1:start.xb, start.ya - 1:start.yb] = 3
        health[goal.xa - 1:goal.xb, goal.ya - 1:goal.yb] = 3
    result = synthesize(job, health)
    if not result.exists:
        print("no strategy exists (goal unreachable under this health matrix)")
        return 1
    # A repeat of an earlier synthesis in this process is answered from
    # the remembered cold result, which keeps no model to measure.
    size = "" if result.model is None else (
        f"states={result.model.num_states} "
        f"transitions={result.model.num_transitions} "
    )
    print(f"{size}E[cycles]={result.expected_cycles:.2f} "
          f"synthesized in {result.total_time:.2f}s\n")
    strategy = strategy_from_synthesis(job, result)
    assert strategy is not None
    print(render_route(strategy, health))
    return 0


def _cmd_degradation(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_series
    from repro.degradation.model import DegradationParams, quantize_health

    params = DegradationParams(tau=args.tau, c=args.c)
    ns = np.arange(0, args.n_max + 1, max(args.n_max // 16, 1))
    d = np.asarray(params.degradation(ns))
    print(format_series(
        "n", [int(n) for n in ns],
        {
            "D(n)": [f"{v:.3f}" for v in d],
            f"H(n) b={args.bits}": [
                str(int(v)) for v in np.asarray(quantize_health(d, args.bits))
            ],
            "force F(n)": [f"{v:.3f}" for v in d**2],
        },
        title=f"degradation lifetime for tau={args.tau}, c={args.c}",
    ))
    return 0


def _workers_arg(value: str) -> int:
    workers = int(value)
    if workers < 0:
        raise argparse.ArgumentTypeError(
            "workers must be >= 0 (0 = one per core, 1 = synchronous)"
        )
    return workers


def _add_run_options(run: argparse.ArgumentParser) -> None:
    """Register the execution options shared by ``run`` and ``monitor``."""
    run.add_argument("--bioassay", default="covid-rat")
    run.add_argument("--file", default=None,
                     help="load the bioassay from a JSON file instead")
    run.add_argument("--router", choices=("adaptive", "baseline"),
                     default="adaptive")
    run.add_argument("--runs", type=int, default=1,
                     help="consecutive executions on the same chip")
    run.add_argument("--width", type=int, default=60)
    run.add_argument("--height", type=int, default=30)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--max-cycles", type=int, default=800)
    run.add_argument("--tau-min", type=float, default=0.5)
    run.add_argument("--tau-max", type=float, default=0.9)
    run.add_argument("--c-min", type=float, default=200.0)
    run.add_argument("--c-max", type=float, default=500.0)
    run.add_argument("--workers", type=_workers_arg, default=1,
                     help="synthesis worker processes (adaptive router only): "
                          "1 = synchronous (default), 0 = one per core, "
                          "N>1 = a pool of N")
    run.add_argument("--prefetch", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="speculatively prefetch strategies for MOs about "
                          "to activate (needs --workers != 1)")
    run.add_argument("--strategy-cache", metavar="PATH", nargs="?",
                     const="auto", default=None,
                     help="persist synthesized strategies across runs in a "
                          "SQLite cache; with no PATH, uses "
                          "~/.cache/repro/strategies.sqlite")
    run.add_argument("--engine-retries", type=int, default=2, metavar="N",
                     help="how many times a speculation is resubmitted after "
                          "a transient worker failure (default 2)")
    run.add_argument("--engine-deadline-ms", type=float, default=None,
                     metavar="MS",
                     help="per-speculation deadline; in-flight synthesis "
                          "older than this is reaped and hung workers are "
                          "killed (default: no deadline)")
    run.add_argument("--chaos", metavar="SPEC", default=None,
                     help="deterministic fault injection, e.g. "
                          "'kill=0.1,raise=0.05,delay=0.1:250,store=0.2,"
                          "seed=7' (see repro.engine.chaos; REPRO_CHAOS_SEED "
                          "overrides the seed)")
    run.add_argument("--reconfig", action=argparse.BooleanOptionalAction,
                     default=False,
                     help="quarantine failing silicon and remap module "
                          "placements around it at runtime")
    run.add_argument("--wear-level", action=argparse.BooleanOptionalAction,
                     default=False,
                     help="re-place each run biased away from accumulated "
                          "actuation wear (and bias remap slot choice when "
                          "--reconfig is on)")
    run.add_argument("--show-wear", action="store_true",
                     help="print the chip wear heatmap afterwards")
    run.add_argument("--perf", action="store_true",
                     help="print the perf counter/histogram report afterwards")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="write a Chrome trace_event file (open in Perfetto) "
                          "plus a PATH.spans.jsonl span log")
    run.add_argument("--journal", metavar="PATH", default=None,
                     help="write the run journal (JSONL) to PATH")


def _add_telemetry_options(
    parser: argparse.ArgumentParser,
    monitor_flag: str = "--monitor-port",
    monitor_default: "int | None" = None,
) -> None:
    """Register the live telemetry plane options (run and monitor)."""
    parser.add_argument(monitor_flag, dest="monitor_port", type=int,
                        default=monitor_default, metavar="PORT",
                        help="serve OpenMetrics /metrics and JSON /healthz "
                             "on this port while the run executes "
                             "(0 = ephemeral port)")
    parser.add_argument("--monitor-host", default="127.0.0.1",
                        metavar="HOST",
                        help="bind address for the monitor endpoint "
                             "(default 127.0.0.1)")
    parser.add_argument("--snapshot-interval-ms", type=float, default=None,
                        metavar="MS",
                        help="journal a telemetry.snapshot (metrics) and "
                             "telemetry.resources (/proc RSS+CPU, worker "
                             "liveness) event every MS milliseconds "
                             "(needs --journal)")
    parser.add_argument("--slo", action="append", default=None,
                        metavar="SPEC",
                        help="declarative objective evaluated at end of "
                             "run, e.g. 'p99(synthesis.total_ms) < 50' or "
                             "'completion_probability == 1.0'; violations "
                             "exit 4 (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive droplet routing for MEDA biochips (DATE 2021 "
                    "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the bioassay suite").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="execute a bioassay on a sampled chip")
    _add_run_options(run)
    _add_telemetry_options(run)
    run.set_defaults(func=_cmd_run)

    from repro.obs.monitor import DEFAULT_PORT

    mon = sub.add_parser(
        "monitor",
        help="run a bioassay with the live telemetry endpoint always on",
    )
    _add_run_options(mon)
    _add_telemetry_options(
        mon, monitor_flag="--port", monitor_default=DEFAULT_PORT
    )
    mon.set_defaults(func=_cmd_run)

    rep = sub.add_parser(
        "report", help="summarize a run journal written by `run --journal`"
    )
    rep.add_argument("journal", help="path to the journal JSONL file")
    rep.add_argument("--json", action="store_true",
                     help="emit the summary as JSON (NaN-free) instead of "
                          "the terminal rendering")
    rep.add_argument("--slo", action="append", default=None, metavar="SPEC",
                     help="evaluate an objective against the journal's last "
                          "telemetry snapshot and derived run values; "
                          "violations exit 4 (repeatable)")
    rep.set_defaults(func=_cmd_report)

    srv = sub.add_parser(
        "serve",
        help="resident multi-assay server: shared engine + store, "
             "HTTP job API",
    )
    srv.add_argument("--port", type=int, default=DEFAULT_PORT,
                     help="HTTP port for the job API + /metrics "
                          "(0 = ephemeral)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--serve-workers", type=int, default=2, metavar="N",
                     help="concurrent assay worker threads (default 2)")
    srv.add_argument("--workers", type=_workers_arg, default=1,
                     help="shared synthesis engine worker processes "
                          "(1 = synchronous, 0 = one per core)")
    srv.add_argument("--prefetch", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="speculative prefetch on the shared engine")
    srv.add_argument("--strategy-cache", metavar="PATH", nargs="?",
                     const="auto", default=None,
                     help="shared persistent strategy store; with no PATH, "
                          "uses the default cache location")
    srv.add_argument("--engine-retries", type=int, default=2, metavar="N")
    srv.add_argument("--engine-deadline-ms", type=float, default=None,
                     metavar="MS")
    srv.add_argument("--drain-deadline", type=float, default=30.0,
                     metavar="S",
                     help="seconds SIGTERM/SIGINT waits for queued + "
                          "in-flight jobs before cancelling the backlog")
    srv.add_argument("--journal", metavar="PATH", default=None,
                     help="tee every journal record (all jobs, "
                          "job_id-tagged) to this JSONL file")
    srv.set_defaults(func=_cmd_serve)

    subm = sub.add_parser(
        "submit", help="submit one assay job to a running `repro serve`"
    )
    subm.add_argument("--url", default=f"http://127.0.0.1:{DEFAULT_PORT}",
                      help="serve endpoint base URL")
    subm.add_argument("--bioassay", default="covid-rat")
    subm.add_argument("--width", type=int, default=60)
    subm.add_argument("--height", type=int, default=30)
    subm.add_argument("--seed", type=int, default=0)
    subm.add_argument("--max-cycles", type=int, default=800)
    subm.add_argument("--tau-min", type=float, default=0.5)
    subm.add_argument("--tau-max", type=float, default=0.9)
    subm.add_argument("--c-min", type=float, default=200.0)
    subm.add_argument("--c-max", type=float, default=500.0)
    subm.add_argument("--priority", type=int, default=0,
                      help="higher runs sooner (default 0)")
    subm.add_argument("--wait", action="store_true",
                      help="poll until the job finishes; exit 1 on failure")
    subm.add_argument("--timeout", type=float, default=600.0, metavar="S",
                      help="submit/wait HTTP timeout (default 600)")
    subm.set_defaults(func=_cmd_submit)

    synth = sub.add_parser("synth", help="synthesize one routing job")
    synth.add_argument("--start", type=int, nargs=2, default=(3, 3),
                       metavar=("X", "Y"))
    synth.add_argument("--goal", type=int, nargs=2, default=(24, 10),
                       metavar=("X", "Y"))
    synth.add_argument("--droplet", type=int, default=4,
                       help="square droplet edge length")
    synth.add_argument("--width", type=int, default=30)
    synth.add_argument("--height", type=int, default=16)
    synth.add_argument("--dead-fraction", type=float, default=0.0,
                       help="fraction of microelectrodes to kill")
    synth.add_argument("--full-chip", action="store_true",
                       help="use the whole chip as hazard bounds")
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(func=_cmd_synth)

    deg = sub.add_parser("degradation",
                         help="print a degradation lifetime table")
    deg.add_argument("--tau", type=float, default=0.556)
    deg.add_argument("--c", type=float, default=822.7)
    deg.add_argument("--bits", type=int, default=2)
    deg.add_argument("--n-max", type=int, default=2000)
    deg.set_defaults(func=_cmd_degradation)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
