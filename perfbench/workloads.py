"""The two benchmark workloads, both on the paper's 60x30 chip.

Each workload is built from the workload seed alone, does a fixed amount
of work per run (so counts and simulated outcomes repeat exactly for a
seed), and exposes the same three steps: ``setup`` (warm-up, not timed),
``run`` (the timed phase, returning one :class:`Outcome` per attempted
assay and calling ``between`` after each one, outside its latency) and
``teardown``.  README.md records why each workload exists.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.bioassay import planner
from repro.bioassay.library import EVALUATION_BIOASSAYS
from repro.biochip.chip import MedaChip
from repro.biochip.simulator import MedaSimulator
from repro.core.baseline import AdaptiveRouter
from repro.core.scheduler import HybridScheduler

WIDTH, HEIGHT = 60, 30
MAX_CYCLES = 1500
ASSAYS = tuple(sorted(EVALUATION_BIOASSAYS))

#: Outcome kinds other than ``ok``.  Simulator failures keep the
#: simulator's own names; the rest are harness-side.
FAILURE_KINDS = ("max-cycles", "no-route", "unintended-merge", "exception",
                 "http", "job-failed")


@dataclass
class Outcome:
    assay: str
    ms: float
    kind: str  # "ok" or one of FAILURE_KINDS
    cycles: int = 0
    job: dict = field(default_factory=dict)  # serve: the final job document


def _idle() -> None:
    pass


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _stratified(rng: np.random.Generator, passes: int) -> list[str]:
    """``passes`` seeded permutations of the six assays, back to back, so
    every run sees the same assay mix whatever its seed."""
    return [str(name) for _ in range(passes) for name in rng.permutation(ASSAYS)]


def _solo_assay(name: str, chip: MedaChip, router: AdaptiveRouter,
                sim_seed: int, tracer=None) -> Outcome:
    """One assay the way ``repro run`` executes it; the latency runs from
    scheduler construction until ``run`` returns."""
    root = tracer.root(name) if tracer is not None else contextlib.nullcontext()
    with root:
        graph = planner.plan(EVALUATION_BIOASSAYS[name](), WIDTH, HEIGHT)
        started = time.perf_counter()
        try:
            scheduler = HybridScheduler(graph, router, WIDTH, HEIGHT)
            sim = MedaSimulator(chip, np.random.default_rng(sim_seed))
            result = sim.run(scheduler, max_cycles=MAX_CYCLES)
        except Exception:  # noqa: BLE001 - counted as a failure kind
            return Outcome(name, (time.perf_counter() - started) * 1e3,
                           "exception")
        ms = (time.perf_counter() - started) * 1e3
    return Outcome(name, ms, "ok" if result.success else str(result.failure),
                   result.cycles)


def _sample_chip(seed: int, **ranges) -> MedaChip:
    return MedaChip.sample(WIDTH, HEIGHT, np.random.default_rng(seed), **ranges)


class Lifetime:
    """Chips age through a fixed seeded assay sequence, each under one
    :class:`AdaptiveRouter` kept across its runs; every assay gets a new
    simulator stream.  Assays rotate over ``CHIPS`` chips, so one chip's
    luck in where its weak cells fall does not set the whole run's work,
    and a run still yields enough per-assay samples for a p90."""

    name = "lifetime"
    root = "assay"
    CHIPS = 5

    def __init__(self, seed: int, assays: int) -> None:
        rng = np.random.default_rng(seed)
        self.warm = list(zip(ASSAYS, _seeds(rng, len(ASSAYS))))
        order = _stratified(rng, assays // len(ASSAYS))
        rng = np.random.default_rng([seed, 1])
        self.chip_seeds = _seeds(rng, self.CHIPS)
        self.jobs = list(zip(order, _seeds(rng, len(order))))

    def setup(self) -> None:
        # One pass over the six assays, each on a fresh chip and router,
        # fills the process-level template and shape caches that every
        # later assay in a process reuses.
        for name, chip_seed in self.warm:
            _solo_assay(name, _sample_chip(chip_seed), AdaptiveRouter(),
                        chip_seed + 1)
        self.chips = [(_sample_chip(s), AdaptiveRouter()) for s in self.chip_seeds]

    def run(self, tracer=None, between=_idle) -> list[Outcome]:
        outcomes = []
        for i, (name, sim_seed) in enumerate(self.jobs):
            outcomes.append(_solo_assay(name, *self.chips[i % self.CHIPS],
                                        sim_seed, tracer))
            between()
        return outcomes

    def teardown(self) -> None:
        pass

    def check(self, outcomes: list[Outcome]) -> list[str]:
        return []


class ServeMix:
    """One closed-loop HTTP client against one in-process ServeService.

    About 75% of the jobs repeat one of six hot healthy-chip specs that
    setup already served, so every strategy they need is a store read.
    The rest run on aged chips (``c`` in 20..50) with unique seeds; their
    mid-run re-syntheses miss the store and write to it.  The aged jobs
    are spread evenly through a fixed seeded order, and the client waits
    for each job before it sends the next, so which store reads hit never
    depends on thread timing: the per-layer counts repeat exactly for a
    seed.  One client, not one per core, leaves the process idle between
    jobs, which is where the host-speed probe runs.

    The store is SQLite ``:memory:``: the benchmark may only write inside
    its checkout, and shared-disk fsync jitter would otherwise dominate
    the tail.
    """

    name = "serve-mix"
    root = "serve.execute_assay"
    AGED = {"c_min": 20.0, "c_max": 50.0}
    CHECKS = 4  # served jobs re-run through execute_assay after a run

    def __init__(self, seed: int, jobs: int) -> None:
        from repro.serve import AssaySpec

        rng = np.random.default_rng(seed)
        self.hot = [
            AssaySpec(bioassay=name, seed=s, max_cycles=MAX_CYCLES)
            for name, s in zip(ASSAYS, _seeds(rng, len(ASSAYS)))
        ]
        aged = jobs // 4
        hot_order = rng.permutation(
            np.arange(jobs - aged) % len(self.hot)).tolist()
        healthy = [self.hot[i] for i in hot_order]
        aged_seeds = sorted(set(_seeds(rng, aged * 2)) - {s.seed for s in self.hot})
        aged_seeds = rng.permutation(aged_seeds)[:aged].tolist()
        self.aged = [
            AssaySpec(bioassay=name, seed=int(s), max_cycles=MAX_CYCLES,
                      **self.AGED)
            for name, s in zip(_stratified(rng, -(-aged // len(ASSAYS))),
                               aged_seeds)
        ]
        # Send an aged job whenever the aged share done lags the hot one.
        self.jobs, h, a = [], 0, 0
        while h < len(healthy) or a < len(self.aged):
            if a < len(self.aged) and (a * len(healthy) <= h * len(self.aged)
                                       or h == len(healthy)):
                self.jobs.append(self.aged[a])
                a += 1
            else:
                self.jobs.append(healthy[h])
                h += 1
        self.check_rng = np.random.default_rng([seed, 2])

    def setup(self) -> None:
        from repro.serve import ServeClient, ServeService

        self.service = ServeService(
            port=0, serve_workers=2, engine_workers=1, store_path=":memory:",
            keep_traces=True,
        )
        self.service.start()
        self.client = ServeClient(self.service.url)
        for spec in self.hot:
            doc = self.client.wait(self.client.submit(spec), timeout=120.0)
            if doc["state"] != "done" or not doc["result"]["success"]:
                raise RuntimeError(f"hot spec {spec} did not complete: {doc}")

    def run(self, tracer=None, between=_idle) -> list[Outcome]:
        outcomes = []
        for spec in self.jobs:
            outcomes.append(_serve_job(self.client, spec, tracer))
            between()
        return outcomes

    def teardown(self) -> None:
        self.service.drain(deadline_s=30.0)

    def check(self, outcomes: list[Outcome]) -> list[str]:
        """Re-run a seeded sample of served specs (half aged, half hot)
        solo; results and trace frames must match what the service gave."""
        from repro.serve import execute_assay

        served = {}
        for o in outcomes:
            if o.job.get("state") == "done":
                served.setdefault(json.dumps(o.job["spec"], sort_keys=True), o.job)
        half = self.CHECKS // 2
        picks = [self.aged[i] for i in self.check_rng.choice(
            len(self.aged), size=min(half, len(self.aged)), replace=False)]
        picks += [self.hot[i] for i in self.check_rng.choice(
            len(self.hot), size=half, replace=False)]
        problems = []
        for spec in picks:
            doc = served.get(json.dumps(spec.to_dict(), sort_keys=True))
            if doc is None:
                problems.append(f"{spec}: no completed job to check")
                continue
            solo = execute_assay(spec)
            got, want = doc["result"], solo.to_result_dict()
            for key in ("success", "cycles", "resyntheses"):
                if got[key] != want[key]:
                    problems.append(f"{doc['id']}: served {key}={got[key]} "
                                    f"but solo {key}={want[key]}")
            trace = self.service.trace(doc["id"])
            if trace is None or trace.frames != solo.trace.frames:
                problems.append(f"{doc['id']}: served trace frames differ "
                                f"from the solo run")
        return problems


def _serve_job(client, spec, tracer) -> Outcome:
    from repro.serve import ServeError

    root = tracer.root(None) if tracer is not None else contextlib.nullcontext()
    started = time.perf_counter()
    doc: dict = {}
    try:
        with root as span:
            job_id = client.submit(spec)
            if span is not None:
                span.assay = job_id
            doc = client.wait(job_id, timeout=120.0)
    except ServeError:
        kind = "http"
    except Exception:  # noqa: BLE001 - counted as a failure kind
        kind = "exception"
    else:
        if doc["state"] != "done":
            kind = "job-failed"
        elif doc["result"]["success"]:
            kind = "ok"
        else:
            kind = str(doc["result"].get("failure"))
    ms = (time.perf_counter() - started) * 1e3
    result = doc.get("result", {})
    return Outcome(spec.bioassay, ms, kind, int(result.get("cycles", 0)), doc)


WORKLOADS = {w.name: w for w in (Lifetime, ServeMix)}
