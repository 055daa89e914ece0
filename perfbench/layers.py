"""Per-layer attribution for the benchmark: counter deltas and traced spans.

Two sources, kept apart on purpose:

* **Counts** come from deltas of the always-live ``repro.perf`` registry,
  taken around the timed phase of every run.  They are exact and repeat
  bit for bit for a given seed.
* **Times** come from a separate traced pass.  :class:`SpanTracer` wraps
  each layer's public entry points *where the caller looks them up* (the
  program's own source stays untouched), records one span per call —
  name, start, end, parent, assay id — on a per-thread stack, keeps the
  spans in memory, and folds them into per-layer self time afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import threading
import time
from dataclasses import dataclass

# -- counter deltas ---------------------------------------------------------

#: Registry counters read around every timed phase.
COUNTERS = (
    "fastmdp.builds", "fastmdp.template.hits",
    "synthesis.count",
    "vi.reward.iterations", "vi.probability.iterations",
    "vi.reward.warm_solves", "vi.reward.cold_solves",
    "vi.probability.warm_solves", "vi.probability.cold_solves",
    "vi.warm.rejected",
    "library.hits", "library.misses",
    "store.hits", "store.misses", "store.puts", "store.stale",
    "scheduler.cycles", "scheduler.resyntheses",
    "simulator.steps", "simulator.transport_attempts",
    "simulator.transport_failures",
    "serve.jobs.submitted", "serve.jobs.completed",
    "serve.jobs.failed", "serve.jobs.rejected",
)

#: Counters that depend on what the process-level template cache already
#: holds, so they differ between a first and a second pass in one process.
CACHE_STATE_COUNTERS = ("fastmdp.builds", "fastmdp.template.hits")


def clear_process_caches() -> None:
    """Empty the process-level build-template, shape-action and
    shared-context caches, so a set-up starts as in a fresh process."""
    from repro.core import fastmdp
    from repro.modelcheck import batch

    fastmdp.clear_build_template_cache()
    fastmdp.clear_shape_action_memo()
    batch.clear_context_cache()


def read_counters() -> dict[str, float]:
    from repro import perf

    return {name: perf.get(name) for name in COUNTERS}


def counter_delta(before: dict, after: dict) -> dict[str, int]:
    return {name: int(after[name] - before[name]) for name in COUNTERS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(delta: dict[str, int]) -> dict[str, float]:
    """The per-layer count metrics (``#`` in the README table)."""
    constructions = delta["fastmdp.template.hits"] + delta["fastmdp.builds"]
    warm = delta["vi.reward.warm_solves"] + delta["vi.probability.warm_solves"]
    cold = delta["vi.reward.cold_solves"] + delta["vi.probability.cold_solves"]
    lib = delta["library.hits"] + delta["library.misses"]
    store = delta["store.hits"] + delta["store.misses"]
    return {
        "core.fastmdp.builds": constructions,
        "core.fastmdp.template_hit_ratio": _ratio(
            delta["fastmdp.template.hits"], constructions),
        "modelcheck.vi_iterations": (
            delta["vi.reward.iterations"] + delta["vi.probability.iterations"]),
        "modelcheck.warm_solve_ratio": _ratio(warm, warm + cold),
        "modelcheck.warm_rejected": delta["vi.warm.rejected"],
        "core.synthesis.count": delta["synthesis.count"],
        "core.strategy.library_hit_ratio": _ratio(delta["library.hits"], lib),
        "engine.store_hit_ratio": _ratio(delta["store.hits"], store),
        "engine.store_puts": delta["store.puts"],
        "engine.store_stale": delta["store.stale"],
        "core.scheduler.cycles": delta["scheduler.cycles"],
        "core.scheduler.resyntheses": delta["scheduler.resyntheses"],
        "biochip.steps": delta["simulator.steps"],
        "biochip.transport_failure_ratio": _ratio(
            delta["simulator.transport_failures"],
            delta["simulator.transport_attempts"]),
        "serve.failed": delta["serve.jobs.failed"] + delta["serve.jobs.rejected"],
    }


# -- spans ------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into SpanTracer.spans, -1 for a root
    assay: object


#: (module path, attribute, span name).  Each attribute is patched on the
#: object the *caller* resolves it from: ``core.synthesis`` imports the
#: builder, the extractor and the solvers by name, and the simulator
#: imports ``sample_outcome`` by name.
WRAP_TARGETS = (
    ("repro.bioassay.planner", "plan", "planner.plan"),
    ("repro.core.routing_job:RJHelper", "decompose", "RJHelper.decompose"),
    ("repro.core.synthesis", "synthesize_with_field", "synthesize_with_field"),
    ("repro.core.synthesis", "build_routing_model_fast", "fastmdp.build"),
    ("repro.core.synthesis", "extract_fast_strategy", "fastmdp.extract"),
    ("repro.core.synthesis", "solve_reach_avoid_reward", "modelcheck.solve"),
    ("repro.core.synthesis", "solve_reach_avoid_probability",
     "modelcheck.solve"),
    ("repro.core.strategy:StrategyLibrary", "get", "StrategyLibrary.get"),
    ("repro.core.strategy:StrategyLibrary", "put", "StrategyLibrary.put"),
    ("repro.core.baseline:AdaptiveRouter", "plan", "AdaptiveRouter.plan"),
    ("repro.engine.store:StrategyStore", "get", "StrategyStore.get"),
    ("repro.engine.store:StrategyStore", "put", "StrategyStore.put"),
    ("repro.core.scheduler:HybridScheduler", "plan_cycle", "plan_cycle"),
    ("repro.biochip.simulator:MedaSimulator", "run", "MedaSimulator.run"),
    ("repro.biochip.simulator", "sample_outcome", "sample_outcome"),
    ("repro.biochip.chip:MedaChip", "health", "MedaChip.health"),
    ("repro.serve.client:ServeClient", "submit", "ServeClient.submit"),
    ("repro.serve.client:ServeClient", "wait", "ServeClient.wait"),
    # The serve worker's per-job root: gives server-side spans the job id.
    ("repro.serve.scheduler", "execute_assay", "serve.execute_assay"),
)

#: Wrappers that never fire on a solo workload (the store and serve
#: bypass); every other wrapper must fire at least once in a traced pass.
SERVE_ONLY = frozenset({
    "StrategyStore.get", "StrategyStore.put",
    "ServeClient.submit", "ServeClient.wait", "serve.execute_assay",
})

#: Span name -> the layer its self time is charged to.  ``biochip`` takes
#: the simulator loop plus chip health and outcome sampling.
LAYER_OF = {
    "planner.plan": "bioassay.plan_ms",
    "RJHelper.decompose": "core.routing_job.decompose_ms",
    "fastmdp.build": "core.fastmdp.build_ms",
    "fastmdp.extract": "core.fastmdp.extract_ms",
    "modelcheck.solve": "modelcheck.solve_ms",
    "synthesize_with_field": "core.synthesis.self_ms",
    "StrategyLibrary.get": "core.strategy.library_ms",
    "StrategyLibrary.put": "core.strategy.library_ms",
    "StrategyStore.get": "engine.store_get_ms",
    "StrategyStore.put": "engine.store_put_ms",
    "plan_cycle": "core.scheduler.cycle_self_ms",
    "MedaSimulator.run": "biochip.step_ms",
    "sample_outcome": "biochip.step_ms",
    "MedaChip.health": "biochip.step_ms",
}


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


class SpanTracer:
    """In-memory span recorder with per-thread stacks (see module doc)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.replan_ns: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, assay: object = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if assay is None and parent >= 0:
            assay = self.spans[parent].assay
        span = Span(name, time.perf_counter_ns(), 0, parent, assay)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
            self.calls[name] = self.calls.get(name, 0) + 1
        stack.append(index)
        return index

    def _close(self, index: int) -> int:
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        self._stack().pop()
        return span.end - span.start

    @contextlib.contextmanager
    def root(self, assay: object):
        """The benchmark's own per-assay root span; yields the span so a
        serve client can set its ``assay`` once the job id is known."""
        index = self._open("assay", assay)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    # -- patching -------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        if name == "AdaptiveRouter.plan":
            @functools.wraps(fn)
            def plan(router, job, health):
                # A replan: the job was solved before and this health is new.
                replan = (router.library.warm_start(job) is not None
                          and not router.library.contains(job, health))
                index = tracer._open(name)
                try:
                    return fn(router, job, health)
                finally:
                    took = tracer._close(index)
                    if replan:
                        tracer.replan_ns.append(took)
            return plan
        if name == "serve.execute_assay":
            @functools.wraps(fn)
            def execute(spec, engine=None):
                index = tracer._open(name, getattr(engine, "name", None))
                try:
                    return fn(spec, engine=engine)
                finally:
                    tracer._close(index)
            return execute

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)
        return wrapper

    def install(self) -> None:
        for target, attr, name in WRAP_TARGETS:
            owner = _resolve(target)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans out, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start, s.end, s.parent,
                                      s.assay]) + "\n")

    # -- folding --------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per-span self time: duration minus what its children cover."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.end - span.start
        return own

    def layer_metrics(self, assays: int, root: str) -> dict[str, float]:
        """Self time per layer in ms per assay, plus medians per call.

        ``root`` names the spans whose uncovered share is reported as
        ``trace.unattributed_frac``: the benchmark's own ``assay`` span on
        solo workloads, the server-side ``serve.execute_assay`` span when
        serving (a client's ``assay`` span covers only submit and wait,
        since the job itself runs on a serve worker thread).
        """
        own = self.self_times()
        totals = {metric: 0 for metric in LAYER_OF.values()}
        build, solve = [], []
        root_total = root_own = 0
        for span, self_ns in zip(self.spans, own):
            if span.name in LAYER_OF:
                totals[LAYER_OF[span.name]] += self_ns
            if span.name == "fastmdp.build":
                build.append(span.end - span.start)
            elif span.name == "modelcheck.solve":
                solve.append(span.end - span.start)
            if span.name == root and span.parent < 0:
                root_total += span.end - span.start
                root_own += self_ns
        per_assay = 1e-6 / max(assays, 1)
        metrics = {metric: ns * per_assay for metric, ns in totals.items()}
        metrics["core.fastmdp.build_ms_p50"] = _median_ms(build)
        metrics["modelcheck.solve_ms_p50"] = _median_ms(solve)
        metrics["core.baseline.replan_ms_p50"] = _median_ms(self.replan_ns)
        metrics["trace.unattributed_frac"] = _ratio(root_own, root_total)
        return metrics


def _median_ms(samples: list[int]) -> float:
    return statistics.median(samples) * 1e-6 if samples else 0.0
