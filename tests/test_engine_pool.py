"""Tests for the speculative synthesis engine (worker pool + router wiring).

The pool size can be overridden for CI matrix legs via the
``REPRO_TEST_WORKERS`` environment variable (default 2).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.engine.pool import _Speculation


def inject_inflight(engine, key, future=None):
    """Register a hand-made in-flight speculation (tests only)."""
    if len(key) == 2:  # (job key, fingerprint) shorthand: default tenant
        key = ("", *key)
    spec = _Speculation(
        future if future is not None else Future(), {}, time.monotonic()
    )
    engine._pending[key] = spec
    engine._by_job[key[:2]] = key
    return spec

from repro.bioassay.library import EVALUATION_BIOASSAYS
from repro.bioassay.planner import plan
from repro.biochip.chip import MedaChip
from repro.biochip.simulator import MedaSimulator
from repro.biochip.trace import ExecutionTrace
from repro.core.baseline import AdaptiveRouter
from repro.core.routing_job import RoutingJob, zone
from repro.core.scheduler import HybridScheduler
from repro.core.synthesis import synthesize
from repro.engine import StrategyStore, SynthesisEngine
from repro.geometry.rect import Rect

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

W, H = 30, 20


def job(start=Rect(2, 2, 5, 5), goal=Rect(20, 10, 23, 13)) -> RoutingJob:
    return RoutingJob(start, goal, zone(start, goal, W, H))


def full_health() -> np.ndarray:
    return np.full((W, H), 3)


def wait_for(engine: SynthesisEngine, the_job, health, timeout=60.0):
    """Wait for the in-flight work to finish, then consume it via take().

    take() itself cannot be used for polling: a pending-miss *discards*
    the speculation (the production caller immediately synthesizes
    synchronously, so a later completion could never be consumed).
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(s.future.done() for s in engine._pending.values()):
            return engine.take(the_job, health)
        time.sleep(0.05)
    pytest.fail("speculation never completed")


@pytest.fixture
def engine():
    eng = SynthesisEngine(workers=WORKERS)
    yield eng
    eng.close()


class TestEngineLifecycle:
    def test_workers_one_disables_pool(self):
        eng = SynthesisEngine(workers=1)
        assert not eng.pooled
        assert not eng.submit(job(), full_health())
        assert eng.take(job(), full_health()) == ("absent", None)
        eng.close()

    def test_close_counts_unconsumed_as_wasted(self):
        eng = SynthesisEngine(workers=WORKERS)
        assert eng.submit(job(), full_health())
        eng.close()
        assert eng.wasted == 1

    def test_store_facade_without_pool(self, tmp_path):
        store = StrategyStore(tmp_path / "s.sqlite")
        eng = SynthesisEngine(workers=1, store=store)
        from repro.core.strategy import strategy_from_synthesis

        strategy = strategy_from_synthesis(job(), synthesize(job(), full_health()))
        eng.store_put(job(), full_health(), strategy)
        assert eng.store_get(job(), full_health()) == strategy
        eng.close()
        assert not store.usable or store._conn is None


class TestSpeculation:
    def test_hit_matches_synchronous_synthesis(self, engine):
        assert engine.submit(job(), full_health())
        status, speculated = wait_for(engine, job(), full_health())
        assert status == "hit"
        direct = synthesize(job(), full_health())
        assert speculated.policy.decisions == direct.strategy.decisions
        assert speculated.expected_cycles == pytest.approx(
            direct.expected_cycles
        )

    def test_duplicate_submission_rejected_while_inflight(self, engine):
        assert engine.submit(job(), full_health())
        assert not engine.submit(job(), full_health())

    def test_pending_counts_as_miss_and_leaves_future(self, engine):
        """A speculation that has not completed when the strategy is needed
        is a miss: the caller falls back to synchronous synthesis."""
        key = (job().key(), b"fp")
        inject_inflight(engine, key)  # never completes
        status, strategy = engine.take(job(), full_health())
        # The manufactured fingerprint cannot match, so this reports stale;
        # a genuine in-flight future reports pending (exercised below).
        assert status in ("stale", "pending")
        assert strategy is None

    def test_inflight_pending_falls_back(self, engine):
        from repro.core.strategy import health_fingerprint

        key = (job().key(), health_fingerprint(full_health(), job().hazard))
        inject_inflight(engine, key)  # never completes
        status, strategy = engine.take(job(), full_health())
        assert (status, strategy) == ("pending", None)
        assert engine.misses == 1
        # The pending-miss discards the speculation (counted wasted) so the
        # job key is immediately free for fresh resubmission.
        assert engine.wasted == 1
        assert ("", job().key()) not in engine._by_job
        engine.close()
        assert engine.wasted == 1  # not double-counted at close

    def test_stale_fingerprint_discarded(self, engine):
        assert engine.submit(job(), full_health())
        degraded = full_health()
        degraded[10, 8] = 1  # inside the hazard zone
        status, strategy = engine.take(job(), degraded)
        assert (status, strategy) == ("stale", None)
        assert engine.stale == 1 and engine.wasted == 1
        # The slot is free again for a fresh speculation.
        assert engine.submit(job(), degraded)

    def test_no_plan_is_definitive_and_not_resubmitted(self, engine):
        walled = full_health()
        walled[12, :] = 0
        assert engine.submit(job(), walled)
        status, strategy = wait_for(engine, job(), walled)
        assert (status, strategy) == ("no-plan", None)
        assert not engine.submit(job(), walled)


class TestRouterIntegration:
    def test_prefetched_plan_skips_synchronous_synthesis(self, engine):
        router = AdaptiveRouter(engine=engine)
        assert router.prefetch(job(), full_health())
        # Wait for the worker without consuming the speculation, then plan:
        # the strategy must come from the speculation, not a synchronous
        # synthesis.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if all(s.future.done() for s in engine._pending.values()):
                break
            time.sleep(0.05)
        strategy = router.plan(job(), full_health())
        assert strategy is not None
        assert router.syntheses == 0  # served speculatively
        assert engine.hits == 1
        assert router.library.contains(job(), full_health())

    def test_prefetch_skips_library_hits(self, engine):
        router = AdaptiveRouter(engine=engine)
        router.plan(job(), full_health())  # synchronous, fills the library
        assert not router.prefetch(job(), full_health())

    def test_plan_falls_back_when_speculation_pending(self, engine):
        from repro.core.strategy import health_fingerprint

        router = AdaptiveRouter(engine=engine)
        key = (job().key(), health_fingerprint(full_health(), job().hazard))
        inject_inflight(engine, key)  # never completes
        strategy = router.plan(job(), full_health())
        assert strategy is not None
        assert router.syntheses == 1  # synchronous fallback
        assert engine.misses == 1


class TestWarmStartFromStore:
    def test_store_loaded_values_seed_resynthesis(self, tmp_path):
        """A strategy loaded from the persistent store must install its
        values as the job's warm-start seed, so the next resynthesis of the
        same job (changed health) is warm-seeded — and still converges to
        the synchronous answer."""
        from repro import perf
        from repro.core.strategy import strategy_from_synthesis

        path = tmp_path / "s.sqlite"
        with StrategyStore(path) as store:
            store.put(
                job(),
                full_health(),
                strategy_from_synthesis(job(), synthesize(job(), full_health())),
            )

        engine = SynthesisEngine(workers=1, store=StrategyStore(path))
        router = AdaptiveRouter(engine=engine)
        try:
            loaded = router.plan(job(), full_health())
            assert loaded is not None
            assert router.syntheses == 0  # came from the store
            assert router.library.warm_start(job()) is loaded.policy

            degraded = full_health()
            degraded[10, 8] = 1  # inside the zone: forces a resynthesis
            seeded_before = perf.get("synthesis.warm_seeded")
            warmed = router.plan(job(), degraded)
            assert perf.get("synthesis.warm_seeded") == seeded_before + 1
            assert warmed is not None
            direct = synthesize(job(), degraded)
            assert warmed.expected_cycles == pytest.approx(
                direct.expected_cycles, rel=1e-4
            )
        finally:
            engine.close()


class TestDeterminism:
    def test_pooled_prefetch_matches_serial_execution(self):
        """The determinism guard: speculation and presynthesis change
        latency only.  Serial and pooled+prefetch executions of the same
        bioassay and seeds must produce identical traces."""
        graph = plan(EVALUATION_BIOASSAYS["covid-rat"](), 40, 24)

        def execute(engine):
            chip = MedaChip.sample(
                40, 24, np.random.default_rng(11),
                tau_range=(0.80, 0.90), c_range=(400.0, 900.0),
            )
            router = AdaptiveRouter(engine=engine)
            scheduler = HybridScheduler(graph, router, 40, 24)
            trace = ExecutionTrace()
            sim = MedaSimulator(chip, np.random.default_rng(12), trace=trace)
            if engine is not None and engine.pooled:
                scheduler.presynthesize(chip.health())
            result = sim.run(scheduler, max_cycles=600)
            return result, trace

        serial_result, serial_trace = execute(None)
        engine = SynthesisEngine(workers=WORKERS)
        try:
            pooled_result, pooled_trace = execute(engine)
        finally:
            engine.close()

        assert pooled_result.success == serial_result.success
        assert pooled_result.cycles == serial_result.cycles
        assert pooled_result.resyntheses == serial_result.resyntheses
        assert len(pooled_trace.frames) == len(serial_trace.frames)
        for sf, pf in zip(serial_trace.frames, pooled_trace.frames):
            assert pf.cycle == sf.cycle
            assert pf.droplets == sf.droplets
            assert pf.moving == sf.moving
