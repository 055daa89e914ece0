"""Contract tests for the template-held cold-result memo.

Each job geometry in the template cache keeps one slot: the last cold
``SynthesisResult`` solved for it, keyed by the bytes of the force window the
build reads plus the query and epsilon.  A cold synthesis is a pure
function of that key, so a hit must equal a fresh build and solve.  The
tests pin what a hit returns, who may read and write the slot, and how
it is emptied.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import obs, perf
from repro.core import fastmdp
from repro.core.fastmdp import clear_build_template_cache
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import (
    BatchRequest,
    clear_batch_value_memo,
    force_field_from_health,
    synthesize_batch,
    synthesize_with_field,
)
from repro.core.transitions import MatrixForceField
from repro.geometry.rect import Rect
from repro.modelcheck.properties import probability_query
from repro.obs.journal import RunJournal

W, H = 24, 18
FULL = Rect(1, 1, W, H)
JOB = RoutingJob(Rect(2, 2, 4, 4), Rect(W - 5, H - 5, W - 3, H - 3), FULL)


def _field(seed: int):
    rng = np.random.default_rng(seed)
    health = rng.integers(1, 4, size=(W, H))
    health[0:6, 0:6] = 3
    health[W - 7 :, H - 7 :] = 3
    return force_field_from_health(health)


def _slot(job: RoutingJob = JOB):
    """The raw slot of the job's geometry (None when empty)."""
    key = fastmdp._geometry_key(
        job, np.zeros((W, H)), fastmdp.DEFAULT_MAX_ASPECT, None
    )
    with fastmdp._TEMPLATE_LOCK:
        entry = fastmdp._GEOMETRIES.get(key)
    return None if entry is None else entry.cold


def _assert_same_answer(a, b) -> None:
    # nan (the probability query's "no cycle figure") must match nan
    assert np.array_equal(a.expected_cycles, b.expected_cycles,
                          equal_nan=True)
    assert a.success_probability == b.success_probability
    assert (a.strategy is None) == (b.strategy is None)
    if a.strategy is not None:
        assert a.strategy.decisions == b.strategy.decisions
        assert a.strategy.values == b.strategy.values


class TestHit:
    def test_hit_equals_fresh_cold_solve(self):
        for seed in (1, 2):
            field = _field(seed)
            clear_build_template_cache()
            synthesize_with_field(JOB, field)
            perf.reset()
            hit = synthesize_with_field(JOB, field)
            assert perf.get("synthesis.memo.hits") == 1
            clear_build_template_cache()
            fresh = synthesize_with_field(JOB, field)
            assert fresh.model is not None
            _assert_same_answer(hit, fresh)

    def test_probability_query_hit_equals_fresh_solve(self):
        field = _field(3)
        query = probability_query()
        clear_build_template_cache()
        fresh = synthesize_with_field(JOB, field, query=query)
        hit = synthesize_with_field(JOB, field, query=query)
        assert hit.model is None
        _assert_same_answer(hit, fresh)

    def test_hit_is_slim_and_skips_build_and_solve(self):
        field = _field(4)
        clear_build_template_cache()
        miss = synthesize_with_field(JOB, field)
        assert miss.model is not None
        assert miss.construction_time > 0 and miss.solve_time > 0
        perf.reset()
        hit = synthesize_with_field(JOB, field)
        assert hit.model is None
        assert hit.construction_time == 0.0
        assert hit.solve_time == 0.0
        snap = perf.snapshot()
        assert snap.get("synthesis.count", 0) == 0
        assert snap.get("fastmdp.template.hits", 0) == 0
        assert snap.get("vi.reward.cold_solves", 0) == 0
        assert snap["synthesis.memo.hits"] == 1

    def test_other_query_or_epsilon_misses(self):
        field = _field(5)
        clear_build_template_cache()
        synthesize_with_field(JOB, field)
        perf.reset()
        synthesize_with_field(JOB, field, epsilon=1e-5)
        synthesize_with_field(JOB, field, query=probability_query())
        assert perf.get("synthesis.memo.hits") == 0
        assert perf.get("synthesis.memo.misses") == 2

    def test_hit_journals_its_job(self):
        field = _field(6)
        clear_build_template_cache()
        synthesize_with_field(JOB, field)
        journal = RunJournal()
        obs.configure(journal=journal)
        try:
            synthesize_with_field(JOB, field)
        finally:
            obs.shutdown()
        events = [r for r in journal.records if r["event"] == "synthesis.memo"]
        assert len(events) == 1
        assert tuple(events[0]["job"]) == tuple(JOB.key())


class TestWarmRequests:
    def test_warm_request_does_not_read_the_slot(self):
        field = _field(7)
        clear_build_template_cache()
        cold = synthesize_with_field(JOB, field)
        perf.reset()
        warm = synthesize_with_field(
            JOB, field, warm_values=cold.strategy.values
        )
        assert warm.model is not None
        assert perf.get("synthesis.count") == 1
        assert perf.get("synthesis.memo.hits") == 0
        assert perf.get("synthesis.memo.misses") == 0

    def test_warm_request_does_not_write_the_slot(self):
        field = _field(8)
        seed = synthesize_with_field(JOB, _field(9)).strategy.values
        clear_build_template_cache()
        synthesize_with_field(JOB, field, warm_values=seed)
        assert _slot() is None
        perf.reset()
        synthesize_with_field(JOB, field)
        assert perf.get("synthesis.memo.misses") == 1
        assert perf.get("synthesis.count") == 1


class TestSlot:
    def test_new_window_replaces_the_slot(self):
        first, second = _field(10), _field(11)
        clear_build_template_cache()
        synthesize_with_field(JOB, first)
        held = _slot()
        synthesize_with_field(JOB, second)
        assert _slot() is not held
        perf.reset()
        synthesize_with_field(JOB, second)
        synthesize_with_field(JOB, first)
        assert perf.get("synthesis.memo.hits") == 1
        assert perf.get("synthesis.memo.misses") == 1

    def test_out_of_window_change_still_hits(self):
        job = RoutingJob(Rect(2, 2, 4, 4), Rect(8, 8, 10, 10),
                         Rect(1, 1, 14, 14))
        field = _field(12)
        clear_build_template_cache()
        first = synthesize_with_field(job, field)
        forces = field.forces.copy()
        forces[W - 1, H - 1] *= 0.5  # far outside the job's window
        perf.reset()
        again = synthesize_with_field(job, MatrixForceField(forces))
        assert perf.get("synthesis.memo.hits") == 1
        _assert_same_answer(again, first)

    def test_batch_value_memo_clear_keeps_templates(self):
        field = _field(13)
        clear_build_template_cache()
        synthesize_with_field(JOB, field)
        clear_batch_value_memo()
        assert _slot() is None
        perf.reset()
        synthesize_with_field(JOB, field)
        assert perf.get("synthesis.memo.misses") == 1
        assert perf.get("fastmdp.template.hits") == 1

    def test_template_clear_empties_the_slot(self):
        field = _field(14)
        clear_build_template_cache()
        synthesize_with_field(JOB, field)
        clear_build_template_cache()
        perf.reset()
        synthesize_with_field(JOB, field)
        assert perf.get("synthesis.memo.misses") == 1
        assert perf.get("fastmdp.template.misses") == 1

    def test_batch_and_solo_share_the_slot(self):
        field = _field(15)
        clear_build_template_cache()
        solo = synthesize_with_field(JOB, field)
        perf.reset()
        (batched,) = synthesize_batch([BatchRequest(JOB, field)])
        assert perf.get("vi.batch.memo.hits") == 1
        assert perf.get("synthesis.memo.hits") == 1
        assert perf.get("synthesis.count") == 0
        _assert_same_answer(batched, solo)
        other = _field(16)
        synthesize_batch([BatchRequest(JOB, other)])
        perf.reset()
        synthesize_with_field(JOB, other)
        assert perf.get("synthesis.memo.hits") == 1


class TestThreads:
    def test_threads_synthesizing_one_cold_job_agree(self):
        field = _field(17)
        clear_build_template_cache()
        expected = synthesize_with_field(JOB, field)
        clear_build_template_cache()
        results: list = []
        errors: list = []
        barrier = threading.Barrier(4)

        def work() -> None:
            try:
                barrier.wait()
                for _ in range(3):
                    results.append(synthesize_with_field(JOB, field))
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert len(results) == 12
        for result in results:
            _assert_same_answer(result, expected)
