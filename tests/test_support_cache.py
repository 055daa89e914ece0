"""Contract tests for the support-keyed template cache (DESIGN.md §9).

Chips age differently, so one routing job sees a different support (the
set of outcomes with positive probability) on each chip.  The cache keeps
one entry per job geometry and, inside it, every retained support's
template with the solver contexts solved on it.  Each test alternates the
health of several chips for one job whose hazard bounds run past the
chip edge and hold an obstacle, and checks:

* every build equals a build after ``clear_build_template_cache()``,
  field by field, and counts exactly one of ``fastmdp.template.hits`` and
  ``fastmdp.builds``; a support seen before is a hit;
* a retained context equals a fresh ``build_context`` (and a retained
  qualitative context a fresh ``precompute.qualitative``), array for
  array;
* the cache never holds more supports than its bound, and a geometry
  leaves with its last support;
* threads building concurrently against a small bound agree.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro import perf
from repro.core import fastmdp
from repro.core.fastmdp import (
    build_routing_model_fast,
    clear_build_template_cache,
)
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import force_field_from_health
from repro.geometry.rect import Rect
from repro.modelcheck import batch, precompute
from repro.modelcheck.compiled import (
    solve_reach_avoid_probability,
    solve_reach_avoid_reward,
)
from tests.oracles import window_token
from tests.test_build_template import _entry, _fresh, assert_same_model

W, H = 24, 18

#: Hazard bounds past every chip edge, an obstacle mid-chip.
JOB = RoutingJob(
    Rect(1, 1, 2, 2), Rect(W - 2, H - 2, W - 1, H - 1),
    Rect(0, 0, W + 1, H + 1), (Rect(11, 8, 12, 10),),
)
#: A second geometry: the start and goal swapped.
OTHER = RoutingJob(
    Rect(W - 2, H - 2, W - 1, H - 1), Rect(1, 1, 2, 2),
    Rect(0, 0, W + 1, H + 1), (Rect(11, 8, 12, 10),),
)


def _chip(seed: int, steps: int = 4) -> list[np.ndarray]:
    """One chip's health through its life: wear that keeps cells alive,
    and on even steps a dead 2x2 block (whole frontiers die, so the
    support changes).  Each seed kills different blocks."""
    rng = np.random.default_rng(seed)
    health = rng.integers(2, 4, size=(W, H))
    out = [health.copy()]
    for step in range(1, steps + 1):
        wear = rng.random((W, H)) < 0.2
        health = np.where(wear & (health > 1), health - 1, health)
        if step % 2 == 0:
            x, y = int(rng.integers(3, W - 5)), int(rng.integers(3, H - 5))
            health[x:x + 2, y:y + 2] = 0
        out.append(health.copy())
    return out


def _alternating(seeds=(1, 2, 3), repeats: int = 2) -> list[np.ndarray]:
    """The chips' force fields interleaved step by step, each chip's life
    played ``repeats`` times, as a router serving several chips sees it."""
    lives = [[force_field_from_health(h).forces for h in _chip(seed)]
             for seed in seeds]
    return [life[step] for _ in range(repeats)
            for step in range(len(lives[0])) for life in lives]


def _support_key(job, forces) -> bytes:
    geo = fastmdp._record_geometry(job, forces.shape,
                                   fastmdp.DEFAULT_MAX_ASPECT, None)
    return np.packbits(fastmdp._values(geo, forces) > 0.0).tobytes()


def _counts() -> tuple[int, int]:
    return perf.get("fastmdp.template.hits"), perf.get("fastmdp.builds")


def _assert_invariants() -> None:
    """The LRU and the geometry entries list the same supports, no entry
    is empty, and the size gauge is the number of supports."""
    with fastmdp._TEMPLATE_LOCK:
        held = {(key, support)
                for key, entry in fastmdp._GEOMETRIES.items()
                for support in entry.supports}
        assert held == set(fastmdp._SUPPORT_LRU)
        assert all(entry.supports for entry in fastmdp._GEOMETRIES.values())
        assert len(held) <= fastmdp._SUPPORT_CACHE_MAX
        assert perf.get("fastmdp.template.size") == len(held)


def _assert_same(a, b, path: str = "") -> None:
    """Field-by-field equality of two contexts: arrays by dtype, shape and
    value, dataclasses and tuples member by member."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), path
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert np.array_equal(a, b), path
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name),
                         f"{path}.{f.name}")
    elif isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{path}[{i}]")
    else:
        assert a == b, path


@pytest.fixture(autouse=True)
def _cold_cache():
    clear_build_template_cache()
    yield
    clear_build_template_cache()


class TestAlternatingChips:
    def test_chips_give_the_job_different_supports(self):
        supports = {_support_key(JOB, forces) for forces in _alternating()}
        assert len(supports) >= 4

    def test_every_build_equals_a_fresh_build(self):
        seen: set[bytes] = set()
        paths = []
        misses = 0
        for forces in _alternating():
            support = _support_key(JOB, forces)
            hits, builds = _counts()
            before = perf.get("fastmdp.template.misses")
            model = build_routing_model_fast(JOB, forces)
            misses += perf.get("fastmdp.template.misses") - before
            d_hits, d_builds = _counts()[0] - hits, _counts()[1] - builds
            assert (d_hits, d_builds) in ((1, 0), (0, 1))
            # Far below the bound, so every support seen is retained.
            assert d_hits == (support in seen)
            seen.add(support)
            paths.append("hit" if d_hits else "build")
            assert_same_model(model, _fresh(JOB, forces, {}))
            _assert_invariants()
        assert len(_entry(JOB, forces, {}).supports) == len(seen)
        assert misses == 1  # the geometry is recorded once
        # The second life replays every support the first one recorded.
        assert "build" not in paths[len(paths) // 2:]

    def test_revisited_support_is_a_hit(self):
        a, b = (force_field_from_health(_chip(seed)[2]).forces
                for seed in (1, 2))
        assert _support_key(JOB, a) != _support_key(JOB, b)
        perf.reset()
        first = [build_routing_model_fast(JOB, f) for f in (a, b)]
        assert perf.get("fastmdp.builds") == 2
        assert perf.get("fastmdp.template.misses") == 1
        assert perf.get("fastmdp.template.rebuilds") == 1
        again = [build_routing_model_fast(JOB, f) for f in (a, b)]
        assert perf.get("fastmdp.template.hits") == 2
        assert perf.get("fastmdp.builds") == 2
        # A replay shares its template's columns and context slot.
        for old, new in zip(first, again):
            assert new.columns is old.columns
            assert new.compiled.contexts is old.compiled.contexts
        assert first[0].columns is not first[1].columns


class TestContexts:
    def test_retained_context_equals_a_fresh_build(self):
        for forces in _alternating(repeats=1):
            cm = build_routing_model_fast(JOB, forces).compiled
            solve_reach_avoid_reward(cm)
            solve_reach_avoid_probability(cm, maximize=True)
            reward = cm.contexts[("reward", "goal", "hazard")]
            _assert_same(reward, batch.build_context(cm, "goal", "hazard"))
            qual = cm.contexts[("qualitative", "goal", "hazard", True)]
            _assert_same(qual, precompute.qualitative(
                cm, cm.label_mask("goal"), cm.label_mask("hazard"), True
            ))
            assert cm.contexts is build_routing_model_fast(
                JOB, forces
            ).compiled.contexts

    def test_replays_hit_the_slot(self):
        forces = _alternating()[0]
        solve_reach_avoid_reward(build_routing_model_fast(JOB, forces).compiled)
        perf.reset()
        solve_reach_avoid_reward(build_routing_model_fast(JOB, forces).compiled)
        assert perf.get("vi.batch.precompute.hits") == 1
        assert perf.get("vi.batch.precompute.misses") == 0

    def test_equal_structure_shares_a_slot_across_geometries(self):
        # A job and its translation on a healthy chip: two geometries, one
        # model structure, so one set of contexts.
        job = RoutingJob(Rect(3, 3, 4, 4), Rect(9, 7, 10, 8),
                         Rect(2, 2, 11, 9))
        moved = RoutingJob(Rect(9, 7, 10, 8), Rect(15, 11, 16, 12),
                           Rect(8, 6, 17, 13))
        forces = np.ones((W, H))
        a = build_routing_model_fast(job, forces).compiled
        solve_reach_avoid_reward(a)
        perf.reset()
        b = build_routing_model_fast(moved, forces).compiled
        assert perf.get("fastmdp.template.misses") == 1
        assert fastmdp.structural_key(a) == fastmdp.structural_key(b)
        assert b.contexts is a.contexts
        solve_reach_avoid_reward(b)
        assert perf.get("vi.batch.precompute.hits") == 1
        assert perf.get("vi.batch.precompute.misses") == 0

    def test_clear_context_cache_keeps_the_templates(self):
        forces = _alternating()[0]
        cm = build_routing_model_fast(JOB, forces).compiled
        solve_reach_avoid_reward(cm)
        assert cm.contexts
        batch.clear_context_cache()
        assert not cm.contexts
        perf.reset()
        build_routing_model_fast(JOB, forces)
        assert perf.get("fastmdp.template.hits") == 1


class TestBound:
    def test_size_never_exceeds_the_bound(self, monkeypatch):
        monkeypatch.setattr(fastmdp, "_SUPPORT_CACHE_MAX", 3)
        for forces in _alternating():
            for job in (JOB, OTHER):
                model = build_routing_model_fast(job, forces)
                _assert_invariants()
                assert_same_model(model, _fresh(job, forces, {}))
        assert perf.get("fastmdp.template.size") == 3

    def test_a_geometry_leaves_with_its_last_support(self, monkeypatch):
        monkeypatch.setattr(fastmdp, "_SUPPORT_CACHE_MAX", 3)
        a, b = (force_field_from_health(_chip(seed)[2]).forces
                for seed in (1, 2))
        build_routing_model_fast(JOB, a)
        build_routing_model_fast(JOB, b)
        build_routing_model_fast(OTHER, a)
        assert len(_entry(JOB, a, {}).supports) == 2
        build_routing_model_fast(OTHER, b)  # evicts JOB's older support
        assert len(_entry(JOB, a, {}).supports) == 1
        assert window_token(JOB, a) is not None
        build_routing_model_fast(OTHER, np.ones((W, H)))  # and its last
        assert _entry(JOB, a, {}) is None
        assert window_token(JOB, a) is None
        assert len(_entry(OTHER, a, {}).supports) == 3
        _assert_invariants()
        perf.reset()
        build_routing_model_fast(JOB, a)  # the geometry is recorded again
        assert perf.get("fastmdp.template.misses") == 1

    def test_a_cold_hit_refreshes_the_geometry(self, monkeypatch):
        monkeypatch.setattr(fastmdp, "_SUPPORT_CACHE_MAX", 2)
        a = force_field_from_health(_chip(1)[2]).forces
        build_routing_model_fast(JOB, a)
        fastmdp.remember_cold_result(JOB, a, ("q",), "result")
        build_routing_model_fast(OTHER, a)
        assert fastmdp.cold_result(JOB, a, ("q",)) == "result"
        build_routing_model_fast(OTHER, np.ones((W, H)))  # evicts OTHER's
        assert _entry(JOB, a, {}) is not None
        assert len(_entry(OTHER, a, {}).supports) == 1


class TestThreaded:
    def test_concurrent_builds_agree(self, monkeypatch):
        monkeypatch.setattr(fastmdp, "_SUPPORT_CACHE_MAX", 3)
        fields = _alternating(repeats=1)
        cases = [(job, f) for f in fields for job in (JOB, OTHER)]
        expected = [_fresh(job, f, {}) for job, f in cases]
        clear_build_template_cache()
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def worker(offset: int) -> None:
            try:
                barrier.wait(timeout=60)
                for i in range(len(cases)):
                    j = (i * (offset + 1) + offset) % len(cases)
                    job, forces = cases[j]
                    model = build_routing_model_fast(job, forces)
                    assert_same_model(model, expected[j])
                    solve_reach_avoid_reward(model.compiled)
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        # A short switch interval makes the threads interleave inside the
        # cache's lookups, publishes and evictions.
        interval_before = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval_before)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        _assert_invariants()
