"""Differential tests for the fastmdp build template (DESIGN.md §9).

A build is served by one of three paths: a *first build* records the job
geometry, a *replay* drops new values into the recorded CSR skeleton when
the support (which outcomes have positive probability) is a retained one,
and a *rebuild* re-emits the model over the same geometry when it is new.
The contract under test: whatever path served it, the model equals, field
by field, a build of the same inputs right after
``clear_build_template_cache()``; each build counts exactly one of
``fastmdp.template.hits`` and ``fastmdp.builds``; and a rebuild keeps the
geometry it was recorded with.

Health fields degrade step by step and kill whole blocks of cells, so
frontier legs die, outcome probabilities fall to exactly 0 and the
support changes while the sequence runs.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import perf
from repro.core import fastmdp
from repro.core.actions import ActionClass
from repro.core.fastmdp import (
    build_routing_model_fast,
    clear_build_template_cache,
    structural_key,
)
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import force_field_from_health
from repro.geometry.rect import Rect

W, H = 24, 18

#: name -> (job, build keyword arguments)
CASES = {
    "open": (
        RoutingJob(
            Rect(3, 3, 4, 4), Rect(17, 12, 18, 13), Rect(2, 2, 20, 15)
        ),
        {},
    ),
    "obstacles": (
        RoutingJob(
            Rect(3, 3, 5, 5), Rect(16, 11, 18, 13), Rect(1, 1, 21, 16),
            (Rect(10, 6, 11, 8), Rect(6, 12, 7, 13)),
        ),
        {},
    ),
    # The hazard bounds reach the chip edges (and past them, where the
    # frontier legs of edge patterns lie off-chip and read zero force).
    "chip_edge": (
        RoutingJob(
            Rect(1, 1, 2, 2), Rect(W - 1, H - 1, W, H),
            Rect(0, 0, W + 1, H + 1),
        ),
        {},
    ),
    "families": (
        RoutingJob(
            Rect(3, 3, 5, 5), Rect(15, 10, 17, 12), Rect(1, 1, 20, 16)
        ),
        {"families": (ActionClass.CARDINAL, ActionClass.ORDINAL)},
    ),
    "max_aspect": (
        RoutingJob(
            Rect(3, 3, 5, 4), Rect(14, 10, 16, 11), Rect(1, 1, 19, 15)
        ),
        {"max_aspect": 3.0},
    ),
    # The start lies inside the goal: no choices, no transitions.
    "no_transitions": (
        RoutingJob(
            Rect(5, 5, 6, 6), Rect(4, 4, 8, 8), Rect(2, 2, 12, 12)
        ),
        {},
    ),
}


def _healths(seed: int, steps: int = 8) -> list[np.ndarray]:
    """A degrading sequence.  Odd steps wear codes down but keep every
    live cell alive (the support holds); even steps also kill a 3x3 block
    (whole frontiers die, so the support changes)."""
    rng = np.random.default_rng(seed)
    health = rng.integers(2, 4, size=(W, H))
    out = [health.copy()]
    for step in range(1, steps + 1):
        wear = rng.random((W, H)) < 0.15
        health = np.where(wear & (health > 1), health - 1, health)
        if step % 2 == 0:
            x, y = int(rng.integers(0, W - 3)), int(rng.integers(0, H - 3))
            health[x:x + 3, y:y + 3] = 0
        out.append(health.copy())
    return out


def _entry(job, forces, kwargs):
    """The job geometry's cache entry, or None when none is retained."""
    key = fastmdp._geometry_key(
        job, forces, kwargs.get("max_aspect", fastmdp.DEFAULT_MAX_ASPECT),
        kwargs.get("families"),
    )
    with fastmdp._TEMPLATE_LOCK:
        return fastmdp._GEOMETRIES.get(key)


def _template(job, forces, kwargs):
    """The retained template a build of ``(job, forces)`` replays, or
    None."""
    entry = _entry(job, forces, kwargs)
    if entry is None:
        return None
    mask = fastmdp._values(entry.geometry, forces) > 0.0
    key = fastmdp._geometry_key(
        job, forces, kwargs.get("max_aspect", fastmdp.DEFAULT_MAX_ASPECT),
        kwargs.get("families"),
    )
    with fastmdp._TEMPLATE_LOCK:
        return fastmdp._SUPPORT_LRU.get((key, np.packbits(mask).tobytes()))


def _fresh(job, forces, kwargs):
    """A build from an empty template cache, which is then restored."""
    with fastmdp._TEMPLATE_LOCK:
        geometries = dict(fastmdp._GEOMETRIES)
        lru = list(fastmdp._SUPPORT_LRU.items())
    clear_build_template_cache()
    try:
        return build_routing_model_fast(job, forces, **kwargs)
    finally:
        with fastmdp._TEMPLATE_LOCK:
            fastmdp._GEOMETRIES.clear()
            fastmdp._GEOMETRIES.update(geometries)
            fastmdp._SUPPORT_LRU.clear()
            fastmdp._SUPPORT_LRU.update(lru)
            perf.set_gauge("fastmdp.template.size", len(lru))


def _assert_array(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert np.array_equal(a, b)


def assert_same_model(got, ref) -> None:
    assert got.job == ref.job
    assert got.states == ref.states
    assert got.choice_labels == ref.choice_labels
    a, b = got.compiled, ref.compiled
    assert (a.num_states, a.initial) == (b.num_states, b.initial)
    _assert_array(a.choice_state, b.choice_state)
    _assert_array(a.choice_reward, b.choice_reward)
    assert a.labels.keys() == b.labels.keys()
    for name in a.labels:
        _assert_array(a.labels[name], b.labels[name])
    ta, tb = a.transitions, b.transitions
    assert ta.shape == tb.shape
    assert ta.has_canonical_format and tb.has_canonical_format
    _assert_array(ta.data, tb.data)
    _assert_array(ta.indices, tb.indices)
    _assert_array(ta.indptr, tb.indptr)
    _assert_array(a.first_choice(), b.first_choice())
    assert structural_key(a) == structural_key(b)


def _counts() -> tuple[int, int]:
    return perf.get("fastmdp.template.hits"), perf.get("fastmdp.builds")


def _serve_sequence(job, kwargs, seed: int) -> list[str]:
    """Build ``job`` over a degrading sequence, checking every build;
    returns the path that served each one."""
    paths = []
    for health in _healths(seed):
        forces = force_field_from_health(health).forces
        entry = _entry(job, forces, kwargs)
        before = _template(job, forces, kwargs)
        hits, builds = _counts()
        model = build_routing_model_fast(job, forces, **kwargs)
        d_hits, d_builds = _counts()[0] - hits, _counts()[1] - builds
        assert (d_hits, d_builds) in ((1, 0), (0, 1))
        after = _template(job, forces, kwargs)
        assert after is not None
        if entry is None:
            paths.append("first")
        elif d_hits:
            paths.append("replay")
            assert after is before
        else:
            paths.append("rebuild")
            assert before is None
            assert _entry(job, forces, kwargs) is entry  # same geometry
            assert entry.cold is None
        assert_same_model(model, _fresh(job, forces, kwargs))
    return paths


@pytest.fixture(autouse=True)
def _cold_templates():
    clear_build_template_cache()
    yield
    clear_build_template_cache()


class TestTemplateServedEqualsFresh:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_path_equals_a_fresh_build(self, name, seed):
        job, kwargs = CASES[name]
        paths = _serve_sequence(job, kwargs, seed)
        assert paths[0] == "first"

    @pytest.mark.parametrize("name", ["open", "obstacles", "chip_edge"])
    def test_sequences_cover_replays_and_rebuilds(self, name):
        job, kwargs = CASES[name]
        paths = [p for seed in (1, 2, 3)
                 for p in _serve_sequence(job, kwargs, seed)[1:]]
        assert "replay" in paths and "rebuild" in paths

    def test_no_transitions_model(self):
        job, kwargs = CASES["no_transitions"]
        model = build_routing_model_fast(job, np.ones((W, H)), **kwargs)
        assert model.num_choices == 0
        assert model.num_transitions == 0
        assert model.compiled.labels["goal"][1]


class TestGeometry:
    def test_rebuild_keeps_the_geometry_and_drops_the_cold_slot(self):
        job, _ = CASES["open"]
        healthy = np.full((W, H), 3)
        forces = force_field_from_health(healthy).forces
        build_routing_model_fast(job, forces)
        first = _template(job, forces, {})
        entry = _entry(job, forces, {})
        geometry = entry.geometry
        entry.cold = (("window", "extra"), "result")
        dead = healthy.copy()
        dead[8:12, 6:10] = 0  # whole frontiers die: the support changes
        dead_forces = force_field_from_health(dead).forces
        perf.reset()
        build_routing_model_fast(job, dead_forces)
        assert perf.get("fastmdp.template.rebuilds") == 1
        second = _template(job, dead_forces, {})
        assert second is not first
        assert perf.get("fastmdp.template.misses") == 0
        assert _entry(job, forces, {}) is entry
        assert entry.geometry is geometry
        assert entry.cold is None
        # Both supports stay: the healthy field replays its own template.
        assert _template(job, forces, {}) is first

    def test_shape_tables_ride_the_shape_action_memo(self):
        fastmdp.clear_shape_action_memo()
        job, _ = CASES["open"]
        build_routing_model_fast(job, np.ones((W, H)))
        memo = list(fastmdp._SHAPE_ACTION_MEMO.values())
        shapes = _entry(job, np.ones((W, H)), {}).geometry.shapes
        assert shapes
        for sh in shapes:
            assert any(entry is sh.actions for entry in memo)
        specs = fastmdp.compiled_shape_actions(2, 2, 2.0)
        assert specs is shapes[0].actions.specs
        fastmdp.clear_shape_action_memo()
        assert not fastmdp._SHAPE_ACTION_MEMO


class TestThreaded:
    def test_concurrent_builds_equal_fresh_builds(self):
        job, kwargs = CASES["obstacles"]
        fields = [force_field_from_health(h).forces
                  for seed in (4, 5) for h in _healths(seed)]
        expected = [_fresh(job, f, kwargs) for f in fields]
        clear_build_template_cache()
        errors: list[BaseException] = []

        def worker(offset: int) -> None:
            try:
                for i in range(len(fields)):
                    j = (i + offset) % len(fields)
                    model = build_routing_model_fast(job, fields[j], **kwargs)
                    assert_same_model(model, expected[j])
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]
