"""Round trips of the columnar strategy payload over seeded fast-path
syntheses.

A strategy travels as its columns: to worker processes and back (pickle)
and through the persistent store (one binary row).  Whatever the job
geometry, a strategy must come back with the same decisions, the
bit-identical value vector in the same state order and the same expected
cycles.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fastmdp import HAZARD_STATE
from repro.core.routing_job import RoutingJob, zone
from repro.core.strategy import RoutingStrategy, strategy_from_synthesis
from repro.core.synthesis import synthesize
from repro.engine.store import StrategyStore
from repro.geometry.rect import Rect

W, H = 24, 16


@st.composite
def solved(draw) -> "tuple[RoutingJob, np.ndarray, RoutingStrategy]":
    """A seeded fast-path synthesis: a 2x2 or 3x3 droplet anywhere on the
    chip (zones clipped at the chip edges), sometimes with an obstacle,
    sometimes starting inside its goal, on a randomly degraded chip."""
    size = draw(st.integers(2, 3))
    sx = draw(st.integers(1, W - size + 1))
    sy = draw(st.integers(1, H - size + 1))
    start = Rect(sx, sy, sx + size - 1, sy + size - 1)
    if draw(st.integers(0, 2)) == 0:
        goal = start.expanded(1).intersection(Rect(1, 1, W, H))
    else:
        gx = draw(st.integers(1, W - size - 1))
        gy = draw(st.integers(1, H - size - 1))
        goal = Rect(gx, gy, gx + size + 1, gy + size + 1)
    job = RoutingJob(start, goal, zone(start, goal, W, H))
    if draw(st.integers(0, 2)):
        ox = draw(st.integers(job.hazard.xa, job.hazard.xb))
        oy = draw(st.integers(job.hazard.ya, job.hazard.yb))
        obstacle = Rect(ox, oy, ox, oy)
        if not (obstacle.overlaps(start) or obstacle.overlaps(goal)):
            job = job.with_obstacles((obstacle,))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    health = rng.choice([1, 2, 3, 3, 3], size=(W, H))
    strategy = strategy_from_synthesis(job, synthesize(job, health))
    return job, health, strategy


def assert_same(rebuilt: RoutingStrategy, strategy: RoutingStrategy) -> None:
    assert rebuilt.job == strategy.job
    assert rebuilt.expected_cycles == strategy.expected_cycles
    assert rebuilt.policy.decisions == strategy.policy.decisions
    assert rebuilt.policy.initial_value == strategy.policy.initial_value
    assert list(rebuilt.policy.values) == list(strategy.policy.values)
    got = np.array(list(rebuilt.policy.values.values()))
    want = np.array(list(strategy.policy.values.values()))
    assert got.tobytes() == want.tobytes()  # bit-equal, inf included


SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@SETTINGS
@given(solved())
def test_store_round_trip(tmp_path_factory, case):
    job, health, strategy = case
    if strategy is None:
        return
    path = tmp_path_factory.mktemp("store") / "s.sqlite"
    with StrategyStore(path) as store:
        store.put(job, health, strategy)
    with StrategyStore(path) as fresh:  # cold memo: decoded from the row
        rebuilt = fresh.get(job, health)
        assert fresh.memo_misses == 1 and fresh.hits == 1
    assert_same(rebuilt, strategy)


@SETTINGS
@given(solved())
def test_pickle_round_trip(case):
    _, _, strategy = case
    if strategy is None:
        return
    assert_same(pickle.loads(pickle.dumps(strategy)), strategy)
    payload = pickle.loads(pickle.dumps(strategy.to_payload()))
    assert_same(RoutingStrategy.from_payload(payload), strategy)


def test_hazard_state_and_start_in_goal():
    """The hazard sink is a label state valued ``inf``; a start inside
    its goal gives a strategy with no decision at all."""
    start = Rect(5, 5, 6, 6)
    job = RoutingJob(start, Rect(4, 4, 7, 7), zone(start, start, W, H))
    health = np.full((W, H), 3)
    strategy = strategy_from_synthesis(job, synthesize(job, health))
    assert strategy is not None and len(strategy.policy) == 0
    assert strategy.policy.values[HAZARD_STATE] == float("inf")
    payload = strategy.to_payload()
    assert payload["label_states"] == [[0, HAZARD_STATE]]
    assert (payload["codes"] == -1).all()
    assert_same(RoutingStrategy.from_payload(payload), strategy)
