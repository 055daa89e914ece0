"""Warm seeds and per-cycle lookups read a strategy's columns.

A resynthesis seeds value iteration from the job's last policy: its value
vector as it is when the new model was built on the same state columns,
otherwise joined state by state (Rect states by corners, label states by
name).  Either way the seed must equal, bit for bit, the per-state map
lookup it replaced (:func:`oracles.warm_seed_reference`), so warm solves
and the routes they give are unchanged.  A strategy's ``action`` reads
the columns' shared ``{state: index}`` map and the code column and must
agree with its ``decisions`` map; a warm re-synthesis and the scheduler's
lookups build neither ``decisions`` nor ``values``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.bioassay.library import EVALUATION_BIOASSAYS
from repro.bioassay.planner import plan
from repro.biochip.chip import MedaChip
from repro.biochip.simulator import MedaSimulator
from repro.core.baseline import AdaptiveRouter
from repro.core.fastmdp import (
    HAZARD_STATE,
    build_routing_model_fast,
    clear_build_template_cache,
    clear_cold_results,
)
from repro.core.routing_job import RoutingJob, zone
from repro.core.scheduler import HybridScheduler
from repro.core.synthesis import (
    SYNTHESIS_EPSILON,
    _warm_seed,
    force_field_from_health,
    synthesize,
)
from repro.geometry.rect import Rect
from repro.modelcheck.compiled import solve_reach_avoid_reward
from repro.modelcheck.properties import Objective, Query, ReachAvoid, reward_query
from repro.modelcheck.strategy import MemorylessStrategy
from tests.oracles import warm_seed_reference

W, H = 24, 16
START = Rect(2, 2, 4, 4)
GOAL = Rect(19, 11, 21, 13)
JOB = RoutingJob(START, GOAL, zone(START, GOAL, W, H))
FULL = np.full((W, H), 3)
RMIN = reward_query()
PMIN = Query(Objective.PMIN, ReachAvoid())
#: Valid rectangles no model on the chip can hold, plus label strings.
FOREIGN = (Rect(40, 40, 41, 41), Rect(1, 1, 1, 1), HAZARD_STATE, "nowhere")


def _patched(level: int) -> np.ndarray:
    """Full health with a 4x4 patch at ``level`` between start and goal:
    levels 1-2 keep every force positive (same support), level 0 zeroes
    the patch's force (the support changes)."""
    health = FULL.copy()
    health[8:12, 5:9] = level
    return health


def _model(job: RoutingJob, health: np.ndarray):
    return build_routing_model_fast(job, force_field_from_health(health).forces)


def _fill(query: Query) -> float:
    return 1.0 if query.objective is Objective.PMIN else 0.0


def assert_seed_is_reference(model, policy: MemorylessStrategy, query=RMIN):
    seed = _warm_seed(model, query, policy)
    want = warm_seed_reference(policy.values, model.states, _fill(query))
    assert seed.tobytes() == want.tobytes()  # bit-equal, inf included
    return seed


@pytest.fixture(autouse=True)
def fresh_templates():
    clear_build_template_cache()
    clear_cold_results()
    yield
    clear_build_template_cache()


class TestSeedAgainstOracle:
    def test_same_support_reuses_the_value_vector(self):
        policy = synthesize(JOB, FULL).strategy
        model = _model(JOB, _patched(2))
        assert model.columns is policy.columns
        before = perf.get("synthesis.warm_seed.reused")
        seed = assert_seed_is_reference(model, policy)
        assert perf.get("synthesis.warm_seed.reused") == before + 1
        assert seed is policy.value_vector

    def test_support_change_joins(self):
        policy = synthesize(JOB, FULL).strategy
        model = _model(JOB, _patched(0))
        assert model.columns is not policy.columns
        before = perf.get("synthesis.warm_seed.joined")
        for query in (RMIN, PMIN):
            assert_seed_is_reference(model, policy, query)
        assert perf.get("synthesis.warm_seed.joined") == before + 2

    def test_template_cache_cleared_between_solves_joins(self):
        policy = synthesize(JOB, FULL).strategy
        clear_build_template_cache()
        model = _model(JOB, FULL)
        assert model.columns is not policy.columns
        assert model.states == policy.columns.states
        seed = assert_seed_is_reference(model, policy)
        assert seed is not policy.value_vector

    def test_hazard_keeps_inf_and_absent_states_take_the_fill(self):
        # A policy over a narrow zone seeds a model over the whole chip:
        # patterns outside the narrow zone are absent from the policy.
        narrow = RoutingJob(START, GOAL, Rect(1, 1, 22, 14))
        wide = RoutingJob(START, GOAL, Rect(1, 1, W, H))
        policy = synthesize(narrow, FULL).strategy
        model = _model(wide, FULL)
        known = policy.values
        absent = [i for i, s in enumerate(model.states) if s not in known]
        assert absent
        assert known[HAZARD_STATE] == np.inf
        for query in (RMIN, PMIN):
            seed = assert_seed_is_reference(model, policy, query)
            assert (seed[absent] == _fill(query)).all()
            assert seed[model.states.index(HAZARD_STATE)] == np.inf

    @pytest.mark.parametrize("level", [2, 0])
    def test_warm_solve_equals_the_map_seeded_solve(self, level):
        policy = synthesize(JOB, FULL).strategy
        health = _patched(level)
        warm = synthesize(JOB, health, warm_values=policy).strategy
        model = _model(JOB, health)
        ref = solve_reach_avoid_reward(
            model.compiled, epsilon=SYNTHESIS_EPSILON,
            initial_values=warm_seed_reference(
                policy.values, model.states, 0.0
            ),
        )
        assert warm.value_vector.tobytes() == ref.values.tobytes()
        assert warm.initial_value == ref.values[model.compiled.initial]

    def test_map_warm_start_equals_the_policy(self):
        policy = synthesize(JOB, FULL).strategy
        health = _patched(0)
        by_policy = synthesize(JOB, health, warm_values=policy).strategy
        by_map = synthesize(JOB, health, warm_values=policy.values).strategy
        assert by_map.value_vector.tobytes() == by_policy.value_vector.tobytes()


@st.composite
def geometry(draw) -> RoutingJob:
    """A 2x2 or 3x3 droplet anywhere on the chip, zone clipped at the
    chip edges."""
    size = draw(st.integers(2, 3))
    sx = draw(st.integers(1, W - size + 1))
    sy = draw(st.integers(1, H - size + 1))
    gx = draw(st.integers(1, W - size - 1))
    gy = draw(st.integers(1, H - size - 1))
    start = Rect(sx, sy, sx + size - 1, sy + size - 1)
    goal = Rect(gx, gy, gx + size + 1, gy + size + 1)
    return RoutingJob(start, goal, zone(start, goal, W, H))


def _random_health(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.choice([0, 1, 2, 3, 3, 3, 3, 3], size=(W, H))


@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)
@given(geometry(), st.integers(0, 2**16), st.integers(0, 2**16),
       st.booleans())
def test_seed_equals_reference_under_random_health(job, first, second, clear):
    result = synthesize(job, _random_health(first))
    if result.strategy is None:
        return
    if clear:
        clear_build_template_cache()
    model = _model(job, _random_health(second))
    for query in (RMIN, PMIN):
        assert_seed_is_reference(model, result.strategy, query)


def _probe(policy: MemorylessStrategy) -> list:
    return list(policy.columns.states) + list(FOREIGN)


def _assert_action_agrees(policy: MemorylessStrategy) -> None:
    probe = _probe(policy)
    lazy = policy._decisions is None
    before = [policy.action(s) for s in probe]
    assert (policy._decisions is None) == lazy
    decisions = policy.decisions
    assert before == [decisions.get(s) for s in probe]
    assert [policy.action(s) for s in probe] == before
    assert len(policy) == len(decisions)


class TestActionLookup:
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.function_scoped_fixture],
    )
    @given(geometry(), st.integers(0, 2**16))
    def test_extracted_strategy(self, job, seed):
        policy = synthesize(job, _random_health(seed)).strategy
        if policy is None:
            return
        assert policy._decisions is None
        _assert_action_agrees(policy)

    def test_payload_strategy(self):
        policy = synthesize(JOB, _patched(1)).strategy
        rebuilt = MemorylessStrategy.from_payload(policy.to_payload())
        assert rebuilt._decisions is None
        _assert_action_agrees(rebuilt)
        assert rebuilt.decisions == policy.decisions

    def test_map_built_strategy_before_and_after_columns(self):
        source = synthesize(JOB, _patched(1)).strategy
        policy = MemorylessStrategy(
            dict(source.decisions), dict(source.values), source.initial_value
        )
        probe = _probe(source)
        from_maps = [policy.action(s) for s in probe]
        policy.to_payload()  # derives the columns; action reads them now
        assert policy._codes is not None
        assert [policy.action(s) for s in probe] == from_maps
        assert from_maps == [source.action(s) for s in probe]


class TestWarmPathBuildsNoMaps:
    def test_router_resynthesis_and_lookups(self):
        router = AdaptiveRouter(bits=2)
        first = router.plan(JOB, FULL)
        seeded = perf.get("synthesis.warm_seeded")
        warmed = [router.plan(JOB, _patched(level)) for level in (2, 0, 1)]
        assert perf.get("synthesis.warm_seeded") == seeded + 3
        for strategy in [first, *warmed]:
            for state in _probe(strategy.policy):
                strategy.action(state)
            strategy.covers(START)
        policies = [s.policy for s in router.library.entries.values()]
        policies += router.library.warm_policies.values()
        assert len(policies) == 5
        for policy in policies:
            assert policy._decisions is None and policy._values is None

    def test_scheduled_assay_on_an_aged_chip(self):
        width, height = 60, 30
        rng = np.random.default_rng(100)
        chip = MedaChip.sample(width, height, rng, tau_range=(0.5, 0.9),
                               c_range=(20.0, 50.0))
        router = AdaptiveRouter()
        scheduler = HybridScheduler(
            plan(EVALUATION_BIOASSAYS["cep"](), width, height),
            router, width, height,
        )
        seeded = perf.get("synthesis.warm_seeded")
        sim = MedaSimulator(chip, np.random.default_rng(101))
        sim.run(scheduler, max_cycles=1500)
        assert perf.get("synthesis.warm_seeded") > seeded
        library = router.library
        policies = [s.policy for s in library.entries.values()]
        policies += library.warm_policies.values()
        for policy in policies:
            assert policy._decisions is None and policy._values is None
