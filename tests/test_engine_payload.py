"""Round-trip tests for the strategy store's row format (payloads and pickle).

The persistent store writes strategies as columnar payload dicts encoded
into binary rows.  Everything the scheduler consumes must survive that
trip exactly.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.routing_job import RoutingJob, zone
from repro.core.strategy import (
    RoutingStrategy,
    job_from_payload,
    job_to_payload,
    strategy_from_synthesis,
)
from repro.core.synthesis import SynthesisResult, synthesize
from repro.engine.store import decode_payload, encode_payload
from repro.geometry.rect import Rect
from repro.modelcheck.strategy import MemorylessStrategy

W, H = 30, 20


def job(start=Rect(2, 2, 5, 5), goal=Rect(20, 10, 23, 13)) -> RoutingJob:
    return RoutingJob(start, goal, zone(start, goal, W, H))


def full_health() -> np.ndarray:
    return np.full((W, H), 3)


def synthesized() -> SynthesisResult:
    return synthesize(job(), full_health())


class TestMemorylessStrategyPayload:
    def test_round_trip_preserves_decisions_and_values(self):
        policy = synthesized().strategy
        rebuilt = MemorylessStrategy.from_payload(policy.to_payload())
        assert rebuilt.decisions == policy.decisions
        assert rebuilt.values == policy.values
        assert rebuilt.initial_value == policy.initial_value

    def test_round_trip_survives_blob(self):
        """The store writes payloads as binary rows; Rect keys, label-string
        states and infinite values must all survive that form exactly."""
        policy = MemorylessStrategy(
            decisions={Rect(1, 1, 2, 2): "E1", "HAZARD": "hold"},
            values={Rect(1, 1, 2, 2): 3.25, "HAZARD": float("inf")},
            initial_value=3.25,
        )
        blob = encode_payload(policy.to_payload())
        rebuilt = MemorylessStrategy.from_payload(decode_payload(blob))
        assert rebuilt == policy
        assert list(rebuilt.values) == list(policy.values)
        assert rebuilt.values["HAZARD"] == float("inf")

    def test_unencodable_state_rejected(self):
        policy = MemorylessStrategy(
            decisions={(1, 2): "E1"}, values={(1, 2): 0.0}, initial_value=0.0
        )
        with pytest.raises(TypeError):
            policy.to_payload()


class TestJobPayload:
    def test_round_trip_with_obstacles(self):
        original = job().with_obstacles((Rect(8, 8, 9, 9), Rect(1, 1, 2, 2)))
        rebuilt = job_from_payload(job_to_payload(original))
        assert rebuilt == original
        assert rebuilt.key() == original.key()


class TestRoutingStrategyPayload:
    def test_round_trip(self):
        strategy = strategy_from_synthesis(job(), synthesized())
        rebuilt = RoutingStrategy.from_payload(strategy.to_payload())
        assert rebuilt.job == strategy.job
        assert rebuilt.policy == strategy.policy
        assert rebuilt.expected_cycles == strategy.expected_cycles
        assert rebuilt.action(strategy.job.start) == strategy.action(
            strategy.job.start
        )

    def test_pickle_round_trip(self):
        strategy = strategy_from_synthesis(job(), synthesized())
        rebuilt = pickle.loads(pickle.dumps(strategy))
        assert rebuilt == strategy
