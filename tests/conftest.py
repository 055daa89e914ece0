"""Shared fixtures for the test suite + hypothesis profiles.

CI exports ``HYPOTHESIS_PROFILE=ci`` to derandomize property tests: a
fixed derivation seed makes every run draw the same examples (a red CI is
reproducible locally with the same profile), and ``print_blob=True`` puts
the ``@reproduce_failure`` blob straight into the failure output.  The
example database under ``.hypothesis/`` is uploaded as an artifact on
failure so shrunk counterexamples survive the ephemeral runner.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.biochip.chip import MedaChip
from repro.core.routing_job import RoutingJob
from repro.geometry.rect import Rect

settings.register_profile("default", print_blob=True)
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG; tests share the seed so failures reproduce."""
    return np.random.default_rng(12345)


@pytest.fixture
def full_health() -> np.ndarray:
    """A 60x30 health matrix at full health (b=2 -> level 3)."""
    return np.full((60, 30), 3)


@pytest.fixture
def small_job() -> RoutingJob:
    """A small 4x4-droplet routing job inside a 20x16 zone."""
    return RoutingJob(
        start=Rect(3, 3, 6, 6),
        goal=Rect(14, 10, 17, 13),
        hazard=Rect(1, 1, 20, 16),
    )


@pytest.fixture
def healthy_chip(rng: np.random.Generator) -> MedaChip:
    """A 30x20 chip with slow degradation (effectively healthy in tests)."""
    return MedaChip.sample(
        30, 20, rng, tau_range=(0.95, 0.99), c_range=(5000.0, 9000.0)
    )


@pytest.fixture
def store_closes(monkeypatch) -> list:
    """Every ``StrategyStore.close`` call, by store (the store still closes)."""
    from repro.engine.store import StrategyStore

    closed = []
    real_close = StrategyStore.close

    def close(store):
        closed.append(store)
        real_close(store)

    monkeypatch.setattr(StrategyStore, "close", close)
    return closed
