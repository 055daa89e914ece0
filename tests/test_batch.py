"""Tests for the build's force window.

They pin the property the cold-result memo rests on: a build reads only
its job's window, so equal window bytes give a bit-identical model.
"""

from __future__ import annotations

import numpy as np

from repro.core.fastmdp import (
    build_routing_model_fast,
    clear_build_template_cache,
)
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import force_field_from_health
from repro.geometry.rect import Rect
from tests.oracles import window_token

W, H = 24, 18
JOB = RoutingJob(
    Rect(2, 2, 4, 4), Rect(W - 5, H - 5, W - 3, H - 3), Rect(1, 1, W, H)
)


def _health(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    health = rng.integers(1, 4, size=(W, H))
    health[0:6, 0:6] = 3
    health[W - 7 :, H - 7 :] = 3
    return health


class TestDedupToken:
    def test_token_requires_recorded_template(self):
        job = JOB
        forces = force_field_from_health(_health(1)).forces
        clear_build_template_cache()
        assert window_token(job, forces) is None
        build_routing_model_fast(job, forces)
        token = window_token(job, forces)
        assert isinstance(token, bytes)
        assert window_token(job, forces) == token

    def test_out_of_window_change_preserves_token_and_model(self):
        # A job fenced to the upper-left region never reads forces near
        # the opposite corner; the token (and the built model) must not
        # depend on them.
        job = RoutingJob(
            Rect(2, 2, 4, 4), Rect(8, 8, 10, 10), Rect(1, 1, 14, 14)
        )
        clear_build_template_cache()
        forces = force_field_from_health(_health(1)).forces
        base = build_routing_model_fast(job, forces)
        token = window_token(job, forces)
        perturbed = forces.copy()
        perturbed[W - 1, H - 1] *= 0.5  # far outside the job's window
        assert window_token(job, perturbed) == token
        other = build_routing_model_fast(job, perturbed)
        assert (
            base.compiled.transitions != other.compiled.transitions
        ).nnz == 0

    def test_in_window_change_flips_token(self):
        job = JOB
        clear_build_template_cache()
        forces = force_field_from_health(_health(1)).forces
        build_routing_model_fast(job, forces)
        token = window_token(job, forces)
        perturbed = forces.copy()
        perturbed[W // 2, H // 2] *= 0.5  # inside the full-chip hazard
        assert window_token(job, perturbed) != token
