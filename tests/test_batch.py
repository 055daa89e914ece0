"""Tests for the batched solver kernel and the build's force window.

The contract under test is *bit-identity*: every result a multi-model
``solve_reach_avoid_reward_batch`` call produces — values, decisions,
certified bounds — must equal, bit for bit, what the solo
``solve_reach_avoid_reward`` returns for the same model.  The force-window
tests pin the property the cold-result memo rests on: a build reads only
its job's window, so equal window bytes give a bit-identical model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fastmdp import (
    build_routing_model_fast,
    clear_build_template_cache,
)
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import force_field_from_health
from repro.geometry.rect import Rect
from repro.modelcheck.batch import (
    clear_context_cache,
    solve_reach_avoid_reward_batch,
    structural_key,
)
from repro.modelcheck.compiled import solve_reach_avoid_reward
from tests.oracles import window_token

W, H = 24, 18
FULL = Rect(1, 1, W, H)


def _jobs() -> list[RoutingJob]:
    return [
        RoutingJob(Rect(2, 2, 4, 4), Rect(W - 5, H - 5, W - 3, H - 3), FULL),
        RoutingJob(Rect(W - 4, 2, W - 2, 4), Rect(3, H - 4, 5, H - 2), FULL),
        RoutingJob(Rect(2, 8, 4, 10), Rect(W - 4, 8, W - 2, 10),
                   Rect(1, 5, W, 14)),
    ]


def _health(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    health = rng.integers(1, 4, size=(W, H))
    health[0:6, 0:6] = 3
    health[W - 7 :, H - 7 :] = 3
    return health


class TestKernelBucketing:
    def test_mixed_shape_bucket_raises(self):
        forces = force_field_from_health(_health(2)).forces
        jobs = _jobs()
        a = build_routing_model_fast(jobs[0], forces).compiled
        b = build_routing_model_fast(jobs[2], forces).compiled
        assert structural_key(a) != structural_key(b)
        with pytest.raises(ValueError, match="single shape bucket"):
            solve_reach_avoid_reward_batch([a, b])

    def test_kernel_results_bit_identical_to_solo(self):
        # Same job geometry under different force matrices: one shape
        # bucket, distinct numerics, solved in one stacked pass.
        job = _jobs()[0]
        models = []
        for seed in (2, 4, 6):
            clear_build_template_cache()
            forces = force_field_from_health(_health(seed)).forces
            models.append(build_routing_model_fast(job, forces).compiled)
        assert len({structural_key(cm) for cm in models}) == 1
        batched = solve_reach_avoid_reward_batch(models)
        for cm, rb in zip(models, batched):
            # Reference: each model alone against a cold context memo.
            clear_context_cache()
            rs = solve_reach_avoid_reward(cm)
            assert np.array_equal(rb.values, rs.values)
            assert np.array_equal(rb.choice, rs.choice)
            assert rb.certified and rs.certified
            assert np.array_equal(rb.lower, rs.lower)
            assert np.array_equal(rb.upper, rs.upper)
            assert rb.iterations == rs.iterations


class TestDedupToken:
    def test_token_requires_recorded_template(self):
        job = _jobs()[0]
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
        job = _jobs()[0]
        clear_build_template_cache()
        forces = force_field_from_health(_health(1)).forces
        build_routing_model_fast(job, forces)
        token = window_token(job, forces)
        perturbed = forces.copy()
        perturbed[W // 2, H // 2] *= 0.5  # inside the full-chip hazard
        assert window_token(job, perturbed) != token
