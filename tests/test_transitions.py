"""Tests for the probabilistic outcome kernels (Sec. V-B, Example 3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import ACTIONS, ALL_ACTIONS
from repro.core.transitions import (
    MatrixForceField,
    UniformForceField,
    leg_probability,
    outcome_distribution,
    sample_outcome,
)
from repro.geometry.rect import Rect

DELTA = Rect(3, 2, 7, 5)


def example3_field() -> MatrixForceField:
    """The Fig. 10 scenario: explicit frontier forces for a_NE on DELTA.

    Example 3 lists the *degradation-like* values that are averaged
    directly: D(8, 3:6) = (0.6, 0.5, 0.8, 0.9) and
    D(4:8, 6) = (0.9, 0.4, 0.9, 0.7, 0.9).  We inject them as forces.
    """
    forces = np.ones((12, 10))
    for j, v in zip(range(3, 7), (0.6, 0.5, 0.8, 0.9)):
        forces[8 - 1, j - 1] = v
    for i, v in zip(range(4, 9), (0.9, 0.4, 0.9, 0.7, 0.9)):
        forces[i - 1, 6 - 1] = v
    return MatrixForceField(forces)


class TestForceFields:
    def test_matrix_field_lookup_one_based(self):
        forces = np.zeros((4, 3))
        forces[0, 0] = 0.5
        field = MatrixForceField(forces)
        assert field.force(1, 1) == 0.5

    def test_matrix_field_zero_off_chip(self):
        field = MatrixForceField(np.ones((4, 3)))
        assert field.force(0, 1) == 0.0
        assert field.force(5, 1) == 0.0
        assert field.force(2, 4) == 0.0

    def test_matrix_field_validates_range(self):
        with pytest.raises(ValueError):
            MatrixForceField(np.full((2, 2), 1.5))

    def test_uniform_field(self):
        field = UniformForceField(10, 8, value=0.7)
        assert field.force(5, 5) == 0.7
        assert field.force(11, 5) == 0.0


class TestExample3:
    """Example 3: p(NE) = 0.76 * 0.7 = 0.532, p(N) = 0.168, p(E) = 0.228."""

    def test_leg_probabilities(self):
        field = example3_field()
        a = ACTIONS["a_NE"]
        assert leg_probability(DELTA, a, "N", field) == pytest.approx(0.76)
        assert leg_probability(DELTA, a, "E", field) == pytest.approx(0.70)

    def test_outcome_probabilities(self):
        field = example3_field()
        dist = {o.event: o.probability
                for o in outcome_distribution(DELTA, ACTIONS["a_NE"], field)}
        assert dist["NE"] == pytest.approx(0.532)
        assert dist["N"] == pytest.approx(0.76 * 0.3)   # 0.228
        assert dist["E"] == pytest.approx(0.24 * 0.7)   # 0.168
        assert dist["eps"] == pytest.approx(0.24 * 0.3)

    def test_outcome_patterns(self):
        field = example3_field()
        by_event = {o.event: o.delta
                    for o in outcome_distribution(DELTA, ACTIONS["a_NE"], field)}
        assert by_event["NE"] == Rect(4, 3, 8, 6)
        assert by_event["N"] == Rect(3, 3, 7, 6)
        assert by_event["E"] == Rect(4, 2, 8, 5)
        assert by_event["eps"] == DELTA


class TestCardinal:
    def test_full_force_is_deterministic(self):
        field = UniformForceField(20, 20, 1.0)
        outcomes = outcome_distribution(DELTA, ACTIONS["a_N"], field)
        assert len(outcomes) == 1
        assert outcomes[0].event == "N"
        assert outcomes[0].probability == 1.0

    def test_partial_force_splits_probability(self):
        field = UniformForceField(20, 20, 0.6)
        dist = {o.event: o.probability
                for o in outcome_distribution(DELTA, ACTIONS["a_E"], field)}
        assert dist["E"] == pytest.approx(0.6)
        assert dist["eps"] == pytest.approx(0.4)

    def test_chip_edge_blocks_movement(self):
        # Droplet at the west edge: a_W's frontier is off-chip, p = 0.
        edge = Rect(1, 5, 3, 8)
        field = UniformForceField(20, 20, 1.0)
        outcomes = outcome_distribution(edge, ACTIONS["a_W"], field)
        assert len(outcomes) == 1
        assert outcomes[0].event == "eps"


class TestDouble:
    def test_double_step_conditioning(self):
        field = UniformForceField(20, 20, 0.8)
        dist = {o.event: o.probability
                for o in outcome_distribution(DELTA, ACTIONS["a_NN"], field)}
        assert dist["NN"] == pytest.approx(0.8 * 0.8)
        assert dist["N"] == pytest.approx(0.8 * 0.2)
        assert dist["eps"] == pytest.approx(0.2)

    def test_double_step_against_edge(self):
        # Second hop off-chip: the droplet can advance at most one step.
        near_top = Rect(5, 16, 8, 19)  # yb+1 = 20 on-chip, second hop off
        field = UniformForceField(20, 20, 1.0)
        dist = {o.event: o.probability
                for o in outcome_distribution(near_top, ACTIONS["a_NN"], field)}
        assert "NN" not in dist
        assert dist["N"] == pytest.approx(1.0)


class TestMorphs:
    def test_morph_success_probability_is_frontier_mean(self):
        field = UniformForceField(20, 20, 0.5)
        dist = {o.event: o.probability
                for o in outcome_distribution(DELTA, ACTIONS["a_vNE"], field)}
        assert dist["morph"] == pytest.approx(0.5)
        assert dist["eps"] == pytest.approx(0.5)

    def test_morph_outcome_shape(self):
        field = UniformForceField(20, 20, 1.0)
        outcomes = outcome_distribution(DELTA, ACTIONS["a_^NW"], field)
        assert outcomes[0].delta == Rect(3, 2, 6, 6)


class TestDistributionProperties:
    @given(
        st.sampled_from(list(ALL_ACTIONS)),
        st.integers(3, 12),
        st.integers(3, 12),
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_probabilities_sum_to_one(self, action, x, y, dw, dh, seed):
        rng = np.random.default_rng(seed)
        field = MatrixForceField(rng.uniform(0.0, 1.0, size=(20, 20)))
        delta = Rect(x, y, x + dw, y + dh)
        outcomes = outcome_distribution(delta, action, field)
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0)
        assert all(o.probability > 0 for o in outcomes)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_eps_outcome_preserves_pattern(self, seed):
        rng = np.random.default_rng(seed)
        field = MatrixForceField(rng.uniform(0.1, 0.9, size=(20, 20)))
        for action in ALL_ACTIONS:
            for outcome in outcome_distribution(DELTA, action, field):
                if outcome.event == "eps":
                    assert outcome.delta == DELTA


class TestSampling:
    def test_sampling_is_seed_deterministic(self):
        field = UniformForceField(20, 20, 0.5)
        a = ACTIONS["a_NE"]
        r1 = [sample_outcome(DELTA, a, field, np.random.default_rng(9)).event
              for _ in range(1)]
        r2 = [sample_outcome(DELTA, a, field, np.random.default_rng(9)).event
              for _ in range(1)]
        assert r1 == r2

    def test_sampling_frequencies_match_distribution(self):
        field = UniformForceField(20, 20, 0.7)
        rng = np.random.default_rng(1)
        events = [sample_outcome(DELTA, ACTIONS["a_N"], field, rng).event
                  for _ in range(3000)]
        freq = events.count("N") / len(events)
        assert freq == pytest.approx(0.7, abs=0.03)

    def test_single_draw_matches_generator_choice(self):
        # sample_outcome's draw replays Generator.choice's arithmetic in
        # scalar floats; the chosen indices and the generator state
        # afterwards must match choice's over seeded 1-4 outcome
        # distributions, skewed ones included.
        from repro.core.transitions import _draw

        gen = np.random.default_rng(2024)
        dists = []
        for _ in range(3000):
            k = int(gen.integers(1, 5))
            alpha = (1.0, 0.05)[int(gen.integers(0, 2))]
            probs = [float(p) for p in gen.dirichlet(np.full(k, alpha))]
            if all(p > 0.0 for p in probs) and abs(sum(probs) - 1.0) <= 1e-9:
                dists.append(probs)
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        for probs in dists:
            total = 0.0
            for p in probs:
                total += p
            for _ in range(3):
                got = _draw(probs, total, ours)
                p = np.array(probs)
                assert got == int(theirs.choice(len(probs), p=p / p.sum()))
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_single_draw_matches_choice_on_kernel_distributions(self):
        gen = np.random.default_rng(5)
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(300):
            field = MatrixForceField(gen.uniform(0.0, 1.0, (12, 10)) ** 2)
            action = ALL_ACTIONS[int(gen.integers(len(ALL_ACTIONS)))]
            outcomes = outcome_distribution(DELTA, action, field)
            p = np.array([o.probability for o in outcomes])
            want = outcomes[int(theirs.choice(len(outcomes), p=p / p.sum()))]
            assert sample_outcome(DELTA, action, field, ours) == want
        assert ours.bit_generator.state == theirs.bit_generator.state
