"""Tests for the per-RJ MDP induction (Sec. VI-C), on the explicit
builder kept as an oracle (``tests.oracles.build_routing_mdp``); the
fast builder is checked against it in ``tests/test_fastmdp.py``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.droplet import OFF_CHIP
from repro.core.fastmdp import HAZARD_STATE
from repro.core.routing_job import RoutingJob
from repro.core.transitions import UniformForceField
from repro.geometry.rect import Rect
from tests.oracles import build_routing_mdp


def field(w: int = 40, h: int = 40, v: float = 1.0) -> UniformForceField:
    return UniformForceField(w, h, v)


class TestStateSpace:
    def test_positions_plus_hazard_sink_square_droplet(self):
        """With r = 3/2 a square droplet cannot morph, so the state space is
        exactly the positions inside the zone plus the hazard sink — the
        structure behind the Table V model sizes."""
        job = RoutingJob(Rect(1, 1, 3, 3), Rect(8, 8, 10, 10), Rect(1, 1, 10, 10))
        model = build_routing_mdp(job, field(), max_aspect=1.5)
        positions = (10 - 3 + 1) ** 2  # 8x8 placements of a 3x3 droplet
        assert model.num_states == positions + 1  # + HAZARD sink

    def test_hazard_sink_labeled(self):
        job = RoutingJob(Rect(1, 1, 3, 3), Rect(8, 8, 10, 10), Rect(1, 1, 10, 10))
        model = build_routing_mdp(job, field(), max_aspect=1.5)
        hazard = model.mdp.label_set("hazard")
        assert hazard == {model.mdp.state_index[HAZARD_STATE]}

    def test_goal_states_absorbing_and_labeled(self):
        job = RoutingJob(Rect(1, 1, 3, 3), Rect(7, 7, 10, 10), Rect(1, 1, 10, 10))
        model = build_routing_mdp(job, field(), max_aspect=1.5)
        for idx in model.mdp.label_set("goal"):
            assert model.mdp.is_absorbing(idx)
            assert job.goal.contains(model.mdp.states[idx])

    def test_morphing_enlarges_state_space(self):
        job = RoutingJob(Rect(1, 1, 4, 4), Rect(8, 8, 11, 11), Rect(1, 1, 12, 12))
        rigid = build_routing_mdp(job, field(), max_aspect=1.5)
        morphing = build_routing_mdp(job, field(), max_aspect=2.0)
        assert morphing.num_states > rigid.num_states
        shapes = {
            (s.width, s.height)
            for s in morphing.mdp.states
            if isinstance(s, Rect)
        }
        assert (5, 3) in shapes and (3, 5) in shapes

    def test_model_size_decreases_with_droplet_size(self):
        """Table V row trend: bigger droplets, fewer placements.

        ``max_aspect = 4/3`` disables morphing for every square droplet in
        the 3x3..6x6 range, giving the pure positions-plus-sink structure
        of the paper's Table V model sizes.
        """
        sizes = []
        for d in (3, 4, 5, 6):
            job = RoutingJob(
                Rect(1, 1, d, d), Rect(11 - d, 11 - d, 10, 10), Rect(1, 1, 10, 10)
            )
            model = build_routing_mdp(job, field(), max_aspect=4 / 3)
            sizes.append(model.num_states)
        assert sizes == [65, 50, 37, 26]  # (10 - d + 1)^2 + 1 each

    def test_boundary_aspect_enables_5x5_morphing(self):
        """At exactly r = 3/2 the guard (h+1)/(w-1) <= r holds with equality
        for a 5x5 droplet, so morphing is enabled (the guards are
        non-strict, as in the paper's formulas)."""
        job = RoutingJob(Rect(1, 1, 5, 5), Rect(6, 6, 10, 10), Rect(1, 1, 10, 10))
        model = build_routing_mdp(job, field(), max_aspect=1.5)
        shapes = {
            (s.width, s.height) for s in model.mdp.states if isinstance(s, Rect)
        }
        assert (6, 4) in shapes and (4, 6) in shapes

    def test_dispense_job_rejected(self):
        job = RoutingJob(OFF_CHIP, Rect(3, 3, 5, 5), Rect(1, 1, 8, 8))
        with pytest.raises(ValueError):
            build_routing_mdp(job, field())


class TestTransitionsStructure:
    def test_every_choice_costs_one_cycle(self):
        job = RoutingJob(Rect(1, 1, 3, 3), Rect(6, 6, 8, 8), Rect(1, 1, 8, 8))
        model = build_routing_mdp(job, field(), max_aspect=1.5)
        for cs in model.mdp.choices:
            for c in cs:
                assert c.reward == 1.0

    def test_out_of_zone_moves_feed_hazard_sink(self):
        # Start near the zone's east edge with full force everywhere on a
        # much larger chip: moving east leaves the zone.
        job = RoutingJob(Rect(6, 3, 8, 5), Rect(2, 2, 4, 4), Rect(1, 1, 8, 8))
        model = build_routing_mdp(job, field(), max_aspect=1.5)
        idx = model.mdp.state_index[Rect(6, 3, 8, 5)]
        east = next(c for c in model.mdp.enabled(idx) if c.label == "a_E")
        hazard_idx = model.mdp.state_index[HAZARD_STATE]
        assert [t for t, _ in east.successors] == [hazard_idx]

    def test_chip_edge_yields_self_loop(self):
        # Zone touches the chip's west edge; a_W has no MCs to pull.
        job = RoutingJob(Rect(1, 3, 3, 5), Rect(6, 6, 8, 8), Rect(1, 1, 8, 8))
        model = build_routing_mdp(job, field(8, 8), max_aspect=1.5)
        idx = model.mdp.state_index[Rect(1, 3, 3, 5)]
        west = next(c for c in model.mdp.enabled(idx) if c.label == "a_W")
        assert [t for t, _ in west.successors] == [idx]

    def test_obstacle_states_feed_hazard_sink(self):
        obstacle = Rect(5, 1, 6, 8)
        job = RoutingJob(
            Rect(1, 3, 3, 5), Rect(1, 6, 3, 8), Rect(1, 1, 8, 8),
            obstacles=(obstacle,),
        )
        model = build_routing_mdp(job, field(), max_aspect=1.5)
        # No reachable state may touch the obstacle.
        for s in model.mdp.states:
            if isinstance(s, Rect) and s != job.start:
                assert not s.adjacent_or_overlapping(obstacle)

    def test_start_inside_goal_is_trivially_absorbing(self):
        job = RoutingJob(Rect(3, 3, 5, 5), Rect(2, 2, 6, 6), Rect(1, 1, 8, 8))
        model = build_routing_mdp(job, field(), max_aspect=1.5)
        assert model.mdp.initial in model.mdp.label_set("goal")
        assert model.num_states == 2  # start + hazard sink


class TestStatistics:
    def test_counts_are_consistent(self):
        job = RoutingJob(Rect(1, 1, 4, 4), Rect(7, 7, 10, 10), Rect(1, 1, 10, 10))
        model = build_routing_mdp(job, field(), max_aspect=2.0)
        assert model.num_choices == model.mdp.num_choices
        assert model.num_transitions >= model.num_choices
        assert model.num_states == model.mdp.num_states
