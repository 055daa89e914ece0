"""Tests for strategy synthesis (Algorithm 2) and the router classes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import AdaptiveRouter, BaselineRouter, OracleRouter
from repro.core.fastmdp import clear_build_template_cache
from repro.core.routing_job import RoutingJob, zone
from repro.core.strategy import StrategyLibrary, health_fingerprint
from repro.core.synthesis import (
    force_field_from_degradation,
    force_field_from_health,
    synthesize,
    synthesize_with_field,
    baseline_field,
)
from repro.geometry.rect import Rect
from repro.modelcheck.properties import probability_query

W, H = 30, 20


def job(start=Rect(2, 2, 5, 5), goal=Rect(20, 10, 23, 13)) -> RoutingJob:
    from repro.core.routing_job import zone

    return RoutingJob(start, goal, zone(start, goal, W, H))


def full_health() -> np.ndarray:
    return np.full((W, H), 3)


class TestForceFields:
    def test_health_field_squares_estimate(self):
        h = np.full((4, 4), 3)
        f = force_field_from_health(h)
        assert f.force(1, 1) == pytest.approx(0.875**2)

    def test_health_zero_is_zero_force(self):
        h = np.zeros((4, 4), dtype=int)
        f = force_field_from_health(h)
        assert f.force(2, 2) == 0.0

    def test_pessimistic_field_lower(self):
        h = np.full((4, 4), 2)
        mid = force_field_from_health(h)
        pess = force_field_from_health(h, pessimistic=True)
        assert pess.force(1, 1) < mid.force(1, 1)

    def test_degradation_field(self):
        d = np.full((4, 4), 0.8)
        f = force_field_from_degradation(d)
        assert f.force(1, 1) == pytest.approx(0.64)


class TestSynthesize:
    def test_full_health_reaches_goal_in_manhattan_optimal_cycles(self):
        """With unit force, Rmin = the shortest path over the action set;
        ordinal moves cover one step in each axis per cycle and double
        steps two in one axis, so the bound is max(dx, dy) adjusted for
        doubles."""
        result = synthesize_with_field(job(), baseline_field(W, H))
        assert result.exists
        # dx = 18, dy = 8 for this job; with doubles along x (w=4): the
        # droplet can do better than max = 18.
        assert result.expected_cycles <= 18
        assert result.expected_cycles >= 9  # dx/2, the absolute floor

    def test_full_health_estimate_costs_more_than_unit_force(self):
        """The controller's quantized estimate of full health is 0.875, so
        expected cycles exceed the unit-force shortest path — the price of
        the 2-bit sensor's resolution."""
        estimated = synthesize(job(), full_health()).expected_cycles
        ideal = synthesize_with_field(job(), baseline_field(W, H)).expected_cycles
        assert estimated > ideal

    def test_rigid_full_health_no_doubles_matches_chebyshev(self):
        start, goal = Rect(2, 2, 4, 4), Rect(12, 8, 14, 10)  # 3x3: no doubles
        result = synthesize_with_field(
            RoutingJob(start, goal, Rect(1, 1, 20, 14)), baseline_field(W, H),
            max_aspect=1.5,
        )
        # dx = 10, dy = 6 -> Chebyshev distance 10 with ordinal moves.
        assert result.expected_cycles == pytest.approx(10.0, abs=1e-4)

    def test_degraded_cells_slow_the_route(self):
        health = full_health()
        healthy = synthesize(job(), health).expected_cycles
        health[:, :] = 1  # heavy uniform degradation
        degraded = synthesize(job(), health).expected_cycles
        assert degraded > healthy * 2

    def test_route_avoids_dead_wall_through_gap(self):
        """A dead wall with one gap: the strategy must thread the gap."""
        health = full_health()
        health[12, :] = 0  # dead column x = 13
        health[12, 8:12] = 3  # gap at y = 9..12
        result = synthesize(job(), health)
        assert result.exists
        assert np.isfinite(result.expected_cycles)
        # Walk the strategy's prescribed route greedily (intended moves) and
        # check it passes through the gap rows.
        from repro.core.actions import ACTIONS, apply_action

        delta = job().start
        for _ in range(100):
            if job().goal.contains(delta):
                break
            action = result.strategy.action(delta)
            assert action is not None
            delta = apply_action(delta, ACTIONS[action])
        else:
            pytest.fail("strategy never reached the goal")
        # success: the greedy walk terminated at the goal despite the wall

    def test_complete_dead_wall_means_no_strategy(self):
        health = full_health()
        health[12, :] = 0  # impassable wall between start and goal
        result = synthesize(job(), health)
        assert not result.exists
        assert result.expected_cycles == float("inf")

    def test_probability_query(self):
        result = synthesize(job(), full_health(), query=probability_query())
        assert result.success_probability == pytest.approx(1.0)
        assert result.exists

    def test_probability_query_zero_when_walled(self):
        health = full_health()
        health[12, :] = 0
        result = synthesize(job(), health, query=probability_query())
        assert result.success_probability == pytest.approx(0.0)
        assert not result.exists

    def test_times_reported(self):
        clear_build_template_cache()
        result = synthesize(job(), full_health())
        assert result.construction_time > 0
        assert result.solve_time > 0
        assert result.total_time == pytest.approx(
            result.construction_time + result.solve_time
        )

    def test_start_inside_goal_keeps_strategy(self):
        """Regression: the usability guard must not discard a strategy when
        the start already satisfies the goal (no action is prescribed there,
        which is fine — there is nothing left to do)."""
        start = Rect(10, 8, 13, 11)
        goal = Rect(9, 7, 14, 12)  # contains the start
        result = synthesize(
            RoutingJob(start, goal, zone(start, goal, W, H)), full_health()
        )
        assert result.exists
        assert result.expected_cycles == pytest.approx(0.0)

    def test_no_plan_with_missing_strategy_does_not_raise(self):
        """Regression: when synthesis finds no plan the guard used to
        dereference ``strategy.action`` without a None check; the walled
        job must come back as a clean (None, inf) result."""
        health = full_health()
        health[12, :] = 0
        result = synthesize(job(), health)  # must not raise
        assert result.strategy is None
        assert result.expected_cycles == float("inf")

    def test_dispense_rejected(self):
        from repro.core.droplet import OFF_CHIP

        bad = RoutingJob(OFF_CHIP, Rect(3, 3, 6, 6), Rect(1, 1, 9, 9))
        with pytest.raises(ValueError):
            synthesize(bad, full_health())


class TestRouters:
    def test_baseline_ignores_health(self):
        router = BaselineRouter(W, H)
        healthy = router.plan(job(), full_health())
        degraded_health = full_health()
        degraded_health[:, :] = 1
        degraded = router.plan(job(), degraded_health)
        assert healthy is degraded  # cached, never resynthesized
        assert router.syntheses == 1

    def test_baseline_matches_uniform_field_synthesis(self):
        router = BaselineRouter(W, H)
        strategy = router.plan(job(), full_health())
        direct = synthesize_with_field(job(), baseline_field(W, H))
        assert strategy.expected_cycles == pytest.approx(direct.expected_cycles)

    def test_adaptive_caches_by_zone_health(self):
        router = AdaptiveRouter()
        router.plan(job(), full_health())
        router.plan(job(), full_health())
        assert router.syntheses == 1
        assert router.library.hits == 1

    def test_adaptive_resynthesizes_on_zone_change(self):
        router = AdaptiveRouter()
        router.plan(job(), full_health())
        changed = full_health()
        changed[10, 8] = 1  # inside the zone
        router.plan(job(), changed)
        assert router.syntheses == 2

    def test_adaptive_ignores_out_of_zone_change(self):
        router = AdaptiveRouter()
        router.plan(job(), full_health())
        changed = full_health()
        changed[0, 19] = 0  # outside the job's hazard zone
        router.plan(job(), changed)
        assert router.syntheses == 1

    def test_oracle_router_plans_from_true_degradation(self):
        router = OracleRouter()
        d = np.ones((W, H))
        strategy = router.plan(job(), d)
        assert strategy is not None


class TestLibrary:
    def test_fingerprint_only_reads_zone(self):
        h = full_health()
        zone_rect = Rect(2, 2, 10, 10)
        fp1 = health_fingerprint(h, zone_rect)
        h2 = h.copy()
        h2[20, 15] = 0  # outside
        assert health_fingerprint(h2, zone_rect) == fp1
        h3 = h.copy()
        h3[5, 5] = 0  # inside
        assert health_fingerprint(h3, zone_rect) != fp1

    def test_put_get_round_trip(self):
        lib = StrategyLibrary()
        router = AdaptiveRouter(library=lib)
        strategy = router.plan(job(), full_health())
        assert lib.get(job(), full_health()) is strategy
        assert len(lib) == 1
