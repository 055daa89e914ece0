"""Tests for the explicit-state model checker (the PRISM-games substitute)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.modelcheck.compiled import (
    compile_mdp,
    solve_reach_avoid_probability,
    solve_reach_avoid_reward,
)
from repro.modelcheck.model import MDP, Choice
from repro.modelcheck.precompute import prob1e_mask
from repro.modelcheck.properties import (
    Objective,
    probability_query,
    reward_query,
)
from repro.modelcheck.strategy import extract_strategy
from tests.oracles import (
    prob1e,
    reach_avoid_probability,
    reach_avoid_reward,
    reachable_states,
)


def chain_mdp(p: float = 1.0) -> MDP:
    """s0 -> s1 -> goal with per-step success probability p (else stay)."""
    mdp = MDP()
    mdp.set_initial("s0")
    for src, dst in (("s0", "s1"), ("s1", "goal")):
        if p < 1.0:
            mdp.add_choice(src, "step", [(dst, p), (src, 1 - p)], reward=1.0)
        else:
            mdp.add_choice(src, "step", [(dst, 1.0)], reward=1.0)
    mdp.add_label("goal", "goal")
    return mdp


def risky_mdp() -> MDP:
    """A choice between a risky shortcut and a safe detour.

    s0 --shortcut--> goal (0.5) / trap (0.5)      reward 1
    s0 --detour----> a --> b --> goal (certain)   reward 3 total
    """
    mdp = MDP()
    mdp.set_initial("s0")
    mdp.add_choice("s0", "shortcut", [("goal", 0.5), ("trap", 0.5)], reward=1.0)
    mdp.add_choice("s0", "detour", [("a", 1.0)], reward=1.0)
    mdp.add_choice("a", "step", [("b", 1.0)], reward=1.0)
    mdp.add_choice("b", "step", [("goal", 1.0)], reward=1.0)
    mdp.add_label("goal", "goal")
    mdp.add_label("hazard", "trap")
    return mdp


class TestModel:
    def test_choice_distribution_validated(self):
        with pytest.raises(ValueError):
            Choice("a", ((0, 0.5), (1, 0.4)))

    def test_choice_rejects_nonpositive_probability(self):
        with pytest.raises(ValueError):
            Choice("a", ((0, 1.5), (1, -0.5)))

    def test_choice_rejects_negative_reward(self):
        with pytest.raises(ValueError):
            Choice("a", ((0, 1.0),), reward=-1.0)

    def test_stats(self):
        mdp = risky_mdp()
        assert mdp.num_states == 5
        assert mdp.num_choices == 4
        assert mdp.num_transitions == 5

    def test_absorbing_detection(self):
        mdp = chain_mdp()
        assert mdp.is_absorbing(mdp.state_index["goal"])
        assert not mdp.is_absorbing(mdp.state_index["s0"])

    def test_validate_requires_initial(self):
        mdp = MDP()
        mdp.add_choice("a", "x", [("a", 1.0)])
        with pytest.raises(ValueError):
            mdp.validate()

    def test_reachable_states(self):
        mdp = risky_mdp()
        assert reachable_states(mdp) == set(range(5))


class TestQueries:
    def test_query_strings(self):
        assert str(probability_query()) == "Pmax=? [ [] (!hazard) && <> goal ]"
        assert str(reward_query()) == "Rmin=? [ [] (!hazard) && <> goal ]"

    def test_objectives(self):
        assert probability_query().objective is Objective.PMAX
        assert reward_query().objective is Objective.RMIN


class TestReachability:
    def test_certain_chain(self):
        mdp = chain_mdp(1.0)
        res = reach_avoid_probability(mdp)
        assert res.values[mdp.initial] == pytest.approx(1.0)

    def test_retry_chain_reaches_almost_surely(self):
        mdp = chain_mdp(0.5)
        res = reach_avoid_probability(mdp, epsilon=1e-12)
        assert res.values[mdp.initial] == pytest.approx(1.0, abs=1e-6)

    def test_pmax_picks_safe_route(self):
        mdp = risky_mdp()
        res = reach_avoid_probability(mdp)
        assert res.values[mdp.initial] == pytest.approx(1.0)
        strategy = extract_strategy(mdp, res)
        assert strategy.action("s0") == "detour"

    def test_pmin_takes_worst_choice(self):
        mdp = risky_mdp()
        res = reach_avoid_probability(mdp, maximize=False)
        assert res.values[mdp.initial] == pytest.approx(0.5)

    def test_hazard_states_have_value_zero(self):
        mdp = risky_mdp()
        res = reach_avoid_probability(mdp)
        assert res.values[mdp.state_index["trap"]] == 0.0

    def test_overlapping_labels_rejected(self):
        mdp = chain_mdp()
        mdp.add_label("hazard", "goal")
        with pytest.raises(ValueError):
            reach_avoid_probability(mdp)


class TestProb1E:
    def test_chain_all_sure(self):
        mdp = chain_mdp(0.3)
        sure = prob1e(mdp)
        assert sure == {0, 1, 2}

    def test_trap_not_sure(self):
        mdp = risky_mdp()
        sure = prob1e(mdp)
        assert mdp.state_index["trap"] not in sure
        assert mdp.state_index["s0"] in sure  # via the detour

    def test_doomed_state_excluded(self):
        mdp = MDP()
        mdp.set_initial("s0")
        mdp.add_choice("s0", "gamble", [("goal", 0.5), ("dead", 0.5)])
        mdp.add_label("goal", "goal")
        sure = prob1e(mdp)
        assert mdp.state_index["s0"] not in sure


class TestRewards:
    def test_certain_chain_cost(self):
        mdp = chain_mdp(1.0)
        res = reach_avoid_reward(mdp)
        assert res.values[mdp.initial] == pytest.approx(2.0)

    def test_retry_chain_expected_cost(self):
        # Two geometric(p) steps: E[cost] = 2 / p.
        mdp = chain_mdp(0.4)
        res = reach_avoid_reward(mdp, epsilon=1e-10)
        assert res.values[mdp.initial] == pytest.approx(5.0, abs=1e-6)

    def test_rmin_avoids_risky_shortcut(self):
        # The shortcut risks the trap; Rmin's prob1e restriction forces the
        # detour despite its higher cost.
        mdp = risky_mdp()
        res = reach_avoid_reward(mdp)
        assert res.values[mdp.initial] == pytest.approx(3.0)
        strategy = extract_strategy(mdp, res)
        assert strategy.action("s0") == "detour"

    def test_unreachable_goal_is_infinite(self):
        mdp = MDP()
        mdp.set_initial("s0")
        mdp.add_choice("s0", "loop", [("s0", 1.0)], reward=1.0)
        mdp.add_label("goal", "island")
        res = reach_avoid_reward(mdp)
        assert res.values[mdp.initial] == float("inf")


def random_mdp(seed: int) -> MDP:
    """A random MDP with goal/hazard labels for differential testing."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    mdp = MDP()
    mdp.set_initial(0)
    goal = int(rng.integers(0, n))
    hazard = int(rng.integers(0, n))
    for s in range(n):
        if s in (goal, hazard):
            continue
        for c in range(int(rng.integers(1, 4))):
            succs = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
            probs = rng.dirichlet(np.ones(len(succs)))
            mdp.add_choice(
                s,
                f"a{c}",
                [(int(t), float(p)) for t, p in zip(succs, probs)],
                reward=float(rng.uniform(0.5, 2.0)),
            )
    mdp.add_label("goal", goal)
    if hazard != goal:
        mdp.add_label("hazard", hazard)
    return mdp


def assert_certified(res, epsilon: float) -> None:
    """The result carries sound two-sided bounds with a closed gap."""
    assert res.certified
    finite = np.isfinite(res.lower) & np.isfinite(res.upper)
    assert np.all(res.upper[finite] >= res.lower[finite] - 1e-15)
    assert res.gap <= epsilon + 1e-12
    assert np.all(res.values[finite] >= res.lower[finite] - 1e-12)
    assert np.all(res.values[finite] <= res.upper[finite] + 1e-12)
    # Infinite values (reward queries outside the prob-1 region) must agree
    # between the bounds and the point estimate.
    assert np.array_equal(np.isfinite(res.values), np.isfinite(res.lower))


class TestCompiledAgainstReference:
    """The vectorized solvers must agree with the pure-Python reference
    wherever the reference converges, and certify on every draw."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_pmax_agreement(self, seed: int):
        mdp = random_mdp(seed)
        cm = compile_mdp(mdp)
        vec = solve_reach_avoid_probability(cm, epsilon=1e-10)
        assert_certified(vec, 1e-10)
        ref = _reference_or_none(reach_avoid_probability, mdp, epsilon=1e-10)
        if ref is not None:
            np.testing.assert_allclose(vec.values, ref.values, atol=1e-6)

    @given(st.integers(0, 10_000))
    @settings(max_examples=500, deadline=None)
    def test_pmin_agreement(self, seed: int):
        mdp = random_mdp(seed)
        cm = compile_mdp(mdp)
        vec = solve_reach_avoid_probability(cm, maximize=False, epsilon=1e-10)
        assert_certified(vec, 1e-10)
        ref = _reference_or_none(
            reach_avoid_probability, mdp, maximize=False, epsilon=1e-10
        )
        if ref is not None:
            np.testing.assert_allclose(vec.values, ref.values, atol=1e-6)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_prob1e_agreement(self, seed: int):
        mdp = random_mdp(seed)
        ref = prob1e(mdp)
        cm = compile_mdp(mdp)
        vec = prob1e_mask(cm, cm.label_mask("goal"), cm.label_mask("hazard"))
        assert set(np.flatnonzero(vec)) == ref

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rmin_agreement(self, seed: int):
        mdp = random_mdp(seed)
        cm = compile_mdp(mdp)
        vec = solve_reach_avoid_reward(cm, epsilon=1e-10)
        assert_certified(vec, 1e-10)
        ref = _reference_or_none(reach_avoid_reward, mdp, epsilon=1e-10)
        if ref is None:
            return
        finite = np.isfinite(ref.values)
        assert (np.isfinite(vec.values) == finite).all()
        np.testing.assert_allclose(
            vec.values[finite], ref.values[finite], atol=1e-5
        )

    def test_strategy_extraction_matches_choice_semantics(self):
        mdp = risky_mdp()
        cm = compile_mdp(mdp)
        res = solve_reach_avoid_reward(cm)
        strategy = extract_strategy(mdp, res)
        assert strategy.action("s0") == "detour"
        assert strategy.initial_value == pytest.approx(3.0)


#: Hypothesis-found falsifying seeds of :func:`random_mdp`, pinned as
#: deterministic regressions.  1186 is ISSUE 4's original ``Pmin``
#: non-convergence (an end component dodging the goal at contraction rate
#: ``1 - 6.4e-3``); the rest broke intermediate versions of the interval
#: solver — budget exhaustion on near-1 contraction rates (436, 5115,
#: 1390, ...) and an unsound direct-solve acceptance via an improper
#: policy (204).
REGRESSION_SEEDS = (204, 436, 1186, 1390, 4082, 4217, 5115, 7082, 7137, 7585)


def _reference_or_none(solve, *args, **kwargs):
    """The scalar reference, or None where it cannot converge.

    Several regression seeds contract at rates around ``1 - 1e-5``; the
    sweep-based reference would need millions of iterations there — which
    is the bug these seeds pinned.  The certified bounds then carry the
    whole correctness claim (they are verified internally by Bellman
    checks, not by the stopping heuristic).
    """
    try:
        return solve(*args, **kwargs)
    except RuntimeError:
        return None


class TestRegressionSeeds:
    """Previously-falsifying models must now solve, certified, and agree."""

    @pytest.mark.parametrize("seed", REGRESSION_SEEDS)
    def test_pmin_converges_certified(self, seed: int):
        mdp = random_mdp(seed)
        cm = compile_mdp(mdp)
        vec = solve_reach_avoid_probability(cm, maximize=False, epsilon=1e-10)
        assert_certified(vec, 1e-10)
        ref = _reference_or_none(
            reach_avoid_probability, mdp, maximize=False, epsilon=1e-10
        )
        if ref is not None:
            np.testing.assert_allclose(vec.values, ref.values, atol=1e-6)

    @pytest.mark.parametrize("seed", REGRESSION_SEEDS)
    def test_pmax_converges_certified(self, seed: int):
        mdp = random_mdp(seed)
        cm = compile_mdp(mdp)
        vec = solve_reach_avoid_probability(cm, epsilon=1e-10)
        assert_certified(vec, 1e-10)
        ref = _reference_or_none(reach_avoid_probability, mdp, epsilon=1e-10)
        if ref is not None:
            np.testing.assert_allclose(vec.values, ref.values, atol=1e-6)

    @pytest.mark.parametrize("seed", REGRESSION_SEEDS)
    def test_rmin_converges_certified(self, seed: int):
        mdp = random_mdp(seed)
        cm = compile_mdp(mdp)
        vec = solve_reach_avoid_reward(cm, epsilon=1e-10)
        assert_certified(vec, 1e-10)
        ref = _reference_or_none(reach_avoid_reward, mdp, epsilon=1e-10)
        if ref is None:
            return
        finite = np.isfinite(ref.values)
        assert (np.isfinite(vec.values) == finite).all()
        np.testing.assert_allclose(
            vec.values[finite], ref.values[finite], atol=1e-5
        )

    def test_seed_7137_refactorizes_near_improper_cyclic_policies(self):
        """Round 1 of policy iteration evaluates a near-improper policy
        whose graph has a multi-state strong component (values ~5.7e5, a
        nearly singular ``I - P_pi``); every later round factorizes its
        own policy afresh, and the solve must certify."""
        perf.reset()
        vec = solve_reach_avoid_reward(
            compile_mdp(random_mdp(7137)), epsilon=1e-10
        )
        assert_certified(vec, 1e-10)
        assert perf.get("vi.pi.cyclic") >= 1
        assert perf.get("vi.pi.factorizations") >= 2


class TestWarmStartValidation:
    """Seeds are validated and side-corrected, never silently clipped."""

    def test_probability_seed_out_of_bounds_raises(self):
        cm = compile_mdp(random_mdp(7))
        bad = np.full(cm.num_states, 2.0)
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            solve_reach_avoid_probability(cm, initial_values=bad)

    def test_probability_seed_shape_mismatch_raises(self):
        cm = compile_mdp(random_mdp(7))
        with pytest.raises(ValueError, match="shape"):
            solve_reach_avoid_probability(
                cm, initial_values=np.zeros(cm.num_states + 1)
            )

    def test_reward_seed_negative_raises(self):
        cm = compile_mdp(random_mdp(7))
        bad = np.full(cm.num_states, -0.5)
        with pytest.raises(ValueError, match="negative"):
            solve_reach_avoid_reward(cm, initial_values=bad)

    @pytest.mark.parametrize("maximize", [True, False])
    def test_nonfinite_entries_fill_side_correctly(self, maximize: bool):
        # A seed of all-NaN must behave exactly like a cold start for both
        # objectives: under Pmin a 0-fill would sit below the greatest
        # fixpoint (the historic wrong-side bug), so the fill is 1 there.
        mdp = random_mdp(1186)
        cm = compile_mdp(mdp)
        cold = solve_reach_avoid_probability(
            cm, maximize=maximize, epsilon=1e-10
        )
        warm = solve_reach_avoid_probability(
            cm,
            maximize=maximize,
            epsilon=1e-10,
            initial_values=np.full(cm.num_states, np.nan),
        )
        np.testing.assert_allclose(warm.values, cold.values, atol=1e-9)
        assert_certified(warm, 1e-10)

    def test_wrong_side_seed_rejected_not_unsound(self):
        # Feeding Pmin an all-zeros seed (a *lower* bound, not the upper
        # iterate it warms) must not poison the result: the one-step
        # Bellman validation drops it and the solve cold-starts.
        mdp = random_mdp(1186)
        cm = compile_mdp(mdp)
        ref = reach_avoid_probability(mdp, maximize=False, epsilon=1e-10)
        perf.reset()
        vec = solve_reach_avoid_probability(
            cm,
            maximize=False,
            epsilon=1e-10,
            initial_values=np.zeros(cm.num_states),
        )
        np.testing.assert_allclose(vec.values, ref.values, atol=1e-6)
        assert_certified(vec, 1e-10)

    def test_valid_warm_seed_accepted(self):
        mdp = random_mdp(42)
        cm = compile_mdp(mdp)
        first = solve_reach_avoid_reward(cm, epsilon=1e-10)
        perf.reset()
        again = solve_reach_avoid_reward(
            cm, epsilon=1e-10, initial_values=first.lower
        )
        assert perf.get("vi.warm.rejected") == 0
        np.testing.assert_allclose(again.values, first.values, atol=1e-9)
        assert_certified(again, 1e-10)


class TestTrapStates:
    """Choiceless non-goal states are pinned to 0, not left to stale values."""

    def trap_mdp(self) -> MDP:
        mdp = MDP()
        mdp.set_initial("s0")
        # "dead" never receives a choice: it only exists as a successor.
        mdp.add_choice("s0", "gamble", [("goal", 0.5), ("dead", 0.5)])
        mdp.add_choice("s0", "wait", [("s0", 1.0)])
        mdp.add_label("goal", "goal")
        return mdp

    def test_trap_pinned_to_zero_and_counted(self):
        mdp = self.trap_mdp()
        cm = compile_mdp(mdp)
        perf.reset()
        res = solve_reach_avoid_probability(cm, epsilon=1e-10)
        dead = mdp.state_index["dead"]
        assert res.values[dead] == 0.0
        assert res.upper[dead] == 0.0
        assert perf.get("vi.precompute.trap_states") >= 1

    def test_trap_ignores_stale_seed_value(self):
        # The historic bug: a warm seed planted a value on a choiceless
        # state and the isfinite scatter mask never overwrote it.
        mdp = self.trap_mdp()
        cm = compile_mdp(mdp)
        seed = np.zeros(cm.num_states)
        seed[mdp.state_index["dead"]] = 0.9
        res = solve_reach_avoid_probability(
            cm, epsilon=1e-10, initial_values=seed
        )
        assert res.values[mdp.state_index["dead"]] == 0.0
        assert res.upper[mdp.state_index["dead"]] == 0.0


class TestUnreachableGoal:
    """Walled / disconnected chips: goal unreachable from the start."""

    def _walled_model(self):
        from repro.core.fastmdp import build_routing_model_fast
        from repro.core.routing_job import RoutingJob, zone
        from repro.core.synthesis import force_field_from_health
        from repro.geometry.rect import Rect

        width, height = 30, 20
        start, goal = Rect(2, 2, 5, 5), Rect(20, 10, 23, 13)
        job = RoutingJob(start, goal, zone(start, goal, width, height))
        health = np.full((width, height), 3)
        health[12, :] = 0  # dead column severs every start->goal path
        field = force_field_from_health(health)
        return build_routing_model_fast(job, field.forces)

    def test_walled_chip_pmax_certified_zero(self):
        model = self._walled_model()
        cm = model.compiled
        res = solve_reach_avoid_probability(cm, epsilon=1e-8)
        assert res.values[cm.initial] == 0.0
        assert res.upper[cm.initial] == 0.0  # exact, from prob0a

    def test_walled_chip_rmin_infinite(self):
        model = self._walled_model()
        cm = model.compiled
        res = solve_reach_avoid_reward(cm, epsilon=1e-8)
        assert res.values[cm.initial] == float("inf")
        assert res.lower[cm.initial] == float("inf")

    def test_disconnected_mdp_pmin_pmax_zero(self):
        # Goal on an island no transition reaches: both optima are exactly 0
        # and precomputation settles the model with no numeric work.
        mdp = MDP()
        mdp.set_initial("s0")
        mdp.add_choice("s0", "loop", [("s1", 1.0)])
        mdp.add_choice("s1", "back", [("s0", 1.0)])
        mdp.add_choice("island", "stay", [("island", 1.0)])
        mdp.add_label("goal", "island")
        cm = compile_mdp(mdp)
        for maximize in (True, False):
            res = solve_reach_avoid_probability(cm, maximize=maximize)
            assert res.values[cm.initial] == 0.0
            assert res.upper[cm.initial] == 0.0
