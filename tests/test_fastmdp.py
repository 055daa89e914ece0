"""Differential tests: the fast (compiled) builder vs the reference builder.

``build_routing_model_fast`` must be semantically identical to the
explicit oracle ``tests.oracles.build_routing_mdp`` + ``compile_mdp``:
same state space, same choice
structure, and — most importantly — the same synthesis values for both
query types under arbitrary health matrices and obstacle sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastmdp import build_routing_model_fast, extract_fast_strategy
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import force_field_from_health
from repro.geometry.rect import Rect
from repro.modelcheck.compiled import (
    compile_mdp,
    solve_reach_avoid_probability,
    solve_reach_avoid_reward,
)
from repro.modelcheck.strategy import extract_strategy
from tests.oracles import build_routing_mdp

W, H = 24, 18


def _random_case(seed: int):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    xa = int(rng.integers(1, 6))
    ya = int(rng.integers(1, 6))
    gxa = int(rng.integers(10, W - d))
    gya = int(rng.integers(8, H - d))
    start = Rect(xa, ya, xa + d - 1, ya + d - 1)
    goal = Rect(gxa, gya, gxa + d - 1, gya + d - 1)
    hazard = Rect(1, 1, W, H)
    obstacles = ()
    if rng.random() < 0.5:
        ox = int(rng.integers(6, W - 8))
        oy = int(rng.integers(4, H - 6))
        obstacle = Rect(ox, oy, ox + 2, oy + 2)
        if not obstacle.adjacent_or_overlapping(start) and not (
            obstacle.adjacent_or_overlapping(goal)
        ):
            obstacles = (obstacle,)
    job = RoutingJob(start, goal, hazard, obstacles)
    health = rng.integers(0, 4, size=(W, H))
    # keep start and goal neighbourhoods alive so routes usually exist
    health[max(xa - 2, 0):xa + d + 1, max(ya - 2, 0):ya + d + 1] = 3
    health[gxa - 2:gxa + d + 1, gya - 2:gya + d + 1] = 3
    return job, health


class TestEquivalence:
    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_same_model_statistics(self, seed: int):
        job, health = _random_case(seed)
        field = force_field_from_health(health)
        fast = build_routing_model_fast(job, field.forces)
        ref = build_routing_mdp(job, field)
        assert fast.num_states == ref.num_states
        assert fast.num_choices == ref.num_choices
        assert set(map(str, fast.states)) == set(map(str, ref.mdp.states))

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_same_rmin_values(self, seed: int):
        job, health = _random_case(seed)
        field = force_field_from_health(health)
        fast = build_routing_model_fast(job, field.forces)
        ref = compile_mdp(build_routing_mdp(job, field).mdp)
        rf = solve_reach_avoid_reward(fast.compiled, epsilon=1e-9)
        rr = solve_reach_avoid_reward(ref, epsilon=1e-9)
        v_fast = rf.values[fast.compiled.initial]
        v_ref = rr.values[ref.initial]
        if np.isinf(v_ref):
            assert np.isinf(v_fast)
        else:
            assert v_fast == pytest.approx(v_ref, abs=1e-5)

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_same_pmax_values(self, seed: int):
        job, health = _random_case(seed)
        field = force_field_from_health(health)
        fast = build_routing_model_fast(job, field.forces)
        ref = compile_mdp(build_routing_mdp(job, field).mdp)
        pf = solve_reach_avoid_probability(fast.compiled, epsilon=1e-9)
        pr = solve_reach_avoid_probability(ref, epsilon=1e-9)
        assert pf.values[fast.compiled.initial] == pytest.approx(
            pr.values[ref.initial], abs=1e-6
        )

    def test_strategies_agree_on_values(self):
        job, health = _random_case(7)
        field = force_field_from_health(health)
        fast = build_routing_model_fast(job, field.forces)
        ref_model = build_routing_mdp(job, field)
        rf = solve_reach_avoid_reward(fast.compiled, epsilon=1e-9)
        rr = solve_reach_avoid_reward(compile_mdp(ref_model.mdp), epsilon=1e-9)
        sf = extract_fast_strategy(fast, rf)
        sr = extract_strategy(ref_model.mdp, rr)
        # The optimal actions may differ on ties, but the achieved values
        # must match state by state.
        for state, value in sr.values.items():
            other = sf.value_at(state)
            assert other is not None
            if np.isfinite(value):
                assert other == pytest.approx(value, abs=1e-5)

    def test_action_family_filter_matches(self):
        from repro.core.actions import ActionClass

        job, health = _random_case(3)
        field = force_field_from_health(health)
        families = (ActionClass.CARDINAL, ActionClass.ORDINAL)
        fast = build_routing_model_fast(job, field.forces, families=families)
        ref = build_routing_mdp(job, field, families=families)
        assert fast.num_states == ref.num_states
        assert fast.num_choices == ref.num_choices

    def test_dispense_rejected(self):
        from repro.core.droplet import OFF_CHIP

        job = RoutingJob(OFF_CHIP, Rect(3, 3, 6, 6), Rect(1, 1, 9, 9))
        with pytest.raises(ValueError):
            build_routing_model_fast(job, np.ones((W, H)))


class TestCanonicalLayout:
    """The support build's canonical skeleton equals scipy's
    ``sum_duplicates`` bit for bit: entry order, indices, indptr and the
    left-to-right summation of every duplicate run."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_sum_duplicates(self, seed):
        from scipy import sparse

        from repro.core import fastmdp

        rng = np.random.default_rng(seed)
        num_rows, num_cols = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        # Up to 16 entries per row (a choice's outcome bound), few columns
        # so duplicate runs of every depth occur.
        lens = rng.integers(1, 17, size=num_rows)
        rows = rng.permutation(np.repeat(np.arange(num_rows), lens))
        cols = rng.integers(0, num_cols, size=rows.size)
        values = rng.random(rows.size + 5) * 10.0 ** rng.integers(
            -8, 2, size=rows.size + 5)
        pos = rng.permutation(values.size)[:rows.size]
        first, dup_steps, indices, indptr = fastmdp._canonical_layout(
            rows, cols, pos, num_rows)
        # A row longer than the column count repeats a column.
        assert len(dup_steps) >= min(lens.max() - num_cols, 1)
        order = np.argsort(rows, kind="stable")
        want = sparse.csr_matrix(
            (values[pos[order]], cols[order],
             np.r_[0, np.cumsum(np.bincount(rows, minlength=num_rows))]),
            shape=(num_rows, num_cols),
        )
        want.sum_duplicates()
        got = fastmdp._canonical_data(values, first, dup_steps)
        assert np.array_equal(got, want.data)
        assert np.array_equal(indices, want.indices)
        assert np.array_equal(indptr, want.indptr)
        assert (indices.dtype, indptr.dtype) == (np.int32, np.int32)
