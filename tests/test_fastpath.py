"""Regression tests for the synthesis fast path.

Covers the pieces the perf work added on top of the fast builder: the
process-global action-spec memo, warm-started value iteration (solver- and
synthesis-level), warm-value retention in the strategy library, the perf
counter registry, and the benchmark harness fixes in ``benchmarks/common``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import perf
from repro.core.actions import ActionClass
from repro.core.baseline import AdaptiveRouter
from repro.core.fastmdp import (
    build_routing_model_fast,
    clear_build_template_cache,
    clear_shape_action_memo,
    compiled_shape_actions,
)
from repro.core.routing_job import RoutingJob
from repro.core.strategy import StrategyLibrary
from repro.core.synthesis import (
    force_field_from_health,
    synthesize,
    synthesize_with_field,
)
from repro.geometry.rect import Rect
from repro.modelcheck.compiled import (
    compile_mdp,
    solve_reach_avoid_probability,
    solve_reach_avoid_reward,
)
from tests.oracles import build_routing_mdp, build_routing_model_scalar

W, H = 24, 18


def _job() -> RoutingJob:
    return RoutingJob(
        Rect(2, 2, 4, 4), Rect(W - 5, H - 5, W - 3, H - 3), Rect(1, 1, W, H)
    )


def _random_health(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    health = rng.integers(1, 4, size=(W, H))
    health[0:6, 0:6] = 3
    health[W - 7 :, H - 7 :] = 3
    return health


class TestShapeActionMemo:
    def test_memo_hit_on_repeat(self):
        clear_shape_action_memo()
        # A template cached by an earlier test would skip the shape layer.
        clear_build_template_cache()
        perf.reset()
        build_routing_model_fast(_job(), np.ones((W, H)))
        misses = perf.get("fastmdp.shape_memo.miss")
        assert misses > 0
        # Clear the template cache so the rebuild actually reaches the
        # shape-action layer (a template revalue never recompiles specs).
        clear_build_template_cache()
        build_routing_model_fast(_job(), np.ones((W, H)))
        assert perf.get("fastmdp.shape_memo.miss") == misses
        assert perf.get("fastmdp.shape_memo.hit") > 0

    def test_memo_returns_same_object(self):
        clear_shape_action_memo()
        a = compiled_shape_actions(3, 3, 3.0)
        b = compiled_shape_actions(3, 3, 3.0)
        assert a is b
        c = compiled_shape_actions(3, 3, 3.0, families=(ActionClass.CARDINAL,))
        assert c is not a

    def test_repeated_builds_identical(self):
        health = _random_health(11)
        forces = force_field_from_health(health).forces
        clear_shape_action_memo()
        first = build_routing_model_fast(_job(), forces)
        second = build_routing_model_fast(_job(), forces)  # memo warm
        assert first.num_states == second.num_states
        assert first.num_choices == second.num_choices
        assert (
            first.compiled.transitions != second.compiled.transitions
        ).nnz == 0


def _transition_rows(model) -> dict:
    """``{(state, action): {successor: probability}}`` of a compiled model."""
    cm = model.compiled
    T = cm.transitions.tocsr()
    names = [str(s) for s in model.states]
    return {
        (names[cm.choice_state[c]], model.choice_labels[c]): {
            names[j]: p
            for j, p in zip(
                T.indices[T.indptr[c]:T.indptr[c + 1]].tolist(),
                T.data[T.indptr[c]:T.indptr[c + 1]].tolist(),
            )
        }
        for c in range(cm.num_choices)
    }


class TestScalarOracle:
    """The vectorized builder against the per-state scalar oracle."""

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize(
        "families", [None, (ActionClass.CARDINAL, ActionClass.ORDINAL)]
    )
    def test_same_transitions_as_scalar_builder(self, seed, families):
        health = _random_health(seed)
        # Dead cells make some outcomes impossible (probability 0).
        health[np.random.default_rng(seed).random(health.shape) < 0.1] = 0
        forces = force_field_from_health(health).forces
        clear_build_template_cache()
        fast = _transition_rows(
            build_routing_model_fast(_job(), forces, families=families)
        )
        ref = _transition_rows(
            build_routing_model_scalar(_job(), forces, families=families)
        )
        assert fast.keys() == ref.keys()
        for key, row in ref.items():
            # The fast builder sums forces over its read window, the
            # scalar one over the whole chip: equal up to rounding.
            assert fast[key] == pytest.approx(row, rel=0, abs=1e-12)


class TestFamilyRestrictedEquivalence:
    @pytest.mark.parametrize(
        "families",
        [
            (ActionClass.CARDINAL,),
            (ActionClass.CARDINAL, ActionClass.ORDINAL),
            (ActionClass.CARDINAL, ActionClass.WIDEN, ActionClass.HEIGHTEN),
        ],
    )
    def test_values_match_reference(self, families):
        health = _random_health(5)
        field = force_field_from_health(health)
        fast = build_routing_model_fast(_job(), field.forces, families=families)
        ref = compile_mdp(build_routing_mdp(_job(), field, families=families).mdp)
        assert fast.num_states == ref.num_states
        rf = solve_reach_avoid_reward(fast.compiled, epsilon=1e-9)
        rr = solve_reach_avoid_reward(ref, epsilon=1e-9)
        vf = rf.values[fast.compiled.initial]
        vr = rr.values[ref.initial]
        if np.isinf(vr):
            assert np.isinf(vf)
        else:
            assert vf == pytest.approx(vr, abs=1e-5)


class TestWarmStartedSolvers:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reward_warm_equals_cold(self, seed):
        forces = force_field_from_health(_random_health(seed)).forces
        model = build_routing_model_fast(_job(), forces)
        cold = solve_reach_avoid_reward(model.compiled, epsilon=1e-9)
        # A monotone degradation of the same model: perturb forces down.
        rng = np.random.default_rng(seed + 100)
        degraded = forces * np.where(rng.random(forces.shape) < 0.1, 0.6, 1.0)
        model2 = build_routing_model_fast(_job(), degraded)
        seed_vals = np.fromiter(
            (
                dict(zip(model.states, cold.values.tolist())).get(s, 0.0)
                for s in model2.states
            ),
            dtype=float,
            count=model2.compiled.num_states,
        )
        warm = solve_reach_avoid_reward(
            model2.compiled, epsilon=1e-9, initial_values=seed_vals
        )
        ref = solve_reach_avoid_reward(model2.compiled, epsilon=1e-9)
        finite = np.isfinite(ref.values)
        assert np.isinf(warm.values[~finite]).all()
        np.testing.assert_allclose(
            warm.values[finite], ref.values[finite], atol=1e-6
        )

    def test_probability_warm_from_below_equals_cold(self):
        forces = force_field_from_health(_random_health(2)).forces
        model = build_routing_model_fast(_job(), forces)
        cold = solve_reach_avoid_probability(model.compiled, epsilon=1e-10)
        # Any seed from below (here: half the fixpoint) is sound for the
        # least-fixpoint Pmax iteration.
        warm = solve_reach_avoid_probability(
            model.compiled, epsilon=1e-10, initial_values=cold.values * 0.5
        )
        np.testing.assert_allclose(warm.values, cold.values, atol=1e-7)

    def test_warm_counters(self):
        forces = force_field_from_health(_random_health(4)).forces
        model = build_routing_model_fast(_job(), forces)
        perf.reset()
        solve_reach_avoid_reward(model.compiled)
        assert perf.get("vi.reward.cold_solves") == 1
        solve_reach_avoid_reward(
            model.compiled,
            initial_values=np.zeros(model.compiled.num_states),
        )
        assert perf.get("vi.reward.warm_solves") == 1
        assert perf.get("vi.reward.iterations") > 0


class TestWarmStartedSynthesis:
    def test_synthesize_warm_matches_cold(self):
        job = _job()
        h1 = np.full((W, H), 3, dtype=int)
        first = synthesize(job, h1, bits=2)
        assert first.strategy is not None
        h2 = _random_health(8)
        np.minimum(h2, h1, out=h2)
        cold = synthesize(job, h2, bits=2)
        warm = synthesize(job, h2, bits=2, warm_values=first.strategy.values)
        assert warm.expected_cycles == pytest.approx(
            cold.expected_cycles, abs=1e-5
        )
        for state, value in cold.strategy.values.items():
            if np.isfinite(value):
                assert warm.strategy.values[state] == pytest.approx(
                    value, abs=1e-5
                )

    def test_library_retains_warm_values(self):
        job = _job()
        library = StrategyLibrary()
        router = AdaptiveRouter(bits=2, library=library)
        h1 = np.full((W, H), 3, dtype=int)
        assert library.warm_start(job) is None
        s1 = router.plan(job, h1)
        assert s1 is not None
        assert library.warm_start(job) is s1.policy
        h2 = h1.copy()
        h2[10:14, 6:10] = 1
        perf.reset()
        s2 = router.plan(job, h2)
        assert s2 is not None
        assert perf.get("vi.reward.warm_solves") == 1
        assert library.warm_start(job) is s2.policy

    def test_exotic_field_raises_type_error(self):
        # Only matrix-backed fields are synthesizable; any other field is
        # refused up front, warm start or not, before anything is counted.
        from repro.core.transitions import ForceField

        class Weird(ForceField):
            width, height = W, H

            def force(self, cell):
                return 1.0

            def rect_mean(self, rect):
                return 1.0

        job = _job()
        perf.reset()
        for warm in (None, {"x": 1.0}):
            with pytest.raises(TypeError, match="Weird"):
                synthesize_with_field(job, Weird(), warm_values=warm)
        assert perf.get("synthesis.count") == 0


class TestPerfRegistry:
    def test_incr_and_reset(self):
        perf.reset()
        perf.incr("t.a")
        perf.incr("t.a", 2)
        assert perf.get("t.a") == 3
        assert perf.snapshot() == {"t.a": 3}
        perf.reset()
        assert perf.get("t.a") == 0

    def test_timer_accumulates(self):
        perf.reset()
        with perf.timer("t.block_seconds"):
            pass
        with perf.timer("t.block_seconds"):
            pass
        assert perf.get("t.block_seconds") >= 0
        assert "t.block_seconds" in perf.report()

    def test_report_empty(self):
        perf.reset()
        assert "no perf counters" in perf.report()


def _load_common(monkeypatch, tmp_path, scale):
    monkeypatch.setenv("REPRO_BENCH_SCALE", scale)
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "common.py"
    spec = importlib.util.spec_from_file_location("bench_common_test", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_common_test"] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop("bench_common_test", None)
    module.OUT_DIR = tmp_path
    return module


class TestBenchCommon:
    def test_emit_appends_with_header(self, monkeypatch, tmp_path):
        common = _load_common(monkeypatch, tmp_path, "quick")
        common.emit("demo", "first run")
        common.emit("demo", "second run")
        text = (tmp_path / "demo.txt").read_text()
        assert "first run" in text and "second run" in text
        assert text.count("=== demo ·") == 2

    def test_scale_validation(self, monkeypatch, tmp_path):
        with pytest.warns(UserWarning, match="REPRO_BENCH_SCALE"):
            common = _load_common(monkeypatch, tmp_path, "ful")
        assert common.SCALE == "quick"

    def test_valid_scales_accepted(self, monkeypatch, tmp_path):
        assert _load_common(monkeypatch, tmp_path, "full").SCALE == "full"
        assert _load_common(monkeypatch, tmp_path, "quick").SCALE == "quick"
