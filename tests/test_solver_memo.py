"""Differential tests for the support-keyed solver contexts.

Every certified solve takes its support-derived precompute (prob-1
region, SCC levels, per-level padded matrices, qualitative sets) from the
context slot of the build template the model came from.  The contract
under test: a solve against a filled slot is bit-identical, in every
``ValueResult`` field, to the same solve right after
``clear_context_cache()`` — and both equal an uncached oracle that
derives every level from the model on each call.  Also covered: threaded
builds and solves against a small template bound, the slot and cache
size figures, and the LRU order of the build-template cache.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from scipy import sparse

from repro import perf
from repro.core import fastmdp
from repro.core.fastmdp import (
    build_routing_model_fast,
    clear_build_template_cache,
)
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import force_field_from_health
from repro.geometry.rect import Rect
from repro.modelcheck import batch, compiled, interval
from repro.modelcheck.compiled import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERATIONS,
    CompiledMDP,
    solve_reach_avoid_probability,
    solve_reach_avoid_reward,
)
from repro.modelcheck.interval import NonConvergence
from tests.oracles import window_token

W, H = 24, 18
FULL = Rect(1, 1, W, H)
JOB = RoutingJob(Rect(2, 2, 4, 4), Rect(W - 5, H - 5, W - 3, H - 3), FULL)
OTHER_JOBS = (
    RoutingJob(Rect(W - 4, 2, W - 2, 4), Rect(3, H - 4, 5, H - 2), FULL),
    RoutingJob(Rect(2, 8, 4, 10), Rect(W - 4, 8, W - 2, 10),
               Rect(1, 5, W, 14)),
)
SWEEP = range(6)


def _health(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    health = rng.integers(1, 4, size=(W, H))
    health[0:6, 0:6] = 3
    health[W - 7 :, H - 7 :] = 3
    return health


def _model(job: RoutingJob, seed: int) -> CompiledMDP:
    forces = force_field_from_health(_health(seed)).forces
    return build_routing_model_fast(job, forces).compiled


def _assert_identical(a, b) -> None:
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.choice, b.choice)
    assert np.array_equal(a.lower, b.lower)
    assert np.array_equal(a.upper, b.upper)
    assert a.iterations == b.iterations


def _cold(solve, *args, **kwargs):
    batch.clear_context_cache()
    return solve(*args, **kwargs)


def _uncached_reward(cm, initial_values=None, epsilon=DEFAULT_EPSILON):
    """Oracle: the certified ``Rmin`` solve with no memo and no gathers.

    Recomputes the prob-1 region, the SCC levels and each level's padded
    matrix for this one model, and runs the per-level body on them.
    """
    goal_zero, active, usable = batch._reward_region(
        cm, cm.label_mask("goal"), cm.label_mask("hazard")
    )
    n = cm.num_states
    seed = None
    if initial_values is not None:
        seed = compiled._sanitize_reward_seed(initial_values, n)
    lower = np.full(n, np.inf)
    upper = np.full(n, np.inf)
    lower[goal_zero] = upper[goal_zero] = 0.0
    lower[active] = 0.0
    budget = interval._Budget(
        DEFAULT_MAX_ITERATIONS, "reward iteration did not converge"
    )
    T = interval._rows(cm)
    owners = cm.choice_state
    rows, cols = interval._entries(cm)
    level_of_state, num_levels = interval._scc_levels(
        n, rows, cols, owners, active, usable
    )
    targets = interval._level_targets(epsilon, num_levels)
    for level in range(num_levels):
        block = active & (level_of_state == level)
        idx = np.flatnonzero(usable & block[owners])
        lvl = interval._SlotLayout.of(T, idx, owners[idx],
                                      np.flatnonzero(block))
        interval._solve_reward_level(
            lower, upper, lvl, lvl.matrix(T),
            lvl.padded(cm.choice_reward, False), budget,
            target=float(targets[level]), epsilon=epsilon,
            minimize=True, seed=seed,
        )
    finite = np.isfinite(lower) & np.isfinite(upper)
    values = np.where(finite, 0.5 * (lower + upper), lower)
    remapped = compiled._extract(cm, values, usable, cm.choice_reward, False,
                                 epsilon)
    return values, compiled._to_local(cm, remapped), lower, upper


def _assert_matches_oracle(result, cm, initial_values=None) -> None:
    values, choice, lower, upper = _uncached_reward(cm, initial_values)
    assert np.array_equal(result.values, values)
    assert np.array_equal(result.choice, choice)
    assert np.array_equal(result.lower, lower)
    assert np.array_equal(result.upper, upper)


def _with_stored_zero(cm: CompiledMDP) -> CompiledMDP:
    """A copy of ``cm`` with an explicit zero in a usable choice's row.

    The zero points at another state of the prob-1 region, so it adds an
    edge to the SCC graph without touching the probabilities.
    """
    _, active, usable = batch._reward_region(
        cm, cm.label_mask("goal"), cm.label_mask("hazard")
    )
    t = interval._rows(cm)
    row = int(np.flatnonzero(usable)[0])
    lo, hi = t.indptr[row], t.indptr[row + 1]
    col = next(
        int(c) for c in np.flatnonzero(active)
        if c not in t.indices[lo:hi] and c != cm.choice_state[row]
    )
    at = lo + int(np.searchsorted(t.indices[lo:hi], col))
    data = np.insert(t.data, at, 0.0)
    indices = np.insert(t.indices, at, col)
    indptr = t.indptr.copy()
    indptr[row + 1 :] += 1
    zeroed = sparse.csr_matrix((data, indices, indptr), shape=t.shape)
    assert zeroed.nnz == t.nnz + 1  # the zero is stored, not dropped
    return CompiledMDP(
        num_states=cm.num_states,
        choice_state=cm.choice_state,
        choice_reward=cm.choice_reward,
        transitions=zeroed,
        labels=cm.labels,
        initial=cm.initial,
    )


@pytest.fixture(autouse=True)
def _fresh():
    clear_build_template_cache()
    batch.clear_context_cache()
    yield
    batch.clear_context_cache()


class TestWarmContextMatchesCold:
    def test_cold_solves_over_health_sweep(self):
        models = [_model(JOB, seed) for seed in SWEEP]
        assert len({fastmdp.structural_key(cm) for cm in models}) == 1
        for cm in models:
            cold = _cold(solve_reach_avoid_reward, cm)
            warm = solve_reach_avoid_reward(cm)
            _assert_identical(warm, cold)
            _assert_matches_oracle(warm, cm)
        assert perf.get("vi.batch.precompute.hits") > 0

    def test_warm_seeded_solves_over_health_sweep(self):
        models = [_model(JOB, seed) for seed in SWEEP]
        previous = solve_reach_avoid_reward(models[0]).values
        for cm in models[1:]:
            warm = solve_reach_avoid_reward(cm, initial_values=previous)
            cold = _cold(solve_reach_avoid_reward, cm, initial_values=previous)
            _assert_identical(warm, cold)
            _assert_matches_oracle(warm, cm, previous)
            previous = warm.values

    def test_rejected_seed(self):
        cm = _model(JOB, 1)
        exact = solve_reach_avoid_reward(cm)
        # Far above the fixpoint: the per-level Bellman check refuses it.
        high = np.where(np.isfinite(exact.values), exact.values * 2 + 50, 0)
        before = perf.get("vi.warm.rejected")
        warm = solve_reach_avoid_reward(cm, initial_values=high)
        assert perf.get("vi.warm.rejected") > before
        cold = _cold(solve_reach_avoid_reward, cm, initial_values=high)
        _assert_identical(warm, cold)
        _assert_matches_oracle(warm, cm, high)

    def test_stored_zero_model_is_solved_but_never_cached(self):
        source = _model(JOB, 2)
        cm = _with_stored_zero(source)
        assert not batch._admit(cm)[1]
        assert cm.contexts is None
        cold = _cold(solve_reach_avoid_reward, cm)
        hits = perf.get("vi.batch.precompute.hits")
        misses = perf.get("vi.batch.precompute.misses")
        warm = solve_reach_avoid_reward(cm)
        assert not source.contexts
        assert perf.get("vi.batch.precompute.hits") == hits
        assert perf.get("vi.batch.precompute.misses") == misses
        _assert_identical(warm, cold)
        _assert_matches_oracle(warm, cm)

    def test_stored_zero_into_infinite_valued_state(self):
        # Regression: a stored zero in a column owned by a state outside
        # the prob-1 region (value inf) made the settling prelude compute
        # 0 * inf and raise IndexError.  The zero must be dropped on
        # entry: results equal the zero-free model's, bit for bit.
        def model(stored_zero: bool) -> CompiledMDP:
            # 0 start, 1 mid, 2 goal, 3 trap (never reaches the goal)
            rows = [0, 1, 1, 2, 3, 4, 5]
            cols = [1, 0, 1, 2, 0, 2, 3]
            vals = [1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0]
            if stored_zero:
                rows, cols, vals = rows + [0], cols + [3], vals + [0.0]
            t = sparse.csr_matrix((vals, (rows, cols)), shape=(6, 4))
            return CompiledMDP(
                num_states=4,
                choice_state=np.array([0, 0, 1, 1, 2, 3]),
                choice_reward=np.ones(6),
                transitions=t,
                labels={"goal": np.array([0, 0, 1, 0], dtype=bool),
                        "hazard": np.zeros(4, dtype=bool)},
                initial=0,
            )

        zeroed, clean = model(True), model(False)
        assert zeroed.transitions.nnz == clean.transitions.nnz + 1
        want = solve_reach_avoid_reward(clean)
        assert np.isinf(want.values[3])
        _assert_identical(solve_reach_avoid_reward(zeroed), want)
        _assert_identical(
            solve_reach_avoid_probability(zeroed, maximize=True),
            solve_reach_avoid_probability(clean, maximize=True),
        )

    def test_pmax_probability_query(self):
        slots = []
        for seed in SWEEP:
            cm = _model(JOB, seed)
            cold = _cold(solve_reach_avoid_probability, cm, maximize=True)
            warm = solve_reach_avoid_probability(cm, maximize=True)
            _assert_identical(warm, cold)
            slots.append(cm.contexts)
        # One support, so one slot, holding one qualitative context.
        assert all(slot is slots[0] for slot in slots)
        assert list(slots[0]) == [("qualitative", "goal", "hazard", True)]

    def test_tiny_budget_still_raises(self):
        cm = _model(JOB, 3)
        solve_reach_avoid_reward(cm)  # warm the context
        with pytest.raises(NonConvergence):
            solve_reach_avoid_reward(cm, max_iterations=2)
        with pytest.raises(NonConvergence):
            _cold(solve_reach_avoid_reward, cm, max_iterations=2)


class TestThreadedMemo:
    def test_concurrent_solves_bit_identical_to_serial(self, monkeypatch):
        # Three shapes against a 2-support template bound: threads build
        # and solve, so they keep evicting and re-inserting templates
        # (and their contexts) while others look up.  A short switch
        # interval makes the threads interleave inside the lookups.
        monkeypatch.setattr(fastmdp, "_SUPPORT_CACHE_MAX", 2)
        cases = [(job, seed) for job in (JOB, *OTHER_JOBS) for seed in (4, 5)]
        serial = [
            _cold(solve_reach_avoid_reward, _model(*case)) for case in cases
        ]
        clear_build_template_cache()
        results: dict[tuple[int, int], object] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def worker(t: int) -> None:
            try:
                barrier.wait(timeout=60)
                for rep in range(3):
                    order = np.random.default_rng(10 * t + rep).permutation(
                        len(cases)
                    )
                    for i in order:
                        results[(t, int(i))] = solve_reach_avoid_reward(
                            _model(*cases[i])
                        )
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        interval_before = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=300)
        finally:
            sys.setswitchinterval(interval_before)
        assert not any(th.is_alive() for th in threads)
        assert not errors, errors
        assert len(results) == 4 * len(cases)
        for (_, i), result in results.items():
            _assert_identical(result, serial[i])
        assert len(fastmdp._SUPPORT_LRU) <= 2
        # The last published size is the cache's size, whichever thread
        # inserted last.
        assert perf.get("fastmdp.template.size") == len(fastmdp._SUPPORT_LRU)


class TestCacheSizeGauges:
    def test_precompute_size_counts_both_memos(self):
        # Both kinds of context sit in the template's slot; clearing the
        # contexts keeps the template.
        cm = _model(JOB, 1)
        assert len(cm.contexts) == 0
        solve_reach_avoid_reward(cm)
        assert len(cm.contexts) == 1
        solve_reach_avoid_probability(cm)
        assert len(cm.contexts) == 2
        batch.clear_context_cache()
        assert len(cm.contexts) == 0
        assert perf.get("fastmdp.template.size") == 1

    def test_template_size_follows_inserts_and_evictions(self, monkeypatch):
        monkeypatch.setattr(fastmdp, "_SUPPORT_CACHE_MAX", 2)
        forces = force_field_from_health(_health(1)).forces
        for n, job in enumerate((JOB, *OTHER_JOBS), start=1):
            build_routing_model_fast(job, forces)
            assert perf.get("fastmdp.template.size") == min(n, 2)
        clear_build_template_cache()
        assert perf.get("fastmdp.template.size") == 0


class TestTemplateLru:
    def test_rehit_oldest_survives_eviction(self, monkeypatch):
        monkeypatch.setattr(fastmdp, "_SUPPORT_CACHE_MAX", 2)
        forces = force_field_from_health(_health(1)).forces
        oldest, middle, newest = JOB, *OTHER_JOBS
        build_routing_model_fast(oldest, forces)
        build_routing_model_fast(middle, forces)
        hits = perf.get("fastmdp.template.hits")
        build_routing_model_fast(oldest, forces)  # re-hit refreshes it
        assert perf.get("fastmdp.template.hits") == hits + 1
        build_routing_model_fast(newest, forces)  # cap + 1 distinct keys
        assert window_token(oldest, forces) is not None
        assert window_token(middle, forces) is None
        assert window_token(newest, forces) is not None


class TestRawCsr:
    """``interval._raw_csr`` builds the matrix the checked constructor
    builds, from the same arrays, without copying them."""

    def test_matches_checked_constructor(self):
        data = np.array([0.5, 0.25, 0.125, 1.0])
        indices = np.array([0, 2, 1, 2], dtype=np.int32)
        indptr = np.array([0, 2, 2, 4], dtype=np.int32)
        raw = interval._raw_csr(data, indices, indptr, (3, 4))
        ref = sparse.csr_matrix((data, indices, indptr), shape=(3, 4))
        assert raw.shape == ref.shape == (3, 4)
        assert raw.nnz == ref.nnz
        assert raw.data is data and raw.indices is indices
        assert np.array_equal(raw.toarray(), ref.toarray())
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(raw @ x, ref @ x)
        # A second matrix does not share state with the first.
        other = interval._raw_csr(data[:2], indices[:2],
                                  np.array([0, 2], dtype=np.int32), (1, 4))
        assert other.shape == (1, 4) and raw.shape == (3, 4)
