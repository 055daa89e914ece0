"""Differential test of the padded level matrix, and a guard on what the
solver and the build templates retain.

Each condensation level of a solve is one slot-major padded matrix
(``interval._SlotLayout``): every Bellman application, the settling
prelude and policy iteration read it.  The oracle is the path it
replaced (``tests/oracles.py``): the level's rows ``Tl = T[idx]``, their
in-block columns ``Tblock``, per-owner segment reductions and a second
padded copy of ``Tblock`` for the prelude.  On seeded routing models
(hazard zones at and past the chip edge, obstacles) and on random
multi-level MDPs (minimization and maximization, states with no usable
choice, nonzero exit values, warm seeds) both must, bit for bit:

* multiply the same vectors and get the same products in every Bellman
  application, prelude sweep and improvement step;
* hold the same settled policy after the same number of budget ticks;
* produce the same policy-iteration iterates from the same systems;
* return the same ``ValueResult`` fields.

The guard builds and solves a seeded sequence and then checks that each
retained reward-context level holds one nnz-length gather and one
nnz-length index array, and that no job geometry keeps a per-entry choice
or owner array.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core import fastmdp
from repro.core.fastmdp import (
    build_routing_model_fast,
    clear_build_template_cache,
)
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import force_field_from_health
from repro.geometry.rect import Rect
from repro.modelcheck import batch, interval
from repro.modelcheck.compiled import CompiledMDP, solve_reach_avoid_reward
from repro.modelcheck.interval import NonConvergence
from tests import oracles

W, H = 20, 14

#: Routing jobs: a hazard zone past every chip edge with an obstacle, an
#: inner zone, and a zone along the right edge with an obstacle.
JOBS = (
    RoutingJob(Rect(1, 1, 2, 2), Rect(W - 2, H - 2, W - 1, H - 1),
               Rect(0, 0, W + 1, H + 1), (Rect(9, 6, 10, 8),)),
    RoutingJob(Rect(4, 3, 5, 4), Rect(12, 9, 13, 10), Rect(2, 2, 15, 12)),
    RoutingJob(Rect(W - 3, 1, W - 2, 2), Rect(W - 8, H - 3, W - 7, H - 2),
               Rect(W - 10, 0, W + 1, H - 1), (Rect(W - 6, 5, W - 5, 6),)),
)


def routing_model(job: int, seed: int) -> CompiledMDP:
    rng = np.random.default_rng(seed)
    health = np.full((W, H), 3)
    draw = rng.random((W, H))
    health[draw < 0.3] = 2
    health[draw < 0.1] = 1
    forces = force_field_from_health(health).forces
    return build_routing_model_fast(JOBS[job], forces).compiled


@st.composite
def layered_mdps(draw):
    """A random multi-level reward MDP.

    State 0 is the goal, state 1 the hazard (both absorbing), then layers
    of states.  Every choice that avoids the hazard sends at least a
    quarter of its mass to the goal or an earlier layer, so every policy
    of the usable restriction reaches the goal and both ``Rmin`` and
    ``Rmax`` are finite; mass inside a layer makes cyclic levels.  A
    choice touching the hazard is unusable, and a state whose choices all
    touch it owns no usable choice.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    rows: list[dict] = [{0: 1.0}, {1: 1.0}]
    owner = [0, 1]
    reward = [0.0, 0.0]
    below = [0]
    state = 2
    for size in sizes:
        layer = list(range(state, state + size))
        for s in layer:
            for _ in range(draw(st.integers(1, 3))):
                row: dict = {}
                down = draw(st.sampled_from((0.25, 0.5, 1.0)))
                row[draw(st.sampled_from(below))] = down
                rest = 1.0 - down
                if rest:
                    t = draw(st.sampled_from(layer + [0, 1]))
                    if t == 1 and draw(st.integers(0, 3)):
                        t = 0  # keep most choices usable
                    row[t] = row.get(t, 0.0) + rest / 2
                    u = draw(st.sampled_from(layer))
                    row[u] = row.get(u, 0.0) + rest / 2
                rows.append(row)
                owner.append(s)
                reward.append(draw(st.sampled_from((0.5, 1.0, 2.0))))
        below += layer
        state += size
    data, indices, indptr = [], [], [0]
    for row in rows:
        for col in sorted(row):
            indices.append(col)
            data.append(row[col])
        indptr.append(len(indices))
    n = state
    goal = np.zeros(n, dtype=bool)
    goal[0] = True
    hazard = np.zeros(n, dtype=bool)
    hazard[1] = True
    cm = CompiledMDP(
        num_states=n,
        choice_state=np.asarray(owner),
        choice_reward=np.asarray(reward),
        transitions=sparse.csr_matrix(
            (np.asarray(data), np.asarray(indices, dtype=np.int32),
             np.asarray(indptr, dtype=np.int32)), shape=(len(rows), n)),
        labels={"goal": goal, "hazard": hazard},
        initial=2,
    )
    seed = None
    if draw(st.booleans()):
        seed = np.asarray(draw(st.lists(
            st.sampled_from((0.0, 1.0, 2.5, 7.0 / 3)), min_size=n,
            max_size=n)))
    return cm, seed


# --- recording both paths ----------------------------------------------------


def _recorder():
    """A CSR subclass recording ``(level, input, product, matrix)`` per
    matvec, ``level`` being the padded level solved at the time (``None``
    on the oracle path); matrices scipy derives from it (slices,
    comparisons) record too."""

    class Recorder(sparse.csr_matrix):
        seen: list = []
        level = None

        def __matmul__(self, other):
            out = super().__matmul__(other)
            Recorder.seen.append((Recorder.level, np.array(other, copy=True),
                                  np.array(out, copy=True), self))
            return out

    Recorder.seen = []
    return Recorder


def _choice_rows(lvl) -> np.ndarray:
    """The padded row of each level choice, in choice order."""
    real = np.flatnonzero(lvl.choice >= 0)
    return real[np.argsort(lvl.choice[real], kind="stable")]


def _spy(monkeypatch, padded: bool, settled: list, evaluations: list):
    """Record each settled policy (as level choice positions) with the
    budget ticks so far, and each policy evaluation's ``(b, x)``."""
    if padded:
        settle, evaluate = interval._settle, interval._evaluate

        def spy_settle(level, P, base, x, budget, **kw):
            held = settle(level, P, base, x, budget, **kw)
            rank = None if held is None else np.searchsorted(
                np.sort(level.choice[level.choice >= 0]), level.choice[held]
            )
            settled.append((rank, budget.iterations))
            return held

        def spy_evaluate(Ppi, b):
            x = evaluate(Ppi, b)
            evaluations.append((b.copy(), x.copy()))
            return x

        monkeypatch.setattr(interval, "_settle", spy_settle)
        monkeypatch.setattr(interval, "_evaluate", spy_evaluate)
    else:
        settle = oracles.settle_reference
        evaluate = oracles.evaluate_reference

        def spy_settle(layout, base, x, budget, maximize):
            held = settle(layout, base, x, budget, maximize)
            settled.append((held, budget.iterations))
            return held

        def spy_evaluate(Tblock, chosen, b):
            x = evaluate(Tblock, chosen, b)
            evaluations.append((b.copy(), x.copy()))
            return x

        monkeypatch.setattr(oracles, "settle_reference", spy_settle)
        monkeypatch.setattr(oracles, "evaluate_reference", spy_evaluate)


class _Run:
    """One solve of ``cm`` through one path, with every product, settled
    policy and policy evaluation recorded."""

    def __init__(self, cm, minimize, seed, padded, monkeypatch):
        self.settled: list = []
        self.evaluations: list = []
        self.error = None
        self.result = None
        Rec = _recorder()
        _spy(monkeypatch, padded, self.settled, self.evaluations)

        def padded_level(lower, upper, T, idx, own, states, reward, budget,
                         **kw):
            lvl = interval._SlotLayout.of(T, idx, own, states)
            Rec.level = lvl
            P = lvl.matrix(T)
            interval._solve_reward_level(
                lower, upper, lvl,
                Rec((P.data, P.indices, P.indptr), shape=P.shape),
                lvl.padded(reward, not kw["minimize"]), budget, **kw,
            )

        def oracle_level(lower, upper, T, *args, **kw):
            oracles.solve_reward_level_reference(
                lower, upper, Rec((T.data, T.indices, T.indptr),
                                  shape=T.shape), *args, **kw,
            )

        try:
            self.result = oracles.solve_reward_reference(
                cm, minimize=minimize, seed=seed, max_iterations=20_000,
                solve_level=padded_level if padded else oracle_level,
            )
        except NonConvergence as exc:
            self.error = str(exc)
        self.matvecs = Rec.seen


def assert_same_products(new: list, ref: list) -> None:
    assert len(new) == len(ref)
    for (lvl, u, w, _), (_, v, y, M) in zip(new, ref):
        m = lvl.states.size
        rows = _choice_rows(lvl)
        # Inputs: over all states (the level's rows) or over the level's
        # states (its in-block columns, exits reading exact zeros).
        if M.shape[1] == m:
            assert np.array_equal(u[lvl.inner], v)
            exits = np.ones(lvl.cols.size, dtype=bool)
            exits[lvl.inner] = False
            assert not np.any(u[exits])
        else:
            assert np.array_equal(u, v[lvl.cols])
        # Products: per choice, or per padded row for the old prelude.
        if getattr(M, "slot_major", False):
            assert np.array_equal(w, y)
        else:
            assert np.array_equal(w[rows], y)
            pads = np.ones(w.size, dtype=bool)
            pads[rows] = False
            assert not np.any(w[pads])


def assert_same_records(new_settled, ref_settled, new_evals, ref_evals):
    assert len(new_settled) == len(ref_settled)
    for (a, ta), (b, tb) in zip(new_settled, ref_settled):
        assert ta == tb
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)
    assert len(new_evals) == len(ref_evals)
    # An evaluation against an infinite exit value reads NaN on both
    # paths; identical means NaN in the same places.
    for (ba, xa), (bb, xb) in zip(new_evals, ref_evals):
        assert np.array_equal(ba, bb, equal_nan=True)
        assert np.array_equal(xa, xb, equal_nan=True)


def assert_same_run(new: _Run, ref: _Run) -> None:
    assert new.error == ref.error
    assert_same_products(new.matvecs, ref.matvecs)
    assert_same_records(new.settled, ref.settled, new.evaluations,
                        ref.evaluations)
    if ref.result is not None:
        for a, b in zip(new.result, ref.result):
            assert np.array_equal(a, b)


def _both(cm, minimize, seed):
    with pytest.MonkeyPatch.context() as mp:
        new = _Run(cm, minimize, seed, True, mp)
    with pytest.MonkeyPatch.context() as mp:
        ref = _Run(cm, minimize, seed, False, mp)
    return new, ref


class TestAgainstSegmentPath:
    @settings(max_examples=12, deadline=None)
    @given(job=st.integers(0, len(JOBS) - 1), seed=st.integers(0, 10_000),
           warm=st.sampled_from((None, 0.75, 1.25)))
    def test_routing_models(self, job, seed, warm):
        cm = routing_model(job, seed)
        warm_seed = None
        if warm is not None:
            # Below the fixpoint (accepted) or above it (rejected).
            warm_seed = warm * solve_reach_avoid_reward(cm).values
        new, ref = _both(cm, True, warm_seed)
        assert new.error is None
        assert new.evaluations  # the direct solve ran
        assert_same_run(new, ref)

    @settings(max_examples=150, deadline=None)
    @given(mdp=layered_mdps(), minimize=st.booleans())
    def test_layered_mdps(self, mdp, minimize):
        cm, seed = mdp
        new, ref = _both(cm, minimize, seed)
        assert_same_run(new, ref)

    @settings(max_examples=10, deadline=None)
    @given(job=st.integers(0, len(JOBS) - 1), seed=st.integers(0, 10_000))
    def test_value_result_of_the_production_solve(self, job, seed):
        cm = routing_model(job, seed)
        batch.clear_context_cache()
        got = solve_reach_avoid_reward(cm)
        values, choice, lower, upper, iterations = \
            oracles.solve_reward_reference(cm)
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.choice, choice)
        assert np.array_equal(got.lower, lower)
        assert np.array_equal(got.upper, upper)
        assert got.iterations == iterations


# --- levels with states that own no choice and exit values -------------------


@st.composite
def raw_levels(draw):
    """A level drawn directly: ``T`` over ``n`` states, the level's sorted
    states (some owning no level choice) and its choices, choice rewards
    and an ``outside`` vector with nonzero (and infinite) exit values."""
    n = draw(st.integers(2, 9))
    states = np.asarray(sorted(draw(st.lists(
        st.integers(0, n - 1), min_size=1, max_size=n, unique=True))))
    rows, owner = [], []
    for s in range(n):
        for _ in range(draw(st.integers(0, 3))):
            succ = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                 max_size=3, unique=True))
            rows.append({t: draw(st.sampled_from((0.125, 0.25, 0.5 / 3)))
                         for t in succ})
            owner.append(s)
    if not rows:
        rows.append({0: 0.5})
        owner.append(int(states[0]))
    data, indices, indptr = [], [], [0]
    for row in rows:
        for col in sorted(row):
            indices.append(col)
            data.append(row[col])
        indptr.append(len(indices))
    T = sparse.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int32),
         np.asarray(indptr, dtype=np.int32)), shape=(len(rows), n))
    owner = np.asarray(owner)
    mine = np.isin(owner, states)
    keep = np.asarray(draw(st.lists(st.booleans(), min_size=owner.size,
                                    max_size=owner.size)))
    if draw(st.booleans()):
        keep[:] = True
    idx = np.flatnonzero(mine & keep)
    reward = np.asarray(draw(st.lists(
        st.sampled_from((0.0, 1.0, 2.5, 7.0 / 3)), min_size=owner.size,
        max_size=owner.size)))
    outside = np.asarray(draw(st.lists(
        st.sampled_from((0.0, 0.5, 3.0, 7.0 / 3, np.inf)), min_size=n,
        max_size=n)))
    return T, idx, owner[idx], states, reward, outside


class TestRawLevels:
    @settings(max_examples=300, deadline=None)
    @given(level=raw_levels(), maximize=st.booleans(),
           vec=st.data())
    def test_bellman_application(self, level, maximize, vec):
        T, idx, own, states, reward, _ = level
        lvl = interval._SlotLayout.of(T, idx, own, states)
        v = np.asarray(vec.draw(st.lists(
            st.sampled_from((0.0, 1.0, 0.5, 7.0 / 3, np.inf)),
            min_size=T.shape[1], max_size=T.shape[1])))
        Tl, _, seg = oracles.level_rows_reference(T, idx, own, states)
        want = seg.opt(reward[idx] + Tl @ v, maximize)[states]
        P = lvl.matrix(T)
        got = lvl.opt(lvl.padded(reward, maximize) + P @ v[lvl.cols],
                      maximize)
        assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(level=raw_levels(), maximize=st.booleans())
    def test_policy_fixpoint(self, level, maximize):
        T, idx, own, states, reward, outside = level
        block = np.zeros(T.shape[1], dtype=bool)
        block[states] = True
        lvl = interval._SlotLayout.of(T, idx, own, states)
        runs = []
        for padded in (True, False):
            settled, evaluations = [], []
            with pytest.MonkeyPatch.context() as mp:
                _spy(mp, padded, settled, evaluations)
                budget = interval._Budget(100_000, "t")
                if padded:
                    x = interval._policy_fixpoint(
                        lvl, lvl.matrix(T), lvl.padded(reward, maximize),
                        outside, budget, maximize=maximize)
                else:
                    Tl, Tblock, _ = oracles.level_rows_reference(
                        T, idx, own, states)
                    x = oracles.policy_fixpoint_reference(
                        states, Tl, Tblock, reward[idx], own, outside, block,
                        budget, maximize)
            runs.append((x, budget.iterations, settled, evaluations))
        (xa, ta, sa, ea), (xb, tb, sb, eb) = runs
        assert ta == tb
        assert (xa is None) == (xb is None)
        if xa is not None:
            assert np.array_equal(xa, xb)
        assert len(sa) == 1
        assert_same_records(sa, sb, ea, eb)

    def test_state_without_choice_is_an_all_pad_column(self):
        # States 4 and 9; state 9 owns no level choice.
        T = sparse.csr_matrix(np.array([[0.0] * 4 + [0.5] + [0.0] * 5,
                                        [0.25] + [0.0] * 9]))
        lvl = interval._SlotLayout.of(T, np.array([0, 1]),
                                      np.array([4, 4]), np.array([4, 9]))
        assert (lvl.slots, lvl.choice.tolist()) == (2, [0, -1, 1, -1])
        assert lvl.cols.tolist() == [0, 4, 9]
        for maximize, worst in ((False, np.inf), (True, -np.inf)):
            q = lvl.padded(np.array([1.0, 2.0]), maximize) \
                + lvl.matrix(T) @ np.ones(3)
            assert lvl.opt(q, maximize)[1] == worst
        budget = interval._Budget(10, "t")
        assert interval._settle(lvl, lvl.matrix(T), np.zeros(4), np.zeros(2),
                                budget, maximize=False) is None
        assert budget.iterations == 1


# --- what stays retained -----------------------------------------------------


def _arrays(obj, path=""):
    """Every ndarray held by ``obj`` and the dataclasses it nests."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            yield from _arrays(item, f"{path}[{i}]")


class TestRetainedState:
    @pytest.fixture(scope="class")
    def sequence(self):
        clear_build_template_cache()
        models = []
        for job in range(len(JOBS)):
            for seed in range(3):
                cm = routing_model(job, 100 + seed)
                solve_reach_avoid_reward(cm)
                models.append(cm)
        yield models
        clear_build_template_cache()

    def test_each_level_holds_one_gather_and_one_index_array(self, sequence):
        checked = 0
        for cm in sequence:
            ctx = cm.contexts[("reward", "goal", "hazard")]
            T = interval._rows(cm)
            lens = np.diff(T.indptr)
            in_block = np.zeros(cm.num_states, dtype=bool)
            for lvl in ctx.levels:
                mine = ctx.usable & np.isin(cm.choice_state, lvl.states)
                nnz = int(lens[mine].sum())
                in_block[:] = False
                in_block[lvl.states] = True
                rows = np.repeat(np.arange(lens.size), lens)
                nnz_block = int((mine[rows] & in_block[T.indices]).sum())
                per_entry = [
                    (path, a) for path, a in _arrays(lvl)
                    if a.dtype.kind in "iu" and a.size in (nnz, nnz_block)
                ]
                assert len(per_entry) == 2, [p for p, _ in per_entry]
                assert all(a.size == nnz for _, a in per_entry)
                assert lvl.gather.dtype == np.int32
                checked += 1
        assert checked >= len(sequence)

    def test_no_geometry_keeps_per_entry_choices_or_owners(self, sequence):
        assert fastmdp._GEOMETRIES
        for entry in fastmdp._GEOMETRIES.values():
            geo = entry.geometry
            assert not hasattr(geo, "choice")
            assert not hasattr(geo, "owner")
            per_entry = [path for path, a in _arrays(geo)
                         if a.ndim == 1 and a.size == geo.size]
            assert per_entry == [".target"]
