"""Policy evaluation in condensation order, and extraction from segments.

Policy iteration evaluates each policy by factoring ``I - P_pi`` with its
states in the policy's condensation order and diagonal pivots
(``interval._evaluate``).  The values must match a dense
``np.linalg.solve`` — on direct levels of seeded routing models and on
policies of random blocks, acyclic ones and ones with strong components
of two and more states — and an improper policy (a component it never
leaves) must fail the factorization so the solve falls back to the exit
policy and still certifies.

Strategy extraction reduces per owner over the support's segments
(``interval._Segments``), policy improvement over the padded level's
``(slots, states)`` grid (``interval._SlotLayout``).  They must choose
exactly what the scatter (``np.minimum.at``) and ``np.unique``
reductions they replaced choose (``tests/oracles.py``), ±inf, exact ties
and empty masks included, and NaN for extraction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro import perf
from repro.core.fastmdp import build_routing_model_fast
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import force_field_from_health
from repro.geometry.rect import Rect
from repro.modelcheck import batch, compiled, interval
from repro.modelcheck.compiled import CompiledMDP, solve_reach_avoid_reward
from tests.oracles import (
    argopt_choice_reference,
    scatter_opt_reference,
    segment_argopt_reference,
)
from tests.test_modelcheck import assert_certified


def dense_values(Ppi, b) -> np.ndarray:
    n = Ppi.shape[0]
    return np.linalg.solve(np.eye(n) - Ppi.toarray(), b)


def proper(Ppi) -> bool:
    """Every state reaches exit mass (a row summing below 1) under the
    policy — the graph test for a nonsingular ``I - P_pi``."""
    reached = np.asarray(Ppi.sum(axis=1)).ravel() < 1.0 - 1e-9
    support = (Ppi > 0).astype(np.int8)
    while True:
        more = reached | ((support @ reached.astype(np.int8)) > 0)
        if np.array_equal(more, reached):
            return bool(reached.all())
        reached = more


def component_sizes(Ppi) -> np.ndarray:
    _, label = sparse.csgraph.connected_components(
        Ppi, directed=True, connection="strong"
    )
    return np.bincount(label)


def _routing_levels():
    """Direct levels of seeded routing models, each with proper policies.

    Yields ``(states, reward, blocks)``: the level's states, its padded
    choice rewards, and the policy blocks ``P_pi`` with their padded rows
    — of the solve's optimal policy, the backward-BFS exit policy, and
    exit policies with random states switched to random choices that
    stay proper.  (Arbitrary routing policies are mostly improper: a
    droplet moved back and forth never leaves.)
    """
    W, H = 24, 16
    rng = np.random.default_rng(5)
    out = []
    for k in range(3):
        health = np.full((W, H), 3)
        draw = rng.random((W, H))
        health[draw < 0.3] = 2
        health[draw < 0.1] = 1
        zx, zy = 2 + k, 1 + k
        job = RoutingJob(Rect(zx + 1, zy + 1, zx + 2, zy + 2),
                         Rect(zx + 9, zy + 6, zx + 10, zy + 7),
                         Rect(zx, zy, zx + 11, zy + 8))
        forces = force_field_from_health(health).forces
        cm = build_routing_model_fast(job, forces).compiled
        optimal = cm.first_choice() + solve_reach_avoid_reward(cm).choice
        ctx = batch.build_context(cm, "goal", "hazard")
        T = interval._rows(cm)
        for lvl in ctx.levels:
            m = lvl.states.size
            if not (m > 4 and np.all(lvl.choice[:m] >= 0)):
                continue
            P = lvl.matrix(T)
            row_of = np.full(cm.num_choices, -1)
            real = np.flatnonzero(lvl.choice >= 0)
            row_of[lvl.choice[real]] = real
            exit_policy = interval._exit_policy(lvl, P)
            policies = [row_of[optimal[lvl.states]], exit_policy]
            counts = (lvl.choice.reshape(lvl.slots, m) >= 0).sum(axis=0)
            while len(policies) < 8:
                switch = rng.random(m) < 0.2
                chosen = np.where(
                    switch,
                    (rng.random(m) * counts).astype(int) * m + np.arange(m),
                    exit_policy,
                )
                if proper(lvl.policy_block(P, chosen)):
                    policies.append(chosen)
            out.append((lvl.states, lvl.padded(cm.choice_reward, False),
                        [(lvl.policy_block(P, c), c) for c in policies]))
    return out


ROUTING = _routing_levels()


class TestRoutingBlocks:
    def test_levels_were_found(self):
        assert len(ROUTING) >= 3
        assert max(states.size for states, *_ in ROUTING) > 50

    @pytest.mark.parametrize("k", range(3))
    def test_matches_dense_solve(self, k):
        _, reward, blocks = ROUTING[k]
        rng = np.random.default_rng(k)
        for Ppi, chosen in blocks:
            assert proper(Ppi)
            b = reward[chosen] + rng.random(chosen.size)
            x = interval._evaluate(Ppi, b)
            np.testing.assert_allclose(x, dense_values(Ppi, b), rtol=1e-9)

    def test_some_policies_are_cyclic(self):
        sizes = [component_sizes(Ppi).max()
                 for _, _, blocks in ROUTING for Ppi, _ in blocks]
        assert max(sizes) >= 2
        assert min(sizes) == 1

    def test_acyclic_policy_factors_without_fill(self):
        factored = 0
        for _, _, blocks in ROUTING:
            for Ppi, _ in blocks:
                if component_sizes(Ppi).max() > 1:
                    continue
                # M is the transpose of I - P_pi in condensation order.
                M, _ = interval._policy_matrix(Ppi)
                assert sparse.triu(M, 1).nnz == 0  # lower triangular
                lu = sparse_linalg.splu(M, permc_spec="NATURAL",
                                        diag_pivot_thresh=0.0)
                # L holds M's strict lower part and a unit diagonal, U the
                # pivots: no fill, and no row exchanges.
                assert lu.L.nnz + lu.U.nnz == M.nnz + M.shape[0]
                assert np.array_equal(lu.perm_r, np.arange(M.shape[0]))
                factored += 1
        assert factored


@st.composite
def cyclic_blocks(draw):
    """A block whose first choices chain into strong components.

    States are split into cycles of the drawn sizes; each state's first
    choice moves to the next state of its cycle with most of its mass
    and keeps some exit mass, so the first-choice policy is proper with
    strong components of exactly those sizes.  Extra choices per state
    go anywhere in the block.
    """
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    n = sum(sizes)
    perm = draw(st.permutations(range(n)))
    rows, own = [], []
    start = 0
    nxt = {}
    for size in sizes:
        members = [perm[start + i] for i in range(size)]
        for i, s in enumerate(members):
            nxt[s] = members[(i + 1) % size]
        start += size
    for s in range(n):
        row = {}
        stay = draw(st.sampled_from((0.0, 0.25, 0.5)))
        if stay:
            row[s] = stay
        # Stray mass may merge cycles into larger components.
        for t in draw(st.lists(st.integers(0, n - 1), max_size=2,
                               unique=True)):
            if t not in (s, nxt[s]):
                row[t] = 0.0625
        if nxt[s] != s:
            row[nxt[s]] = row.get(nxt[s], 0.0) + 0.25
        rows.append(row)
        own.append(s)
        for _ in range(draw(st.integers(0, 2))):
            succ = draw(st.lists(st.integers(0, n - 1), max_size=3,
                                 unique=True))
            rows.append({t: 0.3 for t in succ})
            own.append(s)
    order = np.argsort(own, kind="stable")
    own = np.asarray(own)[order]
    rows = [rows[i] for i in order]
    data, indices, indptr = [], [], [0]
    for row in rows:
        for col in sorted(row):
            indices.append(col)
            data.append(row[col])
        indptr.append(len(indices))
    Tblock = sparse.csr_matrix(
        (np.asarray(data, dtype=float), np.asarray(indices, dtype=np.int32),
         np.asarray(indptr, dtype=np.int32)),
        shape=(len(rows), n),
    )
    first = np.flatnonzero(np.r_[True, own[1:] != own[:-1]])
    b = np.asarray(draw(st.lists(st.sampled_from((0.5, 1.0, 2.0, 7.0 / 3)),
                                 min_size=n, max_size=n)))
    return Tblock, first, b, sorted(sizes)


class TestCyclicPolicies:
    @settings(max_examples=200, deadline=None)
    @given(block=cyclic_blocks())
    def test_matches_dense_solve(self, block):
        Tblock, chosen, b, sizes = block
        Ppi = Tblock[chosen]
        # Extra mass may have merged the drawn cycles; the components are
        # at least as large as drawn.
        assert component_sizes(Ppi).max() >= max(sizes)
        if not proper(Ppi):
            return
        perf.reset()
        x = interval._evaluate(Ppi, b)
        np.testing.assert_allclose(
            x, dense_values(Ppi, b), rtol=1e-10, atol=1e-12
        )
        cyclic = component_sizes(Ppi).max() > 1
        assert perf.get("vi.pi.cyclic") == int(cyclic)
        assert perf.get("vi.pi.factorizations") == 1

    @pytest.mark.parametrize("size", [2, 3, 6])
    def test_single_cycle(self, size):
        # state s moves to s + 1 (mod size) w.p. 0.5, stays w.p. 0.25
        Tblock = sparse.csr_matrix(
            0.5 * np.roll(np.eye(size), 1, axis=1) + 0.25 * np.eye(size)
        )
        b = np.arange(1.0, size + 1.0)
        perf.reset()
        x = interval._evaluate(Tblock, b)
        np.testing.assert_allclose(x, dense_values(Tblock, b), rtol=1e-12)
        assert perf.get("vi.pi.cyclic") == 1

    @pytest.mark.parametrize("matrix", [
        [[0.0, 1.0], [1.0, 0.0]],  # a closed 2-cycle
        [[1.0, 0.0], [0.5, 0.25]],  # a certain self-loop
        [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    ])
    def test_improper_policy_fails_the_factorization(self, matrix):
        Ppi = sparse.csr_matrix(np.asarray(matrix))
        with pytest.raises(RuntimeError):
            interval._evaluate(Ppi, np.ones(Ppi.shape[0]))


def _trap_mdp() -> CompiledMDP:
    """States 0 and 1 can hand a droplet back and forth forever (the
    improper policy) or each reach the goal (state 2)."""
    # choices: 0 -> 1 (cost 1); 0 -> goal or stay (cost 3); 1 -> 0
    # (cost 1); 1 -> goal or 0 (cost 5); the goal's loop
    rows = [0, 1, 1, 2, 3, 3, 4]
    cols = [1, 2, 0, 0, 2, 0, 2]
    vals = [1.0, 0.5, 0.5, 1.0, 0.5, 0.5, 1.0]
    t = sparse.csr_matrix((vals, (rows, cols)), shape=(5, 3))
    return CompiledMDP(
        num_states=3,
        choice_state=np.array([0, 0, 1, 1, 2]),
        choice_reward=np.array([1.0, 3.0, 1.0, 5.0, 0.0]),
        transitions=t,
        labels={"goal": np.array([False, False, True]),
                "hazard": np.zeros(3, dtype=bool)},
        initial=0,
    )


def test_improper_start_certifies_through_the_exit_policy(monkeypatch):
    # The settling prelude is made to hand over the improper policy
    # (0 -> 1, 1 -> 0: choices 0 and 2, padded rows 0 and 1); its
    # evaluation fails, the exit policy takes over and the solve
    # certifies the true values.
    calls = []
    exit_policy = interval._exit_policy

    def spy(*args):
        calls.append(args)
        return exit_policy(*args)

    monkeypatch.setattr(interval, "_settle",
                        lambda *a, **k: np.array([0, 1]))
    monkeypatch.setattr(interval, "_exit_policy", spy)
    batch.clear_context_cache()
    try:
        res = solve_reach_avoid_reward(_trap_mdp(), epsilon=1e-10)
    finally:
        batch.clear_context_cache()
    assert calls
    assert_certified(res, 1e-10)
    # x0 = 3 + x0 / 2 = 6 by its goal move; x1 = 1 + x0 = 7 beats
    # 5 + x0 / 2 = 8
    np.testing.assert_allclose(res.values[:2], [6.0, 7.0], atol=1e-9)


# --- extraction and argopt from segments ---------------------------------

# 1 + 5e-7 lies inside epsilon = 1e-6 of 1 but outside the tie band.
VALUES = (0.0, 1.0, 1.0 + 1e-12, 1.0 + 5e-7, 1.0 + 0.05, 2.5, -3.0,
          np.inf, -np.inf, np.nan)


@st.composite
def owner_blocks(draw):
    """Sorted owners over ``n`` states (some with no choice), a mask and
    per-choice values with exact ties, near ties, ±inf and NaN."""
    n = draw(st.integers(1, 8))
    counts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    owners = np.repeat(np.arange(n), counts)
    q = np.asarray(draw(st.lists(st.sampled_from(VALUES),
                                 min_size=owners.size,
                                 max_size=owners.size)), dtype=float)
    kind = draw(st.sampled_from(("all", "none", "random")))
    if kind == "all":
        mask = np.ones(owners.size, dtype=bool)
    elif kind == "none":
        mask = np.zeros(owners.size, dtype=bool)
    else:
        mask = np.asarray(draw(st.lists(st.booleans(), min_size=owners.size,
                                        max_size=owners.size)), dtype=bool)
    return n, owners, q, mask


def _extract_reference(owners, q, n, maximize, band):
    with np.errstate(invalid="ignore"):  # NaN q: the scatter warns
        per_state = scatter_opt_reference(owners, q, n, maximize)
    return per_state, argopt_choice_reference(owners, q, per_state, n, band)


class TestSegments:
    @settings(max_examples=400, deadline=None)
    @given(block=owner_blocks(), maximize=st.booleans(),
           band=st.sampled_from((0.0, 0.1, 1e-7)))
    def test_extraction_matches_scatter_and_unique(self, block, maximize,
                                                   band):
        n, owners, q, mask = block
        own, qm = owners[mask], q[mask]
        seg = interval._Segments.of(own, n)
        want_opt, want = _extract_reference(own, qm, n, maximize, band)
        np.testing.assert_array_equal(seg.opt(qm, maximize), want_opt)
        first = seg.canonical(qm, maximize, band)
        got = np.full(n, -1, dtype=np.int64)
        got[seg.owners[first >= 0]] = first[first >= 0]
        assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(block=owner_blocks(), maximize=st.booleans())
    def test_argopt_matches_reference(self, block, maximize):
        n, owners, q, mask = block
        own, qm = owners[mask], q[mask]
        lvl = interval._SlotLayout.of(
            sparse.csr_matrix((own.size, n)), np.arange(own.size), own,
            np.arange(n),
        )
        rows = lvl.argopt(lvl.padded(qm, maximize), maximize)
        want = segment_argopt_reference(own, qm, maximize)
        got = lvl.choice[rows[np.unique(own)]]
        # A NaN optimum has no equal choice: the reference gives the block
        # size, the grid reduction the first NaN (policy improvement never
        # sees NaN: its q-values are finite or +inf).
        nan = want == own.size
        assert np.array_equal(got[~nan], want[~nan])
        assert np.all(np.isnan(qm[got[nan]]))

    @settings(max_examples=200, deadline=None)
    @given(block=owner_blocks(), maximize=st.booleans(),
           rewarded=st.booleans(), data=st.data())
    def test_model_extraction_matches_reference(self, block, maximize,
                                                rewarded, data):
        n, owners, _, mask = block
        if owners.size == 0:
            return
        rows, cols, vals = [], [], []
        for c in range(owners.size):
            for t in data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                        max_size=3, unique=True)):
                rows.append(c)
                cols.append(t)
                vals.append(data.draw(st.sampled_from((0.25, 0.5, 1.0))))
        cm = CompiledMDP(
            num_states=n, choice_state=owners,
            choice_reward=np.asarray(data.draw(st.lists(
                st.sampled_from((0.0, 1.0, 2.0)), min_size=owners.size,
                max_size=owners.size)), dtype=float),
            transitions=sparse.csr_matrix((vals, (rows, cols)),
                                          shape=(owners.size, n)),
            labels={}, initial=0,
        )
        values = np.asarray(data.draw(st.lists(
            st.sampled_from(VALUES), min_size=n, max_size=n)), dtype=float)
        eps = 1e-6
        rewards = cm.choice_reward if rewarded else None
        got = compiled._extract(cm, values, mask, rewards, maximize, eps)
        with np.errstate(invalid="ignore"):
            q = cm.transitions @ values
            if rewarded:
                q = cm.choice_reward + q
        _, want = _extract_reference(owners[mask], q[mask], n, maximize,
                                     compiled.TIE_BAND * eps)
        idx = np.flatnonzero(mask)
        expect = np.full(n, -1, dtype=np.int64)
        expect[want >= 0] = idx[want[want >= 0]]
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("maximize", [False, True])
    def test_model_extraction_band_is_tie_band_epsilons(self, maximize):
        # State 0's first choice lies 0.5 epsilon from the optimum: inside
        # the certificate, outside the tie band, so it must not win; its
        # third choice lies 0.05 epsilon away and ties with the second.
        eps = 1e-6
        sign = 1.0 if maximize else -1.0
        cm = CompiledMDP(
            num_states=4, choice_state=np.array([0, 0, 0]),
            choice_reward=np.zeros(3),
            transitions=sparse.csr_matrix(
                (np.ones(3), ([0, 1, 2], [1, 2, 3])), shape=(3, 4)),
            labels={}, initial=0,
        )
        values = np.array([0.0, 1.0 - sign * 0.5 * eps, 1.0,
                           1.0 - sign * 0.05 * eps])
        for mask in (np.ones(3, dtype=bool), np.array([True, False, True])):
            got = compiled._extract(cm, values, mask, None, maximize, eps)
            assert got.tolist() == [1 if mask[1] else 2, -1, -1, -1]

    def test_unsorted_owners_are_rejected(self):
        with pytest.raises(ValueError):
            interval._Segments.of(np.array([0, 2, 1]), 3)
