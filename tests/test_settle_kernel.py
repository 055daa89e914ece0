"""Differential test of the slot-major settling kernel.

``interval._settle`` sweeps a level's padded matrix
(``interval._SlotLayout``): its choices laid out slot-major and padded to
a ``(slots, states)`` rectangle, with the level's exit columns read as
exact zeros.  The reference below is the segment-reduction prelude over
the in-level rows (``np.minimum.reduceat`` over each state's contiguous
choices, greedy ties broken toward the lowest choice index).  Over random
levels — minimization and maximization, exact ties, single-choice states,
states that own no choice and rows with exit mass — both must hold the
same policy, feed the same iterate into every sweep and tick the budget
the same number of times.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.modelcheck import interval
from tests.oracles import segment_argopt_reference


def reference_settle(Tblock, base, own, n, x, budget, maximize):
    """The per-state segment-reduction prelude (one model, one block)."""
    starts = np.flatnonzero(np.r_[True, own[1:] != own[:-1]])
    vred = np.maximum.reduceat if maximize else np.minimum.reduceat
    held = None
    stable = 0
    for k in range(interval._PI_PRELUDE_MAX):
        budget.tick()
        q = base + Tblock @ x
        if own.size and (k + 1) % interval._PI_PRELUDE_CHECK:
            x = vred(q, starts)
            if x.size != n:
                return None
            continue
        greedy = segment_argopt_reference(own, q, maximize)
        if greedy.size != n:
            return None
        best = q[greedy]
        x = best
        if held is None:
            held = greedy
            continue
        cur = q[held]
        margin = interval._CHECK_RTOL * (1.0 + np.abs(cur))
        improve = (best > cur + margin) if maximize else (best < cur - margin)
        if improve.any():
            held = np.where(improve, greedy, held)
            stable = 0
        else:
            stable += 1
            if stable >= interval._PI_PRELUDE_STABLE:
                break
    return held


class _Recorder(sparse.csr_matrix):
    """A CSR matrix that records every vector it is multiplied with."""

    seen: list

    def __matmul__(self, other):
        self.seen.append(np.array(other, copy=True))
        return super().__matmul__(other)


def _recording(data, indices, indptr, shape, seen):
    out = _Recorder((data, indices, indptr), shape=shape)
    out.seen = seen
    return out


@st.composite
def blocks(draw):
    """A random level: sorted owners, in-level rows with exit mass left.

    Returns the level's states (spread out over global ids), the owner of
    each choice, the in-level rows ``Tblock``, the full rows ``T`` (the
    same rows plus entries to exit states between the level's states),
    per-choice bases and a starting iterate.
    """
    n = draw(st.integers(1, 7))
    counts = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    if draw(st.booleans()) and draw(st.booleans()):
        counts[draw(st.integers(0, n - 1))] = 0  # a state with no choice
    if draw(st.booleans()):
        counts = [min(c, 1) for c in counts]  # single-choice states
    rows, bases = [], []
    for c in counts:
        for _ in range(c):
            if rows and draw(st.integers(0, 3)) == 0:
                # An exact duplicate of the previous choice: an exact tie.
                rows.append(dict(rows[-1]))
                bases.append(bases[-1])
                continue
            succ = draw(st.lists(st.integers(0, n - 1), max_size=3,
                                 unique=True))
            rows.append({s: draw(st.sampled_from((0.125, 0.25, 0.5 / 3)))
                         for s in succ})
            bases.append(draw(st.sampled_from((1.0, 2.0, 2.5, 7.0 / 3))))
    exits = [draw(st.lists(st.integers(0, n), max_size=2, unique=True))
             for _ in rows]
    own = np.repeat(np.arange(n), counts)
    # Owners are global state ids: spread the level's states out, with an
    # exit state between each two.
    states = 3 * np.arange(n) + 2

    def csr(entries, width):
        data, indices, indptr = [], [], [0]
        for row in entries:
            for col in sorted(row):
                indices.append(col)
                data.append(row[col])
            indptr.append(len(indices))
        return sparse.csr_matrix(
            (np.asarray(data, dtype=float),
             np.asarray(indices, dtype=np.int32),
             np.asarray(indptr, dtype=np.int32)),
            shape=(len(entries), width),
        )

    Tblock = csr(rows, n)
    full = []
    for row, out in zip(rows, exits):
        wide = {int(states[s]): p for s, p in row.items()}
        wide.update({3 * e + 1: 0.0625 for e in out})
        full.append(wide)
    T = csr(full, 3 * n + 2)
    x0 = np.asarray(draw(st.lists(
        st.sampled_from((0.0, 1.0, 3.0, 0.5)), min_size=n, max_size=n)))
    return states, states[own], Tblock, T, np.asarray(bases), x0


def _level(states, own, T):
    """The padded level of every row of ``T``."""
    return interval._SlotLayout.of(T, np.arange(own.size), own, states)


def _run_both(block, maximize):
    states, own, Tblock, T, base, x0 = block
    n = states.size
    ref_seen: list = []
    ref_T = _recording(Tblock.data, Tblock.indices, Tblock.indptr,
                       Tblock.shape, ref_seen)
    ref_budget = interval._Budget(100_000, "ref")
    ref = reference_settle(ref_T, base, own, n, x0.copy(), ref_budget,
                           maximize)

    new_seen: list = []
    level = _level(states, own, T)
    P = level.matrix(T)
    new_budget = interval._Budget(100_000, "new")
    held = interval._settle(
        level, _recording(P.data, P.indices, P.indptr, P.shape, new_seen),
        level.padded(base, maximize), x0.copy(), new_budget,
        maximize=maximize,
    )
    # Every sweep reads the exits as exact zeros; compare the level part.
    exits = np.ones(level.cols.size, dtype=bool)
    exits[level.inner] = False
    assert not any(np.any(u[exits]) for u in new_seen)
    new_seen = [u[level.inner] for u in new_seen]
    new = None if held is None else level.choice[held].astype(np.int64)
    return (ref, ref_seen, ref_budget.iterations), \
        (new, new_seen, new_budget.iterations)


class TestSettleKernel:
    @settings(max_examples=150, deadline=None)
    @given(block=blocks(), maximize=st.booleans())
    def test_matches_segment_reduction_reference(self, block, maximize):
        (ref, ref_seen, ref_ticks), (new, new_seen, new_ticks) = \
            _run_both(block, maximize)
        assert new_ticks == ref_ticks
        if ref is None:
            assert new is None
        else:
            assert new is not None
            assert np.array_equal(new, ref)
        if new is not None:
            assert len(new_seen) == len(ref_seen)
            for a, b in zip(new_seen, ref_seen):
                assert np.array_equal(a, b)

    def test_state_without_choice_gives_none_after_one_tick(self):
        states = np.array([0, 1, 2])
        own = np.array([0, 0, 2])  # state 1 owns no choice
        T = sparse.csr_matrix(np.array([[0.0, 0.5, 0.0],
                                        [0.0, 0.0, 0.25],
                                        [0.5, 0.0, 0.0]]))
        level = _level(states, own, T)
        assert level.choice.reshape(level.slots, 3)[:, 1].tolist() == [-1, -1]
        budget = interval._Budget(100, "t")
        held = interval._settle(level, level.matrix(T),
                                level.padded(np.ones(3), False), np.zeros(3),
                                budget, maximize=False)
        assert held is None
        assert budget.iterations == 1

    def test_exact_tie_takes_lowest_choice_index(self):
        # State 0 has three identical choices; state 1 one choice.
        states = np.array([0, 1])
        own = np.array([0, 0, 0, 1])
        row = [0.0, 0.5]
        T = sparse.csr_matrix(np.array([row, row, row, [0.25, 0.0]]))
        level = _level(states, own, T)
        for maximize in (False, True):
            held = interval._settle(
                level, level.matrix(T),
                level.padded(np.array([1.0, 1.0, 1.0, 2.0]), maximize),
                np.zeros(2), interval._Budget(1000, "t"), maximize=maximize,
            )
            assert level.choice[held].tolist() == [0, 3]

    def test_layout_rows_are_the_block_rows_slot_major(self):
        states = np.array([4, 9])
        own = np.array([4, 9, 9])
        T = sparse.csr_matrix((
            np.array([0.25, 0.5, 0.125, 0.25, 0.25]),
            np.array([4, 9, 4, 6, 9]),
            np.array([0, 2, 4, 5]),
        ), shape=(3, 10))
        level = _level(states, own, T)
        assert (level.states.size, level.slots) == (2, 2)
        # row j * n + s holds state s's j-th choice; row 2 pads state 0
        assert level.choice.tolist() == [0, 1, -1, 2]
        assert np.flatnonzero(level.choice < 0).tolist() == [2]
        # columns: the level's states and the exit state 6, ascending
        assert level.cols.tolist() == [4, 6, 9]
        assert level.inner.tolist() == [0, 2]
        padded = level.matrix(T).toarray()
        assert np.array_equal(padded[[0, 1, 3]], T.toarray()[:, [4, 6, 9]])
        assert not padded[2].any()
