"""Graph-based qualitative precomputation over compiled MDPs.

Before any numeric iteration the solver pins every state whose reach-avoid
probability is *exactly* 0 or 1, using only the support (structure) of the
transition relation — the classic PRISM-style precomputation algorithms:

* ``Pmax`` semantics: :func:`prob0a_mask` (no strategy reaches the goal —
  the complement of exists-reach) and :func:`prob1e_mask` (some strategy
  reaches the goal with probability one — the nested fixpoint
  ``nu Z. mu Y. goal | Pre(Z, Y)``);
* ``Pmin`` semantics: :func:`prob0e_mask` (some strategy avoids the goal
  forever — a greatest fixpoint keeping states that own a choice whose
  support stays inside the candidate set) and :func:`prob1a_mask` (every
  strategy reaches the goal with probability one — the complement of
  exists-reach of the ``prob0e`` set).

Pinning matters twice over.  *Soundness*: interval value iteration needs a
unique fixpoint of the Bellman operator, which only holds once the
qualitative 0/1 states are fixed — otherwise end components that can dodge
the goal forever admit spurious fixpoints.  *Convergence*: the classic
``Pmin`` divergence (hypothesis seed 1186 in ``tests/test_modelcheck.py``)
is a model whose every state has value exactly 1 but whose plain iteration
contracts at rate ``1 - 6.4e-3``; precomputation settles it with zero
numeric sweeps.

Everything here is vectorized: each fixpoint round is one boolean sparse
mat-vec over the structure matrix, so cost scales with the number of
transitions times the graph diameter, not with state pairs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro import perf
from repro.modelcheck import interval


@dataclass(frozen=True)
class QualitativeSets:
    """Masks of states whose value is known exactly from the graph alone."""

    zero: np.ndarray
    one: np.ndarray

    @property
    def maybe(self) -> np.ndarray:
        """States whose value is strictly inside ``(0, 1)`` — the only ones
        that need numeric iteration."""
        return ~(self.zero | self.one)


def structure(cm) -> sparse.csr_matrix:
    """Boolean support of the transition matrix, one row per real choice.

    ``CompiledMDP.transitions`` pads a single empty row when the model has
    no choices at all; the padding is sliced off so row indices line up
    with ``choice_state``.  A canonical model that stores no zero (every
    fastmdp model a solve admits, see :func:`.batch._admit`) shares its
    index arrays with the result.
    """
    t = interval._rows(cm)
    positive = t.data > 0.0
    if not (t.has_canonical_format and positive.all()):
        return (t > 0).astype(np.int8)
    return interval._raw_csr(positive.view(np.int8), t.indices, t.indptr,
                             t.shape)


def _exists_reach(
    struct: sparse.csr_matrix,
    owners: np.ndarray,
    live: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    """States with a positive-probability path to ``target`` via live choices.

    Backward closure: a state joins when one of its live choices has support
    intersecting the current set.  One round per graph depth.
    """
    y = target.copy()
    while True:
        hits = (struct @ y.astype(np.int8)) > 0
        src = owners[hits & live]
        if np.all(y[src]):
            return y
        y = y.copy()
        y[src] = True


def _live_choices(owners: np.ndarray, frozen: np.ndarray) -> np.ndarray:
    """Choices owned by non-frozen (non-goal, non-avoid) states."""
    return ~frozen[owners]


def prob0a_mask(
    cm, goal_mask: np.ndarray, avoid_mask: np.ndarray,
    struct: sparse.csr_matrix | None = None,
) -> np.ndarray:
    """``Pmax = 0``: no strategy reaches ``goal`` while avoiding ``avoid``."""
    if struct is None:
        struct = structure(cm)
    owners = cm.choice_state
    live = _live_choices(owners, goal_mask | avoid_mask)
    return ~_exists_reach(struct, owners, live, goal_mask)


def prob1e_mask(
    cm, goal_mask: np.ndarray, avoid_mask: np.ndarray,
    struct: sparse.csr_matrix | None = None,
) -> np.ndarray:
    """``Pmax = 1``: some strategy reaches ``goal`` w.p. 1, avoiding ``avoid``.

    The nested fixpoint ``nu Z. mu Y. goal | Pre(Z, Y)``: a state qualifies
    when some choice keeps all its probability inside the candidate set
    ``Z`` while stepping into ``Y`` (states already known to reach the
    goal) with positive probability.  The "stays inside Z" test depends
    only on ``Z``, so it is hoisted out of the inner ``mu`` loop.
    """
    if struct is None:
        struct = structure(cm)
    n = cm.num_states
    owners = cm.choice_state
    has_choice = np.zeros(n, dtype=bool)
    has_choice[owners] = True

    z = ~avoid_mask & (goal_mask | has_choice)
    while True:
        ok = ((struct @ (~z).astype(np.int8)) == 0) & z[owners]
        y = goal_mask & z
        while True:
            hits = (struct @ y.astype(np.int8)) > 0
            new_y = y.copy()
            new_y[owners[ok & hits]] = True
            new_y |= goal_mask & z
            if np.array_equal(new_y, y):
                break
            y = new_y
        if np.array_equal(y, z):
            return z
        z = y


def prob0e_mask(
    cm, goal_mask: np.ndarray, avoid_mask: np.ndarray,
    struct: sparse.csr_matrix | None = None,
) -> np.ndarray:
    """``Pmin = 0``: some strategy avoids ``goal`` forever.

    Greatest fixpoint over ``Z`` (initially all non-goal states): a state
    survives when it is absorbed at value 0 — an avoid state or a choiceless
    trap — or owns a live choice whose entire support stays inside ``Z``.
    Note a choice *into* the avoid region counts as staying (avoid states
    never leave ``Z``), which is exactly right: entering it forfeits the
    reach-avoid objective.
    """
    if struct is None:
        struct = structure(cm)
    n = cm.num_states
    owners = cm.choice_state
    live = _live_choices(owners, goal_mask | avoid_mask)
    has_live = np.zeros(n, dtype=bool)
    has_live[owners[live]] = True

    z = ~goal_mask
    while True:
        stays = (struct @ (~z).astype(np.int8)) == 0
        ok = stays & live & z[owners]
        keep = np.zeros(n, dtype=bool)
        keep[owners[ok]] = True
        new_z = z & (keep | ~has_live)
        if np.array_equal(new_z, z):
            return z
        z = new_z


def prob1a_mask(
    cm, goal_mask: np.ndarray, avoid_mask: np.ndarray,
    struct: sparse.csr_matrix | None = None,
    prob0e: np.ndarray | None = None,
) -> np.ndarray:
    """``Pmin = 1``: every strategy reaches ``goal`` w.p. 1.

    ``Prob1A = not exists-reach(Prob0E)``: a state falls short of
    probability one exactly when some strategy gives the ``prob0e`` region
    positive probability.
    """
    if struct is None:
        struct = structure(cm)
    if prob0e is None:
        prob0e = prob0e_mask(cm, goal_mask, avoid_mask, struct)
    owners = cm.choice_state
    live = _live_choices(owners, goal_mask | avoid_mask)
    return ~_exists_reach(struct, owners, live, prob0e)


def qualitative(
    cm, goal_mask: np.ndarray, avoid_mask: np.ndarray, maximize: bool,
    struct: sparse.csr_matrix | None = None,
) -> QualitativeSets:
    """The prob0/prob1 sets for one objective, with perf accounting.

    Counters: ``vi.precompute.runs``, ``vi.precompute.zero_states``,
    ``vi.precompute.one_states``, ``vi.precompute.trap_states`` (choiceless
    non-goal states, always pinned to zero — previously these hid behind
    the solver's ``isfinite`` scatter mask and could retain stale warm-seed
    values), and ``vi.precompute.seconds``.
    """
    t0 = time.perf_counter()
    if struct is None:
        struct = structure(cm)
    if maximize:
        zero = prob0a_mask(cm, goal_mask, avoid_mask, struct)
        one = prob1e_mask(cm, goal_mask, avoid_mask, struct)
    else:
        zero = prob0e_mask(cm, goal_mask, avoid_mask, struct)
        one = prob1a_mask(cm, goal_mask, avoid_mask, struct, prob0e=zero)

    has_choice = np.zeros(cm.num_states, dtype=bool)
    has_choice[cm.choice_state] = True
    traps = ~has_choice & ~goal_mask

    perf.incr("vi.precompute.runs")
    perf.incr("vi.precompute.zero_states", int(np.count_nonzero(zero)))
    perf.incr("vi.precompute.one_states", int(np.count_nonzero(one)))
    perf.incr("vi.precompute.trap_states", int(np.count_nonzero(traps)))
    perf.add_time("vi.precompute.seconds", time.perf_counter() - t0)
    return QualitativeSets(zero=zero, one=one)
