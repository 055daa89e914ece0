"""Support contexts of the certified solver: what a solve derives from the
transition *support* alone.

Adaptive routing re-synthesizes the same routing-job model over and over
with different health fingerprints: the sparsity pattern (which cells can
reach which) is fixed by the chip geometry while the transition
*probabilities* move with degradation.  Everything the solver derives
from the support — qualitative prob0/prob1 sets, the total-reward region,
the SCC condensation, the per-owner choice segments strategy extraction
runs on (:class:`interval._Segments`) and, per condensation level, one
slot-major padded matrix of the level's choice rows
(:class:`interval._SlotLayout`: one int32 gather into ``T.data``, its own
``indices``/``indptr`` and one global choice per padded row) — is
therefore kept once per support (:class:`SharedContext`, on the context
slot of the fastmdp build template the model came from).  Every Bellman
application, the settling prelude and policy iteration of a level read
that one matrix.

The solvers that read these contexts are
:func:`~repro.modelcheck.compiled.solve_reach_avoid_reward` and
``solve_reach_avoid_probability``.  A model whose stored sparsity is not
its support (an explicit zero) has its zeros dropped on entry
(:func:`_admit`) and gets a context built for it alone, uncached, through
the same code.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro import perf
from repro.modelcheck import interval, precompute


def _admit(cm) -> "tuple[object, bool]":
    """A solve's first read of a model: ``(model, shareable)``.

    A stored zero is a transition of probability zero.  The qualitative
    precompute ignores it, but the SCC levels and the sparse products
    read it, and ``0 * inf`` against an infinite-valued successor turns
    a settling row into NaN.  So a model that stores zeros is replaced by
    a zero-free copy here, before anything else reads it, and reported
    not shareable: its support differs from its template family's, so it
    gets a context of its own rather than a cache slot.
    """
    if (interval._rows(cm).data > 0.0).all():
        return cm, True
    t = cm.transitions.copy()
    t.eliminate_zeros()
    return dataclasses.replace(
        cm, transitions=t, contexts=None, _first_choice_cache=[]
    ), False


def _reward_region(
    cm, goal_mask: np.ndarray, avoid_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(goal_zero, active, usable)`` for total-reward solving.

    ``usable`` restricts to choices whose support stays inside the
    probability-one region (PRISM total-reward semantics: any chance of
    leaving it means reward accrues forever on the non-reaching runs).
    """
    struct = precompute.structure(cm)
    sure = precompute.prob1e_mask(cm, goal_mask, avoid_mask, struct)
    n = cm.num_states
    owners = cm.choice_state
    stays = (struct @ (~sure).astype(np.int8)) == 0
    usable = stays & sure[owners] & ~goal_mask[owners]
    active = np.zeros(n, dtype=bool)
    active[owners[usable]] = True
    return goal_mask & sure, active, usable


@dataclass(frozen=True)
class SharedContext:
    """Support-derived precompute shared by every model of one support."""

    goal_zero: np.ndarray
    active: np.ndarray
    usable: np.ndarray
    extract: interval._Segments  # per-owner segments of the usable choices
    levels: tuple[interval._SlotLayout, ...]  # successors first


def build_context(cm, goal: str, avoid: str) -> SharedContext:
    """Compute the shared precompute from one representative model (the
    same for ``Rmin`` and ``Rmax``)."""
    goal_mask = cm.label_mask(goal)
    avoid_mask = cm.label_mask(avoid)
    goal_zero, active, usable = _reward_region(cm, goal_mask, avoid_mask)
    T = interval._rows(cm)
    owners = cm.choice_state
    rows, cols = interval._entries(cm)
    level_of_state, num_levels = interval._scc_levels(
        cm.num_states, rows, cols, owners, active, usable
    )
    levels = []
    for level in range(num_levels):
        block = active & (level_of_state == level)
        idx = np.flatnonzero(usable & block[owners])
        levels.append(interval._SlotLayout.of(
            T, idx, owners[idx], np.flatnonzero(block)
        ))
    return SharedContext(
        goal_zero=goal_zero, active=active, usable=usable,
        extract=interval._Segments.of(owners[usable], cm.num_states),
        levels=tuple(levels),
    )


def _context(cm, key: tuple, build):
    """The context ``key`` of ``cm``'s support, built on a miss.

    A model built from a fastmdp template carries its slot (``contexts``,
    DESIGN.md §9): a lookup neither hashes nor touches an LRU, and a model
    without one builds per call.  Dict reads and ``setdefault`` are atomic,
    so racing solves need no lock.  Counts ``vi.batch.precompute.*``.
    """
    slot = cm.contexts
    value = None if slot is None else slot.get(key)
    if value is not None:
        perf.incr("vi.batch.precompute.hits")
        return value
    perf.incr("vi.batch.precompute.misses")
    value = build()
    return value if slot is None else slot.setdefault(key, value)


def reward_context(cm, goal: str, avoid: str) -> SharedContext:
    """:func:`build_context`, kept on the model's context slot."""
    return _context(
        cm, ("reward", goal, avoid), lambda: build_context(cm, goal, avoid)
    )


def qualitative_context(
    cm, goal: str, avoid: str, maximize: bool
) -> precompute.QualitativeSets:
    """The qualitative prob0/prob1 sets, kept on the model's context slot."""
    return _context(
        cm, ("qualitative", goal, avoid, maximize),
        lambda: precompute.qualitative(
            cm, cm.label_mask(goal), cm.label_mask(avoid), maximize
        ),
    )


def clear_context_cache() -> None:
    """Drop every retained reward context and qualitative set (they live
    on the fastmdp build templates, which stay)."""
    from repro.core.fastmdp import clear_solver_contexts

    clear_solver_contexts()
