"""Certified solving of same-shape MDP families — the production solver.

Adaptive routing re-synthesizes the same routing-job model over and over
with different health fingerprints: the sparsity pattern (which cells can
reach which) is fixed by the chip geometry while the transition
*probabilities* move with degradation.  Everything the solver derives
from the transition *support* alone — qualitative prob0/prob1 sets, the
total-reward region, the SCC condensation, the per-owner choice segments
strategy extraction runs on (:class:`interval._Segments`) and, per
condensation level, one slot-major padded matrix of the level's choice
rows (:class:`interval._SlotLayout`: one int32 gather into ``T.data``,
its own ``indices``/``indptr`` and one global choice per padded row) —
is therefore shared by every model of that support
(:class:`SharedContext`, kept on the context slot of the fastmdp build
template the model came from).  Every Bellman application, the settling
prelude and policy iteration of a level read that one matrix.

A solo solve (:func:`~repro.modelcheck.compiled.solve_reach_avoid_reward`
and ``solve_reach_avoid_probability``) is a family of one, so every
re-synthesis of a known shape reuses the memoized precompute.  A family
of several models shares one context lookup and then solves its models
one after another through the same per-level body
(:func:`interval._solve_reward_level`), so each result is bit-identical
to solving that model alone.  A model whose stored sparsity is not its
support (an explicit zero) has its zeros dropped on entry and gets a
context built for it alone, uncached, through the same code.

The boundary is pure array-in/array-out: callers hand in compiled models
(plus optional warm seeds) and get :class:`ValueResult` objects back —
nothing here knows about routing jobs, strategies or engines.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro import perf
from repro.modelcheck import compiled, interval, precompute
from repro.modelcheck.reachability import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERATIONS,
    ValueResult,
)


def structural_key(cm) -> str:
    """Fingerprint of everything the shared precompute depends on.

    Two models with equal keys have identical state/choice layout,
    transition sparsity, labels and initial state — they may differ only
    in transition probabilities (and rewards), which is exactly the family
    a :class:`SharedContext` covers.  Probability *values* are excluded on
    purpose; support equality additionally requires every stored entry to
    be positive (:func:`supports_batching`).
    """
    if cm._digest_cache:
        return cm._digest_cache[0]
    t = interval._rows(cm)
    h = hashlib.sha256()
    h.update(np.int64(cm.num_states).tobytes())
    h.update(np.int64(cm.num_choices).tobytes())
    h.update(np.int64(cm.initial).tobytes())
    h.update(np.ascontiguousarray(cm.choice_state).tobytes())
    h.update(np.ascontiguousarray(t.indptr).tobytes())
    h.update(np.ascontiguousarray(t.indices).tobytes())
    for name in sorted(cm.labels):
        h.update(name.encode())
        h.update(np.ascontiguousarray(cm.labels[name]).tobytes())
    digest = h.hexdigest()
    cm._digest_cache.append(digest)
    return digest


def supports_batching(cm) -> bool:
    """True when the stored sparsity *is* the support (no explicit zeros).

    A stored zero would make two equal-key models have different
    qualitative sets, silently invalidating the shared precompute; such
    models get a context of their own that is never cached.
    """
    return bool((interval._rows(cm).data > 0.0).all())


def _admit(cm) -> "tuple[object, bool]":
    """The kernel's first read of a model: ``(model, shareable)``.

    A stored zero is a transition of probability zero.  The qualitative
    precompute ignores it, but the SCC levels and the sparse products
    read it, and ``0 * inf`` against an infinite-valued successor turns
    a settling row into NaN.  So a model that stores zeros is replaced by
    a zero-free copy here, before anything else reads it, and reported
    not shareable: its support differs from its template family's, so it
    gets a context of its own rather than a cache slot.
    """
    if supports_batching(cm):
        return cm, True
    t = cm.transitions.copy()
    t.eliminate_zeros()
    return compiled.CompiledMDP(
        num_states=cm.num_states,
        choice_state=cm.choice_state,
        choice_reward=cm.choice_reward,
        transitions=t,
        labels=cm.labels,
        initial=cm.initial,
    ), False


@dataclass(frozen=True)
class SharedContext:
    """Support-derived precompute shared by a same-shape model family."""

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
    goal_zero, active, usable = compiled._reward_region(
        cm, goal_mask, avoid_mask
    )
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


def _solve_model(
    cm, ctx: SharedContext, seed, max_iterations: int, epsilon: float,
    minimize: bool,
) -> ValueResult:
    """Solve one model's reward query level by level, successors first."""
    n = cm.num_states
    T = interval._rows(cm)
    lower = np.full(n, np.inf)
    upper = np.full(n, np.inf)
    lower[ctx.goal_zero] = 0.0
    upper[ctx.goal_zero] = 0.0
    lower[ctx.active] = 0.0
    budget = interval._Budget(
        max_iterations, "reward iteration did not converge"
    )
    targets = interval._level_targets(epsilon, len(ctx.levels))
    for lvl, target in zip(ctx.levels, targets):
        interval._solve_reward_level(
            lower, upper, lvl, lvl.matrix(T),
            lvl.padded(cm.choice_reward, not minimize), budget,
            target=float(target), epsilon=epsilon, minimize=minimize,
            seed=seed,
        )
    solution = interval.IntervalSolution(
        lower, upper, budget.iterations, len(ctx.levels)
    )
    values = np.where(
        np.isfinite(solution.lower) & np.isfinite(solution.upper),
        0.5 * (solution.lower + solution.upper),
        solution.lower,
    )
    remapped = compiled._extract(
        cm, values, ctx.usable, cm.choice_reward, not minimize, epsilon,
        seg=ctx.extract,
    )
    # The extraction Bellman application counts as an iteration.
    iterations = solution.iterations + 1
    perf.incr("vi.reward.iterations", iterations)
    perf.incr("vi.interval.iters", solution.iterations)
    perf.observe("vi.interval.gap", solution.gap, bounds=compiled.GAP_BUCKETS)
    return ValueResult(
        values=values,
        choice=compiled._to_local(cm, remapped),
        iterations=iterations,
        lower=solution.lower,
        upper=solution.upper,
    )


def _check_family(models, initial_values) -> list:
    if initial_values is None:
        return [None] * len(models)
    if len(initial_values) != len(models):
        raise ValueError("initial_values length does not match models")
    return list(initial_values)


def solve_reach_avoid_reward_batch(
    models,
    goal: str = "goal",
    avoid: str = "hazard",
    minimize: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    initial_values=None,
) -> "list[ValueResult]":
    """Solve a same-shape family of reward queries in one batched pass.

    The semantics are those documented on
    :func:`compiled.solve_reach_avoid_reward` (a solo solve is this call
    on one model), per model: each result — bounds, values, choices,
    iteration counts — is bit-identical to solving that model alone with
    the same seed.  :class:`~repro.modelcheck.interval.NonConvergence`
    from any model propagates.  Raises ``ValueError`` when the models do
    not share a structural key — callers bucket by :func:`structural_key`
    first.
    """
    models = list(models)
    initial_values = _check_family(models, initial_values)
    if not models:
        return []
    keys = {structural_key(cm) for cm in models}
    if len(keys) != 1:
        raise ValueError(
            "batched solve requires a single shape bucket; got "
            f"{len(keys)} distinct structural keys"
        )

    perf.incr("vi.batch.solves")
    perf.incr("vi.batch.models", len(models))
    seeds = []
    for cm, values in zip(models, initial_values):
        if values is None:
            seeds.append(None)
            perf.incr("vi.reward.cold_solves")
        else:
            seeds.append(compiled._sanitize_reward_seed(values, cm.num_states))
            perf.incr("vi.reward.warm_solves")

    shared, families = [], []
    for i, cm in enumerate(models):
        models[i], shareable = _admit(cm)
        if shareable:
            shared.append(i)
        else:
            families.append(
                ([i], build_context(models[i], goal, avoid))
            )
    if shared:
        families.append(
            (shared, reward_context(models[shared[0]], goal, avoid))
        )
    results: "list[ValueResult | None]" = [None] * len(models)
    for idxs, ctx in families:
        for i in idxs:
            results[i] = _solve_model(
                models[i], ctx, seeds[i], max_iterations, epsilon, minimize
            )
    return results


def solve_reach_avoid_probability_batch(
    models,
    goal: str = "goal",
    avoid: str = "hazard",
    maximize: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    initial_values=None,
) -> "list[ValueResult]":
    """Batched probability queries: shared qualitative precompute.

    Production routing solves reward objectives, so this path stays thin:
    the graph precompute (the shape-dependent half of a probability solve)
    is shared across the family and the numeric interval iteration runs
    per model.  Semantics per model are those documented on
    :func:`compiled.solve_reach_avoid_probability`, a batch of one.
    """
    models = list(models)
    initial_values = _check_family(models, initial_values)
    if not models:
        return []
    perf.incr("vi.batch.solves")
    perf.incr("vi.batch.models", len(models))
    results = []
    for cm, seed_values in zip(models, initial_values):
        cm, shareable = _admit(cm)
        goal_mask = cm.label_mask(goal)
        avoid_mask = cm.label_mask(avoid)
        if np.any(goal_mask & avoid_mask):
            raise ValueError("goal and avoid labels overlap")
        seed = None
        if seed_values is not None:
            seed = compiled._sanitize_probability_seed(
                seed_values, cm.num_states, maximize
            )
            perf.incr("vi.probability.warm_solves")
        else:
            perf.incr("vi.probability.cold_solves")
        if shareable:
            sets = qualitative_context(cm, goal, avoid, maximize)
        else:
            sets = precompute.qualitative(
                cm, goal_mask, avoid_mask, maximize
            )
        solution = interval.solve_probability_interval(
            cm, zero=sets.zero, one=sets.one, maximize=maximize,
            epsilon=epsilon, max_iterations=max_iterations, seed=seed,
        )
        values = 0.5 * (solution.lower + solution.upper)
        frozen = goal_mask | avoid_mask
        remapped = compiled._extract(
            cm, values, ~frozen[cm.choice_state], None, maximize, epsilon
        )
        remapped[frozen] = -1
        # The extraction Bellman application counts as an iteration, so
        # even a fully precomputed solve reports >= 1.
        iterations = solution.iterations + 1
        perf.incr("vi.probability.iterations", iterations)
        perf.incr("vi.interval.iters", solution.iterations)
        perf.observe(
            "vi.interval.gap", solution.gap, bounds=compiled.GAP_BUCKETS
        )
        results.append(
            ValueResult(
                values=values,
                choice=compiled._to_local(cm, remapped),
                iterations=iterations,
                lower=solution.lower,
                upper=solution.upper,
            )
        )
    return results
