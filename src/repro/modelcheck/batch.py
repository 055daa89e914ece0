"""Certified solving of same-shape MDP families — the production solver.

Adaptive routing re-synthesizes the same routing-job model over and over
with different health fingerprints: the sparsity pattern (which cells can
reach which) is fixed by the chip geometry while the transition
*probabilities* move with degradation.  Solving those models one at a time
repeats two kinds of work:

* **graph precompute** — qualitative prob0/prob1 sets, the total-reward
  region, the SCC condensation and the per-level row/column gathers depend
  only on the transition *support*, so models sharing a support share all
  of it (:class:`SharedContext`, memoized on a structural fingerprint);
* **sweep scheduling** — the value-iteration settling prelude that costs
  most of a warm solve runs the same reductions per model; stacking the
  models into one ``(models, choices)`` value array turns ``m`` sweeps
  into one block-diagonal matvec plus one axis-1 segment reduction.

A solo solve (:func:`~repro.modelcheck.compiled.solve_reach_avoid_reward`
and ``solve_reach_avoid_probability``) is a batch of one, so every
re-synthesis of a known shape reuses the memoized precompute.  A model
whose stored sparsity is not its support (an explicit zero) has its zeros
dropped on entry and gets a context built for it alone, uncached, through
the same code.

Stacking is *exact*, not approximate: every per-model operation either
reuses the per-level body verbatim (:func:`interval._solve_reward_level`,
:func:`interval._pi_finish`) or mirrors it op-for-op with no cross-model
data flow, so each model's float sequence — and therefore its certified
``lower``/``upper`` bounds, gap and extracted strategy — is bit-identical
whether it is solved alone or in a family.  Models retire from the active
set as they settle.

The boundary is pure array-in/array-out: callers hand in compiled models
(plus optional warm seeds) and get :class:`ValueResult` objects back —
nothing here knows about routing jobs, strategies or engines.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import sparse

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


def _raw_csr(data, indices, indptr, shape) -> sparse.csr_matrix:
    """CSR from pre-validated arrays, skipping the constructor's checks.

    The arrays come from skeletons derived off a canonical matrix (or a
    gather through one), so re-running ``check_format`` per model per
    level would only re-verify what the construction guarantees.
    """
    out = sparse.csr_matrix(shape, dtype=data.dtype)
    out.data = data
    out.indices = indices
    out.indptr = indptr
    return out


def _block_diag_csr(mats: "list[sparse.csr_matrix]") -> sparse.csr_matrix:
    """Block-diagonal stack of same-shape, same-sparsity CSR matrices.

    ``scipy.sparse.block_diag`` round-trips through COO (a sort over the
    whole stacked nnz); with identical skeletons the result is a plain
    concatenation, so build it directly.
    """
    m = len(mats)
    first = mats[0]
    if m == 1:
        return first
    nr, nc = first.shape
    idx = first.indices
    data = np.concatenate([A.data for A in mats])
    offsets = np.repeat(
        np.arange(m, dtype=idx.dtype) * idx.dtype.type(nc), idx.size
    )
    indices = np.tile(idx, m) + offsets
    counts = np.diff(first.indptr)
    indptr = np.concatenate(([0], np.cumsum(np.tile(counts, m)))).astype(
        first.indptr.dtype
    )
    return _raw_csr(data, indices, indptr, (m * nr, m * nc))


@dataclass(frozen=True)
class _Level:
    """Shared per-condensation-level structure (support-derived).

    The gather arrays are int32: they index one model's nonzeros, far
    below ``2**31``, and they are most of a cached context's bytes.
    """

    block: np.ndarray  # bool state mask of the level
    idx: np.ndarray  # global choice indices of the level
    own: np.ndarray  # owner state per level choice
    states: np.ndarray  # sorted state indices of the level
    rowpos: np.ndarray  # gather: T.data[rowpos] -> Tl.data
    tl_indices: np.ndarray
    tl_indptr: np.ndarray
    blockpos: np.ndarray  # gather: Tl.data[blockpos] -> Tblock.data
    tb_indices: np.ndarray
    tb_indptr: np.ndarray
    argopt_starts: np.ndarray | None  # None when owners are unsorted/empty
    argopt_seg: np.ndarray | None
    direct_ok: bool

    def make_tl(self, T: sparse.csr_matrix, n: int) -> sparse.csr_matrix:
        """This model's level rows — bit-identical to ``T[idx]``."""
        return _raw_csr(
            T.data[self.rowpos], self.tl_indices, self.tl_indptr,
            (self.idx.size, n),
        )

    def make_tblock(self, Tl: sparse.csr_matrix) -> sparse.csr_matrix:
        """The in-block columns — bit-identical to ``Tl[:, states]``."""
        return _raw_csr(
            Tl.data[self.blockpos], self.tb_indices, self.tb_indptr,
            (self.idx.size, self.states.size),
        )


@dataclass(frozen=True)
class SharedContext:
    """Support-derived precompute shared by a same-shape model family."""

    goal_zero: np.ndarray
    active: np.ndarray
    usable: np.ndarray
    levels: tuple[_Level, ...]


def _build_level(
    T: sparse.csr_matrix,
    owners: np.ndarray,
    block: np.ndarray,
    usable: np.ndarray,
    minimize: bool,
) -> _Level:
    idx = np.flatnonzero(usable & block[owners])
    own = owners[idx]
    states = np.flatnonzero(block)

    counts = np.diff(T.indptr)[idx]
    total = int(counts.sum())
    seg0 = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    rowpos = np.repeat(T.indptr[idx], counts) + (
        np.arange(total, dtype=np.int64) - np.repeat(seg0, counts)
    )
    tl_indices = T.indices[rowpos]
    tl_indptr = np.concatenate(([0], np.cumsum(counts))).astype(
        T.indptr.dtype
    )

    # Column-slice skeleton: slicing an index-valued matrix with the same
    # structure records, in the exact data order scipy's slicing produces,
    # which Tl entry lands where — so per-model Tblocks are one gather.
    marker = sparse.csr_matrix(
        (np.arange(1, total + 1, dtype=np.int32), tl_indices, tl_indptr),
        shape=(idx.size, T.shape[1]),
    )
    msub = marker[:, states]
    blockpos = msub.data - 1
    tb_indices = msub.indices
    tb_indptr = msub.indptr

    if own.size and not np.any(own[1:] < own[:-1]):
        newseg = np.r_[True, own[1:] != own[:-1]]
        argopt_starts = np.flatnonzero(newseg)
        argopt_seg = (np.cumsum(newseg) - 1).astype(np.int32)
    else:
        argopt_starts = argopt_seg = None
    return _Level(
        block=block,
        idx=idx,
        own=own,
        states=states,
        rowpos=rowpos.astype(np.int32),
        tl_indices=tl_indices,
        tl_indptr=tl_indptr,
        blockpos=blockpos,
        tb_indices=tb_indices,
        tb_indptr=tb_indptr,
        argopt_starts=argopt_starts,
        argopt_seg=argopt_seg,
        direct_ok=(
            minimize
            and states.size <= interval._SPARSE_DIRECT_MAX
            and argopt_starts is not None
            and argopt_starts.size == states.size
        ),
    )


def build_context(cm, goal: str, avoid: str, minimize: bool) -> SharedContext:
    """Compute the shared precompute from one representative model."""
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
    levels = tuple(
        _build_level(
            T, owners, active & (level_of_state == level), usable, minimize
        )
        for level in range(num_levels)
    )
    return SharedContext(
        goal_zero=goal_zero, active=active, usable=usable, levels=levels
    )


#: Support-keyed memos of the reward contexts and the probability
#: objective's qualitative sets.  Every synthesis reads them, so the cap
#: is sized to the working set of job shapes: a 120-assay lifetime run on
#: the 60x30 chip solves 108 shapes, and an LRU of 64 contexts hits 89% of
#: its solves (32: 54%, 96: 93%) while each context costs memory.
_CONTEXT_CACHE: OrderedDict[tuple, SharedContext] = OrderedDict()
_CONTEXT_CACHE_MAX = 64
_QUAL_CACHE: OrderedDict[tuple, precompute.QualitativeSets] = OrderedDict()
_QUAL_CACHE_MAX = 64

#: Guards lookup, insertion and eviction of both memos and the size gauge
#: (so the last published size is the current one): serve workers solve
#: on threads, and an unguarded ``move_to_end`` racing a ``popitem`` can
#: raise mid-job.  Builds run outside the lock.
_CACHE_LOCK = threading.Lock()


def _memoized(cache: OrderedDict, cap: int, key: tuple, build):
    """LRU lookup of ``key`` in ``cache``, building and inserting on a miss.

    Publishes ``vi.batch.precompute.{hits,misses}`` and the combined size
    of both memos as the ``vi.batch.precompute.size`` gauge.
    """
    with _CACHE_LOCK:
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
    if value is not None:
        perf.incr("vi.batch.precompute.hits")
        return value
    perf.incr("vi.batch.precompute.misses")
    value = build()
    with _CACHE_LOCK:
        cache[key] = value
        while len(cache) > cap:
            cache.popitem(last=False)
        perf.set_gauge(
            "vi.batch.precompute.size", len(_CONTEXT_CACHE) + len(_QUAL_CACHE)
        )
    return value


def reward_context(cm, goal: str, avoid: str, minimize: bool) -> SharedContext:
    """Memoized :func:`build_context` keyed on the structural fingerprint."""
    return _memoized(
        _CONTEXT_CACHE, _CONTEXT_CACHE_MAX,
        (structural_key(cm), goal, avoid, minimize),
        lambda: build_context(cm, goal, avoid, minimize),
    )


def qualitative_context(
    cm, goal: str, avoid: str, maximize: bool
) -> precompute.QualitativeSets:
    """Memoized qualitative prob0/prob1 sets for a model family."""
    return _memoized(
        _QUAL_CACHE, _QUAL_CACHE_MAX,
        (structural_key(cm), goal, avoid, maximize),
        lambda: precompute.qualitative(
            cm, cm.label_mask(goal), cm.label_mask(avoid), maximize
        ),
    )


def clear_context_cache() -> None:
    """Drop both support-keyed memos (reward contexts, qualitative sets)."""
    with _CACHE_LOCK:
        _CONTEXT_CACHE.clear()
        _QUAL_CACHE.clear()
        perf.set_gauge("vi.batch.precompute.size", 0)


class _ModelState:
    """Mutable per-model solve state threaded through the levels."""

    __slots__ = ("cm", "T", "lower", "upper", "budget", "seed")

    def __init__(self, cm, ctx: SharedContext, max_iterations: int, seed):
        n = cm.num_states
        self.cm = cm
        self.T = interval._rows(cm)
        self.lower = np.full(n, np.inf)
        self.upper = np.full(n, np.inf)
        self.lower[ctx.goal_zero] = 0.0
        self.upper[ctx.goal_zero] = 0.0
        self.lower[ctx.active] = 0.0
        self.budget = interval._Budget(
            max_iterations, "reward iteration did not converge"
        )
        self.seed = seed


def _batched_settle(
    lvl: _Level,
    ms: "list[_ModelState]",
    x0s: "list[np.ndarray]",
    bases: "list[np.ndarray]",
    tblocks: "list[sparse.csr_matrix]",
) -> "list[np.ndarray | None]":
    """Lockstep settling prelude over all models of one level.

    Mirrors the ``settle`` closure of :func:`interval._policy_fixpoint`
    op-for-op per model: same budget ticks, same value-only vs greedy
    round cadence, same strict-improvement policy update.  There is no
    data flow between models — stacking only amortizes the matvec and
    reduction calls — so each model's iterate sequence is identical to
    its solo run.  Returns each model's held policy (``None`` where the
    prelude did not settle, matching solo).  Only called on
    ``direct_ok`` levels, whose segment reduction covers every block
    state.
    """
    nc = lvl.own.size
    starts = lvl.argopt_starts
    seg = lvl.argopt_seg
    idxarr = np.arange(nc, dtype=np.int64)
    minimize_red = np.minimum.reduceat

    held: "list[np.ndarray | None]" = [None] * len(ms)
    stable = [0] * len(ms)

    def rebuild(models: "list[int]"):
        B = _block_diag_csr([tblocks[i] for i in models])
        Base = np.stack([bases[i] for i in models])
        return B, Base

    # ``lanes`` are the models materialized in the stacked arrays; models
    # retire from ``live`` immediately but their lanes are only compacted
    # once half are dead — a retired lane keeps sweeping into values nobody
    # reads (block-diagonal structure means it cannot influence a live
    # lane), which is cheaper than rebuilding the stack per retirement.
    lanes = list(range(len(ms)))
    live = set(lanes)
    B, Base = rebuild(lanes)
    X = np.stack([x0s[i] for i in lanes])
    sweeps = 0
    for k in range(interval._PI_PRELUDE_MAX):
        if not live:
            break
        for i in live:
            ms[i].budget.tick()
        if 2 * len(live) <= len(lanes):
            keep = [row for row, i in enumerate(lanes) if i in live]
            lanes = [i for i in lanes if i in live]
            X = X[keep]
            B, Base = rebuild(lanes)
        sweeps += 1
        Q = Base + (B @ X.reshape(-1)).reshape(len(lanes), nc)
        if (k + 1) % interval._PI_PRELUDE_CHECK:
            X = minimize_red(Q, starts, axis=1)
            continue
        Best = minimize_red(Q, starts, axis=1)
        cand = np.where(Q == Best[:, seg], idxarr, nc)
        G = np.minimum.reduceat(cand, starts, axis=1)
        Best = np.take_along_axis(Q, G, axis=1)
        X = Best
        for row, i in enumerate(lanes):
            if i not in live:
                continue
            if held[i] is None:
                held[i] = G[row]
                continue
            cur = Q[row, held[i]]
            margin = interval._CHECK_RTOL * (1.0 + np.abs(cur))
            improve = Best[row] < cur - margin
            if improve.any():
                held[i] = np.where(improve, G[row], held[i])
                stable[i] = 0
            else:
                stable[i] += 1
                if stable[i] >= interval._PI_PRELUDE_STABLE:
                    live.discard(i)
                    if live:
                        perf.incr("vi.batch.retired_early")
    perf.incr("vi.batch.sweeps", sweeps)
    return held


def _solve_levels(
    ctx: SharedContext,
    ms: "list[_ModelState]",
    epsilon: float,
    minimize: bool,
) -> None:
    """Run every condensation level, successors first, for all models."""
    targets = interval._level_targets(epsilon, len(ctx.levels))
    for lvl, target in zip(ctx.levels, targets):
        target = float(target)
        tls = [lvl.make_tl(m.T, m.cm.num_states) for m in ms]
        rls = [m.cm.choice_reward[lvl.idx] for m in ms]

        if not lvl.direct_ok:
            # No batched prelude possible (maximization, oversized or
            # degenerate level): run the per-level body whole per model.
            for m, Tl, rl in zip(ms, tls, rls):
                interval._solve_reward_level(
                    m.lower, m.upper, lvl.block, Tl, rl, lvl.own, m.budget,
                    target=target, epsilon=epsilon, minimize=minimize,
                    seed=m.seed,
                )
            continue

        # Seed verification (per-level body order: before the direct
        # attempt).
        for m, Tl, rl in zip(ms, tls, rls):
            if m.seed is None:
                continue
            opt = interval._make_opt(lvl.own, m.cm.num_states, not minimize)
            interval._verify_reward_seed(
                m.lower, lvl.block,
                lambda vec, opt=opt, Tl=Tl, rl=rl: opt(rl + Tl @ vec),
                m.seed, epsilon, m.budget,
            )

        # Inputs of the settling prelude, exactly as
        # interval._policy_fixpoint derives them.
        x0s, bases, tblocks = [], [], []
        for m, Tl, rl in zip(ms, tls, rls):
            vals = m.lower.copy()
            certified = np.isfinite(m.upper)
            vals[certified] = 0.5 * (m.lower[certified] + m.upper[certified])
            x0 = vals[lvl.states].copy()
            x0[~np.isfinite(x0)] = 0.0
            vals[lvl.states] = 0.0
            bases.append(rl + Tl @ vals)
            x0s.append(x0)
            tblocks.append(lvl.make_tblock(Tl))

        held = _batched_settle(lvl, ms, x0s, bases, tblocks)
        for row, (m, Tl, rl) in enumerate(zip(ms, tls, rls)):
            interval._solve_reward_level(
                m.lower, m.upper, lvl.block, Tl, rl, lvl.own, m.budget,
                target=target, epsilon=epsilon, minimize=minimize, seed=None,
                presettled=(held[row], tblocks[row], bases[row]),
            )


def _reward_result(
    cm, ctx: SharedContext, m: _ModelState, minimize: bool
) -> ValueResult:
    solution = interval.IntervalSolution(
        m.lower, m.upper, m.budget.iterations, len(ctx.levels)
    )
    values = np.where(
        np.isfinite(solution.lower) & np.isfinite(solution.upper),
        0.5 * (solution.lower + solution.upper),
        solution.lower,
    )
    remapped = compiled._extract(
        cm, values, ctx.usable, cm.choice_reward, not minimize
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
                ([i], build_context(models[i], goal, avoid, minimize))
            )
    if shared:
        families.append(
            (shared, reward_context(models[shared[0]], goal, avoid, minimize))
        )
    results: "list[ValueResult | None]" = [None] * len(models)
    for idxs, ctx in families:
        ms = [
            _ModelState(models[i], ctx, max_iterations, seeds[i])
            for i in idxs
        ]
        _solve_levels(ctx, ms, epsilon, minimize)
        for i, m in zip(idxs, ms):
            results[i] = _reward_result(models[i], ctx, m, minimize)
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
            cm, values, ~frozen[cm.choice_state], None, maximize
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
