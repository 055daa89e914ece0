"""Reference implementations kept as test oracles.

They are slow and simple on purpose; no production path calls them.

* :func:`build_routing_model_scalar` — the per-state routing-model builder
  that predates the vectorized
  :func:`repro.core.fastmdp.build_routing_model_fast`.
  ``tests/test_fastpath.py`` checks the fast builder against it,
  ``benchmarks/bench_synthesis.py`` measures the fast path against it,
  and ``benchmarks/test_table05_synthesis.py`` times it as the paper's
  explicit-state construction.
* :func:`outcome_distribution_reference`, :func:`sample_outcome_reference`
  and :func:`step_reference` — the simulator step as it ran before the
  step kernel: an actuation matrix per cycle, ``Outcome`` lists rebuilt
  per move from frontier rectangles and ``Generator.choice`` draws.
  ``tests/test_step_kernel.py`` checks the kernel against them.
* :func:`scatter_opt_reference`, :func:`argopt_choice_reference` and
  :func:`segment_argopt_reference` — the per-state reductions as they ran
  before the solver kept per-owner segments
  (:class:`repro.modelcheck.interval._Segments`): a scatter
  (``np.minimum.at``/``np.maximum.at``) for the optimum, ``np.unique`` for
  the first tied choice, and segment starts re-derived on every call.
  ``tests/test_policy_evaluation.py`` checks extraction and argopt
  against them, ``tests/test_settle_kernel.py`` settles with the last.
* :func:`solve_reward_reference` and :func:`solve_reward_level_reference`
  — the reward solver's per-level path before each level became one
  padded matrix (:class:`repro.modelcheck.interval._SlotLayout`): level
  rows ``Tl = T[idx]``, in-block columns ``Tblock = Tl[:, states]``,
  per-owner segments for every per-state reduction and a second padded
  copy of ``Tblock`` for the settling prelude
  (:func:`settle_reference`, :func:`exit_policy_reference`,
  :func:`evaluate_reference`, :func:`policy_fixpoint_reference`).
  ``tests/test_padded_level.py`` checks the padded level against it bit
  for bit.
* :func:`warm_seed_reference` — the warm seed as it was mapped before
  strategies stayed columns: one ``{pattern: value}`` lookup per state of
  the new model.  ``tests/test_warm_seed_columns.py`` checks the column
  reuse and the corner join against it.
* :func:`window_token` — the bytes of the force window a retained job
  geometry reads.  ``tests/test_batch.py`` checks that equal windows give
  equal models; the template-cache tests use it to see whether a
  geometry is still retained.
* :func:`build_routing_mdp` (returning a :class:`RoutingModel`) — the
  routing MDP induced as an explicit
  :class:`~repro.modelcheck.model.MDP`, one state at a time, for any
  :class:`~repro.core.transitions.ForceField`.
  ``tests/test_mdp_build.py`` checks the model's structure on it,
  ``tests/test_fastmdp.py`` and ``tests/test_fastpath.py`` check the fast
  builder's statistics and synthesis values against it after
  ``compile_mdp``, and ``tests/test_export.py`` round-trips it through
  the PRISM explicit format.
* :func:`reach_avoid_probability` (with :func:`qualitative_sets`) and
  :func:`reach_avoid_reward` — uncertified Gauss-Seidel value iteration
  over an explicit MDP for ``Pmax``/``Pmin`` and ``Rmin``/``Rmax``.
  ``tests/test_modelcheck.py`` checks small hand-built models on them and
  ``TestCompiledAgainstReference`` checks the certified solvers of
  :mod:`repro.modelcheck.compiled` against them on random models.
* :func:`prob1e` and :func:`reachable_states` — the set-based
  probability-one and reachability fixpoints.
  ``tests/test_modelcheck.py`` checks
  :func:`repro.modelcheck.precompute.prob1e_mask` against the first and
  the explicit model on the second.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as sparse_linalg

from repro.biochip.chip import MedaChip
from repro.core.actions import (
    ACTIONS,
    ALL_ACTIONS,
    DEFAULT_MAX_ASPECT,
    Action,
    ActionClass,
    apply_action,
    frontier,
    guard,
)
from repro.core.droplet import actuation_matrix
from repro.core import fastmdp
from repro.core.fastmdp import (
    CYCLE_REWARD,
    HAZARD_INDEX,
    HAZARD_STATE,
    CompiledRoutingModel,
    _ActionSpec,
    _compile_shape_actions,
)
from repro.core.routing_job import RoutingJob
from repro.core.transitions import (
    ForceField,
    MatrixForceField,
    Outcome,
    outcome_distribution,
)
from repro.geometry.rect import Rect
from repro.modelcheck import batch, compiled, interval
from repro.modelcheck.compiled import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERATIONS,
    CompiledMDP,
    ValueResult,
)
from repro.modelcheck.model import MDP
from repro.modelcheck.strategy import StateColumns

IntRect = tuple[int, int, int, int]


def build_routing_model_scalar(
    job: RoutingJob,
    forces: np.ndarray,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    families: tuple[ActionClass, ...] | None = None,
) -> CompiledRoutingModel:
    """Per-state (scalar) compiled-model builder — the pre-fast-path pipeline.

    Semantically identical to :func:`build_routing_model_fast` but expands
    one state at a time in pure Python, breadth-first from the start, so
    its states come in BFS order.  Its force prefix spans the whole chip
    where the fast builder's spans the job's read window, so probabilities
    agree to rounding, not bit for bit.
    """
    if job.is_dispense:
        raise ValueError("dispense jobs are materialized, not routed")
    width, height = forces.shape
    prefix = np.zeros((width + 1, height + 1))
    prefix[1:, 1:] = forces.cumsum(axis=0).cumsum(axis=1)

    def rect_mean(xa: int, ya: int, xb: int, yb: int) -> float:
        cxa, cya = max(xa, 1), max(ya, 1)
        cxb, cyb = min(xb, width), min(yb, height)
        if cxb < cxa or cyb < cya:
            return 0.0
        total = (
            prefix[cxb, cyb]
            - prefix[cxa - 1, cyb]
            - prefix[cxb, cya - 1]
            + prefix[cxa - 1, cya - 1]
        )
        return float(total) / ((xb - xa + 1) * (yb - ya + 1))

    hz = job.hazard.as_tuple()
    goal = job.goal.as_tuple()
    obstacles = [o.as_tuple() for o in job.obstacles]
    start = job.start.as_tuple()

    def in_hazard(r: IntRect) -> bool:
        return (
            hz[0] <= r[0] and hz[1] <= r[1] and r[2] <= hz[2] and r[3] <= hz[3]
        )

    def in_goal(r: IntRect) -> bool:
        return (
            goal[0] <= r[0] and goal[1] <= r[1]
            and r[2] <= goal[2] and r[3] <= goal[3]
        )

    def blocked(r: IntRect) -> bool:
        for (oxa, oya, oxb, oyb) in obstacles:
            if (
                r[0] - 2 <= oxb and oxa - 2 <= r[2]
                and r[1] - 2 <= oyb and oya - 2 <= r[3]
            ):
                return True
        return False

    shape_specs: dict[tuple[int, int], list[_ActionSpec]] = {}

    # State 0 is the hazard sink; the start is state 1.
    states: list[IntRect | None] = [None, start]
    index: dict[IntRect, int] = {start: 1}
    goal_indices: list[int] = []

    choice_state: list[int] = []
    choice_labels: list[str] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def state_id(r: IntRect) -> int:
        idx = index.get(r)
        if idx is None:
            idx = len(states)
            states.append(r)
            index[r] = idx
            queue.append(r)
        return idx

    queue: list[IntRect] = [start]
    head = 0
    while head < len(queue):
        r = queue[head]
        head += 1
        s_idx = index[r]
        if in_goal(r):
            goal_indices.append(s_idx)
            continue
        xa, ya = r[0], r[1]
        shape = (r[2] - r[0] + 1, r[3] - r[1] + 1)
        specs = shape_specs.get(shape)
        if specs is None:
            specs = _compile_shape_actions(
                shape[0], shape[1], max_aspect, families=families
            )
            shape_specs[shape] = specs
        for spec in specs:
            probs = [
                rect_mean(xa + leg.dxa, ya + leg.dya, xa + leg.dxb, ya + leg.dyb)
                for leg in spec.legs
            ]
            c_idx = len(choice_state)
            stay_prob = 0.0
            emitted = False
            for pattern, succ in spec.outcomes:
                p = 1.0
                for leg_i, success in enumerate(pattern):
                    p *= probs[leg_i] if success else 1.0 - probs[leg_i]
                if p <= 0.0:
                    continue
                if succ is None:
                    stay_prob += p
                    continue
                dxa, dya, w2, h2 = succ
                nxt = (xa + dxa, ya + dya, xa + dxa + w2 - 1, ya + dya + h2 - 1)
                safe = in_hazard(nxt) and (nxt == start or not blocked(nxt))
                target = state_id(nxt) if safe else HAZARD_INDEX
                rows.append(c_idx)
                cols.append(target)
                vals.append(p)
                emitted = True
            if stay_prob > 0.0:
                rows.append(c_idx)
                cols.append(s_idx)
                vals.append(stay_prob)
                emitted = True
            assert emitted, "every action has at least one outcome"
            choice_state.append(s_idx)
            choice_labels.append(spec.name)

    n = len(states)
    transitions = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(max(len(choice_state), 1), n)
    )
    goal_mask = np.zeros(n, dtype=bool)
    goal_mask[goal_indices] = True
    hazard_mask = np.zeros(n, dtype=bool)
    hazard_mask[HAZARD_INDEX] = True
    compiled = CompiledMDP(
        num_states=n,
        choice_state=np.asarray(choice_state, dtype=np.int64),
        choice_reward=np.full(len(choice_state), CYCLE_REWARD),
        transitions=transitions,
        labels={"goal": goal_mask, "hazard": hazard_mask},
        initial=1,
    )
    label_table = tuple(dict.fromkeys(choice_labels))
    columns = StateColumns(
        corners=np.array([(0, 0, 0, 0)] + states[1:], dtype=np.int16),
        label_states=((HAZARD_INDEX, HAZARD_STATE),),
        labels=label_table,
    )
    return CompiledRoutingModel(
        compiled=compiled, job=job, columns=columns,
        choice_codes=np.array(
            [label_table.index(label) for label in choice_labels],
            dtype=np.int16,
        ),
    )


def _leg_probability_reference(
    delta: Rect, action: Action, direction: str, field: MatrixForceField
) -> float:
    """Mean force over the frontier, zero for off-chip cells."""
    fr = frontier(delta, action, direction)
    if fr is None:
        return 0.0
    width, height = field.forces.shape
    xa, ya = max(fr.xa, 1), max(fr.ya, 1)
    xb, yb = min(fr.xb, width), min(fr.yb, height)
    if xb < xa or yb < ya:
        return 0.0
    return float(field.forces[xa - 1 : xb, ya - 1 : yb].sum()) / fr.area


def _pruned(outcomes: list[Outcome]) -> list[Outcome]:
    kept = [o for o in outcomes if o.probability > 0.0]
    total = 0.0
    for o in kept:
        total += o.probability
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"outcome probabilities sum to {total}, not 1")
    return kept


def outcome_distribution_reference(
    delta: Rect, action: Action, field: MatrixForceField
) -> list[Outcome]:
    """Sec. V-B's outcome distribution, rebuilt from frontier rectangles
    on every call (zero-probability outcomes pruned)."""
    def step(rect: Rect, direction: str) -> Rect:
        return apply_action(rect, ACTIONS[f"a_{direction}"])

    def leg(rect: Rect, direction: str) -> float:
        return _leg_probability_reference(rect, action, direction, field)

    klass = action.klass
    if klass is ActionClass.CARDINAL:
        d = action.vertical or action.horizontal
        p = leg(delta, d)
        return _pruned([Outcome(d, apply_action(delta, action), p),
                        Outcome("eps", delta, 1.0 - p)])
    if klass is ActionClass.DOUBLE:
        d = action.vertical or action.horizontal
        one = step(delta, d)
        p1, p2 = leg(delta, d), leg(one, d)
        return _pruned([Outcome(d * 2, apply_action(delta, action), p1 * p2),
                        Outcome(d, one, p1 * (1.0 - p2)),
                        Outcome("eps", delta, 1.0 - p1)])
    if klass is ActionClass.ORDINAL:
        dv, dh = action.vertical, action.horizontal
        pv, ph = leg(delta, dv), leg(delta, dh)
        return _pruned([
            Outcome(dv + dh, apply_action(delta, action), pv * ph),
            Outcome(dv, step(delta, dv), pv * (1.0 - ph)),
            Outcome(dh, step(delta, dh), (1.0 - pv) * ph),
            Outcome("eps", delta, (1.0 - pv) * (1.0 - ph)),
        ])
    d = action.horizontal if klass is ActionClass.WIDEN else action.vertical
    p = leg(delta, d)
    if p == 0.0:
        return [Outcome("eps", delta, 1.0)]
    return _pruned([Outcome("morph", apply_action(delta, action), p),
                    Outcome("eps", delta, 1.0 - p)])


def sample_outcome_reference(
    delta: Rect, action: Action, field: MatrixForceField,
    rng: np.random.Generator,
) -> Outcome:
    """One outcome drawn with ``Generator.choice`` over the reference
    distribution."""
    outcomes = outcome_distribution_reference(delta, action, field)
    p = np.array([o.probability for o in outcomes])
    return outcomes[int(rng.choice(len(outcomes), p=p / p.sum()))]


def step_reference(
    chip: MedaChip,
    targets: list[Rect],
    sensing: str | None,
    mask: np.ndarray | None,
    moves: list[tuple[Rect, Action]],
    rng: np.random.Generator,
    weight: float = 0.1,
) -> list[Outcome]:
    """One simulator step through the actuation matrix, then sensing, then
    one reference draw per move on the chip's forces."""
    chip.apply_actuation(
        actuation_matrix(targets, chip.width, chip.height)
    )
    if sensing == "full":
        chip.apply_sensing(weight=weight)
    elif sensing == "selective":
        chip.apply_sensing(mask, weight=weight)
    field = chip.force_field()
    return [sample_outcome_reference(delta, action, field, rng)
            for delta, action in moves]


def scatter_opt_reference(
    owners: np.ndarray, q: np.ndarray, n: int, maximize: bool
) -> np.ndarray:
    """Per-state optimum of per-choice values ``q`` (±inf for choiceless)."""
    out = np.full(n, -np.inf if maximize else np.inf)
    if maximize:
        np.maximum.at(out, owners, q)
    else:
        np.minimum.at(out, owners, q)
    return out


def argopt_choice_reference(
    owners: np.ndarray, q: np.ndarray, per_state: np.ndarray, n: int,
    band: float,
) -> np.ndarray:
    """Per state, the lowest choice index (into ``owners``) whose value
    lies within ``band`` of the state's optimum ``per_state`` (exactly
    equal when the optimum is infinite); -1 where there is none."""
    choice = np.full(n, -1, dtype=np.int64)
    best = per_state[owners]
    with np.errstate(invalid="ignore"):
        near = np.abs(q - best) <= band
    hit = (near & np.isfinite(best)) | (q == best)
    idx = np.flatnonzero(hit)
    states, first = np.unique(owners[idx], return_index=True)
    choice[states] = idx[first]
    return choice


def segment_argopt_reference(
    own: np.ndarray, q: np.ndarray, maximize: bool
) -> np.ndarray:
    """Index of each owner's best choice, ties toward the lowest index, one
    entry per distinct owner in owner order (``own`` grouped ascending)."""
    if own.size == 0:
        return np.empty(0, dtype=np.int64)
    newseg = np.r_[True, own[1:] != own[:-1]]
    starts = np.flatnonzero(newseg)
    seg = np.cumsum(newseg) - 1
    red = np.maximum.reduceat if maximize else np.minimum.reduceat
    best = red(q, starts)
    cand = np.where(q == best[seg], np.arange(own.size), own.size)
    return np.minimum.reduceat(cand, starts)


def warm_seed_reference(
    values: dict, states: list, fill: float
) -> np.ndarray:
    """Each of ``states``' warm value from the ``values`` map, ``fill``
    where the map has none."""
    return np.fromiter(
        (values.get(s, fill) for s in states), dtype=float, count=len(states)
    )


def window_token(
    job: RoutingJob,
    forces: np.ndarray,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    families: tuple[ActionClass, ...] | None = None,
) -> bytes | None:
    """The bytes of the force window a build of ``(job, forces)`` reads,
    or ``None`` when no geometry is retained for the job (the window is
    discovered by the first build).  Two builds of the same job with equal
    tokens give bit-identical models."""
    with fastmdp._TEMPLATE_LOCK:
        entry = fastmdp._GEOMETRIES.get(
            fastmdp._geometry_key(job, forces, max_aspect, families)
        )
    return None if entry is None else fastmdp._window_bytes(
        entry.geometry, forces
    )


# --- the segment level path ------------------------------------------------
#
# The reward solver's per-level path as it ran before each level became one
# slot-major padded matrix (``interval._SlotLayout``): the level's rows
# ``Tl = T[idx]`` over all columns, its in-block columns ``Tblock =
# Tl[:, states]``, per-owner segments (``interval._Segments``) for every
# per-state reduction, and a separate padded layout of ``Tblock`` for the
# settling prelude.  Policies are level choice indices (into ``idx``).
# Matrices derived inside keep the class of the matrix handed in, so a
# recording subclass sees every product.


def level_rows_reference(T, idx, own, states):
    """``(Tl, Tblock, seg)`` of the level choices ``idx`` (owners
    ``own``) over the sorted ``states``."""
    Tl = T[idx]
    return Tl, Tl[:, states], interval._Segments.of(own, T.shape[1])


def slot_layout_reference(states, own, Tblock):
    """The settling prelude's padded layout of ``Tblock``: ``(n, slots,
    choice, pad, B)``, or ``None`` when some state owns no choice."""
    n = states.size
    pos = np.searchsorted(states, own)
    counts = np.bincount(pos, minlength=n)
    if n == 0 or counts.min() == 0:
        return None
    slots = int(counts.max())
    order = np.argsort(pos, kind="stable")
    rank = np.empty(own.size, dtype=np.int64)
    rank[order] = np.arange(own.size) - (np.cumsum(counts) - counts)[pos[order]]
    choice = np.full(slots * n, -1, dtype=np.int64)
    choice[rank * n + pos] = np.arange(own.size)
    used = choice >= 0
    real = choice[used]
    row_len = np.diff(Tblock.indptr)[real]
    lens = np.zeros(slots * n, dtype=np.int64)
    lens[used] = row_len
    gather = np.repeat(Tblock.indptr[real] - (np.cumsum(row_len) - row_len),
                       row_len) + np.arange(int(row_len.sum()))
    B = type(Tblock)(
        (Tblock.data[gather], Tblock.indices[gather],
         np.concatenate(([0], np.cumsum(lens)))),
        shape=(slots * n, n),
    )
    B.slot_major = True  # its rows are padded, not in choice order
    return n, slots, choice, np.flatnonzero(~used), B


def settle_reference(layout, base, x, budget, maximize):
    """The settling prelude over ``slot_layout_reference``'s layout; the
    held policy as level choice indices, or ``None`` after one tick."""
    if layout is None:
        budget.tick()
        return None
    n, slots, choice, pad, B = layout
    padded = base[choice]
    padded[pad] = -np.inf if maximize else np.inf
    cols = np.arange(n)
    held = None
    stable = 0
    for k in range(interval._PI_PRELUDE_MAX):
        budget.tick()
        q = padded + B @ x
        grid = q.reshape(slots, n)
        if (k + 1) % interval._PI_PRELUDE_CHECK:
            x = grid.max(axis=0) if maximize else grid.min(axis=0)
            continue
        greedy = (grid.argmax(axis=0) if maximize
                  else grid.argmin(axis=0)) * n + cols
        best = q[greedy]
        x = best
        if held is None:
            held = greedy
            continue
        cur = q[held]
        margin = interval._CHECK_RTOL * (1.0 + np.abs(cur))
        # An infinite held value has an infinite margin: ``inf - inf`` is
        # NaN, which compares False, so the held choice stays.
        with np.errstate(invalid="ignore"):
            improve = (best > cur + margin) if maximize \
                else (best < cur - margin)
        if improve.any():
            held = np.where(improve, greedy, held)
            stable = 0
        else:
            stable += 1
            if stable >= interval._PI_PRELUDE_STABLE:
                break
    return None if held is None else choice[held]


def exit_policy_reference(states, Tl, own, block):
    """The backward-BFS exit policy over the level rows ``Tl``."""
    support = Tl > 0
    joined = ~block
    chosen = np.full(states.size, -1, dtype=np.int64)
    pos = np.searchsorted(states, own)
    while True:
        hits = (support @ joined.astype(np.int8)) > 0
        ready = np.flatnonzero(hits & (chosen[pos] == -1))
        if ready.size == 0:
            break
        _, first = np.unique(own[ready], return_index=True)
        sel = ready[first]
        chosen[pos[sel]] = sel
        joined = joined.copy()
        joined[own[sel]] = True
    return chosen if bool(np.all(chosen >= 0)) else None


def evaluate_reference(Tblock, chosen, b):
    """The policy value from ``Tblock``'s chosen rows: the same
    condensation-order factorization, gathered from the block's CSR."""
    n = chosen.size
    Ppi = Tblock[chosen]
    _, label = csgraph.connected_components(
        Ppi, directed=True, connection="strong"
    )
    order = np.argsort(label, kind="stable")[::-1]
    rank = np.empty(n, dtype=np.intc)
    rank[order] = np.arange(n, dtype=np.intc)
    P = Tblock[chosen[order]]
    lens = np.diff(P.indptr)
    ends = np.cumsum(lens)
    diag = np.arange(n, dtype=np.intc)
    at = np.arange(P.nnz) + np.repeat(diag, lens)
    data = np.ones(P.nnz + n)
    data[at] = -P.data
    indices = np.empty(P.nnz + n, dtype=np.intc)
    indices[at] = rank[P.indices]
    indices[ends + diag] = diag
    M = sparse.csc_matrix(
        (data, indices, np.r_[0, ends + diag + 1].astype(np.intc)),
        shape=(n, n),
    )
    M.sum_duplicates()
    lu = sparse_linalg.splu(M, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                            panel_size=1, relax=1)
    x = np.empty(n)
    x[order] = lu.solve(b[order], trans="T")
    return x


def policy_fixpoint_reference(states, Tl, Tblock, rl, own, outside, block,
                              budget, maximize):
    """Policy iteration over the level rows: settle, then improve with
    ``segment_argopt_reference`` until no state strictly improves."""
    vals = outside.copy()
    x0 = vals[states].copy()
    x0[~np.isfinite(x0)] = 0.0
    vals[states] = 0.0
    base = rl + Tl @ vals
    chosen = settle_reference(slot_layout_reference(states, own, Tblock),
                              base, x0, budget, maximize)
    fellback = chosen is None
    if fellback:
        chosen = exit_policy_reference(states, Tl, own, block)
        if chosen is None:
            return None
    x = None
    for _ in range(interval._PI_MAX_ROUNDS):
        budget.tick()
        try:
            xn = evaluate_reference(Tblock, chosen, base[chosen])
        except RuntimeError:
            xn = None
        if xn is None or not np.all(np.isfinite(xn)):
            if fellback:
                return x
            fellback = True
            chosen = exit_policy_reference(states, Tl, own, block)
            if chosen is None:
                return x
            continue
        x = xn
        q = base + Tblock @ x
        greedy = segment_argopt_reference(own, q, maximize)
        best = q[greedy]
        cur = q[chosen]
        margin = interval._CHECK_RTOL * (1.0 + np.abs(cur))
        # An infinite current value has an infinite margin: ``inf - inf``
        # is NaN, which compares False, so the chosen choice stays.
        with np.errstate(invalid="ignore"):
            improve = (best > cur + margin) if maximize \
                else (best < cur - margin)
        if not improve.any():
            return x
        chosen = np.where(improve, greedy, chosen)
    return x


def solve_reward_level_reference(lower, upper, T, idx, own, states, reward,
                                 budget, *, target, epsilon, minimize, seed):
    """One condensation level of a total-reward solve, in place, over
    ``Tl``/``Tblock``/segments (the ``interval._solve_reward_level`` body
    before the padded level; the joint tightening is shared)."""
    R = interval._CHECK_RTOL
    maximize = not minimize
    block = np.zeros(lower.size, dtype=bool)
    block[states] = True
    Tl, Tblock, seg = level_rows_reference(T, idx, own, states)
    rl = reward[idx]

    def phi_of(vec):
        return seg.opt(rl + Tl @ vec, maximize)

    def sweep_lower():
        new = np.maximum(lower[block], phi_of(lower)[block])
        d = new - lower[block]
        lower[block] = new
        return d

    if seed is not None:
        v = lower.copy()
        v[block] = np.maximum(seed[block] - epsilon, 0.0)
        phi = phi_of(v)
        budget.tick()
        if bool(np.all(phi[block] >= v[block]
                       - R * (1.0 + float(np.max(v[block]))))):
            lower[block] = v[block]
    if minimize and states.size <= interval._SPARSE_DIRECT_MAX:
        vals = lower.copy()
        certified = np.isfinite(upper)
        vals[certified] = 0.5 * (lower[certified] + upper[certified])
        x = policy_fixpoint_reference(states, Tl, Tblock, rl, own, vals,
                                      block, budget, False)
        if x is not None:
            delta = target / 4.0
            cl = np.maximum(lower[block], x - delta)
            vec = lower.copy()
            vec[block] = cl
            budget.tick()
            if bool(np.all(phi_of(vec)[block]
                           >= cl - R * (1.0 + float(np.max(cl))))):
                lower[block] = cl
                cu = np.maximum(cl, x + delta)
                vec = upper.copy()
                vec[block] = cu
                budget.tick()
                if bool(np.all(phi_of(vec)[block]
                               <= cu + R * (1.0 + float(np.max(cu))))):
                    upper[block] = cu
                    np.maximum(upper, lower, out=upper)
                    return
    delta = prev_delta = np.inf
    d = prev_d = None
    sweeps = mark = stalled = 0
    delta_mark = np.inf
    hist: list[float] = []
    resid_floor = max(target / 4.0, 1e-300)
    while True:
        budget.tick()
        sweeps += 1
        prev_delta, prev_d = delta, d
        d = sweep_lower()
        delta = float(np.max(d))
        if delta == 0.0:
            break
        hist.append(delta)
        if delta <= resid_floor:
            w = min(len(hist) - 1, 8)
            err = interval._window_error(delta, delta, hist[-1 - w], w) \
                if w else 0.0
            stalled += 1
            if err <= target / 2.0 or stalled > 4 * interval._EXTRAP_EVERY:
                break
        if sweeps - mark < interval._EXTRAP_EVERY or prev_d is None:
            continue
        window = sweeps - mark
        mark = sweeps
        delta_then, delta_mark = delta_mark, delta
        guess = interval._aitken(lower[block], d, prev_d, toward_upper=True)
        if guess is None:
            continue
        est = np.maximum(guess, lower[block])
        resid = np.inf
        for _ in range(interval._SMOOTH_SWEEPS):
            budget.tick()
            vec = lower.copy()
            vec[block] = est
            new_est = np.maximum(phi_of(vec)[block], lower[block])
            resid = float(np.max(np.abs(new_est - est)))
            est = new_est
        err = interval._window_error(resid, delta, delta_then, window)
        reach = float(np.max(est - lower[block]))
        slack = max(target / 4.0, min(err, reach / 4.0))
        for _ in range(2):
            cand = np.maximum(lower[block], est - slack)
            if float(np.max(cand - lower[block])) <= 0.0:
                break
            vec = lower.copy()
            vec[block] = cand
            phi = phi_of(vec)
            budget.tick()
            if bool(np.all(phi[block]
                           >= cand - R * (1.0 + float(np.max(cand))))):
                lower[block] = cand
                break
            slack *= interval._SLACK_GROWTH
    if delta > 0.0:
        w = min(len(hist) - 1, 8)
        error_estimate = (interval._window_error(delta, delta, hist[-1 - w], w)
                          if w else 0.0)
        if not np.isfinite(error_estimate):
            rho = min(max(delta / prev_delta if prev_delta > 0 else 0.0, 0.0),
                      0.999999)
            error_estimate = delta * rho / (1.0 - rho)
    else:
        error_estimate = 0.0
    offset = max(min(error_estimate, 1e12), target / 2.0)
    accepted = False
    while not accepted:
        upper[block] = lower[block] + offset
        for _ in range(interval._OVI_VERIFY_SWEEPS):
            budget.tick()
            pu = phi_of(upper)[block]
            tol = R * (1.0 + float(np.max(upper[block])))
            if bool(np.all(pu <= upper[block] + tol)):
                accepted = True
                upper[block] = np.minimum(upper[block], pu)
                break
            upper[block] = np.minimum(upper[block], pu)
            sweep_lower()
            if bool(np.any(upper[block] < lower[block] - tol)):
                break
        if not accepted:
            offset *= interval._OVI_GROWTH

    def phi_block(vec):
        return phi_of(vec)[block]

    interval._tighten(lower, upper, states, phi_block, phi_block, budget,
                      target=target, hi=np.inf)
    np.maximum(upper, lower, out=upper)


def solve_reward_reference(cm, *, minimize=True, seed=None,
                           epsilon=DEFAULT_EPSILON,
                           max_iterations=DEFAULT_MAX_ITERATIONS,
                           solve_level=solve_reward_level_reference):
    """A certified reward solve with no memo, each level run by
    ``solve_level``: ``ValueResult``-shaped ``(values, choice, lower,
    upper, iterations)``."""
    n = cm.num_states
    goal_zero, active, usable = batch._reward_region(
        cm, cm.label_mask("goal"), cm.label_mask("hazard")
    )
    if seed is not None:
        seed = compiled._sanitize_reward_seed(seed, n)
    lower = np.full(n, np.inf)
    upper = np.full(n, np.inf)
    lower[goal_zero] = upper[goal_zero] = 0.0
    lower[active] = 0.0
    budget = interval._Budget(max_iterations,
                              "reward iteration did not converge")
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
        solve_level(lower, upper, T, idx, owners[idx], np.flatnonzero(block),
                    cm.choice_reward, budget, target=float(targets[level]),
                    epsilon=epsilon, minimize=minimize, seed=seed)
    finite = np.isfinite(lower) & np.isfinite(upper)
    values = np.where(finite, 0.5 * (lower + upper), lower)
    remapped = compiled._extract(cm, values, usable, cm.choice_reward,
                                 not minimize, epsilon)
    return (values, compiled._to_local(cm, remapped), lower, upper,
            budget.iterations + 1)


# -- The explicit routing-model builder --------------------------------------


@dataclass(frozen=True)
class RoutingModel:
    """An explicit routing MDP plus the job it was induced from."""

    mdp: MDP
    job: RoutingJob

    @property
    def num_states(self) -> int:
        return self.mdp.num_states

    @property
    def num_choices(self) -> int:
        return self.mdp.num_choices

    @property
    def num_transitions(self) -> int:
        return self.mdp.num_transitions


def build_routing_mdp(
    job: RoutingJob,
    field: ForceField,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    families: tuple[ActionClass, ...] | None = None,
) -> RoutingModel:
    """Induce the routing MDP ``G_RJ`` (Sec. VI-C) as an explicit
    :class:`~repro.modelcheck.model.MDP`, one state at a time.

    States are enumerated breadth-first from the start pattern; every
    landing outside the hazard bounds (or touching an obstacle) goes to
    the single absorbing ``HAZARD`` sink, goal patterns are absorbing and
    every choice costs ``CYCLE_REWARD``.  ``field`` may be any
    :class:`~repro.core.transitions.ForceField`; ``families`` restricts
    the action set (``None`` enables all five families).
    """
    if job.is_dispense:
        raise ValueError("dispense jobs are materialized, not routed")
    mdp = MDP()
    mdp.set_initial(job.start)
    mdp.add_state(HAZARD_STATE)
    mdp.add_label("hazard", HAZARD_STATE)

    seen: set[Rect] = {job.start}
    queue: deque[Rect] = deque([job.start])
    while queue:
        delta = queue.popleft()
        if job.goal.contains(delta):
            mdp.add_label("goal", delta)
            continue  # goal states are absorbing
        for action in ALL_ACTIONS:
            if families is not None and action.klass not in families:
                continue
            if not guard(delta, action, max_aspect=max_aspect):
                continue
            successors: list[tuple[object, float]] = []
            for outcome in outcome_distribution(delta, action, field):
                landing = outcome.delta
                safe = job.hazard.contains(landing) and (
                    landing == job.start or not job.blocked(landing)
                )
                if safe:
                    successors.append((landing, outcome.probability))
                    if landing not in seen:
                        seen.add(landing)
                        queue.append(landing)
                else:
                    successors.append((HAZARD_STATE, outcome.probability))
            mdp.add_choice(delta, action.name, successors, reward=CYCLE_REWARD)

    return RoutingModel(mdp=mdp, job=job)


# -- Pure-Python value iteration over an explicit MDP -------------------------


def _prepare(mdp: MDP, goal: str, avoid: str) -> tuple[set[int], set[int]]:
    goal_states = mdp.label_set(goal)
    avoid_states = mdp.label_set(avoid)
    if overlap := goal_states & avoid_states:
        raise ValueError(f"states {overlap} are both goal and avoid")
    return goal_states, avoid_states


def _live_choices(mdp: MDP, s: int, frozen: set[int]):
    return [] if s in frozen else mdp.enabled(s)


def _exists_reach(mdp: MDP, target: set[int], frozen: set[int]) -> set[int]:
    """States with a positive-probability path into ``target`` that only
    uses choices of non-frozen states (goal/avoid are absorbing here)."""
    reach = set(target)
    changed = True
    while changed:
        changed = False
        for s in range(mdp.num_states):
            if s in reach:
                continue
            for c in _live_choices(mdp, s, frozen):
                if any(t in reach for t, _ in c.successors):
                    reach.add(s)
                    changed = True
                    break
    return reach


def _prob0e_set(
    mdp: MDP, goal_states: set[int], avoid_states: set[int]
) -> set[int]:
    """``Pmin = 0``: the greatest fixpoint of non-goal states that are
    absorbed at value 0 or own a choice whose support stays in the set."""
    frozen = goal_states | avoid_states
    z = set(range(mdp.num_states)) - goal_states
    while True:
        new_z = set()
        for s in z:
            live = _live_choices(mdp, s, frozen)
            if not live or any(
                all(t in z for t, _ in c.successors) for c in live
            ):
                new_z.add(s)
        if new_z == z:
            return z
        z = new_z


def _prob1e_set(
    mdp: MDP, goal_states: set[int], avoid_states: set[int]
) -> set[int]:
    """The nested fixpoint ``nu Z. mu Y. goal | Pre(Z, Y)`` (labels
    already resolved)."""
    n = mdp.num_states
    candidates = {
        s
        for s in range(n)
        if s not in avoid_states and (s in goal_states or not mdp.is_absorbing(s))
    }
    while True:
        reached = set(goal_states & candidates)
        changed = True
        while changed:
            changed = False
            for s in candidates:
                if s in reached or s in goal_states:
                    continue
                for c in mdp.enabled(s):
                    succs = [t for t, _ in c.successors]
                    if all(t in candidates for t in succs) and any(
                        t in reached for t in succs
                    ):
                        reached.add(s)
                        changed = True
                        break
        if reached == candidates:
            return candidates
        candidates = reached


def qualitative_sets(
    mdp: MDP, goal_states: set[int], avoid_states: set[int], maximize: bool
) -> tuple[set[int], set[int]]:
    """``(zero, one)`` state sets for one objective.

    ``Pmax``: ``zero`` is ``prob0a`` (no strategy reaches the goal) and
    ``one`` is ``prob1e``.  ``Pmin``: ``zero`` is ``prob0e`` (some
    strategy dodges the goal forever) and ``one`` is ``prob1a`` (the
    complement of exists-reach of ``prob0e``).
    """
    frozen = goal_states | avoid_states
    if maximize:
        reach = _exists_reach(mdp, goal_states, frozen)
        zero = set(range(mdp.num_states)) - reach
        one = _prob1e_set(mdp, goal_states, avoid_states)
    else:
        zero = _prob0e_set(mdp, goal_states, avoid_states)
        one = set(range(mdp.num_states)) - _exists_reach(mdp, zero, frozen)
    return zero, one


def prob1e(mdp: MDP, goal: str = "goal", avoid: str = "hazard") -> set[int]:
    """States where some strategy reaches ``goal`` w.p. 1, avoiding
    ``avoid``; avoid states and absorbing non-goal states never qualify."""
    goal_states, avoid_states = _prepare(mdp, goal, avoid)
    return _prob1e_set(mdp, goal_states, avoid_states)


def reachable_states(mdp: MDP, from_state: int | None = None) -> set[int]:
    """Indices reachable from ``from_state`` (default: the initial state)."""
    start = mdp.initial if from_state is None else from_state
    if start is None:
        raise ValueError("model has no initial state")
    seen = {start}
    frontier_ = [start]
    while frontier_:
        s = frontier_.pop()
        for c in mdp.enabled(s):
            for t, _ in c.successors:
                if t not in seen:
                    seen.add(t)
                    frontier_.append(t)
    return seen


def _better(v: float, best: float | None, maximize: bool) -> bool:
    return best is None or (v > best if maximize else v < best)


def reach_avoid_probability(
    mdp: MDP,
    goal: str = "goal",
    avoid: str = "hazard",
    maximize: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> ValueResult:
    """``Pmax`` (or ``Pmin``) of ``[] !avoid && <> goal`` for every state:
    the qualitative sets pin the exact 0/1 states, Gauss-Seidel sweeps
    iterate the rest until a sweep moves no value by ``epsilon``, and one
    greedy pass picks the choices.  Uncertified (no bounds)."""
    goal_states, avoid_states = _prepare(mdp, goal, avoid)
    n = mdp.num_states
    zero, one = qualitative_sets(mdp, goal_states, avoid_states, maximize)
    values = np.zeros(n)
    for s in one:
        values[s] = 1.0
    choice = np.full(n, -1, dtype=int)
    frozen = goal_states | avoid_states
    pinned = frozen | zero | one

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        delta = 0.0
        for s in range(n):
            if s in pinned or mdp.is_absorbing(s):
                continue
            best: float | None = None
            for c in mdp.enabled(s):
                v = sum(p * values[t] for t, p in c.successors)
                if _better(v, best, maximize):
                    best = v
            delta = max(delta, abs(best - values[s]))
            values[s] = best
        if delta < epsilon:
            break
    else:
        raise RuntimeError(
            f"value iteration did not converge in {max_iterations} steps"
        )

    for s in range(n):
        if s in frozen or mdp.is_absorbing(s):
            continue
        best = None
        for c_idx, c in enumerate(mdp.enabled(s)):
            v = sum(p * values[t] for t, p in c.successors)
            if _better(v, best, maximize):
                best, choice[s] = v, c_idx
    return ValueResult(values=values, choice=choice, iterations=iterations)


def reach_avoid_reward(
    mdp: MDP,
    goal: str = "goal",
    avoid: str = "hazard",
    minimize: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> ValueResult:
    """``Rmin`` (or ``Rmax``) of the cumulated reward until ``goal``.

    PRISM total-reward semantics: goal states are 0, states outside the
    ``prob1e`` region are ``inf``, and the iteration (from 0) uses only
    choices whose support stays inside that region.  Uncertified.
    """
    goal_states = mdp.label_set(goal)
    sure = prob1e(mdp, goal=goal, avoid=avoid)
    n = mdp.num_states
    values = np.full(n, np.inf)
    choice = np.full(n, -1, dtype=int)
    for g in goal_states & sure:
        values[g] = 0.0
    usable: list[list[int]] = [[] for _ in range(n)]
    for s in sure - goal_states:
        for c_idx, c in enumerate(mdp.enabled(s)):
            if all(t in sure for t, _ in c.successors):
                usable[s].append(c_idx)
    active = [s for s in sure if s not in goal_states and usable[s]]
    for s in active:
        values[s] = 0.0

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        delta = 0.0
        for s in active:
            best: float | None = None
            for c_idx in usable[s]:
                c = mdp.enabled(s)[c_idx]
                v = c.reward + sum(p * values[t] for t, p in c.successors)
                if _better(v, best, not minimize):
                    best, choice[s] = v, c_idx
            delta = max(delta, abs(best - values[s]))
            values[s] = best
        if delta < epsilon:
            break
    else:
        raise RuntimeError(
            f"reward iteration did not converge in {max_iterations} steps"
        )
    return ValueResult(values=values, choice=choice, iterations=iterations)
