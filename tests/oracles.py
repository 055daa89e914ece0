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
* :func:`warm_seed_reference` — the warm seed as it was mapped before
  strategies stayed columns: one ``{pattern: value}`` lookup per state of
  the new model.  ``tests/test_warm_seed_columns.py`` checks the column
  reuse and the corner join against it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.biochip.chip import MedaChip
from repro.core.actions import (
    ACTIONS,
    DEFAULT_MAX_ASPECT,
    Action,
    ActionClass,
    apply_action,
    frontier,
)
from repro.core.droplet import actuation_matrix
from repro.core.fastmdp import (
    HAZARD_INDEX,
    CompiledRoutingModel,
    _ActionSpec,
    _compile_shape_actions,
)
from repro.core.mdp import CYCLE_REWARD, HAZARD_STATE
from repro.core.routing_job import RoutingJob
from repro.core.transitions import MatrixForceField, Outcome
from repro.geometry.rect import Rect
from repro.modelcheck.compiled import CompiledMDP
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
    state_objects: list[Rect | str] = [HAZARD_STATE] + [
        Rect(*r) for r in states[1:]  # type: ignore[misc]
    ]
    label_table = tuple(dict.fromkeys(choice_labels))
    columns = StateColumns(
        states=state_objects,
        corners=np.array([(0, 0, 0, 0)] + states[1:], dtype=np.int16),
        label_states=((HAZARD_INDEX, HAZARD_STATE),),
        labels=label_table,
    )
    return CompiledRoutingModel(
        compiled=compiled, states=state_objects, job=job, columns=columns,
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
