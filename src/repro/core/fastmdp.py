"""Array-first construction of the per-RJ routing MDP.

Semantically identical to :func:`repro.core.mdp.build_routing_mdp` followed
by :func:`repro.modelcheck.compiled.compile_mdp` — the unit tests check the
two pipelines produce the same model statistics and the same synthesis
values — but built for the synthesis hot loop:

* droplet patterns are plain ``(xa, ya, xb, yb)`` int tuples;
* per-(shape, action) metadata (guards, frontier rectangles, successor
  patterns) is compiled once per *process* into a global memo keyed by
  ``(w, h, max_aspect, families)`` and shifted per state;
* frontier means come from a 2-D prefix sum of the force matrix, so every
  leg probability is O(1);
* state expansion is *vectorized over BFS wavefronts*: every state of a
  wave with the same droplet shape is expanded with numpy array ops (leg
  probabilities, outcome products, hazard/obstacle checks, successor
  dedup through a per-shape id grid) instead of a per-state Python loop;
* transitions are emitted into chunked numpy buffers and assembled into
  CSR form directly, skipping the explicit model objects entirely.

:func:`build_routing_model_scalar` keeps the original per-state Python
expansion.  It is the pre-fast-path pipeline: the differential tests check
the vectorized builder against it (and against the reference explicit
builder), and ``benchmarks/bench_synthesis.py`` measures the speedup of
the fast path over it.

Only matrix-backed force fields are supported (the synthesizer's health
estimates and the baseline's uniform field both are); exotic fields fall
back to the explicit builder in :mod:`repro.core.synthesis`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro import perf
from repro.core.actions import (
    ALL_ACTIONS,
    DEFAULT_MAX_ASPECT,
    Action,
    ActionClass,
    apply_action,
    frontier,
    frontier_directions,
    guard,
)
from repro.core.mdp import CYCLE_REWARD
from repro.core.routing_job import RoutingJob
from repro.geometry.rect import Rect
from repro.modelcheck.compiled import CompiledMDP
from repro.modelcheck.reachability import ValueResult
from repro.modelcheck.strategy import MemorylessStrategy

IntRect = tuple[int, int, int, int]

#: Index of the absorbing hazard sink in every compiled routing model.
HAZARD_INDEX = 0


@dataclass(frozen=True)
class _LegSpec:
    """A frontier rectangle as offsets from the droplet's (xa, ya)."""

    dxa: int
    dya: int
    dxb: int
    dyb: int


@dataclass(frozen=True)
class _ActionSpec:
    """Precompiled semantics of one action for one droplet shape.

    ``legs`` holds the offset frontiers whose means are the leg success
    probabilities; ``outcomes`` maps tuples of leg-success booleans to the
    successor-pattern offsets ``(dxa, dya, w, h)`` (``None`` = stay put).
    """

    name: str
    klass: ActionClass
    legs: tuple[_LegSpec, ...]
    outcomes: tuple[tuple[tuple[bool, ...], tuple[int, int, int, int] | None], ...]


def _offset(base: Rect, rect: Rect) -> _LegSpec:
    return _LegSpec(
        rect.xa - base.xa, rect.ya - base.ya, rect.xb - base.xa, rect.yb - base.ya
    )


def _succ_offset(base: Rect, rect: Rect) -> tuple[int, int, int, int]:
    return (rect.xa - base.xa, rect.ya - base.ya, rect.width, rect.height)


def _compile_shape_actions(
    w: int, h: int, max_aspect: float,
    families: tuple[ActionClass, ...] | None = None,
) -> list[_ActionSpec]:
    """Per-shape action metadata, derived from the reference implementation."""
    base = Rect(100, 100, 100 + w - 1, 100 + h - 1)
    specs: list[_ActionSpec] = []
    for action in ALL_ACTIONS:
        if families is not None and action.klass not in families:
            continue
        if not guard(base, action, max_aspect=max_aspect):
            continue
        specs.append(_spec_for(base, action))
    return specs


def _spec_for(base: Rect, action: Action) -> _ActionSpec:
    klass = action.klass
    if klass is ActionClass.CARDINAL:
        (direction,) = frontier_directions(action)
        leg = _offset(base, frontier(base, action, direction))  # type: ignore[arg-type]
        moved = _succ_offset(base, apply_action(base, action))
        return _ActionSpec(
            action.name, klass, (leg,),
            (((True,), moved), ((False,), None)),
        )
    if klass is ActionClass.DOUBLE:
        (direction,) = frontier_directions(action)
        leg1 = _offset(base, frontier(base, action, direction))  # type: ignore[arg-type]
        from repro.core.actions import ACTIONS

        one = apply_action(base, ACTIONS[f"a_{direction}"])
        leg2 = _offset(base, frontier(one, action, direction))  # type: ignore[arg-type]
        return _ActionSpec(
            action.name, klass, (leg1, leg2),
            (
                ((True, True), _succ_offset(base, apply_action(base, action))),
                ((True, False), _succ_offset(base, one)),
                ((False,), None),  # second leg never attempted
            ),
        )
    if klass is ActionClass.ORDINAL:
        dv, dh = action.vertical, action.horizontal
        assert dv is not None and dh is not None
        legv = _offset(base, frontier(base, action, dv))  # type: ignore[arg-type]
        legh = _offset(base, frontier(base, action, dh))  # type: ignore[arg-type]
        from repro.core.actions import ACTIONS

        return _ActionSpec(
            action.name, klass, (legv, legh),
            (
                ((True, True), _succ_offset(base, apply_action(base, action))),
                ((True, False),
                 _succ_offset(base, apply_action(base, ACTIONS[f"a_{dv}"]))),
                ((False, True),
                 _succ_offset(base, apply_action(base, ACTIONS[f"a_{dh}"]))),
                ((False, False), None),
            ),
        )
    # Morphs: one leg; success reshapes the droplet.
    (direction,) = frontier_directions(action)
    fr = frontier(base, action, direction)
    if fr is None:  # degenerate single-row/-column morphs are unguarded only
        raise AssertionError("guarded morph must have a frontier")
    return _ActionSpec(
        action.name, klass, (_offset(base, fr),),
        (((True,), _succ_offset(base, apply_action(base, action))),
         ((False,), None)),
    )


#: Process-global memo of per-shape action semantics.  Key: droplet shape,
#: aspect bound and (normalized) family restriction; value: the compiled
#: specs.  Shape semantics are position-independent, so one compilation
#: serves every model build in the process.
_SHAPE_ACTION_MEMO: dict[
    tuple[int, int, float, tuple[ActionClass, ...] | None],
    tuple[_ActionSpec, ...],
] = {}


def compiled_shape_actions(
    w: int, h: int, max_aspect: float,
    families: tuple[ActionClass, ...] | None = None,
) -> tuple[_ActionSpec, ...]:
    """Memoized per-shape action semantics (see :data:`_SHAPE_ACTION_MEMO`)."""
    key = (w, h, float(max_aspect),
           families if families is None else tuple(families))
    specs = _SHAPE_ACTION_MEMO.get(key)
    if specs is None:
        perf.incr("fastmdp.shape_memo.miss")
        specs = tuple(_compile_shape_actions(w, h, max_aspect,
                                             families=key[3]))
        _SHAPE_ACTION_MEMO[key] = specs
    else:
        perf.incr("fastmdp.shape_memo.hit")
    return specs


def clear_shape_action_memo() -> None:
    """Drop the global action-spec memo (benches use this to model a cold
    process; regular code never needs it — specs are immutable)."""
    _SHAPE_ACTION_MEMO.clear()


@dataclass(frozen=True)
class CompiledRoutingModel:
    """A routing MDP in compiled (array) form plus its state inventory."""

    compiled: CompiledMDP
    states: list[Rect | str]
    choice_labels: list[str]
    job: RoutingJob

    @property
    def num_states(self) -> int:
        return self.compiled.num_states

    @property
    def num_choices(self) -> int:
        return self.compiled.num_choices

    @property
    def num_transitions(self) -> int:
        return int(self.compiled.transitions.nnz)


def build_routing_model_scalar(
    job: RoutingJob,
    forces: np.ndarray,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    families: tuple[ActionClass, ...] | None = None,
) -> CompiledRoutingModel:
    """Per-state (scalar) compiled-model builder — the pre-fast-path pipeline.

    Semantically identical to :func:`build_routing_model_fast` but expands
    one state at a time in pure Python.  Kept as the differential-test
    oracle and as the baseline that ``benchmarks/bench_synthesis.py``
    measures the vectorized fast path against; no production caller uses
    it.
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
    from repro.core.mdp import HAZARD_STATE

    state_objects: list[Rect | str] = [HAZARD_STATE] + [
        Rect(*r) for r in states[1:]  # type: ignore[misc]
    ]
    return CompiledRoutingModel(
        compiled=compiled, states=state_objects, choice_labels=choice_labels,
        job=job,
    )


def _gathered_probs(
    pf: np.ndarray, gather: np.ndarray, valid: np.ndarray, area: np.ndarray
) -> np.ndarray:
    """Leg probabilities from a flat force prefix and a gather record.

    ``gather`` holds the four flat prefix indices of each clamped rect
    corner, ``(4, L, k)`` for L legs over a k-position batch; ``valid``
    masks empty-overlap rows and ``area`` is the per-leg rect area.  The
    corner combination runs left-to-right exactly as the recording build's
    2-D indexing did, so the result is bit-identical.
    """
    total = pf[gather[0]] - pf[gather[1]] - pf[gather[2]] + pf[gather[3]]
    return np.where(valid, total / area, 0.0)


def _stack_leg_probs(
    prefix: np.ndarray, width: int, height: int,
    xa: np.ndarray, ya: np.ndarray, legs: "tuple[_LegSpec, ...]",
    ox: int, oy: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Vectorized ``rect_mean`` over a position batch for all legs at once.

    Returns ``(probs, gather, valid, area)`` where ``probs`` is ``(L, k)``
    and the rest is the :func:`_gathered_probs` record the revalue path
    replays.  ``prefix`` is a window-local force prefix offset by
    ``(ox, oy)`` force cells from the chip origin (see
    :func:`_read_window`); the clamps stay in global chip coordinates so
    the arithmetic is position-independent.  The clamp/index arithmetic is
    pure geometry — constant across force matrices — which is why it can
    be recorded once and skipped on every revalue.
    """
    k = xa.size
    if not legs:
        return (
            np.zeros((0, k)), np.zeros((4, 0, k), dtype=np.int64),
            np.zeros((0, k), dtype=bool), np.zeros((0, 1)),
        )
    dxa = np.array([leg.dxa for leg in legs], dtype=np.int64)[:, None]
    dya = np.array([leg.dya for leg in legs], dtype=np.int64)[:, None]
    dxb = np.array([leg.dxb for leg in legs], dtype=np.int64)[:, None]
    dyb = np.array([leg.dyb for leg in legs], dtype=np.int64)[:, None]
    cxa = np.maximum(xa[None, :] + dxa, 1)
    cya = np.maximum(ya[None, :] + dya, 1)
    cxb = np.minimum(xa[None, :] + dxb, width)
    cyb = np.minimum(ya[None, :] + dyb, height)
    valid = (cxb >= cxa) & (cyb >= cya)
    # Clamp the lookup indices so invalid (empty-overlap) rows index
    # safely; their values are discarded by the mask.  One-sided clamps
    # suffice: cxb/cyb are already bounded above, cxa/cya below.
    ixb = np.maximum(cxb, 0) - ox
    iyb = np.maximum(cyb, 0) - oy
    ixa = np.minimum(cxa - 1, width) - ox
    iya = np.minimum(cya - 1, height) - oy
    ph = prefix.shape[1]
    gather = np.stack(
        [ixb * ph + iyb, ixa * ph + iyb, ixb * ph + iya, ixa * ph + iya]
    )
    area = ((dxb - dxa + 1) * (dyb - dya + 1)).astype(float)
    return _gathered_probs(prefix.ravel(), gather, valid, area), \
        gather, valid, area


def _force_prefix(forces: np.ndarray) -> np.ndarray:
    width, height = forces.shape
    prefix = np.zeros((width + 1, height + 1))
    prefix[1:, 1:] = forces.cumsum(axis=0).cumsum(axis=1)
    return prefix


def _read_window(
    hz: tuple, hz_w: int, hz_h: int,
    shapes: "list[tuple[int, int]]",
    specs_by_shape: "list[tuple[_ActionSpec, ...]]",
    width: int, height: int,
) -> tuple[int, int, int, int]:
    """The force-cell window ``[x0:x1, y0:y1]`` a build can read.

    Every leg-probability lookup indexes the force prefix at clamped rect
    corners; the clamps are monotone in the anchor coordinate, so the
    extremes over a shape's anchor range bound every lookup.  The build
    sums forces over a prefix *local to this window*, which makes the
    model a pure function of ``forces[x0:x1, y0:y1]`` — the foundation of
    the batch kernel's fingerprint-level dedup (identical window bytes
    imply a bit-identical model).
    """
    x0, x1 = width, 0
    y0, y1 = height, 0
    for si, (w, h) in enumerate(shapes):
        ax_lo, ax_hi = hz[0], hz[0] + (hz_w - w)
        ay_lo, ay_hi = hz[1], hz[1] + (hz_h - h)
        for spec in specs_by_shape[si]:
            for leg in spec.legs:
                x0 = min(x0, min(max(ax_lo + leg.dxa, 1) - 1, width))
                x1 = max(x1, max(min(ax_hi + leg.dxb, width), 0))
                y0 = min(y0, min(max(ay_lo + leg.dya, 1) - 1, height))
                y1 = max(y1, max(min(ay_hi + leg.dyb, height), 0))
    if x1 < x0:  # no legs at all: degenerate empty window at the origin
        x0 = x1 = y0 = y1 = 0
    return x0, x1, y0, y1


@dataclass
class _SpecRecord:
    """Support record of one ``(shape, action)`` pair in a build template.

    ``emits`` holds one boolean mask per *moving* outcome (``succ`` not
    None) in spec order — ``True`` where the outcome had positive
    probability; ``stay_emit`` is the same for the aggregated stay outcome.
    The transition *structure* (targets, reachability, renumbering) depends
    on the force matrix only through these masks, so a revalue is valid
    exactly when they are unchanged.
    """

    spec: _ActionSpec
    emits: list[np.ndarray]
    stay_emit: np.ndarray | None = None
    # Precomputed :func:`_gathered_probs` record — the clamp/index geometry
    # is force-independent, so revalues skip straight to the prefix gathers.
    gather: np.ndarray | None = None
    valid: np.ndarray | None = None
    area: np.ndarray | None = None


@dataclass
class _ShapeRecord:
    xa: np.ndarray
    ya: np.ndarray
    specs: list[_SpecRecord]
    # Shape-level replay tables, built lazily by :func:`_fuse_shape_records`
    # on the first revalue: every spec's gather record concatenated (one
    # prefix gather per shape) plus the outcome products of ALL specs
    # compiled into one ``(outcomes, k)`` matrix computation.  All of it is
    # force-independent geometry, so it is recorded once and replayed.
    fused_gather: np.ndarray | None = None
    fused_valid: np.ndarray | None = None
    fused_area: np.ndarray | None = None
    #: Per outcome and leg position: the ``probs_all`` row the factor comes
    #: from, whether the leg must succeed, and whether the outcome attempts
    #: it at all (a DOUBLE's first-leg failure has a shorter pattern than
    #: its leg count; unused legs multiply by exactly 1.0, a bit-exact
    #: no-op).
    leg_index: np.ndarray | None = None
    leg_success: np.ndarray | None = None
    leg_used: np.ndarray | None = None
    #: Moving outcomes: rows into the outcome-product matrix, and their
    #: recorded support masks stacked for one comparison.
    succ_rows: np.ndarray | None = None
    emit_matrix: np.ndarray | None = None
    #: Staying outcomes, accumulated per spec in appearance order: step ``s``
    #: adds ``P[p_rows]`` into ``S[spec_idx]`` — sequential adds, identical
    #: to the scalar loop's ``stay_p += p``.
    stay_steps: "tuple[tuple[np.ndarray, np.ndarray], ...] | None" = None
    stay_emit_matrix: np.ndarray | None = None
    #: Gather reproducing the build's exact chunk order (per spec: moving
    #: outcomes' positive entries, then the stay outcome's) from the matrix
    #: ``vstack([P[succ_rows], S])``.
    val_rows: np.ndarray | None = None
    val_cols: np.ndarray | None = None


@dataclass
class _BuildTemplate:
    """Everything force-independent about one job's built model.

    A template is recorded on the first (full) build for a job geometry and
    replayed by :func:`_revalue_template` for later builds that differ only
    in the force matrix: the per-outcome probabilities are recomputed, the
    support masks validated against :class:`_SpecRecord`, and the CSR
    transition matrix reassembled through the same scipy calls — producing
    a model bit-identical to a fresh build at a fraction of the cost.
    """

    shapes: list[_ShapeRecord]
    #: Force-cell window ``forces[x0:x1, y0:y1]`` the build reads — the
    #: model is a pure function of this slice (see :func:`_read_window`).
    window: tuple[int, int, int, int] = (0, 0, 0, 0)
    # CSR assembly skeleton (None tmask = the no-transitions edge case).
    tmask: np.ndarray | None = None
    t_order: np.ndarray | None = None
    cols_sorted: np.ndarray | None = None
    indptr: np.ndarray | None = None
    # Canonical-CSR shortcut recorded by probing scipy's own
    # canonicalization (see ``_build_fast``): ``torder2`` permutes the kept
    # values straight into scipy's post-``sort_indices`` order and
    # ``starts`` marks each duplicate run, so a revalue assembles the final
    # matrix with one ``np.add.reduceat`` instead of re-sorting.  ``None``
    # when the one-time probe self-check failed (revalue then falls back to
    # the ``sum_duplicates`` path).
    torder2: np.ndarray | None = None
    starts: np.ndarray | None = None
    final_indices: np.ndarray | None = None
    final_indptr: np.ndarray | None = None
    num_choices: int = 0
    n: int = 0
    # Shared (read-only) model components.
    choice_state: np.ndarray | None = None
    choice_reward: np.ndarray | None = None
    labels: dict | None = None
    states: list | None = None
    choice_labels: list | None = None
    first_choice: np.ndarray | None = None
    digest: str | None = None
    #: The last cold result solved for this job geometry, as
    #: ``((window bytes, extra), result)`` — see :func:`cold_result`.
    cold: tuple | None = None


#: Process-global LRU of build templates keyed by job geometry
#: ``(job.key(), forces.shape, max_aspect, families)``.  A build hit or a
#: cold-result hit refreshes its entry; ``build_dedup_token`` only peeks.
_TEMPLATE_CACHE: "OrderedDict[tuple, _BuildTemplate]" = OrderedDict()
_TEMPLATE_CACHE_MAX = 64

#: Guards cache mutation and the lazy per-template fuse.  The serve layer
#: runs builds on worker threads, and two workers revaluing the same
#: template must not observe a half-published replay table.
_TEMPLATE_LOCK = threading.Lock()


def clear_build_template_cache() -> None:
    """Drop the build-template cache, cold results included (benches
    model a cold process with this; regular code never needs it —
    revalues and remembered results are bit-identical)."""
    with _TEMPLATE_LOCK:
        _TEMPLATE_CACHE.clear()
        perf.set_gauge("fastmdp.template.size", 0)


def clear_cold_results() -> None:
    """Forget every template's remembered cold result, keeping the
    templates themselves."""
    with _TEMPLATE_LOCK:
        for tpl in _TEMPLATE_CACHE.values():
            tpl.cold = None


def _template_key(
    job: RoutingJob,
    forces: np.ndarray,
    max_aspect: float,
    families: tuple[ActionClass, ...] | None,
) -> tuple:
    return (
        job.key(), forces.shape, float(max_aspect),
        families if families is None else tuple(families),
    )


def _window_bytes(tpl: _BuildTemplate, forces: np.ndarray) -> bytes:
    x0, x1, y0, y1 = tpl.window
    return forces[x0:x1, y0:y1].tobytes()


def cold_result(
    job: RoutingJob,
    forces: np.ndarray,
    extra: tuple,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    families: tuple[ActionClass, ...] | None = None,
):
    """The cold result remembered for ``(job, forces, extra)``, or None.

    Each template keeps one slot: the last result stored by
    :func:`remember_cold_result`, keyed by the bytes of the force window
    the build reads plus ``extra`` (the caller's solve parameters).  A
    build is a pure function of those bytes (:func:`_read_window`), so a
    cold solve of it is too, and a hit is exactly what a fresh build and
    solve would return.  A hit refreshes the template's LRU entry, as the
    build it replaces would.
    """
    key = _template_key(job, forces, max_aspect, families)
    with _TEMPLATE_LOCK:
        tpl = _TEMPLATE_CACHE.get(key)
        if tpl is None or tpl.cold is None:
            return None
        stored_key, result = tpl.cold
        if stored_key != (_window_bytes(tpl, forces), extra):
            return None
        _TEMPLATE_CACHE.move_to_end(key)
    return result


def remember_cold_result(
    job: RoutingJob,
    forces: np.ndarray,
    extra: tuple,
    result,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    families: tuple[ActionClass, ...] | None = None,
) -> None:
    """Store ``result`` in the slot of the job's template (see
    :func:`cold_result`), replacing what it held; a no-op when the
    template has been evicted since the build."""
    key = _template_key(job, forces, max_aspect, families)
    with _TEMPLATE_LOCK:
        tpl = _TEMPLATE_CACHE.get(key)
        if tpl is not None:
            tpl.cold = ((_window_bytes(tpl, forces), extra), result)


def _fuse_shape_records(sh: _ShapeRecord, k: int) -> None:
    """Precompute a shape's revalue replay tables (once per template).

    Concatenates the per-spec gather records so one prefix gather serves
    the whole shape, and compiles every spec's outcome list into the
    tables :func:`_revalue_template` replays as a handful of whole-shape
    array operations.  Everything here is force-independent geometry.

    ``fused_gather`` doubles as the "tables are ready" sentinel for
    concurrent revaluers, so it is assigned *last*: a reader that sees it
    non-``None`` is guaranteed every other table was published first.
    """
    fused_gather = (
        np.concatenate([rec.gather for rec in sh.specs], axis=1)
        if sh.specs else np.zeros((4, 0, k), dtype=np.int64)
    )
    sh.fused_valid = (
        np.concatenate([rec.valid for rec in sh.specs])
        if sh.specs else np.zeros((0, k), dtype=bool)
    )
    sh.fused_area = (
        np.concatenate([rec.area for rec in sh.specs])
        if sh.specs else np.zeros((0, 1))
    )
    max_legs = max(
        (rec.gather.shape[1] for rec in sh.specs), default=0
    )
    total = sum(len(rec.spec.outcomes) for rec in sh.specs)
    leg_index = np.zeros((total, max_legs), dtype=np.int64)
    leg_success = np.zeros((total, max_legs), dtype=bool)
    leg_used = np.zeros((total, max_legs), dtype=bool)
    succ_rows: "list[int]" = []
    stay_of_spec: "list[list[int]]" = []  # per spec: P rows, in order
    emit_rows: "list[np.ndarray]" = []
    stay_emits: "list[np.ndarray]" = []
    row = 0
    leg_base = 0
    for rec in sh.specs:
        stay_rows: "list[int]" = []
        for pattern, succ in rec.spec.outcomes:
            for j, success in enumerate(pattern):
                leg_index[row, j] = leg_base + j
                leg_success[row, j] = success
                leg_used[row, j] = True
            (stay_rows if succ is None else succ_rows).append(row)
            row += 1
        stay_of_spec.append(stay_rows)
        emit_rows.extend(rec.emits)
        stay_emits.append(rec.stay_emit)
        leg_base += rec.gather.shape[1]
    sh.leg_index = leg_index
    sh.leg_success = leg_success
    sh.leg_used = leg_used
    sh.succ_rows = np.asarray(succ_rows, dtype=np.int64)
    sh.emit_matrix = (
        np.stack(emit_rows) if emit_rows else np.zeros((0, k), dtype=bool)
    )
    steps = []
    for depth in range(max((len(s) for s in stay_of_spec), default=0)):
        spec_idx = [si for si, s in enumerate(stay_of_spec) if len(s) > depth]
        steps.append((
            np.asarray(spec_idx, dtype=np.int64),
            np.asarray(
                [stay_of_spec[si][depth] for si in spec_idx], dtype=np.int64
            ),
        ))
    sh.stay_steps = tuple(steps)
    sh.stay_emit_matrix = (
        np.stack(stay_emits) if stay_emits
        else np.zeros((0, k), dtype=bool)
    )
    # Chunk-order gather: per spec, its moving outcomes' positive entries
    # (row-major), then its stay outcome's — exactly the order the
    # recording build appended value chunks in.
    n_succ = len(succ_rows)
    rows_list: "list[np.ndarray]" = []
    cols_list: "list[np.ndarray]" = []
    succ_row = 0
    for si, rec in enumerate(sh.specs):
        for emit in rec.emits:
            cols = np.flatnonzero(emit)
            rows_list.append(np.full(cols.size, succ_row, dtype=np.int64))
            cols_list.append(cols)
            succ_row += 1
        cols = np.flatnonzero(rec.stay_emit)
        rows_list.append(np.full(cols.size, n_succ + si, dtype=np.int64))
        cols_list.append(cols)
    sh.val_rows = (
        np.concatenate(rows_list) if rows_list
        else np.zeros(0, dtype=np.int64)
    )
    sh.val_cols = (
        np.concatenate(cols_list) if cols_list
        else np.zeros(0, dtype=np.int64)
    )
    sh.fused_gather = fused_gather


def _revalue_template(
    tpl: _BuildTemplate, job: RoutingJob, forces: np.ndarray
) -> CompiledRoutingModel | None:
    """Rebuild a job's model from its template for a new force matrix.

    Recomputes leg probabilities and outcome products with the exact
    arithmetic of the full build, validates every support mask against the
    template, and reassembles the transitions through the same
    ``csr_matrix`` + ``sum_duplicates`` calls — so the result is
    bit-identical to a fresh :func:`build_routing_model_fast` build.
    Returns ``None`` when any support mask changed (the caller falls back
    to a full rebuild, which re-records the template).
    """
    wx0, wx1, wy0, wy1 = tpl.window
    pf = _force_prefix(forces[wx0:wx1, wy0:wy1]).ravel()
    chunks: list[np.ndarray] = []
    for sh in tpl.shapes:
        k = sh.xa.size
        if sh.fused_gather is None:
            with _TEMPLATE_LOCK:
                if sh.fused_gather is None:
                    _fuse_shape_records(sh, k)
        probs_all = _gathered_probs(
            pf, sh.fused_gather, sh.fused_valid, sh.fused_area
        )
        nprobs_all = 1.0 - probs_all
        # All outcome probabilities of the shape as one (outcomes, k)
        # product, factors applied leg-by-leg left-to-right exactly as the
        # recording build's scalar loop did (an unused leg contributes 1.0,
        # an exact no-op), so every row is bit-identical to the solo path's
        # sequential product.
        outcome_p = np.ones((sh.leg_index.shape[0], k))
        for j in range(sh.leg_index.shape[1]):
            rows = sh.leg_index[:, j]
            factor = np.where(
                sh.leg_success[:, j, None], probs_all[rows], nprobs_all[rows]
            )
            np.multiply(
                outcome_p,
                np.where(sh.leg_used[:, j, None], factor, 1.0),
                out=outcome_p,
            )
        succ_p = outcome_p[sh.succ_rows]
        if not np.array_equal(succ_p > 0.0, sh.emit_matrix):
            return None
        stay_p = np.zeros((sh.stay_emit_matrix.shape[0], k))
        for spec_idx, p_rows in sh.stay_steps:
            stay_p[spec_idx] += outcome_p[p_rows]
        if not np.array_equal(stay_p > 0.0, sh.stay_emit_matrix):
            return None
        stacked = np.concatenate([succ_p, stay_p])
        vals = stacked[sh.val_rows, sh.val_cols]
        if vals.size:
            chunks.append(vals)

    n = tpl.n
    num_choices = tpl.num_choices
    if tpl.tmask is None:
        transitions = sparse.csr_matrix((max(num_choices, 1), n))
    else:
        val_arr = np.concatenate(chunks) if chunks else np.zeros(0)
        vals_f = val_arr[tpl.tmask]
        if tpl.starts is not None:
            # Canonical shortcut: values permuted into scipy's
            # post-sort order, duplicate runs summed left-to-right just
            # like ``sum_duplicates`` would (reduceat segments this short
            # add sequentially) — bit-identical, no per-revalue sort.
            transitions = sparse.csr_matrix(
                (
                    np.add.reduceat(vals_f[tpl.torder2], tpl.starts),
                    tpl.final_indices.copy(),
                    tpl.final_indptr.copy(),
                ),
                shape=(max(num_choices, 1), n),
            )
            transitions.has_canonical_format = True
        else:
            transitions = sparse.csr_matrix(
                (
                    vals_f[tpl.t_order], tpl.cols_sorted.copy(),
                    tpl.indptr.copy(),
                ),
                shape=(max(num_choices, 1), n),
            )
            transitions.sum_duplicates()

    compiled = CompiledMDP(
        num_states=n,
        choice_state=tpl.choice_state,
        choice_reward=tpl.choice_reward,
        transitions=transitions,
        labels=tpl.labels,
        initial=1,
    )
    if tpl.first_choice is not None:
        compiled._first_choice_cache.append(tpl.first_choice)
    if tpl.digest is None:
        from repro.modelcheck.batch import structural_key

        tpl.digest = structural_key(compiled)
    else:
        compiled._digest_cache.append(tpl.digest)
    return CompiledRoutingModel(
        compiled=compiled, states=tpl.states, choice_labels=tpl.choice_labels,
        job=job,
    )


def build_routing_model_fast(
    job: RoutingJob,
    forces: np.ndarray,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    families: tuple[ActionClass, ...] | None = None,
) -> CompiledRoutingModel:
    """Build the per-RJ MDP in compiled form, vectorized and template-cached.

    ``forces`` is the ``(W, H)`` per-MC relative-force matrix; cells outside
    it exert zero force.  ``families`` optionally restricts the action set
    to the given classes (``None`` = all five).

    The first build for a job geometry runs the full vectorized pipeline
    (see :func:`_build_fast`) and records a :class:`_BuildTemplate`; later
    builds for the same geometry — the common case in resynthesis storms,
    where only the health fingerprint changes — replay the template,
    recomputing just the transition probabilities.  Revalued models are
    bit-identical to fresh builds (the differential tests assert this), so
    the cache is transparent to every caller.
    """
    if job.is_dispense:
        raise ValueError("dispense jobs are materialized, not routed")
    key = _template_key(job, forces, max_aspect, families)
    with _TEMPLATE_LOCK:
        tpl = _TEMPLATE_CACHE.get(key)
        if tpl is not None:
            _TEMPLATE_CACHE.move_to_end(key)
    if tpl is not None:
        model = _revalue_template(tpl, job, forces)
        if model is not None:
            perf.incr("fastmdp.template.hits")
            return model
        perf.incr("fastmdp.template.rebuilds")
    else:
        perf.incr("fastmdp.template.misses")
    model, tpl = _build_fast(job, forces, max_aspect, families)
    with _TEMPLATE_LOCK:
        _TEMPLATE_CACHE[key] = tpl
        _TEMPLATE_CACHE.move_to_end(key)
        while len(_TEMPLATE_CACHE) > _TEMPLATE_CACHE_MAX:
            _TEMPLATE_CACHE.popitem(last=False)
        perf.set_gauge("fastmdp.template.size", len(_TEMPLATE_CACHE))
    return model


def build_dedup_token(
    job: RoutingJob,
    forces: np.ndarray,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    families: tuple[ActionClass, ...] | None = None,
) -> bytes | None:
    """The bytes of the force window a build of ``(job, forces)`` reads.

    Two builds of the same job whose tokens are equal produce bit-identical
    models (the build is a pure function of the window slice — see
    :func:`_read_window`), so batch callers can solve one and reuse the
    result for the other.  Returns ``None`` when no template is cached for
    the job geometry yet (the window is discovered by the first build).
    """
    with _TEMPLATE_LOCK:
        tpl = _TEMPLATE_CACHE.get(
            _template_key(job, forces, max_aspect, families)
        )
    return None if tpl is None else _window_bytes(tpl, forces)


def _build_fast(
    job: RoutingJob,
    forces: np.ndarray,
    max_aspect: float,
    families: tuple[ActionClass, ...] | None,
) -> "tuple[CompiledRoutingModel, _BuildTemplate]":
    """The full vectorized build, recording a revalue template as it goes.

    Instead of expanding states one at a time, the builder enumerates
    *every* in-hazard pattern of every reachable droplet shape up front,
    computes all leg probabilities / outcome transitions with one batch of
    array ops per ``(shape, action)`` pair, and then restricts the model to
    the component reachable from the start with a C-level sparse BFS
    (:func:`scipy.sparse.csgraph.breadth_first_order`).  The arithmetic is
    element-for-element the same as :func:`build_routing_model_scalar`, so
    the two builders produce identical probabilities and (up to state
    ordering) identical models.
    """
    perf.incr("fastmdp.builds")
    width, height = forces.shape
    tpl = _BuildTemplate(shapes=[])

    hz = job.hazard.as_tuple()
    goal = job.goal.as_tuple()
    obstacles = [o.as_tuple() for o in job.obstacles]
    start = job.start.as_tuple()
    hz_w = hz[2] - hz[0] + 1
    hz_h = hz[3] - hz[1] + 1
    # -- shape closure: droplet shapes reachable via morph successors --------
    start_shape = (start[2] - start[0] + 1, start[3] - start[1] + 1)
    shape_index: dict[tuple[int, int], int] = {start_shape: 0}
    shapes: list[tuple[int, int]] = [start_shape]
    specs_by_shape: list[tuple[_ActionSpec, ...]] = []
    si = 0
    while si < len(shapes):
        specs = compiled_shape_actions(
            shapes[si][0], shapes[si][1], max_aspect, families=families
        )
        specs_by_shape.append(specs)
        for spec in specs:
            for _, succ in spec.outcomes:
                if succ is None:
                    continue
                nshape = (succ[2], succ[3])
                if (
                    nshape not in shape_index
                    and nshape[0] <= hz_w and nshape[1] <= hz_h
                ):
                    shape_index[nshape] = len(shapes)
                    shapes.append(nshape)
        si += 1

    # The force prefix is local to the window this job can read: the model
    # becomes a pure function of ``forces[window]``, so the batch kernel
    # can dedup requests whose window bytes coincide.
    tpl.window = _read_window(
        hz, hz_w, hz_h, shapes, specs_by_shape, width, height
    )
    wx0, wx1, wy0, wy1 = tpl.window
    prefix = _force_prefix(forces[wx0:wx1, wy0:wy1])

    # -- provisional pattern ids: 0 = hazard sink, then shape-major blocks ---
    # Patterns of shape (w, h) anchor at xa in [hz.xa, hz.xb - w + 1] and
    # ya in [hz.ya, hz.yb - h + 1]; the id of (xa, ya) is arithmetic, so
    # successor lookups need no hash/grid at all.
    base = np.zeros(len(shapes) + 1, dtype=np.int64)
    for i, (w, h) in enumerate(shapes):
        base[i + 1] = base[i] + (hz_w - w + 1) * (hz_h - h + 1)
    total = int(base[-1])
    start_pid = 1 + int(base[shape_index[start_shape]]) + (
        (start[0] - hz[0]) * (hz_h - start_shape[1] + 1) + (start[1] - hz[1])
    )

    pat_x = np.zeros(total + 1, dtype=np.int64)
    pat_y = np.zeros(total + 1, dtype=np.int64)
    pat_w = np.zeros(total + 1, dtype=np.int64)
    pat_h = np.zeros(total + 1, dtype=np.int64)

    owner_chunks: list[np.ndarray] = []
    label_chunks: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    goal_pids: list[np.ndarray] = []
    num_prov_choices = 0

    for si, (w, h) in enumerate(shapes):
        nx = hz_w - w + 1
        ny = hz_h - h + 1
        xa = np.repeat(np.arange(hz[0], hz[0] + nx, dtype=np.int64), ny)
        ya = np.tile(np.arange(hz[1], hz[1] + ny, dtype=np.int64), nx)
        pids = 1 + int(base[si]) + np.arange(nx * ny, dtype=np.int64)
        pat_x[pids] = xa
        pat_y[pids] = ya
        pat_w[pids] = w
        pat_h[pids] = h
        in_goal = (
            (goal[0] <= xa) & (goal[1] <= ya)
            & (xa + w - 1 <= goal[2]) & (ya + h - 1 <= goal[3])
        )
        if in_goal.any():
            goal_pids.append(pids[in_goal])
        ng = ~in_goal  # goal patterns are absorbing: no choices
        xa_ng, ya_ng, pid_ng = xa[ng], ya[ng], pids[ng]
        k = pid_ng.size
        if k == 0:
            continue
        srecs: list[_SpecRecord] = []
        tpl.shapes.append(_ShapeRecord(xa=xa_ng, ya=ya_ng, specs=srecs))
        for spec in specs_by_shape[si]:
            probs, gather, valid, area = _stack_leg_probs(
                prefix, width, height, xa_ng, ya_ng, spec.legs, wx0, wy0
            )
            rec = _SpecRecord(
                spec=spec, emits=[], gather=gather, valid=valid, area=area
            )
            srecs.append(rec)
            c_prov = num_prov_choices + np.arange(k, dtype=np.int64)
            num_prov_choices += k
            owner_chunks.append(pid_ng)
            label_chunks.append(np.full(k, spec.name, dtype=object))
            nprobs = 1.0 - probs
            stay_p = np.zeros(k)
            for pattern, succ in spec.outcomes:
                p = None
                for leg_i, success in enumerate(pattern):
                    f = probs[leg_i] if success else nprobs[leg_i]
                    p = f if p is None else p * f
                if p is None:
                    p = np.ones(k)
                if succ is None:
                    stay_p += p
                    continue
                dxa, dya, w2, h2 = succ
                nxa, nya = xa_ng + dxa, ya_ng + dya
                emit = p > 0.0
                rec.emits.append(emit)
                if not emit.any():
                    continue
                in_hz = (
                    (hz[0] <= nxa) & (hz[1] <= nya)
                    & (nxa + w2 - 1 <= hz[2]) & (nya + h2 - 1 <= hz[3])
                )
                is_start = (
                    (nxa == start[0]) & (nya == start[1])
                    & (w2 == start_shape[0]) & (h2 == start_shape[1])
                )
                blocked = np.zeros(k, dtype=bool)
                for (oxa, oya, oxb, oyb) in obstacles:
                    blocked |= (
                        (nxa - 2 <= oxb) & (oxa - 2 <= nxa + w2 - 1)
                        & (nya - 2 <= oyb) & (oya - 2 <= nya + h2 - 1)
                    )
                safe = in_hz & (is_start | ~blocked)
                sj = shape_index.get((w2, h2))
                if sj is None:  # shape does not fit the hazard bounds
                    targets = np.zeros(k, dtype=np.int64)
                else:
                    ny2 = hz_h - h2 + 1
                    tpid = 1 + int(base[sj]) + (
                        (nxa - hz[0]) * ny2 + (nya - hz[1])
                    )
                    targets = np.where(safe, tpid, HAZARD_INDEX)
                rows.append(c_prov[emit])
                cols.append(targets[emit])
                vals.append(p[emit])
            stay_emit = stay_p > 0.0
            rec.stay_emit = stay_emit
            if stay_emit.any():
                rows.append(c_prov[stay_emit])
                cols.append(pid_ng[stay_emit])
                vals.append(stay_p[stay_emit])

    row_arr = (np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64))
    col_arr = (np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64))
    val_arr = (np.concatenate(vals) if vals else np.zeros(0))
    owner_arr = (
        np.concatenate(owner_chunks) if owner_chunks
        else np.zeros(0, dtype=np.int64)
    )
    label_arr = (
        np.concatenate(label_chunks) if label_chunks
        else np.zeros(0, dtype=object)
    )

    # -- restrict to the component reachable from the start ------------------
    reach = np.zeros(total + 1, dtype=bool)
    reach[HAZARD_INDEX] = True  # the sink exists even when unreachable
    reach[start_pid] = True
    # State adjacency (owner state -> successor state) from the emitted
    # transitions: transition t belongs to choice row_arr[t], whose owner
    # pattern is owner_arr[row_arr[t]].
    if row_arr.size:
        edge_src = owner_arr[row_arr]
        graph = sparse.csr_matrix(
            (np.ones(edge_src.size, dtype=np.int8), (edge_src, col_arr)),
            shape=(total + 1, total + 1),
        )
        order = sparse.csgraph.breadth_first_order(
            graph, start_pid, directed=True, return_predecessors=False
        )
        reach[order] = True

    reach_pids = np.flatnonzero(reach)
    n = reach_pids.size
    new_id = np.full(total + 1, -1, dtype=np.int64)
    new_id[HAZARD_INDEX] = 0
    new_id[start_pid] = 1
    others = reach_pids[(reach_pids != HAZARD_INDEX) & (reach_pids != start_pid)]
    new_id[others] = 2 + np.arange(others.size, dtype=np.int64)

    keep_choice = np.flatnonzero(reach[owner_arr]) if owner_arr.size else \
        np.zeros(0, dtype=np.int64)
    new_owner = new_id[owner_arr[keep_choice]]
    perm = np.argsort(new_owner, kind="stable")
    final_choices = keep_choice[perm]
    num_choices = final_choices.size
    choice_state = new_owner[perm]
    choice_labels: list[str] = label_arr[final_choices].tolist()
    choice_new = np.full(num_prov_choices, -1, dtype=np.int64)
    choice_new[final_choices] = np.arange(num_choices, dtype=np.int64)

    if row_arr.size:
        rows_f = choice_new[row_arr]
        tmask = rows_f >= 0
        rows_f = rows_f[tmask]
        cols_f = new_id[col_arr[tmask]]
        vals_f = val_arr[tmask]
        counts = np.bincount(rows_f, minlength=num_choices)
        assert (counts > 0).all(), "every action has at least one outcome"
        t_order = np.argsort(rows_f, kind="stable")
        indptr = np.zeros(max(num_choices, 1) + 1, dtype=np.int64)
        indptr[1 : num_choices + 1] = np.cumsum(counts)
        cols_sorted = cols_f[t_order]
        tpl.tmask = tmask
        tpl.t_order = t_order
        tpl.cols_sorted = cols_sorted.copy()
        tpl.indptr = indptr.copy()
        transitions = sparse.csr_matrix(
            (vals_f[t_order], cols_sorted, indptr),
            shape=(max(num_choices, 1), n),
        )
        transitions.sum_duplicates()
        if vals_f.size:
            # One-time probe of scipy's canonicalization: feeding entry
            # ranks as data through ``sort_indices`` recovers the exact
            # permutation it applies, and run boundaries in the sorted
            # (row, col) sequence mark the duplicates ``sum_duplicates``
            # merges.  A revalue can then gather + ``reduceat`` straight
            # into canonical form.  The self-check against the matrix just
            # built guards the recording; on mismatch the revalue path
            # simply keeps re-sorting.
            nnz0 = cols_sorted.size
            probe = sparse.csr_matrix(
                (
                    np.arange(1.0, nnz0 + 1.0), cols_sorted.copy(),
                    indptr.copy(),
                ),
                shape=(max(num_choices, 1), n),
            )
            probe.sort_indices()
            perm2 = probe.data.astype(np.int64) - 1
            cols2 = probe.indices
            rowrep = np.repeat(
                np.arange(probe.shape[0], dtype=np.int64),
                np.diff(probe.indptr),
            )
            new_run = np.ones(nnz0, dtype=bool)
            new_run[1:] = (cols2[1:] != cols2[:-1]) | \
                (rowrep[1:] != rowrep[:-1])
            starts = np.flatnonzero(new_run)
            torder2 = t_order[perm2]
            data = np.add.reduceat(vals_f[torder2], starts)
            if (
                np.array_equal(data, transitions.data)
                and np.array_equal(cols2[starts], transitions.indices)
            ):
                tpl.torder2 = torder2
                tpl.starts = starts
                tpl.final_indices = transitions.indices.copy()
                tpl.final_indptr = transitions.indptr.copy()
    else:
        transitions = sparse.csr_matrix((max(num_choices, 1), n))

    goal_mask = np.zeros(n, dtype=bool)
    if goal_pids:
        goal_new = new_id[np.concatenate(goal_pids)]
        goal_mask[goal_new[goal_new >= 0]] = True
    hazard_mask = np.zeros(n, dtype=bool)
    hazard_mask[HAZARD_INDEX] = True
    labels = {"goal": goal_mask, "hazard": hazard_mask}
    choice_reward = np.full(num_choices, CYCLE_REWARD)
    compiled = CompiledMDP(
        num_states=n,
        choice_state=choice_state,
        choice_reward=choice_reward,
        transitions=transitions,
        labels=labels,
        initial=1,
    )
    from repro.core.mdp import HAZARD_STATE

    inv = np.zeros(n, dtype=np.int64)
    inv[new_id[reach_pids]] = reach_pids
    sx = pat_x[inv[1:]]
    sy = pat_y[inv[1:]]
    sw = pat_w[inv[1:]]
    sh = pat_h[inv[1:]]
    state_objects: list[Rect | str] = [HAZARD_STATE] + [
        Rect(x, y, x + w - 1, y + h - 1)
        for x, y, w, h in zip(
            sx.tolist(), sy.tolist(), sw.tolist(), sh.tolist()
        )
    ]
    tpl.num_choices = num_choices
    tpl.n = n
    tpl.choice_state = choice_state
    tpl.choice_reward = choice_reward
    tpl.labels = labels
    tpl.states = state_objects
    tpl.choice_labels = choice_labels
    tpl.first_choice = compiled.first_choice()
    model = CompiledRoutingModel(
        compiled=compiled, states=state_objects, choice_labels=choice_labels,
        job=job,
    )
    return model, tpl


def extract_fast_strategy(
    model: CompiledRoutingModel, result: ValueResult
) -> MemorylessStrategy:
    """Memoryless strategy from a solved compiled routing model."""
    cm = model.compiled
    first = cm.first_choice()
    has_choice = result.choice >= 0
    global_choice = np.where(has_choice, first + result.choice, -1)
    states = model.states
    labels = model.choice_labels
    values: dict[object, float] = dict(zip(states, result.values.tolist()))
    decided = np.flatnonzero(has_choice)
    picked = global_choice[decided].tolist()
    decisions: dict[object, str] = {
        states[s]: labels[c] for s, c in zip(decided.tolist(), picked)
    }
    return MemorylessStrategy(
        decisions=decisions,
        values=values,
        initial_value=float(result.values[cm.initial]),
    )
