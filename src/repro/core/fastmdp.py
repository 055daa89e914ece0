"""Array-first construction of the per-RJ routing MDP.

Semantically identical to :func:`repro.core.mdp.build_routing_mdp` followed
by :func:`repro.modelcheck.compiled.compile_mdp` — the differential tests
check that both give the same model statistics and synthesis values — but
built for the synthesis hot loop.  No build expands states one at a time:

* droplet patterns are numbered arithmetically by shape and anchor, and
  states are plain ``(xa, ya, xb, yb)`` int tuples until the model's
  ``Rect`` inventory is made;
* per-shape action semantics (guards, frontier legs, successor offsets)
  and the whole-shape tables the build kernel reads are compiled once per
  process, keyed by ``(w, h, max_aspect, families)``;
* a build enumerates *every* in-hazard pattern of every droplet shape the
  start can morph into, computes every outcome probability with one
  prefix-sum gather and one product table per shape, emits the positive
  ones, and restricts the model to the component reachable from the start
  with one C-level sparse BFS;
* transitions are assembled into CSR form directly, without explicit
  model objects.

Builds are cached in three parts (DESIGN.md §9): per job geometry, the
force-independent *geometry* (gathers, successor targets, choice owners);
under it, per *support* (which outcomes have positive probability), the
CSR skeleton and solver contexts derived from it; and the *values*, which
every build recomputes through one kernel, :func:`_values`.  When the
support is a retained one the values drop into its skeleton (a *replay*);
otherwise emission, BFS and CSR assembly run again over the same geometry
(a *rebuild*).  Every path gives a bit-identical model.

Only matrix-backed force fields are supported (the synthesizer's health
estimates and the baseline's uniform field both are); exotic fields fall
back to the explicit builder in :mod:`repro.core.synthesis`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from repro import perf
from repro.core import transitions
from repro.core.actions import (
    ALL_ACTIONS,
    DEFAULT_MAX_ASPECT,
    ActionClass,
    guard,
)
from repro.core.mdp import CYCLE_REWARD
from repro.core.routing_job import RoutingJob
from repro.geometry.rect import Rect, _trusted_rect
from repro.modelcheck.compiled import CompiledMDP
from repro.modelcheck.reachability import ValueResult
from repro.modelcheck.strategy import MemorylessStrategy, StateColumns

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


def _compile_shape_actions(
    w: int, h: int, max_aspect: float,
    families: tuple[ActionClass, ...] | None = None,
) -> list[_ActionSpec]:
    """Per-shape action metadata of the guarded actions, read from the
    outcome tables of :mod:`repro.core.transitions`, so model builds and
    the simulator share one outcome geometry."""
    base = Rect(100, 100, 99 + w, 99 + h)
    specs: list[_ActionSpec] = []
    for action in ALL_ACTIONS:
        if families is not None and action.klass not in families:
            continue
        if not guard(base, action, max_aspect=max_aspect):
            continue
        table = transitions._outcome_table(w, h, action)
        specs.append(_ActionSpec(
            action.name, action.klass,
            tuple(_LegSpec(*leg[:4]) for leg in table.legs),
            tuple(
                (pattern, None if off is None else (
                    off[0], off[1], off[2] - off[0] + 1, off[3] - off[1] + 1
                ))
                for pattern, (_, off) in zip(table.patterns, table.outcomes)
            ),
        ))
    return specs


@dataclass(frozen=True)
class _ShapeActions:
    """One droplet shape's guarded actions, compiled for the build kernel.

    ``specs`` are the per-action semantics; the arrays flatten them into
    whole-shape tables.  The shape's *rows* are its outcomes in chunk
    order — per spec, its moving outcomes in spec order and then its stay
    outcome, the order a build emits transitions in:

    * ``legs``: ``(L, 4)`` frontier offsets ``(dxa, dya, dxb, dyb)`` of
      every spec's legs, spec-major; ``area``: their ``(L, 1)`` areas;
    * ``factor[j, r]``: the row of the factor table ``[p; 1 - p; 1]``
      (``p`` the ``L`` leg probabilities) that row ``r`` multiplies in at
      pattern position ``j``.  Positions past the end of a pattern (a
      DOUBLE whose first leg fails) pick the ones row; ``x * 1.0`` is
      exact;
    * ``succ``: ``(rows, 4)`` successor offsets ``(dxa, dya, w, h)``,
      zeros on stay rows, where ``moving`` is False;
    * ``spec_of_row``: the spec each row belongs to.

    Every action has exactly one stay outcome, so a stay row is a single
    pattern's product and needs no accumulation.
    """

    specs: tuple[_ActionSpec, ...]
    legs: np.ndarray
    area: np.ndarray
    factor: np.ndarray
    succ: np.ndarray
    moving: np.ndarray
    spec_of_row: np.ndarray


def _shape_tables(specs: tuple[_ActionSpec, ...]) -> _ShapeActions:
    legs = [
        (leg.dxa, leg.dya, leg.dxb, leg.dyb)
        for spec in specs for leg in spec.legs
    ]
    n_legs = len(legs)
    depth = max((len(spec.legs) for spec in specs), default=0)
    factor: list[list[int]] = []
    succ: list[tuple[int, int, int, int]] = []
    spec_of_row: list[int] = []
    leg_base = 0
    for si, spec in enumerate(specs):
        stays = [o for o in spec.outcomes if o[1] is None]
        assert len(stays) == 1, "every action has exactly one stay outcome"
        for pattern, target in [
            o for o in spec.outcomes if o[1] is not None
        ] + stays:
            factor.append(
                [leg_base + j + (0 if ok else n_legs)
                 for j, ok in enumerate(pattern)]
                + [2 * n_legs] * (depth - len(pattern))
            )
            succ.append((0, 0, 0, 0) if target is None else target)
            spec_of_row.append(si)
        leg_base += len(spec.legs)
    leg_arr = np.array(legs, dtype=np.int64).reshape(n_legs, 4)
    succ_arr = np.array(succ, dtype=np.int64).reshape(len(succ), 4)
    return _ShapeActions(
        specs=specs,
        legs=leg_arr,
        area=(
            (leg_arr[:, 2] - leg_arr[:, 0] + 1)
            * (leg_arr[:, 3] - leg_arr[:, 1] + 1)
        ).astype(float)[:, None],
        factor=np.array(factor, dtype=np.intp).reshape(len(factor), depth).T,
        succ=succ_arr,
        moving=succ_arr[:, 2] > 0,
        spec_of_row=np.array(spec_of_row, dtype=np.int64),
    )


#: Process-global memo of per-shape action semantics.  Key: droplet shape,
#: aspect bound and (normalized) family restriction; value: the compiled
#: specs and their kernel tables (:class:`_ShapeActions`).  Both are
#: position-independent, so one compilation serves every model build in
#: the process.
_SHAPE_ACTION_MEMO: dict[
    tuple[int, int, float, tuple[ActionClass, ...] | None],
    _ShapeActions,
] = {}


def _shape_actions(
    w: int, h: int, max_aspect: float,
    families: tuple[ActionClass, ...] | None = None,
) -> _ShapeActions:
    key = (w, h, float(max_aspect),
           families if families is None else tuple(families))
    entry = _SHAPE_ACTION_MEMO.get(key)
    if entry is None:
        perf.incr("fastmdp.shape_memo.miss")
        entry = _shape_tables(tuple(_compile_shape_actions(
            w, h, max_aspect, families=key[3]
        )))
        _SHAPE_ACTION_MEMO[key] = entry
    else:
        perf.incr("fastmdp.shape_memo.hit")
    return entry


def compiled_shape_actions(
    w: int, h: int, max_aspect: float,
    families: tuple[ActionClass, ...] | None = None,
) -> tuple[_ActionSpec, ...]:
    """Memoized per-shape action semantics (see :data:`_SHAPE_ACTION_MEMO`)."""
    return _shape_actions(w, h, max_aspect, families).specs


def clear_shape_action_memo() -> None:
    """Drop the global action-spec memo, kernel tables included, and the
    simulator's per-shape outcome tables (benches use this to model a cold
    process; regular code never needs it — the entries are immutable)."""
    _SHAPE_ACTION_MEMO.clear()
    transitions._OUTCOME_TABLES.clear()


@dataclass(frozen=True)
class CompiledRoutingModel:
    """A routing MDP in compiled (array) form plus its state inventory."""

    compiled: CompiledMDP
    states: list[Rect | str]
    job: RoutingJob
    #: The state inventory as strategy columns (``states`` included) and
    #: each choice's int16 code into ``columns.labels``.
    columns: StateColumns
    choice_codes: np.ndarray

    @cached_property
    def choice_labels(self) -> list[str]:
        """Each choice's action label, derived from the codes on first use."""
        return [self.columns.labels[c] for c in self.choice_codes.tolist()]

    @property
    def num_states(self) -> int:
        return self.compiled.num_states

    @property
    def num_choices(self) -> int:
        return self.compiled.num_choices

    @property
    def num_transitions(self) -> int:
        return int(self.compiled.transitions.nnz)


def _force_prefix(forces: np.ndarray) -> np.ndarray:
    width, height = forces.shape
    prefix = np.zeros((width + 1, height + 1))
    prefix[1:, 1:] = forces.cumsum(axis=0).cumsum(axis=1)
    return prefix


def _read_window(
    hz: tuple, hz_w: int, hz_h: int,
    shapes: "list[tuple[int, int]]",
    tables: "list[_ShapeActions]",
    width: int, height: int,
) -> tuple[int, int, int, int]:
    """The force-cell window ``[x0:x1, y0:y1]`` a build can read.

    Every leg-probability lookup indexes the force prefix at clamped rect
    corners; the clamps are monotone in the anchor coordinate, so the
    extremes over a shape's anchor range bound every lookup.  The build
    sums forces over a prefix *local to this window*, which makes the
    model a pure function of ``forces[x0:x1, y0:y1]`` — the foundation of
    the cold-result memo (identical window bytes imply a bit-identical
    model).
    """
    x0, x1 = width, 0
    y0, y1 = height, 0
    for (w, h), tab in zip(shapes, tables):
        if not tab.legs.size:
            continue
        dxa, dya, dxb, dyb = tab.legs.T
        ax_lo, ax_hi = hz[0], hz[0] + (hz_w - w)
        ay_lo, ay_hi = hz[1], hz[1] + (hz_h - h)
        x0 = min(x0, int(np.minimum(np.maximum(ax_lo + dxa, 1) - 1,
                                    width).min()))
        x1 = max(x1, int(np.maximum(np.minimum(ax_hi + dxb, width),
                                    0).max()))
        y0 = min(y0, int(np.minimum(np.maximum(ay_lo + dya, 1) - 1,
                                    height).min()))
        y1 = max(y1, int(np.maximum(np.minimum(ay_hi + dyb, height),
                                    0).max()))
    if x1 < x0:  # no legs at all: degenerate empty window at the origin
        x0 = x1 = y0 = y1 = 0
    return x0, x1, y0, y1


@dataclass(frozen=True)
class _ShapeGeometry:
    """One droplet shape's block of a build's flat entry layout.

    The shape's ``k`` non-goal patterns each own one choice per spec; its
    entries are the ``(rows, k)`` outcome grid (rows as in
    :class:`_ShapeActions`), stored row-major from ``offset``.
    ``gather[:, l, i]`` holds the four flat int32 indices into the
    window-local force prefix whose signed sum is leg ``l``'s force total
    at position ``i``, corners clamped to the chip as the scalar
    ``rect_mean`` clamps them.  A leg with no on-chip overlap points all
    four at the prefix's zero corner, so its total, and its probability,
    are exactly 0.0.
    """

    actions: _ShapeActions
    gather: np.ndarray
    offset: int


@dataclass(frozen=True)
class _Geometry:
    """Everything force-independent about a job geometry's build.

    Recorded once per template key by :func:`_record_geometry`.  Per
    entry (see :class:`_ShapeGeometry`): ``target``, the provisional
    pattern id the outcome moves to (the hazard sink when unsafe, the
    owner itself on stay rows), and ``choice``, its provisional choice.
    Per provisional choice: ``owner`` pattern and action ``code``, an
    int16 index into ``labels``, the geometry's action label table.
    ``pattern`` holds ``(xa, ya, w, h)`` per provisional pattern id
    (0 = the hazard sink, then one block per shape).
    """

    window: tuple[int, int, int, int]
    shapes: tuple[_ShapeGeometry, ...]
    size: int
    target: np.ndarray
    choice: np.ndarray
    owner: np.ndarray
    code: np.ndarray
    labels: np.ndarray
    pattern: np.ndarray
    start_pid: int
    goal_pids: np.ndarray


def _record_geometry(
    job: RoutingJob,
    chip_shape: tuple[int, int],
    max_aspect: float,
    families: tuple[ActionClass, ...] | None,
) -> _Geometry:
    """Enumerate every in-hazard pattern of every droplet shape the start
    can morph into, and record the geometry of all their outcomes."""
    width, height = chip_shape
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
    tables: list[_ShapeActions] = []
    while len(tables) < len(shapes):
        tab = _shape_actions(*shapes[len(tables)], max_aspect, families)
        tables.append(tab)
        for nshape in map(tuple, tab.succ[tab.moving, 2:].tolist()):
            if (
                nshape not in shape_index
                and nshape[0] <= hz_w and nshape[1] <= hz_h
            ):
                shape_index[nshape] = len(shapes)
                shapes.append(nshape)

    window = _read_window(hz, hz_w, hz_h, shapes, tables, width, height)
    wx0, _, wy0, wy1 = window
    ph = wy1 - wy0 + 1  # prefix row length

    # -- provisional pattern ids: 0 = hazard sink, then shape-major blocks ---
    # Patterns of shape (w, h) anchor at xa in [hz.xa, hz.xb - w + 1] and
    # ya in [hz.ya, hz.yb - h + 1]; the id of (xa, ya) is arithmetic, so
    # successor lookups need no hash/grid at all.
    base = np.zeros(len(shapes) + 1, dtype=np.int64)
    for i, (w, h) in enumerate(shapes):
        base[i + 1] = base[i] + (hz_w - w + 1) * (hz_h - h + 1)
    start_pid = 1 + (  # the start shape's block comes first
        (start[0] - hz[0]) * (hz_h - start_shape[1] + 1) + (start[1] - hz[1])
    )
    pattern = np.zeros((int(base[-1]) + 1, 4), dtype=np.int32)

    shape_geos: list[_ShapeGeometry] = []
    targets: list[np.ndarray] = []
    choices: list[np.ndarray] = []
    owners: list[np.ndarray] = []
    codes: list[np.ndarray] = []
    label_code: dict[str, int] = {}
    goal_pids: list[np.ndarray] = []
    size = 0
    num_choices = 0
    for si, ((w, h), tab) in enumerate(zip(shapes, tables)):
        nx = hz_w - w + 1
        ny = hz_h - h + 1
        xa = np.repeat(np.arange(hz[0], hz[0] + nx, dtype=np.int64), ny)
        ya = np.tile(np.arange(hz[1], hz[1] + ny, dtype=np.int64), nx)
        pids = 1 + int(base[si]) + np.arange(nx * ny, dtype=np.int64)
        pattern[pids] = np.stack(
            [xa, ya, np.full_like(xa, w), np.full_like(xa, h)], axis=1
        )
        in_goal = (
            (goal[0] <= xa) & (goal[1] <= ya)
            & (xa + w - 1 <= goal[2]) & (ya + h - 1 <= goal[3])
        )
        if in_goal.any():
            goal_pids.append(pids[in_goal])
        ng = ~in_goal  # goal patterns are absorbing: no choices
        xa, ya, pids = xa[ng], ya[ng], pids[ng]
        k = pids.size
        rows = tab.spec_of_row.size
        if k == 0 or rows == 0:
            continue

        # Leg gathers, clamped exactly as the scalar ``rect_mean`` clamps.
        dxa, dya, dxb, dyb = (tab.legs[:, c, None] for c in range(4))
        cxa = np.maximum(xa + dxa, 1)
        cya = np.maximum(ya + dya, 1)
        cxb = np.minimum(xa + dxb, width)
        cyb = np.minimum(ya + dyb, height)
        ixb = cxb - wx0
        iyb = cyb - wy0
        ixa = cxa - 1 - wx0
        iya = cya - 1 - wy0
        gather = np.stack(
            [ixb * ph + iyb, ixa * ph + iyb, ixb * ph + iya, ixa * ph + iya]
        ).astype(np.int32)
        gather[:, (cxb < cxa) | (cyb < cya)] = 0
        shape_geos.append(_ShapeGeometry(tab, gather, size))

        # Successor targets: the hazard sink when the successor leaves the
        # hazard bounds or comes near an obstacle (except back at the
        # start), else its provisional id; stay rows target the owner.
        sdx, sdy, w2, h2 = (tab.succ[:, c, None] for c in range(4))
        nxa, nya = xa + sdx, ya + sdy
        in_hz = (
            (hz[0] <= nxa) & (hz[1] <= nya)
            & (nxa + w2 - 1 <= hz[2]) & (nya + h2 - 1 <= hz[3])
        )
        is_start = (
            (nxa == start[0]) & (nya == start[1])
            & (w2 == start_shape[0]) & (h2 == start_shape[1])
        )
        blocked = np.zeros((rows, k), dtype=bool)
        for (oxa, oya, oxb, oyb) in obstacles:
            blocked |= (
                (nxa - 2 <= oxb) & (oxa - 2 <= nxa + w2 - 1)
                & (nya - 2 <= oyb) & (oya - 2 <= nya + h2 - 1)
            )
        sj = np.array(
            [shape_index.get(s, -1)
             for s in map(tuple, tab.succ[:, 2:].tolist())],
            dtype=np.int64,
        )[:, None]
        tpid = 1 + base[np.maximum(sj, 0)] + (
            (nxa - hz[0]) * (hz_h - h2 + 1) + (nya - hz[1])
        )
        target = np.where(
            in_hz & (is_start | ~blocked) & (sj >= 0), tpid, HAZARD_INDEX
        )
        target[~tab.moving] = pids
        targets.append(target.astype(np.int32).ravel())
        choices.append((
            num_choices + tab.spec_of_row[:, None] * k + np.arange(k)
        ).astype(np.int32).ravel())
        owners.append(np.tile(pids, len(tab.specs)).astype(np.int32))
        codes.append(np.repeat(
            np.array(
                [label_code.setdefault(spec.name, len(label_code))
                 for spec in tab.specs],
                dtype=np.int16,
            ),
            k,
        ))
        num_choices += len(tab.specs) * k
        size += rows * k

    def flat(chunks: list[np.ndarray], dtype) -> np.ndarray:
        return np.concatenate(chunks) if chunks else np.zeros(0, dtype=dtype)

    return _Geometry(
        window=window,
        shapes=tuple(shape_geos),
        size=size,
        target=flat(targets, np.int32),
        choice=flat(choices, np.int32),
        owner=flat(owners, np.int32),
        code=flat(codes, np.int16),
        labels=np.array(list(label_code), dtype=object),
        pattern=pattern,
        start_pid=start_pid,
        goal_pids=flat(goal_pids, np.int64),
    )


def _values(geo: _Geometry, forces: np.ndarray) -> np.ndarray:
    """Every outcome probability of a build, flat in entry order.

    The one probability kernel: first builds, rebuilds and replays all
    compute their values here.  Per shape it takes one gather of every
    leg's four prefix corners, the leg probabilities ``(c0 - c1 - c2 +
    c3) / area`` and one product over the factor table, left to right
    along each pattern — the scalar per-state builder's arithmetic,
    element for element.
    """
    wx0, wx1, wy0, wy1 = geo.window
    pf = _force_prefix(forces[wx0:wx1, wy0:wy1]).ravel()
    out = np.empty(geo.size)
    for sh in geo.shapes:
        tab = sh.actions
        n_legs, k = sh.gather.shape[1:]
        corners = np.take(pf, sh.gather)
        table = np.empty((2 * n_legs + 1, k))
        probs = table[:n_legs]
        np.subtract(corners[0], corners[1], out=probs)
        probs -= corners[2]
        probs += corners[3]
        probs /= tab.area
        np.subtract(1.0, probs, out=table[n_legs:-1])
        table[-1] = 1.0
        grid = out[sh.offset:sh.offset + tab.factor.shape[1] * k]
        grid = grid.reshape(-1, k)
        np.take(table, tab.factor[0], axis=0, out=grid, mode="clip")
        for rows in tab.factor[1:]:
            grid *= table[rows]
    return out


@dataclass
class _BuildTemplate:
    """A retained support of a job geometry: the CSR skeleton, model parts
    and solver contexts its builds share.  The transition *structure*
    depends on the forces only through the support, so a build of an equal
    support replays it with new values (:func:`build_routing_model_fast`).
    """

    # CSR skeleton; ``value_gather`` (int32) None = no transitions.  With
    # ``dup_steps`` (the canonical shortcut, see :func:`_support`) it picks
    # each canonical entry's first value in scipy's post-``sort_indices``
    # order and ``dup_steps`` adds the rest of its duplicate run
    # (:func:`_canonical_data`).  Without it the gather gives the values
    # in row order and the replay re-runs ``sum_duplicates``.
    value_gather: np.ndarray | None = None
    dup_steps: tuple | None = None
    indices: np.ndarray | None = None
    indptr: np.ndarray | None = None
    num_choices: int = 0
    n: int = 0
    # Shared (read-only) model components.
    choice_state: np.ndarray | None = None
    labels: dict | None = None
    columns: StateColumns | None = None
    choice_codes: np.ndarray | None = None
    first_choice: np.ndarray | None = None
    digest: str | None = None
    #: The batch solver's contexts (``CompiledMDP.contexts``).
    contexts: dict = field(default_factory=dict)


@dataclass
class _GeometryEntry:
    """A job geometry's retained support keys (packed support masks) and
    its cold-result slot ``((window bytes, extra), result)``."""

    geometry: _Geometry
    supports: set = field(default_factory=set)
    cold: tuple | None = None


#: The process-global template cache (DESIGN.md §9), one entry per job
#: geometry ``(job.key(), forces.shape, max_aspect, families)``.  One bound
#: counts the support templates, LRU across geometries (``_SUPPORT_LRU``,
#: keyed ``(geometry key, support key)``); a geometry leaves with its last.
_GEOMETRIES: dict[tuple, _GeometryEntry] = {}
_SUPPORT_LRU: "OrderedDict[tuple, _BuildTemplate]" = OrderedDict()
_SUPPORT_CACHE_MAX = 96

#: Guards the cache, its cold slots and the size gauge.  The serve layer
#: runs builds on worker threads; a template is complete before it is
#: published and is never changed after, so a concurrent replay never
#: sees a half-built template.
_TEMPLATE_LOCK = threading.Lock()


def clear_build_template_cache() -> None:
    """Drop the build-template cache, cold results and solver contexts
    included (benches model a cold process with this; regular code never
    needs it — replays and remembered results are bit-identical)."""
    with _TEMPLATE_LOCK:
        _GEOMETRIES.clear()
        _SUPPORT_LRU.clear()
        perf.set_gauge("fastmdp.template.size", 0)


def clear_cold_results() -> None:
    """Forget every geometry's remembered cold result, keeping the
    templates themselves."""
    with _TEMPLATE_LOCK:
        for entry in _GEOMETRIES.values():
            entry.cold = None


def clear_solver_contexts() -> None:
    """Empty every template's solver contexts (the templates stay)."""
    with _TEMPLATE_LOCK:
        for tpl in _SUPPORT_LRU.values():
            tpl.contexts.clear()


def _geometry_key(
    job: RoutingJob,
    forces: np.ndarray,
    max_aspect: float,
    families: tuple[ActionClass, ...] | None,
) -> tuple:
    return (
        job.key(), forces.shape, float(max_aspect),
        families if families is None else tuple(families),
    )


def _window_bytes(geo: _Geometry, forces: np.ndarray) -> bytes:
    x0, x1, y0, y1 = geo.window
    return forces[x0:x1, y0:y1].tobytes()


def _publish(key: tuple, entry: _GeometryEntry, support: bytes,
             tpl: _BuildTemplate) -> None:
    """Insert a new support template (the caller holds the lock) and
    evict beyond the bound.  A retained template of equal structural key
    (of any geometry, e.g. a translated job) lends it its context slot:
    the solver contexts depend on that structure alone."""
    tpl.contexts = next((other.contexts for other in _SUPPORT_LRU.values()
                         if other.digest == tpl.digest), tpl.contexts)
    entry = _GEOMETRIES.setdefault(key, entry)
    entry.supports.add(support)
    entry.cold = None
    _SUPPORT_LRU.setdefault((key, support), tpl)
    _SUPPORT_LRU.move_to_end((key, support))
    while len(_SUPPORT_LRU) > _SUPPORT_CACHE_MAX:
        (old_key, old_support), _ = _SUPPORT_LRU.popitem(last=False)
        old = _GEOMETRIES[old_key]
        old.supports.discard(old_support)
        if not old.supports:
            del _GEOMETRIES[old_key]
    perf.set_gauge("fastmdp.template.size", len(_SUPPORT_LRU))


def cold_result(
    job: RoutingJob,
    forces: np.ndarray,
    extra: tuple,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    families: tuple[ActionClass, ...] | None = None,
):
    """The cold result remembered for ``(job, forces, extra)``, or None.

    Each geometry keeps one slot: the last result stored by
    :func:`remember_cold_result`, keyed by the bytes of the force window
    the build reads plus ``extra`` (the caller's solve parameters).  A
    build is a pure function of those bytes (:func:`_read_window`), so a
    cold solve of it is too, and a hit is exactly what a fresh build and
    solve would return.  A hit refreshes the geometry's supports in the
    LRU, as the build it replaces would.
    """
    key = _geometry_key(job, forces, max_aspect, families)
    with _TEMPLATE_LOCK:
        entry = _GEOMETRIES.get(key)
        if entry is None or entry.cold is None:
            return None
        stored_key, result = entry.cold
        if stored_key != (_window_bytes(entry.geometry, forces), extra):
            return None
        for support in entry.supports:
            _SUPPORT_LRU.move_to_end((key, support))
    return result


def remember_cold_result(
    job: RoutingJob,
    forces: np.ndarray,
    extra: tuple,
    result,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    families: tuple[ActionClass, ...] | None = None,
) -> None:
    """Store ``result`` in the slot of the job's geometry (see
    :func:`cold_result`), replacing what it held; a no-op when the
    geometry has been evicted since the build."""
    key = _geometry_key(job, forces, max_aspect, families)
    with _TEMPLATE_LOCK:
        entry = _GEOMETRIES.get(key)
        if entry is not None:
            entry.cold = ((_window_bytes(entry.geometry, forces), extra),
                          result)


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

    Every build computes its outcome probabilities with :func:`_values`
    over the job geometry's recorded :class:`_Geometry` (recorded here
    when no support of the geometry is retained).  When their support
    equals a retained template's, the values drop into its CSR skeleton (a
    replay — the common case in resynthesis storms, where only the health
    fingerprint changes, and on chips that have aged alike); otherwise
    :func:`_support` emits, restricts and assembles the model again over
    the same geometry and publishes a new template.  All three paths give
    bit-identical models, so the cache is transparent to every caller.
    """
    if job.is_dispense:
        raise ValueError("dispense jobs are materialized, not routed")
    key = _geometry_key(job, forces, max_aspect, families)
    with _TEMPLATE_LOCK:
        entry = _GEOMETRIES.get(key)
    if entry is None:
        perf.incr("fastmdp.template.misses")
        entry = _GeometryEntry(
            _record_geometry(job, forces.shape, max_aspect, families)
        )
    values = _values(entry.geometry, forces)
    mask = values > 0.0
    support = np.packbits(mask).tobytes()
    with _TEMPLATE_LOCK:
        tpl = _SUPPORT_LRU.get((key, support))
        if tpl is not None:
            _SUPPORT_LRU.move_to_end((key, support))
    if tpl is not None:
        perf.incr("fastmdp.template.hits")
        return _replay(tpl, job, values)
    if entry.supports:
        perf.incr("fastmdp.template.rebuilds")
    transitions, tpl = _support(entry.geometry, job, values, mask)
    with _TEMPLATE_LOCK:
        _publish(key, entry, support, tpl)
    return _model(tpl, job, transitions)


def _canonical_data(
    values: np.ndarray, first: np.ndarray, dup_steps: tuple
) -> np.ndarray:
    """Canonical CSR data: each duplicate run of transitions summed left
    to right, step ``j`` adding every run's ``j``-th value — the order and
    arithmetic of scipy's ``sum_duplicates``, so the result is
    bit-identical to it (``np.add.reduceat`` is not: it adds a run's
    tail pairwise before adding it to the head)."""
    data = np.take(values, first)
    for runs, pos in dup_steps:
        data[runs] += values[pos]
    return data


def _replay(
    tpl: _BuildTemplate, job: RoutingJob, values: np.ndarray
) -> CompiledRoutingModel:
    """The model for ``values`` whose support equals the template's."""
    shape = (max(tpl.num_choices, 1), tpl.n)
    if tpl.value_gather is None:
        transitions = sparse.csr_matrix(shape)
    elif tpl.dup_steps is not None:
        # Canonical shortcut: no per-replay sort.
        transitions = sparse.csr_matrix(
            (
                _canonical_data(values, tpl.value_gather, tpl.dup_steps),
                tpl.indices.copy(), tpl.indptr.copy(),
            ),
            shape=shape,
        )
        transitions.has_canonical_format = True
    else:
        transitions = sparse.csr_matrix(
            (
                np.take(values, tpl.value_gather), tpl.indices.copy(),
                tpl.indptr.copy(),
            ),
            shape=shape,
        )
        transitions.sum_duplicates()
    return _model(tpl, job, transitions)


def _model(
    tpl: _BuildTemplate, job: RoutingJob, transitions: sparse.csr_matrix
) -> CompiledRoutingModel:
    """A model of the template's support; every choice costs one cycle,
    so the rewards are a read-only broadcast, not a stored array."""
    compiled = CompiledMDP(
        num_states=tpl.n,
        choice_state=tpl.choice_state,
        choice_reward=np.broadcast_to(CYCLE_REWARD, tpl.num_choices),
        transitions=transitions,
        labels=tpl.labels,
        initial=1,
        contexts=tpl.contexts,
    )
    if tpl.digest is not None:  # None only while _support records it
        compiled._first_choice_cache.append(tpl.first_choice)
        compiled._digest_cache.append(tpl.digest)
    return CompiledRoutingModel(
        compiled=compiled, states=tpl.columns.states, job=job,
        columns=tpl.columns, choice_codes=tpl.choice_codes,
    )


def _support(
    geo: _Geometry,
    job: RoutingJob,
    values: np.ndarray,
    mask: np.ndarray,
) -> "tuple[sparse.csr_matrix, _BuildTemplate]":
    """Record the template of one support of ``geo`` and build the
    transitions of ``values`` on it.

    Emits the positive entries (``mask``) as provisional transitions in
    entry order, restricts the model to the component reachable from the
    start with a C-level sparse BFS
    (:func:`scipy.sparse.csgraph.breadth_first_order`), renumbers states
    (hazard sink 0, start 1, then provisional order) and choices (by
    owner, stably), and assembles the CSR matrix.
    """
    perf.incr("fastmdp.builds")
    tpl = _BuildTemplate()
    entries = np.flatnonzero(mask)
    row_arr = geo.choice[entries].astype(np.int64)
    col_arr = geo.target[entries].astype(np.int64)
    val_arr = values[entries]
    owner_arr = geo.owner
    total = geo.pattern.shape[0] - 1
    start_pid = geo.start_pid

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

    keep_choice = np.flatnonzero(reach[owner_arr])
    new_owner = new_id[owner_arr[keep_choice]]
    perm = np.argsort(new_owner, kind="stable")
    final_choices = keep_choice[perm]
    num_choices = final_choices.size
    choice_state = new_owner[perm]
    choice_codes = geo.code[final_choices]
    choice_new = np.full(owner_arr.size, -1, dtype=np.int64)
    choice_new[final_choices] = np.arange(num_choices, dtype=np.int64)

    if row_arr.size:
        rows_f = choice_new[row_arr]
        tmask = rows_f >= 0
        rows_f = rows_f[tmask]
        cols_f = new_id[col_arr[tmask]]
        vals_f = val_arr[tmask]
        kept = entries[tmask]
        counts = np.bincount(rows_f, minlength=num_choices)
        assert (counts > 0).all(), "every action has at least one outcome"
        t_order = np.argsort(rows_f, kind="stable")
        indptr = np.zeros(max(num_choices, 1) + 1, dtype=np.int64)
        indptr[1 : num_choices + 1] = np.cumsum(counts)
        cols_sorted = cols_f[t_order]
        tpl.value_gather = kept[t_order].astype(np.int32)
        tpl.indices = cols_sorted.copy()
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
            # merges.  A replay can then gather and add straight into
            # canonical form.  The self-check against the matrix just
            # built guards the recording; on mismatch the replay path
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
            run = np.cumsum(new_run) - 1  # run of each sorted entry
            depth = np.arange(nnz0) - starts[run]  # its place in the run
            sorted_pos = kept[t_order[perm2]]
            dup_steps = tuple(
                (run[depth == j], sorted_pos[depth == j])
                for j in range(1, int(depth.max()) + 1)
            )
            first = sorted_pos[starts]
            if (
                np.array_equal(
                    _canonical_data(values, first, dup_steps),
                    transitions.data,
                )
                and np.array_equal(cols2[starts], transitions.indices)
            ):
                tpl.value_gather = first.astype(np.int32)
                tpl.dup_steps = dup_steps
                tpl.indices = transitions.indices.copy()
                tpl.indptr = transitions.indptr.copy()
    else:
        transitions = sparse.csr_matrix((max(num_choices, 1), n))

    goal_mask = np.zeros(n, dtype=bool)
    goal_new = new_id[geo.goal_pids]
    goal_mask[goal_new[goal_new >= 0]] = True
    hazard_mask = np.zeros(n, dtype=bool)
    hazard_mask[HAZARD_INDEX] = True
    from repro.core.mdp import HAZARD_STATE
    from repro.modelcheck.batch import structural_key

    inv = np.zeros(n, dtype=np.int64)
    inv[new_id[reach_pids]] = reach_pids
    xa, ya, w, h = geo.pattern[inv].T
    corners = np.stack([xa, ya, xa + w - 1, ya + h - 1], axis=1)
    corners = corners.astype(np.int16)
    corners[HAZARD_INDEX] = 0
    state_objects: list[Rect | str] = [HAZARD_STATE] + [
        _trusted_rect(*c) for c in corners[1:].tolist()
    ]
    tpl.columns = StateColumns(
        states=state_objects, corners=corners,
        label_states=((HAZARD_INDEX, HAZARD_STATE),),
        labels=tuple(geo.labels.tolist()),
    )
    tpl.num_choices = num_choices
    tpl.n = n
    tpl.choice_state = choice_state
    tpl.labels = {"goal": goal_mask, "hazard": hazard_mask}
    tpl.choice_codes = choice_codes
    compiled = _model(tpl, job, transitions).compiled
    tpl.first_choice = compiled.first_choice()
    tpl.digest = structural_key(compiled)
    return transitions, tpl


def extract_fast_strategy(
    model: CompiledRoutingModel, result: ValueResult
) -> MemorylessStrategy:
    """Memoryless strategy from a solved compiled routing model.

    The strategy keeps the model's state columns, the solve's value
    vector (read-only) and one int16 action code per state; no per-state
    map is built here.
    """
    cm = model.compiled
    decided = np.flatnonzero(result.choice >= 0)
    picked = cm.first_choice()[decided] + result.choice[decided]
    codes = np.full(cm.num_states, -1, dtype=np.int16)
    codes[decided] = model.choice_codes[picked]
    values = result.values.view()
    values.flags.writeable = False
    return MemorylessStrategy.from_columns(
        model.columns, values, codes, float(result.values[cm.initial])
    )
