"""Vectorized solvers over a compiled (array-form) MDP.

The explicit :class:`~repro.modelcheck.model.MDP` is convenient to build but
slow to iterate in pure Python.  For the synthesis workload (hundreds of
value-iteration solves per bioassay execution) the model is compiled once
into flat numpy/scipy-sparse arrays:

* ``choice_state[c]`` — owner state of choice ``c`` (choices are grouped by
  state in construction order);
* ``choice_reward[c]`` — reward of choice ``c``;
* ``transitions`` — a ``(num_choices, num_states)`` CSR matrix of successor
  probabilities.

Solving is a *sound* three-stage pipeline (see :mod:`.precompute`,
:mod:`.interval` and :mod:`.batch`):

1. **qualitative precomputation** pins every state whose value is exactly
   0 or 1 from the graph alone (``prob0``/``prob1`` under both ``Pmax``
   and ``Pmin`` semantics), which both removes the non-contracting end
   components that made plain ``Pmin`` iteration diverge and gives the
   numeric stage a unique fixpoint;
2. **interval value iteration** brackets the remaining states between a
   monotone lower and upper iterate, so every :class:`ValueResult` carries
   certified ``lower``/``upper`` arrays with ``gap <= epsilon``;
3. **topological SCC ordering** solves the unknown region one condensation
   level at a time, successors first.

Stage 1, the SCC levels and the per-level row/column gathers depend only
on the transition *support*.  A solve here is the batch kernel of
:mod:`.batch` run on one model, so that support-derived work comes from a
process-wide memo keyed on the model's structural fingerprint: a routing
job re-synthesized under new health values pays only for stage 2.

Warm-start seeds are *validated*, not trusted: values outside the
documented bound raise ``ValueError``, non-finite entries are filled with
the side-correct neutral value (0 for a lower/least-fixpoint side, 1 for
the ``Pmin`` upper side), and the surviving candidate is accepted only if
one Bellman application confirms it bounds the fixpoint from its side
(rejections cold-start and count as ``vi.warm.rejected``).

The pure-Python solvers in :mod:`repro.modelcheck.reachability` /
:mod:`repro.modelcheck.rewards` remain as reference implementations; the
unit tests check agreement between the two on randomized models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.modelcheck import interval, precompute
from repro.modelcheck.model import MDP
from repro.modelcheck.reachability import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERATIONS,
    ValueResult,
)


@dataclass(frozen=True)
class CompiledMDP:
    """Array form of an explicit MDP (see module docstring)."""

    num_states: int
    choice_state: np.ndarray
    choice_reward: np.ndarray
    transitions: sparse.csr_matrix
    labels: dict[str, np.ndarray]
    initial: int
    #: The batch solver's context slot for this model's support, ``None``
    #: to build contexts per solve (see :func:`.batch.reward_context`).
    contexts: dict | None = field(default=None, repr=False, compare=False)
    _first_choice_cache: list = field(
        default_factory=list, repr=False, compare=False
    )
    _digest_cache: list = field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def num_choices(self) -> int:
        return int(self.choice_state.size)

    def label_mask(self, name: str) -> np.ndarray:
        """Boolean state mask for a label (all-false when unused)."""
        if name in self.labels:
            return self.labels[name]
        return np.zeros(self.num_states, dtype=bool)

    def first_choice(self) -> np.ndarray:
        """Index of each state's first choice (choices are state-grouped).

        Computed once per model and reused by every strategy extraction and
        local-index conversion instead of re-running bincount/cumsum per
        call.
        """
        if not self._first_choice_cache:
            first = np.zeros(self.num_states, dtype=np.int64)
            counts = np.bincount(self.choice_state, minlength=self.num_states)
            first[1:] = np.cumsum(counts)[:-1]
            self._first_choice_cache.append(first)
        return self._first_choice_cache[0]


def compile_mdp(mdp: MDP) -> CompiledMDP:
    """Flatten an explicit MDP into arrays for the vectorized solvers."""
    if mdp.initial is None:
        raise ValueError("model has no initial state")
    n = mdp.num_states
    choice_state: list[int] = []
    choice_reward: list[float] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    c_idx = 0
    for s in range(n):
        for choice in mdp.enabled(s):
            choice_state.append(s)
            choice_reward.append(choice.reward)
            for t, p in choice.successors:
                rows.append(c_idx)
                cols.append(t)
                vals.append(p)
            c_idx += 1
    transitions = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(max(c_idx, 1), n)
    )
    labels = {
        name: _mask(n, members) for name, members in mdp.labels.items()
    }
    return CompiledMDP(
        num_states=n,
        choice_state=np.asarray(choice_state, dtype=np.int64),
        choice_reward=np.asarray(choice_reward, dtype=float),
        transitions=transitions,
        labels=labels,
        initial=mdp.initial,
    )


def _mask(n: int, members: set[int]) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


#: Width of the tie band in strategy extraction, in units of the solve's
#: ``epsilon`` (see :func:`_extract`).  Measured over a warm-vs-cold
#: sweep of seeded jobs and health fields; see DESIGN.md §7.
TIE_BAND = 0.1


def _sanitize_probability_seed(
    initial_values: np.ndarray, n: int, maximize: bool
) -> np.ndarray:
    """Validate a probability warm-start seed.

    Finite entries must respect the documented ``[0, 1]`` bound (a gross
    violation raises instead of being silently clipped — it means the
    caller handed values from the wrong query).  Non-finite entries are
    filled *side-correctly*: 0 for the ``Pmax`` lower side, 1 for the
    ``Pmin`` upper side — a 0-fill under ``Pmin`` would sit below the
    greatest fixpoint and stall the old one-sided iteration on a spurious
    fixpoint.
    """
    seed = np.asarray(initial_values, dtype=float)
    if seed.shape != (n,):
        raise ValueError(
            f"warm-start seed has shape {seed.shape}, expected ({n},)"
        )
    finite = np.isfinite(seed)
    if bool(np.any(finite & ((seed < -1e-9) | (seed > 1.0 + 1e-9)))):
        raise ValueError(
            "probability warm-start seed has entries outside [0, 1]"
        )
    fill = 0.0 if maximize else 1.0
    return np.where(finite, np.clip(seed, 0.0, 1.0), fill)


def _sanitize_reward_seed(initial_values: np.ndarray, n: int) -> np.ndarray:
    """Validate a reward warm-start seed (lower side: non-negative)."""
    seed = np.asarray(initial_values, dtype=float)
    if seed.shape != (n,):
        raise ValueError(
            f"warm-start seed has shape {seed.shape}, expected ({n},)"
        )
    finite = np.isfinite(seed)
    if bool(np.any(finite & (seed < -1e-9))):
        raise ValueError("reward warm-start seed has negative entries")
    return np.where(finite, np.maximum(seed, 0.0), 0.0)


def _extract(
    cm: CompiledMDP,
    values: np.ndarray,
    choice_mask: np.ndarray,
    rewards: np.ndarray | None,
    maximize: bool,
    epsilon: float,
    seg: interval._Segments | None = None,
) -> np.ndarray:
    """Greedy strategy (global choice indices) from values converged to
    within ``epsilon``.

    Each state takes the lowest choice index whose value lies within
    ``TIE_BAND * epsilon`` of its optimum (exactly equal when the optimum
    is infinite).  Solves certify values only to within ``epsilon``, and
    warm- and cold-started solves of one model land at different points
    inside that bracket.  Ties — exact ones from symmetric moves included
    — must not be broken by those differences, or a strategy would depend
    on the warm seed, i.e. on which jobs ran before.  ``seg`` is the
    segments of ``choice_state[choice_mask]`` when the caller keeps them
    (:class:`~repro.modelcheck.batch.SharedContext`); otherwise they are
    derived here.
    """
    n = cm.num_states
    owners = cm.choice_state
    if seg is None:
        seg = interval._Segments.of(owners[choice_mask], n)
    t = cm.transitions
    if t.shape[0] != cm.num_choices:
        t = t[: cm.num_choices]
    q = t @ values
    if rewards is not None:
        q = rewards + q
    mask_idx = np.flatnonzero(choice_mask)
    choice = seg.canonical(q[mask_idx], maximize, TIE_BAND * epsilon)
    remapped = np.full(n, -1, dtype=np.int64)
    has = choice >= 0
    remapped[seg.owners[has]] = mask_idx[choice[has]]
    return remapped


def solve_reach_avoid_probability(
    cm: CompiledMDP,
    goal: str = "goal",
    avoid: str = "hazard",
    maximize: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    initial_values: np.ndarray | None = None,
) -> ValueResult:
    """Vectorized ``Pmax``/``Pmin`` of ``[] !avoid && <> goal``.

    The default pipeline is sound: qualitative precomputation pins the
    exact-0/exact-1 states, then interval value iteration brackets the rest
    between monotone bounds, so the result's ``lower``/``upper`` satisfy
    ``lower <= P <= upper`` pointwise with ``max(upper - lower) <= epsilon``
    and ``values`` is their midpoint (within ``epsilon/2`` of the truth).

    ``initial_values`` warm-starts the contracting side (lower for
    ``Pmax``, upper for ``Pmin``).  Seeds are validated: finite entries
    outside ``[0, 1]`` raise ``ValueError``; non-finite entries fill
    side-correctly; the candidate (relaxed by ``epsilon`` toward its side)
    is kept only when one Bellman application confirms it bounds the
    fixpoint, otherwise the solve silently cold-starts
    (``vi.warm.rejected``).

    The qualitative sets come from the support-keyed memo of
    :func:`repro.modelcheck.batch.qualitative_context` (a batch of one).
    """
    from repro.modelcheck.batch import solve_reach_avoid_probability_batch

    return solve_reach_avoid_probability_batch(
        [cm], goal, avoid, maximize=maximize, epsilon=epsilon,
        max_iterations=max_iterations, initial_values=[initial_values],
    )[0]


def solve_prob1e(
    cm: CompiledMDP, goal: str = "goal", avoid: str = "hazard"
) -> np.ndarray:
    """Boolean mask of states with a strategy reaching ``goal`` w.p. 1.

    Thin wrapper over :func:`repro.modelcheck.precompute.prob1e_mask` (the
    vectorized nested fixpoint ``nu Z. mu Y. goal | Pre(Z, Y)``), kept for
    API compatibility.
    """
    return precompute.prob1e_mask(
        cm, cm.label_mask(goal), cm.label_mask(avoid)
    )


def _reward_region(
    cm: CompiledMDP, goal_mask: np.ndarray, avoid_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(goal_zero, active, usable)`` for total-reward solving.

    ``usable`` restricts to choices whose support stays inside the
    probability-one region (PRISM total-reward semantics: any chance of
    leaving it means reward accrues forever on the non-reaching runs).
    """
    sure = precompute.prob1e_mask(cm, goal_mask, avoid_mask)
    n = cm.num_states
    owners = cm.choice_state
    struct = precompute.structure(cm)
    stays = (struct @ (~sure).astype(np.int8)) == 0
    usable = stays & sure[owners] & ~goal_mask[owners]
    active = np.zeros(n, dtype=bool)
    active[owners[usable]] = True
    return goal_mask & sure, active, usable


def solve_reach_avoid_reward(
    cm: CompiledMDP,
    goal: str = "goal",
    avoid: str = "hazard",
    minimize: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    initial_values: np.ndarray | None = None,
) -> ValueResult:
    """Vectorized ``Rmin``/``Rmax`` of cumulated reward until ``goal``.

    States outside the probability-one region get ``inf`` (PRISM
    total-reward semantics); the iteration is restricted to choices that
    stay inside it.  The default pipeline certifies the finite values with
    optimistic value iteration: ``lower <= R <= upper`` pointwise with
    ``max(upper - lower) <= epsilon`` over the finite region, and
    ``values`` is the midpoint.

    ``initial_values`` warm-starts the lower iterate.  Negative finite
    entries raise ``ValueError``; non-finite entries fill with 0 (the sound
    lower start); the candidate (relaxed down by ``epsilon``) is verified
    per SCC level with a Bellman application and dropped where it fails
    (``vi.warm.rejected``).  Goal states and states outside the prob-1
    region keep their pinned values regardless of the seed.

    The certified solve is the batch kernel on one model
    (:func:`~repro.modelcheck.batch.solve_reach_avoid_reward_batch`),
    sharing its support-keyed context memo.
    """
    from repro.modelcheck.batch import solve_reach_avoid_reward_batch

    return solve_reach_avoid_reward_batch(
        [cm], goal, avoid, minimize=minimize, epsilon=epsilon,
        max_iterations=max_iterations, initial_values=[initial_values],
    )[0]


#: Histogram buckets for certified-gap observations (``vi.interval.gap``).
GAP_BUCKETS = (1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-2, 1.0)


def _to_local(cm: CompiledMDP, global_choice: np.ndarray) -> np.ndarray:
    """Convert global choice indices to per-state (local) choice indices.

    :class:`ValueResult` stores the index of the optimal choice *within* the
    owning state's choice list, matching the reference solvers.
    """
    n = cm.num_states
    first_choice = cm.first_choice()
    local = np.full(n, -1, dtype=np.int64)
    has = global_choice >= 0
    states = np.flatnonzero(has)
    local[states] = global_choice[states] - first_choice[states]
    return local
