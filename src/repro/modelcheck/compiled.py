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

Stage 1, the SCC levels and the per-level padded matrices depend only on
the transition *support*, so they come from the support contexts of
:mod:`.batch`, kept on the context slot of the fastmdp build template the
model came from: a routing job re-synthesized under new health values pays
only for stage 2.

Warm-start seeds are *validated*, not trusted: values outside the
documented bound raise ``ValueError``, non-finite entries are filled with
the side-correct neutral value (0 for a lower/least-fixpoint side, 1 for
the ``Pmin`` upper side), and the surviving candidate is accepted only if
one Bellman application confirms it bounds the fixpoint from its side
(rejections cold-start and count as ``vi.warm.rejected``).

These are the only production solvers.  Pure-Python value iteration over
the explicit :class:`~repro.modelcheck.model.MDP` is kept as a test oracle
(``tests/oracles.py``); the unit tests check agreement between the two on
randomized models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro import perf
from repro.modelcheck import batch, interval, precompute
from repro.modelcheck.model import MDP

#: Convergence threshold for value iteration (absolute sup-norm).
DEFAULT_EPSILON = 1e-9

#: Hard cap on iterations; with qualitative precomputation the remaining
#: reach-avoid VI contracts geometrically, so hitting the cap indicates a
#: modelling bug.
DEFAULT_MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class ValueResult:
    """Values per state plus the optimal choice index where defined.

    ``choice[s]`` is -1 for states with no enabled choices or where every
    choice is equally (non-)optimal because the state is absorbing/goal.

    ``lower``/``upper`` are certified pointwise bounds on the true values
    (``lower <= V <= upper``) when the producing solver computed them (the
    interval pipeline here); the game solvers leave them ``None``.
    """

    values: np.ndarray
    choice: np.ndarray
    iterations: int
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    @property
    def certified(self) -> bool:
        """Whether this result carries two-sided error bounds."""
        return self.lower is not None and self.upper is not None

    @property
    def gap(self) -> float:
        """Largest certified interval width over states where both bounds
        are finite (``nan`` when the result is uncertified)."""
        if self.lower is None or self.upper is None:
            return float("nan")
        finite = np.isfinite(self.lower) & np.isfinite(self.upper)
        if not finite.any():
            return 0.0
        return float(np.max(self.upper[finite] - self.lower[finite]))


@dataclass(frozen=True)
class CompiledMDP:
    """Array form of an explicit MDP (see module docstring)."""

    num_states: int
    choice_state: np.ndarray
    choice_reward: np.ndarray
    transitions: sparse.csr_matrix
    labels: dict[str, np.ndarray]
    initial: int
    #: The context slot for this model's support, ``None`` to build
    #: contexts per solve (see :func:`.batch.reward_context`).
    contexts: dict | None = field(default=None, repr=False, compare=False)
    _first_choice_cache: list = field(
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

    The qualitative sets come from the model's context slot
    (:func:`repro.modelcheck.batch.qualitative_context`).
    """
    seed = None
    if initial_values is not None:
        seed = _sanitize_probability_seed(
            initial_values, cm.num_states, maximize
        )
        perf.incr("vi.probability.warm_solves")
    else:
        perf.incr("vi.probability.cold_solves")
    cm, shareable = batch._admit(cm)
    goal_mask = cm.label_mask(goal)
    avoid_mask = cm.label_mask(avoid)
    if np.any(goal_mask & avoid_mask):
        raise ValueError("goal and avoid labels overlap")
    if shareable:
        sets = batch.qualitative_context(cm, goal, avoid, maximize)
    else:
        sets = precompute.qualitative(cm, goal_mask, avoid_mask, maximize)
    solution = interval.solve_probability_interval(
        cm, zero=sets.zero, one=sets.one, maximize=maximize,
        epsilon=epsilon, max_iterations=max_iterations, seed=seed,
    )
    values = 0.5 * (solution.lower + solution.upper)
    frozen = goal_mask | avoid_mask
    remapped = _extract(
        cm, values, ~frozen[cm.choice_state], None, maximize, epsilon
    )
    remapped[frozen] = -1
    # The extraction Bellman application counts as an iteration, so even a
    # fully precomputed solve reports >= 1.
    iterations = solution.iterations + 1
    perf.incr("vi.probability.iterations", iterations)
    perf.incr("vi.interval.iters", solution.iterations)
    perf.observe("vi.interval.gap", solution.gap, bounds=GAP_BUCKETS)
    return ValueResult(
        values=values,
        choice=_to_local(cm, remapped),
        iterations=iterations,
        lower=solution.lower,
        upper=solution.upper,
    )


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

    The support-derived half (prob-1 region, SCC levels, per-level padded
    matrices) is the model's :func:`~repro.modelcheck.batch.reward_context`;
    the levels are then solved one at a time, successors first.
    """
    if initial_values is None:
        seed = None
        perf.incr("vi.reward.cold_solves")
    else:
        seed = _sanitize_reward_seed(initial_values, cm.num_states)
        perf.incr("vi.reward.warm_solves")
    cm, shareable = batch._admit(cm)
    context = batch.reward_context if shareable else batch.build_context
    ctx = context(cm, goal, avoid)
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
    remapped = _extract(
        cm, values, ctx.usable, cm.choice_reward, not minimize, epsilon,
        seg=ctx.extract,
    )
    # The extraction Bellman application counts as an iteration.
    iterations = solution.iterations + 1
    perf.incr("vi.reward.iterations", iterations)
    perf.incr("vi.interval.iters", solution.iterations)
    perf.observe("vi.interval.gap", solution.gap, bounds=GAP_BUCKETS)
    return ValueResult(
        values=values,
        choice=_to_local(cm, remapped),
        iterations=iterations,
        lower=solution.lower,
        upper=solution.upper,
    )


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
