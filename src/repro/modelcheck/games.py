"""Stochastic-game solving for the full MEDA SMG (Sec. V-C).

The MEDA model is a turn-based stochastic game between the droplet controller
(player 1, maximizing) and chip degradation (player 2).  The synthesis path
of the paper reduces the game to an MDP per routing job (Sec. VI-C); the
game-level solver here serves the second purpose the paper names for the
degradation player — analyzing worst-case (adversarial) and best-case
(cooperative) degradation assumptions — and is used by the ablation bench.

Value iteration for reach-avoid probability on a turn-based SMG:

    V(s) = max_a sum P V    if player(s) = 1
    V(s) = opt_a sum P V    if player(s) = 2

with ``opt = min`` for the adversarial semantics ``<<1>> Pmax=?`` and
``opt = max`` for the cooperative one.
"""

from __future__ import annotations

import numpy as np

from repro.modelcheck.compiled import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERATIONS,
    ValueResult,
)
from repro.modelcheck.model import PLAYER_CONTROLLER, SMG


def game_reach_avoid_reward(
    game: SMG,
    goal: str = "goal",
    avoid: str = "hazard",
    adversarial: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> ValueResult:
    """Game value of the expected cumulated reward until ``goal``.

    Player 1 minimizes the expected reward (cycles); with
    ``adversarial=True`` player 2 maximizes it — the worst-case completion
    time under hostile degradation (``<<1>> Rmin=?`` in PRISM-games terms).
    States from which player 1 cannot force reaching the goal almost surely
    get value ``inf``: the iteration is restricted to player-1 choices that
    keep the run inside the player-1 almost-sure winning region, computed by
    the game variant of ``prob1e`` below.
    """
    goal_states = game.label_set(goal)
    sure = _game_prob1e(game, goal, avoid, adversarial=adversarial)

    n = game.num_states
    values = np.full(n, np.inf)
    for g in goal_states & sure:
        values[g] = 0.0
    choice = np.full(n, -1, dtype=int)
    active = []
    usable: dict[int, list[int]] = {}
    for s in sure:
        if s in goal_states or game.is_absorbing(s):
            continue
        if game.player_of(s) == PLAYER_CONTROLLER:
            ok = [
                i for i, c in enumerate(game.enabled(s))
                if all(t in sure for t, _ in c.successors)
            ]
        else:
            ok = list(range(len(game.enabled(s))))
        if ok:
            usable[s] = ok
            active.append(s)
            values[s] = 0.0

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        delta = 0.0
        for s in active:
            minimizing = (
                game.player_of(s) == PLAYER_CONTROLLER or not adversarial
            )
            best_val: float | None = None
            best_choice = -1
            for c_idx in usable[s]:
                c = game.enabled(s)[c_idx]
                v = c.reward + sum(p * values[t] for t, p in c.successors)
                if (
                    best_val is None
                    or (minimizing and v < best_val)
                    or (not minimizing and v > best_val)
                ):
                    best_val, best_choice = v, c_idx
            assert best_val is not None
            delta = max(delta, abs(best_val - values[s]))
            values[s], choice[s] = best_val, best_choice
        if delta < epsilon:
            break
    else:  # pragma: no cover - indicates a modelling bug
        raise RuntimeError("game reward iteration did not converge")
    return ValueResult(values=values, choice=choice, iterations=iterations)


def _game_prob1e(
    game: SMG, goal: str, avoid: str, adversarial: bool
) -> set[int]:
    """States where player 1 forces reaching ``goal`` w.p. 1 (avoiding
    ``avoid``) against the chosen environment semantics.

    The cooperative case reduces to the MDP ``prob1e``; the adversarial
    nested fixpoint additionally requires *every* player-2 choice to stay
    in the candidate set and make progress possible.
    """
    goal_states = game.label_set(goal)
    avoid_states = game.label_set(avoid)
    candidates = {
        s for s in range(game.num_states)
        if s not in avoid_states
        and (s in goal_states or not game.is_absorbing(s))
    }
    while True:
        reached = set(goal_states & candidates)
        changed = True
        while changed:
            changed = False
            for s in candidates:
                if s in reached or s in goal_states:
                    continue
                if game.player_of(s) == PLAYER_CONTROLLER or not adversarial:
                    qualifies = any(
                        all(t in candidates for t, _ in c.successors)
                        and any(t in reached for t, _ in c.successors)
                        for c in game.enabled(s)
                    )
                else:
                    qualifies = all(
                        all(t in candidates for t, _ in c.successors)
                        and any(t in reached for t, _ in c.successors)
                        for c in game.enabled(s)
                    )
                if qualifies:
                    reached.add(s)
                    changed = True
        if reached == candidates:
            return candidates
        candidates = reached


def game_reach_avoid_probability(
    game: SMG,
    goal: str = "goal",
    avoid: str = "hazard",
    adversarial: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> ValueResult:
    """Game value of ``[] !avoid && <> goal`` with player 1 maximizing.

    ``adversarial=True`` solves ``<<1>> Pmax=?`` (degradation minimizes);
    ``adversarial=False`` lets both players cooperate, yielding the MDP
    upper bound.  Returns optimal values and, per state, the owning player's
    optimal choice.
    """
    goal_states = game.label_set(goal)
    avoid_states = game.label_set(avoid)
    if goal_states & avoid_states:
        raise ValueError("goal and avoid labels overlap")

    n = game.num_states
    values = np.zeros(n)
    for g in goal_states:
        values[g] = 1.0
    choice = np.full(n, -1, dtype=int)
    frozen = goal_states | avoid_states

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        delta = 0.0
        for s in range(n):
            if s in frozen or game.is_absorbing(s):
                continue
            maximizing = (
                game.player_of(s) == PLAYER_CONTROLLER or not adversarial
            )
            best_val: float | None = None
            best_choice = -1
            for c_idx, c in enumerate(game.enabled(s)):
                v = sum(p * values[t] for t, p in c.successors)
                if (
                    best_val is None
                    or (maximizing and v > best_val)
                    or (not maximizing and v < best_val)
                ):
                    best_val, best_choice = v, c_idx
            assert best_val is not None
            delta = max(delta, abs(best_val - values[s]))
            values[s], choice[s] = best_val, best_choice
        if delta < epsilon:
            break
    else:  # pragma: no cover - indicates a modelling bug
        raise RuntimeError(f"game value iteration did not converge")
    return ValueResult(values=values, choice=choice, iterations=iterations)
