"""The full MEDA stochastic multiplayer game (Sec. V-C).

Game states are triplets ``(delta, H, player)``: the droplet pattern, the
health matrix, and whose turn it is.  Player 1 (the droplet controller)
chooses microfluidic actions; player 2 (chip degradation) chooses which MCs
to degrade.  The paper uses this model in two ways: to *derive* the per-RJ
MDP by freezing ``H`` (Sec. VI-C — implemented in :mod:`repro.core.fastmdp`),
and as the simulation model with ``H`` replaced by the hidden ``D``.

Because the joint state space is astronomically large (the paper notes
``|S| > 10^77`` for a 20x20 chip), the explicit game built here is intended
for *small* instances: worst-case analyses, cross-validation of the MDP
reduction, and the adversarial-degradation ablation bench.  The degradation
player's action set is configurable; the default lets it degrade any single
MC inside the hazard zone (or do nothing), a standard abstraction of the
paper's power-set action space that keeps the game finite-branching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.actions import ALL_ACTIONS, DEFAULT_MAX_ASPECT, guard
from repro.core.fastmdp import HAZARD_STATE
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import force_field_from_health
from repro.core.transitions import outcome_distribution
from repro.degradation.model import DEFAULT_HEALTH_BITS
from repro.geometry.rect import Rect
from repro.modelcheck.model import PLAYER_CONTROLLER, PLAYER_ENVIRONMENT, SMG

HealthKey = tuple[tuple[int, ...], ...]


def _health_key(health: np.ndarray) -> HealthKey:
    return tuple(tuple(int(v) for v in row) for row in health)


def _health_array(key: HealthKey) -> np.ndarray:
    return np.asarray(key, dtype=int)


@dataclass(frozen=True)
class GameState:
    """One SMG state ``s = (delta, H, player)``."""

    delta: Rect | str
    health: HealthKey
    player: int


def build_meda_smg(
    job: RoutingJob,
    initial_health: np.ndarray,
    bits: int = DEFAULT_HEALTH_BITS,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    degradable_cells: Iterable[tuple[int, int]] | None = None,
    max_degradations: int | None = None,
) -> SMG:
    """Build the explicit MEDA SMG for a routing job.

    ``degradable_cells`` restricts which MCs player 2 may degrade (default:
    every cell inside the hazard zone); ``max_degradations`` optionally caps
    the total number of degradation events, bounding the state space for
    tests.  Player 2 always has a "do nothing" move, so it can never be
    forced to act.
    """
    if job.is_dispense:
        raise ValueError("dispense jobs are materialized, not routed")
    if degradable_cells is None:
        degradable_cells = list(job.hazard.cells())
    else:
        degradable_cells = list(degradable_cells)

    game = SMG()
    initial = GameState(job.start, _health_key(initial_health), PLAYER_CONTROLLER)
    game.set_initial(initial)
    budget_left = {initial: max_degradations}

    stack = [initial]
    seen = {initial}
    while stack:
        state = stack.pop()
        if state.delta == HAZARD_STATE:
            game.add_label("hazard", state)
            continue
        assert isinstance(state.delta, Rect)
        if job.goal.contains(state.delta):
            game.add_label("goal", state)
            continue
        game.set_player(state, state.player)
        if state.player == PLAYER_CONTROLLER:
            _expand_controller(game, job, state, max_aspect, bits, stack, seen,
                               budget_left)
        else:
            _expand_environment(game, state, degradable_cells, stack, seen,
                                budget_left)
    game.validate()
    return game


def _expand_controller(
    game: SMG,
    job: RoutingJob,
    state: GameState,
    max_aspect: float,
    bits: int,
    stack: list[GameState],
    seen: set[GameState],
    budget_left: dict[GameState, int | None],
) -> None:
    assert isinstance(state.delta, Rect)
    health = _health_array(state.health)
    field = force_field_from_health(health, bits=bits)
    budget = budget_left.get(state)
    for action in ALL_ACTIONS:
        if not guard(state.delta, action, max_aspect=max_aspect):
            continue
        successors: list[tuple[GameState, float]] = []
        for outcome in outcome_distribution(state.delta, action, field):
            if job.hazard.contains(outcome.delta):
                succ = GameState(outcome.delta, state.health, PLAYER_ENVIRONMENT)
            else:
                succ = GameState(HAZARD_STATE, state.health, PLAYER_ENVIRONMENT)
            successors.append((succ, outcome.probability))
            _visit(succ, stack, seen, budget_left, budget)
        game.add_choice(state, action.name, successors, reward=1.0)


def _expand_environment(
    game: SMG,
    state: GameState,
    degradable_cells: list[tuple[int, int]],
    stack: list[GameState],
    seen: set[GameState],
    budget_left: dict[GameState, int | None],
) -> None:
    budget = budget_left.get(state)
    noop = GameState(state.delta, state.health, PLAYER_CONTROLLER)
    game.add_choice(state, "idle", [(noop, 1.0)])
    _visit(noop, stack, seen, budget_left, budget)
    if budget is not None and budget <= 0:
        return
    health = _health_array(state.health)
    for (i, j) in degradable_cells:
        current = health[i - 1, j - 1]
        if current <= 0:
            continue
        degraded = health.copy()
        degraded[i - 1, j - 1] = current - 1
        succ = GameState(state.delta, _health_key(degraded), PLAYER_CONTROLLER)
        game.add_choice(state, f"degrade_{i}_{j}", [(succ, 1.0)])
        _visit(succ, stack, seen, budget_left,
               None if budget is None else budget - 1)


def _visit(
    state: GameState,
    stack: list[GameState],
    seen: set[GameState],
    budget_left: dict[GameState, int | None],
    budget: int | None,
) -> None:
    if state in seen:
        # Keep the *largest* remaining budget seen for this state so the
        # exploration never under-approximates player 2's power.
        old = budget_left.get(state)
        if old is not None and (budget is None or budget > old):
            budget_left[state] = budget
        return
    seen.add(state)
    budget_left[state] = budget
    stack.append(state)
