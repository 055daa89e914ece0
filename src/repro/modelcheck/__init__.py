"""Explicit-state probabilistic model checking (the PRISM-games substitute).

Provides the query classes Algorithm 2 sends to the model checker: maximum
reach-avoid probability and minimum expected total reward on MDPs, plus
turn-based stochastic-game values for the full MEDA SMG.
"""

from repro.modelcheck.compiled import ValueResult
from repro.modelcheck.export import export_prism_explicit, import_prism_explicit
from repro.modelcheck.interval import IntervalSolution, NonConvergence
from repro.modelcheck.games import (
    game_reach_avoid_probability,
    game_reach_avoid_reward,
)
from repro.modelcheck.model import (
    MDP,
    PLAYER_CONTROLLER,
    PLAYER_ENVIRONMENT,
    SMG,
    Choice,
)
from repro.modelcheck.properties import (
    Objective,
    Query,
    ReachAvoid,
    probability_query,
    reward_query,
)
from repro.modelcheck.precompute import QualitativeSets, qualitative
from repro.modelcheck.strategy import MemorylessStrategy, extract_strategy

__all__ = [
    "MDP",
    "PLAYER_CONTROLLER",
    "PLAYER_ENVIRONMENT",
    "SMG",
    "Choice",
    "IntervalSolution",
    "MemorylessStrategy",
    "NonConvergence",
    "Objective",
    "QualitativeSets",
    "Query",
    "ReachAvoid",
    "ValueResult",
    "export_prism_explicit",
    "extract_strategy",
    "game_reach_avoid_probability",
    "game_reach_avoid_reward",
    "import_prism_explicit",
    "probability_query",
    "qualitative",
    "reward_query",
]
