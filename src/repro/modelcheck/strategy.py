"""Memoryless strategy extraction from solved models.

For the reach-avoid fragment, memoryless deterministic strategies suffice on
MDPs and turn-based SMGs, so a strategy is simply a map from state to the
action label of the optimal choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.geometry.rect import Rect, _trusted_rect
from repro.modelcheck.model import MDP
from repro.modelcheck.reachability import ValueResult

State = Hashable


def _state_token(state: State) -> "list[int] | str":
    """JSON-safe encoding of a routing-model state (Rect or label str)."""
    if isinstance(state, Rect):
        return list(state.as_tuple())
    if isinstance(state, str):
        return state
    raise TypeError(f"state {state!r} has no payload encoding")


def _state_from_token(token: "list[int] | str") -> State:
    if isinstance(token, str):
        return token
    # Tokens only ever come from _state_token, so the rectangle is already
    # validated — strategy rehydration builds tens of thousands of Rects.
    xa, ya, xb, yb = token
    return _trusted_rect(xa, ya, xb, yb)


@dataclass(frozen=True)
class MemorylessStrategy:
    """A state -> action-label map plus the value achieved from each state.

    ``value_at`` returns ``None`` for states outside the model, letting
    callers distinguish "unknown state" from "known but losing state".
    """

    decisions: dict[State, str]
    values: dict[State, float]
    initial_value: float

    def action(self, state: State) -> str | None:
        """The prescribed action label, or ``None`` if the strategy is
        undefined at ``state`` (goal/hazard/unreached states)."""
        return self.decisions.get(state)

    def value_at(self, state: State) -> float | None:
        return self.values.get(state)

    def __len__(self) -> int:
        return len(self.decisions)

    def to_payload(self) -> dict:
        """A JSON/pickle-safe dict form of the strategy.

        Columnar layout — one ``states`` list with parallel ``values`` and
        ``actions`` columns (``None`` action = no decision at that state) —
        so rehydration decodes each state token exactly once.  Routing-model
        states (:class:`~repro.geometry.rect.Rect` patterns plus label
        strings like the hazard sink) are encoded as 4-int lists or strings;
        other state types are rejected.  Floats round-trip exactly through
        both pickle and ``json`` (``repr``-based), including the ``inf``
        values of unreachable states.
        """
        states, values, actions = [], [], []
        for state, value in self.values.items():
            states.append(_state_token(state))
            values.append(value)
            actions.append(self.decisions.get(state))
        for state, action in self.decisions.items():
            if state not in self.values:  # decision-only state (unusual)
                states.append(_state_token(state))
                values.append(None)
                actions.append(action)
        return {
            "states": states,
            "values": values,
            "actions": actions,
            "initial_value": self.initial_value,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MemorylessStrategy":
        """Rebuild a strategy from :meth:`to_payload` output."""
        decisions: dict[State, str] = {}
        values: dict[State, float] = {}
        for token, value, action in zip(
            payload["states"], payload["values"], payload["actions"]
        ):
            state = _state_from_token(token)
            if value is not None:
                values[state] = value
            if action is not None:
                decisions[state] = action
        return cls(
            decisions=decisions,
            values=values,
            initial_value=float(payload["initial_value"]),
        )


def extract_strategy(mdp: MDP, result: ValueResult) -> MemorylessStrategy:
    """Build a :class:`MemorylessStrategy` from a solved model.

    States whose optimal choice index is -1 (absorbing, goal, hazard or
    unreachable under the objective) carry a value but no decision.
    """
    decisions: dict[State, str] = {}
    values: dict[State, float] = {}
    for idx, state in enumerate(mdp.states):
        values[state] = float(result.values[idx])
        c_idx = int(result.choice[idx])
        if c_idx >= 0:
            decisions[state] = mdp.enabled(idx)[c_idx].label
    if mdp.initial is None:
        raise ValueError("model has no initial state")
    initial_value = float(result.values[mdp.initial])
    if np.isnan(initial_value):
        raise ValueError("initial state has no defined value")
    return MemorylessStrategy(
        decisions=decisions, values=values, initial_value=initial_value
    )
