"""Memoryless strategy extraction from solved models.

For the reach-avoid fragment, memoryless deterministic strategies suffice on
MDPs and turn-based SMGs, so a strategy is simply a map from state to the
action label of the optimal choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable

import numpy as np

from repro.geometry.rect import Rect, _trusted_rect
from repro.modelcheck.compiled import ValueResult
from repro.modelcheck.model import MDP

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
class StateColumns:
    """A model's state inventory in columnar form, shared read-only by
    every strategy extracted from the model.

    ``corners[i]`` is state ``i``'s ``(xa, ya, xb, yb)`` as int16 when it
    is a :class:`~repro.geometry.rect.Rect` pattern and zeros when it is a
    label state, listed as ``(i, name)`` in ``label_states``.  ``labels``
    is the action label table the strategies' int16 action codes index.
    The state objects and the lookup structures below are derived on
    first use and then shared by those strategies; a strategy that is
    only looked up never builds a ``Rect``.
    """

    corners: np.ndarray
    label_states: tuple[tuple[int, str], ...]
    labels: tuple[str, ...]

    @cached_property
    def states(self) -> list:
        """``states[i]``: state ``i`` as a ``Rect`` or its label name."""
        # Corners come from a model build or a validated payload, so the
        # Rects skip their own check.
        states: list = [_trusted_rect(*row) for row in self.corners.tolist()]
        for i, name in self.label_states:
            states[i] = name
        return states

    @cached_property
    def index(self) -> dict:
        """``{key: i}``, keyed by the ``(xa, ya, xb, yb)`` tuple of a
        pattern state and by the name of a label state (see
        :meth:`find`)."""
        keys: list = list(map(tuple, self.corners.tolist()))
        for i, name in self.label_states:
            keys[i] = name
        return dict(zip(keys, range(len(keys))))

    def find(self, state: State) -> int | None:
        """The index of ``state`` (a ``Rect`` or a label name), or None:
        what a strategy's per-cycle lookup reads."""
        if isinstance(state, Rect):
            state = (state.xa, state.ya, state.xb, state.yb)
        return self.index.get(state)

    @cached_property
    def _sorted_rects(self) -> tuple[np.ndarray, np.ndarray]:
        """The Rect states' packed corners, sorted, and their indices."""
        rect = np.ones(len(self.corners), dtype=bool)
        rect[[i for i, _ in self.label_states]] = False
        idx = np.flatnonzero(rect)
        keys = _packed(self.corners)[idx]
        order = np.argsort(keys, kind="stable")
        return keys[order], idx[order]

    def positions(self, other: "StateColumns") -> np.ndarray:
        """Each of ``other``'s states' index here, ``-1`` where absent.

        Rect states join by their packed int16 corners, label states by
        name; states are unique within a model, so each finds at most
        one match.
        """
        keys, idx = self._sorted_rects
        out = np.full(len(other.corners), -1, dtype=np.int64)
        if len(keys):
            want = _packed(other.corners)
            at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
            found = keys[at] == want
            out[found] = idx[at[found]]
        names = {name: i for i, name in self.label_states}
        for i, name in other.label_states:
            out[i] = names.get(name, -1)
        return out


def _packed(corners: np.ndarray) -> np.ndarray:
    """One int64 key per ``(xa, ya, xb, yb)`` int16 row."""
    return np.ascontiguousarray(corners, dtype=np.int16).view(np.int64)[:, 0]


class MemorylessStrategy:
    """A state -> action-label map plus the value achieved from each state.

    ``value_at`` returns ``None`` for states outside the model, letting
    callers distinguish "unknown state" from "known but losing state".

    A strategy is held as the columns its solve produced (see
    :meth:`from_columns`): the model's :class:`StateColumns`, the value
    vector and one int16 action code per state (``-1`` = no decision).
    :meth:`action` reads the columns' shared ``{state: index}`` map and
    the code column, and a warm start reads the value vector, so neither
    the ``decisions`` nor the ``values`` map is built unless asked for.
    Strategies built from maps (the explicit-model path, warm-start maps)
    derive their columns on first use.
    """

    def __init__(
        self,
        decisions: "dict[State, str] | None",
        values: "dict[State, float] | None",
        initial_value: float,
    ) -> None:
        self._decisions = decisions
        self.initial_value = initial_value
        self._values = values
        self._columns: StateColumns | None = None
        self._value_vec: np.ndarray | None = None
        self._codes: np.ndarray | None = None

    @classmethod
    def from_columns(
        cls,
        columns: StateColumns,
        values: np.ndarray,
        codes: np.ndarray,
        initial_value: float,
    ) -> "MemorylessStrategy":
        """A strategy over ``columns`` with per-state ``values`` and action
        ``codes``."""
        strategy = cls(None, None, initial_value)
        strategy._columns = columns
        strategy._value_vec = values
        strategy._codes = codes
        return strategy

    @property
    def decisions(self) -> dict[State, str]:
        if self._decisions is None:
            decided = np.flatnonzero(self._codes >= 0)
            states, labels = self._columns.states, self._columns.labels
            self._decisions = {
                states[s]: labels[c]
                for s, c in zip(decided.tolist(), self._codes[decided].tolist())
            }
        return self._decisions

    @property
    def values(self) -> dict[State, float]:
        if self._values is None:
            self._values = dict(
                zip(self._columns.states, self._value_vec.tolist())
            )
        return self._values

    @property
    def columns(self) -> StateColumns:
        if self._columns is None:
            self._derive_columns()
        return self._columns

    @property
    def value_vector(self) -> np.ndarray:
        """Per-state values in ``columns`` order."""
        if self._columns is None:
            self._derive_columns()
        return self._value_vec

    def action(self, state: State) -> str | None:
        """The prescribed action label, or ``None`` if the strategy is
        undefined at ``state`` (goal/hazard/unreached states)."""
        codes = self._codes
        if codes is None:
            return self._decisions.get(state)
        columns = self._columns
        i = columns.find(state)
        if i is None:
            return None
        code = codes.item(i)
        return None if code < 0 else columns.labels[code]

    def value_at(self, state: State) -> float | None:
        return self.values.get(state)

    def __len__(self) -> int:
        if self._codes is None:
            return len(self._decisions)
        return int(np.count_nonzero(self._codes >= 0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemorylessStrategy):
            return NotImplemented
        return (
            self.initial_value == other.initial_value
            and self.decisions == other.decisions
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return (
            f"MemorylessStrategy({len(self)} decisions, "
            f"initial_value={self.initial_value!r})"
        )

    def __reduce__(self):
        # Pickle as the columnar payload, the store's row form.
        return (MemorylessStrategy.from_payload, (self.to_payload(),))

    def _derive_columns(self) -> None:
        """Columns for a strategy built from maps, in ``values`` order."""
        values = self._values
        if any(state not in values for state in self._decisions):
            raise ValueError("strategy decides a state that has no value")
        n = len(values)
        corners = np.zeros((n, 4), dtype=np.int16)
        label_states = []
        codes = np.full(n, -1, dtype=np.int16)
        labels: dict[str, int] = {}
        for i, state in enumerate(values):
            if isinstance(state, Rect):
                corners[i] = state.as_tuple()
            elif isinstance(state, str):
                label_states.append((i, state))
            else:
                raise TypeError(f"state {state!r} has no payload encoding")
            action = self._decisions.get(state)
            if action is not None:
                codes[i] = labels.setdefault(action, len(labels))
        self._columns = StateColumns(
            corners=corners, label_states=tuple(label_states),
            labels=tuple(labels),
        )
        self._value_vec = np.fromiter(values.values(), dtype=float, count=n)
        self._codes = codes

    def to_payload(self) -> dict:
        """The columnar, pickle-safe form of the strategy.

        Scalars and small lists (the action ``labels`` table, the
        ``label_states`` as ``[index, name]`` pairs, ``initial_value``)
        beside three per-state arrays in one state order: ``values``
        (float64, ``inf`` for unreachable states), ``corners`` ((n, 4)
        int16) and ``codes`` (int16 indices into ``labels``, ``-1`` = no
        decision).  Routing-model states (Rect patterns and label strings
        like the hazard sink) are encodable; other state types raise
        ``TypeError``.  The strategy store writes this form as one binary
        row (:mod:`repro.engine.store`).
        """
        columns = self.columns
        return {
            "labels": list(columns.labels),
            "label_states": [[i, s] for i, s in columns.label_states],
            "initial_value": self.initial_value,
            "values": self._value_vec,
            "corners": columns.corners,
            "codes": self._codes,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MemorylessStrategy":
        """Rebuild a strategy from :meth:`to_payload` output.

        Raises ``ValueError`` on columns that do not describe a strategy:
        mismatched lengths, an action code outside the label table, a
        label state out of range or a degenerate rectangle.
        """
        labels = tuple(payload["labels"])
        values = np.asarray(payload["values"], dtype=float)
        corners = np.asarray(payload["corners"], dtype=np.int16)
        codes = np.asarray(payload["codes"], dtype=np.int16)
        n = values.shape[0] if values.ndim == 1 else -1
        if corners.shape != (n, 4) or codes.shape != (n,):
            raise ValueError("strategy columns disagree in length")
        if not all(isinstance(label, str) for label in labels):
            raise ValueError("action labels must be strings")
        if n and (codes.min() < -1 or codes.max() >= len(labels)):
            raise ValueError("action code outside the label table")
        label_states = tuple((int(i), s) for i, s in payload["label_states"])
        is_rect = np.ones(n, dtype=bool)
        for i, name in label_states:
            if not (0 <= i < n and is_rect[i] and isinstance(name, str)):
                raise ValueError(f"bad label state {i!r}: {name!r}")
            is_rect[i] = False
        xa, ya, xb, yb = corners[is_rect].T
        if not ((xa <= xb) & (ya <= yb)).all():
            raise ValueError("degenerate state rectangle")
        values = values.view()
        values.flags.writeable = False
        columns = StateColumns(corners, label_states, labels)
        return cls.from_columns(
            columns, values, codes, float(payload["initial_value"])
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
