"""The 20 microfluidic actions, their frontier sets and guards (Sec. V-B).

MEDA biochips support three classes of droplet manipulation — cardinal
movement, ordinal movement and shape morphing — realized here as five action
families:

* ``A_d``   — single-step cardinal moves ``a_N, a_S, a_E, a_W``;
* ``A_dd``  — double-step cardinal moves ``a_NN, a_SS, a_EE, a_WW``;
* ``A_dd'`` — ordinal moves ``a_NE, a_NW, a_SE, a_SW``;
* ``A_down``— width-increasing morphs ``a_vNE, a_vNW, a_vSE, a_vSW``
  (the paper's ``A_↓``: height decreases, width grows toward the named
  ordinal direction);
* ``A_up``  — height-increasing morphs ``a_^NE, a_^NW, a_^SE, a_^SW``
  (the paper's ``A_↑``).

Every action has *frontier sets* — the MCs just beyond the droplet that pull
it in each direction (Table II) — and *guards* — preconditions on the droplet
shape (aspect-ratio bounds for morphs, minimum length for double steps).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.geometry.rect import Rect, _trusted_rect


class ActionClass(Enum):
    """The five action families of Sec. V-B."""

    CARDINAL = "cardinal"
    DOUBLE = "double"
    ORDINAL = "ordinal"
    WIDEN = "widen"  # the paper's A_↓ (height decreases, width grows)
    HEIGHTEN = "heighten"  # the paper's A_↑ (width decreases, height grows)


#: Unit displacement of each cardinal direction (x east, y north).
DIRECTION_STEPS: dict[str, tuple[int, int]] = {
    "N": (0, 1),
    "S": (0, -1),
    "E": (1, 0),
    "W": (-1, 0),
}

VERTICAL = ("N", "S")
HORIZONTAL = ("E", "W")

#: Default aspect-ratio bound r: AR is kept within [1/r, r] (Sec. V-B notes
#: droplets should not exceed 2:1 to avoid unintentional splitting).
DEFAULT_MAX_ASPECT = 2.0

#: Minimum droplet length (in the travel axis) for a double-step move: "a
#: droplet can be reliably moved a distance no longer than half its length
#: in one cycle", hence length >= 4 for a two-MC hop.
DOUBLE_STEP_MIN_LENGTH = 4


@dataclass(frozen=True)
class Action:
    """One microfluidic action.

    ``vertical``/``horizontal`` name the cardinal components involved:
    a cardinal/double action has exactly one of them, ordinal and morphing
    actions have both (for morphs they encode the growth corner).
    """

    name: str
    klass: ActionClass
    vertical: str | None = None
    horizontal: str | None = None

    def __post_init__(self) -> None:
        if self.vertical is not None and self.vertical not in VERTICAL:
            raise ValueError(f"bad vertical direction {self.vertical!r}")
        if self.horizontal is not None and self.horizontal not in HORIZONTAL:
            raise ValueError(f"bad horizontal direction {self.horizontal!r}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _build_registry() -> dict[str, Action]:
    actions: dict[str, Action] = {}
    for d in VERTICAL:
        actions[f"a_{d}"] = Action(f"a_{d}", ActionClass.CARDINAL, vertical=d)
        actions[f"a_{d}{d}"] = Action(f"a_{d}{d}", ActionClass.DOUBLE, vertical=d)
    for d in HORIZONTAL:
        actions[f"a_{d}"] = Action(f"a_{d}", ActionClass.CARDINAL, horizontal=d)
        actions[f"a_{d}{d}"] = Action(f"a_{d}{d}", ActionClass.DOUBLE, horizontal=d)
    for dv in VERTICAL:
        for dh in HORIZONTAL:
            actions[f"a_{dv}{dh}"] = Action(
                f"a_{dv}{dh}", ActionClass.ORDINAL, vertical=dv, horizontal=dh
            )
            actions[f"a_v{dv}{dh}"] = Action(
                f"a_v{dv}{dh}", ActionClass.WIDEN, vertical=dv, horizontal=dh
            )
            actions[f"a_^{dv}{dh}"] = Action(
                f"a_^{dv}{dh}", ActionClass.HEIGHTEN, vertical=dv, horizontal=dh
            )
    return actions


#: Registry of all 20 actions, keyed by name (e.g. ``a_N``, ``a_NN``,
#: ``a_NE``, ``a_vNE``, ``a_^NE``).
ACTIONS: dict[str, Action] = _build_registry()

#: The action families as tuples, mirroring the paper's A_d, A_dd, A_dd',
#: A_↓ and A_↑ sets.
CARDINAL_ACTIONS = tuple(a for a in ACTIONS.values() if a.klass is ActionClass.CARDINAL)
DOUBLE_ACTIONS = tuple(a for a in ACTIONS.values() if a.klass is ActionClass.DOUBLE)
ORDINAL_ACTIONS = tuple(a for a in ACTIONS.values() if a.klass is ActionClass.ORDINAL)
WIDEN_ACTIONS = tuple(a for a in ACTIONS.values() if a.klass is ActionClass.WIDEN)
HEIGHTEN_ACTIONS = tuple(a for a in ACTIONS.values() if a.klass is ActionClass.HEIGHTEN)
ALL_ACTIONS = tuple(ACTIONS.values())


def apply_action(delta: Rect, action: Action) -> Rect:
    """The droplet pattern after *successful* execution of ``action``.

    For probabilistic outcomes (partial success of double/ordinal moves) see
    :mod:`repro.core.transitions`.
    """
    if action.klass is ActionClass.CARDINAL:
        dx, dy = DIRECTION_STEPS[action.vertical or action.horizontal]  # type: ignore[index]
        return delta.translated(dx, dy)
    if action.klass is ActionClass.DOUBLE:
        dx, dy = DIRECTION_STEPS[action.vertical or action.horizontal]  # type: ignore[index]
        return delta.translated(2 * dx, 2 * dy)
    if action.klass is ActionClass.ORDINAL:
        dxv, dyv = DIRECTION_STEPS[action.vertical]  # type: ignore[index]
        dxh, dyh = DIRECTION_STEPS[action.horizontal]  # type: ignore[index]
        return delta.translated(dxv + dxh, dyv + dyh)
    if action.klass is ActionClass.WIDEN:
        if delta.height < 2:
            raise ValueError(f"cannot widen single-row droplet {delta}")
        # Height shrinks by one (the row opposite the growth corner is
        # released), width grows by one toward the horizontal component.
        xa, ya, xb, yb = delta.as_tuple()
        if action.horizontal == "E":
            xb += 1
        else:
            xa -= 1
        if action.vertical == "N":
            ya += 1  # growing toward N releases the bottom row
        else:
            yb -= 1
        return _trusted_rect(xa, ya, xb, yb)
    # HEIGHTEN: width shrinks by one, height grows toward the vertical
    # component.
    if delta.width < 2:
        raise ValueError(f"cannot heighten single-column droplet {delta}")
    xa, ya, xb, yb = delta.as_tuple()
    if action.vertical == "N":
        yb += 1
    else:
        ya -= 1
    if action.horizontal == "E":
        xa += 1  # growing toward E releases the west column
    else:
        xb -= 1
    return _trusted_rect(xa, ya, xb, yb)


def frontier(delta: Rect, action: Action, direction: str) -> Rect | None:
    """The frontier set ``Fr(delta; a, d)`` of Table II, as a rectangle.

    Returns ``None`` when the frontier in ``direction`` is empty (the table's
    empty-set entries).  ``direction`` must be one of N/S/E/W; frontiers are
    not defined for ordinal directions.
    """
    if direction not in DIRECTION_STEPS:
        raise ValueError(f"unknown direction {direction!r}")
    xa, ya, xb, yb = delta.as_tuple()
    klass = action.klass

    if klass in (ActionClass.CARDINAL, ActionClass.DOUBLE):
        axis_dir = action.vertical or action.horizontal
        if direction != axis_dir:
            return None
        return _cardinal_frontier(delta, direction)

    if klass is ActionClass.ORDINAL:
        # The frontier rows/columns are shifted by the orthogonal component
        # because the successful move lands the droplet one step over in both
        # axes (Table II, Example 2).
        if direction == action.vertical:
            shift = 1 if action.horizontal == "E" else -1
            row = yb + 1 if direction == "N" else ya - 1
            return Rect(xa + shift, row, xb + shift, row)
        if direction == action.horizontal:
            shift = 1 if action.vertical == "N" else -1
            col = xb + 1 if direction == "E" else xa - 1
            return Rect(col, ya + shift, col, yb + shift)
        return None

    if klass is ActionClass.WIDEN:
        if direction != action.horizontal:
            return None
        if delta.height < 2:
            return None  # no remaining rows to pull into the new column
        col = xb + 1 if direction == "E" else xa - 1
        if action.vertical == "N":
            return Rect(col, ya + 1, col, yb)
        return Rect(col, ya, col, yb - 1)

    # HEIGHTEN
    if direction != action.vertical:
        return None
    if delta.width < 2:
        return None
    row = yb + 1 if direction == "N" else ya - 1
    if action.horizontal == "E":
        return Rect(xa + 1, row, xb, row)
    return Rect(xa, row, xb - 1, row)


def _cardinal_frontier(delta: Rect, direction: str) -> Rect:
    xa, ya, xb, yb = delta.as_tuple()
    if direction == "N":
        return Rect(xa, yb + 1, xb, yb + 1)
    if direction == "S":
        return Rect(xa, ya - 1, xb, ya - 1)
    if direction == "E":
        return Rect(xb + 1, ya, xb + 1, yb)
    return Rect(xa - 1, ya, xa - 1, yb)


def frontier_directions(action: Action) -> tuple[str, ...]:
    """The directions in which ``action`` has a non-empty frontier."""
    if action.klass in (ActionClass.CARDINAL, ActionClass.DOUBLE):
        return (action.vertical or action.horizontal,)  # type: ignore[return-value]
    if action.klass is ActionClass.ORDINAL:
        return (action.vertical, action.horizontal)  # type: ignore[return-value]
    if action.klass is ActionClass.WIDEN:
        return (action.horizontal,)  # type: ignore[return-value]
    return (action.vertical,)  # type: ignore[return-value]


def guard(delta: Rect, action: Action, max_aspect: float = DEFAULT_MAX_ASPECT) -> bool:
    """Whether ``action`` is enabled on ``delta`` (Sec. V-B guards).

    * morphs must keep the aspect ratio within ``[1/r, r]``:
      ``g_↑: (yb - ya + 2) / (xb - xa) <= r`` and
      ``g_↓: (xb - xa + 2) / (yb - ya) <= r``;
    * double steps need length >= 4 along the travel axis:
      ``g_NN, g_SS: h >= 4`` and ``g_EE, g_WW: w >= 4``.

    Chip-boundary feasibility is not a guard: an action whose frontier falls
    off the chip simply has zero success probability (no MCs to pull), which
    the transition kernel handles uniformly.
    """
    if max_aspect < 1.0:
        raise ValueError(f"aspect bound must be >= 1, got {max_aspect}")
    if action.klass is ActionClass.DOUBLE:
        if action.vertical is not None:
            return delta.height >= DOUBLE_STEP_MIN_LENGTH
        return delta.width >= DOUBLE_STEP_MIN_LENGTH
    if action.klass is ActionClass.WIDEN:
        if delta.height < 2:
            return False  # cannot shrink a single-row droplet further
        return (delta.width + 1) / (delta.height - 1) <= max_aspect
    if action.klass is ActionClass.HEIGHTEN:
        if delta.width < 2:
            return False
        return (delta.height + 1) / (delta.width - 1) <= max_aspect
    return True


def enabled_actions(
    delta: Rect, max_aspect: float = DEFAULT_MAX_ASPECT
) -> list[Action]:
    """All actions whose guards hold on ``delta``."""
    return [a for a in ALL_ACTIONS if guard(delta, a, max_aspect=max_aspect)]
